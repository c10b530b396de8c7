"""Every function and class defined in ``src/repro`` is referenced.

A definition that nothing names is code nobody runs, yet it is read,
reviewed and kept compiling. This walks the AST of every file under
``src/repro``, ``tools``, ``perf``, ``examples`` and ``tests`` (nothing
is imported) and fails on a module-level or class-level function or
class of ``src/repro`` whose name appears nowhere in them. A name
appears when it occurs as a ``Name``, an ``Attribute``, an import alias,
a keyword argument, or a string constant equal to the name (the last
covers ``getattr`` and ``__all__``). Dunder names are called by Python
itself and are exempt.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFINED_IN = "src/repro"
REFERENCED_FROM = ("src/repro", "tools", "perf", "examples", "tests")

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def _sources(root: Path) -> List[Path]:
    return sorted(root.rglob("*.py"))


def referenced_names(tree: ast.AST) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def definitions(tree: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    """``(owner, node)`` for each function or class bound directly in a
    module or class body."""
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.ClassDef)):
            continue
        owner = getattr(scope, "name", "<module>")
        for node in scope.body:
            if isinstance(node, DEFINITIONS):
                yield owner, node


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def check(defined_in: Path, referenced_from) -> List[str]:
    names: Set[str] = set()
    for root in referenced_from:
        for path in _sources(root):
            names.update(referenced_names(_parse(path)))
    return [
        f"{path.relative_to(defined_in)}:{node.lineno}: {owner}.{node.name}"
        for path in _sources(defined_in)
        for owner, node in definitions(_parse(path))
        if node.name not in names and not _dunder(node.name)
    ]


def test_every_definition_is_referenced():
    problems = check(
        REPO_ROOT / DEFINED_IN, [REPO_ROOT / root for root in REFERENCED_FROM]
    )
    assert not problems, "defined but never referenced:\n" + "\n".join(
        problems
    )


def test_checker_sees_each_kind_of_reference(tmp_path):
    package = tmp_path / "package"
    package.mkdir()
    (package / "defs.py").write_text(
        "class Box:\n"
        "    def __len__(self): return 0\n"
        "    def used_attribute(self): pass\n"
        "    def unused_method(self): pass\n"
        "    class Inner:\n"
        "        def unused_inner(self): pass\n"
        "def used_name(): pass\n"
        "def used_import(): pass\n"
        "def used_keyword(): pass\n"
        "def used_string(): pass\n"
        "def unused_function():\n"
        "    def nested_is_not_checked(): pass\n"
        "class Unused: pass\n"
    )
    users = tmp_path / "users"
    users.mkdir()
    (users / "use.py").write_text(
        "from package.defs import used_import as renamed\n"
        "used_name()\n"
        "Box().used_attribute()\n"
        "Box.Inner\n"
        "call(used_keyword=1)\n"
        "getattr(box, 'used_string')\n"
        "'unused_method is only mentioned inside a longer string'\n"
    )
    problems = check(package, [package, users])
    assert sorted(problem.split(": ")[1] for problem in problems) == [
        "<module>.Unused",
        "<module>.unused_function",
        "Box.unused_method",
        "Inner.unused_inner",
    ]
