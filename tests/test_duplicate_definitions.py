"""No name is defined twice in one class or module body.

Python lets a later ``def`` silently replace an earlier one. That is
how ``BPlusTree`` carried a fast ``probe`` for eighteen PRs that never
ran: a second ``probe`` further down the class shadowed it. This walks
the AST of every file under ``src/repro`` and ``tools/`` (nothing is
imported) and fails on a function or class name bound twice directly in
the same body. Property ``setter`` / ``deleter`` / ``getter`` chains and
``typing.overload`` stubs rebind on purpose and are exempt.
"""

import ast
from pathlib import Path
from typing import Iterator, List

REPO_ROOT = Path(__file__).resolve().parent.parent
ROOTS = ("src/repro", "tools")

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _decorated(node: ast.AST, *names: str) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Attribute) and decorator.attr in names:
            return True
        if isinstance(decorator, ast.Name) and decorator.id in names:
            return True
    return False


def duplicate_definitions(path: Path) -> Iterator[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.ClassDef)):
            continue
        previous = {}
        for node in scope.body:
            if not isinstance(node, DEFINITIONS):
                continue
            earlier = previous.get(node.name)
            previous[node.name] = node
            if (
                earlier is None
                or _decorated(node, "setter", "deleter", "getter")
                # The implementation that follows its overload stubs.
                or _decorated(earlier, "overload")
            ):
                continue
            owner = getattr(scope, "name", "<module>")
            yield (
                f"{path}: {owner}.{node.name} defined at line "
                f"{earlier.lineno} and again at line {node.lineno}"
            )


def check(roots) -> List[str]:
    return [
        problem
        for root in roots
        for path in sorted(Path(root).rglob("*.py"))
        for problem in duplicate_definitions(path)
    ]


def test_no_name_is_defined_twice_in_one_body():
    problems = check(REPO_ROOT / root for root in ROOTS)
    assert not problems, "\n".join(problems)


def test_checker_sees_a_shadowed_method_and_spares_deliberate_rebinds(tmp_path):
    (tmp_path / "shadow.py").write_text(
        "from typing import overload\n"
        "import typing\n"
        "class Tree:\n"
        "    def probe(self): return 'fast'\n"
        "    @property\n"
        "    def height(self): return 1\n"
        "    @height.setter\n"
        "    def height(self, value): pass\n"
        "    @overload\n"
        "    def get(self, key: int): ...\n"
        "    @typing.overload\n"
        "    def get(self, key: str): ...\n"
        "    def get(self, key): return key\n"
        "    def probe(self): return 'slow'\n"
        "def helper(): pass\n"
        "class helper: pass\n"
    )
    problems = sorted(problem.split(": ")[1] for problem in check([tmp_path]))
    assert problems == [
        "<module>.helper defined at line 15 and again at line 16",
        "Tree.probe defined at line 4 and again at line 14",
    ]
