"""Sorts are built in one place.

``optimizer.enumerate.make_sort`` decides between a full and a partial
sort for every order the planner enforces, and
``optimizer.finalize._rewrite_topmost_sort_to_topn`` turns the ORDER BY
sort under a FETCH FIRST into its bounded form. A ``PlanNode`` of kind
SORT, PARTIAL_SORT or TOPN built anywhere else is a second enforcement
path that misses partial sorts and Top-N (UNION planning had three such
sites). This walks the AST of every file under ``src/repro`` (nothing
is imported) and fails on any other construction site.
"""

import ast
from pathlib import Path
from typing import Iterator, List

REPO_ROOT = Path(__file__).resolve().parent.parent
SORT_KINDS = {"SORT", "PARTIAL_SORT", "TOPN"}
ALLOWED = {
    ("optimizer/enumerate.py", "make_sort"),
    ("optimizer/finalize.py", "_rewrite_topmost_sort_to_topn"),
}


def _sort_kind(call: ast.Call) -> bool:
    kinds = list(call.args[:1]) + [
        keyword.value for keyword in call.keywords if keyword.arg == "kind"
    ]
    return any(
        isinstance(kind, ast.Attribute)
        and isinstance(kind.value, ast.Name)
        and kind.value.id == "OpKind"
        and kind.attr in SORT_KINDS
        for kind in kinds
    )


def _is_plan_node(function: ast.expr) -> bool:
    if isinstance(function, ast.Name):
        return function.id == "PlanNode"
    return isinstance(function, ast.Attribute) and function.attr == "PlanNode"


def sort_sites(root: Path, path: Path) -> Iterator[str]:
    """``relative/path.py:line in function`` per sort-node construction."""
    relative = path.relative_to(root).as_posix()
    tree = ast.parse(path.read_text(), filename=str(path))

    def visit(node: ast.AST, function: str) -> Iterator[str]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and _is_plan_node(node.func)
            and _sort_kind(node)
            and (relative, function) not in ALLOWED
        ):
            yield f"{relative}:{node.lineno} in {function}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, "<module>")


def check(root: Path) -> List[str]:
    return [
        site
        for path in sorted(root.rglob("*.py"))
        for site in sort_sites(root, path)
    ]


def test_sorts_are_built_only_by_make_sort_and_the_topn_rewrite():
    sites = check(REPO_ROOT / "src" / "repro")
    assert not sites, "sort built outside make_sort:\n" + "\n".join(sites)


def test_checker_sees_a_second_sort_site(tmp_path):
    (tmp_path / "optimizer").mkdir()
    (tmp_path / "optimizer" / "enumerate.py").write_text(
        "def make_sort(plan):\n"
        "    return PlanNode(OpKind.SORT, (plan,))\n"
    )
    (tmp_path / "optimizer" / "optimizer.py").write_text(
        "def _plan_union(plan):\n"
        "    project = PlanNode(OpKind.PROJECT, (plan,))\n"
        "    return plan_module.PlanNode(kind=OpKind.TOPN, children=(project,))\n"
    )
    assert check(tmp_path) == ["optimizer/optimizer.py:3 in _plan_union"]
