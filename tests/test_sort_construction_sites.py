"""Sorts are built in one place, and their GROUP BY / DISTINCT orders
are chosen in one place.

``optimizer.enumerate.make_sort`` decides between a full and a partial
sort for every order the planner enforces, and
``optimizer.finalize._rewrite_topmost_sort_to_topn`` turns the ORDER BY
sort under a FETCH FIRST into its bounded form. A ``PlanNode`` of kind
SORT, PARTIAL_SORT or TOPN built anywhere else is a second enforcement
path that misses partial sorts and Top-N (UNION planning had three such
sites). This walks the AST of every file under ``src/repro`` (nothing
is imported) and fails on any other construction site.

Likewise ``optimizer.helpers.general_sort_targets`` is the optimizer's
one chooser of sort orders for a §7 general order (GROUP BY and
DISTINCT): the order scan and finalize both ask it, so no other
function under ``src/repro/optimizer`` may call ``.concrete(`` or
``.aligned_with(`` — a second chooser is how the disabled baseline once
tested one order and sorted on another.
"""

import ast
from pathlib import Path
from typing import Callable, Iterator, List, Set

REPO_ROOT = Path(__file__).resolve().parent.parent
SORT_KINDS = {"SORT", "PARTIAL_SORT", "TOPN"}
ALLOWED = {
    ("optimizer/enumerate.py", "make_sort"),
    ("optimizer/finalize.py", "_rewrite_topmost_sort_to_topn"),
}
CHOOSER_METHODS = {"concrete", "aligned_with"}
CHOOSER = ("helpers.py", "general_sort_targets")


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


def _is_sort_node(call: ast.Call) -> bool:
    return _is_plan_node(call.func) and _sort_kind(call)


def _is_chooser_call(call: ast.Call) -> bool:
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in CHOOSER_METHODS
    )


def call_sites(
    root: Path, path: Path, matches: Callable[[ast.Call], bool], allowed: Set
) -> Iterator[str]:
    """``relative/path.py:line in function`` per matching call outside
    the ``allowed`` (path, function) pairs."""
    relative = path.relative_to(root).as_posix()
    tree = ast.parse(path.read_text(), filename=str(path))

    def visit(node: ast.AST, function: str) -> Iterator[str]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and matches(node)
            and (relative, function) not in allowed
        ):
            yield f"{relative}:{node.lineno} in {function}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, "<module>")


def check(root: Path) -> List[str]:
    return [
        site
        for path in sorted(root.rglob("*.py"))
        for site in call_sites(root, path, _is_sort_node, ALLOWED)
    ]


def check_chooser(root: Path) -> List[str]:
    """General-order choices made outside ``general_sort_targets``;
    ``root`` is the optimizer package."""
    return [
        site
        for path in sorted(root.rglob("*.py"))
        for site in call_sites(root, path, _is_chooser_call, {CHOOSER})
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


def test_general_orders_are_chosen_only_by_general_sort_targets():
    sites = check_chooser(REPO_ROOT / "src" / "repro" / "optimizer")
    message = "order chosen outside general_sort_targets:\n" + "\n".join(sites)
    assert not sites, message


def test_checker_sees_a_second_chooser(tmp_path):
    (tmp_path / "helpers.py").write_text(
        "def general_sort_targets(general, context, order_by):\n"
        "    return [general.aligned_with(order_by, context),\n"
        "            general.concrete(context)]\n"
    )
    (tmp_path / "finalize.py").write_text(
        "def _plan_distinct(general, context, order_by):\n"
        "    return general.concrete(context, hint=order_by)\n"
    )
    assert check_chooser(tmp_path) == ["finalize.py:2 in _plan_distinct"]
