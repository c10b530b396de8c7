#!/usr/bin/env python
"""Static import-order lint for the ``repro`` package.

The codebase is layered bottom-up; a module may import only from its
own layer or below. This script parses every file under ``src/repro``
with :mod:`ast` (no imports are executed) and reports upward imports,
facade imports, and imports of unknown layers.

The canonical order lives in ``LAYERS`` below — it is *derived from the
actual dependency graph*, which is the authority; CLAUDE.md's prose
summary is a readable approximation. One statement plans and executes
on one thread: ``properties``, ``cost``, ``optimizer`` and ``executor``
may not import ``threading``, ``queue`` or ``concurrent`` — concurrency
lives in ``service`` (plus the buffer-pool lock, ``core.instrument``'s
striping and the ``expr`` memos it needs). Two deliberate exemptions:

* ``repro/__init__.py`` is the public facade and re-exports from many
  layers by design;
* ``from repro import ...`` inside the package is always a violation —
  internal modules must name the concrete layer, or the facade's import
  time becomes a hidden cycle.

Run standalone (``python tools/check_imports.py``) or via the tier-1
wrapper ``tests/test_import_order.py``. Exit status 0 = clean.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

# Bottom-up. A module in layer i may import layers 0..i.
LAYERS = [
    "errors",
    "sqltypes",
    "expr",
    "core",
    "catalog",
    "qgm",
    "storage",
    "properties",
    "cost",
    "parser",
    "optimizer",
    "executor",
    "api",
    "service",
    "workload",
    "tpcd",
    "verify",
    "bench",
]
LAYER_INDEX = {name: index for index, name in enumerate(LAYERS)}

PACKAGE = "repro"

# Layers whose code runs inside one statement, on the caller's thread.
SINGLE_THREADED_LAYERS = {"properties", "cost", "optimizer", "executor"}
CONCURRENCY_MODULES = {"threading", "queue", "concurrent"}


def _layer_of(path: Path, root: Path) -> str:
    """Layer name for a source file: ``src/repro/<layer>[/...].py``."""
    relative = path.relative_to(root)
    return relative.parts[0].removesuffix(".py")


def _imported_layers(
    tree: ast.AST,
) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, dotted_name)`` for every repro import, lazy
    function-level imports included — layering holds at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == PACKAGE or alias.name.startswith(
                    PACKAGE + "."
                ):
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative imports would hide the layer being named;
                # the codebase uses absolute imports throughout.
                yield node.lineno, "." * node.level + (node.module or "")
            elif node.module and (
                node.module == PACKAGE
                or node.module.startswith(PACKAGE + ".")
            ):
                yield node.lineno, node.module


def _concurrency_imports(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, module)`` for every import of a concurrency
    module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.split(".")[0] in CONCURRENCY_MODULES:
                yield node.lineno, name


def check(src_root: Path) -> List[str]:
    package_root = src_root / PACKAGE
    problems: List[str] = []
    for path in sorted(package_root.rglob("*.py")):
        if path == package_root / "__init__.py":
            continue  # the public facade re-exports across layers
        layer = _layer_of(path, package_root)
        if layer not in LAYER_INDEX:
            problems.append(f"{path}: unknown layer {layer!r}")
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        if layer in SINGLE_THREADED_LAYERS:
            for lineno, name in _concurrency_imports(tree):
                problems.append(
                    f"{path}:{lineno}: {layer!r} imports {name!r}; a "
                    "statement runs on one thread — concurrency lives "
                    "in 'service'"
                )
        for lineno, name in _imported_layers(tree):
            where = f"{path}:{lineno}"
            if name.startswith("."):
                problems.append(f"{where}: relative import {name!r}")
                continue
            if layer == "errors":
                # The exception taxonomy is imported by every layer, so
                # it must stay a strict import leaf: any repro import
                # here (even of itself) risks a cycle the moment the
                # imported module grows a dependency.
                problems.append(
                    f"{where}: 'errors' must stay an import leaf but "
                    f"imports {name}"
                )
                continue
            parts = name.split(".")
            if len(parts) == 1:
                problems.append(
                    f"{where}: imports the facade ({name!r}); name the "
                    "concrete layer instead"
                )
                continue
            target = parts[1]
            if target not in LAYER_INDEX:
                problems.append(
                    f"{where}: imports unknown layer {target!r}"
                )
            elif LAYER_INDEX[target] > LAYER_INDEX[layer]:
                problems.append(
                    f"{where}: {layer!r} imports upward from {target!r} "
                    f"({name})"
                )
    return problems


def main() -> int:
    src_root = Path(__file__).resolve().parent.parent / "src"
    problems = check(src_root)
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} import-order violation(s)")
        return 1
    print(f"import order clean across {len(LAYERS)} layers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
