"""Thread-local host-variable binding scope.

A cached plan keeps its :class:`~repro.expr.nodes.Parameter` nodes —
rewriting them to literals per execution would change the expression
identity and defeat the per-(expression, schema) kernel memos of
:mod:`repro.expr.compile`. Instead, executions install a binding scope
on the current thread and every engine looks parameter values up here:
the interpreter per evaluation, the block kernels
(:mod:`repro.expr.vector`) once per block. Within one execution a host
variable is a constant, exactly as §4.1 has the planner treat it:
:func:`require_bound` is the bind-time check ``api.execute`` runs before
the first row, so kernels may assume every lookup succeeds.

Scopes nest (a stack per thread) and are thread-local, so the query
service's worker pool can run the same compiled kernels concurrently
with different bindings.

This module sits at the bottom of the ``expr`` layer and must only
import ``repro.errors``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Mapping, Optional

from repro.errors import ExpressionError


class _ScopeState(threading.local):
    def __init__(self) -> None:
        self.stack: list = []


_STATE = _ScopeState()

_MISSING = object()


@contextmanager
def parameter_scope(values: Optional[Mapping[str, Any]]) -> Iterator[None]:
    """Install ``values`` as the active bindings for this thread.

    ``None`` installs an empty scope (every lookup raises), which keeps
    the error behaviour of an unparameterized execution unchanged.
    """
    _STATE.stack.append(dict(values) if values else {})
    try:
        yield
    finally:
        _STATE.stack.pop()


def current_bindings() -> Optional[Mapping[str, Any]]:
    """The innermost binding mapping on this thread, or None."""
    stack = _STATE.stack
    return stack[-1] if stack else None


def active_value(name: str) -> Any:
    """The bound value for host variable ``name`` in the innermost scope.

    Raises :class:`ExpressionError` when no scope is active or the name
    is unbound — same message as the pre-scope unbound-parameter error,
    so callers that never pass parameters see identical behaviour.
    """
    stack = _STATE.stack
    if stack:
        value = stack[-1].get(name, _MISSING)
        if value is not _MISSING:
            return value
    raise _unbound(name)


def _unbound(name: str) -> ExpressionError:
    return ExpressionError(
        f"unbound host variable :{name}; pass "
        "parameters={...} when executing"
    )


def require_bound(
    names: Iterable[str], values: Optional[Mapping[str, Any]]
) -> None:
    """Raise the :func:`active_value` error for the first of ``names``
    that ``values`` does not bind (``None`` binds nothing)."""
    for name in names:
        if not values or name not in values:
            raise _unbound(name)
