"""Count the rows each child of a composite filter term is handed.

Term order decides work, never rows, so the ordering tests read it off
row counts: wrap a kernel's root children with :func:`spy_on`, run
blocks, and compare each spy's ``rows``.
"""

from __future__ import annotations

from typing import Any, List


class TermSpy:
    """Stands in for one child term; every filter view it forwards adds
    the length of the selection it was handed to ``rows``."""

    def __init__(self, term: Any):
        self.term = term
        self.rows = 0

    def __getattr__(self, name: str) -> Any:
        view = getattr(self.term, name)

        def counted(batch, sel):
            self.rows += len(sel)
            return view(batch, sel)

        return counted


def spy_on(kernel: Any) -> List[TermSpy]:
    """Replace ``kernel.root.terms`` by spies, in run order."""
    spies = [TermSpy(term) for term in kernel.root.terms]
    kernel.root.terms = spies
    return spies
