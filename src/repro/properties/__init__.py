"""Plan/stream properties and their propagation (paper Section 5.2.1).

Every stream between plan operators carries a
:class:`~repro.properties.stream.StreamProperties`: its columns, order
property, key property (with the one-record condition), FD property, the
predicates applied so far, and a cardinality estimate. The functions in
:mod:`~repro.properties.propagate` compute an operator's output
properties from its inputs — the paper's "each operator determines the
properties of its output stream".
"""

from repro.properties.stream import KeyProperty, StreamProperties
from repro.properties.propagate import (
    propagate_filter,
    propagate_group_by,
    propagate_join,
    propagate_project,
    propagate_sort,
)

__all__ = [
    "KeyProperty",
    "StreamProperties",
    "propagate_filter",
    "propagate_group_by",
    "propagate_join",
    "propagate_project",
    "propagate_sort",
]
