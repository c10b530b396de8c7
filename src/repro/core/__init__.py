"""The paper's core contribution: the order-optimization algebra.

This package implements Section 4 of Simmen/Shekita/Malkemus (SIGMOD '96):

* :mod:`repro.core.ordering` — order specifications (interesting orders
  and order properties share one representation);
* :mod:`repro.core.equivalence` — column equivalence classes induced by
  ``col = col`` predicates;
* :mod:`repro.core.fd` — functional dependencies and attribute closure;
* :mod:`repro.core.context` — the bundle (FDs + equivalences + constants)
  that reduction consumes;
* :mod:`repro.core.reduce` — *Reduce Order* (Figure 2);
* :mod:`repro.core.test` — *Test Order* (Figure 3);
* :mod:`repro.core.cover` — *Cover Order* (Figure 4);
* :mod:`repro.core.homogenize` — *Homogenize Order* (Figure 5);
* :mod:`repro.core.general` — Section 7's "degrees of freedom" orders for
  GROUP BY / DISTINCT.

Supporting infrastructure (no paper section of their own):

* :mod:`repro.core.instrument` — plan-time counters and timers;
* :mod:`repro.core.memo` — content-fingerprinted memo tables for the
  four operations;
* :mod:`repro.core.reference` — the naive textbook formulations kept as
  a testing oracle.
"""

from repro.core import instrument
from repro.core.ordering import OrderKey, OrderSpec, SortDirection, asc, desc
from repro.core.equivalence import EquivalenceClasses
from repro.core.fd import FDSet, FunctionalDependency, fd
from repro.core.context import OrderContext
from repro.core.reduce import reduce_order
from repro.core.test import test_order
from repro.core.cover import cover_order
from repro.core.homogenize import homogenize_order, homogenize_prefix
from repro.core.general import GeneralOrderSpec, OrderSegment
from repro.core.memo import clear_memos, memoization_disabled

__all__ = [
    "instrument",
    "clear_memos",
    "memoization_disabled",
    "OrderKey",
    "OrderSpec",
    "SortDirection",
    "asc",
    "desc",
    "EquivalenceClasses",
    "FDSet",
    "FunctionalDependency",
    "fd",
    "OrderContext",
    "reduce_order",
    "test_order",
    "cover_order",
    "homogenize_order",
    "homogenize_prefix",
    "GeneralOrderSpec",
    "OrderSegment",
]
