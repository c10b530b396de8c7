"""Exception hierarchy for the repro engine.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch engine failures without swallowing unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class TypeSystemError(ReproError):
    """Raised for illegal type declarations or value/type mismatches."""


class ExpressionError(ReproError):
    """Raised when an expression tree is malformed or cannot be evaluated."""


class CatalogError(ReproError):
    """Raised for catalog violations (duplicate tables, unknown columns...)."""


class StorageError(ReproError):
    """Raised by the storage layer (page overflow, unknown record ids...)."""


class ParseError(ReproError):
    """Raised when SQL text cannot be tokenized or parsed.

    Carries the offending position so tools can point at the source.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.line:
            return f"{base} (at line {self.line}, column {self.column})"
        return base


class QgmError(ReproError):
    """Raised when a query graph model is malformed."""


class OrderError(ReproError):
    """Raised for illegal operations on order specifications."""


class OptimizerError(ReproError):
    """Raised when the optimizer cannot produce a plan."""


class ExecutionError(ReproError):
    """Raised when a physical plan fails at run time."""


class BenchmarkError(ReproError):
    """Raised by the benchmark harness for bad experiment ids/configs."""


class ServiceError(ReproError):
    """Raised by the query service (bad state, closed service...)."""


class AdmissionError(ServiceError):
    """Raised when the service's admission queue is full (backpressure)."""


class ServiceClosed(ServiceError):
    """Raised for work submitted to (or stranded in) a closed service.

    Graceful shutdown fails every still-queued future with this, so a
    caller blocked on ``.result()`` unblocks with a typed error instead
    of hanging forever.
    """


class QueryTimeout(ServiceError):
    """Raised when a query exceeds its deadline.

    Deadlines are cooperative: executor operators poll their execution
    context's cancellation token at batch boundaries, so the timeout
    surfaces from inside a running scan/sort/join, not just at
    admission time.
    """


class QueryCancelled(ServiceError):
    """Raised when a query's cancellation token is tripped explicitly."""
