"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.

The exceptions mirror the layers of the system:

* evidence layer (:class:`MassFunctionError`, :class:`TotalConflictError`),
* model layer (:class:`DomainError`, :class:`SchemaError`,
  :class:`MembershipError`, :class:`RelationError`),
* algebra layer (:class:`PredicateError`, :class:`OperationError`),
* query layer (:class:`QueryError` and its lexing/parsing/planning
  subclasses, plus :class:`ExecutionError` for the physical layer and
  its :class:`ConfigError` / :class:`ProtocolError` /
  :class:`TaskDecodeError` refinements),
* integration layer (:class:`IntegrationError`),
* storage layer (:class:`SerializationError`, :class:`CatalogError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


# ---------------------------------------------------------------------------
# Evidence (Dempster-Shafer) layer
# ---------------------------------------------------------------------------


class MassFunctionError(ReproError):
    """An invalid mass assignment was supplied.

    Raised when masses are negative, sum to something other than one, or
    are assigned to the empty set (the paper requires ``m(empty) = 0``).
    """


class NotationError(ReproError):
    """The textual evidence-set notation could not be parsed."""


class TotalConflictError(ReproError):
    """Dempster's rule was applied to totally conflicting evidence.

    The paper (Section 2.2) notes that when no focal elements of the two
    mass functions intersect, the sources are in total conflict and "some
    actions may be necessary to inform the data administrators or
    integrators about the conflict".  This exception is that action.
    """

    def __init__(self, message: str = "evidence sources are in total conflict (kappa = 1)"):
        super().__init__(message)


class TransformError(ReproError):
    """An evidence transform (e.g. pignistic) could not be computed."""


# ---------------------------------------------------------------------------
# Extended relational model layer
# ---------------------------------------------------------------------------


class DomainError(ReproError):
    """A value does not belong to an attribute domain, or the domain is
    unsuitable for the requested operation (e.g. enumerating an infinite
    domain)."""


class SchemaError(ReproError):
    """Relation schemas are inconsistent with the requested operation.

    Examples: duplicate attribute names, a missing key, union-incompatible
    schemas, or a projection that drops the key attributes.
    """


class MembershipError(ReproError):
    """A tuple membership pair violates ``0 <= sn <= sp <= 1``."""


class RelationError(ReproError):
    """An extended relation invariant was violated.

    The generalized closed world assumption (CWA_ER, Section 2.3 of the
    paper) requires every stored tuple to carry positive necessary support
    (``sn > 0``); duplicate keys within one relation are also rejected
    because the paper's relations have definite, identifying keys.
    """


# ---------------------------------------------------------------------------
# Algebra layer
# ---------------------------------------------------------------------------


class PredicateError(ReproError):
    """A selection/join predicate is malformed or refers to unknown
    attributes."""


class OperationError(ReproError):
    """An extended relational operation was invoked on unsuitable inputs."""


# ---------------------------------------------------------------------------
# Query layer
# ---------------------------------------------------------------------------


class QueryError(ReproError):
    """Base class for query-language failures."""


class LexError(QueryError):
    """The query text contains characters that cannot be tokenized."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(QueryError):
    """The token stream does not form a valid statement."""


class PlanError(QueryError):
    """A logical plan could not be built or executed.

    Typically raised when a statement references a relation or attribute
    that does not exist in the database catalog.
    """


class ExecutionError(ReproError):
    """The physical execution layer was misconfigured (unknown executor
    kind, invalid worker or partition count)."""


class ConfigError(ExecutionError):
    """An execution-layer configuration value is invalid.

    Raised by :func:`repro.exec.configure` and the ``REPRO_EXECUTOR`` /
    ``REPRO_WORKERS`` / ``REPRO_PARTITIONS`` / ``REPRO_WORKERS_ADDRS``
    environment parsing; the message always names the accepted values
    (``serial|process|remote``) so an operator sees the fix,
    not just the failure.  Subclasses :class:`ExecutionError`, so
    existing handlers keep working.
    """


class ProtocolError(ExecutionError):
    """The remote-execution wire protocol was violated.

    Raised by :mod:`repro.exec.remote.protocol` on a truncated frame,
    bad magic, version mismatch, CRC failure or undecodable payload.
    The coordinator treats it as a transport failure: the worker is
    declared dead and the chunk is re-scattered to a survivor.
    """


class TaskDecodeError(ExecutionError):
    """A worker daemon could not unpickle a shipped task.

    Typically the task function lives in a module the daemon cannot
    import (a test module, a ``__main__`` script) -- pickling by
    reference succeeded on the coordinator but the reference does not
    resolve on the worker.  This says nothing bad about the worker or
    the task, so the coordinator treats the batch as unshippable and
    runs it locally instead of retrying or failing.
    """


# ---------------------------------------------------------------------------
# Integration layer
# ---------------------------------------------------------------------------


class IntegrationError(ReproError):
    """The integration pipeline was misconfigured or failed."""


class EntityIdentificationError(IntegrationError):
    """Tuple matching failed (e.g. ambiguous or contradictory matches)."""


class StreamError(IntegrationError):
    """A streaming-integration event was invalid or could not be applied.

    Raised by :mod:`repro.stream` for malformed events (an upsert with
    ``sn = 0`` violating CWA_ER, a retraction of an unknown tuple, an
    unknown source, ...).
    """


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------


class SerializationError(ReproError):
    """A relation or database could not be (de)serialized."""


class CatalogError(ReproError):
    """A database catalog operation failed (unknown or duplicate name)."""
