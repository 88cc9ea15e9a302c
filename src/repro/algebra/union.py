"""Extended union (Section 3.2): attribute-value conflict resolution.

The extended union of two union-compatible relations ``R`` and ``S``
matched on their common key:

* keeps tuples whose key appears in only one relation unchanged (the
  other relation is totally ignorant about that entity, and combining
  with vacuous evidence is the identity);
* for tuples matched on the key, combines **every common non-key
  attribute** with Dempster's rule of combination, and combines the two
  **tuple membership** pairs with Dempster's rule on the boolean frame
  (the paper's function ``F``).

This operation *is* the paper's attribute-value conflict resolution: the
two source relations are treated as independent bodies of evidence about
the same real-world entities, and Dempster's rule pools them, shrinking
uncertainty where they agree and renormalizing where they conflict.

Total conflict (``kappa = 1``) means the sources are irreconcilable for
that attribute; per Section 2.2 "some actions may be necessary to inform
the data administrators".  Three policies implement that action:

* ``"raise"`` (default) -- propagate :class:`TotalConflictError`;
* ``"vacuous"`` -- record the conflict and fall back to total ignorance
  for the offending *uncertain* attribute (a certain attribute cannot
  hold ignorance, so the tuple is dropped and recorded instead);
* ``"drop"`` -- record the conflict and drop the merged tuple.

:func:`union_with_report` additionally returns a :class:`UnionReport`
with per-attribute conflict measures for the data administrator.

The merge decomposes per entity (matching is on the definite key), so
under a parallel executor (:mod:`repro.exec`) the loop shards into
per-entity partition tasks via :func:`_merge_partitioned` -- both
relations hash-partition on the key, each shard merges independently,
and reassembly walks the serial iteration order, reproducing the serial
relation, report and first-conflict error exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TotalConflictError
from repro.ds.combination import combine_with_conflict
from repro.ds.mass import Numeric
from repro.exec.executors import get_executor, partition_count
from repro.model.etuple import ExtendedTuple
from repro.model.evidence import EvidenceSet
from repro.model.membership import TupleMembership
from repro.model.relation import ExtendedRelation
from repro.errors import OperationError

#: Accepted total-conflict policies.
CONFLICT_POLICIES = ("raise", "vacuous", "drop")


@dataclass(frozen=True)
class ConflictRecord:
    """One observed conflict between the two sources.

    ``attribute`` is the attribute name, or ``"(sn,sp)"`` for the tuple
    membership evidence.  ``kappa`` is Dempster's conflict mass;
    ``total`` marks irreconcilable (``kappa = 1``) conflicts.
    """

    key: tuple
    attribute: str
    kappa: Numeric
    total: bool


@dataclass
class UnionReport:
    """Administrator-facing summary of an extended union."""

    matched: list[tuple] = field(default_factory=list)
    left_only: list[tuple] = field(default_factory=list)
    right_only: list[tuple] = field(default_factory=list)
    conflicts: list[ConflictRecord] = field(default_factory=list)
    dropped: list[tuple] = field(default_factory=list)

    @property
    def total_conflicts(self) -> list[ConflictRecord]:
        """Only the irreconcilable conflicts."""
        return [record for record in self.conflicts if record.total]

    def max_kappa(self) -> Numeric:
        """The largest observed conflict mass (0 when conflict-free)."""
        return max((record.kappa for record in self.conflicts), default=0)

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{len(self.matched)} matched, {len(self.left_only)} left-only, "
            f"{len(self.right_only)} right-only, {len(self.conflicts)} "
            f"conflicting attribute pairs ({len(self.total_conflicts)} total), "
            f"{len(self.dropped)} tuples dropped"
        )


def _combine_evidence(
    left: EvidenceSet, right: EvidenceSet
) -> tuple[EvidenceSet | None, Numeric]:
    """Dempster-combine two attribute values; ``(None, 1)`` on total
    conflict.  Returns the conflict mass alongside the result.

    Runs on the compiled evidence kernel whenever both sides carry the
    attribute's enumerated frame (see :mod:`repro.ds.kernel`); the
    merged evidence then stays compiled, so the integration fold and
    the streaming engine's resident states never re-derive masks.
    """
    combined, kappa = combine_with_conflict(
        left.mass_function, right.mass_function
    )
    if combined is None:
        return None, kappa
    return EvidenceSet(combined, left.domain or right.domain), kappa


def _membership_kappa(a: TupleMembership, b: TupleMembership) -> Numeric:
    """Dempster conflict between two membership pairs."""
    return a.sn * (1 - b.sp) + (1 - a.sp) * b.sn


def union_with_report(
    left: ExtendedRelation,
    right: ExtendedRelation,
    name: str | None = None,
    on_conflict: str = "raise",
) -> tuple[ExtendedRelation, UnionReport]:
    """Extended union returning the merged relation and a conflict report.

    >>> from repro.datasets.restaurants import table_ra, table_rb
    >>> merged, report = union_with_report(table_ra(), table_rb())
    >>> len(merged), len(report.matched), len(report.left_only)
    (6, 5, 1)
    """
    if on_conflict not in CONFLICT_POLICIES:
        raise OperationError(
            f"on_conflict must be one of {CONFLICT_POLICIES}, got {on_conflict!r}"
        )
    left.schema.require_union_compatible(right.schema)
    schema = left.schema.with_name(
        name if name is not None else f"{left.name}_union_{right.name}"
    )
    n = partition_count(len(left) + len(right))
    if n <= 1:
        return _union_serial(left, right, schema, on_conflict)
    return _merge_partitioned(
        left, right, schema, on_conflict, n, _union_serial, keep_unmatched=True
    )


def _union_serial(
    left: ExtendedRelation,
    right: ExtendedRelation,
    schema,
    on_conflict: str,
) -> tuple[ExtendedRelation, UnionReport]:
    """The single-loop union core (also the per-partition task body)."""
    report = UnionReport()
    merged_tuples: list[ExtendedTuple] = []

    def rebuilt(etuple: ExtendedTuple) -> ExtendedTuple:
        return ExtendedTuple(schema, dict(etuple.items()), etuple.membership)

    for l_tuple in left:
        key = l_tuple.key()
        r_tuple = right.get(key)
        if r_tuple is None:
            report.left_only.append(key)
            merged_tuples.append(rebuilt(l_tuple))
            continue
        report.matched.append(key)
        merged = _merge_pair(l_tuple, r_tuple, schema, key, report, on_conflict)
        if merged is not None:
            merged_tuples.append(merged)
    for r_tuple in right:
        key = r_tuple.key()
        if key not in left:
            report.right_only.append(key)
            merged_tuples.append(rebuilt(r_tuple))
    return (
        ExtendedRelation(schema, merged_tuples, on_unsupported="drop"),
        report,
    )


def _merge_shard(common, pair):
    """One shard of a partitioned merge (module-level: remote-shippable).

    *common* is the per-batch constant ``(serial_core, schema,
    on_conflict)``; total-conflict errors return as data so the
    coordinator can pick the serial-order winner across shards.
    """
    serial_core, schema, on_conflict = common
    try:
        return serial_core(pair[0], pair[1], schema, on_conflict), None
    except TotalConflictError as exc:
        return None, exc


def _merge_partitioned(
    left: ExtendedRelation,
    right: ExtendedRelation,
    schema,
    on_conflict: str,
    n: int,
    serial_core,
    keep_unmatched: bool,
) -> tuple[ExtendedRelation, UnionReport]:
    """Shard a key-matched merge into per-entity partition tasks.

    Both relations are hash-partitioned on the shared key, so each
    entity's tuples land in the same shard and *serial_core* (the union
    or intersection loop) runs per shard.  Reassembly walks the input
    relations in their serial iteration order, so the merged relation
    and every report list are identical to the serial result --
    including which :class:`TotalConflictError` fires first under the
    ``raise`` policy (errors are collected per shard and the one whose
    entity comes earliest in left-iteration order wins).
    """
    pairs = list(zip(left.partitions(n), right.partitions(n)))
    outcomes = get_executor().map_encoded(
        _merge_shard, (serial_core, schema, on_conflict), pairs
    )
    errors = [exc for _, exc in outcomes if exc is not None]
    if errors:
        position = {key: index for index, key in enumerate(left.keys())}
        fallback = len(position)
        raise min(
            errors,
            key=lambda exc: position.get(
                getattr(exc, "entity_key", None), fallback
            ),
        )

    merged_by_key: dict[tuple, ExtendedTuple] = {}
    conflicts_by_key: dict[tuple, list[ConflictRecord]] = {}
    dropped: set[tuple] = set()
    for (relation_part, report_part), _ in outcomes:
        for etuple in relation_part:
            merged_by_key[etuple.key()] = etuple
        for record in report_part.conflicts:
            conflicts_by_key.setdefault(record.key, []).append(record)
        dropped.update(report_part.dropped)

    report = UnionReport()
    merged_tuples: list[ExtendedTuple] = []
    for key in left.keys():
        if key in right:
            report.matched.append(key)
            report.conflicts.extend(conflicts_by_key.get(key, ()))
            if key in dropped:
                report.dropped.append(key)
        else:
            report.left_only.append(key)
        etuple = merged_by_key.get(key)
        if etuple is not None:
            merged_tuples.append(etuple)
    for key in right.keys():
        if key not in left:
            report.right_only.append(key)
            if keep_unmatched:
                etuple = merged_by_key.get(key)
                if etuple is not None:
                    merged_tuples.append(etuple)
    return (
        ExtendedRelation(schema, merged_tuples, on_unsupported="drop"),
        report,
    )


def _merge_pair(
    l_tuple: ExtendedTuple,
    r_tuple: ExtendedTuple,
    schema,
    key: tuple,
    report: UnionReport,
    on_conflict: str,
) -> ExtendedTuple | None:
    """Merge two key-matched tuples; ``None`` when the tuple is dropped."""
    values: dict[str, object] = {
        name: l_tuple.value(name) for name in schema.key_names
    }
    for attr_name in schema.nonkey_names:
        attribute = schema.attribute(attr_name)
        combined, kappa = _combine_evidence(
            l_tuple.evidence(attr_name), r_tuple.evidence(attr_name)
        )
        if kappa != 0:
            report.conflicts.append(
                ConflictRecord(key, attr_name, kappa, combined is None)
            )
        if combined is None:
            if on_conflict == "raise":
                error = TotalConflictError(
                    f"total conflict on attribute {attr_name!r} of tuple "
                    f"{key!r}: "
                    f"{l_tuple.evidence(attr_name).format()} vs "
                    f"{r_tuple.evidence(attr_name).format()}"
                )
                # Which entity conflicted; partitioned merges use this
                # to re-raise the serial-order-first error.
                error.entity_key = key
                raise error
            if on_conflict == "vacuous" and attribute.uncertain:
                domain = attribute.domain
                values[attr_name] = EvidenceSet.vacuous(domain)
                continue
            report.dropped.append(key)
            return None
        values[attr_name] = combined

    membership_kappa = _membership_kappa(l_tuple.membership, r_tuple.membership)
    if membership_kappa == 1:
        report.conflicts.append(ConflictRecord(key, "(sn,sp)", membership_kappa, True))
        if on_conflict == "raise":
            error = TotalConflictError(
                f"total conflict on membership of tuple {key!r}: "
                f"{l_tuple.membership.format()} vs {r_tuple.membership.format()}"
            )
            error.entity_key = key
            raise error
        report.dropped.append(key)
        return None
    if membership_kappa != 0:
        report.conflicts.append(
            ConflictRecord(key, "(sn,sp)", membership_kappa, False)
        )
    membership = l_tuple.membership.combine_dempster(r_tuple.membership)
    return ExtendedTuple(schema, values, membership)


def union(
    left: ExtendedRelation,
    right: ExtendedRelation,
    name: str | None = None,
    on_conflict: str = "raise",
) -> ExtendedRelation:
    """``R union S`` matched on the common key (see module docstring).

    A thin wrapper over the single-node plan
    :class:`repro.query.plans.UnionPlan`; use
    :func:`union_with_report` directly when the conflict report matters.

    >>> from repro.datasets.restaurants import table_ra, table_rb
    >>> merged = union(table_ra(), table_rb())
    >>> merged.get(("mehl",)).membership.format()
    '(5/6,5/6)'
    """
    from repro.query.plans import LiteralPlan, UnionPlan

    merged = UnionPlan(
        LiteralPlan(left), LiteralPlan(right), on_conflict
    ).execute(None)
    return merged if name is None else merged.with_name(name)
