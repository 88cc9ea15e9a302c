"""Multi-source federation: integrating more than two databases.

The paper integrates two databases, but its machinery is n-ary by
construction: Dempster's rule is associative and commutative, so folding
the pairwise merge over any number of sources yields an
order-independent result (the test-suite verifies all permutations
agree).  :class:`Federation` packages that fold:

* sources register with a name, a relation and an optional reliability
  (discounted before merging, per :mod:`repro.ds.discounting`);
* :meth:`Federation.integrate` folds the merger as a balanced tree --
  adjacent sources pair up, then the halves pair up, and so on -- and
  accumulates every pairwise merge report into a combined digest.  The
  tree fold keeps intermediate relations small (each merge combines
  results of similar depth rather than dragging one ever-growing
  accumulator through every step); by associativity the result equals
  the left-to-right fold on the conflict-free path, which the
  permutation tests verify.

Evidence over enumerated domains combines on the compact kernel
(:mod:`repro.ds.kernel`): each merge step's output carries its compiled
state into the next layer of the tree, so an n-way integration compiles
each source's evidence once and runs every subsequent combination on
bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IntegrationError, TotalConflictError
from repro.exec.executors import (
    contiguous_chunks,
    get_executor,
    partition_count,
)
from repro.model.relation import ExtendedRelation
from repro.integration.merging import MergeReport, TupleMerger
from repro.integration.pipeline import _discount_relation, coerce_reliability


@dataclass(frozen=True)
class FederationSource:
    """One registered source."""

    name: str
    relation: ExtendedRelation
    reliability: object = 1


@dataclass
class FederationReport:
    """Accumulated digest of an n-way integration."""

    steps: list[tuple[str, MergeReport]] = field(default_factory=list)

    @property
    def total_conflicts(self) -> int:
        """Irreconcilable conflicts across all merge steps."""
        return sum(len(report.total_conflicts) for _, report in self.steps)

    def summary(self) -> str:
        """One line per merge step."""
        return "\n".join(
            f"(+) {name}: {report.summary()}" for name, report in self.steps
        )


def _tree_fold(
    merger: TupleMerger, layer: list, name: str
) -> tuple[ExtendedRelation, list[tuple[str, MergeReport]]]:
    """Balanced-tree fold of ``(label, relation)`` pairs (>= 2 entries).

    Returns the merged relation and the per-step reports; a mid-fold
    :class:`TotalConflictError` is re-raised with the operand labels.
    """
    steps: list[tuple[str, MergeReport]] = []
    while len(layer) > 1:
        merged_layer = []
        for i in range(0, len(layer) - 1, 2):
            left_label, left_relation = layer[i]
            right_label, right_relation = layer[i + 1]
            try:
                merged, step_report = merger.merge(
                    left_relation, right_relation, name=name
                )
            except TotalConflictError as exc:
                raise TotalConflictError(
                    f"{exc} (while merging source(s) {left_label!r} "
                    f"with {right_label!r})"
                ) from exc
            steps.append((right_label, step_report))
            merged_layer.append((f"{left_label}+{right_label}", merged))
        if len(layer) % 2:
            merged_layer.append(layer[-1])
        layer = merged_layer
    return layer[0][1], steps


def _integrate_shard(common, row):
    """Fold one shard row: the per-partition task of the sharded fold.

    Module-level and fully picklable so the batch can ship through
    :meth:`Executor.map_encoded` -- including across a wire to remote
    worker daemons (:mod:`repro.exec.remote`).  *common* is the
    per-batch constant ``(merger, name, metas)`` where ``metas`` pairs
    each source's name with its reliability, aligned with *row*'s
    shards.  Returns ``((relation, steps), survivors, error)`` with
    *error* carrying a mid-fold :class:`TotalConflictError` instead of
    raising it, so which shard conflicts first stays
    executor-independent.
    """
    merger, name, metas = common
    layer = []
    survivors = []
    for (source_name, reliability), shard in zip(metas, row):
        relation = (
            shard
            if reliability == 1
            else _discount_relation(shard, reliability)
        )
        layer.append((source_name, relation))
        survivors.append(frozenset(relation.keys()))
    try:
        relation, steps = _tree_fold(merger, layer, name)
    except TotalConflictError as exc:
        return None, survivors, exc
    return (relation, steps), survivors, None


def _merge_entity(common, item):
    """Merge one entity's per-source tuples (a point query's task).

    *common* is ``(merger, name, metas)`` where ``metas`` pairs each
    source's schema with its reliability; *item* is ``(key, tuples)``
    with that source-aligned tuple (or ``None``) per source.  Returns
    the merged tuple, or ``None`` when no source supports the entity.
    """
    merger, name, metas = common
    key, etuples = item
    accumulated = None
    for (schema, reliability), etuple in zip(metas, etuples):
        if etuple is None:
            continue
        fragment = ExtendedRelation(schema, [etuple])
        if reliability != 1:
            fragment = _discount_relation(fragment, reliability)
        if accumulated is None:
            accumulated = fragment
        else:
            accumulated, _ = merger.merge(accumulated, fragment, name=name)
    return None if accumulated is None else accumulated.get(key)


def _merge_entity_chunk(common, chunk):
    """:func:`_merge_entity` over one contiguous chunk of a key batch."""
    return [_merge_entity(common, item) for item in chunk]


def _serial_fold_order(
    source_orders: list[list[tuple]], dropped_per_step: list[set]
) -> list[tuple]:
    """Replay the tree fold over key sequences to recover serial order.

    Each :meth:`TupleMerger.merge` step orders its output as: matched
    tuples in left-iteration order (minus the keys that step dropped on
    total conflict), then left-only tuples in left order, then
    right-only tuples in right order.  Survival is per-entity, so the
    key-level replay (fed with each step's actual dropped set from the
    shard reports) reproduces the serial fold's final tuple order
    without re-merging anything.
    """
    layer = [list(keys) for keys in source_orders]
    step = 0
    while len(layer) > 1:
        merged_layer = []
        for i in range(0, len(layer) - 1, 2):
            left_keys, right_keys = layer[i], layer[i + 1]
            dropped = dropped_per_step[step]
            step += 1
            left_set = set(left_keys)
            right_set = set(right_keys)
            out = [
                key
                for key in left_keys
                if key in right_set and key not in dropped
            ]
            out.extend(key for key in left_keys if key not in right_set)
            out.extend(key for key in right_keys if key not in left_set)
            merged_layer.append(out)
        if len(layer) % 2:
            merged_layer.append(layer[-1])
        layer = merged_layer
    return layer[0]


class Federation:
    """An n-way integration over union-compatible sources.

    >>> from repro.datasets.restaurants import table_ra, table_rb
    >>> federation = Federation()
    >>> federation.add_source("daily", table_ra())
    >>> federation.add_source("tribune", table_rb())
    >>> integrated, report = federation.integrate(name="R")
    >>> len(integrated)
    6
    """

    def __init__(self, merger: TupleMerger | None = None):
        self._merger = merger if merger is not None else TupleMerger()
        self._sources: list[FederationSource] = []

    @property
    def sources(self) -> tuple[FederationSource, ...]:
        """The registered sources, in registration order."""
        return tuple(self._sources)

    def add_source(
        self,
        name: str,
        relation: ExtendedRelation,
        reliability: object = 1,
    ) -> None:
        """Register a source; *reliability* in [0, 1] discounts it."""
        if any(source.name == name for source in self._sources):
            raise IntegrationError(f"duplicate source name {name!r}")
        self._sources.append(
            FederationSource(name, relation, coerce_reliability(reliability))
        )

    def integrate(
        self, name: str = "federated"
    ) -> tuple[ExtendedRelation, FederationReport]:
        """Tree-fold the merger over all sources (at least one required).

        A :class:`TotalConflictError` raised mid-fold is re-raised with
        the labels of the two operands being merged, so the
        administrator learns *which* sources (or merged groups of
        sources) were irreconcilable.

        Under a parallel executor (:mod:`repro.exec`) the fold shards by
        entity key: every source is hash-partitioned with the same
        partition count, each shard runs the identical balanced-tree
        fold over its slice of every source, and the shard results
        reassemble into the exact serial relation -- same tuples, same
        order (recovered by replaying the fold over key sequences),
        same exact masses.  Per-step reports aggregate shard reports;
        their *counts* match the serial fold exactly, while the order of
        entries within a step's lists follows shard order.
        """
        if not self._sources:
            raise IntegrationError("a federation needs at least one source")
        n = (
            partition_count(
                max(len(source.relation) for source in self._sources)
            )
            if len(self._sources) > 1
            else 1
        )
        if n > 1:
            return self._integrate_partitioned(name, n)
        return self._integrate_serial(name)

    def _integrate_serial(self, name: str):
        """The historical single-pass fold (also the raise-path oracle)."""
        report = FederationReport()
        layer = [
            (
                source.name,
                source.relation
                if source.reliability == 1
                else _discount_relation(source.relation, source.reliability),
            )
            for source in self._sources
        ]
        if len(layer) == 1:
            return layer[0][1].with_name(name), report
        relation, steps = _tree_fold(self._merger, layer, name)
        report.steps.extend(steps)
        return relation, report

    def _integrate_partitioned(
        self, name: str, n: int
    ) -> tuple[ExtendedRelation, FederationReport]:
        """The sharded fold: per-partition tree folds, exact reassembly."""
        sources = self._sources
        merger = self._merger
        shard_rows = list(
            zip(*[source.relation.partitions(n) for source in sources])
        )
        common = (
            merger,
            name,
            tuple((source.name, source.reliability) for source in sources),
        )
        executor = get_executor()
        keyed = getattr(executor, "map_encoded_keyed", None)
        publish = getattr(executor, "publish_relation", None)
        source_names = [source.relation.name for source in sources]
        if (
            keyed is not None
            and publish is not None
            and len(set(source_names)) == len(source_names)
        ):
            # Shard-resident workers can rebuild each shard row from
            # entity keys alone, so publish the source relations and
            # scatter key lists; the executor transparently ships
            # tuples instead whenever locality cannot serve the batch.
            # Duplicate source relation names would alias in the
            # per-name shard stores, so they keep tuple shipping.
            for source in sources:
                publish(source.relation)
            specs = [
                tuple(
                    (source_names[j], tuple(row[j].keys()))
                    for j in range(len(sources))
                )
                for row in shard_rows
            ]
            outcomes = keyed(_integrate_shard, common, specs, shard_rows)
        else:
            outcomes = executor.map_encoded(_integrate_shard, common, shard_rows)
        if any(error is not None for _, _, error in outcomes):
            # A raise-policy conflict aborts the integration anyway, so
            # re-run the serial fold to surface the exact error the
            # serial path raises (same entity, same operand labels) --
            # which shard found a conflict first is executor-dependent.
            return self._integrate_serial(name)

        report = FederationReport()
        first_steps = outcomes[0][0][1]
        dropped_per_step: list[set] = []
        for j in range(len(first_steps)):
            combined = MergeReport()
            dropped: set = set()
            for (_, steps), _, _ in outcomes:
                part = steps[j][1]
                combined.matched.extend(part.matched)
                combined.left_only.extend(part.left_only)
                combined.right_only.extend(part.right_only)
                combined.conflicts.extend(part.conflicts)
                combined.dropped.extend(part.dropped)
                dropped.update(part.dropped)
            dropped_per_step.append(dropped)
            report.steps.append((first_steps[j][0], combined))

        survivor_sets: list[set] = [set() for _ in sources]
        merged_by_key: dict[tuple, object] = {}
        schema = None
        for (relation, _), survivors, _ in outcomes:
            schema = relation.schema
            for index, keys in enumerate(survivors):
                survivor_sets[index] |= keys
            for etuple in relation:
                merged_by_key[etuple.key()] = etuple
        source_orders = [
            [
                key
                for key in source.relation.keys()
                if key in survivor_sets[index]
            ]
            for index, source in enumerate(sources)
        ]
        tuples = []
        for key in _serial_fold_order(source_orders, dropped_per_step):
            etuple = merged_by_key.pop(key, None)
            if etuple is not None:
                tuples.append(etuple)
        if merged_by_key:
            # Exactness is the contract: a merged entity the key replay
            # cannot place means the replay and the merge disagree --
            # fail loudly rather than publish a silently re-ordered
            # relation.
            missing = sorted(map(repr, merged_by_key))[:5]
            raise IntegrationError(
                "internal error: the serial-order replay missed "
                f"{len(merged_by_key)} merged entity(ies) "
                f"({', '.join(missing)}...)"
            )
        return ExtendedRelation(schema, tuples, on_unsupported="drop"), report

    def integrate_entity(self, key: tuple, name: str = "federated"):
        """Merge only the tuples with the given *key*, on demand.

        This is the seed of the paper's "ongoing research" direction --
        combining query processing with conflict resolution: a federated
        *point query* need not materialize the whole integrated relation,
        only the one entity's evidence.  Returns the merged
        :class:`ExtendedTuple`, or ``None`` when no source supports the
        entity.  The result is identical to looking the key up in the
        fully materialized integration (verified by the test-suite).
        """
        if not self._sources:
            raise IntegrationError("a federation needs at least one source")
        if not isinstance(key, tuple):
            key = (key,)
        return _merge_entity(self._entity_common(name), self._entity_item(key))

    def _entity_common(self, name: str) -> tuple:
        """The batch constant of :func:`_merge_entity` for this federation."""
        return (
            self._merger,
            name,
            tuple(
                (source.relation.schema, source.reliability)
                for source in self._sources
            ),
        )

    def _entity_item(self, key: tuple) -> tuple:
        """``(key, tuples)``: the entity's tuple (or ``None``) per source."""
        return key, tuple(source.relation.get(key) for source in self._sources)

    def integrate_entities(
        self, keys, name: str = "federated"
    ) -> list:
        """Batch point queries: :meth:`integrate_entity` for many keys.

        Entity merges are independent, so the batch fans the per-key
        work out through the configured executor
        (:func:`repro.exec.get_executor`) in contiguous chunks, one per
        partition (:func:`repro.exec.partition_count`).  Returns one
        entry per input key, in input order; each entry is exactly what
        :meth:`integrate_entity` returns for that key (the merged tuple,
        or ``None``).
        """
        if not self._sources:
            raise IntegrationError("a federation needs at least one source")
        keys = [key if isinstance(key, tuple) else (key,) for key in keys]
        if not keys:
            return []
        n = partition_count(len(keys))
        if n <= 1:
            return [self.integrate_entity(key, name=name) for key in keys]
        chunks = contiguous_chunks([self._entity_item(key) for key in keys], n)
        results = get_executor().map_encoded(
            _merge_entity_chunk, self._entity_common(name), chunks
        )
        return [etuple for chunk_results in results for etuple in chunk_results]
