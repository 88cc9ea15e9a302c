"""The streaming integration engine: exact incremental Dempster folds.

The batch pipeline (:class:`repro.integration.pipeline.IntegrationPipeline`,
:class:`repro.integration.federation.Federation`) re-merges whole
relations.  :class:`StreamEngine` instead maintains the integrated
relation *incrementally*: Dempster's rule is associative and
commutative, so each arriving tuple folds into the entity's cached
combined state with a single pairwise combination -- O(delta) work per
event instead of O(n) -- while retractions and overwrites re-fold only
the affected entity's surviving contributions.  The result is **exact**
on the conflict-free path: whenever no total conflict arises (e.g.
every evidence set keeps some mass on OMEGA), any event interleaving
and any batching produce precisely the relation
``Federation.integrate`` would compute on the final per-source
snapshots (verified property-based by the test-suite).  When a total
conflict *does* fire a fallback policy, no fold order is canonical
(exception handling is not associative); the engine is then still
deterministic -- it always publishes the left-to-right fold of the
final snapshots in source-registration order -- but that may differ
from the federation's balanced tree fold over the same snapshots.

Micro-batching: events accumulate into the resident
:class:`~repro.stream.state.MergeState`; :meth:`StreamEngine.flush`
closes the batch, materializes the integrated relation, publishes it
into an attached :class:`~repro.storage.Database` (bumping the catalog
version, so cached session plans re-execute against fresh data and
:meth:`repro.session.Session.subscribe` hooks re-collect), and emits a
:class:`~repro.stream.changelog.BatchDelta` recording the inserted /
updated / removed / conflicted entities and the watermark -- the
sequence number up to which events are durably reflected.
"""

from __future__ import annotations

import os
import threading
import time
import weakref

from dataclasses import dataclass

from repro.ds.kernel import STATS as KERNEL_STATS
from repro.errors import StreamError, TotalConflictError
from repro.exec.executors import get_executor, partition_count
from repro.integration.merging import MergeReport, TupleMerger
from repro.integration.pipeline import coerce_reliability, discount_tuple
from repro.model.etuple import ExtendedTuple
from repro.model.membership import CERTAIN
from repro.model.relation import ExtendedRelation, partition_index
from repro.obs import tracing
from repro.obs.profile import FlushProfile
from repro.obs.registry import registry as _metrics_registry
from repro.stream.changelog import BatchDelta, ChangeLog
from repro.stream.state import Contribution, MergeState


@dataclass
class StreamStats:
    """Counters a :class:`StreamEngine` accumulates.

    ``kernel_combinations`` / ``fallback_combinations`` attribute each
    evidence combination this engine performed to the compiled-kernel or
    frozenset path (see :mod:`repro.ds.kernel`); attributes over
    unenumerable domains account for the fallback share.
    """

    upserts: int = 0
    retractions: int = 0
    reliability_updates: int = 0
    flushes: int = 0
    publishes: int = 0
    empty_flush_skips: int = 0
    combinations: int = 0
    refolds: int = 0
    kernel_combinations: int = 0
    fallback_combinations: int = 0

    @property
    def events(self) -> int:
        """All accepted events."""
        return self.upserts + self.retractions + self.reliability_updates

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.events} events ({self.upserts} upserts, "
            f"{self.retractions} retractions, "
            f"{self.reliability_updates} reliability updates), "
            f"{self.flushes} flushes, {self.combinations} combinations, "
            f"{self.refolds} refolds; evidence combinations: "
            f"{self.kernel_combinations} kernel-path, "
            f"{self.fallback_combinations} fallback"
        )


@dataclass
class _SourceState:
    """One registered stream source and its current tuple snapshot."""

    name: str
    reliability: object
    tuples: dict


#: Live engines, weakly tracked so the lag/age gauges below can sum over
#: them at collection time without pinning finished engines in memory.
#: WeakSet is not thread-safe, so registration holds the lock; the gauge
#: readers copy via list() and tolerate a snapshot racing a constructor.
_ENGINES: "weakref.WeakSet[StreamEngine]" = weakref.WeakSet()
_ENGINES_LOCK = threading.Lock()


def _ingest_lag_events() -> int:
    return sum(engine.pending_events for engine in list(_ENGINES))


def _watermark_age_seconds() -> float:
    stamps = [engine._watermark_time for engine in list(_ENGINES)]
    if not stamps:
        return 0.0
    return max(0.0, time.monotonic() - min(stamps))


_metrics_registry().gauge(
    "stream.ingest_lag_events",
    help="events accepted but not yet flushed, over live engines",
    callback=_ingest_lag_events,
)
_metrics_registry().gauge(
    "stream.watermark_age_seconds",
    help="seconds since any live engine last advanced its watermark",
    callback=_watermark_age_seconds,
)


def _refold_bucket(common, bucket):
    """Re-fold one shipped partition of ``(key, parts)`` pairs.

    Module-level so out-of-process workers can unpickle it by
    reference; ``common`` is the batch-constant ``(merger, schema)``
    pair (the driver already selected each entity's parts in source
    order).  Mirrors :meth:`repro.stream.state.EntityState.refold`
    exactly -- same empty/conflict semantics, same combination count --
    but operates on the shipped parts, so the state graph never crosses
    a process boundary.
    """
    merger, schema = common
    baseline = KERNEL_STATS.snapshot()
    combinations = 0
    states = []
    error = None
    for key, parts in bucket:
        if not parts:
            states.append((key, None, False, []))
            continue
        report = MergeReport()
        try:
            merged = merger.merge_entity(parts, schema, report)
        except TotalConflictError as exc:
            error = exc
            break
        combinations += len(parts) - 1
        states.append(
            (key, merged, merged is None, list(report.conflicts))
        )
    delta = KERNEL_STATS.since(baseline)
    return (
        states,
        combinations,
        delta.kernel_combinations,
        delta.fallback_combinations,
        error,
        os.getpid(),
    )


class StreamEngine:
    """Continuous integration of per-source events into one relation.

    Parameters
    ----------
    schema:
        The global (preprocessed) schema all sources speak; incoming
        tuples must be union-compatible with it.
    name:
        The integrated relation's name (must be an identifier when a
        *database* is attached).
    merger:
        The :class:`TupleMerger` supplying per-attribute integration
        methods and the total-conflict policy.  With ``"raise"`` (the
        default merger) a totally conflicting upsert raises and the
        event is rolled back; ``"vacuous"``/``"drop"`` record the entity
        as conflicted instead.
    database:
        Optional catalog to publish the integrated relation into on
        every flush (under *name*, replacing the prior version).
    backend:
        Optional :class:`~repro.storage.backends.StorageBackend` making
        the stream durable: every flush persists the batch through it
        before publishing.  Snapshot backends (json/sqlite) store the
        integrated relation plus the watermark; a
        :class:`~repro.storage.backends.LogBackend` keeps a true
        write-ahead log of the accepted events, from which
        :meth:`~repro.storage.backends.LogBackend.recover_stream`
        rebuilds the engine -- relation, per-source state and watermark
        -- exactly.
    batch_size:
        Auto-flush after this many events; ``None`` (default) flushes
        only on explicit :meth:`flush` calls.
    max_changelog_batches:
        Changelog retention (oldest batches trimmed first); ``None``
        keeps everything.  Default 1024 -- a long-running stream must
        not grow memory without bound.
    profile_batches:
        When true, every flush attaches a
        :class:`~repro.obs.profile.FlushProfile` timing breakdown
        (refold / materialize / publish phases) to its
        :class:`~repro.stream.changelog.BatchDelta` under
        ``delta.profile``.  Off by default: the breakdown costs a few
        clock reads per flush and is diagnostic, not semantic.

    >>> from repro.datasets.restaurants import table_ra, table_rb
    >>> engine = StreamEngine(table_ra().schema, name="R")
    >>> for etuple in table_ra():
    ...     _ = engine.upsert("daily", etuple)
    >>> for etuple in table_rb():
    ...     _ = engine.upsert("tribune", etuple)
    >>> delta = engine.flush()
    >>> len(engine.relation), len(delta.inserted)
    (6, 6)
    """

    def __init__(
        self,
        schema,
        name: str = "integrated",
        merger: TupleMerger | None = None,
        database=None,
        batch_size: int | None = None,
        max_changelog_batches: int | None = 1024,
        backend=None,
        profile_batches: bool = False,
    ):
        if database is not None and not str(name).isidentifier():
            raise StreamError(
                f"integrated relation name {name!r} is not a valid "
                f"identifier (it must be addressable in the catalog)"
            )
        if batch_size is not None and batch_size < 1:
            raise StreamError(f"batch_size must be >= 1, got {batch_size!r}")
        self._schema = schema.with_name(name)
        self._merger = merger if merger is not None else TupleMerger()
        self._db = database
        self._batch_size = batch_size
        self._state = MergeState()
        self._sources: dict[str, _SourceState] = {}
        self._source_index: dict[str, int] = {}
        self._published: dict[tuple, ExtendedTuple] = {}
        self._published_once = False
        self._touched: set[tuple] = set()
        self._seq = 0
        self._flushed_seq = 0
        self._relation: ExtendedRelation | None = None
        self._changelog = ChangeLog(max_batches=max_changelog_batches)
        self._stats = StreamStats()
        # Weakly tracked: the registry sums StreamStats fields over live
        # engines (``stream.*``) and the lag/age gauges read through the
        # engine set; per-source counters are cached to keep the per-
        # event cost at one dict lookup.
        _metrics_registry().attach("stream", self._stats)
        with _ENGINES_LOCK:
            _ENGINES.add(self)
        self._watermark_time = time.monotonic()
        self._source_counters: dict[tuple, object] = {}
        self._profile_batches = bool(profile_batches)
        self._backend = None
        self._wal: list[tuple] = []
        self._durable_once = False
        if backend is not None:
            backend.begin_stream(
                self._schema.name, self._schema, self._merger.on_conflict
            )
            self._backend = backend

    # -- accessors ----------------------------------------------------------

    @property
    def schema(self):
        """The integrated relation's schema."""
        return self._schema

    @property
    def relation(self) -> ExtendedRelation | None:
        """The integrated relation as of the last flush."""
        return self._relation

    @property
    def changelog(self) -> ChangeLog:
        """Per-batch deltas, oldest first."""
        return self._changelog

    @property
    def watermark(self) -> int:
        """Last event sequence number reflected in :attr:`relation`."""
        return self._flushed_seq

    @property
    def seq(self) -> int:
        """Sequence number of the last accepted event."""
        return self._seq

    @property
    def pending_events(self) -> int:
        """Events accepted since the last flush."""
        return self._seq - self._flushed_seq

    @property
    def backend(self):
        """The attached durability backend (None for in-memory streams)."""
        return self._backend

    def stats(self) -> StreamStats:
        """The accumulated counters (live object, not a copy)."""
        return self._stats

    def sources(self) -> tuple[str, ...]:
        """Registered source names, in registration order."""
        return tuple(self._sources)

    def reliability(self, source: str) -> object:
        """The current reliability of *source*."""
        return self._require_source(source).reliability

    def source_snapshot(self, source: str) -> ExtendedRelation:
        """The raw (undiscounted) tuples *source* currently asserts.

        On the conflict-free path, running ``Federation.integrate`` over
        all source snapshots (with the same reliabilities and merger)
        reproduces the engine's integrated relation exactly; with
        total-conflict fallbacks the engine instead matches the
        registration-order left fold of these snapshots (see the module
        docstring).
        """
        state = self._require_source(source)
        schema = self._schema.with_name(str(source))
        return ExtendedRelation(
            schema,
            [
                ExtendedTuple(schema, dict(t.items()), t.membership)
                for t in state.tuples.values()
            ],
        )

    # -- event ingestion ----------------------------------------------------

    def register_source(self, name: str, reliability: object = 1) -> None:
        """Register a source; *reliability* in [0, 1] discounts it.

        Sources are auto-registered (at full reliability) on their first
        event, so explicit registration is only needed to pre-set a
        reliability or fix the fold order up front.  Explicit
        registration is journaled (as a reliability record) when a
        durability backend is attached: the fold order it pins must
        survive recovery, even though registration alone is not an
        event.
        """
        self._register(name, reliability)
        self._journal("reliability", name, self._sources[name].reliability)

    def _register(self, name: str, reliability: object = 1) -> None:
        """Registration without journaling (auto-registration: the
        triggering event itself re-registers identically on replay)."""
        if name in self._sources:
            raise StreamError(f"duplicate source name {name!r}")
        self._source_index[name] = len(self._sources)
        self._sources[name] = _SourceState(
            name, self._coerce_reliability(reliability), {}
        )

    def upsert(self, source: str, values, membership=None) -> tuple:
        """Fold one tuple from *source* into the integrated state.

        *values* is either an :class:`ExtendedTuple` (union-compatible
        with the engine schema) or a values mapping; *membership*
        optionally overrides the ``(sn, sp)`` pair (default: the tuple's
        own, or certain for mappings).  Returns the entity key.

        A first-time arrival for an entity costs one Dempster
        combination against the cached combined state; re-asserting an
        existing (source, key) marks only that entity for re-folding.
        """
        etuple = self._coerce_tuple(values, membership)
        if not etuple.membership.is_supported:
            raise StreamError(
                f"upsert of {etuple.key()!r} carries sn = 0; CWA_ER "
                f"forbids storing unsupported tuples (retract instead)"
            )
        state = self._sources.get(source)
        auto_registered = state is None
        if auto_registered:
            self._register(source)
            state = self._sources[source]
        key = etuple.key()
        entity = self._state.entity(key)
        prior = entity.contributions.get(source)
        discounted = self._discount(etuple, state.reliability)
        contribution = Contribution(etuple, discounted, state.reliability)
        # The fast path may only *extend* the canonical fold: appending
        # is sound when this source comes after every contributor so far
        # in registration order.  Out-of-order arrivals re-fold at flush
        # instead -- the published state is thus always the registration-
        # order fold, deterministic even on the (non-associative)
        # total-conflict fallback path.
        in_order = all(
            self._source_index[name] < self._source_index[source]
            for name in entity.contributions
        )
        entity.contributions[source] = contribution
        state.tuples[key] = etuple
        if prior is None and in_order and not entity.dirty and not entity.conflicted:
            # Fast path: the cached combined state is valid and this
            # source did not contribute yet -- one pairwise combination.
            try:
                self._fold_in(entity, discounted)
            except TotalConflictError:
                # Keep the pre-event state consistent under "raise":
                # the rejected event leaves no contribution, (since
                # _fold_in only publishes its conflict records on
                # success) no phantom audit-trail entries, and -- when
                # this very event introduced the source -- no
                # registration either, so the fold order stays what the
                # accepted events alone would have produced.
                self._rollback_upsert(
                    entity, state, source, key, prior, auto_registered
                )
                self._count_source(source, "conflicts")
                raise
            if entity.conflicted:
                self._count_source(source, "conflicts")
        else:
            was_dirty = entity.dirty
            entity.dirty = True
            if self._merger.on_conflict == "raise":
                # Deferring this re-fold to flush() would accept an
                # irreconcilable event and then fail *every* flush,
                # wedging the watermark: under "raise" the conflict must
                # surface here, with the event fully rolled back.
                try:
                    self._refold(entity, tuple(self._sources))
                except TotalConflictError:
                    self._rollback_upsert(
                        entity, state, source, key, prior, auto_registered
                    )
                    entity.dirty = was_dirty
                    self._count_source(source, "conflicts")
                    raise
        self._journal("upsert", source, etuple)
        self._seq += 1
        self._touched.add(key)
        self._stats.upserts += 1
        self._count_source(source, "events")
        self._maybe_autoflush()
        return key

    def retract(self, source: str, key) -> None:
        """Withdraw *source*'s assertion about the entity *key*.

        Exact: the entity is re-folded from the surviving sources'
        contributions at the next flush.  When no source supports the
        entity any more it leaves the integrated relation entirely.
        """
        state = self._require_source(source)
        key = self._coerce_key(key)
        if key not in state.tuples:
            raise StreamError(
                f"source {source!r} asserts no tuple {key!r} to retract"
            )
        del state.tuples[key]
        entity = self._state.get(key)
        del entity.contributions[source]
        if entity.contributions:
            entity.dirty = True
        else:
            self._state.discard_if_empty(key)
        self._journal("retract", source, key)
        self._seq += 1
        self._touched.add(key)
        self._stats.retractions += 1
        self._count_source(source, "events")
        self._maybe_autoflush()

    def set_reliability(self, source: str, reliability: object) -> None:
        """Change *source*'s reliability; its entities re-fold lazily.

        Under the merger's ``raise`` policy the re-folds run eagerly
        instead: raising the reliability can strip away the discount
        ignorance that masked a total conflict, and that must surface
        here -- fully reverted -- rather than wedge every later flush.

        An unknown *source* is auto-registered at this reliability
        (mirroring :meth:`upsert`), so a stream can pre-set a source's
        trust before its first tuple arrives.  Setting the current
        value again is a no-op.
        """
        state = self._sources.get(source)
        if state is None:
            self._register(source, reliability)
            self._journal(
                "reliability", source, self._sources[source].reliability
            )
            self._seq += 1
            self._stats.reliability_updates += 1
            self._count_source(source, "events")
            self._maybe_autoflush()
            return
        old = state.reliability
        new = self._coerce_reliability(reliability)
        if new == old:
            return
        state.reliability = new

        def rediscount(factor) -> None:
            for key, raw in state.tuples.items():
                contribution = self._state.get(key).contributions[source]
                contribution.discounted = self._discount(raw, factor)
                contribution.reliability = factor

        rediscount(new)
        for key in state.tuples:
            self._state.get(key).dirty = True
            self._touched.add(key)
        if self._merger.on_conflict == "raise":
            order = tuple(self._sources)
            refolded = []
            try:
                for key in state.tuples:
                    entity = self._state.get(key)
                    self._refold(entity, order)
                    refolded.append(key)
            except TotalConflictError:
                # Revert entirely: reliability, discounts, and the
                # entities already re-folded at the new factor (the rest
                # stay dirty and re-fold to the reverted state at flush).
                state.reliability = old
                rediscount(old)
                for key in refolded:
                    self._refold(
                        self._state.get(key), order, count_refold=False
                    )
                raise
        self._journal("reliability", source, new)
        self._seq += 1
        self._stats.reliability_updates += 1
        self._count_source(source, "events")
        self._maybe_autoflush()

    # -- flushing -----------------------------------------------------------

    def flush(self) -> BatchDelta:
        """Close the micro-batch and publish the integrated relation.

        Re-folds only the entities the batch touched, materializes the
        relation, publishes it into the attached database (if any),
        appends a :class:`BatchDelta` to the changelog and returns it.
        With ``profile_batches=True`` the delta carries a
        :class:`~repro.obs.profile.FlushProfile` phase breakdown.

        Under a parallel executor (:mod:`repro.exec`) the pending
        re-folds drain as per-partition merge batches: dirty entities
        group by their key's hash partition and each group re-folds in
        one task.  Entities are disjoint and the published relation is
        materialized from the engine's entity map (whose order never
        depends on fold timing), so the flushed relation, the delta and
        the conflict records are identical to the serial flush.
        """
        if not tracing.enabled():
            return self._flush()
        with tracing.span("stream.flush", stream=self._schema.name) as current:
            delta = self._flush()
            current.note(events=delta.events, changed=len(delta.changed))
            return delta

    def _flush(self) -> BatchDelta:
        profiling = self._profile_batches
        started = time.perf_counter() if profiling else 0.0
        combinations_before = self._stats.combinations if profiling else 0
        order = tuple(self._sources)
        conflicts: list = []
        # Sorted key order everywhere self._touched (a set) drives work
        # or output: refold order fixes which entity's raise-policy
        # conflict surfaces first, and the conflict records' order flows
        # into the published BatchDelta -- neither may depend on set
        # iteration order (hash-seed dependent).
        touched = sorted(self._touched, key=repr)
        dirty = [
            entity
            for key in touched
            if (entity := self._state.get(key)) is not None and entity.dirty
        ]
        n = partition_count(len(dirty))
        if n > 1:
            self._refold_partitioned(dirty, order, n)
        else:
            for entity in dirty:
                self._refold(entity, order)
        refold_done = time.perf_counter() if profiling else 0.0
        for key in touched:
            entity = self._state.get(key)
            if entity is not None:
                conflicts.extend(entity.fold_conflicts)
        tuples = [
            entity.combined
            for entity in self._state
            if entity.combined is not None
        ]
        relation = ExtendedRelation(self._schema, tuples, on_unsupported="drop")
        current = {etuple.key(): etuple for etuple in relation}

        inserted, updated, removed, conflicted = [], [], [], []
        for key in touched:
            before = self._published.get(key)
            after = current.get(key)
            if before is None and after is not None:
                inserted.append(key)
            elif before is not None and after is None:
                removed.append(key)
            elif before is not None and after is not None and before != after:
                updated.append(key)
            entity = self._state.get(key)
            if entity is not None and entity.conflicted:
                conflicted.append(key)

        delta = BatchDelta(
            batch=self._changelog.total_batches + 1,
            watermark=self._seq,
            events=self._seq - self._flushed_seq,
            inserted=tuple(inserted),
            updated=tuple(updated),
            removed=tuple(removed),
            conflicted=tuple(conflicted),
            conflicts=tuple(conflicts),
        )
        materialize_done = time.perf_counter() if profiling else 0.0
        # Commit the engine's own bookkeeping (changelog, watermark,
        # published snapshot) *before* notifying the outside world:
        # Database.add runs catalog listeners, and an exception escaping
        # one of them must not lose the batch from the audit trail.
        self._relation = relation
        self._published = current
        self._changelog.append(delta)
        self._touched = set()
        if self._flushed_seq != self._seq:
            self._watermark_time = time.monotonic()
        self._flushed_seq = self._seq
        self._stats.flushes += 1
        if self._backend is not None:
            # Durability first (write-ahead): the batch must be on disk
            # before the catalog -- and its listeners -- see it.  A
            # failed write puts the events back: they stay part of the
            # next batch attempt instead of silently vanishing from the
            # journal while the watermark advances past them.
            events, self._wal = self._wal, []
            if events or not delta.is_empty() or not self._durable_once:
                try:
                    self._backend.write_batch(
                        self._schema.name, delta, events, relation
                    )
                except BaseException:
                    self._wal = events + self._wal
                    raise
                self._durable_once = True
            else:
                # No events journaled and no visible change: the store
                # already holds exactly this relation and watermark, so
                # skip the backend round trip entirely.
                self._stats.empty_flush_skips += 1
        if self._db is not None and (
            not self._published_once or not delta.is_empty()
        ):
            self._published_once = True
            self._stats.publishes += 1
            self._db.add(relation, replace=True)
        # Feed the executor's shard-locality ledger (if the executor has
        # one) with this flush's precise dirty keys, so shard-resident
        # remote workers receive an O(delta) sync instead of a snapshot
        # before the next key-only scatter.  Quiet flushes no-op inside
        # the manager.
        publish = getattr(get_executor(), "publish_relation", None)
        if publish is not None:
            publish(
                relation,
                changed=tuple(delta.inserted) + tuple(delta.updated),
                removed=delta.removed,
            )
        if profiling:
            done = time.perf_counter()
            profile = FlushProfile(
                events=delta.events,
                entities_refolded=len(dirty),
                combinations=self._stats.combinations - combinations_before,
                partitions=n,
                refold_seconds=refold_done - started,
                materialize_seconds=materialize_done - refold_done,
                publish_seconds=done - materialize_done,
                total_seconds=done - started,
                sources=order,
            )
            # BatchDelta is frozen for consumers; the engine finishes
            # constructing it here, once the publish phase has a time.
            object.__setattr__(delta, "profile", profile)
        return delta

    def snapshot_events(self) -> list[tuple]:
        """The minimal event sequence rebuilding this engine's state.

        Replaying the returned ``(kind, source, payload)`` triples
        through a fresh engine reproduces the current sources (order and
        reliability), every per-source contribution, the entity order of
        the integrated relation and hence -- folds being deterministic
        -- the relation itself.  This is what
        :meth:`~repro.storage.backends.LogBackend.compact` folds a
        stream's event history down to: reliability records first (they
        pin source-registration order), then each entity's surviving
        raw tuples in first-arrival entity order, each entity's sources
        in registration order.
        """
        events: list[tuple] = [
            ("reliability", name, state.reliability)
            for name, state in self._sources.items()
        ]
        for entity in self._state:
            for source in sorted(
                entity.contributions, key=self._source_index.__getitem__
            ):
                events.append(
                    ("upsert", source, entity.contributions[source].raw)
                )
        return events

    # -- internals ----------------------------------------------------------

    def _journal(self, kind: str, source: str, payload) -> None:
        """Buffer one accepted event for the backend's write-ahead log.

        Called only after the event fully succeeded (rolled-back
        ``raise``-policy conflicts never reach the journal), so replay
        sees exactly the accepted event sequence.
        """
        if self._backend is not None:
            self._wal.append((kind, source, payload))

    def _count_source(self, source: str, kind: str) -> None:
        """Bump the ``stream.source.<name>.<kind>`` registry counter."""
        key = (source, kind)
        counter = self._source_counters.get(key)
        if counter is None:
            counter = _metrics_registry().counter(
                f"stream.source.{source}.{kind}"
            )
            self._source_counters[key] = counter
        counter.inc()

    def _refold(self, entity, order, count_refold: bool = True) -> None:
        """Refold one entity, attributing evidence-combination counts.

        The kernel-vs-fallback split comes from diffing the process-wide
        :data:`repro.ds.kernel.STATS` counters around the refold, which
        attributes exactly this engine's combinations as long as the
        engine is driven from one thread (the engine's general
        constraint).  Mirrors the prior accounting on the error path: a
        propagating :class:`TotalConflictError` leaves the tuple-level
        counters untouched.
        """
        baseline = KERNEL_STATS.snapshot()
        combinations = entity.refold(self._merger, self._schema, order)
        self._stats.combinations += combinations
        self._attribute_kernel_usage(baseline)
        if count_refold:
            self._stats.refolds += 1

    def _attribute_kernel_usage(self, baseline) -> None:
        """Add the kernel/fallback counter deltas since *baseline*."""
        delta = KERNEL_STATS.since(baseline)
        self._stats.kernel_combinations += delta.kernel_combinations
        self._stats.fallback_combinations += delta.fallback_combinations

    def _refold_partitioned(self, dirty, order, n: int) -> None:
        """Drain the pending re-folds as per-partition merge batches.

        Every task re-folds its entities' shipped parts and returns the
        resulting states, which the driver commits.  Each entity's fold
        is the identical ``merge_entity`` computation the serial path
        runs, so the committed states are exact.  Kernel-vs-fallback
        attribution: in-process executors are measured around the whole
        batch (the engine is single-driver, so the process-wide delta
        is exactly this batch); out-of-process workers measure inside
        each task and the deltas are summed.

        A ``raise``-policy :class:`TotalConflictError` is re-raised
        after the successfully re-folded entities' state and counters
        are committed; entities whose fresh state was not committed
        simply stay dirty and re-fold at the next flush, exactly as the
        serial path leaves later entities unfolded after a mid-loop
        raise.  (Counter increments performed by concurrent worker
        threads inside the evidence kernel may undercount slightly --
        the counters are observability-only.)
        """
        buckets: list[list] = [[] for _ in range(n)]
        for entity in dirty:
            buckets[partition_index(entity.key, n)].append(entity)
        buckets = [bucket for bucket in buckets if bucket]
        batch_baseline = KERNEL_STATS.snapshot()
        # Ship each entity's surviving parts rather than the EntityState
        # graph, with the merger and schema sent once for the whole
        # batch; the states come back and are committed below.  Each
        # outcome tags the worker pid so kernel attribution can tell
        # child work from in-process work.
        payloads = [
            [(entity.key, entity.parts(order)) for entity in bucket]
            for bucket in buckets
        ]
        outcomes = get_executor().map_encoded(
            _refold_bucket, (self._merger, self._schema), payloads
        )
        errors = []
        own_pid = os.getpid()
        from_children = False
        for states, combinations, kernel_delta, fallback_delta, error, pid in (
            outcomes
        ):
            self._stats.combinations += combinations
            self._stats.refolds += len(states)
            if pid != own_pid:
                # Child processes measured their own kernel usage; the
                # parent's process-wide counters never saw that work.
                from_children = True
                self._stats.kernel_combinations += kernel_delta
                self._stats.fallback_combinations += fallback_delta
            for key, combined, conflicted, fold_conflicts in states:
                entity = self._state.get(key)
                entity.combined = combined
                entity.conflicted = conflicted
                entity.fold_conflicts = fold_conflicts
                entity.dirty = False
            if error is not None:
                errors.append(error)
        if not from_children:
            self._attribute_kernel_usage(batch_baseline)
        if errors:
            raise errors[0]

    def _rollback_upsert(
        self, entity, state, source, key, prior, auto_registered
    ) -> None:
        """Undo a rejected upsert: contribution, snapshot, registration."""
        if prior is None:
            del entity.contributions[source]
            del state.tuples[key]
            self._state.discard_if_empty(key)
        else:
            entity.contributions[source] = prior
            state.tuples[key] = prior.raw
        if auto_registered and not state.tuples:
            del self._sources[source]
            del self._source_index[source]

    def _fold_in(self, entity, discounted: ExtendedTuple) -> None:
        """Combine one discounted arrival into the cached entity state.

        Conflict records reach the entity's pending list only when the
        combination returns -- a ``raise``-policy conflict propagates
        without leaving audit-trail entries for the rolled-back event.
        """
        if not discounted.membership.is_supported:
            return  # fully discounted away: the identity contribution
        if entity.combined is None:
            entity.combined = discounted
            return
        report = MergeReport()
        baseline = KERNEL_STATS.snapshot()
        merged = self._merger.merge_pair(
            entity.combined, discounted, self._schema, report
        )
        self._stats.combinations += 1
        self._attribute_kernel_usage(baseline)
        entity.fold_conflicts.extend(report.conflicts)
        if merged is None:
            entity.combined = None
            entity.conflicted = True
        else:
            entity.combined = merged

    def _coerce_tuple(self, values, membership) -> ExtendedTuple:
        if isinstance(values, ExtendedTuple):
            self._schema.require_union_compatible(values.schema)
            return ExtendedTuple(
                self._schema,
                dict(values.items()),
                membership if membership is not None else values.membership,
            )
        return ExtendedTuple(
            self._schema,
            values,
            membership if membership is not None else CERTAIN,
        )

    def _coerce_key(self, key) -> tuple:
        return key if isinstance(key, tuple) else (key,)

    def _coerce_reliability(self, reliability):
        return coerce_reliability(reliability, StreamError)

    def _discount(self, etuple: ExtendedTuple, reliability) -> ExtendedTuple:
        if reliability == 1:
            return etuple
        return discount_tuple(etuple, self._schema, reliability)

    def _require_source(self, source: str) -> _SourceState:
        state = self._sources.get(source)
        if state is None:
            known = ", ".join(self._sources) or "(none)"
            raise StreamError(
                f"unknown source {source!r} (registered: {known})"
            )
        return state

    def _maybe_autoflush(self) -> None:
        if (
            self._batch_size is not None
            and self._seq - self._flushed_seq >= self._batch_size
        ):
            self.flush()

    def __len__(self) -> int:
        return len(self._state)

    def __repr__(self) -> str:
        return (
            f"StreamEngine({self._schema.name!r}, "
            f"{len(self._sources)} sources, {len(self._state)} entities, "
            f"watermark {self._flushed_seq}/{self._seq})"
        )
