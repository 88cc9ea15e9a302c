"""Coordinator-side shard state: what each worker's store should hold.

The data-locality layer keeps a per-node SQLite store next to every
worker daemon (``repro worker serve --store URL``) so scatter frames
can carry entity *keys* instead of serialized tuples.  That only works
if the coordinator knows, per worker, how far its store lags behind the
relations the next batch will reference -- which is exactly what
:class:`ShardSyncManager` tracks:

* :meth:`publish` registers the current version of a relation, either
  with explicit dirty-key hints (the stream engine's
  :class:`~repro.stream.changelog.BatchDelta` knows precisely which
  entities a flush touched -- PR 8's dirty-shard tracking, reused) or
  by diffing against the previously published version;
* a bounded per-relation **delta log** records which keys each version
  touched, so a worker that is only a few versions behind receives an
  O(delta) upsert list instead of a full snapshot;
* :meth:`plan_for` turns one client's synced-version map into the
  minimal list of ``SHARD_SYNC`` operations bringing its store current
  (``[]`` when it already is).

Versions here are coordinator-side bookkeeping; the wire-level
freshness check is the worker store's ``catalog_version`` (the
*epoch*), which every sync reply reports and every ``KEY_BATCH``
frame asserts -- out-of-band store mutation or a worker restart with a
different store shows up as an epoch mismatch and the chunk falls back
to tuple shipping.
"""

from __future__ import annotations

import threading

#: Delta-log entries kept per relation; a client further behind than
#: the log reaches receives a full snapshot instead.
MAX_DELTA_LOG = 64


def _diff_keys(old, new) -> tuple[frozenset, frozenset]:
    """``(changed, removed)`` key sets between two relation versions."""
    changed = []
    new_keys = set()
    for etuple in new:
        key = etuple.key()
        new_keys.add(key)
        previous = old.get(key)
        if previous is None or previous != etuple:
            changed.append(key)
    removed = [key for key in old.keys() if key not in new_keys]
    return frozenset(changed), frozenset(removed)


class _Tracked:
    """One relation's published history: current version + delta log."""

    __slots__ = ("version", "relation", "deltas")

    def __init__(self, relation):
        self.version = 1
        self.relation = relation
        #: version -> (changed keys, removed keys) taking v-1 to v.
        self.deltas: dict[int, tuple[frozenset, frozenset]] = {}


class ShardSyncManager:
    """Tracks published relation versions and plans per-worker syncs."""

    def __init__(self):
        self._tracked: dict[str, _Tracked] = {}
        self._lock = threading.Lock()

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._tracked))

    def publish(self, relation, changed=None, removed=None) -> None:
        """Register *relation* as the current version of its name.

        *changed*/*removed* are optional dirty-key hints (inserted and
        updated keys count as changed); without them the new version is
        diffed against the previous one.  Publishing the identical
        object, or a content-identical relation, does not bump the
        version -- workers already synced stay synced.
        """
        name = relation.name
        with self._lock:
            tracked = self._tracked.get(name)
            if tracked is None:
                self._tracked[name] = _Tracked(relation)
                return
            if tracked.relation is relation:
                return
            if tracked.relation.schema != relation.schema:
                # A schema change invalidates every stored row; clear
                # the log so every client resyncs with a full snapshot.
                tracked.version += 1
                tracked.relation = relation
                tracked.deltas = {}
                return
            if changed is None and removed is None:
                changed, removed = _diff_keys(tracked.relation, relation)
            else:
                changed = frozenset(changed if changed is not None else ())
                removed = frozenset(removed if removed is not None else ())
            if not changed and not removed:
                tracked.relation = relation
                return
            tracked.version += 1
            tracked.relation = relation
            tracked.deltas[tracked.version] = (changed, removed)
            while len(tracked.deltas) > MAX_DELTA_LOG:
                del tracked.deltas[min(tracked.deltas)]

    def _plan_one(
        self, tracked: _Tracked, have: int, force_full: bool
    ) -> tuple | None:
        """One relation's sync op (``None`` when *have* is current)."""
        if have == tracked.version:
            return None
        span = range(have + 1, tracked.version + 1)
        if (
            not force_full
            and have > 0
            and all(version in tracked.deltas for version in span)
        ):
            affected: set = set()
            for version in span:
                changed, removed = tracked.deltas[version]
                affected |= changed | removed
            relation = tracked.relation
            upserts = [
                etuple for etuple in relation if etuple.key() in affected
            ]
            present = set(relation.keys())
            removes = sorted(
                (key for key in affected if key not in present), key=repr
            )
            return ("delta", relation.name, relation.schema, upserts, removes)
        return ("full", tracked.relation.name, tracked.relation)

    def plan_for(
        self, client_versions: dict, names, force_full: bool = False
    ) -> tuple[list, dict] | None:
        """The sync ops bringing one client current on *names*.

        Returns ``(ops, new_versions)`` -- the wire operations (empty
        when the client is already current) and the version map to
        merge into the client's state once the worker acknowledges --
        or ``None`` when some name was never published (nothing can
        serve it keyed).  With *force_full* every lagging relation
        ships as a snapshot (the retry path after a store rejected a
        delta).
        """
        ops: list = []
        new_versions: dict = {}
        with self._lock:
            for name in names:
                tracked = self._tracked.get(name)
                if tracked is None:
                    return None
                op = self._plan_one(
                    tracked, client_versions.get(name, 0), force_full
                )
                if op is not None:
                    ops.append(op)
                new_versions[name] = tracked.version
        return ops, new_versions

    def __repr__(self) -> str:
        with self._lock:
            parts = ", ".join(
                f"{name}@v{tracked.version}"
                for name, tracked in sorted(self._tracked.items())
            )
        return f"ShardSyncManager({parts or 'empty'})"
