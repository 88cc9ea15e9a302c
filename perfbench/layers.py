"""Outside-in layer timing for the traced run.

The benchmark never edits the program: it times a layer by replacing
that layer's public entry points *at the attribute the caller looks up*
with a timing wrapper, and restores the originals afterwards.  A caller
that did ``from repro.ds.kernel import combine_compiled`` holds its own
binding, so e.g. the kernel is wrapped as
``repro.ds.combination.combine_compiled``, where
``combine_with_conflict`` looks it up on every call.

Self time is a wrapped call's duration minus the duration of wrapped
calls nested inside it on the same thread, so the self times of all
layers add up to the outermost wrapped time without double counting.

The per-layer metrics (:data:`LAYER_METRICS`) combine these clocks with
the program's own counters: ``repro.obs.registry().collect()``,
``Session.stats()``, ``StreamEngine.stats()`` and the flush profiles of
``StreamEngine(profile_batches=True)``.  Times are self seconds per
operation unless the unit says otherwise.

Work inside remote worker daemons is invisible to the wrappers, which
live in the coordinating process: on the ``remote`` workload the merge
and model clocks read zero, the kernel counts come from the stats the
workers ship home, ``exec.remote.rtt_s`` is a chunk's wire time plus
its worker-side compute, and ``integration.reassembly_s`` (the self time
of ``Federation.integrate``) covers partitioning, shard publishing and
reassembly.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from repro.exec import exec_stats
from repro.model.etuple import ExtendedTuple
from repro.model.relation import ExtendedRelation
from repro.obs import registry
from repro.storage.serialization import relation_to_json


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the end-to-end figure it should move."""

    name: str
    unit: str
    better: str
    moves: str
    steady: str


def _m(name, unit, better, moves, steady="-"):
    return LayerMetric(name, unit, better, moves, steady)


#: Every per-layer metric, with the end-to-end metric and workload it
#: should move and the workloads on which it should not move.
LAYER_METRICS = (
    _m("ds.kernel.combine_calls", "1/op", "lower",
       "entities_per_s on integrate", "query (compile-bound)"),
    _m("ds.kernel.combine_self_s", "s/op", "lower",
       "entities_per_s on integrate", "query (compile-bound)"),
    _m("ds.kernel.compilations", "1/op", "lower",
       "entities_per_s on integrate", "query (compile-bound)"),
    _m("ds.kernel.hit_ratio", "ratio", "higher",
       "entities_per_s on integrate", "query (compile-bound)"),
    _m("model.membership.combine_calls", "1/op", "lower",
       "entities_per_s on integrate", "query (no certain pairs)"),
    _m("model.membership.combine_self_s", "s/op", "lower",
       "entities_per_s on integrate", "query (no certain pairs)"),
    _m("model.membership.certain_pair_ratio", "ratio", "higher",
       "entities_per_s on integrate", "query (no certain pairs)"),
    _m("model.etuple.init_self_s", "s/op", "lower",
       "entities_per_s on integrate, events_per_s on stream"),
    _m("model.etuple.per_output", "1/tuple", "lower",
       "entities_per_s on integrate, events_per_s on stream"),
    _m("model.evidence.init_self_s", "s/op", "lower",
       "entities_per_s on integrate, events_per_s on stream"),
    _m("model.evidence.per_output", "1/tuple", "lower",
       "entities_per_s on integrate, events_per_s on stream"),
    _m("integration.merge_self_s", "s/op", "lower",
       "entities_per_s on integrate/remote", "query"),
    _m("integration.conflicts_per_entity", "1/entity", "lower",
       "entities_per_s on integrate/remote", "query"),
    _m("integration.reassembly_s", "s/op", "lower",
       "entities_per_s on integrate/remote", "query"),
    _m("exec.map_s", "s/op", "lower",
       "entities_per_s on remote", "integrate (serial)"),
    _m("exec.partitions", "1/op", "lower",
       "entities_per_s on remote", "integrate (serial)"),
    _m("exec.remote.bytes_sent_per_entity", "B/entity", "lower",
       "entities_per_s on remote", "all others"),
    _m("exec.remote.bytes_received_per_entity", "B/entity", "lower",
       "entities_per_s on remote", "all others"),
    _m("exec.remote.encode_s", "s/op", "lower",
       "entities_per_s on remote", "all others"),
    _m("exec.remote.decode_s", "s/op", "lower",
       "entities_per_s on remote", "all others"),
    _m("exec.remote.rtt_s", "s/chunk", "lower",
       "entities_per_s on remote", "all others"),
    _m("exec.remote.shipped_ratio", "ratio", "higher",
       "entities_per_s on remote", "all others"),
    _m("exec.remote.keyed_ratio", "ratio", "higher",
       "entities_per_s on remote", "all others"),
    _m("exec.remote.retries", "1/op", "lower",
       "entities_per_s on remote", "all others"),
    _m("stream.upsert_s", "s/op", "lower",
       "events_per_s and latency_p90_ms on stream", "integrate"),
    _m("stream.refold_s", "s/op", "lower",
       "events_per_s and latency_p90_ms on stream", "integrate"),
    _m("stream.materialize_s", "s/op", "lower",
       "events_per_s and latency_p90_ms on stream", "integrate"),
    _m("stream.publish_s", "s/op", "lower",
       "events_per_s and latency_p90_ms on stream", "integrate"),
    _m("stream.refolds_per_event", "1/event", "lower",
       "events_per_s and latency_p90_ms on stream", "integrate"),
    _m("stream.combinations_per_event", "1/event", "lower",
       "events_per_s and latency_p90_ms on stream", "integrate"),
    _m("storage.write_batch_s", "s/op", "lower",
       "events_per_s on stream", "integrate"),
    _m("storage.bytes_written_per_event", "B/event", "lower",
       "events_per_s on stream", "integrate"),
    _m("storage.write_amplification", "ratio", "lower",
       "events_per_s on stream", "integrate"),
    _m("storage.load_s", "s/setup", "lower",
       "setup_s and latency_p90_ms on query", "integrate"),
    _m("storage.delta_save_s", "s/write", "lower",
       "setup_s and latency_p90_ms on query", "integrate"),
    _m("query.compile_s", "s/op", "lower",
       "latency_p50_ms and queries_per_s on query", "all others"),
    _m("session.plan_hit_ratio", "ratio", "higher",
       "latency_p50_ms and queries_per_s on query", "all others"),
    _m("session.result_hit_ratio", "ratio", "higher",
       "latency_p50_ms and queries_per_s on query", "all others"),
    _m("session.node_executions_per_query", "1/query", "lower",
       "latency_p50_ms and queries_per_s on query", "all others"),
    _m("session.entries_invalidated_per_write", "1/write", "lower",
       "latency_p50_ms and queries_per_s on query", "all others"),
    _m("algebra.union_s", "s/op", "lower",
       "latency_p90_ms on query", "stream"),
    _m("algebra.select_s", "s/op", "lower",
       "latency_p90_ms on query", "stream"),
    _m("algebra.combinations_per_query", "1/query", "lower",
       "latency_p90_ms on query", "stream"),
    _m("trace_overhead_ratio", "ratio", "higher", "-"),
)


#: Wrapped entry points: (module, dotted attribute, clock name).  Each
#: is the binding its callers resolve at call time.
TARGETS = (
    ("repro.ds.combination", "combine_compiled", "ds.kernel.combine"),
    ("repro.model.membership", "TupleMembership.combine_dempster",
     "model.membership.combine"),
    ("repro.model.etuple", "ExtendedTuple.__init__", "model.etuple.init"),
    ("repro.model.evidence", "EvidenceSet.__init__", "model.evidence.init"),
    ("repro.integration.merging", "TupleMerger.merge", "integration.merge"),
    ("repro.integration.federation", "Federation.integrate",
     "integration.integrate"),
    ("repro.exec.executors", "Executor.map", "exec.map"),
    ("repro.exec.executors", "Executor.map_encoded", "exec.map"),
    ("repro.exec.remote.coordinator", "RemoteExecutor.map", "exec.map"),
    ("repro.exec.remote.coordinator", "RemoteExecutor.map_encoded", "exec.map"),
    ("repro.exec.remote.coordinator", "RemoteExecutor.map_encoded_keyed",
     "exec.map"),
    ("repro.exec.remote.coordinator", "RemoteExecutor.submit_batch_keyed",
     "exec.map"),
    ("repro.exec.remote.protocol", "encode_common", "exec.remote.encode"),
    ("repro.exec.remote.protocol", "encode_chunk", "exec.remote.encode"),
    ("repro.exec.remote.protocol", "encode_batch", "exec.remote.encode"),
    ("repro.exec.remote.protocol", "encode_keyspec", "exec.remote.encode"),
    ("repro.exec.remote.protocol", "encode_sync", "exec.remote.encode"),
    ("repro.exec.remote.protocol", "decode_result", "exec.remote.decode"),
    ("repro.exec.remote.protocol", "decode_info", "exec.remote.decode"),
    ("repro.exec.remote.protocol", "decode_error", "exec.remote.decode"),
    ("repro.exec.remote.coordinator", "WorkerClient.run_chunk",
     "exec.remote.rtt"),
    ("repro.exec.remote.coordinator", "WorkerClient.run_chunk_keyed",
     "exec.remote.rtt"),
    ("repro.stream.engine", "StreamEngine.upsert", "stream.upsert"),
    ("repro.stream.engine", "StreamEngine.retract", "stream.upsert"),
    ("repro.stream.engine", "StreamEngine.flush", "stream.flush"),
    ("repro.storage.backends.sqlite", "SqliteBackend.write_batch",
     "storage.write_batch"),
    ("repro.storage.backends.base", "StorageBackend.apply_relation_delta",
     "storage.delta_save"),
    ("repro.session", "compile_text", "query.compile"),
    ("repro.query.plans", "union_with_report", "algebra.union"),
    ("repro.query.plans", "select_eager", "algebra.select"),
)


class LayerClock:
    """Installs the timing wrappers and accumulates per-clock figures."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Zero every figure (the wrappers stay installed)."""
        with self._lock:
            self.calls: dict[str, int] = defaultdict(int)
            self.self_seconds: dict[str, float] = defaultdict(float)
            # Observations of arguments and results (see _observe).
            self.certain_pairs = 0
            self.keyed_batches = 0
            self.flush_profiles = []
            self.upserted = []
            self.integrate_conflicts = 0
            self.integrated_entities = 0

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            return
        for module_name, dotted, clock in TARGETS:
            owner = importlib.import_module(module_name)
            *path, attribute = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute]
            if not callable(original):
                raise TypeError(f"{module_name}.{dotted} is not a function")
            setattr(owner, attribute, self._wrap(original, clock, dotted))
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def suspended(self):
        """Run the body with the originals restored (for output checks)."""
        if not self._installed:
            yield
            return
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original, clock: str, dotted: str):
        owner = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack = owner._stack()
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with owner._lock:
                    owner.calls[clock] += 1
                    owner.self_seconds[clock] += elapsed - nested
            owner._observe(dotted, args, result)
            return result

        return timed

    def _observe(self, dotted: str, args, result) -> None:
        """Record what the metrics need from arguments and results."""
        if dotted == "TupleMembership.combine_dempster":
            if args[0].is_certain and args[1].is_certain:
                with self._lock:
                    self.certain_pairs += 1
        elif dotted == "RemoteExecutor.submit_batch_keyed":
            if result is not None:
                with self._lock:
                    self.keyed_batches += 1
        elif dotted == "StreamEngine.flush":
            self.flush_profiles.append(result.profile)
        elif dotted == "StreamEngine.upsert":
            if isinstance(args[2], ExtendedTuple):
                self.upserted.append(args[2])
        elif dotted == "StorageBackend.apply_relation_delta":
            self.upserted.extend(args[3])
        elif dotted == "Federation.integrate":
            relation, report = result
            self.integrated_entities += len(relation)
            self.integrate_conflicts += sum(
                len(step.conflicts) for _, step in report.steps
            )


# -- metric computation -------------------------------------------------------


def counters(workload) -> dict:
    """The program's own counters the layer metrics difference: the
    registry's kernel, remote and storage counters, executor fan-out,
    and the workload's ``Session.stats()`` / ``StreamEngine.stats()``."""
    collected = registry().collect()
    wanted = {
        name: value
        for name, value in collected.items()
        if isinstance(value, (int, float))
        and name.startswith(("kernel.", "exec.remote.", "storage.sqlite."))
    }
    wanted["exec.tasks"] = exec_stats().tasks
    wanted.update(workload.program_counters())
    return wanted


def subtract(after: dict, before: dict) -> dict:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def serialized_bytes(tuples: list) -> int:
    """Bytes of the tuples' JSON rows, as the storage layer serializes them."""
    total = 0
    for etuple in tuples:
        document = relation_to_json(ExtendedRelation(etuple.schema, [etuple]))
        total += len(json.dumps(document["tuples"][0]))
    return total


def layer_metrics(
    clock: LayerClock,
    delta: dict,
    ops: list,
    setup_load_seconds: float,
    overhead_ratio: float,
) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value for one traced phase.

    *delta* is the change of :func:`counters` over the phase, net of the
    output checks run inside it.
    """
    n_ops = max(len(ops), 1)
    entities = sum(op.entities for op in ops)
    events = sum(op.events for op in ops)
    reads = sum(1 for op in ops if op.kind == "read")
    writes = sum(1 for op in ops if op.kind == "write")
    calls = clock.calls
    self_s = clock.self_seconds
    kernel = delta.get("kernel.kernel_combinations", 0)
    combinations = kernel + delta.get("kernel.fallback_combinations", 0)
    shipped = delta.get("exec.remote.batches", 0)
    offered = (
        shipped
        + delta.get("exec.remote.local_batches", 0)
        + delta.get("exec.remote.fallbacks", 0)
    )
    profiles = [profile for profile in clock.flush_profiles if profile]
    flushed_events = sum(profile.events for profile in profiles)
    queries = delta.get("session.queries", 0)
    plan_hits = delta.get("session.plan_cache_hits", 0)
    written = delta.get("storage.sqlite.bytes_written", 0)
    return {
        "ds.kernel.combine_calls": combinations / n_ops,
        "ds.kernel.combine_self_s": self_s["ds.kernel.combine"] / n_ops,
        "ds.kernel.compilations": delta.get("kernel.compilations", 0) / n_ops,
        "ds.kernel.hit_ratio": _ratio(kernel, combinations),
        "model.membership.combine_calls": calls["model.membership.combine"]
        / n_ops,
        "model.membership.combine_self_s": self_s["model.membership.combine"]
        / n_ops,
        "model.membership.certain_pair_ratio": _ratio(
            clock.certain_pairs, calls["model.membership.combine"]
        ),
        "model.etuple.init_self_s": self_s["model.etuple.init"] / n_ops,
        "model.etuple.per_output": _ratio(calls["model.etuple.init"], entities),
        "model.evidence.init_self_s": self_s["model.evidence.init"] / n_ops,
        "model.evidence.per_output": _ratio(
            calls["model.evidence.init"], entities
        ),
        "integration.merge_self_s": self_s["integration.merge"] / n_ops,
        "integration.conflicts_per_entity": _ratio(
            clock.integrate_conflicts, clock.integrated_entities
        ),
        "integration.reassembly_s": self_s["integration.integrate"] / n_ops,
        "exec.map_s": self_s["exec.map"] / n_ops,
        "exec.partitions": delta.get("exec.tasks", 0) / n_ops,
        "exec.remote.bytes_sent_per_entity": _ratio(
            delta.get("exec.remote.bytes_sent", 0), entities
        ),
        "exec.remote.bytes_received_per_entity": _ratio(
            delta.get("exec.remote.bytes_received", 0), entities
        ),
        "exec.remote.encode_s": self_s["exec.remote.encode"] / n_ops,
        "exec.remote.decode_s": self_s["exec.remote.decode"] / n_ops,
        "exec.remote.rtt_s": _ratio(
            self_s["exec.remote.rtt"], calls["exec.remote.rtt"]
        ),
        "exec.remote.shipped_ratio": _ratio(shipped, offered),
        "exec.remote.keyed_ratio": _ratio(clock.keyed_batches, shipped),
        "exec.remote.retries": delta.get("exec.remote.retries", 0) / n_ops,
        "stream.upsert_s": self_s["stream.upsert"] / n_ops,
        "stream.refold_s": sum(p.refold_seconds for p in profiles) / n_ops,
        "stream.materialize_s": sum(p.materialize_seconds for p in profiles)
        / n_ops,
        "stream.publish_s": sum(p.publish_seconds for p in profiles) / n_ops,
        "stream.refolds_per_event": _ratio(
            delta.get("stream.refolds", 0), flushed_events
        ),
        "stream.combinations_per_event": _ratio(
            delta.get("stream.combinations", 0), flushed_events
        ),
        "storage.write_batch_s": self_s["storage.write_batch"] / n_ops,
        "storage.bytes_written_per_event": _ratio(written, events),
        "storage.write_amplification": _ratio(
            written, serialized_bytes(clock.upserted)
        ),
        "storage.load_s": setup_load_seconds,
        "storage.delta_save_s": _ratio(self_s["storage.delta_save"], writes),
        "query.compile_s": self_s["query.compile"] / n_ops,
        "session.plan_hit_ratio": _ratio(
            plan_hits, plan_hits + delta.get("session.plans_built", 0)
        ),
        "session.result_hit_ratio": _ratio(
            delta.get("session.result_cache_hits", 0), queries
        ),
        "session.node_executions_per_query": _ratio(
            delta.get("session.node_executions", 0), queries
        ),
        "session.entries_invalidated_per_write": _ratio(
            delta.get("session.entries_invalidated", 0), writes
        ),
        "algebra.union_s": self_s["algebra.union"] / n_ops,
        "algebra.select_s": self_s["algebra.select"] / n_ops,
        "algebra.combinations_per_query": _ratio(combinations, reads),
        "trace_overhead_ratio": overhead_ratio,
    }
