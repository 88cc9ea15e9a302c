"""repro.obs -- the unified telemetry layer.

One process-wide :class:`MetricsRegistry` (:func:`registry`), a
structured-tracing span API (:func:`span`, near-zero-cost while
disabled), and profile products (:class:`QueryProfile` from
``Session.explain_analyze``, :class:`FlushProfile` on stream batch
deltas).  Every subsystem registers its instruments here; every export
surface -- ``repro stats``, the repl ``:stats``/``:profile``,
:meth:`MetricsRegistry.prometheus`, ``--trace-out`` JSONL traces --
reads from here.

Metric naming
=============

Names are dotted, lowercase, stable (tests assert them).  The full
catalogue:

======================================  =========  ==================================================
name                                    kind       meaning
======================================  =========  ==================================================
kernel.kernel_combinations              counter    Dempster combinations on the bitmask kernel path
kernel.fallback_combinations            counter    combinations on the symbolic frozenset fallback
kernel.compilations                     counter    mass functions compiled to kernel form
exec.parallel_batches                   counter    batches fanned out to workers
exec.inline_batches                     counter    batches run inline (serial / nested / too small)
exec.tasks                              counter    individual partition tasks dispatched
exec.warmpool.dispatches                counter    batches dispatched to the warm worker pool
exec.warmpool.tasks                     counter    items shipped to warm workers
exec.warmpool.spawns                    counter    warm pool (re)creations -- forks actually paid
exec.warmpool.fallbacks                 counter    unpicklable (or pool-lost) batches that ran inline
exec.warmpool.dispatch_seconds          histogram  warm-pool batch dispatch latency
exec.remote.batches                     counter    batches scattered to remote workers
exec.remote.tasks                       counter    items shipped to remote workers
exec.remote.bytes_sent                  counter    payload bytes put on the wire
exec.remote.bytes_received              counter    payload bytes read off the wire
exec.remote.retries                     counter    chunks re-scattered after a transport failure
exec.remote.worker_deaths               counter    workers declared dead mid-batch
exec.remote.fallbacks                   counter    batches run locally (no workers / unpicklable)
exec.remote.rtt_seconds                 histogram  per-chunk round-trip latency
exec.remote.locality_hits               counter    key-only chunks served from worker shard stores
exec.remote.locality_misses             counter    key-only chunks that fell back to tuple shipping
session.queries                         counter    queries executed, summed over live sessions
session.plans_built                     counter    plans compiled (cache misses)
session.plan_cache_hits                 counter    plan-cache hits
session.result_cache_hits               counter    whole-query result-cache hits
session.subplan_cache_hits              counter    shared-subtree result-cache hits
session.node_executions                 counter    plan nodes physically executed
session.invalidations                   counter    cache invalidation sweeps
session.entries_invalidated             counter    cache entries dropped by invalidation
session.subscription_refreshes          counter    subscribed queries re-collected after publish
session.plan_cache_hit_ratio            gauge      plan hits / (hits + plans built)
session.result_cache_hit_ratio          gauge      result hits / queries
stream.upserts                          counter    upsert events accepted, summed over live engines
stream.retractions                      counter    retraction events accepted
stream.reliability_updates              counter    source-reliability change events accepted
stream.flushes                          counter    flush() calls
stream.publishes                        counter    flushes that published into a catalog
stream.empty_flush_skips                counter    quiet flushes that skipped the backend entirely
stream.combinations                     counter    pairwise Dempster combinations performed
stream.refolds                          counter    entity refolds performed
stream.kernel_combinations              counter    stream combinations on the kernel path
stream.fallback_combinations            counter    stream combinations on the fallback path
stream.ingest_lag_events                gauge      events buffered but not yet flushed
stream.watermark_age_seconds            gauge      seconds since the watermark last advanced
stream.source.<name>.events             counter    events ingested from one named source
stream.source.<name>.conflicts          counter    conflicts attributed to one named source
storage.<scheme>.saves                  counter    save_relation/save_database calls per engine
storage.<scheme>.loads                  counter    load_database calls per engine
storage.<scheme>.point_loads            counter    load_relation point reads per engine
storage.<scheme>.write_batches          counter    stream write_batch calls per engine
storage.<scheme>.bytes_written          counter    bytes on disk after mutating calls (delta)
storage.<scheme>.save_seconds           histogram  save-side call latency
storage.<scheme>.load_seconds           histogram  load-side call latency
storage.<scheme>.file_bytes             gauge      current on-disk size of the last-touched store
storage.log.autocompactions             counter    journal compactions triggered by REPRO_AUTOCOMPACT
======================================  =========  ==================================================

``<scheme>`` is the backend scheme (``json``/``sqlite``/``log``);
``<name>`` is the caller-chosen stream source name.  Span names mirror
the layer prefixes: ``session.execute``, ``physical.<op>``,
``exec.map``, ``exec.remote.scatter``, ``stream.flush``,
``storage.<op>``.
"""

from repro.obs.profile import FlushProfile, NodeProfile, QueryProfile
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from repro.obs.tracing import (
    JsonlSink,
    SpanRecord,
    add_sink,
    capture,
    enabled,
    ingest,
    remove_sink,
    set_tracing,
    span,
    take_records,
    tracing_scope,
)

__all__ = [
    "Counter",
    "FlushProfile",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NodeProfile",
    "QueryProfile",
    "SpanRecord",
    "add_sink",
    "capture",
    "enabled",
    "ingest",
    "registry",
    "remove_sink",
    "set_tracing",
    "span",
    "take_records",
    "tracing_scope",
]
