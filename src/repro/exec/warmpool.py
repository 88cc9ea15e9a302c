"""A persistent warm ``fork`` worker pool with compact task encoding.

The pool behind :class:`~repro.exec.executors.ProcessExecutor`.  Forking
and tearing down a pool costs tens of milliseconds, which would swamp
the small batches a stream engine flushes all day, so this module keeps
one pool of already-forked workers alive across batches and ships work
to them as **compact encoded payloads**:

* the task function must be a module-level callable (it pickles by
  reference -- workers forked from this process already have the module
  imported);
* per-batch constant state (``common``) is pickled **once** and reused
  for every chunk, instead of once per item;
* items are grouped into at most ``workers`` contiguous chunks, so one
  pipe round trip carries many items and results return per chunk.

Payloads that cannot pickle (closures, open handles) are detected *in
the driver* before anything is dispatched: :meth:`WarmPool.submit_batch`
returns ``None`` and the caller runs the batch inline.
The pool is process-global and deliberately survives
``executor_scope`` / ``Executor.close`` -- staying warm across scopes
is the point -- and is reaped at interpreter exit.  Dispatch activity
surfaces as the ``exec.warmpool.*`` metrics.

Fork safety note (the CONC002 lint rule patrols this): tasks submitted
here are *long-lived* pool submissions -- the workers were forked once,
long ago, so any file offset, sqlite connection or held lock captured
into a payload is stale in the worker by construction.  Ship keys and
paths, reopen in the task.
"""

from __future__ import annotations

import atexit
import pickle
import threading
import time

from repro.obs import tracing
from repro.obs.registry import registry as _metrics_registry

_METRICS = _metrics_registry()
_DISPATCHES = _METRICS.counter(
    "exec.warmpool.dispatches", "batches dispatched to warm workers"
)
_TASKS = _METRICS.counter(
    "exec.warmpool.tasks", "items shipped to warm workers"
)
_SPAWNS = _METRICS.counter(
    "exec.warmpool.spawns", "warm pool (re)creations -- forks actually paid"
)
_FALLBACKS = _METRICS.counter(
    "exec.warmpool.fallbacks",
    "batches that could not pickle (or lost the pool) and ran inline",
)
_DISPATCH_SECONDS = _METRICS.histogram(
    "exec.warmpool.dispatch_seconds", "warm-pool batch dispatch latency"
)


def _invoke_chunk(common_blob: bytes, chunk_blob: bytes, trace: bool):
    """Worker-side entry: decode one chunk and run its items in order.

    *trace* is the driver's tracing flag at dispatch time: the worker's
    own copy dates from the fork and may be stale.
    """
    from repro.exec.executors import _inside_task

    fn, common = pickle.loads(common_blob)
    chunk = pickle.loads(chunk_blob)
    with _inside_task(), tracing.tracing_scope(trace):
        if not trace:
            return [fn(common, item) for item in chunk], None
        with tracing.capture() as spans:
            results = [fn(common, item) for item in chunk]
        return results, spans


class WarmPool:
    """A lazily-forked, persistent worker pool (one per worker count)."""

    def __init__(self, workers: int):
        self.workers = int(workers)
        self._lock = threading.Lock()
        self._pool = None

    def _ensure_pool(self):
        """Fork the workers on first use (caller holds the lock)."""
        if self._pool is None:
            import multiprocessing

            context = multiprocessing.get_context("fork")
            self._pool = context.Pool(processes=self.workers)
            _SPAWNS.inc()
        return self._pool

    def submit_batch(self, fn, common, items: list) -> list | None:
        """Run ``[fn(common, item) for item in items]`` on warm workers.

        Returns results in item order, or ``None`` when the payload
        cannot cross the pipe or the pool is lost (the caller runs the
        batch inline).  The first task exception propagates.
        Concurrent driver threads serialize on the pool.
        """
        if not items:
            return []
        try:
            common_blob = pickle.dumps(
                (fn, common), protocol=pickle.HIGHEST_PROTOCOL
            )
            chunks = self._chunk(items)
            chunk_blobs = [
                pickle.dumps(chunk, protocol=pickle.HIGHEST_PROTOCOL)
                for chunk in chunks
            ]
        except Exception:  # noqa: BLE001 -- any pickling failure: fall back
            _FALLBACKS.inc()
            return None
        started = time.perf_counter()
        with tracing.span(
            "exec.warmpool.dispatch", tasks=len(items), chunks=len(chunk_blobs)
        ):
            with self._lock:
                pool = self._ensure_pool()
                trace = tracing.enabled()
                try:
                    handles = [
                        pool.apply_async(
                            _invoke_chunk, (common_blob, blob, trace)
                        )
                        for blob in chunk_blobs
                    ]
                    outcomes = [handle.get() for handle in handles]
                except OSError:
                    # A dead worker poisons the whole pool: drop it (the
                    # next batch re-forks) and let the caller run inline.
                    self._close_pool()
                    _FALLBACKS.inc()
                    return None
        _DISPATCHES.inc()
        _TASKS.inc(len(items))
        _DISPATCH_SECONDS.observe(time.perf_counter() - started)
        results: list = []
        for chunk_results, spans in outcomes:
            if spans:
                tracing.ingest(spans)
            results.extend(chunk_results)
        return results

    def _chunk(self, items: list) -> list[list]:
        """At most ``workers`` contiguous chunks, preserving item order."""
        count = min(self.workers, len(items))
        size, extra = divmod(len(items), count)
        chunks, start = [], 0
        for index in range(count):
            stop = start + size + (1 if index < extra else 0)
            chunks.append(items[start:stop])
            start = stop
        return chunks

    def _close_pool(self) -> None:
        """Terminate the workers (caller holds the lock)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def close(self) -> None:
        """Terminate the workers; the next submit re-forks."""
        with self._lock:
            self._close_pool()

    def __repr__(self) -> str:
        state = "warm" if self._pool is not None else "cold"
        return f"WarmPool({self.workers} worker(s), {state})"


#: Process-global pools keyed by worker count, guarded by the lock: the
#: whole point is reusing forked workers across executor scopes.
_POOLS: dict[int, WarmPool] = {}
_POOLS_LOCK = threading.Lock()


def get_pool(workers: int) -> WarmPool | None:
    """The shared warm pool for *workers*, or ``None`` without ``fork``."""
    try:
        import multiprocessing

        multiprocessing.get_context("fork")
    except (ImportError, ValueError):
        return None
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = WarmPool(workers)
            _POOLS[workers] = pool
    return pool


def shutdown() -> None:
    """Terminate every warm pool (idempotent; registered at exit)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.close()


atexit.register(shutdown)
