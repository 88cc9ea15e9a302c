"""Pluggable executors: how partitioned physical work is fanned out.

The integration semantics of the paper are per-entity -- Dempster
merges, selection revision, union/intersection all decompose over
definite keys -- so the physical layer phrases its work as independent
*partition tasks*: a module-level function applied to plain data,
submitted as one batch through :meth:`Executor.map_encoded` (``fn``,
a batch-constant ``common``, and the per-partition items).  An
:class:`Executor` decides how those tasks run:

* :class:`SerialExecutor` (the default) runs tasks inline, in order.
  Results and pair order are bit-for-bit identical to the historical
  single-loop code paths.
* :class:`ProcessExecutor` ships batches to the persistent warm
  ``fork`` pool (:mod:`repro.exec.warmpool`): ``common`` is pickled once
  per chunk and results pickle back (every model object pickles: mass
  functions re-enter through their constructor, see
  :meth:`repro.ds.mass.MassFunction.__reduce__`).  A batch that does
  not pickle, a lost pool, or a platform without ``fork`` runs inline.

The active executor is process-global, chosen via :func:`configure` or
the ``REPRO_EXECUTOR`` / ``REPRO_WORKERS`` / ``REPRO_PARTITIONS``
environment variables, and read by every partition-aware call site
through :func:`get_executor` / :func:`partition_count`.  Nested fan-out
(a partition task that itself reaches a partition-aware operation) runs
inline: the outer fan-out already owns the worker pool, and nesting
would deadlock a bounded pool.

The configured executor is the one that runs every batch, and the
partition count is the configured one (capped at the workload size).
There is no thread pool: per-entity merges are pure-Python arithmetic
that holds the GIL, so threads could only add dispatch cost.

Whatever the executor and partition count, every partition-aware code
path reassembles results so they *equal the serial result exactly* --
same tuples, same exact Fractions, bit-for-bit identical floats (the
property tests in ``tests/exec`` assert this).
"""

from __future__ import annotations

import atexit
import os
import threading

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from repro.counters import ThreadLocalCounters
from repro.errors import ConfigError, ExecutionError
from repro.obs import tracing
from repro.obs.registry import registry as _metrics_registry

#: Accepted executor kinds (``remote`` scatters across socket worker
#: daemons, see :mod:`repro.exec.remote`).
EXECUTOR_KINDS = ("serial", "process", "remote")


@dataclass
class ExecStats:
    """A point-in-time snapshot of physical fan-out activity.

    ``parallel_batches`` counts batches that fanned out to a pool;
    ``inline_batches`` those that ran inline (serial executor, single
    task, nested inside another task, or unpicklable for the process
    pool); ``tasks``
    the partition tasks executed through fan-out.  The live counters
    are :data:`STATS` (a :class:`LiveExecStats`).
    """

    parallel_batches: int = 0
    inline_batches: int = 0
    tasks: int = 0

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"exec: {self.parallel_batches} parallel batch(es) "
            f"({self.tasks} task(s)), {self.inline_batches} inline"
        )


class LiveExecStats:
    """The process-wide counters, safe to bump from any thread.

    An in-process worker daemon (:mod:`repro.exec.remote.worker`) runs
    tasks on its connection threads beside the coordinator's own
    batches, so the counters are bumped concurrently; increments go
    through
    :class:`~repro.counters.ThreadLocalCounters` so counts observed
    after a batch returns are exact.
    """

    _FIELDS = ("parallel_batches", "inline_batches", "tasks")

    def __init__(self):
        self._counters = ThreadLocalCounters(self._FIELDS)

    @property
    def parallel_batches(self) -> int:
        return self._counters.total("parallel_batches")

    @property
    def inline_batches(self) -> int:
        return self._counters.total("inline_batches")

    @property
    def tasks(self) -> int:
        return self._counters.total("tasks")

    def bump(self, field: str, amount: int = 1) -> None:
        """Add *amount* to *field* (lock-free; callable from any thread)."""
        self._counters.bump(field, amount)

    def snapshot(self) -> ExecStats:
        """A consistent :class:`ExecStats` copy of the counters."""
        return ExecStats(**self._counters.totals())

    def reset(self) -> None:
        """Zero the counters in place (the object identity is shared)."""
        self._counters.reset()

    def summary(self) -> str:
        """One-line human-readable digest."""
        return self.snapshot().summary()


#: The shared counter object; mutate via :meth:`LiveExecStats.bump` /
#: :meth:`LiveExecStats.reset`, never rebind (modules hold direct
#: references).
STATS = LiveExecStats()

# Surface the fan-out counters on the process-wide metrics registry
# (``exec.*`` names) behind the existing snapshot API.
_metrics_registry().register_source(
    "exec", lambda: asdict(STATS.snapshot()), STATS.reset
)


def exec_stats() -> ExecStats:
    """The process-wide :data:`STATS` object (live, not a copy)."""
    return STATS


def run_inline(fn, common, items: list) -> list:
    """``[fn(common, item) for item in items]`` in the caller, counted
    as an inline batch (no fan-out).

    Owning-layer entry point for executors living in subpackages (the
    remote coordinator): they report through here rather than bumping
    :data:`STATS` from another package.
    """
    STATS.bump("inline_batches")
    return [fn(common, item) for item in items]


def note_parallel_batch(tasks: int) -> None:
    """Count a fanned-out batch of *tasks* items (see :func:`run_inline`)."""
    STATS.bump("parallel_batches")
    STATS.bump("tasks", tasks)


# -- nested-task guard --------------------------------------------------------

_LOCAL = threading.local()


def _task_depth() -> int:
    return getattr(_LOCAL, "depth", 0)


@contextmanager
def _inside_task():
    _LOCAL.depth = _task_depth() + 1
    try:
        yield
    finally:
        _LOCAL.depth -= 1


def contiguous_chunks(items: list, count: int) -> list[list]:
    """*items* split into at most *count* contiguous, order-preserving
    chunks whose sizes differ by at most one.

    >>> contiguous_chunks([1, 2, 3, 4, 5], 2)
    [[1, 2, 3], [4, 5]]
    """
    if not items:
        return []
    count = min(max(count, 1), len(items))
    size, extra = divmod(len(items), count)
    chunks, start = [], 0
    for index in range(count):
        stop = start + size + (1 if index < extra else 0)
        chunks.append(items[start:stop])
        start = stop
    return chunks


# -- executors ----------------------------------------------------------------


def _apply_task(task, item):
    """Module-level trampoline: lets :meth:`Executor.map` ship *task*
    through :meth:`Executor.map_encoded` (``common`` is the task)."""
    return task(item)


class Executor(ABC):
    """Runs a batch of independent partition tasks, preserving order."""

    kind = "?"

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ExecutionError(f"workers must be >= 1, got {workers!r}")
        self.workers = int(workers)

    def map(self, task, items) -> list:
        """``[task(item) for item in items]``, possibly in parallel.

        A convenience over :meth:`map_encoded` with *task* as the
        batch's ``common``: a task that pickles (a module-level
        callable, a partial of one) may leave the process, any other
        runs inline.
        """
        return self.map_encoded(_apply_task, task, items)

    def map_encoded(self, fn, common, items) -> list:
        """``[fn(common, item) for item in items]``, possibly in parallel.

        The one batch contract.  *fn* should be a module-level callable
        and ``common``/*items* plain picklable data: executors with
        out-of-process workers (the process executor's warm pool,
        :mod:`repro.exec.warmpool`) ship ``common`` once per chunk, not
        once per item, and run a batch that does not pickle inline.
        Results come back in item order; the first task exception
        propagates.  Batches of one item, batches on one worker, and
        batches issued from inside another task (nested fan-out) always
        run inline.
        """
        items = list(items)
        if len(items) <= 1 or self.workers <= 1 or _task_depth() > 0:
            return run_inline(fn, common, items)
        with tracing.span("exec.map", kind=self.kind, tasks=len(items)):
            return self._map_encoded(fn, common, items)

    @abstractmethod
    def _map_encoded(self, fn, common, items: list) -> list:
        """Fan a multi-item batch out (pool executors override)."""

    def close(self) -> None:
        """Release pool resources (no-op for poolless executors)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.workers} worker(s))"


class SerialExecutor(Executor):
    """Inline execution: the historical single-loop behavior."""

    kind = "serial"

    def __init__(self):
        super().__init__(workers=1)

    def _map_encoded(self, fn, common, items):  # pragma: no cover -- one worker
        return run_inline(fn, common, items)


class ProcessExecutor(Executor):
    """The persistent warm process pool (:mod:`repro.exec.warmpool`).

    Batches ship as pickled payloads to workers forked once and reused
    across batches.  A batch whose payload does not pickle (a closure,
    an open handle), a lost pool, or a platform without the ``fork``
    start method runs the batch inline instead -- with the same
    results.
    """

    kind = "process"

    def _map_encoded(self, fn, common, items):
        from repro.exec import warmpool

        pool = warmpool.get_pool(self.workers)
        results = None if pool is None else pool.submit_batch(fn, common, items)
        if results is None:
            return run_inline(fn, common, items)
        note_parallel_batch(len(items))
        return results


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class ExecConfig:
    """The active physical-execution configuration.

    ``partitions`` of ``None`` means "one partition per worker" --
    which, for the serial executor, means no partitioning at all, i.e.
    the exact historical code paths.
    """

    kind: str = "serial"
    workers: int = 1
    partitions: int | None = None

    def effective_partitions(self) -> int:
        """The partition count partition-aware call sites fan out to."""
        if self.partitions is not None:
            return self.partitions
        return self.workers if self.kind != "serial" else 1

    def describe(self) -> str:
        """One-line human-readable rendering (for ``:stats`` and CLIs)."""
        return (
            f"executor: {self.kind}, {self.workers} worker(s), "
            f"{self.effective_partitions()} partition(s)"
        )


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"{name} must be an integer, got {raw!r}"
        ) from None


def _default_workers(kind: str) -> int:
    """The worker count a *kind* gets when none is configured.

    Serial needs one; the remote executor defaults to one worker per
    configured ``REPRO_WORKERS_ADDRS`` address (the natural scatter
    width) and falls back to the CPU count with no cluster configured;
    everything else takes the CPU count.
    """
    if kind == "serial":
        return 1
    if kind == "remote":
        raw = os.environ.get("REPRO_WORKERS_ADDRS", "")
        addresses = [part for part in raw.split(",") if part.strip()]
        if addresses:
            return len(addresses)
    return os.cpu_count() or 1


def _config_from_env() -> ExecConfig:
    kind = os.environ.get("REPRO_EXECUTOR", "serial").strip().lower()
    if kind not in EXECUTOR_KINDS:
        raise ConfigError(
            f"REPRO_EXECUTOR must be one of {EXECUTOR_KINDS}, got {kind!r}"
        )
    workers = _env_int("REPRO_WORKERS")
    if workers is not None and workers < 0:
        raise ConfigError(
            f"REPRO_WORKERS must be >= 0 (0 means the default), got {workers}"
        )
    partitions = _env_int("REPRO_PARTITIONS")
    if partitions is not None and partitions < 1:
        raise ConfigError(f"REPRO_PARTITIONS must be >= 1, got {partitions}")
    return ExecConfig(kind, workers or _default_workers(kind), partitions)


#: Resolved lazily on first use, not at import: a malformed REPRO_*
#: variable must surface as a clean ExecutionError inside whatever
#: entry point runs (the CLI turns ReproErrors into exit 1), never as a
#: traceback that makes the package unimportable.
_config: ExecConfig | None = None
_executor: Executor | None = None


def _current() -> ExecConfig:
    global _config
    if _config is None:
        _config = _config_from_env()
    return _config


def _build_executor(config: ExecConfig) -> Executor:
    if config.kind == "serial":
        return SerialExecutor()
    if config.kind == "remote":
        from repro.exec.remote import RemoteExecutor

        return RemoteExecutor(config.workers)
    return ProcessExecutor(config.workers)


def configure(
    executor: str | None = None,
    workers: int | None = None,
    partitions: int | None = None,
) -> ExecConfig:
    """Choose the process-global executor and partitioning.

    >>> configure(executor="process", workers=4).describe()
    'executor: process, 4 worker(s), 4 partition(s)'
    >>> configure(executor="serial", workers=1, partitions=None).kind
    'serial'

    Omitted arguments keep their current value, except that switching
    *executor* without *workers* picks a sensible default (1 for serial,
    the CPU count otherwise).  ``partitions=None`` restores the
    one-partition-per-worker default.  Returns the new configuration.
    """
    global _config, _executor
    current = _current()
    kind = current.kind if executor is None else str(executor).strip().lower()
    if kind not in EXECUTOR_KINDS:
        raise ConfigError(
            f"executor must be one of {EXECUTOR_KINDS}, got {executor!r}"
        )
    if workers is None:
        if kind == current.kind:
            workers = current.workers
        else:
            workers = _default_workers(kind)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers!r}")
    if partitions is not None and partitions < 1:
        raise ConfigError(f"partitions must be >= 1, got {partitions!r}")
    if _executor is not None:
        _executor.close()
    _config = ExecConfig(kind, int(workers), partitions)
    _executor = None
    return _config


def current_config() -> ExecConfig:
    """The active :class:`ExecConfig` (immutable snapshot)."""
    return _current()


def get_executor() -> Executor:
    """The process-global executor for the current configuration."""
    global _executor
    if _executor is None:
        _executor = _build_executor(_current())
    return _executor


def _shutdown_at_exit() -> None:
    """Close the global executor when the interpreter exits.

    A session that never calls ``close()`` explicitly would otherwise
    leak remote connections and their dispatch threads past its useful
    life;
    every executor's ``close()`` is idempotent, so this hook is safe to
    run after (or race with) an explicit close.  The warm fork pool has
    its own hook (:mod:`repro.exec.warmpool`) because it deliberately
    outlives any one executor.
    """
    global _executor
    executor, _executor = _executor, None
    if executor is not None:
        executor.close()


atexit.register(_shutdown_at_exit)


def partition_count(size: int) -> int:
    """Partitions to use for a workload of *size* entities.

    The configured partition count (:meth:`ExecConfig.effective_partitions`)
    capped at *size*; 1 (meaning: stay on the serial code path) when the
    configuration does not partition, the workload is too small to
    split, or the caller is itself a partition task.
    """
    if size <= 1 or _task_depth() > 0:
        return 1
    return min(_current().effective_partitions(), size)


@contextmanager
def executor_scope(
    executor: str | None = None,
    workers: int | None = None,
    partitions: int | None = None,
):
    """Temporarily reconfigure the executor (tests, benchmarks).

    >>> with executor_scope(executor="process", workers=2) as config:
    ...     config.kind
    'process'
    """
    global _config, _executor
    previous_config, previous_executor = _current(), _executor
    _executor = None
    try:
        yield configure(executor, workers, partitions)
    finally:
        if _executor is not None:
            _executor.close()
        _config, _executor = previous_config, previous_executor
