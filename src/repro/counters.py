"""Thread-safe process-wide counters for hot-path observability.

The library keeps two process-wide counter objects -- the evidence
kernel's :data:`repro.ds.kernel.STATS` and the physical layer's
:data:`repro.exec.executors.STATS` -- that are bumped from code running
concurrently (an in-process worker daemon compiles mass functions and
combines evidence on its connection threads).  A plain ``obj.field += 1``
is a read-modify-write and loses updates under concurrency, so exact
counts -- which the regression tests assert -- cannot ride on bare
attributes.

:class:`ThreadLocalCounters` makes the increment side lock-free: every
thread bumps its own private cell, so the hot path never contends, and
reads aggregate the cells under a registry lock.  A count observed
*after* the bumping threads have been joined (or after an
``Executor.map`` batch returned, which implies completion) is exact.
Reads that overlap live bumping see a momentarily stale but
monotonically catching-up total -- the right trade-off for statistics
counters on a hot path.
"""

from __future__ import annotations

import threading


class ThreadLocalCounters:
    """Named integer counters, bumpable from any thread without a lock.

    ``fields`` fixes the counter names.  :meth:`bump` writes the calling
    thread's private cell; :meth:`total`/:meth:`totals` aggregate every
    cell under the registry lock.  Cells are registered once per
    ``(thread, instance)`` pair and survive thread exit (totals must not
    drop contributions of finished workers), so memory is bounded by the
    number of distinct threads that ever bumped -- in practice the
    executor pool size.
    """

    __slots__ = ("_fields", "_lock", "_cells", "_local")

    def __init__(self, fields: tuple[str, ...]):
        self._fields = tuple(fields)
        self._lock = threading.Lock()
        self._cells: list[dict[str, int]] = []
        self._local = threading.local()

    @property
    def fields(self) -> tuple[str, ...]:
        """The counter names, in declaration order."""
        return self._fields

    def _cell(self) -> dict[str, int]:
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = dict.fromkeys(self._fields, 0)
            with self._lock:
                self._cells.append(cell)
            self._local.cell = cell
        return cell

    def bump(self, field: str, amount: int = 1) -> None:
        """Add *amount* to *field* (lock-free: thread-private cell)."""
        self._cell()[field] += amount

    def total(self, field: str) -> int:
        """The aggregate value of *field* across all threads."""
        with self._lock:
            return sum(cell[field] for cell in self._cells)

    def totals(self) -> dict[str, int]:
        """One consistent aggregate snapshot of every counter."""
        with self._lock:
            return {
                field: sum(cell[field] for cell in self._cells)
                for field in self._fields
            }

    def reset(self) -> None:
        """Zero every cell in place (the object identity is shared)."""
        with self._lock:
            for cell in self._cells:
                for field in self._fields:
                    cell[field] = 0


#: Default histogram bucket upper bounds, in seconds -- chosen for the
#: latencies this library measures (sub-millisecond kernel ops up to
#: multi-second bulk persists).  The implicit final bucket is +inf.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


class ThreadLocalHistograms:
    """Named histograms, observable from any thread without a lock.

    The same discipline as :class:`ThreadLocalCounters`, extended with
    min/max/sum/bucket cells: every thread owns a private cell per
    histogram -- ``[count, sum, min, max, bucket_counts]`` -- so
    :meth:`observe` on the hot path touches only thread-private state,
    and :meth:`totals` merges the cells under the registry lock (counts
    and sums add, min/max fold, buckets add element-wise).  Observations
    made before a joined thread exited are never dropped.

    Bucket bounds are upper edges; an observation lands in the first
    bucket whose bound is >= the value, or the implicit +inf bucket.
    """

    __slots__ = ("_fields", "_buckets", "_lock", "_cells", "_local")

    #: Cell layout indices.
    _COUNT, _SUM, _MIN, _MAX, _BUCKETS = range(5)

    def __init__(
        self,
        fields: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        self._fields = tuple(fields)
        self._buckets = tuple(sorted(buckets))
        self._lock = threading.Lock()
        self._cells: list[dict[str, list]] = []
        self._local = threading.local()

    @property
    def fields(self) -> tuple[str, ...]:
        """The histogram names, in declaration order."""
        return self._fields

    @property
    def buckets(self) -> tuple[float, ...]:
        """The bucket upper bounds (ascending; +inf is implicit)."""
        return self._buckets

    def _empty(self) -> list:
        return [0, 0.0, None, None, [0] * (len(self._buckets) + 1)]

    def _cell(self) -> dict[str, list]:
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = {field: self._empty() for field in self._fields}
            with self._lock:
                self._cells.append(cell)
            self._local.cell = cell
        return cell

    def observe(self, field: str, value: float) -> None:
        """Record one observation (lock-free: thread-private cell)."""
        slot = self._cell()[field]
        slot[self._COUNT] += 1
        slot[self._SUM] += value
        if slot[self._MIN] is None or value < slot[self._MIN]:
            slot[self._MIN] = value
        if slot[self._MAX] is None or value > slot[self._MAX]:
            slot[self._MAX] = value
        buckets = slot[self._BUCKETS]
        for index, bound in enumerate(self._buckets):
            if value <= bound:
                buckets[index] += 1
                return
        buckets[-1] += 1

    def total(self, field: str) -> dict:
        """The aggregate of *field* across all threads.

        Returns ``{"count", "sum", "min", "max", "buckets"}``; ``min``/
        ``max`` are ``None`` and buckets all zero before any observation.
        """
        with self._lock:
            return self._merge(field)

    def totals(self) -> dict[str, dict]:
        """One consistent aggregate snapshot of every histogram."""
        with self._lock:
            return {field: self._merge(field) for field in self._fields}

    def _merge(self, field: str) -> dict:
        count, total, low, high = 0, 0.0, None, None
        buckets = [0] * (len(self._buckets) + 1)
        for cell in self._cells:
            slot = cell[field]
            count += slot[self._COUNT]
            total += slot[self._SUM]
            if slot[self._MIN] is not None and (low is None or slot[self._MIN] < low):
                low = slot[self._MIN]
            if slot[self._MAX] is not None and (high is None or slot[self._MAX] > high):
                high = slot[self._MAX]
            for index, bucket in enumerate(slot[self._BUCKETS]):
                buckets[index] += bucket
        return {
            "count": count,
            "sum": total,
            "min": low,
            "max": high,
            "buckets": tuple(buckets),
        }

    def reset(self) -> None:
        """Zero every cell in place (the object identity is shared)."""
        with self._lock:
            for cell in self._cells:
                for field in self._fields:
                    cell[field][:] = self._empty()
