"""The self-tuning cost model behind ``REPRO_EXECUTOR=auto``.

Fixed executor configuration makes the partitioned layer an
all-or-nothing bet: ``REPRO_EXECUTOR=process`` wins on thousand-entity
folds and loses badly on four-entity stream batches, while ``serial``
leaves cores idle on the big ones.  This module closes the loop: every
partition-aware call site (``Session._run`` via the physical operators,
``Federation.integrate``, ``StreamEngine.flush``) describes its
workload, the model prices it, and the adaptive executor
(:class:`repro.exec.executors.AdaptiveExecutor`) routes the batch to
whichever path the estimate favors -- inline or the warm process pool
(:mod:`repro.exec.warmpool`).

Cost model inputs
=================

A :class:`WorkloadProfile` prices one fan-out:

``entities``
    How many independent per-entity merges the batch holds (the
    decomposition unit of the paper's integration semantics).
``sources``
    Average contributions per entity; an n-source entity folds with
    ``n - 1`` pairwise Dempster combinations.
``focal``
    Average focal-set size of the evidence being combined; a pairwise
    combination walks the ``focal x focal`` cross product.
``kernel_fraction``
    The share of combinations expected on the compiled bitmask kernel
    path (:mod:`repro.ds.kernel`) rather than the symbolic frozenset
    fallback.  When the caller supplies no hint this is *observed* from
    the process-wide ``kernel.kernel_combinations`` /
    ``kernel.fallback_combinations`` telemetry counters -- the model
    literally feeds off what the kernel has been doing.

Call sites refine the defaults through the :func:`workload` hint
context (the stream engine samples its dirty entities, the federation
knows its source count); everything degrades gracefully to defaults.

Every choice the model makes is an *executor* choice, never a
*semantics* choice: the equivalence contract of :mod:`repro.exec`
(any executor x any partition count == serial, bit for bit) holds for
every decision, so a mispriced workload costs time, not correctness.
The decision counters surface as ``exec.auto.*_decisions`` metrics.

Cost units are calibrated microseconds of pure-Python merge work on a
commodity core; only the *ratios* matter, so the constants need to be
plausible, not exact.
"""

from __future__ import annotations

import threading

from contextlib import contextmanager
from dataclasses import dataclass

from repro.ds.kernel import STATS as _KERNEL_STATS
from repro.obs.registry import registry as _metrics_registry

#: Fixed per-entity overhead of a merge (dict walks, report and
#: membership bookkeeping), independent of the evidence combined.
ENTITY_BASE_COST = 3.0
#: Pairwise combination on the compiled bitmask kernel path:
#: ``base + cell * focal**2`` (the kernel walks the mask cross product).
KERNEL_COMBINATION_BASE = 2.0
KERNEL_CELL_COST = 0.05
#: The symbolic frozenset fallback has the same shape with much larger
#: constants (Python-object set intersections per focal pair).
FALLBACK_COMBINATION_BASE = 10.0
FALLBACK_CELL_COST = 1.0

#: Warm process pool: per-batch pickling/bookkeeping, per-task pipe
#: round trip, plus per-entity state shipping both ways.
PROCESS_BATCH_COST = 1500.0
PROCESS_TASK_COST = 300.0
PROCESS_SHIP_COST = 4.0
#: Remote tier (``REPRO_EXECUTOR=remote``): per-batch encode/scatter
#: setup, per-chunk framing, plus the *measured* inputs -- round-trip
#: latency from heartbeats and bytes-on-wire per item from shipped
#: batches (:func:`note_remote_sample`) -- so the gate prices the
#: actual network, not a guess.  Until samples accrue the defaults
#: model a loopback cluster.
REMOTE_BATCH_COST = 2000.0
REMOTE_CHUNK_COST = 500.0
REMOTE_BYTE_COST = 0.001
DEFAULT_REMOTE_RTT = 0.0005
DEFAULT_REMOTE_BYTES_PER_ITEM = 512.0
#: Key-only locality scatter (shard-resident workers): an item costs
#: its key on the wire plus one indexed point load worker-side; until
#: keyed batches accrue samples the default models a short entity key.
DEFAULT_LOCALITY_BYTES_PER_ITEM = 64.0
LOCALITY_LOAD_COST = 1.0
#: Floor on the useful work one process-pool task should carry;
#: partition counts are capped so tasks stay at least this expensive.
MIN_TASK_COST = 10000.0

#: Defaults when a call site supplies no hint.
DEFAULT_SOURCES = 2.0
DEFAULT_FOCAL = 4.0
#: Below this many observed combinations the kernel counters carry too
#: little signal; assume the kernel path (enumerated domains dominate).
MIN_OBSERVED_COMBINATIONS = 100


@dataclass(frozen=True)
class WorkloadProfile:
    """The cost model's view of one fan-out (see the module docstring)."""

    entities: int
    sources: float = DEFAULT_SOURCES
    focal: float = DEFAULT_FOCAL
    kernel_fraction: float = 1.0

    def describe(self) -> str:
        """One-line human-readable rendering."""
        return (
            f"{self.entities} entities x {self.sources:.1f} sources, "
            f"focal ~{self.focal:.1f}, "
            f"{self.kernel_fraction:.0%} kernel-path"
        )


@dataclass(frozen=True)
class Decision:
    """One routing decision: executor kind, partition count, estimate."""

    kind: str
    partitions: int
    estimated_cost: float
    reason: str

    def describe(self) -> str:
        """One-line human-readable rendering."""
        return (
            f"auto -> {self.kind} x {self.partitions} "
            f"(~{self.estimated_cost:.0f} units: {self.reason})"
        )


def combination_cost(focal: float, kernel_fraction: float) -> float:
    """Estimated cost of one pairwise Dempster combination.

    Monotone in *focal* and non-increasing in *kernel_fraction* (the
    fallback constants dominate the kernel's).
    """
    focal = max(float(focal), 1.0)
    fraction = min(max(float(kernel_fraction), 0.0), 1.0)
    cells = focal * focal
    kernel = KERNEL_COMBINATION_BASE + KERNEL_CELL_COST * cells
    fallback = FALLBACK_COMBINATION_BASE + FALLBACK_CELL_COST * cells
    return fraction * kernel + (1.0 - fraction) * fallback


def entity_cost(
    sources: float,
    focal: float,
    kernel_fraction: float,
) -> float:
    """Estimated cost of merging one entity.

    An entity with ``sources`` contributions folds with
    ``sources - 1`` pairwise combinations.  Monotone in *sources* and
    *focal*: more evidence never lowers the estimate (asserted by the
    estimator property tests).
    """
    combinations = max(float(sources) - 1.0, 0.0)
    return ENTITY_BASE_COST + combinations * combination_cost(
        focal, kernel_fraction
    )


def estimate(profile: WorkloadProfile) -> float:
    """Total estimated cost of a workload (cost units)."""
    return max(int(profile.entities), 0) * entity_cost(
        profile.sources, profile.focal, profile.kernel_fraction
    )


def decide(profile: WorkloadProfile, workers: int) -> Decision:
    """Price *profile* and pick serial or the warm pool + partitions.

    Serial wins ties: the process path must beat the serial estimate
    strictly, so cheap workloads never pay dispatch overhead.
    """
    total = estimate(profile)
    entities = max(int(profile.entities), 0)
    if entities <= 1 or workers <= 1:
        return Decision("serial", 1, total, "nothing to fan out")
    partitions = min(workers, entities, max(int(total // MIN_TASK_COST), 1))
    if partitions >= 2:
        process_time = (
            PROCESS_BATCH_COST
            + partitions * PROCESS_TASK_COST
            + entities * PROCESS_SHIP_COST
            + total / partitions
        )
        if process_time < total:
            return Decision(
                "process",
                partitions,
                total,
                f"process workers win at {partitions} partitions",
            )
    return Decision(
        "serial", 1, total, f"serial beats dispatch overhead ({total:.0f} units)"
    )


# -- the remote tier ----------------------------------------------------------

#: EWMA smoothing for the remote-tier observations; a handful of
#: samples dominates the default, one outlier does not.
REMOTE_EWMA_ALPHA = 0.3

#: Measured remote-tier inputs, EWMA-smoothed.  Written by the
#: coordinator's heartbeat and dispatch paths from multiple threads,
#: so every write happens under :data:`_REMOTE_LOCK`.
_REMOTE_LOCK = threading.Lock()
_remote_rtt: float | None = None
_remote_bytes_per_item: float | None = None
_locality_bytes_per_item: float | None = None


def note_remote_sample(
    rtt_seconds: float | None = None,
    bytes_per_item: float | None = None,
) -> None:
    """Feed the remote tier one measurement (either or both inputs).

    *rtt_seconds* comes from heartbeat PING/PONG round trips (pure
    latency -- chunk round trips include compute and would poison the
    signal); *bytes_per_item* from the framed size of shipped batches.
    """
    global _remote_rtt, _remote_bytes_per_item
    with _REMOTE_LOCK:
        if rtt_seconds is not None and rtt_seconds >= 0.0:
            if _remote_rtt is None:
                _remote_rtt = float(rtt_seconds)
            else:
                _remote_rtt += REMOTE_EWMA_ALPHA * (
                    float(rtt_seconds) - _remote_rtt
                )
        if bytes_per_item is not None and bytes_per_item >= 0.0:
            if _remote_bytes_per_item is None:
                _remote_bytes_per_item = float(bytes_per_item)
            else:
                _remote_bytes_per_item += REMOTE_EWMA_ALPHA * (
                    float(bytes_per_item) - _remote_bytes_per_item
                )


def note_locality_sample(bytes_per_item: float) -> None:
    """Feed the locality tier one keyed-batch wire measurement.

    Keyed chunks meter separately from tuple-shipped chunks: folding
    them into :func:`note_remote_sample` would drag the tuple estimate
    toward the key cost and erase the very difference the gate prices.
    """
    global _locality_bytes_per_item
    with _REMOTE_LOCK:
        if bytes_per_item is not None and bytes_per_item >= 0.0:
            if _locality_bytes_per_item is None:
                _locality_bytes_per_item = float(bytes_per_item)
            else:
                _locality_bytes_per_item += REMOTE_EWMA_ALPHA * (
                    float(bytes_per_item) - _locality_bytes_per_item
                )


def reset_remote_samples() -> None:
    """Forget the observed RTT/bytes (tests; a new cluster topology)."""
    global _remote_rtt, _remote_bytes_per_item, _locality_bytes_per_item
    with _REMOTE_LOCK:
        _remote_rtt = None
        _remote_bytes_per_item = None
        _locality_bytes_per_item = None


def observed_remote_rtt() -> float:
    """The smoothed heartbeat RTT in seconds (default: loopback-ish)."""
    with _REMOTE_LOCK:
        return DEFAULT_REMOTE_RTT if _remote_rtt is None else _remote_rtt


def observed_remote_bytes_per_item() -> float:
    """The smoothed wire bytes per shipped item (default: a small tuple)."""
    with _REMOTE_LOCK:
        return (
            DEFAULT_REMOTE_BYTES_PER_ITEM
            if _remote_bytes_per_item is None
            else _remote_bytes_per_item
        )


def remote_cost(profile: WorkloadProfile, workers: int) -> float:
    """Estimated cost of scattering *profile* across *workers* daemons.

    ``batch setup + per-chunk framing + one smoothed round trip +
    serialization per item + the compute divided across workers`` --
    cost units are microseconds, so the measured RTT converts at 1e6.
    Chunk round trips overlap across connections, so latency is paid
    once on the critical path, not once per chunk.
    """
    entities = max(int(profile.entities), 0)
    total = estimate(profile)
    chunks = min(max(int(workers), 1), max(entities, 1))
    rtt_units = observed_remote_rtt() * 1e6
    ship = entities * observed_remote_bytes_per_item() * REMOTE_BYTE_COST
    return (
        REMOTE_BATCH_COST
        + chunks * REMOTE_CHUNK_COST
        + rtt_units
        + ship
        + total / chunks
    )


def remote_worthwhile(size: int, workers: int) -> bool:
    """Should a *size*-item batch leave the process?

    ``True`` when the remote estimate strictly beats the serial one
    under the active :func:`workload` hint -- the same tie-breaking
    rule :func:`decide` uses, so cheap batches never pay the wire.
    """
    if size <= 1 or workers < 1:
        return False
    profile = profile_for(size)
    return remote_cost(profile, workers) < estimate(profile)


def observed_locality_bytes_per_item() -> float:
    """The smoothed wire bytes per key-only shipped item."""
    with _REMOTE_LOCK:
        return (
            DEFAULT_LOCALITY_BYTES_PER_ITEM
            if _locality_bytes_per_item is None
            else _locality_bytes_per_item
        )


def locality_cost(
    profile: WorkloadProfile, workers: int, pending_items: int = 0
) -> float:
    """Estimated cost of a key-only scatter to shard-resident workers.

    Same shape as :func:`remote_cost`, but an item ships as its key and
    is point-loaded worker-side, and *pending_items* -- rows the shard
    sync must still push before the batch can run keyed -- are charged
    at the tuple-shipping byte rate (syncing them IS shipping them,
    just once instead of per batch).
    """
    entities = max(int(profile.entities), 0)
    total = estimate(profile)
    chunks = min(max(int(workers), 1), max(entities, 1))
    rtt_units = observed_remote_rtt() * 1e6
    ship = entities * (
        observed_locality_bytes_per_item() * REMOTE_BYTE_COST
        + LOCALITY_LOAD_COST
    )
    sync = (
        max(int(pending_items), 0)
        * observed_remote_bytes_per_item()
        * REMOTE_BYTE_COST
    )
    return (
        REMOTE_BATCH_COST
        + chunks * REMOTE_CHUNK_COST
        + rtt_units
        + ship
        + sync
        + total / chunks
    )


def locality_worthwhile(
    size: int, workers: int, pending_items: int = 0
) -> bool:
    """Should a *size*-item batch ship keys instead of tuples?

    ``True`` when the keyed estimate strictly beats both the
    tuple-shipping remote estimate and the serial one -- locality must
    win outright, otherwise the coordinator takes the already-proven
    path.
    """
    if size <= 1 or workers < 1:
        return False
    profile = profile_for(size)
    keyed = locality_cost(profile, workers, pending_items)
    return keyed < remote_cost(profile, workers) and keyed < estimate(profile)


# -- observed inputs and per-thread hints -------------------------------------

_LOCAL = threading.local()

#: Decision counters, one per executor kind the model can pick.
_DECISION_COUNTERS = {
    kind: _metrics_registry().counter(
        f"exec.auto.{kind}_decisions",
        f"auto-mode batches routed to the {kind} path",
    )
    for kind in ("serial", "process")
}


def observed_kernel_fraction() -> float:
    """The kernel-path share of all combinations observed so far.

    Reads the process-wide kernel telemetry
    (:data:`repro.ds.kernel.STATS`, surfaced as the
    ``kernel.kernel_combinations`` / ``kernel.fallback_combinations``
    registry counters); defaults to 1.0 until enough signal accrues.
    """
    snapshot = _KERNEL_STATS.snapshot()
    total = snapshot.kernel_combinations + snapshot.fallback_combinations
    if total < MIN_OBSERVED_COMBINATIONS:
        return 1.0
    return snapshot.kernel_combinations / total


@contextmanager
def workload(
    entities: int | None = None,
    sources: float | None = None,
    focal: float | None = None,
    kernel_fraction: float | None = None,
):
    """Scope a workload hint for the cost model (thread-local, nestable).

    Call sites that know their workload's shape (the stream engine
    samples its dirty entities; the federation knows its source count)
    wrap their fan-out in this context so
    :func:`repro.exec.executors.partition_count` and the adaptive
    executor price the *actual* work rather than the defaults.  ``None``
    fields inherit from the enclosing hint (or the defaults).
    """
    previous = getattr(_LOCAL, "hint", None)
    merged = dict(previous or {})
    for name, value in (
        ("entities", entities),
        ("sources", sources),
        ("focal", focal),
        ("kernel_fraction", kernel_fraction),
    ):
        if value is not None:
            merged[name] = float(value)
    _LOCAL.hint = merged
    try:
        yield
    finally:
        _LOCAL.hint = previous


def profile_for(size: int) -> WorkloadProfile:
    """The effective profile for a workload of *size* entities.

    Merges the active :func:`workload` hint with the observed kernel
    fraction; *size* always wins over a hinted entity count (the call
    site's batch is what actually runs).
    """
    hint = getattr(_LOCAL, "hint", None) or {}
    return WorkloadProfile(
        entities=max(int(size), 0),
        sources=hint.get("sources", DEFAULT_SOURCES),
        focal=hint.get("focal", DEFAULT_FOCAL),
        kernel_fraction=hint.get(
            "kernel_fraction", observed_kernel_fraction()
        ),
    )


def decide_for(size: int, workers: int) -> Decision:
    """Decide routing for a *size*-entity workload under the active hint."""
    decision = decide(profile_for(size), workers)
    _DECISION_COUNTERS[decision.kind].inc()
    return decision


def remember(decision: Decision) -> None:
    """Stash *decision* for the adaptive executor's next batch.

    ``partition_count`` decides; the ``map``/``map_encoded`` that
    follows on the same thread consumes the decision, so the partition
    count and the executor kind always come from the same pricing.
    """
    _LOCAL.last = decision


def consume() -> Decision | None:
    """Pop the remembered decision (``None`` when there is none)."""
    decision = getattr(_LOCAL, "last", None)
    _LOCAL.last = None
    return decision
