"""The adaptive runtime: warm-pool dispatch, dirty shards, auto routing.

Three measurements from the adaptive-runtime work:

* **Warm pool**: the steady-state dispatch time of a small encoded
  batch (64 items) to the persistent warm worker pool is recorded, and
  its results must be exact.
* **O(delta) persistence**: a one-entity stream flush against the
  SQLite backend writes a small fraction of the full-relation payload
  (``storage.sqlite.bytes_written`` scales with the *changed* hash
  shards, not the relation size).
* **Auto routing**: ``REPRO_EXECUTOR=auto`` integrates a heavy
  federation workload bit-for-bit identically to serial; the speedup it
  buys is recorded.

Headline numbers land in ``BENCH_RESULTS.json`` via ``bench_record``.
"""

import multiprocessing
import os
import time

import pytest

from repro.datasets.generators import SyntheticConfig, synthetic_relation
from repro.exec import executor_scope
from repro.exec.executors import ProcessExecutor
from repro.integration import Federation, TupleMerger
from repro.model.relation import partition_index
from repro.obs import registry
from repro.storage import open_backend
from repro.storage.backends.sqlite import STREAM_SHARDS
from repro.stream import StreamEngine

#: Items per encoded batch -- deliberately small: the regime where
#: dispatch overhead, not the tasks, sets the time.
BATCH_ITEMS = 64
#: Stream relation size for the dirty-shard byte measurements.
N_STREAM_ENTITIES = int(os.environ.get("ADAPTIVE_BENCH_ENTITIES", "512"))


def _has_fork() -> bool:
    try:
        multiprocessing.get_context("fork")
    except (ImportError, ValueError):
        return False
    return True


def _timed(operation, repeats: int = 3):
    best = None
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = operation()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _mix(common, item):
    """A tiny picklable task: timing is dominated by dispatch."""
    total = common
    for value in range(64):
        total = (total * 31 + value * item) % 1_000_003
    return total


@pytest.mark.skipif(not _has_fork(), reason="requires the fork start method")
def test_warm_pool_dispatch(bench_record):
    items = list(range(BATCH_ITEMS))
    expected = [_mix(7, item) for item in items]
    warm = ProcessExecutor(workers=2)
    # Pay the one-time fork before measuring: steady-state dispatch is
    # the quantity the stream engine sees on every flush.
    assert warm.map_encoded(_mix, 7, items) == expected
    warm_elapsed, warm_result = _timed(
        lambda: warm.map_encoded(_mix, 7, items), repeats=5
    )
    assert warm_result == expected
    print(f"\nencoded batch of {BATCH_ITEMS}: warm {warm_elapsed * 1e3:.2f} ms")
    bench_record("warm_dispatch_seconds", warm_elapsed)


def test_dirty_shard_flush_bytes_scale_with_the_delta(
    tmp_path, bench_record
):
    config = SyntheticConfig(
        n_tuples=N_STREAM_ENTITIES,
        conflict=0.3,
        ignorance=1.0,
        exact=False,
        seed=41,
    )
    relation = synthetic_relation(config, "s0")
    etuples = list(relation)
    bytes_written = registry().counter("storage.sqlite.bytes_written")
    with open_backend(f"sqlite:{tmp_path / 'stream.sqlite'}") as backend:
        engine = StreamEngine(
            relation.schema,
            name="s0",
            backend=backend,
            merger=TupleMerger(on_conflict="vacuous"),
        )
        for etuple in etuples:
            engine.upsert("a", etuple)
        before = bytes_written.value
        engine.flush()
        full = bytes_written.value - before
        # Re-assert one entity with a second source: one dirty shard.
        engine.upsert("b", etuples[0])
        before = bytes_written.value
        engine.flush()
        delta = bytes_written.value - before
        loaded = backend.load_relation("s0")
        assert loaded == engine.relation
        assert list(loaded.keys()) == list(engine.relation.keys())
    shard_fraction = len(
        [e for e in etuples if partition_index(e.key(), STREAM_SHARDS) == 0]
    ) / len(etuples)
    print(
        f"\nflush payload: full {full:,} B, one-entity delta {delta:,} B "
        f"({delta / full:.1%} of full; one shard holds ~{shard_fraction:.1%})"
    )
    bench_record("full_flush_bytes", full)
    bench_record("dirty_flush_bytes", delta)
    bench_record("dirty_vs_full_fraction", delta / full)
    # One changed entity dirties one of the 16 shards: the write must be
    # a small fraction of the relation payload, not O(relation).
    assert 0 < delta < full / 4


def test_auto_matches_serial_and_records_the_speedup(bench_record):
    federation = Federation(TupleMerger(on_conflict="vacuous"))
    for index in range(3):
        config = SyntheticConfig(
            n_tuples=800,
            conflict=0.4,
            ignorance=1.0,
            exact=False,
            seed=61 + index,
        )
        name = f"s{index}"
        federation.add_source(name, synthetic_relation(config, name))
    with executor_scope(executor="serial", workers=1, partitions=None):
        serial_elapsed, (serial_relation, _) = _timed(
            lambda: federation.integrate(name="F")
        )
    with executor_scope(executor="auto", workers=os.cpu_count() or 1):
        auto_elapsed, (auto_relation, _) = _timed(
            lambda: federation.integrate(name="F")
        )
    ratio = serial_elapsed / auto_elapsed
    print(
        f"\nfederation integrate: serial {serial_elapsed * 1e3:.1f} ms, "
        f"auto {auto_elapsed * 1e3:.1f} ms ({ratio:.2f}x)"
    )
    bench_record("integrate_serial_seconds", serial_elapsed)
    bench_record("integrate_auto_seconds", auto_elapsed)
    bench_record("auto_vs_serial_speedup", ratio)
    # The hard contract is exactness; the speedup is recorded evidence.
    assert auto_relation == serial_relation
    assert list(auto_relation.keys()) == list(serial_relation.keys())
