"""Partitioned physical execution: federation + stream flush scaling.

The claim the partitioned layer exists for: the paper's integration
semantics decompose per entity, so with enough cores the Dempster-merge
work of ``Federation.integrate`` and ``StreamEngine.flush`` scales with
the worker count.  This bench measures both hot paths at 1/2/4/8
process workers against the serial baseline, asserts every parallel
result equals the serial relation exactly (tuples *and* order), and --
on a machine with at least 4 cores -- requires >= 2x on federation
integrate at 4 process workers (``PARALLEL_BENCH_RATIO_FLOOR`` relaxes
the bar on noisy shared runners; single- and dual-core boxes only run
the equivalence checks and record the timings).

Float masses, as in ``bench_stream_ingest``: repeated exact-fraction
combination grows denominators without bound, which would measure
bigint arithmetic rather than the execution layer.
"""

import os
import time

import pytest

from repro.datasets.generators import SyntheticConfig, synthetic_relation
from repro.exec import executor_scope
from repro.integration import Federation, TupleMerger
from repro.stream import StreamEngine

#: Entities per source (3 sources -> 3x this many stored tuples).
N_ENTITIES = int(os.environ.get("PARALLEL_BENCH_ENTITIES", "1200"))
N_SOURCES = 3
WORKER_COUNTS = (1, 2, 4, 8)
#: Required federation speedup at 4 process workers on a 4+-core box.
RATIO_FLOOR = float(os.environ.get("PARALLEL_BENCH_RATIO_FLOOR", "2"))
#: Upserts re-asserted per measured flush in the stream scaling runs.
DELTA = 64


def _sources():
    relations = {}
    for index in range(N_SOURCES):
        config = SyntheticConfig(
            n_tuples=N_ENTITIES,
            conflict=0.4,
            ignorance=1.0,
            exact=False,
            seed=23 + index,
        )
        name = f"s{index}"
        relations[name] = synthetic_relation(config, name)
    return relations


@pytest.fixture(scope="module")
def federation():
    relations = _sources()
    federation = Federation(TupleMerger(on_conflict="vacuous"))
    for name, relation in relations.items():
        federation.add_source(name, relation)
    return federation


@pytest.fixture(scope="module")
def serial_result(federation):
    with executor_scope(executor="serial", workers=1, partitions=None):
        elapsed, (relation, _) = _timed(lambda: federation.integrate(name="F"))
    return elapsed, relation


def _timed(operation, repeats: int = 3):
    best = None
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = operation()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _loaded_engine(relations):
    engine = StreamEngine(
        list(relations.values())[0].schema,
        name="F",
        merger=TupleMerger(on_conflict="vacuous"),
    )
    for name, relation in relations.items():
        for etuple in relation:
            engine.upsert(name, etuple)
    engine.flush()
    return engine


def test_federation_scaling_is_exact_and_recorded(
    federation, serial_result, bench_record
):
    """Integrate at every worker count; record timings, require equality."""
    serial_elapsed, serial_relation = serial_result
    print(f"\nfederation integrate, serial: {serial_elapsed * 1e3:.1f} ms")
    bench_record("integrate_serial_seconds", serial_elapsed)
    for workers in WORKER_COUNTS:
        with executor_scope(executor="process", workers=workers):
            elapsed, (relation, _) = _timed(
                lambda: federation.integrate(name="F")
            )
        ratio = serial_elapsed / elapsed
        print(
            f"federation integrate, {workers} process worker(s): "
            f"{elapsed * 1e3:.1f} ms ({ratio:.2f}x vs serial)"
        )
        bench_record(f"integrate_{workers}_workers_seconds", elapsed)
        bench_record(f"integrate_{workers}_workers_speedup", ratio)
        assert relation == serial_relation
        assert list(relation.keys()) == list(serial_relation.keys())


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup floor only meaningful with >= 4 cores",
)
def test_federation_4_workers_beats_serial(federation, serial_result):
    """The acceptance bar: >= 2x at 4 process workers on a 4+-core box."""
    serial_elapsed, serial_relation = serial_result
    with executor_scope(executor="process", workers=4):
        elapsed, (relation, _) = _timed(lambda: federation.integrate(name="F"))
    ratio = serial_elapsed / elapsed
    print(f"\n4 process workers: {ratio:.2f}x vs serial (floor {RATIO_FLOOR}x)")
    assert relation == serial_relation
    assert ratio >= RATIO_FLOOR


def test_stream_flush_scaling_is_exact_and_recorded():
    """Flush a dirty micro-batch at every worker count; require equality."""
    relations = _sources()
    delta = tuple(_sources()["s0"])[:DELTA]

    def run(scope_kwargs):
        with executor_scope(**scope_kwargs):
            engine = _loaded_engine(relations)

            def measured():
                for etuple in delta:
                    engine.upsert("s0", etuple)
                return engine.flush()

            elapsed, _ = _timed(measured)
        return elapsed, engine.relation

    serial_elapsed, serial_relation = run(
        dict(executor="serial", workers=1, partitions=None)
    )
    print(
        f"\nstream flush ({DELTA} dirty upserts), serial: "
        f"{serial_elapsed * 1e3:.1f} ms"
    )
    for workers in WORKER_COUNTS:
        elapsed, relation = run(dict(executor="process", workers=workers))
        print(
            f"stream flush, {workers} process worker(s): "
            f"{elapsed * 1e3:.1f} ms "
            f"({serial_elapsed / elapsed:.2f}x vs serial)"
        )
        assert relation == serial_relation
        assert list(relation.keys()) == list(serial_relation.keys())
