"""Remote scatter/gather: federation integrate over a loopback cluster.

The claim the remote executor exists for: with real cores behind the
daemons, scattering encoded partition batches over sockets beats the
serial loop while producing the identical relation.  This bench
integrates a >= 2k-entity, 3-source federation serially and against
1/2/4-worker local clusters, asserts every remote result equals the
serial relation exactly (tuples *and* order), and -- on a machine with
at least 4 cores -- requires >= 2x at 4 workers
(``REMOTE_BENCH_RATIO_FLOOR`` relaxes the bar on noisy shared runners;
smaller boxes run the equivalence checks and record the timings).

The shard-locality claim rides along: against workers owning shard
stores, a *repeated* integration must ship measurably fewer wire bytes
as entity keys than as encoded tuples, with both modes bit-for-bit
equal to serial.

Float masses, as in ``bench_parallel_integration``: exact fractions
would measure bigint growth rather than the execution layer.
"""

import os
import time

import pytest

from repro.datasets.generators import SyntheticConfig, synthetic_relation
from repro.exec import executor_scope
from repro.integration import Federation, TupleMerger
from repro.obs import registry

#: Entities per source (3 sources -> 3x this many stored tuples).
N_ENTITIES = int(os.environ.get("REMOTE_BENCH_ENTITIES", "2000"))
N_SOURCES = 3
CLUSTER_SIZES = (1, 2, 4)
#: Required federation speedup at 4 remote workers on a 4+-core box.
RATIO_FLOOR = float(os.environ.get("REMOTE_BENCH_RATIO_FLOOR", "2"))


def _timed(operation, repeats: int = 3):
    best = None
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = operation()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


@pytest.fixture(scope="module")
def federation():
    federation = Federation(TupleMerger(on_conflict="vacuous"))
    for index in range(N_SOURCES):
        config = SyntheticConfig(
            n_tuples=N_ENTITIES,
            conflict=0.4,
            ignorance=1.0,
            exact=False,
            seed=71 + index,
        )
        name = f"s{index}"
        federation.add_source(name, synthetic_relation(config, name))
    return federation


@pytest.fixture(scope="module")
def serial_result(federation):
    with executor_scope(executor="serial", workers=1, partitions=None):
        elapsed, (relation, _) = _timed(lambda: federation.integrate(name="F"))
    return elapsed, relation


def _remote_scope(addr_spec: str, workers: int, locality: str | None = None):
    saved = {
        key: os.environ.get(key)
        for key in ("REPRO_WORKERS_ADDRS", "REPRO_REMOTE_LOCALITY")
    }

    class _Scope:
        def __enter__(self):
            os.environ["REPRO_WORKERS_ADDRS"] = addr_spec
            if locality is None:
                os.environ.pop("REPRO_REMOTE_LOCALITY", None)
            else:
                os.environ["REPRO_REMOTE_LOCALITY"] = locality
            self._exec = executor_scope(
                executor="remote", workers=workers, partitions=workers * 2
            )
            self._exec.__enter__()
            return self

        def __exit__(self, *exc_info):
            self._exec.__exit__(*exc_info)
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value

    return _Scope()


def test_remote_scaling_is_exact_and_recorded(
    federation, serial_result, bench_record
):
    """Integrate against 1/2/4-worker clusters; record, require equality."""
    from repro.exec.remote import spawn_local_cluster

    serial_elapsed, serial_relation = serial_result
    print(f"\nfederation integrate, serial: {serial_elapsed * 1e3:.1f} ms")
    bench_record("remote_integrate_serial_seconds", serial_elapsed)
    for size in CLUSTER_SIZES:
        with spawn_local_cluster(size) as cluster:
            with _remote_scope(cluster.addr_spec, size):
                batches_before = registry().collect()["exec.remote.batches"]
                elapsed, (relation, _) = _timed(
                    lambda: federation.integrate(name="F")
                )
                batches = (
                    registry().collect()["exec.remote.batches"]
                    - batches_before
                )
        ratio = serial_elapsed / elapsed
        print(
            f"federation integrate, {size}-worker cluster: "
            f"{elapsed * 1e3:.1f} ms ({ratio:.2f}x vs serial, "
            f"{batches} remote batch(es))"
        )
        bench_record(f"remote_integrate_{size}_workers_seconds", elapsed)
        bench_record(f"remote_integrate_{size}_workers_speedup", ratio)
        assert batches >= 1, "the batch must actually cross the wire"
        assert relation == serial_relation
        assert list(relation.keys()) == list(serial_relation.keys())


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup floor only meaningful with >= 4 cores",
)
def test_remote_4_workers_beats_serial(federation, serial_result):
    """The acceptance bar: >= 2x at a 4-worker cluster on a 4+-core box."""
    from repro.exec.remote import spawn_local_cluster

    serial_elapsed, serial_relation = serial_result
    with spawn_local_cluster(4) as cluster:
        with _remote_scope(cluster.addr_spec, 4):
            elapsed, (relation, _) = _timed(
                lambda: federation.integrate(name="F")
            )
    ratio = serial_elapsed / elapsed
    print(f"\n4-worker cluster: {ratio:.2f}x vs serial (floor {RATIO_FLOOR}x)")
    assert relation == serial_relation
    assert ratio >= RATIO_FLOOR


def test_keyed_scatter_ships_fewer_bytes_than_tuples(
    federation, serial_result, bench_record, tmp_path
):
    """Shard-resident workers: repeated integrations ship keys, not rows.

    Runs the same federation twice per mode against a 4-worker cluster
    whose daemons own shard stores: once with locality off (tuple
    shipping) and once on (the default).  The first keyed run
    pays the shard sync; the *second* -- the repeated-integration case
    the locality layer exists for -- must put measurably fewer bytes on
    the wire than tuple shipping does, while both modes stay bit-for-bit
    equal to the serial fold.
    """
    from repro.exec.remote import spawn_local_cluster

    _, serial_relation = serial_result
    wire_bytes = {}
    for mode, label in (("0", "tuple"), (None, "keyed")):
        store_dir = tmp_path / label
        store_dir.mkdir()
        with spawn_local_cluster(4, store_dir=store_dir) as cluster:
            with _remote_scope(cluster.addr_spec, 4, locality=mode):
                relation, _ = federation.integrate(name="F")
                assert relation == serial_relation
                sent_before = registry().collect()["exec.remote.bytes_sent"]
                hits_before = registry().collect()[
                    "exec.remote.locality_hits"
                ]
                relation, _ = federation.integrate(name="F")
                collected = registry().collect()
                sent = collected["exec.remote.bytes_sent"] - sent_before
                hits = collected["exec.remote.locality_hits"] - hits_before
        assert relation == serial_relation
        assert list(relation.keys()) == list(serial_relation.keys())
        if label == "keyed":
            assert hits >= 1, "the repeated run must hit the shard stores"
        wire_bytes[label] = sent
        bench_record(f"remote_{label}_repeat_bytes_sent", sent)
    print(
        f"\nrepeated integrate, bytes sent: tuple {wire_bytes['tuple']}, "
        f"keyed {wire_bytes['keyed']}"
    )
    assert wire_bytes["keyed"] < wire_bytes["tuple"], (
        f"key-only scatter must ship fewer bytes than tuple shipping at "
        f"{N_ENTITIES} entities per source: keyed {wire_bytes['keyed']} "
        f">= tuple {wire_bytes['tuple']}"
    )

