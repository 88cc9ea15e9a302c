"""Shard-resident workers: keys cross the wire, results never change.

The locality layer (``repro worker serve --store``) is pure transport
optimization: whether a chunk ships as entity keys, as encoded tuples,
or runs locally after a fault, the result must be **bit-for-bit** the
serial one -- same tuples, same order, exact masses.  These tests drive
every transition of the fallback ladder:

* the happy path: repeated integrations hit the shard stores
  (``exec.remote.locality_hits``) and send fewer wire bytes than tuple
  shipping;
* a worker killed mid-key-batch: the chunk retries on a synced
  survivor, results stay exact;
* a stale shard epoch (the store mutated out-of-band): the worker
  answers ``SHARD_STALE``, the chunk re-ships as tuples
  (``exec.remote.locality_misses``);
* a cluster where some worker owns no store, an unpublished relation,
  and ``REPRO_REMOTE_LOCALITY=0``: the whole batch quietly uses PR 9's
  tuple shipping.

Equivalence is property-tested over synthetic federations of varied
shape, against a module-scoped sharded cluster.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import threading
import time

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.generators import SyntheticConfig, synthetic_relation
from repro.exec import executor_scope
from repro.exec.remote import RemoteExecutor, spawn_local_cluster
from repro.integration import Federation, TupleMerger
from repro.model.relation import ExtendedRelation
from repro.obs.registry import registry


def _metric(name: str) -> int:
    return registry().collect()[name]


def _identical(actual: ExtendedRelation, expected: ExtendedRelation) -> bool:
    """Tuple-exact and order-exact equality (== ignores tuple order)."""
    return actual == expected and list(actual.keys()) == list(expected.keys())


@contextlib.contextmanager
def _locality(mode: str | None):
    saved = os.environ.get("REPRO_REMOTE_LOCALITY")
    if mode is None:
        os.environ.pop("REPRO_REMOTE_LOCALITY", None)
    else:
        os.environ["REPRO_REMOTE_LOCALITY"] = mode
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_REMOTE_LOCALITY", None)
        else:
            os.environ["REPRO_REMOTE_LOCALITY"] = saved


@pytest.fixture(scope="module")
def sharded_cluster():
    """Two loopback daemons, each owning a SQLite shard store."""
    with tempfile.TemporaryDirectory(prefix="repro-shards-") as store_dir:
        cluster = spawn_local_cluster(2, store_dir=store_dir)
        try:
            yield cluster
        finally:
            cluster.stop()


def _federation(n_tuples: int, conflict: float, seed: int) -> Federation:
    federation = Federation(TupleMerger(on_conflict="vacuous"))
    for index in range(3):
        config = SyntheticConfig(
            n_tuples=n_tuples,
            conflict=conflict,
            ignorance=1.0,
            exact=False,
            seed=seed + index,
        )
        name = f"s{index}"
        federation.add_source(name, synthetic_relation(config, name))
    return federation


def _serial(federation: Federation) -> ExtendedRelation:
    with executor_scope(executor="serial", workers=1, partitions=None):
        relation, _ = federation.integrate(name="F")
    return relation


# -- the keyed task used by the direct executor tests -------------------------


def _keys_of(common, item):
    """Each item is a 1-tuple holding one shard relation."""
    time.sleep(common)
    (relation,) = item
    return list(relation.keys())


def _keyed_batch(n_tuples: int = 48, partitions: int = 6):
    """A published relation, its partitions, and the matching key specs."""
    config = SyntheticConfig(
        n_tuples=n_tuples, conflict=0.3, ignorance=0.5, exact=False, seed=9
    )
    relation = synthetic_relation(config, "R")
    parts = relation.partitions(partitions)
    specs = [(("R", tuple(part.keys())),) for part in parts]
    items = [(part,) for part in parts]
    expected = [list(part.keys()) for part in parts]
    return relation, specs, items, expected


# -- equivalence --------------------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(
    n_tuples=st.integers(min_value=0, max_value=40),
    conflict=st.sampled_from((0.0, 0.4, 1.0)),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_keyed_integration_equals_serial(
    sharded_cluster, remote_env, n_tuples, conflict, seed
):
    """Property: key-only scatter reproduces the serial fold exactly."""
    federation = _federation(n_tuples, conflict, seed)
    expected = _serial(federation)
    with remote_env(sharded_cluster.addr_spec):
        with _locality(None):
            with executor_scope(executor="remote", workers=2, partitions=4):
                relation, _ = federation.integrate(name="F")
    assert _identical(relation, expected)


def test_repeated_integration_hits_shards_and_saves_bytes(
    sharded_cluster, remote_env
):
    """The point of the layer: a repeat run ships keys, not tuples."""
    federation = _federation(150, 0.4, 71)
    expected = _serial(federation)
    with remote_env(sharded_cluster.addr_spec):
        with executor_scope(executor="remote", workers=2, partitions=4):
            with _locality("0"):
                sent_before = _metric("exec.remote.bytes_sent")
                relation, _ = federation.integrate(name="F")
                tuple_bytes = _metric("exec.remote.bytes_sent") - sent_before
                assert _identical(relation, expected)
            with _locality(None):
                first, _ = federation.integrate(name="F")
                hits_before = _metric("exec.remote.locality_hits")
                sent_before = _metric("exec.remote.bytes_sent")
                second, _ = federation.integrate(name="F")
                keyed_bytes = _metric("exec.remote.bytes_sent") - sent_before
    assert _identical(first, expected)
    assert _identical(second, expected)
    assert _metric("exec.remote.locality_hits") > hits_before
    assert 0 < keyed_bytes < tuple_bytes


# -- fault injection ----------------------------------------------------------


def test_worker_death_mid_key_batch_retries_on_survivor(remote_env):
    relation, specs, items, expected = _keyed_batch()
    with tempfile.TemporaryDirectory(prefix="repro-shards-") as store_dir:
        with spawn_local_cluster(2, store_dir=store_dir) as cluster:
            with remote_env(cluster.addr_spec), _locality(None):
                executor = RemoteExecutor()
                try:
                    executor.publish_relation(relation)
                    # Warm run: connections up, stores synced, so the
                    # kill lands mid-key-batch, not mid-handshake.
                    warm = executor.map_encoded_keyed(
                        _keys_of, 0.0, specs, items
                    )
                    assert warm == expected
                    deaths = _metric("exec.remote.worker_deaths")
                    killer = threading.Timer(
                        0.15, cluster.kill_worker, args=(0,)
                    )
                    killer.start()
                    try:
                        results = executor.map_encoded_keyed(
                            _keys_of, 0.1, specs, items
                        )
                    finally:
                        killer.cancel()
                    assert results == expected
                    assert _metric("exec.remote.worker_deaths") > deaths
                finally:
                    executor.close()


def test_stale_shard_epoch_falls_back_to_tuple_shipping(remote_env):
    relation, specs, items, expected = _keyed_batch()
    with tempfile.TemporaryDirectory(prefix="repro-shards-") as store_dir:
        with spawn_local_cluster(2, store_dir=store_dir) as cluster:
            with remote_env(cluster.addr_spec), _locality(None):
                executor = RemoteExecutor()
                try:
                    executor.publish_relation(relation)
                    warm = executor.map_encoded_keyed(
                        _keys_of, 0.0, specs, items
                    )
                    assert warm == expected
                    # Out-of-band mutation: another writer bumps every
                    # store's catalog version behind the coordinator's
                    # back, so its cached epochs are stale.
                    from repro.storage.backends import open_backend

                    intruder = synthetic_relation(
                        SyntheticConfig(n_tuples=2, seed=3), "Intruder"
                    )
                    for store_url in cluster.stores:
                        backend = open_backend(store_url)
                        try:
                            backend.save_relation(intruder)
                        finally:
                            backend.close()
                    misses = _metric("exec.remote.locality_misses")
                    results = executor.map_encoded_keyed(
                        _keys_of, 0.0, specs, items
                    )
                    assert results == expected
                    assert _metric("exec.remote.locality_misses") > misses
                finally:
                    executor.close()


# -- whole-batch fallbacks ----------------------------------------------------


def test_storeless_worker_forces_tuple_shipping(remote_env):
    """A mixed cluster (one daemon without --store) ships tuples."""
    relation, specs, items, expected = _keyed_batch()
    with tempfile.TemporaryDirectory(prefix="repro-shards-") as store_dir:
        with spawn_local_cluster(1, store_dir=store_dir) as sharded:
            with spawn_local_cluster(1) as plain:
                spec = f"{sharded.addr_spec},{plain.addr_spec}"
                with remote_env(spec), _locality(None):
                    executor = RemoteExecutor()
                    try:
                        executor.publish_relation(relation)
                        hits = _metric("exec.remote.locality_hits")
                        results = executor.map_encoded_keyed(
                            _keys_of, 0.0, specs, items
                        )
                        assert results == expected
                        assert _metric("exec.remote.locality_hits") == hits
                    finally:
                        executor.close()


def test_unpublished_relation_forces_tuple_shipping(
    sharded_cluster, remote_env
):
    """Specs naming a never-published relation cannot go keyed."""
    _relation, specs, items, expected = _keyed_batch()
    with remote_env(sharded_cluster.addr_spec), _locality(None):
        executor = RemoteExecutor()
        try:
            hits = _metric("exec.remote.locality_hits")
            results = executor.map_encoded_keyed(_keys_of, 0.0, specs, items)
            assert results == expected
            assert _metric("exec.remote.locality_hits") == hits
        finally:
            executor.close()


def test_locality_env_off_ships_tuples(sharded_cluster, remote_env):
    relation, specs, items, expected = _keyed_batch()
    with remote_env(sharded_cluster.addr_spec), _locality("0"):
        executor = RemoteExecutor()
        try:
            executor.publish_relation(relation)
            hits = _metric("exec.remote.locality_hits")
            results = executor.map_encoded_keyed(_keys_of, 0.0, specs, items)
            assert results == expected
            assert _metric("exec.remote.locality_hits") == hits
        finally:
            executor.close()
