"""The :class:`RemoteExecutor` against a real loopback cluster.

Order exactness, remote placement (pids), wire telemetry, shipping
every batch it is given, graceful local fallbacks, configuration
errors, and shutdown idempotence.  Fault injection (worker death,
dropped connections, truncated frames) lives in
``test_remote_faults.py``.
"""

from __future__ import annotations

import os

import pytest

from repro.datasets.generators import SyntheticConfig, synthetic_relation
from repro.errors import ConfigError
from repro.exec import configure, executor_scope, get_executor
from repro.exec.executors import EXECUTOR_KINDS, _shutdown_at_exit
from repro.exec.remote import RemoteExecutor
from repro.exec.remote.worker import parse_address
from repro.integration import Federation, TupleMerger
from repro.obs.registry import registry


def _metric(name: str) -> int:
    return registry().collect()[name]


def _tag_pid(common, item):
    """Encoded-path task: carry the executing pid home with the result."""
    return (os.getpid(), item * common)


def _double(item):
    return item * 2


# -- scatter/gather correctness -----------------------------------------------


def test_map_encoded_exact_order_on_remote_pids(remote_cluster, remote_env):
    with remote_env(remote_cluster.addr_spec):
        executor = RemoteExecutor()
        try:
            results = executor.map_encoded(_tag_pid, 3, list(range(50)))
        finally:
            executor.close()
    assert [value for _pid, value in results] == [i * 3 for i in range(50)]
    pids = {pid for pid, _value in results}
    assert os.getpid() not in pids, "work must leave this process"
    assert len(pids) == 2, "both workers should take a chunk"


def test_map_ships_module_level_tasks(remote_cluster, remote_env):
    with remote_env(remote_cluster.addr_spec):
        executor = RemoteExecutor()
        try:
            before = _metric("exec.remote.batches")
            assert executor.map(_double, range(20)) == [
                i * 2 for i in range(20)
            ]
            assert _metric("exec.remote.batches") == before + 1
        finally:
            executor.close()


def test_wire_telemetry_counts_bytes_and_tasks(remote_cluster, remote_env):
    with remote_env(remote_cluster.addr_spec):
        executor = RemoteExecutor()
        try:
            sent = _metric("exec.remote.bytes_sent")
            received = _metric("exec.remote.bytes_received")
            tasks = _metric("exec.remote.tasks")
            executor.map_encoded(_tag_pid, 2, list(range(32)))
        finally:
            executor.close()
    assert _metric("exec.remote.bytes_sent") > sent
    assert _metric("exec.remote.bytes_received") > received
    assert _metric("exec.remote.tasks") == tasks + 32


def test_task_error_propagates_without_retry(remote_cluster, remote_env):
    before_retries = _metric("exec.remote.retries")
    with remote_env(remote_cluster.addr_spec):
        executor = RemoteExecutor()
        try:
            with pytest.raises(ZeroDivisionError):
                executor.map_encoded(_divide_common, 0, [1, 2, 3, 4])
        finally:
            executor.close()
    assert _metric("exec.remote.retries") == before_retries


def _divide_common(common, item):
    return item / common


# -- every batch ships --------------------------------------------------------


def test_partitioned_integrate_ships_one_batch(remote_cluster, remote_env):
    """No gate keeps a multi-partition batch local: it crosses the wire."""
    federation = Federation(TupleMerger(on_conflict="vacuous"))
    for index in range(3):
        name = f"s{index}"
        config = SyntheticConfig(
            n_tuples=60,
            conflict=0.4,
            ignorance=1.0,
            exact=False,
            seed=40 + index,
        )
        federation.add_source(name, synthetic_relation(config, name))
    with executor_scope(executor="serial", workers=1, partitions=None):
        expected, _ = federation.integrate(name="F")
    with remote_env(remote_cluster.addr_spec):
        with executor_scope(executor="remote", workers=2, partitions=4):
            batches = _metric("exec.remote.batches")
            relation, _ = federation.integrate(name="F")
            assert _metric("exec.remote.batches") == batches + 1
    assert relation == expected
    assert list(relation.keys()) == list(expected.keys())


# -- staying local when remote cannot help ------------------------------------


def test_closures_fall_back_locally(remote_cluster, remote_env):
    factor = 7
    with remote_env(remote_cluster.addr_spec):
        executor = RemoteExecutor()
        try:
            fallbacks = _metric("exec.remote.fallbacks")
            assert executor.map(lambda item: item * factor, range(10)) == [
                i * 7 for i in range(10)
            ]
        finally:
            executor.close()
    assert _metric("exec.remote.fallbacks") == fallbacks + 1


def test_no_addresses_degrades_to_local(remote_env):
    with remote_env(""):
        executor = RemoteExecutor()
        try:
            assert executor.map(_double, range(12)) == [
                i * 2 for i in range(12)
            ]
        finally:
            executor.close()


# -- configuration ------------------------------------------------------------


def test_configure_rejects_unknown_kind_naming_valid_ones():
    with pytest.raises(ConfigError) as excinfo:
        configure(executor="distributed")
    message = str(excinfo.value)
    for kind in EXECUTOR_KINDS:
        assert kind in message
    # the process-global configuration must be untouched by the failure
    assert get_executor().kind in EXECUTOR_KINDS


def test_remote_is_a_first_class_kind(remote_cluster, remote_env):
    assert "remote" in EXECUTOR_KINDS
    with remote_env(remote_cluster.addr_spec):
        with executor_scope(executor="remote", workers=2):
            executor = get_executor()
            assert executor.kind == "remote"
            assert executor.map(_double, range(8)) == [
                i * 2 for i in range(8)
            ]


def test_parse_address_accepts_both_shapes():
    import socket as socket_module

    family, address = parse_address("127.0.0.1:9000")
    assert family == socket_module.AF_INET
    assert address == ("127.0.0.1", 9000)
    family, address = parse_address("unix:/tmp/worker.sock")
    assert family == socket_module.AF_UNIX
    assert address == "/tmp/worker.sock"


@pytest.mark.parametrize("spec", ["", "no-port", "host:notaport", "unix:"])
def test_parse_address_rejects_garbage(spec):
    with pytest.raises(ConfigError):
        parse_address(spec)


# -- shutdown -----------------------------------------------------------------


def test_close_is_idempotent(remote_cluster, remote_env):
    with remote_env(remote_cluster.addr_spec):
        executor = RemoteExecutor()
        executor.map_encoded(_tag_pid, 1, list(range(8)))
        executor.close()
        executor.close()  # second close: nothing left, nothing raised
        # and the executor still works -- it reconnects transparently
        results = executor.map_encoded(_tag_pid, 1, list(range(8)))
        assert [value for _pid, value in results] == list(range(8))
        executor.close()


def test_atexit_hook_is_registered_and_reentrant():
    # the interpreter-exit hook must tolerate being called repeatedly
    # and alongside explicit close() calls
    _shutdown_at_exit()
    _shutdown_at_exit()
    assert get_executor().kind in EXECUTOR_KINDS
