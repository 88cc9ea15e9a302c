"""Shared fixtures for the executor suites: loopback worker clusters.

The remote tests need real daemons on real sockets.  The cluster
fixture is session-scoped so hypothesis ``@given`` tests may use it
(function-scoped fixtures are rejected there), and because forking a
daemon per test would dominate the suite's runtime.  Fault-injection
tests that kill workers spawn their own throwaway clusters instead.
"""

from __future__ import annotations

import contextlib
import os

import pytest


@contextlib.contextmanager
def _remote_env(addr_spec: str):
    """Point ``REPRO_WORKERS_ADDRS`` at *addr_spec* for the duration."""
    saved = os.environ.get("REPRO_WORKERS_ADDRS")
    os.environ["REPRO_WORKERS_ADDRS"] = addr_spec
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_WORKERS_ADDRS", None)
        else:
            os.environ["REPRO_WORKERS_ADDRS"] = saved


@pytest.fixture(scope="session")
def remote_env():
    """The :func:`_remote_env` context manager, as a fixture."""
    return _remote_env


@pytest.fixture(scope="session")
def remote_cluster():
    """Two loopback worker daemons shared by the whole session."""
    from repro.exec.remote import spawn_local_cluster

    cluster = spawn_local_cluster(2)
    try:
        yield cluster
    finally:
        cluster.stop()
