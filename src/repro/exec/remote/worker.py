"""The worker daemon: serve encoded partition batches over a socket.

A :class:`WorkerServer` listens on a TCP ``host:port`` (or an
``AF_UNIX`` path), accepts any number of coordinator connections, and
answers each one on its own thread:

* ``HELLO`` -> ``HELLO_REPLY`` with the worker's pid, pool size and
  protocol version -- the coordinator's liveness and identity check;
* ``PING`` -> ``PONG`` -- a liveness probe;
* ``BATCH`` -> ``RESULT`` (or ``TASK_ERROR`` when the task itself
  raises): the chunk is decoded with the warm pool's compact encoding,
  executed in request order, and the reply carries the results plus the
  kernel-stats delta the work produced and -- when the coordinator asked
  -- the tracing spans, re-parented on the coordinator side so a
  distributed batch reads as one trace tree.

With a ``--store URL`` the daemon is **shard-resident**: it owns a
local storage backend (typically SQLite) holding its partitions' rows,
kept current by the coordinator's ``SHARD_SYNC`` pushes.  A
``KEY_BATCH`` frame then carries entity keys instead of tuples; the
worker point-loads the named rows from its store (in the
coordinator-sent key order, so the rebuilt shard relations are
bit-for-bit the ones the coordinator would have shipped) and executes
the chunk as usual.  Every ``KEY_BATCH`` asserts the store's
``catalog_version`` (the *epoch*); a mismatch, an unknown relation or
a missing key answers ``SHARD_STALE`` and the coordinator re-ships the
chunk as tuples -- staleness degrades, it never corrupts.

With ``pool_workers > 1`` (and a ``fork``-capable platform) a batch is
fanned out over the worker's own local warm pool
(:mod:`repro.exec.warmpool`), so one daemon can spend a whole
multi-core box; by default the daemon executes inline, one chunk per
connection thread, which is the right shape for the one-daemon-per-core
clusters :func:`spawn_local_cluster` builds.

A malformed or truncated frame closes that connection (the error never
crashes the daemon); the protocol guarantees the coordinator sees the
failure as a transport error and re-scatters elsewhere.

``repro worker serve HOST:PORT`` wraps this in a CLI;
``repro worker run -n N -- CMD`` spawns a loopback cluster and runs a
command against it (how ``make test-remote`` drives the tier-1 suite).
"""

from __future__ import annotations

import os
import pickle
import socket
import threading

from repro.ds.kernel import STATS as KERNEL_STATS
from repro.errors import ConfigError, ProtocolError, TaskDecodeError
from repro.exec.remote import protocol
from repro.obs import tracing


def parse_address(spec: str) -> tuple[int, object]:
    """Parse ``host:port`` / ``unix:/path`` into ``(family, address)``.

    Raises :class:`ConfigError` on anything else, naming both accepted
    shapes.
    """
    spec = spec.strip()
    if spec.startswith("unix:"):
        path = spec[len("unix:"):]
        if not path:
            raise ConfigError("unix: worker address needs a socket path")
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover -- non-POSIX
            raise ConfigError("unix: worker addresses need AF_UNIX support")
        return socket.AF_UNIX, path
    host, separator, port = spec.rpartition(":")
    if not separator or not host:
        raise ConfigError(
            f"worker address must be HOST:PORT or unix:/path, got {spec!r}"
        )
    try:
        return socket.AF_INET, (host, int(port))
    except ValueError:
        raise ConfigError(
            f"worker address port must be an integer, got {port!r} "
            f"in {spec!r}"
        ) from None


def format_address(family: int, address) -> str:
    """Render ``(family, address)`` back into the spec syntax."""
    if family == getattr(socket, "AF_UNIX", object()):
        return f"unix:{address}"
    host, port = address
    return f"{host}:{port}"


class _ShardMiss(Exception):
    """Internal: the local store cannot serve a KEY_BATCH exactly."""


def _decode_task(common_blob: bytes):
    """Unpickle the per-batch ``(fn, common)`` pair.

    The task's module may not import here (a test module, a ``__main__``
    script); :class:`TaskDecodeError` ships back so the coordinator runs
    the batch locally instead of raising or retrying.
    """
    try:
        return pickle.loads(common_blob)
    except Exception as exc:  # noqa: BLE001 -- any unpickle failure
        raise TaskDecodeError(
            f"worker pid {os.getpid()} cannot decode the shipped task: "
            f"{exc!r}"
        ) from exc


def _execute_items(fn, common, items: list, pool) -> list:
    """Run decoded items in request order.

    Inline execution runs under the nested-task guard: a worker daemon
    forked from a ``REPRO_EXECUTOR=remote`` process inherits that
    configuration, and without the guard a task that itself reaches a
    partition-aware operation would try to scatter back to the cluster
    it is part of.
    """
    from repro.exec.executors import _inside_task

    if pool is not None and len(items) > 1:
        results = pool.submit_batch(fn, common, items)
        if results is not None:
            return results
    with _inside_task():
        return [fn(common, item) for item in items]


def _execute_chunk(common_blob: bytes, chunk_blob: bytes, pool) -> list:
    """Decode and run one tuple-shipped chunk, preserving item order."""
    fn, common = _decode_task(common_blob)
    try:
        chunk = pickle.loads(chunk_blob)
    except Exception as exc:  # noqa: BLE001 -- see _decode_task
        raise TaskDecodeError(
            f"worker pid {os.getpid()} cannot decode the shipped chunk: "
            f"{exc!r}"
        ) from exc
    return _execute_items(fn, common, chunk, pool)


class WorkerServer:
    """One daemon: a listening socket plus per-connection threads."""

    def __init__(
        self,
        address: str = "127.0.0.1:0",
        pool_workers: int = 1,
        store: str | None = None,
    ):
        if pool_workers < 1:
            raise ConfigError(
                f"pool_workers must be >= 1, got {pool_workers!r}"
            )
        self._family, self._requested = parse_address(address)
        self.pool_workers = int(pool_workers)
        self.store_url = str(store) if store else None
        # SQLite connections are thread-bound, and every coordinator
        # connection is served on its own thread: each serving thread
        # opens its own backend over the same store file.
        self._store_local = threading.local()
        self._listener = None
        self._bound = None
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()

    def _store(self):
        """This serving thread's handle on the shard store (or None)."""
        if self.store_url is None:
            return None
        backend = getattr(self._store_local, "backend", None)
        if backend is None:
            from repro.storage.backends import resolve_backend

            backend = resolve_backend(self.store_url).open()
            self._store_local.backend = backend
        return backend

    @property
    def address(self) -> str:
        """The bound address spec (the real port once started)."""
        if self._bound is None:
            raise ConfigError("worker server is not started")
        return format_address(self._family, self._bound)

    def start(self) -> "WorkerServer":
        """Bind, listen, and start the accept loop on a thread."""
        listener = socket.socket(self._family, socket.SOCK_STREAM)
        if self._family == socket.AF_INET:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(self._requested)
        listener.listen(64)
        self._listener = listener
        self._bound = listener.getsockname()
        accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-worker-accept", daemon=True
        )
        accept_thread.start()
        self._threads.append(accept_thread)
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (for the ``repro worker serve`` CLI)."""
        if self._listener is None:
            self.start()
        self._stop.wait()

    def stop(self) -> None:
        """Stop accepting and close the listener (idempotent)."""
        self._stop.set()
        with self._lock:
            listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:  # pragma: no cover -- close races are benign
                pass
        if self._family == getattr(socket, "AF_UNIX", object()) and self._bound:
            try:
                os.unlink(self._bound)
            except OSError:
                pass

    def __enter__(self) -> "WorkerServer":
        return self.start() if self._listener is None else self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- serving --------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                listener = self._listener
            if listener is None:
                return
            try:
                connection, _peer = listener.accept()
            except OSError:
                return  # listener closed: shutting down
            thread = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="repro-worker-conn",
                daemon=True,
            )
            thread.start()

    def _serve_connection(self, connection) -> None:
        pool = None
        if self.pool_workers > 1:
            from repro.exec import warmpool

            pool = warmpool.get_pool(self.pool_workers)
        try:
            while not self._stop.is_set():
                try:
                    kind, payload, _ = protocol.recv_frame(connection)
                except (ProtocolError, OSError):
                    return  # truncated/garbage frame or peer gone: drop it
                if kind == protocol.FrameKind.HELLO:
                    protocol.send_frame(
                        connection,
                        protocol.FrameKind.HELLO_REPLY,
                        protocol.encode_info(self._hello_info()),
                    )
                elif kind == protocol.FrameKind.PING:
                    protocol.send_frame(
                        connection, protocol.FrameKind.PONG, b""
                    )
                elif kind == protocol.FrameKind.BATCH:
                    self._serve_batch(connection, payload, pool)
                elif kind == protocol.FrameKind.KEY_BATCH:
                    self._serve_key_batch(connection, payload, pool)
                elif kind == protocol.FrameKind.SHARD_SYNC:
                    self._serve_sync(connection, payload)
                elif kind == protocol.FrameKind.SHUTDOWN:
                    self.stop()
                    return
                else:
                    return  # a reply frame from a confused peer: drop it
        finally:
            try:
                connection.close()
            except OSError:  # pragma: no cover -- close races are benign
                pass

    def _hello_info(self) -> dict:
        info = {
            "pid": os.getpid(),
            "pool_workers": self.pool_workers,
            "version": protocol.VERSION,
            "store": self.store_url,
            "store_epoch": None,
        }
        if self.store_url is not None:
            try:
                info["store_epoch"] = self._store().catalog_version()
            except Exception:  # noqa: BLE001 -- an unusable store means no epoch
                info["store"] = None
        return info

    def _serve_batch(self, connection, payload: bytes, pool) -> None:
        try:
            common_blob, chunk_blob, trace = protocol.decode_batch(payload)
        except ProtocolError:
            raise  # malformed batch: let the connection loop drop the peer
        self._run_and_reply(
            connection,
            lambda: _execute_chunk(common_blob, chunk_blob, pool),
            trace,
        )

    def _serve_key_batch(self, connection, payload: bytes, pool) -> None:
        """Serve a key-only chunk from the local shard store.

        Items rebuild from point loads in the coordinator-sent key
        order -- exactly the shard relations the coordinator would have
        pickled -- then execute like any tuple-shipped chunk.  Anything
        the store cannot serve exactly answers ``SHARD_STALE``.
        """
        try:
            common_blob, spec_blob, trace = protocol.decode_batch(payload)
            epoch, specs = protocol.decode_keyspec(spec_blob)
        except ProtocolError:
            raise
        try:
            items = self._materialize_items(epoch, specs)
        except _ShardMiss as miss:
            protocol.send_frame(
                connection,
                protocol.FrameKind.SHARD_STALE,
                protocol.encode_info({"reason": str(miss)}),
            )
            return
        self._run_and_reply(
            connection,
            lambda: _execute_items(*_decode_task(common_blob), items, pool),
            trace,
        )

    def _materialize_items(self, epoch: int, specs: list) -> list:
        """Rebuild each spec's shard-relation row from the local store."""
        from repro.errors import SerializationError
        from repro.model.relation import ExtendedRelation

        store = self._store()
        if store is None:
            raise _ShardMiss("worker has no shard store (--store)")
        current = store.catalog_version()
        if current != epoch:
            raise _ShardMiss(
                f"shard epoch mismatch: coordinator expects {epoch}, "
                f"store is at {current}"
            )
        schemas: dict[str, object] = {}
        items = []
        for spec in specs:
            parts = []
            for name, keys in spec:
                schema = schemas.get(name)
                if schema is None:
                    try:
                        schema = store.load_schema(name)
                    except SerializationError as exc:
                        raise _ShardMiss(str(exc)) from exc
                    schemas[name] = schema
                rows = store.load_rows(name, keys)
                if rows is None:
                    raise _ShardMiss(
                        f"store is missing key(s) of relation {name!r}"
                    )
                # "allow" admits whatever the coordinator's source
                # relation held (its own policy already vetted every
                # row); content is identical either way.
                parts.append(
                    ExtendedRelation(schema, rows, on_unsupported="allow")
                )
            items.append(tuple(parts))
        return items

    def _run_and_reply(self, connection, execute, trace: bool) -> None:
        try:
            baseline = KERNEL_STATS.snapshot()
            if trace:
                with tracing.capture() as spans:
                    with tracing.tracing_scope():
                        results = execute()
            else:
                spans = None
                results = execute()
            delta = KERNEL_STATS.since(baseline)
            reply = protocol.encode_result(
                results,
                (
                    delta.kernel_combinations,
                    delta.fallback_combinations,
                    delta.compilations,
                ),
                list(spans) if spans else None,
            )
        except ProtocolError:
            raise  # malformed frame: let the connection loop drop the peer
        except BaseException as exc:  # noqa: BLE001 -- task errors cross the wire
            protocol.send_frame(
                connection,
                protocol.FrameKind.TASK_ERROR,
                protocol.encode_error(exc),
            )
            return
        protocol.send_frame(connection, protocol.FrameKind.RESULT, reply)

    def _serve_sync(self, connection, payload: bytes) -> None:
        """Apply shard-store sync operations; reply with the new epoch.

        Any application failure -- no store, a store that rejects a
        delta (legacy un-keyed rows), a broken disk -- answers with an
        ``error`` string instead of crashing the connection: the
        coordinator retries with full snapshots or gives up on keyed
        dispatch for this worker, and tuple shipping still works.
        """
        try:
            ops = protocol.decode_sync(payload)
        except ProtocolError:
            raise
        try:
            store = self._store()
            if store is None:
                raise ConfigError(
                    "worker has no shard store (start it with --store URL)"
                )
            for op in ops:
                if op[0] == "full":
                    _, _name, relation = op
                    store.save_relation(relation)
                elif op[0] == "delta":
                    _, name, schema, upserts, removed = op
                    store.apply_relation_delta(name, schema, upserts, removed)
                else:
                    raise ConfigError(f"unknown sync op {op[0]!r}")
            reply = {"epoch": store.catalog_version()}
        except BaseException as exc:  # noqa: BLE001 -- report, don't crash
            reply = {"error": repr(exc)}
        protocol.send_frame(
            connection,
            protocol.FrameKind.SHARD_SYNC_REPLY,
            protocol.encode_info(reply),
        )


# -- local clusters -----------------------------------------------------------


def _serve_child(
    address: str, pool_workers: int, port_pipe, store: str | None = None
) -> None:
    """Child-process entry: start a server and report the bound address."""
    server = WorkerServer(address, pool_workers=pool_workers, store=store)
    server.start()
    port_pipe.send(server.address)
    port_pipe.close()
    server.serve_forever()


class LocalCluster:
    """A handful of loopback worker daemons, one process each."""

    def __init__(
        self,
        processes: list,
        addresses: list[str],
        stores: list[str | None] | None = None,
    ):
        self.processes = processes
        self.addresses = addresses
        self.stores = stores if stores is not None else [None] * len(processes)

    @property
    def addr_spec(self) -> str:
        """The comma-joined spec ``REPRO_WORKERS_ADDRS`` expects."""
        return ",".join(self.addresses)

    def kill_worker(self, index: int) -> None:
        """Terminate one daemon abruptly (fault-injection tests)."""
        self.processes[index].terminate()
        self.processes[index].join(timeout=5)

    def stop(self) -> None:
        """Terminate every daemon (idempotent)."""
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        for process in self.processes:
            process.join(timeout=5)

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        alive = sum(1 for process in self.processes if process.is_alive())
        return (
            f"LocalCluster({len(self.processes)} worker(s), {alive} alive: "
            f"{self.addr_spec})"
        )


def spawn_local_cluster(
    n: int,
    pool_workers: int = 1,
    host: str = "127.0.0.1",
    store_dir: str | None = None,
) -> LocalCluster:
    """Fork *n* worker daemons on loopback ports picked by the kernel.

    For tests, benchmarks and ``repro worker run``.  Daemons are forked
    from this process (so they inherit the imported modules -- tasks
    pickled by reference resolve immediately) and listen on ephemeral
    ports; the returned :class:`LocalCluster` carries the bound
    addresses and terminates the daemons on :meth:`LocalCluster.stop`
    or context-manager exit.  With *store_dir* each daemon owns a
    SQLite shard store ``worker-<i>.sqlite`` under that directory, so
    batches can ship keys instead of tuples (the caller owns the
    directory's lifetime).
    """
    if n < 1:
        raise ConfigError(f"a cluster needs >= 1 worker, got {n!r}")
    import multiprocessing

    context = multiprocessing.get_context("fork")
    processes, addresses, stores = [], [], []
    for index in range(n):
        store = None
        if store_dir is not None:
            store = "sqlite:" + os.path.join(
                str(store_dir), f"worker-{index}.sqlite"
            )
        parent_pipe, child_pipe = context.Pipe(duplex=False)
        process = context.Process(
            target=_serve_child,
            args=(f"{host}:0", pool_workers, child_pipe, store),
            daemon=True,
        )
        process.start()
        child_pipe.close()
        if not parent_pipe.poll(10):
            for started in processes:
                started.terminate()
            raise ProtocolError("cluster worker failed to report its port")
        addresses.append(parent_pipe.recv())
        parent_pipe.close()
        processes.append(process)
        stores.append(store)
    return LocalCluster(processes, addresses, stores)
