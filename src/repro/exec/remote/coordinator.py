"""The coordinator: :class:`RemoteExecutor` and its worker clients.

The :class:`RemoteExecutor` carries the ``Executor`` contract across a
wire.  A batch submitted through :meth:`~RemoteExecutor.map_encoded`
is pickled with the warm pool's compact encoding (``(fn, common)``
once per batch), split into contiguous chunks, scattered across the
live workers concurrently, and gathered back **in exact serial order**
-- chunk *i* of the item list always lands at position *i* of the
result, whatever worker answered it and in whatever order the replies
arrived.

Failure handling draws a hard line between the two ways a chunk can go
wrong:

* a **transport failure** (connection refused, reset, truncated or
  corrupt frame -- any :class:`~repro.errors.ProtocolError` or
  ``OSError``) says nothing about the task.  The worker is declared
  dead, ``exec.remote.worker_deaths`` is bumped, and the chunk is
  re-scattered to a surviving worker after a short backoff
  (``exec.remote.retries``).  When no workers survive, the chunk runs
  locally -- the batch *degrades*, it never fails;
* a **task error** (the worker ran the task and it raised) is
  deterministic: retrying would raise again, so the exception crosses
  the wire in a ``TASK_ERROR`` frame and is re-raised here, exactly as
  the serial path would have raised it.

Every batch of two or more items ships: the executor a user
configures is the one that runs, and no gate second-guesses it.
Unpicklable payloads, an empty worker list, and nested fan-out run
inline in the coordinator transparently.

When every worker owns a shard store (``repro worker serve --store``),
callers that can describe items as entity keys use
:meth:`~RemoteExecutor.map_encoded_keyed`: the coordinator first pushes
O(delta) ``SHARD_SYNC`` operations bringing each store current on the
referenced relations (:class:`~repro.exec.remote.shards.ShardSyncManager`
plans them from published versions and dirty-key hints), then scatters
``KEY_BATCH`` frames carrying key lists instead of tuple blobs; workers
point-load their rows locally (``REPRO_REMOTE_LOCALITY=off`` turns
key-only scatter off).  Any epoch mismatch, un-synced shard, or worker
death degrades that chunk -- or the whole batch -- to the
tuple-shipping path above, so the equivalence contract never depends
on store state.  ``exec.remote.locality_hits``/``locality_misses``
count the outcomes.

Worker-side telemetry ships home with every reply: kernel-stats deltas
are applied to the local counters (so ``EXPLAIN ANALYZE`` sees remote
work), and tracing spans are re-parented under the
dispatching span so a distributed batch reads as one trace tree.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from repro.ds.kernel import apply_kernel_delta
from repro.errors import ProtocolError, TaskDecodeError
from repro.exec.executors import (
    Executor,
    _task_depth,
    contiguous_chunks,
    note_parallel_batch,
    run_inline,
)
from repro.exec.remote import protocol
from repro.exec.remote.shards import ShardSyncManager
from repro.exec.remote.worker import parse_address
from repro.obs import tracing
from repro.obs.registry import registry as _metrics_registry

_METRICS = _metrics_registry()
_BATCHES = _METRICS.counter(
    "exec.remote.batches", "batches scattered to remote workers"
)
_TASKS = _METRICS.counter(
    "exec.remote.tasks", "items shipped to remote workers"
)
_BYTES_SENT = _METRICS.counter(
    "exec.remote.bytes_sent", "payload bytes put on the wire"
)
_BYTES_RECEIVED = _METRICS.counter(
    "exec.remote.bytes_received", "payload bytes read off the wire"
)
_RETRIES = _METRICS.counter(
    "exec.remote.retries", "chunks re-scattered after a transport failure"
)
_WORKER_DEATHS = _METRICS.counter(
    "exec.remote.worker_deaths", "workers declared dead mid-batch"
)
_FALLBACKS = _METRICS.counter(
    "exec.remote.fallbacks",
    "batches that ran locally (unpicklable payload or no live workers)",
)
_RTT_SECONDS = _METRICS.histogram(
    "exec.remote.rtt_seconds", "per-chunk round-trip latency"
)
_LOCALITY_HITS = _METRICS.counter(
    "exec.remote.locality_hits",
    "key-only chunks served from worker shard stores",
)
_LOCALITY_MISSES = _METRICS.counter(
    "exec.remote.locality_misses",
    "key-only chunks that fell back to tuple shipping",
)


class _UnshippableChunk(Exception):
    """Internal: a chunk's items could not pickle; the batch falls back."""


class _ShardStale(Exception):
    """Internal: a worker answered SHARD_STALE; re-ship the chunk as tuples."""


#: Backoff before retrying a chunk on a survivor (seconds; grows
#: linearly with the attempt number, stays well under a heartbeat).
RETRY_BACKOFF = 0.02
#: Connection timeout for dialing a worker (seconds).
CONNECT_TIMEOUT = 5.0
#: Per-chunk reply timeout (seconds); generous because a chunk may
#: carry real merge work, but finite so a hung worker is eventually
#: declared dead instead of hanging the batch.
REPLY_TIMEOUT = 120.0


class WorkerClient:
    """One coordinator-side connection to one worker daemon.

    The client owns a single socket and serializes requests on a lock
    (the framing is strictly request/reply per connection).  ``dead``
    is sticky: a transport failure closes the socket and the client
    stays dead until :meth:`reconnect` succeeds -- the coordinator
    retries reconnection on the next batch, so a restarted daemon
    rejoins without intervention.
    """

    def __init__(self, address: str):
        self.address = address
        self._family, self._sockaddr = parse_address(address)
        self._sock = None
        self._lock = threading.Lock()
        self.dead = False
        self.pid: int | None = None
        self.in_flight = 0
        #: Shard-store state (data locality): the worker's store URL and
        #: its last acknowledged ``catalog_version`` (the epoch), plus
        #: the coordinator-side relation versions this store holds.
        self.store_url: str | None = None
        self.store_epoch: int | None = None
        self.shard_versions: dict[str, int] = {}

    def _dial(self):
        sock = socket.socket(self._family, socket.SOCK_STREAM)
        sock.settimeout(CONNECT_TIMEOUT)
        sock.connect(self._sockaddr)
        sock.settimeout(REPLY_TIMEOUT)
        if self._family == socket.AF_INET:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def connect(self) -> bool:
        """Dial and handshake (HELLO); ``False`` on failure."""
        with self._lock:
            if self._sock is not None:
                return True
            try:
                sock = self._dial()
                protocol.send_frame(sock, protocol.FrameKind.HELLO, b"")
                kind, payload, _ = protocol.recv_frame(sock)
                if kind != protocol.FrameKind.HELLO_REPLY:
                    raise ProtocolError(
                        f"expected HELLO_REPLY, got {kind.name}"
                    )
                info = protocol.decode_info(payload)
            except (ProtocolError, OSError):
                self.dead = True
                return False
            self._sock = sock
            self.pid = info.get("pid")
            store_url = info.get("store")
            store_epoch = info.get("store_epoch")
            if (
                store_url != self.store_url
                or store_epoch != self.store_epoch
            ):
                # A different store, a restarted worker whose store
                # changed, or out-of-band writes: everything we thought
                # was synced may be stale.  (A persistent store whose
                # epoch still matches keeps its synced state across
                # reconnects.)
                self.shard_versions = {}
            self.store_url = store_url
            self.store_epoch = store_epoch
            self.dead = False
        return True

    def reconnect(self) -> bool:
        """Forget a dead socket and dial again."""
        self.mark_dead()
        self.dead = False
        return self.connect()

    def run_chunk(
        self, common_blob: bytes, chunk_blob: bytes, trace: bool
    ) -> tuple[list, tuple, object]:
        """Ship one chunk and block for its reply.

        Returns ``(results, kernel_delta, spans)``.  A ``TASK_ERROR``
        reply re-raises the task's exception; transport trouble raises
        :class:`ProtocolError`/``OSError`` for the coordinator's retry
        logic.  Wire byte counts and the round trip land on the
        ``exec.remote.*`` metrics here, per chunk.
        """
        payload = protocol.encode_batch(common_blob, chunk_blob, trace)
        with self._lock:
            if self._sock is None:
                raise ProtocolError(f"worker {self.address} is not connected")
            self.in_flight += 1
            try:
                started = time.perf_counter()
                sent = protocol.send_frame(
                    self._sock, protocol.FrameKind.BATCH, payload
                )
                kind, reply, received = protocol.recv_frame(self._sock)
                elapsed = time.perf_counter() - started
            finally:
                self.in_flight -= 1
        _BYTES_SENT.inc(sent)
        _BYTES_RECEIVED.inc(received)
        _RTT_SECONDS.observe(elapsed)
        if kind == protocol.FrameKind.TASK_ERROR:
            raise protocol.decode_error(reply)
        if kind != protocol.FrameKind.RESULT:
            raise ProtocolError(
                f"expected RESULT or TASK_ERROR, got {kind.name}"
            )
        return protocol.decode_result(reply)

    def sync_shards(self, payload: bytes) -> dict:
        """Push one SHARD_SYNC payload; returns the worker's reply dict.

        The reply carries ``epoch`` (the store's new catalog version)
        on success or ``error`` when the store could not apply the
        operations; transport trouble raises for the caller's
        dead-worker handling.  Sync bytes are real wire traffic and
        meter into ``exec.remote.bytes_sent``/``bytes_received``.
        """
        with self._lock:
            if self._sock is None:
                raise ProtocolError(f"worker {self.address} is not connected")
            self.in_flight += 1
            try:
                sent = protocol.send_frame(
                    self._sock, protocol.FrameKind.SHARD_SYNC, payload
                )
                kind, reply, received = protocol.recv_frame(self._sock)
            finally:
                self.in_flight -= 1
        _BYTES_SENT.inc(sent)
        _BYTES_RECEIVED.inc(received)
        if kind != protocol.FrameKind.SHARD_SYNC_REPLY:
            raise ProtocolError(
                f"expected SHARD_SYNC_REPLY, got {kind.name}"
            )
        return protocol.decode_info(reply, what="SHARD_SYNC_REPLY")

    def run_chunk_keyed(
        self, common_blob: bytes, spec_blob: bytes, trace: bool
    ) -> tuple[list, tuple, object]:
        """Ship one chunk as entity keys and block for its reply.

        Returns ``(results, kernel_delta, spans)`` like :meth:`run_chunk`.
        A ``SHARD_STALE`` reply raises :class:`_ShardStale` (the caller
        re-ships the chunk as tuples); a ``TASK_ERROR`` re-raises like
        :meth:`run_chunk`.
        """
        payload = protocol.encode_batch(common_blob, spec_blob, trace)
        with self._lock:
            if self._sock is None:
                raise ProtocolError(f"worker {self.address} is not connected")
            self.in_flight += 1
            try:
                started = time.perf_counter()
                sent = protocol.send_frame(
                    self._sock, protocol.FrameKind.KEY_BATCH, payload
                )
                kind, reply, received = protocol.recv_frame(self._sock)
                elapsed = time.perf_counter() - started
            finally:
                self.in_flight -= 1
        _BYTES_SENT.inc(sent)
        _BYTES_RECEIVED.inc(received)
        _RTT_SECONDS.observe(elapsed)
        if kind == protocol.FrameKind.SHARD_STALE:
            info = protocol.decode_info(reply, what="SHARD_STALE")
            raise _ShardStale(info.get("reason", "shard store is stale"))
        if kind == protocol.FrameKind.TASK_ERROR:
            raise protocol.decode_error(reply)
        if kind != protocol.FrameKind.RESULT:
            raise ProtocolError(
                f"expected RESULT, TASK_ERROR or SHARD_STALE, got {kind.name}"
            )
        return protocol.decode_result(reply)

    def mark_dead(self) -> None:
        """Declare the worker dead and close its socket (idempotent)."""
        with self._lock:
            sock, self._sock = self._sock, None
            self.dead = True
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover -- close races are benign
                pass

    def close(self) -> None:
        """Close the connection without declaring the worker dead."""
        with self._lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover -- close races are benign
                pass

    def __repr__(self) -> str:
        state = "dead" if self.dead else (
            "connected" if self._sock is not None else "idle"
        )
        return f"WorkerClient({self.address}, {state})"


def _workers_from_env() -> list[str]:
    raw = os.environ.get("REPRO_WORKERS_ADDRS", "")
    return [part.strip() for part in raw.split(",") if part.strip()]


class RemoteExecutor(Executor):
    """Scatter/gather execution across socket worker daemons.

    *addresses* defaults to ``REPRO_WORKERS_ADDRS`` (comma-separated
    ``host:port`` / ``unix:/path`` specs).  With no addresses at all
    the executor still constructs and works -- every batch runs inline
    -- so ``REPRO_EXECUTOR=remote`` without a cluster degrades to
    ``serial`` rather than failing.
    """

    kind = "remote"

    def __init__(self, workers: int | None = None, addresses=None):
        if addresses is None:
            addresses = _workers_from_env()
        self.addresses = [str(address) for address in addresses]
        if workers is None:
            workers = max(1, len(self.addresses))
        super().__init__(workers)
        self._clients = [WorkerClient(address) for address in self.addresses]
        self._dispatch_pool = None
        self._lock = threading.Lock()
        self._shards = ShardSyncManager()

    def _ensure_dispatch_pool(self):
        if self._dispatch_pool is None:
            with self._lock:
                if self._dispatch_pool is None:
                    from concurrent.futures import ThreadPoolExecutor

                    self._dispatch_pool = ThreadPoolExecutor(
                        max_workers=max(2, len(self._clients)),
                        thread_name_prefix="repro-remote",
                    )
        return self._dispatch_pool

    def _live_clients(self) -> list[WorkerClient]:
        """Connected clients, attempting one reconnect per dead one."""
        live = []
        for client in self._clients:
            if client.dead:
                if client.reconnect():
                    live.append(client)
            elif client.connect():
                live.append(client)
        return live

    # -- the Executor contract -------------------------------------------------

    # The base method, bound in this class's own namespace as well so
    # the layer profiler (perfbench/layers.py) can wrap it per owner.
    map = Executor.map

    def map_encoded(self, fn, common, items) -> list:
        # Unlike the base, a one-worker cluster still scatters.
        items = list(items)
        if len(items) <= 1 or _task_depth() > 0:
            return run_inline(fn, common, items)
        return self._map_encoded(fn, common, items)

    def _map_encoded(self, fn, common, items):
        results = self.submit_batch(fn, common, items)
        if results is None:
            _FALLBACKS.inc()
            return run_inline(fn, common, items)
        return results

    def submit_batch(self, fn, common, items) -> list | None:
        """Scatter ``[fn(common, item) for item in items]`` to the cluster.

        Returns results in exact item order, or ``None`` when the batch
        cannot go remote (unpicklable payload or no live workers) -- the
        caller falls back locally, mirroring
        :meth:`repro.exec.warmpool.WarmPool.submit_batch`.
        """
        items = list(items)
        if not items:
            return []
        live = self._live_clients()
        if not live:
            return None
        try:
            common_blob = protocol.encode_common(fn, common)
        except Exception:  # noqa: BLE001 -- any pickling failure: fall back
            return None
        chunks = contiguous_chunks(items, len(live))
        trace = tracing.enabled()
        note_parallel_batch(len(items))
        _BATCHES.inc()
        _TASKS.inc(len(items))
        with tracing.span(
            "exec.remote.scatter", chunks=len(chunks), tasks=len(items)
        ):
            # Chunk items are encoded inside the dispatch threads, not
            # here: chunk 0 is on the wire (and its worker computing)
            # while chunk 1 is still pickling, so the coordinator's
            # encode cost overlaps the cluster's work instead of
            # serializing in front of it.
            pool = self._ensure_dispatch_pool()
            futures = [
                pool.submit(
                    self._run_chunk_resilient,
                    common_blob,
                    chunk,
                    live[index % len(live)],
                    trace,
                )
                for index, chunk in enumerate(chunks)
            ]
            return self._gather(futures)

    def _gather(self, futures) -> list | None:
        """Wait for every chunk future; concatenate results in chunk order.

        Every future is waited on before the first task error is
        re-raised, so no chunk is still running when the batch fails.
        Any :class:`_UnshippableChunk` returns ``None`` (the caller runs
        the batch locally).  Each chunk's worker kernel-stats delta is
        applied to the local counters and its spans are ingested under
        the dispatching span.
        """
        gathered, first_error, unshippable = [], None, False
        for future in futures:
            try:
                gathered.append(future.result())
            except _UnshippableChunk:
                unshippable = True
            except BaseException as exc:  # noqa: BLE001 -- gather all first
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        if unshippable:
            return None
        results: list = []
        for chunk_results, kernel_delta, spans in gathered:
            results.extend(chunk_results)
            if kernel_delta:
                apply_kernel_delta(*kernel_delta)
            if spans:
                tracing.ingest(spans)
        return results

    def _run_chunk_resilient(
        self,
        common_blob: bytes,
        chunk: list,
        client: WorkerClient,
        trace: bool,
    ) -> tuple[list, tuple | None, object]:
        """Run one chunk, surviving any number of worker deaths.

        Transport failures mark the worker dead and move the chunk to
        the next survivor with linear backoff; the local inline run is
        the final rung, so the chunk always completes.  Task errors
        propagate untouched; items that cannot pickle raise
        :class:`_UnshippableChunk` so the batch falls back locally.
        """
        try:
            chunk_blob = protocol.encode_chunk(chunk)
        except Exception as exc:  # noqa: BLE001 -- pickling failure: fall back
            raise _UnshippableChunk(str(exc)) from exc
        attempt = 0
        while True:
            if not client.dead:
                try:
                    return client.run_chunk(common_blob, chunk_blob, trace)
                except TaskDecodeError as exc:
                    # The task pickles here but its module does not
                    # import over there (a test module, a __main__
                    # script): no worker can run it, so the whole batch
                    # falls back locally rather than failing/retrying.
                    raise _UnshippableChunk(str(exc)) from exc
                except (ProtocolError, OSError):
                    client.mark_dead()
                    _WORKER_DEATHS.inc()
            survivors = [peer for peer in self._clients if not peer.dead]
            if not survivors:
                # Cluster gone: run the chunk here, exactly and quietly.
                from repro.exec.remote.worker import _execute_chunk

                return _execute_chunk(common_blob, chunk_blob, None), None, None
            attempt += 1
            _RETRIES.inc()
            time.sleep(RETRY_BACKOFF * min(attempt, 5))
            # Prefer the survivor with the least queued work.
            client = min(survivors, key=lambda peer: peer.in_flight)

    # -- shard locality --------------------------------------------------------

    def publish_relation(self, relation, changed=None, removed=None) -> None:
        """Register *relation* as shippable by key (with dirty hints).

        Callers with precise dirty-key knowledge (the stream engine's
        flush delta, ``Database.persist``) pass hints so only O(delta)
        rows cross the wire on the next sync; without hints the manager
        diffs against the previously published version.
        """
        self._shards.publish(relation, changed=changed, removed=removed)

    def map_encoded_keyed(self, fn, common, specs, items) -> list:
        """Like :meth:`map_encoded`, shipping entity keys when possible.

        ``specs[i]`` describes ``items[i]`` as
        ``[(relation_name, keys), ...]`` -- enough for a shard-resident
        worker to rebuild the item from its local store.  Every
        condition that rules out key-only scatter (no shard stores,
        unpublished relations, stale epochs, worker death mid-batch)
        degrades to the tuple-shipping path, preserving the
        bit-for-bit equivalence contract.
        """
        items = list(items)
        if len(items) <= 1 or _task_depth() > 0:
            return run_inline(fn, common, items)
        results = self.submit_batch_keyed(fn, common, list(specs), items)
        if results is not None:
            return results
        return self.map_encoded(fn, common, items)

    def submit_batch_keyed(self, fn, common, specs, items) -> list | None:
        """Scatter a batch as key lists; ``None`` defers to tuple shipping.

        Whole-batch disqualifiers (locality disabled, a worker without
        a store, an unpublished relation, a failed sync) return ``None``
        so the caller reuses :meth:`submit_batch` unchanged; per-chunk
        trouble (stale epoch, worker death) is handled inside
        :meth:`_run_chunk_resilient_keyed` without abandoning the keyed
        batch.
        """
        items = list(items)
        if not items:
            return []
        if len(specs) != len(items):
            return None
        mode = os.environ.get("REPRO_REMOTE_LOCALITY", "").strip().lower()
        if mode in ("0", "off", "no"):
            return None
        names: list = []
        for spec in specs:
            for name, _keys in spec:
                if name not in names:
                    names.append(name)
        if not names:
            return None
        tracked = set(self._shards.names())
        if any(name not in tracked for name in names):
            return None
        live = self._live_clients()
        if not live or any(client.store_url is None for client in live):
            return None
        synced = self._sync_clients(live, names)
        if not synced:
            return None
        try:
            common_blob = protocol.encode_common(fn, common)
        except Exception:  # noqa: BLE001 -- any pickling failure: fall back
            return None
        paired = contiguous_chunks(list(zip(specs, items)), len(synced))
        trace = tracing.enabled()
        note_parallel_batch(len(items))
        _BATCHES.inc()
        _TASKS.inc(len(items))
        with tracing.span(
            "exec.remote.scatter_keyed", chunks=len(paired), tasks=len(items)
        ):
            pool = self._ensure_dispatch_pool()
            futures = [
                pool.submit(
                    self._run_chunk_resilient_keyed,
                    common_blob,
                    [spec for spec, _item in pair],
                    [item for _spec, item in pair],
                    synced,
                    synced[index % len(synced)],
                    trace,
                )
                for index, pair in enumerate(paired)
            ]
            return self._gather(futures)

    def _sync_clients(self, live, names) -> list | None:
        """Bring every live client's shard store current on *names*.

        Returns the clients whose stores now hold every referenced
        relation at the published version (their ``store_epoch`` is
        refreshed from the sync reply), or ``None`` when some name was
        never published -- key-only scatter cannot serve it at all.  A
        store that rejects a delta (pre-key-layout rows, out-of-band
        damage) gets one full-snapshot retry before the client is
        skipped for this batch.
        """
        synced: list = []
        for client in live:
            plan = self._shards.plan_for(client.shard_versions, names)
            if plan is None:
                return None
            ops, new_versions = plan
            force_full = False
            while True:
                if ops:
                    try:
                        reply = client.sync_shards(protocol.encode_sync(ops))
                    except (ProtocolError, OSError):
                        client.mark_dead()
                        _WORKER_DEATHS.inc()
                        break
                    if "error" in reply:
                        if force_full:
                            break
                        force_full = True
                        plan = self._shards.plan_for(
                            client.shard_versions, names, force_full=True
                        )
                        if plan is None:
                            return None
                        ops, new_versions = plan
                        continue
                    client.store_epoch = reply.get("epoch")
                client.shard_versions.update(new_versions)
                synced.append(client)
                break
        return synced

    def _run_chunk_resilient_keyed(
        self,
        common_blob: bytes,
        spec_chunk: list,
        item_chunk: list,
        synced: list,
        client: WorkerClient,
        trace: bool,
    ) -> tuple[list, tuple | None, object]:
        """Run one keyed chunk, degrading to tuple shipping on trouble.

        A ``SHARD_STALE`` reply (epoch drift, missing rows) or running
        out of synced survivors re-ships this chunk's *tuples* through
        :meth:`_run_chunk_resilient` -- same items, same order, so the
        gather contract is untouched.  Worker deaths retry the keyed
        frame on synced survivors first, exactly like the tuple path's
        retry ladder.
        """
        attempt = 0
        while True:
            if not client.dead:
                spec_blob = protocol.encode_keyspec(
                    client.store_epoch or 0, spec_chunk
                )
                try:
                    reply = client.run_chunk_keyed(
                        common_blob, spec_blob, trace
                    )
                except _ShardStale:
                    _LOCALITY_MISSES.inc()
                    return self._run_chunk_resilient(
                        common_blob, item_chunk, client, trace
                    )
                except TaskDecodeError as exc:
                    raise _UnshippableChunk(str(exc)) from exc
                except (ProtocolError, OSError):
                    client.mark_dead()
                    _WORKER_DEATHS.inc()
                else:
                    _LOCALITY_HITS.inc()
                    return reply
            survivors = [peer for peer in synced if not peer.dead]
            if not survivors:
                # No synced store left: ship the tuples instead.
                _LOCALITY_MISSES.inc()
                return self._run_chunk_resilient(
                    common_blob, item_chunk, client, trace
                )
            attempt += 1
            _RETRIES.inc()
            time.sleep(RETRY_BACKOFF * min(attempt, 5))
            client = min(survivors, key=lambda peer: peer.in_flight)

    def close(self) -> None:
        """Close every client connection and the dispatch pool.

        Idempotent by construction: every resource is swapped out under
        the lock before being released, so repeated ``close()`` calls
        (and the interpreter-exit hook racing an explicit close) find
        nothing left to do.
        """
        with self._lock:
            pool, self._dispatch_pool = self._dispatch_pool, None
        for client in self._clients:
            client.close()
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:
        return (
            f"RemoteExecutor({len(self.addresses)} worker address(es), "
            f"{self.workers} worker(s))"
        )
