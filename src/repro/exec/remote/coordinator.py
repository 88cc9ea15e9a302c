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

Small batches should never pay a network round trip: before scattering,
the batch is priced against the cost model's remote tier
(:func:`repro.exec.cost.remote_worthwhile`), which is fed the measured
round-trip latency and bytes-per-item of every batch this coordinator
ships (``REPRO_REMOTE_THRESHOLD`` pins the gate to an item count
instead; ``0`` forces everything remote, which is how the fault and
equivalence suites exercise the wire).  Unpicklable payloads, an empty
worker list, and nested fan-out all run inline in the coordinator
transparently -- serial is the fastest local path on record.

When every worker owns a shard store (``repro worker serve --store``),
callers that can describe items as entity keys use
:meth:`~RemoteExecutor.map_encoded_keyed`: the coordinator first pushes
O(delta) ``SHARD_SYNC`` operations bringing each store current on the
referenced relations (:class:`~repro.exec.remote.shards.ShardSyncManager`
plans them from published versions and dirty-key hints), then scatters
``KEY_BATCH`` frames carrying key lists instead of tuple blobs; workers
point-load their rows locally.  The locality tier of the cost model
prices key bytes plus pending sync against tuple shipping
(``REPRO_REMOTE_LOCALITY`` forces it ``on``/``off``).  Any epoch
mismatch, un-synced shard, or worker death degrades that chunk -- or
the whole batch -- to the tuple-shipping path above, so the equivalence
contract never depends on store state.  ``exec.remote.locality_hits``/
``locality_misses`` count the outcomes and ``exec.remote.bytes_saved``
estimates the avoided traffic.

Worker-side telemetry ships home with every reply: kernel-stats deltas
are applied to the local counters (so ``EXPLAIN ANALYZE`` and the cost
model see remote work), and tracing spans are re-parented under the
dispatching span so a distributed batch reads as one trace tree.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from repro.ds.kernel import apply_kernel_delta
from repro.errors import ConfigError, ProtocolError, TaskDecodeError
from repro.exec.executors import (
    Executor,
    _task_depth,
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
_LOCAL_BATCHES = _METRICS.counter(
    "exec.remote.local_batches",
    "batches the cost model kept local (below the wire threshold)",
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
_BYTES_SAVED = _METRICS.counter(
    "exec.remote.bytes_saved",
    "estimated wire bytes key-only scatter avoided",
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
        self.rtt: float | None = None
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
        """Dial and handshake (HELLO + a timed PING); ``False`` on failure."""
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
                started = time.perf_counter()
                protocol.send_frame(sock, protocol.FrameKind.PING, b"")
                kind, _, _ = protocol.recv_frame(sock)
                if kind != protocol.FrameKind.PONG:
                    raise ProtocolError(f"expected PONG, got {kind.name}")
                self.rtt = time.perf_counter() - started
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
        from repro.exec import cost as _cost

        _cost.note_remote_sample(rtt_seconds=self.rtt)
        return True

    def reconnect(self) -> bool:
        """Forget a dead socket and dial again."""
        self.mark_dead()
        self.dead = False
        return self.connect()

    def heartbeat(self) -> float:
        """One timed PING/PONG round trip; raises on transport failure."""
        with self._lock:
            if self._sock is None:
                raise ProtocolError(f"worker {self.address} is not connected")
            started = time.perf_counter()
            protocol.send_frame(self._sock, protocol.FrameKind.PING, b"")
            kind, _, _ = protocol.recv_frame(self._sock)
            if kind != protocol.FrameKind.PONG:
                raise ProtocolError(f"expected PONG, got {kind.name}")
            self.rtt = time.perf_counter() - started
        from repro.exec import cost as _cost

        _cost.note_remote_sample(rtt_seconds=self.rtt)
        return self.rtt

    def run_chunk(
        self, common_blob: bytes, chunk_blob: bytes, n_items: int, trace: bool
    ) -> tuple[list, tuple, object]:
        """Ship one chunk and block for its reply.

        Returns ``(results, kernel_delta, spans)``.  A ``TASK_ERROR``
        reply re-raises the task's exception; transport trouble raises
        :class:`ProtocolError`/``OSError`` for the coordinator's retry
        logic.  Wire byte counts and the round trip land on the
        ``exec.remote.*`` metrics here, per chunk; the bytes-per-item
        observation feeds the cost model's remote tier (the chunk's
        elapsed time does not -- it includes the compute, so the pure
        heartbeat RTT is the latency signal).
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
        from repro.exec import cost as _cost

        _cost.note_remote_sample(
            bytes_per_item=(sent + received) / max(1, n_items)
        )
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
        self, common_blob: bytes, spec_blob: bytes, n_items: int, trace: bool
    ) -> tuple[list, tuple, object, int]:
        """Ship one chunk as entity keys and block for its reply.

        Returns ``(results, kernel_delta, spans, wire_bytes)`` -- the
        extra element is the chunk's actual framed traffic, which the
        caller compares against the tuple-shipping estimate for
        ``exec.remote.bytes_saved``.  A ``SHARD_STALE`` reply raises
        :class:`_ShardStale` (the caller re-ships the chunk as tuples);
        a ``TASK_ERROR`` re-raises like :meth:`run_chunk`.  Keyed
        traffic feeds the cost model's *locality* bytes-per-item
        estimate, never the tuple-shipping one.
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
        from repro.exec import cost as _cost

        _cost.note_locality_sample((sent + received) / max(1, n_items))
        if kind == protocol.FrameKind.SHARD_STALE:
            info = protocol.decode_info(reply, what="SHARD_STALE")
            raise _ShardStale(info.get("reason", "shard store is stale"))
        if kind == protocol.FrameKind.TASK_ERROR:
            raise protocol.decode_error(reply)
        if kind != protocol.FrameKind.RESULT:
            raise ProtocolError(
                f"expected RESULT, TASK_ERROR or SHARD_STALE, got {kind.name}"
            )
        results, kernel_delta, spans = protocol.decode_result(reply)
        return results, kernel_delta, spans, sent + received

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
        cannot or should not go remote (unpicklable payload, no live
        workers, or the cost model priced it below the wire threshold)
        -- the caller falls back locally, mirroring
        :meth:`repro.exec.warmpool.WarmPool.submit_batch`.
        """
        items = list(items)
        if not items:
            return []
        if not self._worth_shipping(len(items)):
            _LOCAL_BATCHES.inc()
            return None
        live = self._live_clients()
        if not live:
            return None
        try:
            common_blob = protocol.encode_common(fn, common)
        except Exception:  # noqa: BLE001 -- any pickling failure: fall back
            return None
        chunks = self._chunk(items, len(live))
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
                self._apply_kernel_delta(kernel_delta)
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
                    return client.run_chunk(
                        common_blob, chunk_blob, len(chunk), trace
                    )
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
        unpublished relations, stale epochs, cost gate, worker death
        mid-batch) degrades to the tuple-shipping path, preserving the
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
        a store, an unpublished relation, a failed sync, the cost gate)
        return ``None`` so the caller reuses :meth:`submit_batch`
        unchanged; per-chunk trouble (stale epoch, worker death) is
        handled inside :meth:`_run_chunk_resilient_keyed` without
        abandoning the keyed batch.
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
        if mode not in ("1", "on", "force") and not self._worth_shipping_keyed(
            len(items), live, names
        ):
            return None
        synced = self._sync_clients(live, names)
        if not synced:
            return None
        try:
            common_blob = protocol.encode_common(fn, common)
        except Exception:  # noqa: BLE001 -- any pickling failure: fall back
            return None
        paired = self._chunk(list(zip(specs, items)), len(synced))
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
                self._apply_kernel_delta(kernel_delta)
            if spans:
                tracing.ingest(spans)
        return results

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
                    results, kernel_delta, spans, wire = client.run_chunk_keyed(
                        common_blob, spec_blob, len(item_chunk), trace
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
                    from repro.exec import cost as _cost

                    saved = int(
                        _cost.observed_remote_bytes_per_item()
                        * len(item_chunk)
                        - wire
                    )
                    if saved > 0:
                        _BYTES_SAVED.inc(saved)
                    return results, kernel_delta, spans
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

    # -- policy ----------------------------------------------------------------

    def _worth_shipping(self, n_items: int) -> bool:
        """The remote-tier cost gate (``REPRO_REMOTE_THRESHOLD`` pins it)."""
        raw = os.environ.get("REPRO_REMOTE_THRESHOLD", "").strip()
        if raw:
            try:
                return n_items >= int(raw)
            except ValueError:
                raise ConfigError(
                    f"REPRO_REMOTE_THRESHOLD must be an integer item count, "
                    f"got {raw!r}"
                ) from None
        from repro.exec import cost as _cost

        return _cost.remote_worthwhile(n_items, max(1, len(self.addresses)))

    def _worth_shipping_keyed(self, n_items: int, live, names) -> bool:
        """The locality-tier cost gate: keys + pending sync vs tuples.

        ``REPRO_REMOTE_THRESHOLD`` pins this gate too, so test runs
        that force everything remote exercise the keyed path as well.
        The pending-sync size is the worst lag across the live clients
        -- every one of them must be brought current before the batch
        scatters.
        """
        raw = os.environ.get("REPRO_REMOTE_THRESHOLD", "").strip()
        if raw:
            try:
                return n_items >= int(raw)
            except ValueError:
                raise ConfigError(
                    f"REPRO_REMOTE_THRESHOLD must be an integer item count, "
                    f"got {raw!r}"
                ) from None
        from repro.exec import cost as _cost

        pending = 0
        for client in live:
            lag = self._shards.pending_items(client.shard_versions, names)
            if lag is None:
                return False
            pending = max(pending, lag)
        return _cost.locality_worthwhile(
            n_items, max(1, len(self.addresses)), pending
        )

    @staticmethod
    def _chunk(items: list, workers: int) -> list[list]:
        """At most *workers* contiguous chunks, sizes differing by <= 1."""
        count = min(max(workers, 1), len(items))
        base, extra = divmod(len(items), count)
        chunks, start = [], 0
        for index in range(count):
            size = base + (1 if index < extra else 0)
            chunks.append(items[start:start + size])
            start += size
        return chunks

    @staticmethod
    def _apply_kernel_delta(delta: tuple) -> None:
        kernel, fallback, compilations = delta
        apply_kernel_delta(kernel, fallback, compilations)

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
