"""The wire protocol between the coordinator and worker daemons.

Every message is one **frame**:

====== ======= ====================================================
bytes  field   meaning
====== ======= ====================================================
2      magic   ``b"RX"`` -- rejects non-protocol peers immediately
1      version protocol version (currently 1)
1      kind    a :class:`FrameKind` value
4      length  payload byte count, unsigned big-endian
4      crc32   CRC-32 of the payload (zlib), unsigned big-endian
length payload frame-kind-specific bytes
====== ======= ====================================================

A short read anywhere (the peer died or the stream was cut mid-frame)
raises :class:`~repro.errors.ProtocolError`, as does a bad magic,
an unknown version, or a CRC mismatch -- the coordinator treats all of
them as a transport failure and re-scatters the chunk elsewhere,
never as data.

Batch frames reuse the warm pool's compact task encoding
(:mod:`repro.exec.warmpool`): the ``(fn, common)`` pair is pickled
**once** per batch by the coordinator and the identical blob is reused
in every chunk frame of that batch, so per-chunk wire cost is the item
blob plus a fixed header.  Reply frames carry the chunk results *and*
the worker-side telemetry: the kernel-stats delta the chunk produced
(:data:`repro.ds.kernel.STATS` fields) and, when the coordinator asked
for them, the worker's tracing spans -- shipping observability with the
data keeps kernel counters and trace trees whole across machines.

The module is deliberately transport-agnostic: every function takes a
connected socket object, whether TCP or ``AF_UNIX``.
"""

from __future__ import annotations

import pickle
import struct
import zlib

from enum import IntEnum

from repro.errors import ProtocolError

MAGIC = b"RX"
VERSION = 1

_HEADER = struct.Struct(">2sBBLL")
_U32 = struct.Struct(">L")

#: Largest payload a well-behaved peer may send (guards a corrupted or
#: hostile length field from allocating unbounded memory).
MAX_PAYLOAD_BYTES = 1 << 31


class FrameKind(IntEnum):
    """Frame discriminator (one byte on the wire)."""

    HELLO = 1          #: coordinator -> worker: introduce yourself
    HELLO_REPLY = 2    #: worker -> coordinator: {pid, pool_workers, ...}
    PING = 3           #: heartbeat request
    PONG = 4           #: heartbeat reply
    BATCH = 5          #: one encoded chunk of a scattered batch
    RESULT = 6         #: chunk results + worker-side telemetry
    TASK_ERROR = 7     #: the task itself raised (deterministic; no retry)
    SHUTDOWN = 8       #: coordinator -> worker: stop serving
    SHARD_SYNC = 9     #: coordinator -> worker: shard-store delta/snapshot ops
    SHARD_SYNC_REPLY = 10  #: worker -> coordinator: {epoch} or {error}
    KEY_BATCH = 11     #: a chunk shipped as entity keys, not tuples
    SHARD_STALE = 12   #: worker -> coordinator: cannot serve the keys locally


def send_frame(sock, kind: FrameKind, payload: bytes) -> int:
    """Write one frame to *sock*; returns the bytes put on the wire."""
    header = _HEADER.pack(
        MAGIC, VERSION, int(kind), len(payload), zlib.crc32(payload)
    )
    sock.sendall(header + payload)
    return len(header) + len(payload)


def recv_exact(sock, count: int) -> bytes:
    """Read exactly *count* bytes or raise :class:`ProtocolError`."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} byte(s) received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock) -> tuple[FrameKind, bytes, int]:
    """Read one frame; returns ``(kind, payload, wire_bytes)``.

    Raises :class:`ProtocolError` on truncation, bad magic, version
    mismatch, an unknown frame kind, an oversized length field, or a
    payload whose CRC does not match the header.
    """
    header = recv_exact(sock, _HEADER.size)
    magic, version, kind, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version}, "
            f"this end speaks {VERSION}"
        )
    try:
        kind = FrameKind(kind)
    except ValueError:
        raise ProtocolError(f"unknown frame kind {kind}") from None
    if length > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"frame payload of {length} bytes is oversized")
    payload = recv_exact(sock, length)
    if zlib.crc32(payload) != crc:
        raise ProtocolError(
            f"payload CRC mismatch on a {kind.name} frame "
            f"({length} byte(s)): corrupt or truncated stream"
        )
    return kind, payload, _HEADER.size + length


# -- batch encoding -----------------------------------------------------------


def encode_common(fn, common) -> bytes:
    """Pickle the per-batch constant ``(fn, common)`` pair, once.

    *fn* must be a module-level callable (it pickles by reference);
    a pickling failure propagates so the caller can fall back to a
    local executor before anything touches the wire.
    """
    return pickle.dumps((fn, common), protocol=pickle.HIGHEST_PROTOCOL)


def encode_chunk(chunk: list) -> bytes:
    """Pickle one chunk's items."""
    return pickle.dumps(chunk, protocol=pickle.HIGHEST_PROTOCOL)


def encode_batch(common_blob: bytes, chunk_blob: bytes, trace: bool) -> bytes:
    """Assemble a BATCH payload from pre-pickled blobs.

    ``common_blob`` is produced once per batch (:func:`encode_common`)
    and reused verbatim for every chunk frame; only ``chunk_blob``
    varies.  *trace* asks the worker to capture and return its spans.
    """
    return (
        bytes([1 if trace else 0])
        + _U32.pack(len(common_blob))
        + common_blob
        + chunk_blob
    )


def decode_batch(payload: bytes) -> tuple[bytes, bytes, bool]:
    """Split a BATCH payload into ``(common_blob, chunk_blob, trace)``."""
    if len(payload) < 1 + _U32.size:
        raise ProtocolError("BATCH payload shorter than its own header")
    trace = bool(payload[0])
    (common_length,) = _U32.unpack_from(payload, 1)
    start = 1 + _U32.size
    if start + common_length > len(payload):
        raise ProtocolError("BATCH payload truncated inside the common blob")
    common_blob = payload[start:start + common_length]
    return common_blob, payload[start + common_length:], trace


def encode_result(results: list, kernel_delta: tuple, spans) -> bytes:
    """Pickle a RESULT payload: chunk results + worker-side telemetry.

    ``kernel_delta`` is the ``(kernel_combinations,
    fallback_combinations, compilations)`` triple this chunk added to
    the worker's :data:`repro.ds.kernel.STATS`; *spans* is the captured
    span list (or ``None`` when tracing was off).
    """
    return pickle.dumps(
        (results, kernel_delta, spans), protocol=pickle.HIGHEST_PROTOCOL
    )


def decode_result(payload: bytes) -> tuple[list, tuple, object]:
    """Unpickle a RESULT payload."""
    try:
        return pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 -- any unpickle failure is wire-level
        raise ProtocolError(f"undecodable RESULT payload: {exc}") from exc


def encode_error(exc: BaseException) -> bytes:
    """Pickle a TASK_ERROR payload (falling back to a repr carrier)."""
    try:
        return pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # noqa: BLE001 -- unpicklable exception: carry its repr
        from repro.errors import ExecutionError

        return pickle.dumps(
            ExecutionError(f"remote task failed: {exc!r}"),
            protocol=pickle.HIGHEST_PROTOCOL,
        )


def decode_error(payload: bytes) -> BaseException:
    """Unpickle a TASK_ERROR payload."""
    try:
        exc = pickle.loads(payload)
    except Exception as error:  # noqa: BLE001 -- see decode_result
        raise ProtocolError(
            f"undecodable TASK_ERROR payload: {error}"
        ) from error
    if not isinstance(exc, BaseException):
        raise ProtocolError(
            f"TASK_ERROR payload is not an exception: {exc!r}"
        )
    return exc


def encode_info(info: dict) -> bytes:
    """Pickle a small plain-dict payload (HELLO_REPLY and friends)."""
    return pickle.dumps(info, protocol=pickle.HIGHEST_PROTOCOL)


def decode_info(payload: bytes, what: str = "HELLO_REPLY") -> dict:
    """Unpickle a plain-dict payload (HELLO_REPLY, SHARD_SYNC_REPLY,
    SHARD_STALE)."""
    try:
        info = pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 -- see decode_result
        raise ProtocolError(f"undecodable {what} payload: {exc}") from exc
    if not isinstance(info, dict):
        raise ProtocolError(f"{what} payload is not a dict: {info!r}")
    return info


# -- shard locality -----------------------------------------------------------
#
# The data-locality layer pairs a worker-owned SQLite shard store with
# two extra exchanges:
#
# * ``SHARD_SYNC`` ships a list of store operations -- ``("full", name,
#   relation)`` snapshots or ``("delta", name, schema, upserts,
#   removed)`` dirty-key deltas -- and the worker answers with a
#   ``SHARD_SYNC_REPLY`` carrying the store's new ``catalog_version``
#   (the *epoch*) or an ``error`` string;
# * ``KEY_BATCH`` reuses the BATCH payload layout, but the per-chunk
#   blob holds ``(epoch, specs)`` instead of pickled items: the worker
#   point-loads each spec's ``(relation_name, keys)`` rows from its
#   store, rebuilding the chunk's items locally.  Any mismatch (wrong
#   epoch, unknown relation, missing key) answers ``SHARD_STALE`` and
#   the coordinator re-ships the chunk as tuples.


def encode_sync(ops: list) -> bytes:
    """Pickle a SHARD_SYNC payload (a list of store operations)."""
    return pickle.dumps(ops, protocol=pickle.HIGHEST_PROTOCOL)


def decode_sync(payload: bytes) -> list:
    """Unpickle a SHARD_SYNC payload.

    Sync operations carry only :mod:`repro.model` values (relations,
    tuples, schemas, keys), which always import on a worker; a failure
    here is wire-level corruption, not a task problem.
    """
    try:
        ops = pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 -- see decode_result
        raise ProtocolError(f"undecodable SHARD_SYNC payload: {exc}") from exc
    if not isinstance(ops, list):
        raise ProtocolError(f"SHARD_SYNC payload is not a list: {ops!r}")
    return ops


def encode_keyspec(epoch: int, specs: list) -> bytes:
    """Pickle a KEY_BATCH chunk blob: the expected store epoch plus one
    ``[(relation_name, keys), ...]`` spec per item."""
    return pickle.dumps((int(epoch), specs), protocol=pickle.HIGHEST_PROTOCOL)


def decode_keyspec(blob: bytes) -> tuple[int, list]:
    """Unpickle a KEY_BATCH chunk blob into ``(epoch, specs)``."""
    try:
        epoch, specs = pickle.loads(blob)
    except Exception as exc:  # noqa: BLE001 -- keys are plain atoms; see decode_sync
        raise ProtocolError(f"undecodable KEY_BATCH spec: {exc}") from exc
    return int(epoch), list(specs)
