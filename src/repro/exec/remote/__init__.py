"""repro.exec.remote -- distributed shard-by-key execution over sockets.

The executor abstraction (:mod:`repro.exec.executors`) historically
stopped at one host: the serial and warm process-pool executors both
spend the same machine.  This package carries the same
``Executor`` contract across a wire:

* :mod:`repro.exec.remote.protocol` -- the length-prefixed, CRC-checked
  binary framing both ends speak.  Batches reuse the warm pool's
  compact task encoding (:meth:`Executor.map_encoded`): ``(fn, common)``
  pickled once per batch and reused for every chunk frame, per-chunk
  item blobs, and reply frames that ship results *plus* the worker-side
  kernel-stats deltas and tracing spans, so telemetry crosses the wire
  with the data.
* :mod:`repro.exec.remote.worker` -- the worker daemon
  (``repro worker serve HOST:PORT``): accepts connections, runs batch
  frames through the local machinery (optionally fanned over a local
  warm pool with ``--pool-workers``), and answers liveness pings.
  :func:`spawn_local_cluster` forks *n* daemons on loopback ports for
  tests, benchmarks and ``repro worker run``.
* :mod:`repro.exec.remote.coordinator` -- :class:`RemoteExecutor`, the
  ``Executor`` that scatters encoded partition batches across the
  configured workers (``REPRO_WORKERS_ADDRS``), gathers results in
  exact serial order, retries a dead worker's chunks on survivors with
  backoff, and transparently runs a batch inline when its payload
  cannot pickle or the cluster is gone.  Every other batch of two or
  more items ships: no gate keeps work local behind the user's back.
* :mod:`repro.exec.remote.shards` -- the coordinator-side ledger of the
  data-locality layer: which relation versions each worker's shard
  store holds, delta logs for O(delta) ``SHARD_SYNC`` pushes, and the
  sync plans behind key-only ``KEY_BATCH`` scatter (workers started
  with ``--store URL`` point-load their rows locally; any epoch
  mismatch, dead worker or un-synced shard falls back to tuple
  shipping).

Whatever the cluster size and whatever fails mid-batch, the equivalence
contract of :mod:`repro.exec` holds: results equal the serial path
exactly -- same tuples, same order, exact Fractions, bit-for-bit floats
(property-tested in ``tests/exec``).  Activity surfaces as the
``exec.remote.*`` metrics in the :mod:`repro.obs` registry.
"""

from repro.exec.remote.coordinator import RemoteExecutor, WorkerClient
from repro.exec.remote.protocol import (
    FrameKind,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.exec.remote.shards import ShardSyncManager
from repro.exec.remote.worker import (
    LocalCluster,
    WorkerServer,
    spawn_local_cluster,
)

__all__ = [
    "FrameKind",
    "LocalCluster",
    "ProtocolError",
    "RemoteExecutor",
    "ShardSyncManager",
    "WorkerClient",
    "WorkerServer",
    "recv_frame",
    "send_frame",
    "spawn_local_cluster",
]
