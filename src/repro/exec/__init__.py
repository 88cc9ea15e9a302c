"""The physical execution layer: partitioned, executor-driven evaluation.

The paper's integration semantics decompose per entity (definite keys
identify real-world entities; Dempster merges, selection revision and
union/intersection never mix entities), so the physical layer shards
entity work into hash partitions and fans the partition tasks out over
a pluggable worker pool:

* :mod:`repro.exec.executors` -- the :class:`Executor` abstraction
  (serial / warm process-pool / ``remote``), the process-global
  configuration (:func:`configure`, ``REPRO_EXECUTOR`` /
  ``REPRO_WORKERS`` / ``REPRO_PARTITIONS``), and fan-out counters.  The
  configured executor is the one that runs every batch;
* :mod:`repro.exec.warmpool` -- the persistent warm ``fork`` worker
  pool (compact task encoding) behind the process executor's
  :meth:`Executor.map_encoded`;
* :mod:`repro.exec.remote` -- distributed shard-by-key execution:
  ``REPRO_EXECUTOR=remote`` scatters encoded batches to socket worker
  daemons (``REPRO_WORKERS_ADDRS``), gathers in exact serial order,
  and retries dead workers' chunks on survivors;
* :mod:`repro.exec.rewrite` -- the logical rewrite-pass pipeline
  (selection fusion/pushdown, projection pruning) run before lowering,
  so physical operators see normalized plans;
* :mod:`repro.exec.physical` -- per-node lowering of the logical plan
  IR onto partition-aware physical operators.

The default configuration is serial with no partitioning: results and
pair order are bit-for-bit the historical single-loop behavior.  With
any other executor and any partition count, every partition-aware path
(plans, :func:`repro.algebra.union.union_with_report`,
:meth:`repro.integration.federation.Federation.integrate`,
:meth:`repro.stream.engine.StreamEngine.flush`) reassembles results to
*equal the serial result exactly* -- property-tested in ``tests/exec``.

>>> from repro import exec as rexec
>>> rexec.configure(executor="process", workers=2).kind
'process'
>>> rexec.configure(executor="serial", workers=1, partitions=None).kind
'serial'
"""

from repro.exec.executors import (
    EXECUTOR_KINDS,
    ExecConfig,
    ExecStats,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    configure,
    current_config,
    exec_stats,
    executor_scope,
    get_executor,
    partition_count,
)
from repro.model.relation import partition_index

# The physical/rewrite halves import the plan IR, whose algebra imports
# the executors above -- so they are exposed lazily to keep the package
# importable from either end of that chain.  The remote half is lazy
# for a different reason: importing it registers its metrics and pulls
# in the socket machinery, which serial-only processes never need.
_LAZY = {
    "PhysicalOperator": "repro.exec.physical",
    "apply_node": "repro.exec.physical",
    "describe_physical": "repro.exec.physical",
    "lower": "repro.exec.physical",
    "run_plan": "repro.exec.physical",
    "PassPipeline": "repro.exec.rewrite",
    "RewritePass": "repro.exec.rewrite",
    "default_pipeline": "repro.exec.rewrite",
    "LocalCluster": "repro.exec.remote",
    "RemoteExecutor": "repro.exec.remote",
    "WorkerClient": "repro.exec.remote",
    "WorkerServer": "repro.exec.remote",
    "spawn_local_cluster": "repro.exec.remote",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)

__all__ = [
    "EXECUTOR_KINDS",
    "ExecConfig",
    "ExecStats",
    "Executor",
    "LocalCluster",
    "PassPipeline",
    "PhysicalOperator",
    "ProcessExecutor",
    "RemoteExecutor",
    "RewritePass",
    "SerialExecutor",
    "WorkerClient",
    "WorkerServer",
    "apply_node",
    "configure",
    "current_config",
    "default_pipeline",
    "describe_physical",
    "exec_stats",
    "executor_scope",
    "get_executor",
    "lower",
    "partition_count",
    "partition_index",
    "run_plan",
    "spawn_local_cluster",
]
