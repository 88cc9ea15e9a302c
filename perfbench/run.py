"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload integrate --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout: the program is imported from
``./src`` and nowhere else.  With ``--trace 0`` the run measures the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it measures
the per-layer metrics instead (see ``perfbench/layers.py``), spending
the first half of ``--seconds`` untraced and the second half traced, so
that ``trace_overhead_ratio`` compares the two.

End-to-end metrics (every workload reports all of them):

``setup_s``
    median over three set-ups: preload and warm-up.  Each set-up gets
    inputs freshly generated from the seed before its timer starts, so
    none reuses input objects an earlier set-up has warmed.
``peak_rss_mb``
    peak resident memory of this process plus the peak of its largest
    ended child: on ``remote``, a worker daemon, read once the cluster
    has been stopped and joined (the other workloads start no child).
``entities_per_s``
    integrated entity tuples an operation returns, per second: the
    federation's output (integrate, remote), the distinct entities a
    micro-batch re-integrates (stream), the tuples of query answers
    plus the tuples a write replaces (query).
``events_per_s``
    input tuples an operation consumes, per second: all source tuples
    (integrate, remote), upserts and retractions (stream), tuples
    written (query).
``queries_per_s``
    operations per second: integrations, flushed micro-batches, or
    reads and writes.
``latency_p50_ms``, ``latency_p90_ms``
    per operation: one integration; a micro-batch from its first
    upsert until ``flush()`` returns; one read.

Throughputs are the work of every operation of the run divided by
their summed time.  The timed region is that sum; output checks run
between operations, outside it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Failed
operations include failed output checks, so ``fail_ratio`` (printed on
an earlier line) is ``failed / attempted``.  The exit code is 1 when any
check failed.  ``--out FILE`` also appends the result, stamped with the
revision and host, to a JSON-lines file for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("entities_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
SETUPS = 3
#: Stop a run early once this many operations have failed.
MAX_FAILURES = 10


def import_program():
    """Import ``repro`` from this checkout's ``src`` only."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"no program source under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")
    return repro


def stamp(workload, seed: int) -> dict:
    """Revision, host and inputs of one result."""
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "workload": workload.name,
        "seed": seed,
        "input_sizes": workload.input_sizes(),
    }


def percentile(samples: list[float], fraction: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive)."""
    if len(samples) == 1:
        return samples[0]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


class Runner:
    """The closed loop: operations, their checks, and the failure count."""

    def __init__(self, workload):
        self.workload = workload
        #: Set for the traced phase: the layer clock, and the counter
        #: increments the output checks made (subtracted afterwards).
        self.clock = None
        self.excluded: dict = {}
        self.attempted = 0
        self.failures: list[str] = []
        self._next = 0

    def run(self, seconds: float) -> list:
        """Operations until their summed time reaches *seconds*."""
        ops, timed = [], 0.0
        while timed < seconds and len(self.failures) < MAX_FAILURES:
            index = self._next
            self._next += 1
            self.attempted += 1
            try:
                op = self.workload.run_op(index)
            except Exception as exc:  # noqa: BLE001 -- counted, then reported
                self.failures.append(f"op {index}: {type(exc).__name__}: {exc}")
                continue
            timed += op.seconds
            ops.append(op)
            problems = self.verify(op)
            if problems:
                self.failures.append(f"op {index}: " + "; ".join(problems[:3]))
            # Outputs are checked now; holding them would make memory
            # grow with the number of ops the run completes.
            op.output = None
        return ops

    def verify(self, op) -> list[str]:
        """The output check of *op*, if it is one the workload checks."""
        if not op.checked:
            return []
        if self.clock is None:
            return self.workload.verify(op)
        # Traced phase: the check's own work must not count as the
        # layers' work, in the wrappers or in the program's counters.
        from layers import counters, subtract

        before = counters(self.workload)
        with self.clock.suspended():
            problems = self.workload.verify(op)
        spent = subtract(counters(self.workload), before)
        for name, value in spent.items():
            self.excluded[name] = self.excluded.get(name, 0) + value
        return problems


def rate(ops: list, field: str) -> float:
    """Work per second over the whole run.

    The host's speed drifts over seconds; the run-wide ratio averages
    that drift, where a median over short windows would follow it.
    """
    return sum(getattr(op, field) for op in ops) / sum(op.seconds for op in ops)


def end_to_end(workload, ops: list, setup_times: list[float]) -> dict:
    latencies = [
        op.seconds * 1e3 for op in ops if op.kind in ("op", "read")
    ]
    return {
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": percentile(latencies, 0.9),
        "entities_per_s": rate(ops, "entities"),
        "events_per_s": rate(ops, "events"),
        "queries_per_s": rate(ops, "queries"),
        "setup_s": statistics.median(setup_times),
    }


def measure(workload_factory, seconds: float):
    """The untraced run: set up three times, then the timed loop."""
    # ru_maxrss of the children is the peak of the largest one reaped,
    # and a launcher that exec'd this interpreter may have reaped one.
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup_times = []
    workload = workload_factory()
    try:
        for attempt in range(SETUPS):
            if attempt:
                workload.close()
                workload.generate()
                gc.collect()
            started = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - started)
        # Garbage from the discarded set-ups must not be collected
        # inside the timed loop.
        gc.collect()
        runner = Runner(workload)
        ops = runner.run(seconds)
        failures = list(runner.failures)
        if ops:
            failures += workload.final_checks()
    finally:
        workload.close()
    metrics = {}
    if ops:
        metrics = end_to_end(workload, ops, setup_times)
        # Read after close(), which joins any worker daemons.
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if children > children_before:
            peak += children
        metrics["peak_rss_mb"] = peak / 1024
    units = {name: unit for name, unit in END_TO_END}
    return workload, runner.attempted, failures, metrics, units, {
        "latency_samples": sum(1 for op in ops if op.kind in ("op", "read")),
        "ops": len(ops),
        "setup_runs": [round(value, 4) for value in setup_times],
    }


def setup_load_seconds() -> float:
    """Seconds the storage backends have spent loading, so far."""
    from repro.obs import registry

    return sum(
        value["sum"]
        for name, value in registry().collect().items()
        if name.startswith("storage.") and name.endswith(".load_seconds")
    )


def trace(workload_factory, seconds: float):
    """The traced run: half untraced, half with the layer wrappers."""
    from layers import LAYER_METRICS, LayerClock, counters, layer_metrics, subtract

    clock = LayerClock()
    workload = workload_factory()
    try:
        # Set-up runs unwrapped (remote worker daemons fork during it
        # and must not inherit the wrappers); its storage load time
        # comes from the program's own load histograms.
        loads_before = setup_load_seconds()
        workload.setup()
        setup_load = setup_load_seconds() - loads_before
        runner = Runner(workload)
        untraced = runner.run(seconds / 2)
        runner.clock, runner.excluded = clock, {}
        before = counters(workload)
        clock.reset()
        clock.install()
        try:
            traced = runner.run(seconds / 2)
        finally:
            clock.uninstall()
        delta = subtract(subtract(counters(workload), before), runner.excluded)
        failures = list(runner.failures)
        overhead = 0.0
        if untraced and traced:
            failures += workload.final_checks()
            unit = workload.unit
            overhead = rate(traced, unit) / rate(untraced, unit)
        metrics = layer_metrics(clock, delta, traced, setup_load, overhead)
        units = {metric.name: metric.unit for metric in LAYER_METRICS}
        attempted = runner.attempted
        info = {"ops": len(untraced) + len(traced), "traced_ops": len(traced)}
        for metric in LAYER_METRICS:
            print(
                f"  {metric.name} = {metrics[metric.name]:.6g} {metric.unit}"
                f"  [should move {metric.moves}; steady on {metric.steady}]"
            )
        return workload, attempted, failures, metrics, units, info
    finally:
        clock.uninstall()
        workload.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the stamped result (JSON lines)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    from workloads import FULL, WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    work_root = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")

    def factory():
        return make_workload(args.workload, args.seed, FULL, work_root)

    try:
        body = trace if args.trace else measure
        workload, attempted, failures, metrics, units, info = body(
            factory, args.seconds
        )
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass

    correct = not failures and bool(metrics)
    attempted = max(attempted, 1)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
            if name in metrics
        },
    }
    stamped = stamp(workload, args.seed)
    print("stamp: " + json.dumps({**stamped, **info}, sort_keys=True))
    for message in failures:
        print(f"CHECK FAILED: {message}")
    print(f"fail_ratio: {result['failed'] / attempted:.6g}")
    if not args.trace:
        for name, unit in END_TO_END:
            if name in metrics:
                print(f"  {name} = {metrics[name]:.6g} {unit}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "a") as handle:
            record = {"stamp": stamped, "trace": args.trace, "result": result}
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
