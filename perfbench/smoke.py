"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny input size for one operation with its
output checks, then shows that each check rejects an output corrupted
on purpose (one mass changed, or two tuples swapped), that the query
checks reach every template and a read of R just after a write, and
that a short traced run reports every per-layer metric.  Exits 1 on
the first failure.  Takes a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import END_TO_END, ROOT, Runner, import_program, trace

import_program()

import workloads  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402
from workloads import (  # noqa: E402
    TEMPLATES,
    TINY,
    WORKLOADS,
    check_integrated,
    check_query,
    check_reopened,
    check_stream,
    make_workload,
    same_relation,
)

from repro.model.evidence import EvidenceSet  # noqa: E402
from repro.model.relation import ExtendedRelation  # noqa: E402

SEED = 5


def changed_mass(relation: ExtendedRelation, position: int = 0):
    """*relation* with half of one focal element's mass moved to another."""
    tuples = list(relation)
    etuple = tuples[position]
    evidence = etuple.evidence("category")
    items = list(evidence.items())
    assert len(items) >= 2, "the corruption needs two focal elements"
    (first, m1), (second, m2) = items[0], items[1]
    masses = dict(items)
    masses[first], masses[second] = m1 + m2 / 2, m2 / 2
    tuples[position] = etuple.with_values(
        {"category": EvidenceSet(masses, evidence.domain)}
    )
    return ExtendedRelation(relation.schema, tuples)


def swapped(relation: ExtendedRelation):
    """*relation* with its first two tuples swapped."""
    tuples = list(relation)
    tuples[0], tuples[1] = tuples[1], tuples[0]
    return ExtendedRelation(relation.schema, tuples)


def expect(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        raise SystemExit(1)


def one_op(workload):
    """Set up, run one op, and return it with every check's failures."""
    workload.setup()
    op = workload.run_op(0)
    failures = workload.verify(op) + workload.final_checks()
    expect(not failures, f"{workload.name}: one op passes its checks {failures}")
    return op


def corruptions_of(workload, op) -> None:
    name = workload.name
    if name in ("integrate", "remote"):
        order = list(workload.order)
        for label, bad in (
            ("changed mass", changed_mass(op.output)),
            ("swapped tuples", swapped(op.output)),
        ):
            expect(
                bool(same_relation(workload.reference, bad)),
                f"{name}: equality with the reference rejects {label}",
            )
        bad = changed_mass(op.output)
        expect(
            bool(check_integrated(workload.federation, order, order[:1], bad)),
            f"{name}: point/frozenset check rejects a changed mass",
        )
        expect(
            bool(check_integrated(workload.federation, order, [], swapped(op.output))),
            f"{name}: order check rejects swapped tuples",
        )
    elif name == "stream":
        engine = workload.engine
        relation = engine.relation
        expect(
            bool(check_stream(engine, changed_mass(relation))),
            "stream: snapshot integration rejects a changed mass",
        )
        expect(
            bool(check_reopened(workload.url, "F", changed_mass(relation),
                                engine.watermark)),
            "stream: reopen check rejects a changed mass",
        )
        expect(
            bool(check_reopened(workload.url, "F", relation, engine.watermark + 1)),
            "stream: reopen check rejects a wrong watermark",
        )
    elif name == "query":
        text = "SELECT id, category FROM (L UNION R) WITH SN >= 0.01"
        result = workload.session.execute(text)
        expect(len(result) >= 2, "query: the probe query has rows")
        for label, bad in (
            ("changed mass", changed_mass(result)),
            ("swapped tuples", swapped(result)),
        ):
            expect(
                bool(check_query(workload.database, text, bad)),
                f"query: fresh-session check rejects {label}",
            )


def query_checks_cover_templates(root: str) -> None:
    """Over four write windows, the reads the runner checks include every
    template, and a read of R right after a write."""
    original = workloads.check_query
    checked_texts = []

    def recording(database, text, result):
        checked_texts.append(text)
        return original(database, text, result)

    workload = make_workload("query", SEED, TINY, root)
    workloads.check_query = recording
    try:
        workload.setup()
        runner = Runner(workload)
        checked, failures, previous = set(), [], None
        for index in range(4 * workload.WRITE_EVERY + 1):
            op = workload.run_op(index)
            before = len(checked_texts)
            failures += runner.verify(op)
            if len(checked_texts) > before:
                checked.add((op.context["template"], previous == "write"))
            previous = op.kind
    finally:
        workloads.check_query = original
        workload.close()
    expect(not failures, f"query: checked reads pass {failures}")
    expect(
        {template for template, _ in checked} == {label for label, _ in TEMPLATES},
        f"query: checked reads cover every template {sorted(checked)}",
    )
    expect(
        any(after and template != "select_l" for template, after in checked),
        "query: a read of R right after a write is checked",
    )


def benchmark_matches_code() -> None:
    """``BENCHMARK.json`` names what the code measures, unit for unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    expect(
        [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json lists the workloads the code runs",
    )
    expect(
        sorted((m["name"], m["unit"]) for m in benchmark["end_to_end"])
        == sorted(END_TO_END),
        "BENCHMARK.json end-to-end metrics match run.py",
    )
    expect(
        [(m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]]
        == [(m.name, m.unit, m.better) for m in LAYER_METRICS],
        "BENCHMARK.json per-layer metrics match layers.py",
    )


def main() -> int:
    benchmark_matches_code()
    root = os.path.join(ROOT, ".bench_work", f"smoke-{os.getpid()}")
    try:
        for name in WORKLOADS:
            workload = make_workload(name, SEED, TINY, root)
            try:
                op = one_op(workload)
                corruptions_of(workload, op)
            finally:
                workload.close()
        query_checks_cover_templates(root)
        for name in WORKLOADS:
            result = trace(
                lambda name=name: make_workload(name, SEED, TINY, root), 0.2
            )
            _, _, failures, metrics, _, _ = result
            missing = [m.name for m in LAYER_METRICS if m.name not in metrics]
            expect(
                not failures and not missing,
                f"{name}: traced run reports every layer metric "
                f"{failures or missing}",
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
