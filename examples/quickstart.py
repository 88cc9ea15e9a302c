#!/usr/bin/env python3
"""Quickstart: resolve attribute conflicts between two databases.

This walks the paper's core loop with the fluent lazy API:

1. load the two news agencies' restaurant relations (Table 1),
2. integrate them with the extended union (Dempster's rule, Table 4),
3. query with composable expressions -- nothing runs until collect(),
   and the session caches plans and results across queries,
4. stream the same evidence incrementally: a StreamEngine folds
   per-source events into the integrated relation exactly (Dempster's
   rule is associative), publishes on flush, and re-collects
   subscribed queries,
5. inspect the compact evidence kernel that runs underneath it all,
6. fan the same work out over a worker pool: the physical execution
   layer shards entity work into hash partitions, and any executor /
   partition count reproduces the serial result exactly -- the warm
   process pool and the remote socket cluster included,
7. persist everything through a pluggable storage backend (json /
   sqlite / append-only log), with write-ahead durability for streams,
8. watch it all through the unified telemetry layer (repro.obs):
   the process-wide metrics registry, EXPLAIN ANALYZE query profiles
   and structured tracing spans,
9. check the correctness invariants behind all of the above with the
   built-in static analyzer (python -m repro.analysis).

Run:  python examples/quickstart.py
"""

import os
import tempfile
from pathlib import Path

from repro import (
    Database,
    StreamEngine,
    attr,
    create_database,
    format_relation,
    open_backend,
    sn_at_least,
    table_ra,
    table_rb,
)


def main() -> None:
    # The two source relations (Table 1 of the paper).  Attribute values
    # are *evidence sets*: mass assignments over sets of domain values
    # derived from reviewer votes; each tuple carries an (sn, sp)
    # membership pair.
    db = Database("tourist_bureau")
    db.add(table_ra())
    db.add(table_rb())
    print(format_relation(db.get("RA"), title="R_A (Minnesota Daily)"))
    print()
    print(format_relation(db.get("RB"), title="R_B (Star Tribune)"))
    print()

    # Attribute-value conflict resolution = the extended union: tuples
    # matched on the key have every attribute (and the membership)
    # pooled with Dempster's rule of combination.  `union` here is an
    # expression -- lazy until collected.
    integrated = db.rel("RA").union(db.rel("RB"))
    print(
        format_relation(
            integrated.collect(), title="Integrated (Table 4 of the paper)"
        )
    )
    print()

    # Query processing returns answers with a full range of certainty --
    # one result set, graded by the revised (sn, sp), instead of
    # DeMichiel's separate true/may-be sets.  The chain below reuses the
    # union subplan just collected: the session caches subtree results
    # by plan fingerprint.
    excellent = (
        integrated
        .select(attr("rating").is_({"ex"}), sn_at_least("1/2"))
        .project("rname", "rating")
    )
    print("Optimized plan:")
    print(excellent.explain())
    print()
    print("Restaurants rated excellent with sn >= 0.5:")
    for row in excellent.collect():
        print(
            f"  {row.key()[0]:<10} rating={row.evidence('rating').format()} "
            f"(sn,sp)={row.membership.format(style='decimal')}"
        )
    print()

    # The SQL front end lowers into the identical plans (and shares the
    # same caches -- note the subplan hits in the session stats).
    same = db.query(
        "SELECT rname, rating FROM (RA UNION RB) WHERE rating IS {ex} WITH SN >= 0.5"
    )
    assert same.same_tuples(excellent.collect())
    print(f"session: {db.session().stats().summary()}")
    print()

    # Streaming integration: the same result, built incrementally.
    # Each upsert folds one tuple of evidence into the entity's cached
    # combined state (a single Dempster combination); flush() publishes
    # the integrated relation into the catalog and re-collects any
    # subscribed queries.
    engine = StreamEngine(db.get("RA").schema, name="R_LIVE", database=db)
    for etuple in table_ra():
        engine.upsert("daily", etuple)
    engine.flush()

    watching = db.session().subscribe(
        "SELECT rname, rating FROM R_LIVE WHERE rating IS {ex} WITH SN >= 0.5"
    )
    print(f"subscribed after source 1: {len(watching.result)} excellent")

    for etuple in table_rb():
        engine.upsert("tribune", etuple)
    delta = engine.flush()  # publishes + refreshes the subscription
    print(f"after source 2, {delta.summary()}")
    print(f"subscription now sees {len(watching.result)} excellent")
    assert engine.relation.same_tuples(integrated.collect())
    assert watching.result.same_tuples(excellent.collect())
    print(f"stream: {engine.stats().summary()}")
    print()

    # The evidence kernel.  Every combination above ran on the compact
    # kernel (repro.ds.kernel): because `rating` is an *enumerated*
    # domain, its frame is interned -- each value gets a bit position --
    # and focal elements become int bitmasks, so Dempster's pairwise
    # intersections are bitwise-ANDs instead of frozenset operations.
    # Compilation is lazy (the first combination or belief query
    # triggers it) and purely representational: results are identical,
    # exact Fractions stay exact.  Evidence over unenumerable domains
    # (open text, numerics) transparently uses the symbolic fallback
    # path.  Inspect any value via `is_compiled`:
    sample = next(iter(engine.relation))
    rating = sample.evidence("rating")
    print(f"{sample.key()[0]} rating evidence compiled? {rating.is_compiled}")
    print(f"compiled form: {rating.mass_function.compiled()!r}")

    from repro.ds import kernel_stats

    print(kernel_stats().summary())
    print()

    # Execution & parallelism.  The integration semantics are
    # per-entity (definite keys identify real-world entities; merges
    # never mix entities), so the physical layer (repro.exec) can shard
    # every relation into hash partitions and fan the partition tasks
    # out over a worker pool -- `configure(executor=..., workers=...)`,
    # or the REPRO_EXECUTOR / REPRO_WORKERS environment variables, or
    # `repro stream DB EVENTS --schema REL --workers 4` on the CLI.
    # The default stays serial; with any executor and any partition
    # count the results are *identical* to the serial path (same
    # tuples, same order, exact masses -- property-tested), so turning
    # parallelism on is purely a performance decision.
    from repro.exec import current_config, exec_stats, executor_scope
    from repro.session import Session

    serial_union = integrated.collect()
    with executor_scope(executor="process", workers=2) as config:
        print(config.describe())  # also shown by `repro repl` :stats
        # A fresh session, so the collect below really re-executes
        # (the default session would serve its cached result).
        parallel = Session(db).execute("RA UNION RB BY (rname)")
        assert parallel.same_tuples(serial_union)
        assert [t.key() for t in parallel] == [t.key() for t in serial_union]
        print(exec_stats().summary())
    print(f"back to the default: {current_config().describe()}")
    print()

    # The warm pool.  Process batches dispatch through a *warm* worker
    # pool (repro.exec.warmpool): the fork is paid once and every later
    # batch ships as compact pickled chunks (a batch that does not
    # pickle runs inline instead).  The executor you configure is the
    # one that runs -- nothing re-routes a batch behind your back --
    # and serial is still the fastest path on every recorded benchmark,
    # so pick process or remote only where you have measured a win.
    # (There is no thread pool: the merges are pure-Python arithmetic
    # that holds the GIL.)
    #
    # Persistence is incremental: sqlite stream flushes rewrite only
    # the hash shards the batch touched (bytes written scale with the
    # *delta*, watch storage.sqlite.bytes_written), quiet flushes skip
    # the backend entirely, and REPRO_AUTOCOMPACT=1 keeps a log:
    # journal bounded by compacting once it outgrows its last compact
    # size (`repro compact DB` does the same on demand).
    print()

    # Distributed execution.  Beyond one machine's cores, the remote
    # executor (repro.exec.remote) scatters encoded partition batches
    # to worker daemons over TCP or unix sockets and gathers replies in
    # exact serial order.  Start daemons with `repro worker serve
    # HOST:PORT`, point REPRO_WORKERS_ADDRS at them (comma-separated)
    # and set REPRO_EXECUTOR=remote -- or let `repro worker run -n 4 --
    # CMD` wire up a loopback cluster around any command.  Transport
    # failures re-scatter the dead worker's chunks to survivors
    # (exec.remote.retries); with no cluster at all the executor
    # degrades to local execution.  Every batch of two or more
    # partitions crosses the wire: a round trip per batch is the price
    # of asking for remote.
    from repro.exec.remote import spawn_local_cluster
    from repro.obs import registry as obs_registry

    with spawn_local_cluster(2) as cluster:
        os.environ["REPRO_WORKERS_ADDRS"] = cluster.addr_spec
        try:
            with executor_scope(executor="remote", workers=2, partitions=4):
                distributed = Session(db).execute("RA UNION RB BY (rname)")
            assert distributed.same_tuples(serial_union)
            assert [t.key() for t in distributed] == [
                t.key() for t in serial_union
            ]
        finally:
            del os.environ["REPRO_WORKERS_ADDRS"]
        wire = obs_registry().collect()
        print(f"distributed over {cluster!r}")
        print(
            f"  exec.remote.batches={wire['exec.remote.batches']} "
            f"tasks={wire['exec.remote.tasks']} "
            f"bytes_sent={wire['exec.remote.bytes_sent']}"
        )
    print()

    # Shard-resident workers.  Start daemons with `repro worker serve
    # HOST:PORT --store sqlite:shards.db` (or `repro worker run -n 4
    # --store -- CMD`) and each one owns a local shard store.  The
    # coordinator then ships entity *keys* instead of encoded tuples:
    # before a batch scatters it pushes only the dirty-shard delta since
    # the last sync (the stream engine's flush deltas and
    # Database.persist feed it), workers point-load their rows locally,
    # and repeated integrations over slowly-changing sources stop
    # re-sending the same tuples every batch.  Fallback rules: a stale
    # store epoch, a dead worker, a worker without --store, or an
    # unpublished relation quietly re-ships that chunk (or batch) as
    # tuples -- results are bit-for-bit the serial ones either way.
    # REPRO_REMOTE_LOCALITY=0 disables keyed scatter.  Watch it work
    # through exec.remote.locality_hits / locality_misses and the
    # exec.remote.bytes_sent of a repeated integration.
    from repro.integration import Federation, TupleMerger

    with tempfile.TemporaryDirectory() as shards:
        with spawn_local_cluster(2, store_dir=shards) as cluster:
            os.environ["REPRO_WORKERS_ADDRS"] = cluster.addr_spec
            try:
                federation = Federation(TupleMerger(on_conflict="vacuous"))
                federation.add_source("RA", table_ra())
                federation.add_source("RB", table_rb())
                with executor_scope(
                    executor="serial", workers=1, partitions=None
                ):
                    baseline, _ = federation.integrate(name="F")
                with executor_scope(
                    executor="remote", workers=2, partitions=4
                ):
                    keyed, _ = federation.integrate(name="F")
                    keyed_again, _ = federation.integrate(name="F")
                assert keyed == baseline
                assert keyed_again == baseline
            finally:
                del os.environ["REPRO_WORKERS_ADDRS"]
            locality = obs_registry().collect()
            print("shard-resident workers (keys, not tuples):")
            print(
                f"  exec.remote.locality_hits="
                f"{locality['exec.remote.locality_hits']} "
                f"locality_misses="
                f"{locality['exec.remote.locality_misses']}"
            )
    print()

    # Persistence & backends.  Storage locations are URLs -- `json:`
    # (one human-readable file per database, the historical format),
    # `sqlite:` (one row per tuple: single relations load without
    # parsing the rest, partition layouts persist per tuple), `log:`
    # (append-only JSONL journal) -- or bare paths resolved by the
    # REPRO_STORAGE environment variable and the file extension.  Every
    # engine round-trips relations bit-for-bit: exact Fractions stay
    # exact, floats survive via shortest repr, tuple order and domains
    # are preserved.  Pick json for portability and small catalogs,
    # sqlite for point reads into big catalogs, log for audit trails
    # and durable streams.
    with tempfile.TemporaryDirectory() as scratch:
        store = create_database(f"sqlite:{Path(scratch) / 'fed.sqlite'}", "fed")
        store.add(table_ra())
        store.add(engine.relation)
        store.persist()                       # whole catalog, one version bump
        reopened = Database.open(store.backend.url())
        assert reopened.get("RA") == table_ra()
        # ... and the sqlite engine reads one relation without
        # deserializing the rest of the database:
        hot = reopened.backend.load_relation("R_LIVE")
        assert hot.same_tuples(engine.relation)
        print(f"reopened {reopened.backend.describe()}")
        reopened.close()
        store.close()

        # Streams become durable by attaching a backend: each flush
        # writes the batch ahead of publishing.  A log: backend keeps a
        # write-ahead event journal whose replay rebuilds the engine --
        # relation, per-source state, watermark -- exactly.
        wal = open_backend(f"log:{Path(scratch) / 'wal.jsonl'}")
        durable = StreamEngine(table_ra().schema, name="R_WAL", backend=wal)
        for etuple in table_ra():
            durable.upsert("daily", etuple)
        durable.flush()
        recovered = wal.recover_stream("R_WAL")   # e.g. after a crash
        assert recovered.relation == durable.relation
        assert recovered.watermark == durable.watermark == 6
        print(
            f"recovered stream 'R_WAL' at watermark {recovered.watermark} "
            f"from {wal.url()}"
        )
        wal.close()
    print()

    # Observability & profiling.  Everything above was also *measured*:
    # each layer keeps thread-local counters and registers them with the
    # process-wide metrics registry (repro.obs), so one snapshot covers
    # kernel combinations, executor fan-out, session caches, stream
    # ingest and per-backend storage I/O.  The same data is exported by
    # `repro stats [DB] [--json|--prometheus]` and the repl's `:stats`.
    from repro import registry, span, tracing_scope
    from repro.obs import take_records

    snapshot = registry().collect()
    print(f"metrics registry: {len(snapshot)} instruments, e.g.")
    for name in ("kernel.kernel_combinations", "session.queries",
                 "stream.upserts", "session.result_cache_hit_ratio"):
        print(f"  {name} = {snapshot[name]}")
    # ... and any Prometheus scraper can consume the same registry:
    assert "repro_kernel_kernel_combinations" in registry().prometheus()

    # EXPLAIN ANALYZE: run a query once, uncached, and get the plan
    # back annotated per node with wall time, exact row counts and the
    # kernel-vs-fallback combination split (repl: `:profile Q`).
    profile = db.session().explain_analyze(
        "SELECT rname, rating FROM (RA UNION RB BY (rname)) "
        "WHERE rating IS {ex} WITH SN >= 0.5"
    )
    print()
    print(profile.describe())
    assert profile.rows == profile.root.rows_out
    assert all(node.wall_seconds >= 0.0 for node in profile.nodes())

    # Structured tracing is off by default (zero cost on the hot path);
    # flip it on process-wide with REPRO_TRACE=1, `--trace-out FILE` on
    # the CLI, or locally with a scope.  Spans nest parent/child and
    # cross process-pool workers back to the dispatching call.
    with tracing_scope():
        with span("quickstart.traced", step=9):
            db.session().execute("RA UNION RB BY (rname)")
        traced = take_records()
    assert any(record.name == "session.execute" for record in traced)
    print(f"tracing scope captured {len(traced)} span record(s)")
    print()

    # Correctness invariants & static analysis.  Everything demonstrated
    # above rests on four invariants that ordinary tests only probe
    # pointwise, so the repo ships an AST-based analyzer (reprolint,
    # `python -m repro.analysis` / `make lint-analysis`, run in CI) that
    # enforces them structurally across the whole source tree:
    #
    #   EXACT    mass values are exact Fractions end to end: no float
    #            literals, float() casts or bare `/` division on the
    #            mass paths (repro.ds / repro.algebra).  This is what
    #            lets the kernel-vs-frozenset equivalence suite (PR 3,
    #            tests/ds/test_kernel.py) demand *equality*, not
    #            approximation.
    #   DETERM   no unordered-set iteration flows into returned or
    #            serialized order, and nothing time- or random-derived
    #            reaches plan fingerprints -- the executor-equivalence
    #            suite (PR 4, tests/exec/) asserts any executor at any
    #            partition count reproduces the serial tuple order
    #            bit-for-bit, which only holds if no code path depends
    #            on PYTHONHASHSEED.
    #   CONC     module-level mutable state written from
    #            executor-reachable code must be locked or thread-local
    #            (the kernel/exec STATS counters aggregate thread-local
    #            cells), and process-pool closures must not capture
    #            file handles, sqlite connections or locks across fork.
    #   BACKEND  every StorageBackend engine implements the full
    #            abstract surface, and every mutating save/delete hook
    #            bumps catalog_version -- the invariants behind the PR 5
    #            round-trip suite (tests/storage/).
    #
    # Deliberate boundary crossings (presenting a mass as a decimal,
    # entropy measures that are floats by definition) carry inline
    # `# repro: ignore[RULE]` pragmas; accepted debt lives in
    # analysis-baseline.json, where a fixed finding turns its entry
    # stale and *fails* the run until the baseline is regenerated with
    # --write-baseline.  The shipped tree is clean:
    from repro.analysis.lint import analyze

    repo_root = Path(__file__).resolve().parent.parent
    report = analyze(
        [repo_root / "src"],
        baseline_path=repo_root / "analysis-baseline.json",
    )
    assert report.clean
    print(
        f"reprolint: {report.files} files analyzed, "
        f"{len(report.findings)} findings, "
        f"{len(report.ignored)} documented pragma exemptions"
    )


if __name__ == "__main__":
    main()
