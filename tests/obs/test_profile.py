"""EXPLAIN ANALYZE profiles and per-batch flush profiles.

The acceptance contract: profiling a 3-operator query returns per-node
wall time and *exact* input/output row counts, and those row counts are
identical whichever executor runs the plan -- the serial-equivalence
guarantee extends to the measurements.
"""

from __future__ import annotations

import json

import pytest

from repro import Database, StreamEngine, TupleMerger, table_ra, table_rb
from repro.exec import executor_scope
from repro.obs import FlushProfile, QueryProfile
from repro.session import Session

QUERY = (
    "SELECT rname, rating FROM (RA UNION RB BY (rname)) "
    "WHERE rating IS {ex} WITH SN >= 0.5"
)

#: (executor, workers, partitions) configurations the profile must
#: agree across.
SCOPES = (("serial", 1, None), ("serial", 1, 4), ("process", 2, None))


@pytest.fixture
def db():
    database = Database("profiling")
    database.add(table_ra())
    database.add(table_rb())
    return database


def shape(profile: QueryProfile):
    """The executor-independent part of a profile."""
    return [
        (node.label, node.rows_in, node.rows_out)
        for node in profile.nodes()
    ]


class TestExplainAnalyze:
    def test_three_op_query_measures_every_node(self, db):
        profile = Session(db).explain_analyze(QUERY)
        assert profile.rows == 3
        # select <- project <- union <- (scan, scan): five nodes.
        labels = [node.label for node in profile.nodes()]
        assert len(labels) == 5
        assert labels[0].startswith("Select")
        assert "Union by (rname)" in labels
        for node in profile.nodes():
            assert node.wall_seconds >= 0.0
            assert node.partitions >= 1
        union = next(n for n in profile.nodes() if "Union" in n.label)
        assert union.rows_in == (6, 5)
        assert union.rows_out == 6
        # The union pools evidence: combinations happened and the
        # kernel/fallback split is accounted.
        assert union.kernel_combinations + union.fallback_combinations > 0
        assert profile.wall_seconds > 0.0

    def test_row_counts_identical_under_every_executor(self, db):
        shapes = []
        for executor, workers, partitions in SCOPES:
            with executor_scope(
                executor=executor, workers=workers, partitions=partitions
            ):
                profile = Session(db).explain_analyze(QUERY)
            assert profile.executor == executor
            assert profile.workers == workers
            shapes.append(shape(profile))
            assert all(
                node.wall_seconds >= 0.0 for node in profile.nodes()
            )
        assert shapes[1] == shapes[0]
        assert shapes[2] == shapes[0]

    def test_profile_bypasses_the_result_cache(self, db):
        session = Session(db)
        session.execute(QUERY)
        session.execute(QUERY)  # cached now
        profile = session.explain_analyze(QUERY)
        # A cached run would execute zero nodes; the profile re-runs
        # the plan and measures real row flow.
        assert profile.rows == 3
        assert shape(profile)[0][2] == 3

    def test_describe_and_json(self, db):
        profile = Session(db).explain_analyze(QUERY)
        text = profile.describe()
        assert text.startswith("EXPLAIN ANALYZE")
        assert "rows=6+5->6" in text
        assert "combine=" in text
        payload = json.loads(json.dumps(profile.to_json()))
        assert payload["rows"] == 3
        assert payload["plan"]["children"][0]["children"][0]["rows_out"] == 6

    def test_expression_queries_profile_too(self, db):
        profile = Session(db).explain_analyze(
            db.rel("RA").union(db.rel("RB"))
        )
        assert profile.rows == 6
        assert "Union" in profile.root.label


class TestFlushProfile:
    def test_profiled_engine_annotates_deltas(self):
        engine = StreamEngine(
            table_ra().schema,
            name="R",
            # "vacuous" defers conflict handling (and thus re-folds) to
            # flush -- under the default "raise" policy a re-assertion
            # refolds eagerly at upsert and the flush has nothing to do.
            merger=TupleMerger(on_conflict="vacuous"),
            profile_batches=True,
        )
        for etuple in table_ra():
            engine.upsert("daily", etuple)
        for etuple in table_rb():
            engine.upsert("tribune", etuple)
        # Re-assert the daily tuples: first arrivals fold on the upsert
        # fast path, re-assertions mark their entities for refold, so
        # this flush exercises the refold phase the profile times.
        for etuple in table_ra():
            engine.upsert("daily", etuple)
        delta = engine.flush()
        profile = delta.profile
        assert isinstance(profile, FlushProfile)
        assert profile.events == 17
        assert profile.entities_refolded == len(engine.relation) == 6
        assert profile.combinations > 0
        assert profile.partitions >= 1
        assert set(profile.sources) == {"daily", "tribune"}
        for phase in (
            profile.refold_seconds,
            profile.materialize_seconds,
            profile.publish_seconds,
        ):
            assert 0.0 <= phase <= profile.total_seconds
        assert "refold=" in profile.describe()
        payload = json.loads(json.dumps(profile.to_json()))
        assert payload["events"] == 17

    def test_profiling_is_opt_in(self):
        engine = StreamEngine(table_ra().schema, name="R")
        for etuple in table_ra():
            engine.upsert("daily", etuple)
        assert engine.flush().profile is None
