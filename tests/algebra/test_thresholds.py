"""Tests for membership threshold conditions Q."""

import multiprocessing
import pickle
from fractions import Fraction

import pytest

from repro.algebra import attr
from repro.datasets.restaurants import table_ra, table_rb
from repro.errors import OperationError
from repro.exec import executor_scope
from repro.model.membership import TupleMembership
from repro.obs import registry
from repro.query.parser import parse
from repro.query.planner import build_plan
from repro.query.plans import SelectPlan
from repro.session import Session
from repro.storage import Database
from repro.algebra.thresholds import (
    ALWAYS,
    SN_CERTAIN,
    SN_POSITIVE,
    MembershipThreshold,
    sn_at_least,
    sn_equals,
    sn_greater,
    sp_at_least,
    sp_equals,
    sp_greater,
    threshold,
)


class TestFactories:
    def test_sn_greater(self):
        q = sn_greater("1/2")
        assert q(TupleMembership("3/4", 1))
        assert not q(TupleMembership("1/2", 1))

    def test_sn_at_least(self):
        q = sn_at_least("1/2")
        assert q(TupleMembership("1/2", 1))
        assert not q(TupleMembership("1/4", 1))

    def test_sn_equals(self):
        q = sn_equals(1)
        assert q(TupleMembership(1, 1))
        assert not q(TupleMembership("9/10", 1))

    def test_sp_variants(self):
        assert sp_greater("1/2")(TupleMembership(0, "3/4"))
        assert sp_at_least("3/4")(TupleMembership(0, "3/4"))
        assert sp_equals(1)(TupleMembership(0, 1))
        assert not sp_greater(1)(TupleMembership(0, 1))

    def test_constants(self):
        assert SN_POSITIVE(TupleMembership("1/100", 1))
        assert not SN_POSITIVE(TupleMembership(0, 1))
        assert SN_CERTAIN(TupleMembership(1, 1))
        assert not SN_CERTAIN(TupleMembership("1/2", 1))
        assert ALWAYS(TupleMembership(0, 0))


class TestCombination:
    def test_conjunction(self):
        q = sn_greater(0) & sp_at_least("3/4")
        assert q(TupleMembership("1/2", "3/4"))
        assert not q(TupleMembership("1/2", "1/2"))

    def test_description_composes(self):
        q = sn_greater(0) & sp_at_least("1/2")
        assert "sn > 0" in q.description
        assert "sp >= 1/2" in q.description

    def test_bad_conjunction_operand(self):
        with pytest.raises(OperationError):
            sn_greater(0) & "not a threshold"

    def test_custom_threshold(self):
        gap = MembershipThreshold(lambda tm: tm.sp - tm.sn <= 0, "no ignorance")
        assert gap(TupleMembership("1/2", "1/2"))
        assert not gap(TupleMembership("1/4", "1/2"))

    def test_repr_shows_description(self):
        assert "sn > 0" in repr(SN_POSITIVE)


#: Every ``(sn, sp)`` pair with ``0 <= sn <= sp <= 1`` in eighths.
GRID = [
    TupleMembership(Fraction(sn, 8), Fraction(sp, 8))
    for sn in range(9)
    for sp in range(sn, 9)
]


def _has_fork() -> bool:
    try:
        multiprocessing.get_context("fork")
    except (ImportError, ValueError):
        return False
    return True


def _database() -> Database:
    database = Database("thresholds")
    database.add(table_ra())
    database.add(table_rb())
    return database


def _select_thresholds(plan):
    """Every SelectPlan threshold in *plan*'s tree."""
    found = [plan.threshold] if isinstance(plan, SelectPlan) else []
    for child in plan.children():
        found.extend(_select_thresholds(child))
    return found


def _identical(actual, expected) -> bool:
    return actual == expected and list(actual.keys()) == list(expected.keys())


class TestThresholdFactory:
    def test_description_is_the_term_as_written(self):
        assert threshold("sn", ">=", Fraction(1, 2)).description == "sn >= 1/2"
        assert threshold("sp", "<", 0.5).description == "sp < 0.5"

    @pytest.mark.parametrize("op", [">", ">=", "=", "<", "<="])
    def test_every_comparison(self, op):
        compare = {
            ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b,
            "=": lambda a, b: a == b,
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
        }[op]
        bound = Fraction(1, 2)
        for field in ("sn", "sp"):
            check = threshold(field, op, bound)
            for tm in GRID:
                assert check(tm) == compare(getattr(tm, field), bound)

    def test_unsupported_terms_raise(self):
        with pytest.raises(OperationError, match="unsupported threshold"):
            threshold("sn", "!=", 0)
        with pytest.raises(OperationError, match="unsupported threshold"):
            threshold("kappa", ">", 0)


class TestPickling:
    """Built-in thresholds pickle, so plans holding them can ship."""

    def _assert_round_trip(self, original):
        copy = pickle.loads(pickle.dumps(original))
        assert copy.description == original.description
        assert [copy(tm) for tm in GRID] == [original(tm) for tm in GRID]

    def test_factory_built_thresholds(self):
        for original in (
            SN_POSITIVE,
            SN_CERTAIN,
            ALWAYS,
            sn_greater("1/4"),
            sn_at_least("1/2"),
            sp_greater(0),
            sp_at_least("3/4"),
            sp_equals(1),
            threshold("sn", "<=", Fraction(3, 8)),
            sn_greater(0) & sp_at_least("1/2") & threshold("sp", "<", 1),
        ):
            self._assert_round_trip(original)

    def test_planner_built_thresholds(self):
        plan = build_plan(
            parse(
                "SELECT rname FROM RA WHERE rating IS {ex} "
                "WITH SN >= 0.25 AND SN < 0.875 AND SP > 0.5 AND SP <= 1"
            ),
            _database(),
        )
        (built,) = _select_thresholds(plan)
        assert built.description == (
            "sn > 0 and sn >= 1/4 and sn < 7/8 and sp > 1/2 and sp <= 1"
        )
        self._assert_round_trip(built)
        assert pickle.loads(pickle.dumps(plan)).describe() == plan.describe()


@pytest.mark.skipif(not _has_fork(), reason="warm pool requires fork")
class TestProcessExecutorQueries:
    """Threshold queries reach the warm pool, or run inline, exactly."""

    QUERY = (
        "SELECT rname, rating FROM (RA UNION RB BY (rname)) "
        "WHERE rating IS {ex} WITH SN >= 0.5"
    )

    def test_threshold_query_dispatches_to_the_warm_pool(self):
        database = _database()
        with executor_scope(executor="serial", workers=1, partitions=None):
            expected = Session(database).execute(self.QUERY)
        dispatches = registry().counter("exec.warmpool.dispatches")
        fallbacks = registry().counter("exec.warmpool.fallbacks")
        before = dispatches.value, fallbacks.value
        with executor_scope(executor="process", workers=2, partitions=4):
            actual = Session(database).execute(self.QUERY)
        assert _identical(actual, expected)
        assert dispatches.value > before[0]
        assert fallbacks.value == before[1]

    def test_user_lambda_threshold_runs_inline_exactly(self):
        gap = MembershipThreshold(lambda tm: tm.sp - tm.sn < 1, "gap < 1")

        def query():
            # A fresh catalog per run: no cached result to hit.
            return (
                _database()
                .rel("RA")
                .select(attr("rating").is_({"ex", "gd"}), gap)
                .collect()
            )

        with executor_scope(executor="serial", workers=1, partitions=None):
            expected = query()
        fallbacks = registry().counter("exec.warmpool.fallbacks")
        before = fallbacks.value
        with executor_scope(executor="process", workers=2, partitions=4):
            actual = query()
        assert len(expected) > 0
        assert _identical(actual, expected)
        assert fallbacks.value > before
