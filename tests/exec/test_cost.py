"""The adaptive cost model: estimator monotonicity and routing sanity.

The model only ever makes *executor* choices (the equivalence suite
proves semantics are untouched), so what these tests pin down is the
model's own contract: estimates never decrease when the workload grows
(more sources, bigger focal sets, more entities, less kernel-path
share), decisions respect the worker/entity caps, and the hint /
decision handoff plumbing is thread-local and balanced.
"""

from repro.exec import cost
from repro.exec.executors import (
    AdaptiveExecutor,
    configure,
    executor_scope,
    get_executor,
    partition_count,
)


class TestEstimatorMonotonicity:
    def test_more_sources_never_lowers_entity_cost(self):
        costs = [
            cost.entity_cost(sources, focal=4.0, kernel_fraction=1.0)
            for sources in range(1, 12)
        ]
        assert costs == sorted(costs)
        assert costs[-1] > costs[0]

    def test_bigger_focal_sets_never_lower_entity_cost(self):
        costs = [
            cost.entity_cost(3.0, focal=focal, kernel_fraction=0.5)
            for focal in (1.0, 2.0, 4.0, 8.0, 16.0, 64.0)
        ]
        assert costs == sorted(costs)
        assert costs[-1] > costs[0]

    def test_fallback_path_is_never_cheaper_than_kernel(self):
        for focal in (1.0, 4.0, 16.0):
            kernel = cost.combination_cost(focal, kernel_fraction=1.0)
            mixed = cost.combination_cost(focal, kernel_fraction=0.5)
            fallback = cost.combination_cost(focal, kernel_fraction=0.0)
            assert kernel <= mixed <= fallback
            assert kernel < fallback

    def test_more_entities_never_lower_the_total(self):
        totals = [
            cost.estimate(cost.WorkloadProfile(entities=n))
            for n in (0, 1, 10, 100, 1000)
        ]
        assert totals == sorted(totals)
        assert totals[0] == 0.0

    def test_degenerate_inputs_clamp(self):
        assert cost.entity_cost(0.0, 4.0, 1.0) == cost.ENTITY_BASE_COST
        assert cost.combination_cost(0.0, 1.0) == cost.combination_cost(
            1.0, 1.0
        )
        # Out-of-range kernel fractions clamp to [0, 1].
        assert cost.combination_cost(4.0, 7.0) == cost.combination_cost(
            4.0, 1.0
        )
        assert cost.combination_cost(4.0, -3.0) == cost.combination_cost(
            4.0, 0.0
        )


class TestDecide:
    def test_tiny_workload_stays_serial(self):
        decision = cost.decide(cost.WorkloadProfile(entities=4), workers=4)
        assert decision.kind == "serial"
        assert decision.partitions == 1

    def test_single_worker_stays_serial(self):
        profile = cost.WorkloadProfile(entities=100_000, sources=4.0)
        assert cost.decide(profile, workers=1).kind == "serial"

    def test_huge_workload_goes_parallel(self):
        profile = cost.WorkloadProfile(
            entities=200_000, sources=5.0, focal=8.0, kernel_fraction=0.0
        )
        decision = cost.decide(profile, workers=4)
        assert decision.kind == "process"
        assert decision.partitions >= 2

    def test_float_federation_integrate_stays_serial(self):
        # 3 sources x 1200 entities: the warm pool cannot pay for its
        # shipping at 2 workers, so serial wins.
        profile = cost.WorkloadProfile(entities=1200, sources=3.0)
        assert cost.decide(profile, workers=2).kind == "serial"

    def test_partitions_capped_by_workers_and_entities(self):
        for entities in (2, 3, 17, 1000):
            for workers in (2, 3, 8):
                profile = cost.WorkloadProfile(
                    entities=entities, sources=6.0, focal=16.0
                )
                decision = cost.decide(profile, workers)
                assert 1 <= decision.partitions <= min(workers, entities)
                assert decision.kind in ("serial", "process")

    def test_describe_is_informative(self):
        profile = cost.WorkloadProfile(entities=12)
        assert "12 entities" in profile.describe()
        decision = cost.decide(profile, workers=4)
        assert decision.kind in decision.describe()


class TestWorkloadHints:
    def test_hint_scopes_nest_and_restore(self):
        baseline = cost.profile_for(10)
        with cost.workload(sources=5.0, focal=9.0):
            outer = cost.profile_for(10)
            assert outer.sources == 5.0
            assert outer.focal == 9.0
            with cost.workload(focal=2.0):
                inner = cost.profile_for(10)
                # None fields inherit from the enclosing hint.
                assert inner.sources == 5.0
                assert inner.focal == 2.0
            assert cost.profile_for(10).focal == 9.0
        restored = cost.profile_for(10)
        assert restored.sources == baseline.sources
        assert restored.focal == baseline.focal

    def test_size_wins_over_hinted_entities(self):
        with cost.workload(entities=999):
            assert cost.profile_for(3).entities == 3

    def test_remember_consume_roundtrip(self):
        decision = cost.Decision("process", 3, 123.0, "test")
        cost.remember(decision)
        assert cost.consume() is decision
        assert cost.consume() is None


class TestAutoConfiguration:
    def teardown_method(self):
        configure(executor="serial", workers=1, partitions=None)

    def test_auto_is_a_valid_executor_kind(self):
        with executor_scope(executor="auto", workers=4):
            executor = get_executor()
            assert isinstance(executor, AdaptiveExecutor)
            assert executor.kind == "auto"

    def test_partition_count_follows_the_decision(self):
        with executor_scope(executor="auto", workers=4):
            # A tiny batch prices serial: one partition.
            assert partition_count(3) == 1
            # A heavy batch prices parallel: more than one, never more
            # than workers or entities.
            with cost.workload(
                sources=6.0, focal=16.0, kernel_fraction=0.0
            ):
                n = partition_count(50_000)
                assert 2 <= n <= 4

    def test_explicit_partitions_still_pin_the_count(self):
        with executor_scope(executor="auto", workers=4, partitions=3):
            assert partition_count(50_000) == 3

    def test_decision_counters_accumulate(self):
        from repro.obs import registry

        counter = registry().counter("exec.auto.serial_decisions")
        before = counter.value
        with executor_scope(executor="auto", workers=4):
            partition_count(2)
        assert counter.value > before

    def test_adaptive_map_matches_serial(self):
        items = list(range(23))
        with executor_scope(executor="auto", workers=3):
            result = get_executor().map(lambda x: x * x, items)
        assert result == [x * x for x in items]


def test_observed_kernel_fraction_defaults_high():
    # Whatever the process history, the fraction is a probability.
    fraction = cost.observed_kernel_fraction()
    assert 0.0 <= fraction <= 1.0
