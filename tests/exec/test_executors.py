"""Unit tests for the execution layer: executors, config, partitioning."""

import os
import subprocess
import sys

import pytest

from repro.errors import ConfigError, ExecutionError, RelationError
from repro.exec import (
    EXECUTOR_KINDS,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    configure,
    current_config,
    describe_physical,
    exec_stats,
    executor_scope,
    get_executor,
    partition_count,
    partition_index,
)
from repro.exec.executors import _config_from_env, _inside_task
from repro.exec.rewrite import default_pipeline
from repro.datasets.restaurants import table_ra
from repro.model.relation import ExtendedRelation


class TestConfiguration:
    def test_default_is_serial_with_one_partition(self):
        with executor_scope(executor="serial", workers=1, partitions=None):
            config = current_config()
            assert config.kind == "serial"
            assert config.effective_partitions() == 1
            assert isinstance(get_executor(), SerialExecutor)

    def test_configure_switches_executor_kinds(self):
        with executor_scope():
            assert configure(executor="thread", workers=3).kind == "thread"
            assert isinstance(get_executor(), ThreadExecutor)
            assert configure(executor="process", workers=2).kind == "process"
            assert isinstance(get_executor(), ProcessExecutor)

    def test_partitions_default_to_workers(self):
        with executor_scope(executor="thread", workers=5):
            assert current_config().effective_partitions() == 5
            assert partition_count(100) == 5
            # ... but never more partitions than entities.
            assert partition_count(3) == 3
            assert partition_count(1) == 1

    def test_explicit_partitions_override_workers(self):
        with executor_scope(executor="thread", workers=2, partitions=7):
            assert partition_count(100) == 7

    def test_serial_with_explicit_partitions_still_partitions(self):
        with executor_scope(executor="serial", partitions=4):
            assert partition_count(100) == 4

    def test_bad_values_raise(self):
        with pytest.raises(ExecutionError):
            configure(executor="gpu")
        with pytest.raises(ExecutionError):
            configure(workers=0)
        with pytest.raises(ExecutionError):
            configure(partitions=0)

    def test_describe_mentions_kind_workers_partitions(self):
        with executor_scope(executor="thread", workers=4) as config:
            text = config.describe()
            assert "thread" in text and "4 worker(s)" in text
            assert "4 partition(s)" in text

    def test_env_variables_choose_the_executor(self):
        code = (
            "from repro.exec import current_config;"
            "c = current_config();"
            "print(c.kind, c.workers, c.effective_partitions())"
        )
        env = dict(
            os.environ,
            REPRO_EXECUTOR="thread",
            REPRO_WORKERS="3",
            REPRO_PARTITIONS="5",
            PYTHONPATH="src",
        )
        output = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True, cwd="/root/repo",
        ).stdout.split()
        assert output == ["thread", "3", "5"]

    def test_malformed_env_surfaces_as_clean_error_not_at_import(self):
        """A bad REPRO_* variable must not make the package unimportable;
        it raises ExecutionError on first use of the configuration."""
        code = (
            "import repro\n"
            "from repro.errors import ExecutionError\n"
            "from repro.exec import current_config\n"
            "try:\n"
            "    current_config()\n"
            "except ExecutionError as exc:\n"
            "    print('clean error:', exc)\n"
        )
        env = dict(os.environ, REPRO_WORKERS="four", PYTHONPATH="src")
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
            cwd="/root/repo",
        )
        assert "clean error: REPRO_WORKERS must be an integer" in result.stdout

    @pytest.mark.parametrize(
        "name, value",
        [
            ("REPRO_PARTITIONS", "-3"),
            ("REPRO_PARTITIONS", "0"),
            ("REPRO_WORKERS", "-2"),
        ],
    )
    def test_out_of_range_env_values_raise(self, monkeypatch, name, value):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        monkeypatch.setenv(name, value)
        with pytest.raises(ConfigError, match=name):
            _config_from_env()

    def test_zero_workers_env_means_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        monkeypatch.setenv("REPRO_WORKERS", "0")
        monkeypatch.delenv("REPRO_PARTITIONS", raising=False)
        assert _config_from_env().workers == (os.cpu_count() or 1)

    def test_all_kinds_are_constructible(self):
        for kind in EXECUTOR_KINDS:
            with executor_scope(executor=kind, workers=2):
                assert get_executor().kind == kind


class TestExecutors:
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_map_preserves_order(self, kind):
        with executor_scope(executor=kind, workers=3):
            result = get_executor().map(lambda x: x * x, range(17))
            assert result == [x * x for x in range(17)]

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_map_propagates_exceptions(self, kind):
        def boom(x):
            if x == 5:
                raise ValueError("task 5 failed")
            return x

        with executor_scope(executor=kind, workers=3):
            with pytest.raises(ValueError, match="task 5"):
                get_executor().map(boom, range(8))

    def test_nested_fan_out_runs_inline(self):
        """A batch issued from inside a task must not re-enter the pool."""
        with executor_scope(executor="thread", workers=2):
            stats = exec_stats()
            baseline = stats.parallel_batches

            def outer(x):
                inner = get_executor().map(lambda y: y + 1, range(4))
                return sum(inner) + x

            result = get_executor().map(outer, range(6))
            assert result == [sum(range(1, 5)) + x for x in range(6)]
            # Only the outer batch fanned out.
            assert stats.parallel_batches == baseline + 1

    def test_single_item_batches_run_inline(self):
        with executor_scope(executor="thread", workers=4):
            stats = exec_stats()
            before = stats.parallel_batches
            assert get_executor().map(lambda x: x, [42]) == [42]
            assert stats.parallel_batches == before

    def test_inside_task_guard_nests(self):
        assert partition_count(100) >= 1
        with _inside_task():
            assert partition_count(100) == 1


class TestPartitioning:
    def test_partition_index_is_stable_and_in_range(self):
        for key in [("a",), ("b", 2), (7,)]:
            index = partition_index(key, 4)
            assert 0 <= index < 4
            assert partition_index(key, 4) == index

    def test_partitions_roundtrip_preserves_tuples_and_policy(self):
        relation = table_ra()
        for n in (1, 2, 3, 8, 17):
            parts = relation.partitions(n)
            assert len(parts) == n
            assert sum(len(part) for part in parts) == len(relation)
            rebuilt = ExtendedRelation.from_partitions(relation.schema, parts)
            assert rebuilt.same_tuples(relation)

    def test_partitions_are_key_disjoint(self):
        parts = table_ra().partitions(3)
        seen = set()
        for part in parts:
            keys = set(part.keys())
            assert not keys & seen
            seen |= keys

    def test_same_entity_lands_in_same_shard_across_relations(self):
        from repro.datasets.restaurants import table_rb

        n = 4
        left_parts = table_ra().partitions(n)
        right_parts = table_rb().partitions(n)
        for index in range(n):
            for key in left_parts[index].keys():
                assert partition_index(key, n) == index
            for key in right_parts[index].keys():
                assert partition_index(key, n) == index

    def test_from_partitions_rejects_overlapping_parts(self):
        relation = table_ra()
        with pytest.raises(RelationError, match="duplicate key"):
            ExtendedRelation.from_partitions(
                relation.schema, [relation, relation]
            )

    def test_partition_count_validation(self):
        with pytest.raises(RelationError):
            table_ra().partitions(0)


class TestRewritePipeline:
    def test_pipeline_names_are_exposed(self):
        assert default_pipeline().describe() == (
            "fuse-and-push-selections -> prune-projections"
        )

    def test_pipeline_is_idempotent(self):
        from repro.storage import Database
        from repro.query.parser import parse
        from repro.query.planner import build_plan

        db = Database()
        db.add(table_ra())
        plan = build_plan(
            parse("SELECT rname FROM RA WHERE rating IS {ex}"), db
        )
        pipeline = default_pipeline()
        once = pipeline.run(plan)
        twice = pipeline.run(once)
        assert once.describe() == twice.describe()


class TestPhysicalLowering:
    def test_describe_physical_shows_strategies(self):
        from repro.storage import Database

        db = Database()
        db.add(table_ra())
        plan = db.session().plan("SELECT rname FROM RA WHERE rating IS {ex}")
        text = describe_physical(plan)
        assert "partition input" in text
        assert "Scan RA" in text
