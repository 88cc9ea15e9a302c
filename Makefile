# Tier-1 verify and friends, each as one command.
#
#   make test           run the test suite (tier-1 gate)
#   make test-parallel  the same suite under a 4-worker thread executor
#   make test-sqlite    the same suite with SQLite as the default backend
#   make test-auto      the same suite under the cost-model-driven
#                       adaptive executor (REPRO_EXECUTOR=auto)
#   make test-process   the same suite under a 2-worker process
#                       executor: every batch ships to the warm pool
#   make test-remote    the same suite scattered over a 4-worker
#                       loopback socket cluster (repro worker run)
#   make test-remote-sharded  the same cluster with per-worker shard
#                       stores: eligible batches ship entity keys
#   make bench          run the benchmark harness (timings + assertions)
#   make bench-stream   incremental-vs-recompute ingestion benchmark
#   make bench-kernel   kernel-vs-frozenset combination benchmark
#   make bench-parallel federation/stream scaling across worker counts
#   make bench-storage  save/load/point-load per storage backend
#   make bench-adaptive warm-pool dispatch time, dirty-shard flush bytes,
#                       auto-vs-serial routing
#   make bench-remote   remote scatter/gather vs serial across local
#                       cluster sizes
#   make lint           ruff check (fails in CI when ruff is absent;
#                       skipped with a notice locally)
#   make lint-analysis  reprolint: invariant static analysis (EXACT,
#                       DETERM, CONC, BACKEND) against the baseline

PYTHON ?= python
export PYTHONPATH := src:.:$(PYTHONPATH)

.PHONY: test test-parallel test-sqlite test-auto test-process test-remote \
	test-remote-sharded bench bench-stream bench-kernel bench-parallel \
	bench-storage bench-adaptive bench-remote lint lint-analysis \
	quickstart

test:
	$(PYTHON) -m pytest -x -q

test-parallel:
	REPRO_EXECUTOR=thread REPRO_WORKERS=4 $(PYTHON) -m pytest -x -q

test-sqlite:
	REPRO_STORAGE=sqlite $(PYTHON) -m pytest -x -q

test-auto:
	REPRO_EXECUTOR=auto REPRO_WORKERS=4 $(PYTHON) -m pytest -x -q

# Four partitions over two warm workers: every partitioned batch is
# pickled to the process pool (or, when it cannot pickle, run inline).
test-process:
	REPRO_EXECUTOR=process REPRO_WORKERS=2 REPRO_PARTITIONS=4 \
		$(PYTHON) -m pytest -x -q

# `repro worker run` forks a 4-daemon loopback cluster, exports
# REPRO_EXECUTOR=remote / REPRO_WORKERS_ADDRS, and tears the cluster
# down when the suite exits.
test-remote:
	$(PYTHON) -m repro.cli worker run -n 4 -- $(PYTHON) -m pytest -x -q

# Same cluster, but every daemon owns a temporary SQLite shard store:
# batches that can be described as entity keys scatter key lists and
# workers point-load their rows locally (tuple shipping on fallback).
test-remote-sharded:
	$(PYTHON) -m repro.cli worker run -n 4 --store -- \
		$(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ -q --benchmark-only

bench-stream:
	$(PYTHON) -m pytest benchmarks/bench_stream_ingest.py -q

bench-kernel:
	$(PYTHON) -m pytest benchmarks/bench_kernel_combination.py -q

bench-parallel:
	$(PYTHON) -m pytest benchmarks/bench_parallel_integration.py -q -s

bench-storage:
	$(PYTHON) -m pytest benchmarks/bench_storage_backends.py -q -s

bench-adaptive:
	$(PYTHON) -m pytest benchmarks/bench_adaptive_runtime.py -q -s

bench-remote:
	$(PYTHON) -m pytest benchmarks/bench_remote_exec.py -q -s

# Real ruff findings always fail; only a *missing* ruff is forgiven,
# and only outside CI (GitHub Actions exports CI=true).
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	elif [ -n "$$CI" ]; then \
		echo "ruff not installed but CI is set; failing" >&2; exit 1; \
	else \
		echo "ruff not installed; skipping lint"; \
	fi

lint-analysis:
	$(PYTHON) -m repro.analysis --baseline analysis-baseline.json src

quickstart:
	$(PYTHON) examples/quickstart.py
