"""The four benchmark workloads: inputs, one operation, output checks.

Every workload is a closed loop driven by one client in one process.
Inputs come from the seed alone (``repro.datasets`` generators plus the
benchmark's own deterministic perturbations), and the program is only
reached through its public entry points.  Each workload exposes:

``generate()``
    the inputs, drawn from the seed before any timer starts
    (:func:`make_workload` calls it);
``setup()``
    preload and warm-up (timed as ``setup_s``); after ``close()`` and
    ``generate()`` the same workload can be set up again;
``run_op(index)``
    one operation, returning an :class:`Op` with the wall time of the
    part a user waits for and the work it completed;
``verify(op)``
    the output check for one operation, run outside the timed region;
``final_checks()``
    whole-run checks (store reopen, remote-vs-serial equality), run
    after the timed loop;
``close()``
    release every file, socket and worker process.

The output checks are plain functions of ``(expected inputs, output)``
so the smoke test can feed them deliberately corrupted outputs.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field

from repro import Database, Session, StreamEngine
from repro.datasets.generators import (
    SyntheticConfig,
    synthetic_pair,
    synthetic_relation,
)
from repro.ds.kernel import kernel_disabled
from repro.exec import executor_scope
from repro.integration import Federation, TupleMerger
from repro.model.etuple import ExtendedTuple
from repro.model.evidence import EvidenceSet
from repro.model.relation import ExtendedRelation
from repro.storage import create_database, open_backend

#: Uncertain attributes of the synthetic schema (``id`` is the key,
#: ``label`` is certain text).
UNCERTAIN = ("category", "score")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    entities: int  # integrate/remote/stream: entities per source
    sources: int
    batch: int  # stream: events per micro-batch
    query_entities: int  # query: tuples per relation (L and R)
    write_tuples: int  # query: tuples updated per write
    check_sample: int  # integrate/remote: entities point-checked per run


FULL = Sizes(
    entities=2000,
    sources=3,
    batch=64,
    query_entities=1000,
    write_tuples=8,
    check_sample=32,
)
TINY = Sizes(
    entities=40,
    sources=3,
    batch=8,
    query_entities=30,
    write_tuples=2,
    check_sample=4,
)


@dataclass
class Op:
    """One completed operation.

    ``seconds`` is the latency sample (the part the user waits for);
    ``entities`` / ``events`` / ``queries`` are the work it completed,
    feeding ``entities_per_s`` / ``events_per_s`` / ``queries_per_s``.
    ``output`` is what :meth:`verify` checks, when ``checked`` is set.
    """

    seconds: float
    entities: int
    events: int
    queries: int
    kind: str = "op"
    output: object = None
    checked: bool = True
    context: dict = field(default_factory=dict)


# -- input generation ---------------------------------------------------------


def federation_config(seed: int, entities: int) -> SyntheticConfig:
    """The integrate/remote/stream source shape.

    Float masses over 12-value domains, at most 3 focal elements, OMEGA
    always present (``ignorance=1.0``: no total conflict can occur), 40%
    of attribute values drawn independently of the first source, 20% of
    memberships uncertain.
    """
    return SyntheticConfig(
        n_tuples=entities,
        overlap=1.0,
        domain_size=12,
        max_focal=3,
        ignorance=1.0,
        conflict=0.4,
        uncertain_membership=0.2,
        exact=False,
        seed=seed,
    )


def _reweighted(evidence: EvidenceSet, rng: random.Random) -> EvidenceSet:
    """Same focal elements, fresh float weights (the generator's scheme)."""
    elements = list(evidence.focal_elements())
    raw = [rng.randint(1, 9) for _ in elements]
    total = sum(raw)
    return EvidenceSet(
        {element: value / total for element, value in zip(elements, raw)},
        evidence.domain,
    )


def federation_sources(seed: int, sizes: Sizes) -> list[ExtendedRelation]:
    """``sizes.sources`` relations over the same keys ``0..entities-1``.

    Source ``s0`` is a synthetic relation; every later source re-weights
    ``s0``'s focal elements per attribute, except that with probability
    ``conflict`` the value is drawn independently instead (what makes
    Dempster conflict non-trivial).  Memberships are drawn per source.
    """
    config = federation_config(seed, sizes.entities)
    base = synthetic_relation(config, "s0")
    sources = [base]
    for index in range(1, sizes.sources):
        name = f"s{index}"
        fresh = synthetic_relation(config, name)
        rng = random.Random(f"{seed}/diverge/{name}")
        rows = []
        for base_tuple, fresh_tuple in zip(base, fresh):
            values = dict(fresh_tuple.items())
            for attribute in UNCERTAIN:
                if rng.random() >= config.conflict:
                    values[attribute] = _reweighted(
                        base_tuple.evidence(attribute), rng
                    )
            rows.append(
                ExtendedTuple(fresh.schema, values, fresh_tuple.membership)
            )
        sources.append(ExtendedRelation(fresh.schema, rows))
    return sources


def build_federation(sources: list[ExtendedRelation]) -> Federation:
    federation = Federation(TupleMerger(on_conflict="vacuous"))
    for relation in sources:
        federation.add_source(relation.name, relation)
    return federation


def work_dir(root: str, name: str) -> str:
    """A fresh scratch directory for one set-up (inside the checkout)."""
    path = os.path.join(root, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# -- output checks ------------------------------------------------------------


def same_relation(expected: ExtendedRelation, actual) -> list[str]:
    """Tuples *and* order equal; returns failure messages."""
    if not isinstance(actual, ExtendedRelation):
        return [f"expected a relation, got {type(actual).__name__}"]
    failures = []
    if actual != expected:
        failures.append(
            f"relation differs ({len(actual)} tuples, expected {len(expected)})"
        )
    if list(actual.keys()) != list(expected.keys()):
        failures.append("tuple order differs")
    return failures


def check_integrated(
    federation: Federation,
    expected_order: list,
    sample_keys: list,
    relation,
) -> list[str]:
    """The integrate output check.

    The relation keeps the first source's key order (every source holds
    every key, so each merge step emits matched tuples in left order),
    and each sampled entity equals both the point path
    (``Federation.integrate_entity``) and the frozenset path of the same
    point query under ``kernel_disabled()``.
    """
    if not isinstance(relation, ExtendedRelation):
        return [f"expected a relation, got {type(relation).__name__}"]
    failures = []
    if list(relation.keys()) != expected_order:
        failures.append("integrated tuple order differs from source order")
    for key in sample_keys:
        actual = relation.get(key)
        point = federation.integrate_entity(key, name=relation.name)
        if actual != point:
            failures.append(f"entity {key!r} differs from the point path")
            continue
        with kernel_disabled():
            reference = federation.integrate_entity(key, name=relation.name)
        if actual != reference:
            failures.append(f"entity {key!r} differs from the frozenset path")
    return failures


def check_stream(engine: StreamEngine, relation) -> list[str]:
    """The stream's relation equals ``Federation.integrate`` over the
    engine's current per-source snapshots (conflict-free path: exact)."""
    federation = Federation(TupleMerger(on_conflict="vacuous"))
    for source in engine.sources():
        federation.add_source(source, engine.source_snapshot(source))
    expected, _ = federation.integrate(name=engine.schema.name)
    if relation != expected:
        return ["stream relation differs from Federation.integrate of snapshots"]
    return []


def check_reopened(url: str, name: str, relation, watermark: int) -> list[str]:
    """Reopening the sqlite store gives back the relation and watermark."""
    failures = []
    with open_backend(url) as backend:
        stored = backend.load_relation(name)
        stored_watermark = backend.stream_watermark(name)
    if stored != relation:
        failures.append("reopened store holds a different relation")
    if stored_watermark != watermark:
        failures.append(
            f"reopened watermark {stored_watermark} != engine {watermark}"
        )
    return failures


def check_query(database: Database, text: str, result) -> list[str]:
    """A fresh session (empty caches) returns the same relation, in the
    same order, against the same catalog version."""
    expected = Session(database).execute(text)
    return [f"{text}: {message}" for message in same_relation(expected, result)]


# -- workloads ----------------------------------------------------------------


class Workload:
    """Shared shape; see the module docstring."""

    name = "?"
    #: The Op field that counts this workload's primary work unit.
    unit = "queries"

    def __init__(self, seed: int, sizes: Sizes, root: str):
        self.seed = seed
        self.sizes = sizes
        self.root = root

    def input_sizes(self) -> dict:
        raise NotImplementedError

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, index: int) -> Op:
        raise NotImplementedError

    def verify(self, op: Op) -> list[str]:
        return []

    def final_checks(self) -> list[str]:
        return []

    def program_counters(self) -> dict:
        """The workload's own ``Session``/``StreamEngine`` counters."""
        return {}

    def close(self) -> None:
        pass


class IntegrateWorkload(Workload):
    """``Federation.integrate`` on the serial executor, back to back."""

    name = "integrate"
    unit = "entities"

    def input_sizes(self) -> dict:
        return {"sources": self.sizes.sources, "entities": self.sizes.entities}

    def _scope(self):
        return executor_scope(executor="serial", workers=1, partitions=None)

    def generate(self) -> None:
        self.sources = federation_sources(self.seed, self.sizes)
        self.order = list(self.sources[0].keys())

    def setup(self) -> None:
        self.federation = build_federation(self.sources)
        self._exec = self._scope()
        self._exec.__enter__()
        self.reference = self.run_op(-1).output

    def run_op(self, index: int) -> Op:
        started = time.perf_counter()
        relation, _ = self.federation.integrate(name="F")
        elapsed = time.perf_counter() - started
        return Op(
            elapsed,
            entities=len(relation),
            events=sum(len(source) for source in self.sources),
            queries=1,
            output=relation,
        )

    def verify(self, op: Op) -> list[str]:
        # Every op reproduces the warm-up result exactly.  The heavier
        # point-path checks of that result wait for final_checks(): run
        # between ops, their allocations would shift garbage collections
        # into the timed ops.
        return same_relation(self.reference, op.output)

    def final_checks(self) -> list[str]:
        rng = random.Random(f"{self.seed}/sample")
        sample = rng.sample(self.order, self.sizes.check_sample)
        return check_integrated(
            self.federation, self.order, sample, self.reference
        )

    def close(self) -> None:
        scope, self._exec = getattr(self, "_exec", None), None
        if scope is not None:
            scope.__exit__(None, None, None)


class RemoteWorkload(IntegrateWorkload):
    """The integrate inputs on a loopback cluster with shard stores.

    ``REPRO_REMOTE_THRESHOLD=0`` forces every batch across the wire (the
    cost gate would otherwise keep them local on a small box).
    """

    name = "remote"
    _ENV = ("REPRO_WORKERS_ADDRS", "REPRO_REMOTE_THRESHOLD")

    def __init__(self, seed: int, sizes: Sizes, root: str, workers: int):
        super().__init__(seed, sizes, root)
        self.workers = workers
        self._cluster = None
        self._saved_env = None

    def input_sizes(self) -> dict:
        return {**super().input_sizes(), "workers": self.workers}

    def _scope(self):
        from repro.exec.remote import spawn_local_cluster

        store_dir = work_dir(self.root, "remote-stores")
        self._cluster = spawn_local_cluster(self.workers, store_dir=store_dir)
        self._saved_env = {key: os.environ.get(key) for key in self._ENV}
        os.environ["REPRO_WORKERS_ADDRS"] = self._cluster.addr_spec
        os.environ["REPRO_REMOTE_THRESHOLD"] = "0"
        return executor_scope(
            executor="remote", workers=self.workers, partitions=self.workers * 2
        )

    def final_checks(self) -> list[str]:
        # The remote result must be bit-for-bit the serial fold.
        with executor_scope(executor="serial", workers=1, partitions=None):
            serial, _ = self.federation.integrate(name="F")
        return super().final_checks() + [
            f"remote vs serial: {message}"
            for message in same_relation(serial, self.reference)
        ]

    def close(self) -> None:
        try:
            super().close()
        finally:
            cluster, self._cluster = self._cluster, None
            if cluster is not None:
                cluster.stop()
            saved, self._saved_env = self._saved_env, None
            for key, value in (saved or {}).items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value


class _EventScript:
    """Seeded stream events over a fixed key universe.

    Events are re-assertions with fresh evidence (each (source, key)
    alternates between two pre-generated versions), retractions, and
    re-arrivals of retracted pairs.  At most ``cap`` pairs are retracted
    at once, so the resident state keeps the same size however long the
    run lasts.
    """

    def __init__(self, seed: int, versions: list[list[ExtendedRelation]]):
        self._rng = random.Random(f"{seed}/events")
        self._versions = [
            [list(relation) for relation in per_source] for per_source in versions
        ]
        self._names = [relation.name for relation in versions[0]]
        n_keys = len(self._versions[0][0])
        self._current = {
            (source, index): 0
            for source in range(len(self._names))
            for index in range(n_keys)
        }
        self._asserted = list(self._current)
        self._retracted: list[tuple] = []
        self._cap = max(1, len(self._asserted) // 20)

    def batch(self, size: int) -> list[tuple]:
        """``size`` events as ``("upsert", source, tuple)`` /
        ``("retract", source, key)`` triples, keeping the script's state."""
        rng = self._rng
        events = []
        for _ in range(size):
            roll = rng.random()
            if roll < 0.15 and len(self._retracted) < self._cap:
                pair = self._take(self._asserted, rng)
                self._retracted.append(pair)
                source, index = pair
                etuple = self._versions[self._current[pair]][source][index]
                events.append(("retract", self._names[source], etuple.key()))
                continue
            if roll < 0.30 and self._retracted:
                pair = self._take(self._retracted, rng)
                self._asserted.append(pair)
            else:
                pair = self._asserted[rng.randrange(len(self._asserted))]
            self._current[pair] ^= 1
            source, index = pair
            etuple = self._versions[self._current[pair]][source][index]
            events.append(("upsert", self._names[source], etuple))
        return events

    @staticmethod
    def _take(pool: list, rng: random.Random):
        position = rng.randrange(len(pool))
        pool[position], pool[-1] = pool[-1], pool[position]
        return pool.pop()


class StreamWorkload(Workload):
    """Micro-batches into a sqlite-backed ``StreamEngine`` with a catalog."""

    name = "stream"
    unit = "events"

    def __init__(self, seed: int, sizes: Sizes, root: str):
        super().__init__(seed, sizes, root)
        self.backend = None
        self.engine = None

    def input_sizes(self) -> dict:
        return {
            "sources": self.sizes.sources,
            "entities": self.sizes.entities,
            "batch_events": self.sizes.batch,
        }

    def generate(self) -> None:
        self.sources = federation_sources(self.seed, self.sizes)
        # Re-assertions alternate each (source, key) between its source
        # tuple and an independently drawn one.
        fresh = federation_config(self.seed + 1_000_003, self.sizes.entities)
        self.alternates = [
            synthetic_relation(fresh, relation.name) for relation in self.sources
        ]

    def setup(self) -> None:
        sources = self.sources
        self.script = _EventScript(self.seed, [sources, self.alternates])
        self.next_events = self.script.batch(self.sizes.batch)
        directory = work_dir(self.root, "stream")
        self.url = "sqlite:" + os.path.join(directory, "stream.sqlite")
        self.backend = open_backend(self.url)
        self.database = Database("bench")
        self.engine = StreamEngine(
            sources[0].schema,
            name="F",
            merger=TupleMerger(on_conflict="vacuous"),
            database=self.database,
            backend=self.backend,
            profile_batches=True,
        )
        for relation in sources:
            for etuple in relation:
                self.engine.upsert(relation.name, etuple)
        self.engine.flush()
        for index in range(3):
            self.run_op(-1 - index)

    def run_op(self, index: int) -> Op:
        events = self.next_events
        engine = self.engine
        started = time.perf_counter()
        for kind, source, payload in events:
            if kind == "upsert":
                engine.upsert(source, payload)
            else:
                engine.retract(source, payload)
        delta = engine.flush()
        elapsed = time.perf_counter() - started
        # The next batch is generated outside the timed region.
        self.next_events = self.script.batch(self.sizes.batch)
        keys = {
            payload.key() if kind == "upsert" else payload
            for kind, _source, payload in events
        }
        return Op(
            elapsed,
            entities=len(keys),
            events=len(events),
            queries=1,
            output=delta,
        )

    def verify(self, op: Op) -> list[str]:
        delta = op.output
        failures = []
        if delta.events != op.events:
            failures.append(f"batch reports {delta.events} of {op.events} events")
        if delta.watermark != self.engine.watermark:
            failures.append(f"batch watermark {delta.watermark} is not the engine's")
        return failures

    def final_checks(self) -> list[str]:
        relation = self.engine.relation
        failures = check_stream(self.engine, relation)
        if self.database.get("F") != relation:
            failures.append("catalog holds a different relation than the engine")
        return failures + check_reopened(
            self.url, "F", relation, self.engine.watermark
        )

    def program_counters(self) -> dict:
        stats = self.engine.stats()
        return {
            "stream.refolds": stats.refolds,
            "stream.combinations": stats.combinations,
        }

    def close(self) -> None:
        backend, self.backend = self.backend, None
        if backend is not None:
            backend.close()
        self.engine = None


#: Query templates, used in turn by consecutive reads: (label, text with
#: ``{}`` slots for the constants).
TEMPLATES = (
    ("select_l", "SELECT * FROM L WHERE category IS {{{}}} WITH SP >= {}"),
    ("select_r_sn", "SELECT * FROM R WHERE score IS {{{}}} WITH SN >= {}"),
    ("select_union", "SELECT * FROM (L UNION R) WHERE category IS {{{}}}"),
    ("project_union", "SELECT id, category FROM (L UNION R) WITH SN >= {}"),
)


class QueryWorkload(Workload):
    """A ``Session`` over a lazily opened sqlite catalog of L and R.

    Exact Fraction masses and all memberships uncertain.  Constants are
    drawn Zipf-skewed from pools large enough that the distinct query
    texts outnumber the 256-entry session cache; every 20th operation is
    a write of ``write_tuples`` tuples of R.

    The output check runs on the first read and on the first read after
    each write.  There are 19 reads between writes, so those checked
    reads cycle through all four templates, and three of every four
    checked reads see R just after a write invalidated the caches.
    """

    name = "query"
    unit = "queries"
    WRITE_EVERY = 20
    #: Reads of one template per stratified block of constants.
    STRATA = 64

    def __init__(self, seed: int, sizes: Sizes, root: str):
        super().__init__(seed, sizes, root)
        self.database = None

    def input_sizes(self) -> dict:
        return {
            "relations": 2,
            "entities": self.sizes.query_entities,
            "overlap": 0.5,
            "write_tuples": self.sizes.write_tuples,
            "write_every": self.WRITE_EVERY,
        }

    def _config(self, seed: int, n: int) -> SyntheticConfig:
        return SyntheticConfig(
            n_tuples=n,
            overlap=0.5,
            ignorance=1.0,
            uncertain_membership=1.0,
            exact=True,
            seed=seed,
        )

    def generate(self) -> None:
        n = self.sizes.query_entities
        left, right = synthetic_pair(self._config(self.seed, n), "L", "R")
        self.relations = (left, right)
        # Fresh versions of every R tuple, alternated by the writes.
        fresh = synthetic_relation(self._config(self.seed + 7, 2 * n), "R")
        self.fresh_r = {
            etuple.key(): ExtendedTuple(
                right.schema,
                {
                    **dict(fresh.get(etuple.key()).items()),
                    "label": etuple.value("label"),
                },
                fresh.get(etuple.key()).membership,
            )
            for etuple in right
        }
        self.r_keys = list(right.keys())
        self.queries = self._query_texts()

    def setup(self) -> None:
        left, right = self.relations
        self.alternate = dict(self.fresh_r)
        directory = work_dir(self.root, "query")
        self.url = "sqlite:" + os.path.join(directory, "catalog.sqlite")
        seeded = create_database(self.url, name="bench")
        seeded.add(left)
        seeded.add(right)
        seeded.persist()
        seeded.close()
        self.database = Database.open(self.url)
        self.session = Session(self.database)
        self.write_rng = random.Random(f"{self.seed}/writes")
        for text in self.queries[-len(TEMPLATES):]:
            self.session.execute(text)

    def _query_texts(self) -> list[str]:
        """The seeded read script: the templates in turn, each with
        Zipf-skewed constants.

        The popularity ranking of the constants is the same for every
        seed (a query's cost depends on its constants, and the top ranks
        carry much of the mix); the seed draws the sequence.  The draws
        are stratified: each block of ``STRATA`` reads of a template
        takes one rank from each 1/``STRATA`` slice of the Zipf
        distribution, in seeded order, so every seed reads the popular
        constants equally often and the seeds differ in the tail.
        """
        rng = random.Random(f"{self.seed}/queries")
        categories = [f"c{i}" for i in range(12)]
        category_sets = categories + [
            f"{a}, {b}" for i, a in enumerate(categories) for b in categories[i + 1:]
        ]
        scores = [str(value) for value in range(12)]
        thresholds = [f"0.{value:02d}" for value in range(1, 100)]
        pools = {
            "select_l": [(c, t) for c in category_sets for t in thresholds],
            "select_r_sn": [(s, t) for s in scores for t in thresholds],
            "select_union": [(c,) for c in category_sets],
            "project_union": [(t,) for t in thresholds],
        }
        ranking = random.Random("query-constant-ranking")
        for pool in pools.values():
            ranking.shuffle(pool)
        per_template = 1024
        ranks = {}
        for label, pool in pools.items():
            ranks[label] = []
            for _ in range(per_template // self.STRATA):
                # Zipf(1)-like rank: P(rank <= r) = log(r + 1) / log(len(pool)).
                start = rng.random()
                block = [
                    int(len(pool) ** ((i + start) / self.STRATA)) - 1
                    for i in range(self.STRATA)
                ]
                rng.shuffle(block)
                ranks[label] += block
        texts = []
        for index in range(per_template * len(TEMPLATES)):
            label, template = TEMPLATES[index % len(TEMPLATES)]
            pool = pools[label]
            rank = ranks[label][index // len(TEMPLATES)]
            texts.append(template.format(*pool[min(rank, len(pool) - 1)]))
        return texts

    def run_op(self, index: int) -> Op:
        if index % self.WRITE_EVERY == self.WRITE_EVERY - 1:
            return self._write()
        reads_before = index - (index + 1) // self.WRITE_EVERY
        text = self.queries[reads_before % len(self.queries)]
        label = TEMPLATES[reads_before % len(TEMPLATES)][0]
        started = time.perf_counter()
        result = self.session.execute(text)
        elapsed = time.perf_counter() - started
        return Op(
            elapsed,
            entities=len(result),
            events=0,
            queries=1,
            kind="read",
            output=result,
            checked=index % self.WRITE_EVERY == 0,
            context={"text": text, "template": label},
        )

    def _write(self) -> Op:
        keys = self.write_rng.sample(self.r_keys, self.sizes.write_tuples)
        started = time.perf_counter()
        current = self.database.get("R")
        upserts = []
        for key in keys:
            replacement = self.alternate[key]
            self.alternate[key] = current.get(key)
            upserts.append(replacement)
        replaced = {etuple.key(): etuple for etuple in upserts}
        updated = ExtendedRelation(
            current.schema, [replaced.get(t.key(), t) for t in current]
        )
        self.database.add(updated, replace=True)
        self.database.backend.apply_relation_delta(
            "R", current.schema, upserts, []
        )
        elapsed = time.perf_counter() - started
        return Op(
            elapsed,
            entities=len(upserts),
            events=len(upserts),
            queries=1,
            kind="write",
            checked=False,
        )

    def verify(self, op: Op) -> list[str]:
        return check_query(self.database, op.context["text"], op.output)

    def final_checks(self) -> list[str]:
        # The store must hold what the catalog serves after all writes.
        with open_backend(self.url) as backend:
            stored = backend.load_relation("R")
        if stored != self.database.get("R"):
            return ["stored R differs from the catalog's R"]
        return []

    def program_counters(self) -> dict:
        stats = self.session.stats()
        return {
            f"session.{name}": getattr(stats, name)
            for name in (
                "queries",
                "plans_built",
                "plan_cache_hits",
                "result_cache_hits",
                "node_executions",
                "entries_invalidated",
            )
        }

    def close(self) -> None:
        database, self.database = self.database, None
        if database is not None:
            database.close()


def make_workload(name: str, seed: int, sizes: Sizes, root: str) -> Workload:
    """The workload *name* with its inputs generated from *seed*."""
    if name == "integrate":
        workload = IntegrateWorkload(seed, sizes, root)
    elif name == "remote":
        workload = RemoteWorkload(seed, sizes, root, workers=os.cpu_count() or 1)
    elif name == "stream":
        workload = StreamWorkload(seed, sizes, root)
    elif name == "query":
        workload = QueryWorkload(seed, sizes, root)
    else:
        raise ValueError(f"unknown workload {name!r}")
    workload.generate()
    return workload


WORKLOADS = ("integrate", "stream", "query", "remote")
