"""Physical execution: logical plans lowered onto partitioned operators.

The logical plan IR (:mod:`repro.query.plans`) describes *what* to
compute; this module decides *how*.  Every logical node lowers 1:1 onto
a physical operator that may shard its input(s) into hash partitions
(:meth:`repro.model.relation.ExtendedRelation.partitions`), evaluate
the node per partition through the configured
:class:`~repro.exec.executors.Executor`, and reassemble the partition
results **in the exact order the serial evaluation would have
produced** -- so plans executed under any executor and any partition
count return relations identical (tuples, order, exact Fractions,
bit-for-bit floats) to the historical serial path.

Per-operator strategy:

* ``Scan`` / ``Literal`` -- never partitioned (catalog lookups).
* ``Select`` / ``Project`` / ``Rename`` -- tuple-wise: each partition
  evaluates the node on its shard; reassembly follows the input
  relation's key order.
* ``Union`` / ``Intersect`` -- delegated to the algebra's
  per-entity merge (:func:`repro.algebra.union.union_with_report` /
  :func:`repro.algebra.intersection.intersection_with_report`), which
  shards matched-entity work itself through the same executor.
* ``Product`` -- the left input is partitioned, each task pairs its
  shard with the whole right input; reassembly follows the serial
  left-major order.

Entry points: :func:`run_plan` executes a whole plan tree (what
:meth:`repro.query.plans.Plan.execute` delegates to), and
:func:`apply_node` evaluates a single node given its children's results
(what :meth:`repro.session.Session._run` calls between its per-subtree
result-cache lookups -- fingerprints and cache keys are untouched by
physical lowering).
"""

from __future__ import annotations

from repro.exec.executors import get_executor, partition_count
from repro.model.relation import ExtendedRelation
from repro.obs import tracing
from repro.query.plans import (
    IntersectPlan,
    LiteralPlan,
    Plan,
    ProductPlan,
    ProjectPlan,
    RenamePlan,
    ScanPlan,
    SelectPlan,
    UnionPlan,
)


def _apply_part(common, part) -> ExtendedRelation:
    """Evaluate one node on one shard (module-level: pickles by reference).

    *common* is ``(plan, right)``: the node, and the broadcast right
    input of a product (``None`` for the tuple-wise operators).  None of
    these nodes reads the database, so none ships.
    """
    plan, right = common
    return plan.apply((part,) if right is None else (part, right), None)


class PhysicalOperator:
    """A physical counterpart of one logical node (plus lowered children)."""

    #: Human-readable partitioning strategy, overridden per operator.
    strategy = "passthrough"

    #: Short operator name used in span names (``physical.<op>``).
    op = "node"

    def __init__(self, plan: Plan, children: tuple["PhysicalOperator", ...]):
        self.plan = plan
        self.children = children

    def schema(self):
        """The operator's output schema (the logical node's)."""
        return self.plan.schema()

    def execute(self, database) -> ExtendedRelation:
        """Evaluate the whole physical subtree."""
        inputs = tuple(child.execute(database) for child in self.children)
        return self.traced_apply(inputs, database)

    def apply(self, inputs, database) -> ExtendedRelation:
        """Evaluate this operator alone, given its children's results."""
        return self.plan.apply(inputs, database)

    def traced_apply(self, inputs, database) -> ExtendedRelation:
        """:meth:`apply` wrapped in a ``physical.<op>`` tracing span.

        The one extra cost with tracing disabled is the flag check; with
        it enabled the span records the node label and the exact
        input/output row counts.
        """
        if not tracing.enabled():
            return self.apply(inputs, database)
        with tracing.span(
            "physical." + self.op, label=self.plan.label()
        ) as current:
            result = self.apply(inputs, database)
            current.note(
                rows_in=[len(relation) for relation in inputs],
                rows_out=len(result),
            )
            return result

    def describe(self, indent: int = 0) -> str:
        """The physical tree as indented text (strategy per node)."""
        lines = ["  " * indent + f"{self.plan.label()}  <{self.strategy}>"]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.plan.label()!r})"


class PhysicalScan(PhysicalOperator):
    """Catalog lookup; nothing to partition."""

    op = "scan"


class PhysicalLiteral(PhysicalOperator):
    """In-memory relation; nothing to partition."""

    op = "literal"


class _TupleWise(PhysicalOperator):
    """Shared shape of the per-tuple operators (select/project/rename).

    The logical node is evaluated once per input shard; since these
    operators never mix entities, reassembling the shard results in the
    input relation's key order reproduces the serial output exactly.
    """

    strategy = "partition input, reassemble in input order"

    def apply(self, inputs, database) -> ExtendedRelation:
        (relation,) = inputs
        n = partition_count(len(relation))
        if n <= 1:
            return self.plan.apply(inputs, database)
        results = get_executor().map_encoded(
            _apply_part, (self.plan, None), relation.partitions(n)
        )
        merged: dict[tuple, object] = {}
        for part_result in results:
            for etuple in part_result:
                merged[etuple.key()] = etuple
        ordered = [merged[key] for key in relation.keys() if key in merged]
        # Part results carry the schema the serial evaluation would have
        # derived from the runtime input (bind-time plan schemas can
        # differ in relation *name* for literal-rooted plans).
        return ExtendedRelation(results[0].schema, ordered, on_unsupported="drop")


class PhysicalSelect(_TupleWise):
    """Extended selection, sharded tuple-wise."""

    op = "select"


class PhysicalProject(_TupleWise):
    """Extended projection, sharded tuple-wise."""

    op = "project"


class PhysicalRename(_TupleWise):
    """Attribute renaming, sharded tuple-wise."""

    op = "rename"


class PhysicalUnion(PhysicalOperator):
    """Extended union; the algebra merge shards per entity itself."""

    strategy = "per-entity merge tasks (in algebra.union)"
    op = "union"


class PhysicalIntersect(PhysicalOperator):
    """Extended intersection; the algebra merge shards per entity itself."""

    strategy = "per-entity merge tasks (in algebra.union)"
    op = "intersect"


class PhysicalProduct(PhysicalOperator):
    """Cartesian product: left input sharded, right broadcast."""

    strategy = "partition left, broadcast right"
    op = "product"

    def apply(self, inputs, database) -> ExtendedRelation:
        left, right = inputs
        n = partition_count(len(left))
        if n <= 1 or len(right) == 0:
            return self.plan.apply(inputs, database)
        results = get_executor().map_encoded(
            _apply_part, (self.plan, right), left.partitions(n)
        )
        merged: dict[tuple, object] = {}
        for part_result in results:
            for etuple in part_result:
                merged[etuple.key()] = etuple
        # Serial order is left-major: for each left tuple, every right
        # tuple in right order.  The product key concatenates the two
        # input keys (left key attributes precede right ones in the
        # concatenated schema), so the pairing is directly addressable.
        ordered = []
        for left_key in left.keys():
            for right_key in right.keys():
                etuple = merged.get(left_key + right_key)
                if etuple is not None:
                    ordered.append(etuple)
        return ExtendedRelation(results[0].schema, ordered, on_unsupported="drop")


_OPERATORS: dict[type, type] = {
    ScanPlan: PhysicalScan,
    LiteralPlan: PhysicalLiteral,
    SelectPlan: PhysicalSelect,
    ProjectPlan: PhysicalProject,
    RenamePlan: PhysicalRename,
    UnionPlan: PhysicalUnion,
    IntersectPlan: PhysicalIntersect,
    ProductPlan: PhysicalProduct,
}


def lower(plan: Plan) -> PhysicalOperator:
    """Lower a logical plan tree to its physical operator tree."""
    operator = _OPERATORS.get(type(plan), PhysicalOperator)
    return operator(plan, tuple(lower(child) for child in plan.children()))


def lower_node(plan: Plan) -> PhysicalOperator:
    """Lower a single node (children not lowered; for per-node engines)."""
    operator = _OPERATORS.get(type(plan), PhysicalOperator)
    return operator(plan, ())


def apply_node(plan: Plan, inputs, database) -> ExtendedRelation:
    """Evaluate one logical node physically, given its children's results."""
    return lower_node(plan).traced_apply(tuple(inputs), database)


def run_plan(plan: Plan, database) -> ExtendedRelation:
    """Execute a whole logical plan through the physical layer."""
    return lower(plan).execute(database)


def describe_physical(plan: Plan) -> str:
    """The physical plan of *plan*, as indented text (for tooling)."""
    return lower(plan).describe()
