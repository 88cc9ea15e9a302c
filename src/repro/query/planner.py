"""Binding and optimizing query plans.

:func:`build_plan` binds an AST against a database catalog: relation
names resolve to schemas, attribute references (including dotted ones
like ``RA.rname``, which map to the product schema's prefixed
``RA_rname``) resolve to schema attributes, and syntactic conditions
become algebra predicates.

:func:`optimize` normalizes the bound plan through the explicit rewrite
pass pipeline of :mod:`repro.exec.rewrite` (selection fusion and
pushdown through products, projection pruning -- see that module for
the rules and the reasons there is deliberately no pushdown through the
extended union), so physical lowering (:mod:`repro.exec.physical`)
always sees normalized plans.
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import OperationError, PlanError
from repro.model.evidence import EvidenceSet
from repro.model.schema import RelationSchema
from repro.algebra.predicates import (
    And,
    AttributeOperand,
    IsPredicate,
    LiteralOperand,
    Not,
    Or,
    Predicate,
    ThetaPredicate,
)
from repro.algebra.thresholds import SN_POSITIVE, MembershipThreshold, threshold
from repro.query import ast
from repro.query.parser import parse
from repro.query.plans import (
    IntersectPlan,
    Plan,
    ProductPlan,
    ProjectPlan,
    ScanPlan,
    SelectPlan,
    UnionPlan,
)


# ---------------------------------------------------------------------------
# Binding
# ---------------------------------------------------------------------------


def _resolve_name(ref: ast.NameRef, schema: RelationSchema) -> str:
    """Resolve a (possibly dotted) attribute reference against a schema."""
    if ref.qualifier is not None:
        prefixed = f"{ref.qualifier}_{ref.name}"
        if prefixed in schema:
            return prefixed
        if ref.name in schema:
            return ref.name
        raise PlanError(
            f"cannot resolve {ref.render()!r} against relation "
            f"{schema.name!r} (attributes: {', '.join(schema.names)})"
        )
    if ref.name in schema:
        return ref.name
    raise PlanError(
        f"unknown attribute {ref.name!r} of relation {schema.name!r} "
        f"(attributes: {', '.join(schema.names)})"
    )


def _bind_operand(node, schema: RelationSchema):
    if isinstance(node, ast.NameRef):
        return AttributeOperand(_resolve_name(node, schema))
    if isinstance(node, ast.ValueLiteral):
        value = node.value
        if isinstance(value, float):
            value = Fraction(str(value))
        return LiteralOperand(value)
    if isinstance(node, ast.EvidenceLiteral):
        return LiteralOperand(EvidenceSet.parse(node.text))
    raise PlanError(f"cannot bind operand {node!r}")


def _bind_condition(node, schema: RelationSchema) -> Predicate:
    if isinstance(node, ast.IsCondition):
        return IsPredicate(_resolve_name(node.attribute, schema), node.values)
    if isinstance(node, ast.CompareCondition):
        return ThetaPredicate(
            _bind_operand(node.left, schema),
            node.op,
            _bind_operand(node.right, schema),
        )
    if isinstance(node, ast.AndCondition):
        return And(*[_bind_condition(part, schema) for part in node.parts])
    if isinstance(node, ast.OrCondition):
        return Or(*[_bind_condition(part, schema) for part in node.parts])
    if isinstance(node, ast.NotCondition):
        return Not(_bind_condition(node.part, schema))
    raise PlanError(f"cannot bind condition {node!r}")


def _bind_thresholds(terms: tuple[ast.ThresholdTerm, ...]) -> MembershipThreshold:
    result = SN_POSITIVE
    for term in terms:
        try:
            check = threshold(term.field, term.op, term.bound)
        except OperationError as exc:
            raise PlanError(str(exc)) from None
        result = result & check
    return result


def _bind_source(node, database) -> Plan:
    if isinstance(node, ast.RelationSource):
        relation = database.get(node.name)
        return ScanPlan(node.name, relation.schema)
    if isinstance(node, ast.JoinSource):
        left = _bind_source(node.left, database)
        right = _bind_source(node.right, database)
        paired = ProductPlan(left, right)
        predicate = _bind_condition(node.condition, paired.schema())
        return SelectPlan(paired, predicate, SN_POSITIVE)
    if isinstance(node, ast.SubquerySource):
        return build_plan(node.query, database)
    raise PlanError(f"cannot bind source {node!r}")


def build_plan(statement, database) -> Plan:
    """Bind a parsed statement into a logical plan.

    >>> from repro.storage import Database
    >>> from repro.datasets.restaurants import table_ra
    >>> db = Database(); db.add(table_ra())
    >>> plan = build_plan(parse("SELECT rname FROM RA"), db)
    >>> print(plan.describe())
    Project [rname]
      Scan RA
    """
    if isinstance(statement, ast.SelectStatement):
        plan = _bind_source(statement.source, database)
        if statement.condition is not None or statement.thresholds:
            predicate = (
                _bind_condition(statement.condition, plan.schema())
                if statement.condition is not None
                else None
            )
            threshold = _bind_thresholds(statement.thresholds)
            plan = SelectPlan(plan, predicate, threshold)
        if statement.projection is not None:
            try:
                plan = ProjectPlan(plan, statement.projection)
            except Exception as exc:
                raise PlanError(str(exc)) from exc
        return plan
    if isinstance(statement, ast.UnionStatement):
        left = _bind_source(statement.left, database)
        right = _bind_source(statement.right, database)
        if statement.operator == "intersect":
            plan: Plan = IntersectPlan(left, right)
        else:
            plan = UnionPlan(left, right)
        if statement.keys is not None:
            actual = set(plan.schema().key_names)
            if set(statement.keys) != actual:
                raise PlanError(
                    f"UNION BY ({', '.join(statement.keys)}) does not match "
                    f"the key attributes ({', '.join(sorted(actual))})"
                )
        return plan
    raise PlanError(f"cannot plan statement {statement!r}")


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------


def optimize(plan: Plan) -> Plan:
    """Normalize *plan* through the standard rewrite pass pipeline.

    A thin wrapper kept for backward compatibility; the passes
    themselves live in :mod:`repro.exec.rewrite`.
    """
    from repro.exec.rewrite import default_pipeline

    return default_pipeline().run(plan)
