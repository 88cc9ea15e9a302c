"""Membership threshold conditions (Section 3.1.3).

A membership threshold condition ``Q`` constrains the *revised* tuple
membership of a selection (or join) result: e.g. ``sn > 0.5`` keeps only
tuples whose revised necessary support exceeds one half, and ``sn = 1``
keeps only tuples that definitely satisfy the condition.

To stay consistent with the interpretation of extended relations
(CWA_ER), every threshold is automatically conjoined with ``sn > 0``;
the selection operation enforces this, so a user-supplied ``Q`` can
never smuggle an unsupported tuple into a result.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from functools import partial

from repro.errors import OperationError
from repro.ds.mass import coerce_mass_value
from repro.model.membership import TupleMembership

#: The comparison operators a threshold term may use.
_COMPARISONS = {
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
}

# The checks are partials over these module-level functions, never
# lambdas, so every built-in threshold -- and any plan holding one --
# pickles and can ship to worker processes.


def _compare(field: str, compare, bound, tm: TupleMembership) -> bool:
    return compare(getattr(tm, field), bound)


def _both(first, second, tm: TupleMembership) -> bool:
    return first(tm) and second(tm)


def _true(tm: TupleMembership) -> bool:
    return True


class MembershipThreshold:
    """A predicate over revised ``(sn, sp)`` membership pairs.

    Build instances from the factory functions (:func:`sn_greater` and
    friends, or :func:`threshold` for any field and comparison) or
    combine them with ``&``.

    >>> threshold = sn_greater(0) & sp_at_least("1/2")
    >>> threshold(TupleMembership("1/4", "3/4"))
    True
    """

    __slots__ = ("_check", "_description")

    def __init__(self, check: Callable[[TupleMembership], bool], description: str):
        self._check = check
        self._description = description

    @property
    def description(self) -> str:
        """Human-readable rendering, e.g. ``"sn > 0"``."""
        return self._description

    def __call__(self, membership: TupleMembership) -> bool:
        return bool(self._check(membership))

    def __and__(self, other: "MembershipThreshold") -> "MembershipThreshold":
        if not isinstance(other, MembershipThreshold):
            raise OperationError(f"cannot conjoin threshold with {other!r}")
        return MembershipThreshold(
            partial(_both, self._check, other._check),
            f"{self._description} and {other._description}",
        )

    def __repr__(self) -> str:
        return f"MembershipThreshold({self._description})"


def threshold(field: str, op: str, bound) -> MembershipThreshold:
    """``field op bound`` over ``sn`` or ``sp``, described as written.

    *bound* is compared as given (the named factories coerce it first).

    >>> threshold("sp", "<", 0.5).description
    'sp < 0.5'
    """
    if field not in ("sn", "sp") or op not in _COMPARISONS:
        raise OperationError(f"unsupported threshold {field} {op}")
    return MembershipThreshold(
        partial(_compare, field, _COMPARISONS[op], bound),
        f"{field} {op} {bound}",
    )


def sn_greater(bound: object) -> MembershipThreshold:
    """``sn > bound``."""
    return threshold("sn", ">", coerce_mass_value(bound))


def sn_at_least(bound: object) -> MembershipThreshold:
    """``sn >= bound``."""
    return threshold("sn", ">=", coerce_mass_value(bound))


def sn_equals(bound: object) -> MembershipThreshold:
    """``sn = bound`` (e.g. ``sn = 1`` for definite answers only)."""
    return threshold("sn", "=", coerce_mass_value(bound))


def sp_greater(bound: object) -> MembershipThreshold:
    """``sp > bound``."""
    return threshold("sp", ">", coerce_mass_value(bound))


def sp_at_least(bound: object) -> MembershipThreshold:
    """``sp >= bound``."""
    return threshold("sp", ">=", coerce_mass_value(bound))


def sp_equals(bound: object) -> MembershipThreshold:
    """``sp = bound``."""
    return threshold("sp", "=", coerce_mass_value(bound))


#: The canonical threshold: tuples with any positive necessary support.
SN_POSITIVE = sn_greater(0)

#: Only tuples that *definitely* satisfy the condition.
SN_CERTAIN = sn_equals(1)

#: No additional constraint (the implicit ``sn > 0`` still applies).
ALWAYS = MembershipThreshold(_true, "true")
