"""Norms built from admissible sets, and certified coordinate functionals.

Three norms share the admissibility machinery: the base norm (largest
absolute coordinate sum over one admissible set), its renorming taking the
larger of the positive-part and negative-part base norms, and a
Baernstein-style norm summing squared coordinate masses over a strictly
increasing chain of admissible sets.

Exact values are rationals; the Baernstein norm is reported through its
exact square together with a floating approximation of the root.  Every
kind, the classical ``l1``, ``l2`` and ``sup`` included, is evaluated by one
private entry, ``_norm_total``, on integers: the support and the signed
numerators over a common denominator ``D``, giving an integer total and a
witness.  Totals become values here alone, in ``_total_result``: over ``D``,
or over ``D**2`` where ``_total_power`` says they are squares; :func:`norm`
scales its vector once, totals it and converts.  The sign-pattern scan of
``quantities.sm_constant``, which the bundles share, scales its horizon once
over one denominator, builds its many vectors from those integer rows,
compares their integer totals and converts only its winner.  On members
walked at the order and rule of a ``schreier`` or ``schreier_star`` norm, a
vector inside its member has admissible signed parts by heredity, so its
total is ``_sum_total``, its l1 or larger signed mass, which bounds the
total from above on any vector.  The other vectors go to ``_norm_total``.
The star norm splits signs on the integers, and the kernels see only
magnitudes: order 0 takes the first largest entry, order 1 keeps a min-heap
over one right-to-left scan in O(L log L) for L support points, and
everything else runs a branch-and-bound over admissible prefixes from an
explicit stack, metered by the active budget's ``work`` alone, so no support
is too long for the interpreter.  Each search node carries the membership
automaton state of its prefix (or of its open block, for the chain norm), so
testing one more support point is a single automaton step.  Magnitudes
are positive, so when the whole support is admissible the base and star
search finds it on its first dive, one node per point, as the unique
maximizer.  Kernel totals are integers in units of ``1/D``
(``1/D**2`` for the chain norm).  A scan may pass the entry a memo of kernel
results keyed on the support and magnitudes; one memo serves a whole scan
(the kernel patterns of ``quantities.sm_constant``), under one spec and one
budget, and no cache outlives it.

The coordinate sum over an admissible set has norm at most one in the base
and star norms.  ``_certify_sums`` alone decides that, over one set or a
whole walk, on one automaton and with no functional built;
:func:`coordinate_sum_functional` certifies its one set there, and a walk
at a norm's own order and rule (``_own_walk``) is admissible as walked.

``norm_oracle`` is the same quantity computed by exhaustive enumeration over
``Fraction``, kept deliberately free of pruning and of the automaton: it
tests membership with the greedy cuts of ``schreier._member``.  The chain
oracle squares each block's mass once per call, yet still spends one meter
unit on every candidate block of every path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Iterable

from .budget import Budget, BudgetExceededError, Record, WorkMeter, get_budget
from .ordinal import (ONE, FundamentalRule, Ordinal, default_fundamental_seq,
                      parse as parse_ordinal)
from .schreier import FinSet, _automaton, _member
from .vectors import RatVec, format_fraction

__all__ = [
    "NormSpec",
    "NormResult",
    "norm",
    "norm_oracle",
    "Functional",
    "coordinate_sum_functional",
    "CertificationRefusedError",
    "CertificationViolationError",
]

_SUM_KINDS = ("schreier", "schreier_star")
_FAMILY_KINDS = _SUM_KINDS + ("baernstein",)
_CLASSICAL_KINDS = ("l1", "l2", "sup")


class NormSpec(Record):
    """Which norm to evaluate: a kind, plus an order for the family-based kinds."""

    __slots__ = ("kind", "xi", "fs")

    def __init__(self, kind: str, xi: Ordinal | None = None,
                 fs: FundamentalRule = default_fundamental_seq):
        if kind in _FAMILY_KINDS:
            if xi is None:
                raise ValueError(f"kind {kind!r} needs an order")
        elif kind in _CLASSICAL_KINDS:
            if xi is not None:
                raise ValueError(f"kind {kind!r} takes no order")
        else:
            raise ValueError(f"unknown norm kind {kind!r}")
        Record.__init__(self, kind, xi, fs)

    @classmethod
    def l1(cls):
        return cls("l1")

    @classmethod
    def l2(cls):
        return cls("l2")

    @classmethod
    def sup(cls):
        return cls("sup")

    @classmethod
    def schreier(cls, xi: Ordinal, *, fs: FundamentalRule = default_fundamental_seq):
        return cls("schreier", xi, fs)

    @classmethod
    def star(cls, xi: Ordinal, *, fs: FundamentalRule = default_fundamental_seq):
        return cls("schreier_star", xi, fs)

    @classmethod
    def baernstein(cls, xi: Ordinal, *, fs: FundamentalRule = default_fundamental_seq):
        return cls("baernstein", xi, fs)

    @classmethod
    def parse(cls, text: str, *, fs: FundamentalRule = default_fundamental_seq):
        """Parse ``l1``/``l2``/``sup`` or ``kind:order`` like ``star:w``."""
        kind, sep, order = text.partition(":")
        alias = {"star": "schreier_star"}.get(kind, kind)
        if not sep:
            if alias in _CLASSICAL_KINDS:
                return cls(alias)
            raise ValueError(f"kind {alias!r} needs an order, like {alias}:1")
        return cls(alias, parse_ordinal(order), fs)

    def __str__(self) -> str:
        short = {"schreier_star": "star"}.get(self.kind, self.kind)
        return short if self.xi is None else f"{short}:{self.xi}"


def _witness_str(witness) -> str:
    if witness is None:
        return ""
    if isinstance(witness, FinSet):
        return str(witness)
    if isinstance(witness, tuple) and witness and isinstance(witness[0], str):
        part, F = witness
        return f"{part}:{F}"
    return "|".join(str(F) for F in witness)


class NormResult(Record):
    """An exactly computed norm with a maximizing witness.

    ``value`` is None when the norm is irrational (possible only for the
    ``l2`` and Baernstein kinds); ``value_squared`` is always exact.
    """

    __slots__ = ("spec", "value", "value_squared", "approx", "witness")
    spec: NormSpec
    value: Fraction | None
    value_squared: Fraction
    approx: float
    witness: object

    def to_json(self) -> dict:
        return {
            "spec": str(self.spec),
            "value": None if self.value is None else format_fraction(self.value),
            "value_squared": format_fraction(self.value_squared),
            "approx": self.approx,
            "witness": _witness_str(self.witness),
        }


def _sqrt_result(spec: NormSpec, squared: Fraction, witness) -> NormResult:
    p, q = squared.numerator, squared.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    value = Fraction(rp, rq) if rp * rp == p and rq * rq == q else None
    return NormResult(spec, value, squared, math.sqrt(p / q), witness)


# -- kernels on integer magnitudes ------------------------------------------------
#
# Each kernel takes the support (ascending) and the magnitudes as positive
# integers, all over one common denominator, and returns its total in units
# of that denominator (of its square, for the chain norm) with the witness.


def _norm_order_zero(support: tuple[int, ...],
                     values: list[int]) -> tuple[int, FinSet]:
    """The largest magnitude, at its first index."""
    best = 0
    where: tuple[int, ...] = ()
    for i, v in zip(support, values):
        if v > best:
            best, where = v, (i,)
    return best, FinSet(where)


def _norm_order_one(support: tuple[int, ...],
                    values: list[int]) -> tuple[int, FinSet]:
    """Exact maximum of coordinate sums over sets with size at most their minimum.

    An admissible set with least element ``m`` is at most ``m`` support
    points at or after ``m``, and every such choice is admissible, so the
    maximum is over these cuts.  One right-to-left scan keeps each cut's
    ``m`` largest magnitudes in a min-heap, in O(L log L) for L support
    points.  The leftmost best cut wins; its witness is its ``m`` largest
    magnitudes, the earliest first among equal ones.
    """
    if not support or len(support) <= support[0]:
        # The whole support is admissible, so it is the unique maximizer.
        return sum(values), FinSet(support)
    from heapq import heappop, heappush

    heap: list[int] = []
    total = best = 0
    for cut in range(len(support) - 1, -1, -1):
        heappush(heap, values[cut])
        total += values[cut]
        while len(heap) > support[cut]:
            total -= heappop(heap)
        if total >= best:
            best, best_cut = total, cut
    ranked = sorted(range(best_cut, len(support)), key=values.__getitem__,
                    reverse=True)
    return best, FinSet(support[p] for p in sorted(ranked[:support[best_cut]]))


def _norm_search(support: tuple[int, ...], values: list[int], xi: Ordinal,
                 fs: FundamentalRule, budget: Budget) -> tuple[int, FinSet]:
    """Branch and bound over admissible subsets of the support.

    Depth-first in lexicographic order, so the first maximizer found is the
    lexicographically least one; a branch is cut when even taking all of the
    remaining suffix cannot beat the incumbent.  Open frames wait on a stack
    and a prefix is a linked list of ``(point, rest)`` cells, so a node costs
    the same at any depth.
    """
    meter = WorkMeter("norm search nodes", budget.work)
    suffix = _suffix_sums(values)
    step = _automaton(xi, fs).step
    best = 0
    best_prefix = None
    # The current frame (prefix, automaton state, total, next position) and
    # the frames below it.  No frame's total exceeds the incumbent, so the
    # bound also ends a frame at the end of the support.
    prefix, state, total, nxt = None, (), 0, 0
    stack = []
    while True:
        if total + suffix[nxt] <= best:
            if not stack:
                break
            prefix, state, total, nxt = stack.pop()
            continue
        meter.spend(1)
        after = step(state, support[nxt])
        if after is None:
            nxt += 1
            continue
        stack.append((prefix, state, total, nxt + 1))
        prefix, state, total = (support[nxt], prefix), after, total + values[nxt]
        nxt += 1
        if total > best:
            best, best_prefix = total, prefix
    return best, FinSet(_unlinked(best_prefix))


def _suffix_sums(values: list[int]) -> list[int]:
    """``suffix[p]`` is the sum of ``values[p:]``, for ``p`` up to ``len(values)``."""
    return list(accumulate(reversed(values), initial=0))[::-1]


def _unlinked(cells) -> list:
    """The items of a linked list of ``(item, rest)`` cells, oldest first."""
    items = []
    while cells is not None:
        item, cells = cells
        items.append(item)
    items.reverse()
    return items


# -- Baernstein-style chain norm ---------------------------------------------------


def _chain_squared_search(support: tuple[int, ...], values: list[int],
                          xi: Ordinal, fs: FundamentalRule, budget: Budget
                          ) -> tuple[int, tuple[FinSet, ...]]:
    """The largest sum of squared block masses over chains of admissible blocks."""
    if xi.is_zero:
        # Singleton blocks at every support point; any subfamily only loses mass.
        return sum(v * v for v in values), tuple(FinSet.of(i) for i in support)
    meter = WorkMeter("chain norm nodes", budget.work)
    suffix = _suffix_sums(values)
    step = _automaton(xi, fs).step
    best = 0   # in units of 1 / D**2
    best_chain = None

    # A frame grows an open block; with the empty block and state it stands
    # between blocks.  Blocks and chains are linked lists of ``(item, rest)``
    # cells.  A grown block's frame first closes the block, in a frame
    # between blocks on top of it.  Bounds fold everything still available
    # into the open block, which can only overstate the reachable value; a
    # frame's closed value never exceeds the incumbent, so a bound also ends
    # the frame at the end of the support.
    chain, closed_sq, block, state, block_sum, nxt = None, 0, None, (), 0, 0
    stack = []
    while True:
        if closed_sq + (block_sum + suffix[nxt]) ** 2 <= best:
            if not stack:
                break
            chain, closed_sq, block, state, block_sum, nxt = stack.pop()
            continue
        meter.spend(1)
        after = step(state, support[nxt])
        if after is None:
            nxt += 1
            continue
        stack.append((chain, closed_sq, block, state, block_sum, nxt + 1))
        block, block_sum = (support[nxt], block), block_sum + values[nxt]
        nxt += 1
        stack.append((chain, closed_sq, block, after, block_sum, nxt))
        chain, closed_sq = (block, chain), closed_sq + block_sum * block_sum
        block, state, block_sum = None, (), 0
        if closed_sq > best:
            best, best_chain = closed_sq, chain
    return best, tuple(FinSet(_unlinked(b)) for b in _unlinked(best_chain))


# -- the scaled entry -------------------------------------------------------------


def _magnitude_norm(spec: NormSpec, support: tuple[int, ...], mags: list[int],
                    budget: Budget, memo: dict | None):
    """The kernel of ``spec`` on one magnitude vector, through the memo."""
    if memo is not None:
        key = (support, tuple(mags))
        found = memo.get(key)
        if found is None:
            found = memo[key] = _magnitude_norm(spec, support, mags, budget, None)
        return found
    xi = spec.xi
    if spec.kind == "baernstein":
        return _chain_squared_search(support, mags, xi, spec.fs, budget)
    if xi is None or xi.is_zero:   # sup, or order 0
        return _norm_order_zero(support, mags)
    if xi == ONE:
        return _norm_order_one(support, mags)
    return _norm_search(support, mags, xi, spec.fs, budget)


def _norm_total(spec: NormSpec, support: tuple[int, ...], values: list[int],
                budget: Budget, memo: dict | None = None) -> tuple[int, object]:
    """The integer total and the witness of the norm of the vector with entry
    ``values[k] / D`` at ``support[k]``, for any kind and any ``D``.

    ``support`` ascends and ``values`` are non-zero integers.  The total is
    in units of ``1/D**_total_power(spec)``, so it does not depend on ``D``;
    on a tie between the star norm's signed parts the positive part wins.
    ``memo``, when given, maps magnitude vectors to kernel results; a caller
    keeps one per scan under one spec and budget, and vectors over different
    denominators share it.
    """
    kind = spec.kind
    if kind == "l1":
        return sum(map(abs, values)), FinSet(support)
    if kind == "l2":
        return sum(v * v for v in values), FinSet(support)
    if kind == "schreier_star":
        # The two signed parts, split on the integers.
        pos = [k for k, v in enumerate(values) if v > 0]
        neg = [k for k, v in enumerate(values) if v < 0]
        best_pos, F_pos = _magnitude_norm(spec, tuple(support[k] for k in pos),
                                          [values[k] for k in pos], budget, memo)
        best_neg, F_neg = _magnitude_norm(spec, tuple(support[k] for k in neg),
                                          [-values[k] for k in neg], budget, memo)
        if best_neg > best_pos:
            return best_neg, ("-", F_neg)
        return best_pos, ("+", F_pos)
    return _magnitude_norm(spec, support, [abs(v) for v in values], budget, memo)


def _sum_total(spec: NormSpec, values) -> int:
    """The l1 mass of the integers ``values`` (the larger signed mass, under
    ``schreier_star``): the total if the signed parts are admissible, else above it."""
    if spec.kind == "schreier":
        return sum(map(abs, values))
    positive = sum(v for v in values if v > 0)
    return max(positive, positive - sum(values))


def _total_power(spec: NormSpec) -> int:
    """The power of ``D`` that totals are over: 2 where they are squares."""
    return 2 if spec.kind in ("l2", "baernstein") else 1


def _total_result(spec: NormSpec, D: int, total: int, witness=None) -> NormResult:
    """The result of the integer ``total`` over ``D`` (``D**2`` for squares)."""
    if _total_power(spec) == 2:
        return _sqrt_result(spec, Fraction(total, D * D), witness)
    value = Fraction(total, D)
    return NormResult(spec, value, value * value, float(value), witness)


def norm(spec: NormSpec, x: RatVec, *, budget: Budget | None = None) -> NormResult:
    """Evaluate the norm described by ``spec`` on ``x``, exactly.

    >>> from .vectors import RatVec
    >>> from .ordinal import Ordinal
    >>> x = RatVec({1: 1, 2: 1, 3: 1})
    >>> norm(NormSpec.schreier(Ordinal.from_int(1)), x).value
    Fraction(2, 1)
    """
    support, values, D = x.scaled()
    return _total_result(spec, D, *_norm_total(spec, support, values,
                                               get_budget(budget)))


# -- exhaustive oracle ----------------------------------------------------------


def _oracle_base(mags: RatVec, xi: Ordinal, fs: FundamentalRule,
                 meter: WorkMeter, memo: dict) -> Fraction:
    from itertools import combinations

    support = mags.support()
    best = Fraction(0)
    for size in range(1, len(support) + 1):
        for combo in combinations(support, size):
            meter.spend(1)
            if _member(xi, combo, fs, memo):
                best = max(best, sum((mags[i] for i in combo), Fraction(0)))
    return best


def _oracle_chain(mags: RatVec, xi: Ordinal, fs: FundamentalRule,
                  meter: WorkMeter, memo: dict) -> Fraction:
    from itertools import combinations

    support = mags.support()
    position = {value: pos for pos, value in enumerate(support)}
    squares: dict = {}   # block -> its squared mass, or False off the family
    best = Fraction(0)

    def rec(pos: int, acc: Fraction) -> None:
        nonlocal best
        best = max(best, acc)
        for start in range(pos, len(support)):
            tail = support[start + 1:]
            for size in range(0, len(tail) + 1):
                for combo in combinations(tail, size):
                    block = (support[start],) + combo
                    meter.spend(1)
                    square = squares.get(block)
                    if square is None:
                        square = squares[block] = (
                            _member(xi, block, fs, memo)
                            and sum((mags[i] for i in block), Fraction(0)) ** 2)
                    if square is not False:
                        rec(position[block[-1]] + 1, acc + square)

    rec(0, Fraction(0))
    return best


def norm_oracle(spec: NormSpec, x: RatVec, *,
                budget: Budget | None = None) -> NormResult:
    """The same norm by exhaustive enumeration, with no pruning or fast paths.

    Deliberately simple, as a cross-check for :func:`norm`; refuses supports
    larger than the oracle budget.
    """
    budget = get_budget(budget)
    if spec.kind in _CLASSICAL_KINDS:
        return norm(spec, x, budget=budget)
    if len(x.support()) > budget.oracle_support:
        raise BudgetExceededError("oracle norm support", budget.oracle_support,
                                  needed=len(x.support()))
    meter = WorkMeter("oracle norm candidates", budget.work)
    memo: dict = {}   # greedy membership answers, for this call only
    if spec.kind == "baernstein":
        return _sqrt_result(spec, _oracle_chain(x.abs(), spec.xi, spec.fs, meter,
                                                memo), witness=None)
    if spec.kind == "schreier":
        value = _oracle_base(x.abs(), spec.xi, spec.fs, meter, memo)
    else:
        value = max(_oracle_base(x.positive_part(), spec.xi, spec.fs, meter, memo),
                    _oracle_base(x.negative_part(), spec.xi, spec.fs, meter, memo))
    return _total_result(spec, value.denominator, value.numerator)


# -- certified coordinate functionals ---------------------------------------------


class CertificationRefusedError(ValueError):
    """The requested functional cannot be certified to have norm at most one."""


class CertificationViolationError(RuntimeError):
    """A certified bound failed on concrete data, which indicates a bug."""


class Functional(Record):
    """A finitely supported functional ``x -> sum_i c_i x_i``.

    When ``certified_for`` is set, evaluation checks ``|f(x)| <= ||x||``
    against that norm; the inequality holds by construction, so a failure is
    a defect in the norm code, not in the data.  A norm the budget refuses
    refuses the evaluation too: the check is never skipped silently.
    """

    __slots__ = ("coefficients", "certified_for", "label")
    coefficients: RatVec
    certified_for: NormSpec | None
    label: str

    def evaluate(self, x: RatVec, *, check: bool = True,
                 budget: Budget | None = None) -> Fraction:
        # Only the common support contributes: walk the smaller dict.
        small, large = self.coefficients._entries, x._entries
        if len(large) < len(small):
            small, large = large, small
        value = sum((v * large[i] for i, v in small.items() if i in large),
                    Fraction(0))
        if check and self.certified_for is not None:
            bound = norm(self.certified_for, x, budget=budget)
            # Compared on squares, since an l2 or Baernstein norm may be irrational.
            if value * value > bound.value_squared:
                shown = (bound.value if bound.value is not None
                         else f"sqrt({format_fraction(bound.value_squared)})")
                raise CertificationViolationError(
                    f"certified functional {self.label or 'f'} exceeded the "
                    f"norm: |{value}| > {shown}")
        return value

    def to_json(self) -> dict:
        return {
            "coefficients": self.coefficients.to_map(),
            "certified_for": None if self.certified_for is None
            else str(self.certified_for),
            "label": self.label,
        }


def _own_walk(order: Ordinal, fs: FundamentalRule, spec: NormSpec) -> bool:
    """Whether ``spec`` is a ``schreier`` or ``schreier_star`` norm of
    ``order`` and ``fs``, so the members walked there are admissible."""
    return spec.kind in _SUM_KINDS and order == spec.xi and fs == spec.fs


def _certify_sums(sets: Iterable[FinSet], spec: NormSpec) -> None:
    """Refuse unless ``spec`` is a ``schreier`` or ``schreier_star`` norm
    and each of ``sets``, in order, is admissible at its order and rule."""
    if spec.kind not in _SUM_KINDS:
        raise CertificationRefusedError(
            f"kind {spec.kind!r} does not certify coordinate-sum functionals")
    accepts = _automaton(spec.xi, spec.fs).accepts
    for F in sets:
        if not accepts(F):
            raise CertificationRefusedError(
                f"{{{F}}} is not admissible at order {spec.xi}")


def coordinate_sum_functional(F: FinSet, spec: NormSpec) -> Functional:
    """The functional summing the coordinates over ``F``, certified at norm one."""
    _certify_sums((F,), spec)
    ones = RatVec._canonical(dict.fromkeys(F, Fraction(1)))
    return Functional(ones, spec, label=f"sum[{F}]")
