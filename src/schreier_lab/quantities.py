"""Finite-horizon estimates of asymptotic oscillation and spreading quantities.

Everything here scans a stated finite window or horizon and says so in the
result.  Quantities defined through an infimum or supremum over all index
streams cannot be decided by a finite computation, so those estimators
return a :class:`HorizonEstimate` whose ``direction`` tag records how the
computed value relates to the limit quantity (``exact``, ``upper_bound``,
``lower_bound``, or ``unverified``).  Plain window statistics return the
exact rational maximum with no pretense of being the limit.  They share one
pair scan, ``_max_pairwise``, which refuses a malformed window, or one with
more pairs than the work budget, before it calls the builder of the
window's vectors; so a refused averaged window looks up no averaging method.

Every quantity reads its vector sequence through one
:class:`~schreier_lab.vectors.SeqSpec`, an ambient norm with a 1-indexed
``element`` callable; the sequence constructors live in
:mod:`~schreier_lab.vectors`, and :func:`cca_xi_window` averages a sequence
with :func:`~schreier_lab.averages.apply`.  A window statistic compares its
norms on their exact squares, so an irrational ``l2`` or ``baernstein`` norm
ranks exactly, and only the winner becomes a value.  The horizon scans of
:func:`sm_constant` and :func:`f_delta` run on integers: ``_scaled_horizon``
scales the elements ``1..N`` once, over one common denominator.  The sign
patterns of :func:`sm_constant` are summarized per member, in one record of
its least pattern and its totals, cached per weight and size on a diagonal
horizon; each pattern still costs one unit of work.  What a total means is
read from ``spaces`` (``_sum_total``, ``_total_power`` and
``_total_result``), so no quantity branches on a norm kind.  The largeness
scan reads hit sets only; ``_hit_sets`` builds them on those rows, from the
functionals given to :func:`f_delta` and :func:`large_check`, and from bare
members in the CLI's ``quantity fdelta`` and ``quantity large``, which build
no functional; ``_large`` is the shift, scaling and scan that
:func:`large_check` and ``quantity large`` share.  The scan tests a set that
is no hit set on a bitset index of the hit sets, one AND per element.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .budget import Budget, BudgetExceededError, Record, WorkMeter, get_budget
from .ordinal import FundamentalRule, Ordinal, default_fundamental_seq
from .schreier import FinSet, _family, enumerate_family
from .spaces import (CertificationRefusedError, Functional, NormResult, NormSpec,
                     _norm_total, _own_walk, _sum_total, _total_power,
                     _total_result, norm)
from .vectors import RatVec, SeqSpec, format_fraction
from .vectors import CanonicalBasis  # noqa: F401 -- still importable from here

if TYPE_CHECKING:
    from .streams import IndexStream

__all__ = [
    "HorizonEstimate",
    "ca_window",
    "cca_window",
    "cca_xi_window",
    "cca_xi_tilde",
    "cca_xi_tilde_sup",
    "compose_refinements",
    "sm_constant",
    "DeltaFamily",
    "f_delta",
    "LargeCheckResult",
    "large_check",
    "PropFormulaValues",
    "prop_formula",
]

DIRECTIONS = ("exact", "upper_bound", "lower_bound", "unverified")


def _format_value(value) -> str:
    if isinstance(value, Fraction):
        return format_fraction(value)
    return repr(float(value))


class HorizonEstimate(Record):
    """A value computed over a finite horizon, tagged with its direction.

    ``direction`` says how ``value`` relates to the limit quantity the
    computation stands in for: equal to it, a one-sided bound for it, or
    unverified when neither side is certified.  ``value`` is a Fraction, or
    a float when the quantity is irrational.
    """

    __slots__ = ("value", "direction", "horizon", "witness")

    def __init__(self, value: Fraction | float, direction: str, horizon: object,
                 witness: object = None):
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}")
        Record.__init__(self, value, direction, horizon, witness)

    def to_json(self) -> dict:
        return {
            "value": _format_value(self.value),
            "approx": float(self.value),
            "direction": self.direction,
            "horizon": str(self.horizon),
            "witness": "" if self.witness is None else str(self.witness),
        }


# -- window oscillation statistics ---------------------------------------------------


def _value(result: NormResult):
    """The exact value, or the float approximation of an irrational one."""
    return result.value if result.value is not None else result.approx


def _max_pairwise(build: Callable[[], dict], n0: int, N: int, ambient: NormSpec,
                  budget: Budget) -> tuple[Fraction, Fraction | float]:
    """The largest norm of ``vectors[k] - vectors[l]`` over the window, as
    ``(square, value)``, where ``vectors = build()``; the first of equal
    squares wins.  A malformed window, or one with more pairs than the work
    budget, is refused first: every pair costs a norm, so the refusal comes
    before ``build`` makes any vector of the window."""
    if not 1 <= n0 <= N:
        raise ValueError(f"window needs 1 <= n0 <= N, got [{n0}, {N}]")
    pairs = (N - n0 + 1) * (N - n0) // 2
    if pairs > budget.work:
        raise BudgetExceededError("window pairs", budget.work, needed=pairs)
    vectors = build()
    best = None
    for k in range(n0, N + 1):
        for l in range(k + 1, N + 1):
            result = norm(ambient, vectors[k] - vectors[l], budget=budget)
            if best is None or result.value_squared > best.value_squared:
                best = result
    if best is None:
        return Fraction(0), Fraction(0)
    return best.value_squared, _value(best)


def ca_window(xs: SeqSpec, n0: int, N: int, *,
              budget: Budget | None = None):
    """Largest pairwise distance over the window, exactly.

    A window maximum truncates the tail supremum at ``N`` and starts it at
    ``n0``, so by itself it bounds the limit quantity from neither side; it
    is non-decreasing in ``N`` and non-increasing in ``n0``.
    """
    return _max_pairwise(lambda: {n: xs.element(n) for n in range(n0, N + 1)},
                         n0, N, xs.ambient, get_budget(budget))[1]


def _cesaro_prefix(element: Callable[[int], RatVec], n0: int, N: int) -> dict:
    """Running means ``S_n / n``, ``n0 <= n <= N``, of the 1-indexed
    sequence ``element``, from one running sum ``S_n``."""
    means = {}
    total: dict[int, Fraction] = {}
    for n in range(1, N + 1):
        for i, v in element(n).items():
            total[i] = total[i] + v if i in total else v
        if n >= n0:
            means[n] = RatVec.combination(((Fraction(1, n), total),))
    return means


def cca_window(xs: SeqSpec, n0: int, N: int, *,
               budget: Budget | None = None):
    """Largest pairwise distance of the running means over the window."""
    return _max_pairwise(lambda: _cesaro_prefix(xs.element, n0, N), n0, N,
                         xs.ambient, get_budget(budget))[1]


def cca_xi_window(xi: Ordinal, M: IndexStream, xs: SeqSpec, n0: int, N: int, *,
                  fs: FundamentalRule = default_fundamental_seq,
                  budget: Budget | None = None):
    """Mean oscillation after pushing the sequence through repeated averages.

    Order zero along the identity stream leaves the sequence unchanged, so
    this collapses to :func:`cca_window` there.  Infeasibly large averaging
    supports surface as budget errors carrying the required size.
    """
    return _cca_xi(xi, M, xs, n0, N, fs, budget)[1]


def _cca_xi(xi: Ordinal, M: IndexStream, xs: SeqSpec, n0: int, N: int,
            fs: FundamentalRule, budget: Budget | None
            ) -> tuple[Fraction, Fraction | float]:
    """:func:`cca_xi_window` as ``(square, value)``."""
    # Imported here, so that no other quantity loads the averages.
    from .averages import _averages, apply
    budget = get_budget(budget)

    def means():
        method = _averages(xi, M, fs)
        return _cesaro_prefix(lambda n: apply(method, xs, n, budget=budget), n0, N)

    return _max_pairwise(means, n0, N, xs.ambient, budget)


def cca_xi_tilde(xi: Ordinal, xs: SeqSpec, catalog: Sequence[IndexStream],
                 n0: int, N: int, *,
                 fs: FundamentalRule = default_fundamental_seq,
                 budget: Budget | None = None) -> HorizonEstimate:
    """Catalog minimum of the averaged mean oscillation.

    The limit quantity takes an infimum over all streams; a minimum over a
    finite catalog can only overshoot it, except at zero where the infimum
    is pinned.
    """
    catalog = list(catalog)
    if not catalog:
        raise ValueError("the stream catalog must be nonempty")
    best = None
    best_stream = None
    for M in catalog:
        found = _cca_xi(xi, M, xs, n0, N, fs, budget)
        if best is None or found[0] < best[0]:
            best, best_stream = found, M
    direction = "exact" if best[0] == 0 else "upper_bound"
    return HorizonEstimate(best[1], direction, f"[{n0},{N}]x{len(catalog)}",
                           best_stream.name)


def compose_refinements(catalog: Sequence[IndexStream]
                        ) -> Callable[[IndexStream], list[IndexStream]]:
    """The default refinement rule: compose the base stream with the catalog."""
    fixed = list(catalog)

    def refine(M: IndexStream) -> list[IndexStream]:
        return [M.compose(inner) for inner in fixed]

    return refine


def cca_xi_tilde_sup(xi: Ordinal, xs: SeqSpec, catalog: Sequence[IndexStream],
                     subcatalog_rule: Callable[[IndexStream],
                                               Sequence[IndexStream]] | None,
                     n0: int, N: int, *,
                     fs: FundamentalRule = default_fundamental_seq,
                     budget: Budget | None = None) -> HorizonEstimate:
    """Catalog maximum over base streams of the refined minimum.

    Finite catalogs bound the inner infimum from above and the outer
    supremum from below, so the two errors point in opposite directions and
    the result is tagged unverified.
    """
    catalog = list(catalog)
    if not catalog:
        raise ValueError("the stream catalog must be nonempty")
    if subcatalog_rule is None:
        subcatalog_rule = compose_refinements(catalog)
    best = None
    best_stream = None
    for M in catalog:
        refinements = list(subcatalog_rule(M))
        if not refinements:
            raise ValueError(f"refinement rule produced nothing for {M.name}")
        inner = min((_cca_xi(xi, refined, xs, n0, N, fs, budget)
                     for refined in refinements), key=lambda found: found[0])
        if best is None or inner[0] > best[0]:
            best, best_stream = inner, M
    return HorizonEstimate(best[1], "unverified", f"[{n0},{N}]x{len(catalog)}",
                           best_stream.name)


# -- smallest normalized admissible combination ----------------------------------------


def sm_constant(xi: Ordinal, xs: SeqSpec, N: int, coeff_budget: int = 4, *,
                fs: FundamentalRule = default_fundamental_seq,
                budget: Budget | None = None) -> HorizonEstimate:
    """Smallest ``norm(sum a_n x_n) / sum |a_n|`` over admissible supports.

    Scans every nonempty admissible subset of ``1..N``; coefficient patterns
    are all sign choices up to ``coeff_budget`` coordinates and the uniform
    positive pattern above it.  A finite scan of an infimum over all real
    coefficients can only overshoot, hence the upper-bound tag.

    The scan is exact on integers for every kind: the elements ``1..N`` are
    scaled once to one common denominator ``D``, and each pattern is an
    integer sum of those rows.  In a ``schreier`` or ``schreier_star``
    space of order ``xi`` under ``fs`` every member walked is admissible,
    and by heredity so is every subset of it; a pattern living inside its
    member therefore takes its total from its integers, with no kernel.
    Every other pattern goes to the norm kernels, through one memo of
    kernel results keyed on the support and magnitudes asked for.  The
    ratios are compared as integers too: every total is over ``D``, so a
    pattern with total ``t`` beats the best ``t_b`` so far exactly when
    ``t * |F_b|**p < t_b * |F|**p``, with ``1/D**p`` the unit of the totals
    (``p = 2`` where they are squares).  Only the winner becomes a value.
    Ties keep the first pattern met.  The patterns are summarized per
    member, one record each, and the family streams from its walk with no
    member list.  Each pattern still costs one unit of ``budget.work``
    (``sign patterns``), spent per member before its totals.
    """
    _check_coeff_budget(coeff_budget)
    budget = get_budget(budget)
    members = _family(xi, N, fs=fs, budget=budget)
    rows, D = _scaled_horizon(xs, N)
    records = _sm_patterns(xs.ambient, rows, coeff_budget, members, xi, fs,
                           budget)
    return _sm_least(xs.ambient, N, D, records)


def _check_coeff_budget(coeff_budget: int) -> None:
    if coeff_budget < 0:
        raise ValueError(f"coefficient budget must be at least 0, got {coeff_budget}")


def _scaled_horizon(xs: SeqSpec, N: int) -> tuple[list[tuple], int]:
    """``(rows, D)``: ``rows[n]`` holds the ``(index, numerator)`` pairs of
    the n-th element of ``xs`` times ``D``, the lcm of the denominators of
    the elements ``1..N`` (``rows[0]`` is empty)."""
    if N < 0:
        raise ValueError(f"horizon must be at least 0, got {N}")
    scaled = [xs.element(n).scaled() for n in range(1, N + 1)]
    D = math.lcm(*(d for _, _, d in scaled))
    return [()] + [tuple(zip(support, [v * (D // d) for v in values]))
                   for support, values, d in scaled], D


def _sm_patterns(ambient: NormSpec, rows: Sequence[tuple], coeff_budget: int,
                 members: Iterable[FinSet], order: Ordinal, fs: FundamentalRule,
                 budget: Budget) -> Iterator[tuple[FinSet, tuple]]:
    """The sign patterns of :func:`sm_constant` over the given members,
    walked at ``order`` under ``fs``, summarized per member in scan order:
    each nonempty member ``F`` comes as ``(F, record)``, the
    :func:`_sm_record` of the integer norm totals of its patterns ``sum
    signs[k] * x_{F[k]}``, from the rows of :func:`_scaled_horizon`.

    A record is first looked up in a per-scan cache, and built on a miss.
    The cache serves a diagonal horizon walked at the ambient's own order and
    rule, where every ``rows[n]`` is ``((n, a_n),)``: a member whose points
    all carry one weight ``a`` has a record that depends on ``a`` and its
    size alone, kept under ``(a, |F|)``.  A weight carried by ``c`` points
    makes at most ``c`` keys, so there are at most ``N``.  A member is taken
    to share its weight when the points between its ends all carry it (the
    canonical basis, or a weighted one past its listed weights).

    To build a record, each pattern's rows are summed into one dict.  On a
    walk of the ambient's own order and rule each member is admissible, and
    by heredity so is each of its subsets; a pattern whose rows all live
    inside its member then has admissible signed parts, so its total is its
    l1 or larger signed mass, ``spaces._sum_total``, with no kernel.
    Whether the rows live inside does not depend on the signs, so it is
    tested once per member.  The other patterns go to the kernels through
    one memo.  Every pattern costs one unit of ``budget.work`` (``sign
    patterns``), spent per member before any of its totals, so
    ``coeff_budget`` cannot buy unmetered work.  On the kernel route this
    means a member whose patterns cross the work limit is refused as ``sign
    patterns`` before its kernel searches run, where a per-pattern charge
    could first have been refused as ``norm search nodes``."""
    own = _own_walk(order, fs, ambient)
    diagonal = own and all(len(row) == 1 and row[0][0] == n
                           for n, row in enumerate(rows) if n)
    if diagonal:
        # run[n]: the first point of the run of equal weights that ends at n.
        run = [0, 1]
        for n in range(2, len(rows)):
            run.append(run[-1] if rows[n][0][1] == rows[n - 1][0][1] else n)
    shared: dict = {}   # (a, |F|) -> record
    memo: dict = {}
    meter = WorkMeter("sign patterns", budget.work)
    for F in members:
        if not F:
            continue
        size = len(F)
        small = size <= coeff_budget
        meter.spend(1 << size if small else 1)
        uniform = diagonal and run[F[-1]] <= F[0]
        key = (rows[F[0]][0][1], size) if uniform else None
        record = shared.get(key)
        if record is None:
            inside = own and set(F).issuperset(i for n in F for i, _ in rows[n])
            totals = []
            for signs in product((1, -1), repeat=size) if small else [(1,) * size]:
                combined: dict[int, int] = {}
                for sign, n in zip(signs, F):
                    for i, v in rows[n]:
                        combined[i] = combined.get(i, 0) + sign * v
                if inside:
                    totals.append(_sum_total(ambient, combined.values()))
                else:
                    support = tuple(sorted(i for i, v in combined.items() if v))
                    values = [combined[i] for i in support]
                    totals.append(_norm_total(ambient, support, values, budget,
                                              memo)[0])
            record = _sm_record(size, totals)
            if key is not None:
                shared[key] = record
        yield F, record


def _sm_record(size: int, totals: list[int]) -> tuple[tuple, int, list[int]]:
    """The record of a member of ``size`` points whose sign patterns, in the
    order of ``product((1, -1), repeat=size)``, have the integer ``totals``
    (one total, of the uniform positive pattern, past the coefficient
    budget): ``(signs, least, totals)``, the first pattern of least total,
    that total and the totals themselves."""
    least = min(totals)
    first = totals.index(least)   # its bits, high first, are the minus signs
    signs = tuple(-1 if first >> bit & 1 else 1 for bit in reversed(range(size)))
    return signs, least, totals


def _sm_least(ambient: NormSpec, N: int, D: int,
              records: Iterable[tuple[FinSet, tuple]]) -> HorizonEstimate:
    """The first pattern of least ratio ``total / (D * |F|)`` (its root, for
    square totals), compared on integers, as the estimate of
    :func:`sm_constant`, from the member records of :func:`_sm_patterns`."""
    p = _total_power(ambient)
    best = None
    for F, (signs, total, _) in records:
        if best is None or total * len(best[0]) ** p < best[2] * len(F) ** p:
            best = F, signs, total
    if best is None:
        raise ValueError("no nonempty admissible sets in the horizon")
    F, signs, total = best
    value = _value(_total_result(ambient, D, total)) / len(F)
    witness = f"{F};{','.join(format_fraction(s) for s in signs)}"
    return HorizonEstimate(value, "upper_bound", N, witness)


# -- threshold families and largeness --------------------------------------------------


class DeltaFamily(Record):
    """Sets on which some listed functional clears the threshold everywhere.

    ``hit_sets[i]`` collects the indices ``n`` in ``1..horizon`` where the
    i-th functional is at least ``delta`` on the n-th vector; the family
    consists of all subsets of the hit sets, so it is hereditary by
    construction.
    """

    __slots__ = ("hit_sets", "delta", "horizon", "labels")
    hit_sets: tuple[FinSet, ...]
    delta: Fraction
    horizon: int
    labels: tuple[str, ...]

    def contains(self, F: FinSet) -> bool:
        return any(all(n in hits for n in F) for hits in self.hit_sets)

    def to_json(self) -> dict:
        return {
            "hit_sets": [str(h) for h in self.hit_sets],
            "delta": format_fraction(self.delta),
            "horizon": self.horizon,
            "labels": list(self.labels),
        }


def f_delta(functionals: Sequence[Functional], xs: SeqSpec, delta: Fraction,
            N: int) -> DeltaFamily:
    """The sets in ``1..N`` that one functional pushes past ``delta``.

    Every functional must be certified for the ambient norm of ``xs``;
    thresholding against other maps says nothing about its dual ball.  The
    test is exact on integers: the elements ``1..N`` over one common
    denominator, the coefficients once per functional, and the threshold by
    cross-multiplying with ``delta``.  The elements are indexed by
    coordinate, so a functional adds up totals over its own coefficients
    only; an element it never meets has total 0, which clears the threshold
    exactly when ``delta <= 0``.
    """
    delta = Fraction(delta)
    coefficients = _certified_coefficients(functionals, xs.ambient)
    rows, D = _scaled_horizon(xs, N)
    hit_sets = _hit_sets(coefficients, rows, D, delta)
    return DeltaFamily(hit_sets, delta, N, tuple(f.label for f in functionals))


def _certified_coefficients(functionals: Sequence[Functional],
                            ambient: NormSpec) -> Iterator[tuple]:
    """The scaled coefficients of ``functionals``, once each is known to be
    certified for ``ambient``; the refusal comes before the first."""
    uncertified = [f.label or "?" for f in functionals if f.certified_for is None]
    if uncertified:
        raise CertificationRefusedError(
            f"uncertified functionals not allowed here: {', '.join(uncertified)}")
    foreign = [f.label or "?" for f in functionals if f.certified_for != ambient]
    if foreign:
        raise CertificationRefusedError(
            f"functionals certified for a norm other than {ambient}: "
            f"{', '.join(foreign)}")
    return (f.coefficients.scaled() for f in functionals)


def _hit_sets(scaled_coefficients: Iterable[tuple], rows: Sequence[tuple],
              D: int, delta: Fraction) -> tuple[FinSet, ...]:
    """The hit sets of :func:`f_delta`, one per scaled ``(support,
    coefficients, D_f)``, on the ``rows`` of :func:`_scaled_horizon`."""
    # f(x_n) = total / (D_f * D), so f(x_n) >= p/q exactly when
    # total * q >= p * D_f * D, with every term an integer.
    p, q = delta.numerator, delta.denominator
    users: dict[int, list[tuple[int, int]]] = {}   # i -> (n, numerator) pairs
    for n, row in enumerate(rows):
        for i, v in row:
            users.setdefault(i, []).append((n, v))
    hit_sets = []
    for support, coefficients, D_f in scaled_coefficients:
        totals = dict.fromkeys(range(1, len(rows)), 0) if p <= 0 else {}
        for i, c in zip(support, coefficients):
            for n, v in users.get(i, ()):
                totals[n] = totals.get(n, 0) + c * v
        bound = p * D_f * D
        # Distinct positive keys, so sorted they need no validation.
        hit_sets.append(tuple.__new__(FinSet, sorted(
            n for n, total in totals.items() if total * q >= bound)))
    return tuple(hit_sets)


class LargeCheckResult(Record):
    """Whether every admissible image set in the horizon lies in the family."""

    __slots__ = ("ok", "checked", "certificate", "order", "stream", "horizon")
    ok: bool
    checked: int
    certificate: FinSet | None
    order: str
    stream: str
    horizon: int

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checked": self.checked,
            "certificate": None if self.certificate is None
            else str(self.certificate),
            "order": self.order,
            "stream": self.stream,
            "horizon": self.horizon,
        }


def large_check(xi: Ordinal, c: Fraction, xs: SeqSpec, M: IndexStream,
                functionals: Sequence[Functional], N: int, *,
                weak_limit: RatVec | None = None,
                fs: FundamentalRule = default_fundamental_seq,
                budget: Budget | None = None) -> LargeCheckResult:
    """Check largeness at level ``c`` along ``M`` over the window ``1..N``.

    The sequence is recentered by the caller-supplied weak limit (zero by
    default, right for basis-like sequences); every set carried by ``M``
    with admissible positions must then lie in the level-``c`` threshold
    family.  The first failing set in lexicographic order is the
    certificate.  The verdict is certified on this window only.  The walk
    over the positions is metered as it goes, so a failure met early is
    reported even when the whole family is past the budget.  A set that is
    itself a hit set is covered at no cost.  Any other set ``F`` is covered
    exactly when the AND over ``n`` in ``F`` of the bitmasks of the hit sets
    holding ``n`` is nonzero; the scan stops at the first zero and charges
    one unit of ``budget.work`` per AND (``largeness subset tests``), and
    each bitmask, built at its first use, one unit per 64 hit sets it spans.
    """
    return _large(xi, c, xs, M, _certified_coefficients(functionals, xs.ambient),
                  N, weak_limit, fs=fs, budget=get_budget(budget))


def _large(xi: Ordinal, c: Fraction, xs: SeqSpec, M: IndexStream,
           scaled_coefficients: Iterable[tuple], N: int,
           weak_limit: RatVec | None, *, fs: FundamentalRule,
           budget: Budget) -> LargeCheckResult:
    """:func:`large_check` of the functionals with the given scaled
    ``(support, coefficients, D_f)``, as ``quantity large`` asks it of
    coordinate sums with no functional built: ``xs`` is recentered by
    ``weak_limit`` when given, and the scan reads the hit sets of the
    coefficients at level ``c`` on its scaled rows."""
    if weak_limit is not None:
        element = xs.element
        xs = SeqSpec(xs.ambient, lambda n: element(n) - weak_limit, xs.name)
    rows, D = _scaled_horizon(xs, N)
    return _large_scan(xi, _hit_sets(scaled_coefficients, rows, D, Fraction(c)),
                       M, N, None, fs=fs, budget=budget)


def _large_scan(xi: Ordinal, hit_sets: Iterable[FinSet], M: IndexStream, N: int,
                members: Iterable[FinSet] | None, *,
                fs: FundamentalRule, budget: Budget) -> LargeCheckResult:
    """The scan of :func:`large_check` over the given hit sets; ``members``
    is the order-``xi`` family over the positions ``M`` carries below ``N``,
    walked here when None.  The index of the hit sets is built at the first
    nonempty set that is no hit set: a scan whose every nonempty set is its
    own hit set, as in the bundles, never builds it, and any hit set covers
    the empty set."""
    hit_sets = dict.fromkeys(hit_sets)   # distinct, in first-seen order
    subset_tests = WorkMeter("largeness subset tests", budget.work)
    values = []
    position = 1
    while True:
        value = M.element(position)
        if value > N:
            break
        values.append(value)
        position += 1
    if members is None:
        members = enumerate_family(xi, len(values), fs=fs, budget=budget)
    # Along the identity the positions are the values themselves.
    identity = all(v == k for k, v in enumerate(values, 1))
    everyone = (1 << len(hit_sets)) - 1   # any hit set covers the empty set
    masks = None
    checked = 0
    for G in members:
        # An increasing stream keeps the increasing positions increasing.
        F = G if identity else tuple.__new__(FinSet, [values[g - 1] for g in G])
        checked += 1
        if F in hit_sets:
            continue
        covering = everyone
        for n in F:
            if masks is None:
                masks = _HitMasks(hit_sets, subset_tests)
            subset_tests.spend()
            covering &= masks[n]
            if not covering:
                break
        if not covering:
            return LargeCheckResult(False, checked, F, str(xi), M.name, N)
    return LargeCheckResult(True, checked, None, str(xi), M.name, N)


class _HitMasks(dict):
    """The index of the largeness scan: ``self[n]`` has bit ``j`` set when
    ``n`` lies in the j-th hit set.  The hit sets are inverted once, and
    each mask is built at its first read, as bytes read once, so in time
    linear in its bits; it charges ``meter`` one unit per 64 of them, which
    bounds the memory the index keeps."""

    def __init__(self, hit_sets: Iterable[FinSet], meter: WorkMeter):
        super().__init__()
        self.holders: dict[int, list[int]] = {}
        for j, hits in enumerate(hit_sets):
            for n in hits:
                self.holders.setdefault(n, []).append(j)
        self.meter = meter

    def __missing__(self, n: int) -> int:
        holders = self.holders.get(n, ())
        row = bytearray(holders[-1] // 8 + 1 if holders else 0)
        self.meter.spend(len(row) // 8 + 1)
        for j in holders:
            row[j >> 3] |= 1 << (j & 7)
        self[n] = mask = int.from_bytes(row, "little")
        return mask


# -- the two-term ratio formula ---------------------------------------------------------


class PropFormulaValues(Record):
    """Exact values of the vanishing remainder and the main lower-bound term."""

    __slots__ = ("l", "c", "vanishing", "main")
    l: int
    c: Fraction
    vanishing: Fraction
    main: Fraction

    def to_json(self) -> dict:
        return {
            "l": self.l,
            "c": format_fraction(self.c),
            "vanishing": format_fraction(self.vanishing),
            "main": format_fraction(self.main),
            "vanishing_approx": float(self.vanishing),
            "main_approx": float(self.main),
        }


def prop_formula(l: int, c: Fraction) -> PropFormulaValues:
    """Evaluate the two-term ratio formula at length scale ``l`` and level
    ``c``; both must be positive.

    ``main`` climbs to ``2c`` and ``vanishing`` falls to 0 as ``l`` grows;
    both are exact rationals.

    >>> values = prop_formula(10, Fraction(1, 2))
    >>> (values.main, values.vanishing)
    (Fraction(945, 1111), Fraction(9, 1111))
    """
    if l < 1:
        raise ValueError("the length scale must be a positive integer")
    c = Fraction(c)
    if c <= 0:
        raise ValueError("the level must be positive")
    vanishing, main_over_c, denominator = _prop_formula_terms(l)
    return PropFormulaValues(l, c, Fraction(vanishing, denominator),
                             c * Fraction(main_over_c, denominator))


def _prop_formula_terms(l: int) -> tuple[int, int, int]:
    """``(v, m, d)`` with ``vanishing = v/d`` and ``main / c = m/d`` at length
    scale ``l``, unreduced: ``main / c`` is ``l^2`` times the remainder plus
    ``(l^3 - l^2) / (l^3 + l)``.

    >>> _prop_formula_terms(10)
    (900, 189000, 111100)
    """
    cube, square = l ** 3, l ** 2
    vanishing = cube - square
    return (vanishing, vanishing * square + vanishing * (square + l),
            (square + l) * (cube + l))
