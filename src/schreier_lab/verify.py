"""Desk-scale verification bundles for the worked norm examples and the
two-term ratio formula.

Each bundle returns a :class:`~schreier_lab.reports.Report` whose checks are
exact: the spreading constant 1 for the base norm, the constant 1/2 with its
explicit witness for the renorming, largeness of the basis just below level
1, certified dual evaluations on seeded samples, the unit cap on pairwise
distances of running means, and the convergence envelopes of the ratio
formula.  All sampling is seeded, so two runs emit identical JSON.

The two example bundles count their admissible family once, refusing it up
front when it is past the budget, and walk it once; the sign-pattern scans,
the largeness scan and the dual-certificate trials all read that one list
of members.  Each bundle scales its basis once over one denominator ``D``.
The walk yields members of the space's own order only, so their coordinate
sums are certified without testing membership again.  On the canonical
basis each sum is 1 on the basis vectors of its member and 0 elsewhere, so
its hit set is known by construction (``_basis_hit_sets``): every nonempty
member is its own hit set just below level 1, no total is taken, and the
largeness scan never builds its index.  The sign patterns are evaluated
once, in ``quantities``, and none of them reaches a norm kernel: each lives
inside its member, which is admissible, and the families are hereditary, so
every signed part of a pattern is admissible too and its total is its l1 or
larger signed mass.  The patterns are summarized per member, in a record of
the least pattern and the totals; every point of the basis carries the same
weight, so all members of one size share one record.  Each pattern still
costs one unit of work.  The star bundle reads its half-mass check off the
same records: the patterns of each member and its totals below half mass.
Its alternating pair and its distances of running means are integers, over
1 and over ``L = lcm(1..N)``, totalled by ``spaces._norm_total``, and so
are both bundles' dual-certificate samples, over ``lcm(1..9)``.  A distance
the budget refuses is certified by ``_sum_total`` on the same integers, an
upper bound on any vector.  All these totals are compared as integers, and
only the largest, or a violation, becomes a Fraction.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from typing import Iterable

from .budget import Budget, BudgetExceededError, get_budget
from .ordinal import FundamentalRule, Ordinal, default_fundamental_seq
from .quantities import (_check_coeff_budget, _large_scan, _prop_formula_terms,
                         _scaled_horizon, _sm_least, _sm_patterns, prop_formula)
from .reports import Report
from .schreier import FinSet, _family
from .spaces import NormSpec, _norm_total, _sum_total
from .streams import IndexStream
from .vectors import CanonicalBasis, format_fraction

__all__ = [
    "verify_example_schreier",
    "verify_example_star",
    "verify_prop_formula",
]


def _dual_certificate_trials(spec: NormSpec, members: list[FinSet], N: int, *,
                             budget: Budget):
    """Seeded spot check that certified sums never beat the norm.

    Each of 30 trials from seed 0 draws a nonempty member ``F`` (the walk
    yields the empty set first) and a sample of at most 6 entries ``p/q``
    with ``0 < |p|, q <= 9``, held exactly as integers over ``D =
    lcm(1..9)``.  Its sum over ``F`` and its norm total from
    ``spaces._norm_total`` (not a square, for the ``schreier`` and
    ``schreier_star`` norms) are both over ``D``, so they compare as
    integers.  A common factor of the magnitudes scales the kernel's totals
    and keeps its node counts, so a budget refusal, which propagates, comes
    where it would on the sample's own denominator.
    """
    rng = random.Random(0)
    numerators = [n for n in range(-9, 10) if n != 0]
    D = math.lcm(*range(1, 10))
    worst = (0, 1)   # the largest |sum| / total, as a pair
    for _ in range(30):
        F = members[1 + rng.randrange(len(members) - 1)]
        size = rng.randint(1, min(6, N))
        entries = {}
        for index in rng.sample(range(1, N + 1), size):
            p = rng.choice(numerators)
            entries[index] = p * D // rng.randint(1, 9)
        value = sum(entries[i] for i in F if i in entries)
        support = tuple(sorted(entries))
        bound = _norm_total(spec, support, [entries[i] for i in support],
                            budget)[0]
        if abs(value) > bound:
            return False, (f"|{Fraction(value, D)}| > {Fraction(bound, D)} "
                           f"at F={{{F}}}")
        if abs(value) * worst[1] > worst[0] * bound:
            worst = abs(value), bound
    return True, f"30 certified evaluations, max |f(x)|/norm = {Fraction(*worst)}"


def _basis_hit_sets(members: list[FinSet], N: int,
                    c: Fraction) -> Iterable[FinSet]:
    """The distinct hit sets at level ``c`` of the coordinate sums over the
    nonempty ``members`` on the canonical basis of ``1..N``, in first-seen
    order, by construction.  The sum over ``F`` is 1 on ``x_n`` for ``n`` in
    ``F`` and 0 on every other ``x_n``, so it hits ``F`` when ``0 < c <=
    1``, all of ``1..N`` when ``c <= 0``, and nothing when ``c > 1``."""
    if c <= 0:
        return [FinSet(range(1, N + 1))]
    if c > 1:
        return [FinSet()]
    return (F for F in members if F)


def _check_large(report: Report, order: Ordinal, c: Fraction,
                 members: list[FinSet], N: int, fs: FundamentalRule,
                 budget: Budget) -> None:
    """Largeness of the canonical basis at level ``c`` along the identity
    stream, tested by the coordinate sums over ``members``.  Each sums over
    a member of the space's own order, so it is certified by construction,
    and its hit set is built by construction too (``_basis_hit_sets``), with
    no total taken; they are the hit sets ``quantities._hit_sets`` finds."""
    large = _large_scan(order, _basis_hit_sets(members, N, c),
                        IndexStream.all_indices(), N, members, fs=fs,
                        budget=budget)
    report.check("basis-large-below-one", large.ok,
                 f"{large.checked} admissible sets at level {format_fraction(c)}"
                 + ("" if large.ok else f"; first failure {{{large.certificate}}}"))
    report.result("large", large.to_json())


def verify_example_schreier(xi: Ordinal, N: int, coeff_budget: int = 3, *,
                            c_override: Fraction | None = None,
                            fs: FundamentalRule = default_fundamental_seq,
                            budget: Budget | None = None) -> Report:
    """Exact checks for the canonical basis one order above ``xi``.

    The basis is normalized with spreading constant exactly 1, is large just
    below level 1 along the identity stream, and its admissible coordinate
    sums act as certified dual functionals.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    _check_coeff_budget(coeff_budget)
    started = time.perf_counter()
    budget = get_budget(budget)
    order = xi.successor()
    spec = NormSpec.schreier(order, fs=fs)
    basis = CanonicalBasis(spec)
    c = Fraction(1) - Fraction(1, N) if c_override is None else Fraction(c_override)
    report = Report(f"verify example-schreier --xi {xi} --N {N}",
                    {"xi": str(xi), "space": str(spec), "N": N,
                     "coeff_budget": coeff_budget, "c": format_fraction(c),
                     "seed": 0})

    members = list(_family(order, N, fs=fs, budget=budget))
    rows, D = _scaled_horizon(basis, N)
    sm = _sm_least(spec, N, D, _sm_patterns(spec, rows, coeff_budget, members,
                                            order, fs, budget))
    report.check("spreading-constant-is-one", sm.value == 1,
                 f"min ratio {sm.to_json()['value']} at {sm.witness}")
    report.result("sm", sm.to_json())

    _check_large(report, order, c, members, N, fs, budget)

    ok, detail = _dual_certificate_trials(spec, members, N, budget=budget)
    report.check("dual-certificates-hold", ok, detail)

    report.wall_seconds = time.perf_counter() - started
    return report


def verify_example_star(xi: Ordinal, N: int, coeff_budget: int = 3, *,
                        fs: FundamentalRule = default_fundamental_seq,
                        budget: Budget | None = None) -> Report:
    """Exact checks for the basis under the positive/negative renorming.

    The sign split halves the spreading constant, with the first admissible
    pair and alternating signs as the extremal witness, while largeness
    survives and the running means stay within unit distance of each other.
    The witness lives on {2,3}, so a horizon below 3 is refused.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if N < 3:
        raise ValueError(f"N must be at least 3 to reach the witness {{2,3}}, got {N}")
    _check_coeff_budget(coeff_budget)
    started = time.perf_counter()
    budget = get_budget(budget)
    order = xi.successor()
    spec = NormSpec.star(order, fs=fs)
    basis = CanonicalBasis(spec)
    c = Fraction(1) - Fraction(1, N)
    report = Report(f"verify example-star --xi {xi} --N {N}",
                    {"xi": str(xi), "space": str(spec), "N": N,
                     "coeff_budget": coeff_budget, "c": format_fraction(c),
                     "seed": 0})

    diff_norm = _norm_total(spec, (2, 3), [1, -1], budget)[0]   # e_2 - e_3
    report.check("alternating-pair-has-norm-one", diff_norm == 1,
                 f"norm {diff_norm}")

    members = list(_family(order, N, fs=fs, budget=budget))
    # The spreading-constant scan streams one record per nonempty member.
    # Every sign choice is met on the members of at most coeff_budget
    # points, and the half-mass check tallies their records on the way: the
    # patterns, and the totals below half mass.
    rows, D = _scaled_horizon(basis, N)
    checked = violations = 0

    def tallied(records):
        nonlocal checked, violations
        for F, record in records:
            if len(F) <= coeff_budget:
                totals = record[2]
                checked += len(totals)
                violations += sum(2 * t < D * len(F) for t in totals)
            yield F, record

    sm = _sm_least(spec, N, D, tallied(_sm_patterns(spec, rows, coeff_budget,
                                                    members, order, fs, budget)))
    report.check("half-lower-bound-holds", violations == 0,
                 f"{checked} sign patterns, {violations} below half mass")

    expected_witness = "2,3;1,-1"
    report.check("spreading-constant-is-half",
                 sm.value == Fraction(1, 2) and sm.witness == expected_witness,
                 f"min ratio {sm.to_json()['value']} at {sm.witness}")
    report.result("sm", sm.to_json())

    _check_large(report, order, c, members, N, fs, budget)

    # Distances of running means on integers over L = lcm(1..N): L * (mean_k
    # - mean_l) is L/k - L/l on 1..k and -L/l on k+1..l.  Exact totals when
    # the search is affordable, otherwise the larger signed mass, which
    # bounds the total from above; only the largest becomes a Fraction.
    L = math.lcm(*range(1, N + 1))
    cap_violations = largest = 0
    routes = {"exact": 0, "l1-certificate": 0}
    for k in range(1, N + 1):
        for l in range(k + 1, N + 1):
            values = [L // k - L // l] * k + [-(L // l)] * (l - k)
            try:
                total = _norm_total(spec, tuple(range(1, l + 1)), values, budget)[0]
                routes["exact"] += 1
            except BudgetExceededError:
                total = _sum_total(spec, values)
                routes["l1-certificate"] += 1
            if total > L:
                cap_violations += 1
            elif total > largest:
                largest = total
    report.check("mean-distances-capped-at-one", cap_violations == 0,
                 f"max distance {format_fraction(Fraction(largest, L))} "
                 f"({routes['exact']} exact, {routes['l1-certificate']} certified)")
    report.result("mean_distance_routes", routes)

    report.wall_seconds = time.perf_counter() - started
    return report


def verify_prop_formula(l_max: int, c: Fraction, *,
                        budget: Budget | None = None) -> Report:
    """Tabulate the ratio formula and check its approach to ``2c``.

    The main term must climb once past the degenerate first row and stay
    within ``5/l`` of the limit in relative terms; the remainder must fall
    and stay below ``1/l``.  Each row costs one unit of work, so ``l_max``
    past the work budget is refused up front; the rows are checked as they
    are computed, keeping only the first five offenders of each check and
    the rows shown.
    """
    started = time.perf_counter()
    if l_max < 1:
        raise ValueError("need l_max >= 1")
    c = Fraction(c)
    budget = get_budget(budget)
    if l_max > budget.work:
        raise BudgetExceededError("prop-formula rows", budget.work, needed=l_max)
    report = Report(f"verify prop-formula --l-max {l_max} --c {format_fraction(c)}",
                    {"l_max": l_max, "c": format_fraction(c),
                     "target": format_fraction(2 * c)})

    envelope_bad, vanishing_bad, main_drops, vanishing_rises = [], [], [], []
    stride = max(1, l_max // 10)
    # The checks cross-multiply each row's integer terms (row 1 refuses
    # c <= 0, so main compares as main / c); only the shown rows, the last
    # among them, become Fractions.
    shown, previous = [], None
    for l in range(1, l_max + 1):
        v, a, b = row = _prop_formula_terms(l)
        if len(envelope_bad) < 5 and l * abs(a - 2 * b) > 5 * b:
            envelope_bad.append(l)
        if len(vanishing_bad) < 5 and l * v > b:
            vanishing_bad.append(l)
        if l >= 3:
            pv, pa, pb = previous
            if len(main_drops) < 5 and a * pb < pa * b:
                main_drops.append(l)
            if len(vanishing_rises) < 5 and v * pb > pv * b:
                vanishing_rises.append(l)
        if l == 1 or l == l_max or l % stride == 0:
            shown.append(prop_formula(l, c).to_json())
        previous = row

    report.check("main-within-five-over-l", not envelope_bad,
                 "relative gap |main/c - 2| <= 5/l on every row"
                 if not envelope_bad else f"violated at l = {envelope_bad}")
    report.check("vanishing-below-one-over-l", not vanishing_bad,
                 "vanishing <= 1/l on every row"
                 if not vanishing_bad else f"violated at l = {vanishing_bad}")
    report.check("main-climbs-from-two", not main_drops,
                 "main is non-decreasing for l >= 2"
                 if not main_drops else f"drops at l = {main_drops}")
    report.check("vanishing-falls-from-two", not vanishing_rises,
                 "vanishing is non-increasing for l >= 2"
                 if not vanishing_rises else f"rises at l = {vanishing_rises}")
    report.result("table", shown)
    report.result("final", shown[-1])

    report.wall_seconds = time.perf_counter() - started
    return report
