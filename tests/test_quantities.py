"""Window oscillation statistics, threshold families, and the ratio formula.

Frozen window values were computed by hand from the order-one norm: the best
admissible set is a final segment of the support no longer than its least
element.
"""

import itertools
import math
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreier_lab import quantities, spaces
from schreier_lab.cli import quantity
from schreier_lab.budget import Budget, BudgetExceededError
from schreier_lab.ordinal import default_fundamental_seq, parse
from schreier_lab.quantities import (
    DeltaFamily, HorizonEstimate, ca_window, cca_window, cca_xi_tilde,
    cca_xi_tilde_sup, cca_xi_window, compose_refinements, f_delta,
    large_check, prop_formula, sm_constant)
from schreier_lab.schreier import FinSet, enumerate_family
from schreier_lab.spaces import (
    CertificationRefusedError, Functional, NormSpec, _norm_total,
    coordinate_sum_functional, norm)
from schreier_lab.streams import IndexStream, parse_stream
from schreier_lab.vectors import (CanonicalBasis, ExplicitSequence, RatVec,
                                  SeqSpec, Subsequence, WeightedBasis,
                                  format_fraction)

S1 = NormSpec.schreier(parse("1"))
STAR1 = NormSpec.star(parse("1"))
ALL = IndexStream.all_indices()
HALF = Fraction(1, 2)


# -- sequences ---------------------------------------------------------------------


def test_sequence_specs():
    basis = CanonicalBasis(S1)
    assert basis.element(3) == RatVec.unit(3)
    assert basis.name == "basis"
    with pytest.raises(ValueError):
        basis.element(0)

    weighted = WeightedBasis(S1, [Fraction(2), Fraction(3)], tail=HALF)
    assert weighted.element(2) == RatVec({2: 3})
    assert weighted.element(9) == RatVec({9: HALF})

    explicit = ExplicitSequence(S1, [RatVec.unit(5)])
    assert explicit.element(1) == RatVec.unit(5)
    with pytest.raises(ValueError):
        explicit.element(2)
    assert explicit.name == "explicit[1]"

    sub = Subsequence(basis, IndexStream.evens())
    assert sub.element(2) == RatVec.unit(4)
    assert sub.name == "basis[evens]"


# -- window statistics -------------------------------------------------------------


def test_ca_window_on_the_basis():
    basis = CanonicalBasis(S1)
    assert ca_window(basis, 2, 10) == 2     # e_k - e_l carries a full pair
    assert ca_window(basis, 1, 2) == 1      # only e_1 - e_2, and 1 is special
    assert ca_window(CanonicalBasis(STAR1), 1, 4) == 1
    assert ca_window(basis, 5, 5) == 0      # no pairs in a singleton window


def test_ca_window_constant_sequence_is_flat():
    xs = ExplicitSequence(S1, [RatVec.unit(3)] * 6)
    assert ca_window(xs, 1, 6) == 0


def test_window_validation():
    basis = CanonicalBasis(S1)
    for n0, N in ((0, 3), (4, 3), (-1, -1)):
        with pytest.raises(ValueError):
            ca_window(basis, n0, N)
        with pytest.raises(ValueError):
            cca_window(basis, n0, N)
        with pytest.raises(ValueError):
            cca_xi_window(parse("1"), ALL, basis, n0, N)


def test_a_window_past_the_budget_is_refused_before_it_is_built():
    # A window of 64 has 2016 pairs, one norm each.
    basis, tight = CanonicalBasis(S1), Budget(work=2000)
    assert ca_window(basis, 2, 64, budget=tight) == 2
    for window in (lambda: ca_window(basis, 1, 64, budget=tight),
                   lambda: cca_window(basis, 1, 3000, budget=tight),
                   lambda: cca_xi_window(parse("1"), ALL, basis, 1, 64,
                                         budget=tight)):
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError) as info:
            window()
        assert time.perf_counter() - started < 0.5
        assert str(info.value).startswith(
            "budget exceeded for window pairs: limit 2000 (needs = ")
    assert str(info.value).endswith("(needs = 2016)")


def test_a_refused_averaged_window_looks_up_no_averaging_method(monkeypatch):
    from schreier_lab import averages
    calls = []
    lookup = averages._averages
    monkeypatch.setattr(averages, "_averages",
                        lambda *args: calls.append(args) or lookup(*args))
    basis = CanonicalBasis(S1)
    with pytest.raises(ValueError):
        cca_xi_window(parse("1"), ALL, basis, 3, 2)
    with pytest.raises(BudgetExceededError):
        cca_xi_window(parse("1"), ALL, basis, 1, 64, budget=Budget(work=2000))
    assert calls == []
    assert cca_xi_window(parse("1"), ALL, basis, 1, 2) == HALF
    assert calls   # an answered window does look its method up


def test_cca_window_frozen_values():
    basis = CanonicalBasis(S1)
    # Means of the basis: u_1 - u_4 puts 3/4 on index 1, which dominates.
    assert cca_window(basis, 1, 4) == Fraction(3, 4)
    assert cca_window(basis, 2, 4) == HALF


def test_a_narrow_window_builds_only_its_own_means():
    # 55 pairs at N 1000: the running means before the window are not built.
    started = time.perf_counter()
    value = cca_window(CanonicalBasis(S1), 990, 1000, budget=Budget(work=2000))
    assert time.perf_counter() - started < 1
    assert value == Fraction(37, 2475)


def recursive_means(element, N):
    """The running means by the recursion ``u_n = (n-1)/n u_{n-1} + x_n/n``."""
    means, mean = {}, RatVec()
    for n in range(1, N + 1):
        mean = RatVec.combination(((Fraction(n - 1, n), mean),
                                   (Fraction(1, n), element(n))))
        means[n] = mean
    return means


def test_running_means_equal_the_recursion_inside_the_window():
    xs = ExplicitSequence(S1, [RatVec({1: HALF, 3: -1}), RatVec({2: Fraction(2, 3)}),
                               RatVec({1: -HALF, 3: 1}), RatVec({4: 5}),
                               RatVec({2: Fraction(-1, 7), 5: 1}), RatVec()])
    expected = recursive_means(xs.element, 6)
    for n0 in range(1, 7):
        assert quantities._cesaro_prefix(xs.element, n0, 6) == \
            {n: expected[n] for n in range(n0, 7)}


def test_cca_xi_at_order_zero_is_plain_cca():
    basis = CanonicalBasis(S1)
    for n0, N in ((1, 5), (2, 6)):
        assert cca_xi_window(parse("0"), ALL, basis, n0, N) == \
            cca_window(basis, n0, N)


def test_cca_xi_window_frozen_value():
    # Averaging the basis at order one reproduces the averaging vectors, so
    # the first two means differ by half of (zeta_1 - zeta_2).
    assert cca_xi_window(parse("1"), ALL, CanonicalBasis(S1), 1, 2) == HALF


def test_cca_xi_surfaces_infeasible_supports():
    with pytest.raises(BudgetExceededError):
        cca_xi_window(parse("1"), IndexStream.cubes(), CanonicalBasis(S1), 1, 4)


# The float nearest sqrt(2), as a fraction; it lies above sqrt(2).
ROOT2_UP = Fraction(math.sqrt(2))


def test_window_maximum_is_exact_in_either_order():
    # The norms of the differences are sqrt(2), irrational, and ROOT2_UP.
    assert ROOT2_UP ** 2 > 2
    first, second = RatVec({1: 1, 2: 1}), RatVec({1: ROOT2_UP})
    for vectors in ([RatVec(), first, second], [RatVec(), second, first]):
        value = ca_window(ExplicitSequence(NormSpec.l2(), vectors), 1, 3)
        assert (type(value), value) == (Fraction, ROOT2_UP)


# -- catalog estimates --------------------------------------------------------------


def test_horizon_estimate_validation_and_json():
    est = HorizonEstimate(HALF, "upper_bound", 7, witness="2,3")
    assert est.to_json() == {"value": "1/2", "approx": 0.5,
                             "direction": "upper_bound", "horizon": "7",
                             "witness": "2,3"}
    with pytest.raises(ValueError):
        HorizonEstimate(HALF, "sideways", 7)


def test_cca_xi_tilde_minimizes_over_the_catalog():
    basis = CanonicalBasis(S1)
    catalog = [ALL, IndexStream.evens()]
    separate = [cca_xi_window(parse("1"), M, basis, 1, 2) for M in catalog]
    est = cca_xi_tilde(parse("1"), basis, catalog, 1, 2)
    assert est.value == min(separate)
    assert est.direction == "upper_bound"
    assert est.witness in ("all", "evens")


def test_cca_xi_tilde_exact_at_zero():
    constant = ExplicitSequence(S1, [RatVec.unit(1)] * 16)
    est = cca_xi_tilde(parse("1"), constant, [ALL, IndexStream.evens()], 1, 2)
    assert est.value == 0
    assert est.direction == "exact"
    assert est.witness == "all"


def test_catalog_extremes_are_exact_in_either_order():
    # Order 0 leaves the sequence as it is, so the first two means differ by
    # (1, 1) along all, of norm sqrt(2), and by ROOT2_UP e_3 along evens.
    xs = ExplicitSequence(NormSpec.l2(), [
        RatVec(), RatVec({1: 2, 2: 2}), RatVec(),
        RatVec({1: 2, 2: 2, 3: 2 * ROOT2_UP})])
    zero, evens = parse("0"), IndexStream.evens()
    for catalog in ([ALL, evens], [evens, ALL]):
        least = cca_xi_tilde(zero, xs, catalog, 1, 2)
        assert (type(least.value), least.witness) == (float, "all")
        most = cca_xi_tilde_sup(zero, xs, catalog, lambda M: [M], 1, 2)
        assert (type(most.value), most.value, most.witness) == (
            Fraction, ROOT2_UP, "evens")
        refined = cca_xi_tilde_sup(zero, xs, catalog, lambda M: catalog, 1, 2)
        assert type(refined.value) is float


def test_cca_xi_tilde_needs_a_catalog():
    with pytest.raises(ValueError):
        cca_xi_tilde(parse("1"), CanonicalBasis(S1), [], 1, 2)


def test_compose_refinements():
    refine = compose_refinements([ALL, IndexStream.evens()])
    refined = refine(IndexStream.evens())
    assert [M.prefix(3) for M in refined] == [(2, 4, 6), (4, 8, 12)]


def test_cca_xi_tilde_sup_frozen():
    basis = CanonicalBasis(S1)
    est = cca_xi_tilde_sup(parse("1"), basis, [ALL, IndexStream.evens()],
                           None, 1, 2)
    assert est.value == HALF
    assert est.direction == "unverified"
    assert est.witness == "all"


def test_cca_xi_tilde_sup_rejects_empty_refinements():
    with pytest.raises(ValueError):
        cca_xi_tilde_sup(parse("1"), CanonicalBasis(S1), [ALL],
                         lambda M: [], 1, 2)


# -- smallest admissible combinations ---------------------------------------------


def test_sm_constant_on_the_basis():
    est = sm_constant(parse("1"), CanonicalBasis(S1), 6)
    assert est.value == 1
    assert est.direction == "upper_bound"
    assert est.witness == "1;1"


def test_sm_constant_sees_cancellation_in_the_star_norm():
    est = sm_constant(parse("1"), CanonicalBasis(STAR1), 6)
    assert est.value == HALF
    assert est.witness == "2,3;1,-1"


@pytest.mark.parametrize("xi_text", ["w+1", "w^2"])
def test_sm_constant_refuses_a_family_of_long_members_before_scanning(xi_text):
    # The count is refused, so no member is walked: the first members in
    # {1..3000} are the runs {2..k}, and the scan would spend on each.
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        sm_constant(parse(xi_text), CanonicalBasis(S1), 3000,
                    budget=Budget(work=2000))
    assert time.perf_counter() - started < 1
    assert str(info.value) == ("budget exceeded for family enumeration: "
                               "limit 2000 (needs >= 2001)")


def test_sm_constant_respects_the_coefficient_budget():
    # With only the uniform positive pattern the star cancellation is gone.
    est = sm_constant(parse("1"), CanonicalBasis(STAR1), 6, coeff_budget=1)
    assert est.value == 1


# The scan runs on integers; the reference below is the plain Fraction loop,
# one RatVec.combination and one norm per sign pattern.


def sm_reference(xi, xs, N, coeff_budget):
    best, best_witness = None, None
    for F in enumerate_family(xi, N):
        if not F:
            continue
        elements = [xs.element(n) for n in F]
        if len(F) <= coeff_budget:
            patterns = itertools.product((Fraction(1), Fraction(-1)), repeat=len(F))
        else:
            patterns = [tuple(Fraction(1) for _ in F)]
        for signs in patterns:
            result = norm(xs.ambient, RatVec.combination(zip(signs, elements)))
            value = result.value if result.value is not None else result.approx
            ratio = value / len(F)
            if best is None or ratio < best:
                best, best_witness = ratio, (F, signs)
    F, signs = best_witness
    return best, f"{F};{','.join(format_fraction(s) for s in signs)}"


def overlapping_vectors():
    # Close to one another along coordinate 1, so mixed signs cancel most of
    # the mass, yet keep the support of the uniform pattern: only the
    # magnitudes change from pattern to pattern.
    return [RatVec({1: Fraction(6 + n, 7), n + 1: Fraction((-1) ** n, 5),
                    n + 3: Fraction(n, 9)})
            for n in range(1, 7)]


SEQUENCES = {
    "basis": lambda ambient: CanonicalBasis(ambient),
    "weighted": lambda ambient: WeightedBasis(
        ambient, [Fraction(1, 2), Fraction(3), Fraction(-2, 5), Fraction(7, 6)],
        tail=Fraction(-1, 3)),
    "explicit": lambda ambient: ExplicitSequence(ambient, overlapping_vectors()),
    "subsequence": lambda ambient: Subsequence(
        WeightedBasis(ambient, [Fraction(2, 3)] * 3, tail=Fraction(5, 2)),
        IndexStream.evens()),
    # x_1 = e_1 and x_n = e_{n-1} + e_n: not diagonal, and the rows of a
    # member stay inside it exactly when it holds n - 1 with each n > 1.
    "adjacent": lambda ambient: SeqSpec(
        ambient, lambda n: RatVec({n - 1: 1, n: 1} if n > 1 else {1: 1}),
        "adjacent"),
}


# Walked at order 1, only schreier:1 is the space's own walk; the last two
# are own walks at order 2.
@pytest.mark.parametrize("space, xi_text", [
    *(pytest.param(space, "1", id=space)
      for space in ("l1", "l2", "sup", "schreier:1", "star:2", "baernstein:1")),
    *(pytest.param(space, "2", id=f"{space}-xi2")
      for space in ("schreier:2", "star:2"))])
@pytest.mark.parametrize("sequence", sorted(SEQUENCES))
def test_sm_constant_matches_the_fraction_scan(space, xi_text, sequence):
    xs = SEQUENCES[sequence](NormSpec.parse(space))
    xi = parse(xi_text)
    for coeff_budget in range(5):
        est = sm_constant(xi, xs, 6, coeff_budget)
        value, witness = sm_reference(xi, xs, 6, coeff_budget)
        assert (est.value, est.witness) == (value, witness), coeff_budget
        assert type(est.value) is type(value)
        assert est.direction == "upper_bound"


def test_sm_constant_ties_of_irrational_ratios_keep_the_first_pattern():
    # Every pattern on five copies of e_20 + e_21 in l2 has the ratio sqrt 2
    # exactly, so the first one wins, and its value is the root itself.
    xs = ExplicitSequence(NormSpec.l2(), [RatVec({20: 1, 21: 1})] * 5)
    est = sm_constant(parse("1"), xs, 5, coeff_budget=0)
    assert est.value == math.sqrt(2)
    assert est.witness == "1;1"


def stingy(x, n):
    return default_fundamental_seq(x, max(1, n - 1))


def brute_record(ambient, xs, F, coeff_budget):
    """The record of ``F`` by brute force: every sign pattern combined into
    one vector and totalled by the kernels, with no memo, as ``(signs,
    least, totals)`` with the totals as Fractions."""
    patterns = (list(itertools.product((1, -1), repeat=len(F)))
                if len(F) <= coeff_budget else [(1,) * len(F)])
    totals = []
    for signs in patterns:
        x = RatVec.combination(zip(signs, (xs.element(n) for n in F)))
        support, values, d = x.scaled()
        totals.append(Fraction(_norm_total(ambient, support, values, Budget())[0], d))
    least = min(totals)
    return patterns[totals.index(least)], least, totals


def as_fractions(record, D):
    signs, least, totals = record
    return signs, Fraction(least, D), [Fraction(t, D) for t in totals]


def scan_against_the_kernels(ambient, xs, N, coeff_budget, order, fs):
    """Each member of the walk at ``order`` under ``fs`` with the record the
    sign-pattern scan gives it, its totals as Fractions, and its
    :func:`brute_record`; the scan must visit every nonempty member in walk
    order."""
    rows, D = quantities._scaled_horizon(xs, N)
    members = [F for F in enumerate_family(order, N, fs=fs) if F]
    scanned = []
    for F, record in quantities._sm_patterns(
            ambient, rows, coeff_budget, members, order, fs, Budget()):
        scanned.append(F)
        yield F, as_fractions(record, D), brute_record(ambient, xs, F,
                                                        coeff_budget)
    assert scanned == members


@given(order=st.sampled_from(["0", "1", "2", "w", "w+1"]),
       kind=st.sampled_from(["schreier", "schreier_star"]),
       rule=st.sampled_from([default_fundamental_seq, stingy]),
       sequence=st.sampled_from(sorted(SEQUENCES)),
       N=st.integers(1, 9), coeff_budget=st.integers(0, 4))
@settings(max_examples=120, deadline=None)
def test_sm_patterns_of_an_own_walk_match_the_kernels(order, kind, rule, sequence,
                                                       N, coeff_budget):
    # The walk and the ambient share order and rule, so patterns inside
    # their member take integer totals: on the diagonal basis and weighted
    # fixtures, and from summed rows on the adjacent one where they stay
    # inside; the explicit and subsequence fixtures, and the adjacent one
    # elsewhere, put supports outside it, which takes the kernels.
    ambient = NormSpec(kind, parse(order), rule)
    xs = SEQUENCES[sequence](ambient)
    N = min(N, 6) if sequence == "explicit" else N
    for F, record, expected in scan_against_the_kernels(
            ambient, xs, N, coeff_budget, ambient.xi, rule):
        assert record == expected, F


@pytest.mark.parametrize("ambient_rule, walk_rule",
                         [(stingy, default_fundamental_seq),
                          (default_fundamental_seq, stingy)])
def test_sm_patterns_of_a_walk_under_another_rule_take_the_kernels(
        monkeypatch, ambient_rule, walk_rule):
    calls = []
    real = quantities._norm_total

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(quantities, "_norm_total", counted)
    ambient = NormSpec.star(parse("w"), fs=ambient_rule)
    records = list(scan_against_the_kernels(ambient, CanonicalBasis(ambient), 8,
                                            3, ambient.xi, walk_rule))
    # One kernel call per sign pattern.
    assert len(calls) == sum(len(record[2]) for _, record, _ in records) > 0
    assert all(record == expected for _, record, expected in records)
    calls.clear()
    # The same walk in the space of its own rule calls no kernel.
    ambient = NormSpec.star(parse("w"), fs=walk_rule)
    list(scan_against_the_kernels(ambient, CanonicalBasis(ambient), 8, 3,
                                  ambient.xi, walk_rule))
    assert calls == []
    # So does a weighted basis whose listed weights differ point to point.
    mixed = WeightedBasis(ambient, [Fraction(4), Fraction(-1, 3), Fraction(5, 2),
                                    Fraction(-5, 2)], tail=Fraction(3))
    records = list(scan_against_the_kernels(ambient, mixed, 8, 3, ambient.xi,
                                            walk_rule))
    assert calls == []
    assert all(record == expected for _, record, expected in records)


@pytest.mark.parametrize("kind", ["schreier", "schreier_star"])
@pytest.mark.parametrize("order", ["1", "2"])
def test_a_shared_record_equals_a_fresh_one(kind, order):
    # The members inside the tail carry one mass at every point and share one
    # record per weight and size; a scan of one member builds its record
    # afresh, and both match brute force.
    ambient = NormSpec(kind, parse(order))
    tail = Fraction(-5, 2)
    xs = WeightedBasis(ambient, [Fraction(2), Fraction(-1, 3)], tail=tail)
    rows, D = quantities._scaled_horizon(xs, 9)
    walk = ambient.xi, default_fundamental_seq, Budget()
    shared = {}
    for F, record in quantities._sm_patterns(
            ambient, rows, 3, enumerate_family(ambient.xi, 9), *walk):
        weights = {xs.element(n)[n] for n in F}
        if len(weights) == 1:
            key = weights.pop(), len(F)
            assert shared.setdefault(key, record) is record, F
        fresh = list(quantities._sm_patterns(ambient, rows, 3, [F], *walk))
        assert fresh == [(F, record)]
        assert as_fractions(record, D) == brute_record(ambient, xs, F, 3)
    # Shared past the coefficient budget too.
    assert {(tail, 1), (tail, 2), (tail, 3), (tail, 4)} <= set(shared)


def sign_pattern_units(order, N, coeff_budget):
    return sum(2 ** len(F) if len(F) <= coeff_budget else 1
               for F in enumerate_family(parse(order), N) if F)


@pytest.mark.parametrize("order, N, coeff_budget", [
    ("0", 9, 1), ("1", 8, 2), ("1", 11, 4), ("2", 9, 3), ("w", 10, 5)])
@pytest.mark.parametrize("space", ["schreier", "star"])
def test_sign_patterns_cost_exactly_one_unit_each(order, N, coeff_budget, space):
    # The scan answers at exactly the sign patterns of its members and is
    # refused one unit below; the family count costs less than that.
    units = sign_pattern_units(order, N, coeff_budget)
    xs = CanonicalBasis(NormSpec.parse(f"{space}:{order}"))
    answered = sm_constant(parse(order), xs, N, coeff_budget,
                           budget=Budget(work=units))
    assert answered == sm_constant(parse(order), xs, N, coeff_budget)
    with pytest.raises(BudgetExceededError) as info:
        sm_constant(parse(order), xs, N, coeff_budget,
                    budget=Budget(work=units - 1))
    assert str(info.value).startswith(
        f"budget exceeded for sign patterns: limit {units - 1} (needs >= ")


# -- threshold families --------------------------------------------------------------


def test_f_delta_hit_sets():
    functionals = [coordinate_sum_functional(FinSet.of(2, 3), S1),
                   coordinate_sum_functional(FinSet.of(4), S1)]
    family = f_delta(functionals, CanonicalBasis(S1), Fraction(1), 6)
    assert family.hit_sets == (FinSet.of(2, 3), FinSet.of(4))
    assert family.labels == ("sum[2,3]", "sum[4]")
    assert family.contains(FinSet.of(2))
    assert family.contains(FinSet())
    assert not family.contains(FinSet.of(2, 4))
    assert family.to_json()["hit_sets"] == ["2,3", "4"]


def test_f_delta_threshold_scaling():
    functionals = [coordinate_sum_functional(FinSet.of(2, 3), S1)]
    xs = WeightedBasis(S1, [], tail=HALF)
    at_half = f_delta(functionals, xs, HALF, 5)
    assert at_half.hit_sets == (FinSet.of(2, 3),)
    above = f_delta(functionals, xs, Fraction(2, 3), 5)
    assert above.hit_sets == (FinSet(),)
    assert above.contains(FinSet())
    assert not above.contains(FinSet.of(2))
    with pytest.raises(ValueError, match="^horizon must be at least 0, got -1$"):
        f_delta(functionals, xs, HALF, -1)


def test_f_delta_refuses_uncertified_functionals():
    bare = Functional(RatVec({2: Fraction(1)}), None, label="raw")
    with pytest.raises(CertificationRefusedError):
        f_delta([bare], CanonicalBasis(S1), Fraction(1), 4)


def test_f_delta_refuses_functionals_certified_for_another_norm():
    # Certified for l1 only: the all-ones functional reads 3 on e1+e2+e3,
    # whose schreier:1 norm is 2, so no norm-one functional of the space
    # gives its hit set {1}.
    ones = Functional(RatVec({1: 1, 2: 1, 3: 1}), NormSpec.l1(), "ones")
    xs = ExplicitSequence(S1, [RatVec({1: 1, 2: 1, 3: 1})])
    with pytest.raises(CertificationRefusedError,
                       match="^functionals certified for a norm other than "
                             "schreier:1: ones$"):
        f_delta([ones], xs, Fraction(3), 1)
    with pytest.raises(CertificationRefusedError, match="ones"):
        large_check(parse("1"), Fraction(3), xs, ALL, [ones], 1)


@pytest.mark.parametrize("delta", [Fraction(-3, 7), Fraction(0), Fraction(2, 9), HALF,
                                   Fraction(1), Fraction(5, 4)])
@pytest.mark.parametrize("sequence", ["weighted", "explicit", "subsequence"])
def test_f_delta_matches_functional_evaluation(delta, sequence):
    xs = SEQUENCES[sequence](S1)
    functionals = [
        Functional(RatVec({1: Fraction(-1, 2), 2: Fraction(3, 4)}), S1, "a"),
        Functional(RatVec({1: Fraction(3, 2), 5: -1}), S1, "d"),
        Functional(RatVec({3: Fraction(2, 3), 4: -1, 6: Fraction(1, 5)}), S1, "b"),
        Functional(RatVec({n: Fraction((-1) ** n, n) for n in range(2, 12)}),
                   S1, "c"),
        coordinate_sum_functional(FinSet.of(4, 5, 6), S1),
        Functional(RatVec(), S1, "zero"),
    ]
    family = f_delta(functionals, xs, delta, 6)
    expected = tuple(
        FinSet.of(*(n for n in range(1, 7)
                    if f.evaluate(xs.element(n), check=False) >= delta))
        for f in functionals)
    assert family.hit_sets == expected
    # Some element clears every threshold and some element misses it.
    assert any(family.hit_sets)
    assert not all(len(h) == 6 for h in family.hit_sets)


@pytest.mark.parametrize("delta, hit", [(Fraction(-1, 3), True), (Fraction(0), True),
                                        (Fraction(1, 3), False)])
def test_f_delta_on_an_element_no_functional_meets(delta, hit):
    # The third element lives on coordinate 9, which no functional uses, so
    # its total is 0 under both: it clears the threshold exactly when
    # delta <= 0.
    xs = ExplicitSequence(S1, [RatVec({1: 1}), RatVec({2: Fraction(-1, 2)}),
                               RatVec({9: 5}), RatVec({1: HALF, 2: 1})])
    functionals = [Functional(RatVec({1: 1, 2: 1}), S1, "a"),
                   Functional(RatVec({2: Fraction(2, 3)}), S1, "b")]
    family = f_delta(functionals, xs, delta, 4)
    expected = tuple(
        FinSet.of(*(n for n in range(1, 5)
                    if f.evaluate(xs.element(n), check=False) >= delta))
        for f in functionals)
    assert family.hit_sets == expected
    assert all((3 in hits) == hit for hits in family.hit_sets)


@pytest.mark.parametrize("delta", [-HALF, Fraction(0), Fraction(2, 9), Fraction(1),
                                   Fraction(5, 4)])
@pytest.mark.parametrize("sequence", sorted(SEQUENCES))
def test_hit_sets_of_bare_members_match_f_delta(delta, sequence):
    # The bundles' path, each member's sum as (F, ones, 1) on one scaling,
    # against f_delta over the certified coordinate-sum functionals.
    horizon = 6 if sequence == "explicit" else 9
    for xi_text in ["0", "1", "2", "w", "w+1"]:
        spec = NormSpec.schreier(parse(xi_text))
        xs = SEQUENCES[sequence](spec)
        for N in range(1, horizon + 1):
            members = [F for F in enumerate_family(spec.xi, N) if F]
            rows, D = quantities._scaled_horizon(xs, N)
            bare = quantities._hit_sets(((F, [1] * len(F), 1) for F in members),
                                        rows, D, delta)
            functionals = [coordinate_sum_functional(F, spec) for F in members]
            assert bare == f_delta(functionals, xs, delta, N).hit_sets, (xi_text, N)


# -- largeness checks ----------------------------------------------------------------


def all_sum_functionals(xi, spec, N):
    return [coordinate_sum_functional(F, spec)
            for F in enumerate_family(xi, N) if F]


def sum_members(spec, N, gamma_xi=None):
    # The certified walk behind `quantity fdelta` and `quantity large`.
    return quantity._sum_members(
        SimpleNamespace(space=spec.kind, gamma_xi=gamma_xi, N=N), spec)


@pytest.mark.parametrize("space", ["schreier:1", "schreier:2", "star:w"])
def test_sum_functionals_of_the_space_order_skip_the_membership_test(
        monkeypatch, space):
    # The space's own walk is certified by construction; a walk at another
    # order (singletons, here) is certified in one call over all members.
    calls = []
    certify = spaces._certify_sums

    def counted(sets, spec):
        sets = list(sets)
        calls.append((sets, spec))
        return certify(sets, spec)

    monkeypatch.setattr(spaces, "_certify_sums", counted)
    spec = NormSpec.parse(space)
    members = sum_members(spec, 8)
    assert calls == []
    singletons = sum_members(spec, 8, "0")
    assert calls == [(singletons, spec)]
    assert singletons == [FinSet.of(n) for n in range(1, 9)]
    monkeypatch.undo()
    assert [coordinate_sum_functional(F, spec) for F in members] == \
        all_sum_functionals(spec.xi, spec, 8)


def test_sum_functionals_of_another_order_are_certified():
    spec = NormSpec.schreier(parse("2"))
    assert [coordinate_sum_functional(F, spec)
            for F in sum_members(spec, 8, "1")] == \
        all_sum_functionals(parse("1"), spec, 8)
    with pytest.raises(CertificationRefusedError,
                       match=r"^\{2,3,4\} is not admissible at order 1$"):
        sum_members(S1, 6, "2")
    with pytest.raises(CertificationRefusedError,
                       match="kind 'baernstein' does not certify"):
        sum_members(NormSpec.baernstein(parse("1")), 6, "1")


def test_large_check_basis_is_large_at_one():
    functionals = all_sum_functionals(parse("1"), S1, 6)
    result = large_check(parse("1"), Fraction(1), CanonicalBasis(S1), ALL,
                         functionals, 6)
    assert result.ok and result.certificate is None
    assert result.checked == len(list(enumerate_family(parse("1"), 6)))
    assert result.to_json()["ok"] is True


def test_large_check_fails_above_one_with_lex_first_certificate():
    functionals = all_sum_functionals(parse("1"), S1, 6)
    result = large_check(parse("1"), Fraction(11, 10), CanonicalBasis(S1),
                         ALL, functionals, 6)
    assert not result.ok
    assert result.certificate == FinSet.of(1)
    assert result.checked == 2      # the empty set passes, then {1} fails


def test_large_check_follows_the_stream():
    functionals = [coordinate_sum_functional(FinSet.of(2), S1),
                   coordinate_sum_functional(FinSet.of(4), S1),
                   coordinate_sum_functional(FinSet.of(2, 4), S1)]
    result = large_check(parse("1"), Fraction(1), CanonicalBasis(S1),
                         IndexStream.evens(), functionals, 5)
    # Carried sets live on {2, 4}; all of them are hit sets here.
    assert result.ok
    assert result.stream == "evens"


def test_large_check_recenters_by_the_weak_limit():
    drift = RatVec.unit(1)
    xs = ExplicitSequence(S1, [drift + RatVec.unit(n + 1)
                               for n in range(1, 5)])
    sets = [FinSet.of(1), FinSet.of(2), FinSet.of(3), FinSet.of(2, 3)]
    functionals = [coordinate_sum_functional(F, S1) for F in sets]
    uncentered = large_check(parse("1"), Fraction(1), xs, ALL, functionals, 4)
    assert uncentered.ok      # sum[1] sees the drift on every vector
    centered = large_check(parse("1"), Fraction(1), xs, ALL, functionals, 4,
                           weak_limit=drift)
    assert not centered.ok
    assert centered.certificate == FinSet.of(2, 3)


def pairs(space, N):
    # x_n = e_n + e_{n+1}: at level 1 a member's sum hits each n with n or
    # n + 1 in the member, so most admissible sets are covered by a hit set
    # without being one.
    return ExplicitSequence(space, [RatVec({n: 1, n + 1: 1})
                                    for n in range(1, N + 1)])


def member_sums(order, space, N):
    return [Functional(RatVec(dict.fromkeys(F, 1)), space, label=f"sum[{F}]")
            for F in enumerate_family(order, N) if F]


def test_large_check_meters_its_subset_tests():
    # The sets that are no hit set are tested on the hit-set index: 35,311
    # ANDs here, where testing each against the hit sets in turn took
    # 671,675 subset tests.
    started = time.perf_counter()
    order = parse("2")
    space = NormSpec.schreier(order)
    budget = Budget(work=7000)
    functionals = member_sums(order, space, 14)
    with pytest.raises(BudgetExceededError) as info:
        large_check(order, Fraction(1), pairs(space, 14), ALL, functionals, 14,
                    budget=budget)
    assert time.perf_counter() - started < 1
    assert str(info.value) == ("budget exceeded for largeness subset tests: "
                               "limit 7000 (needs >= 7001)")


def test_large_check_answers_the_pairs_at_the_default_budget():
    # 6,718 sets and 1,897 hit sets: 35,311 ANDs on the index, where testing
    # each set against the hit sets in turn needed 671,675 subset tests.
    order = parse("2")
    space = NormSpec.schreier(order)
    result = large_check(order, Fraction(1), pairs(space, 14), ALL,
                         member_sums(order, space, 14), 14)
    assert (result.ok, result.checked, result.certificate) == (True, 6718, None)


def linear_large_scan(xi, family, M, N):
    # The reference: each carried set tested against the family's hit sets
    # in turn, by DeltaFamily.contains.
    values = list(itertools.takewhile(lambda v: v <= N,
                                      map(M.element, itertools.count(1))))
    checked = 0
    for G in enumerate_family(xi, len(values)):
        F = FinSet(values[g - 1] for g in G)
        checked += 1
        if not family.contains(F):
            return False, checked, F
    return True, checked, None


@given(order=st.sampled_from(["0", "1", "2", "w"]),
       stream=st.sampled_from(["all", "evens", "shift:2"]),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_large_scan_matches_the_linear_scan(order, stream, data):
    N = data.draw(st.integers(0, 9), label="N")
    subsets = st.frozensets(st.integers(1, N)) if N else st.just(frozenset())
    hit_sets = [FinSet(sorted(hits))
                for hits in data.draw(st.lists(subsets, max_size=20),
                                      label="hit_sets")]
    if data.draw(st.booleans(), label="add the whole horizon"):
        hit_sets.append(FinSet(range(1, N + 1)))
    xi, M = parse(order), parse_stream(stream)
    family = DeltaFamily(tuple(hit_sets), Fraction(1), N, ())
    result = quantities._large_scan(xi, hit_sets, M, N, None,
                                    fs=default_fundamental_seq, budget=Budget())
    assert (result.ok, result.checked, result.certificate) == \
        linear_large_scan(xi, family, M, N)


# -- the two-term ratio formula ----------------------------------------------------


def test_prop_formula_golden_values():
    values = prop_formula(10, HALF)
    assert values.main == Fraction(945, 1111)
    assert values.vanishing == Fraction(9, 1111)
    json = values.to_json()
    assert json["main"] == "945/1111" and json["vanishing"] == "9/1111"


def test_prop_formula_degenerate_and_invalid():
    assert prop_formula(1, HALF).main == 0
    assert prop_formula(1, HALF).vanishing == 0
    with pytest.raises(ValueError):
        prop_formula(0, HALF)


@pytest.mark.parametrize("c", [Fraction(0), Fraction(-1)])
def test_prop_formula_refuses_a_non_positive_level(c):
    with pytest.raises(ValueError, match="the level must be positive"):
        prop_formula(3, c)


def test_prop_formula_is_linear_in_the_level():
    for l in (2, 7, 30):
        double = prop_formula(l, Fraction(4, 5))
        single = prop_formula(l, Fraction(2, 5))
        assert double.main == 2 * single.main
        assert double.vanishing == single.vanishing


def test_prop_formula_closed_form():
    # Independent reduction of the two-term expression to one ratio.
    for l in range(2, 60):
        values = prop_formula(l, Fraction(3, 7))
        expect = Fraction(l * (l - 1) * (2 * l + 1),
                          (l * l + 1) * (l + 1))
        assert values.main == Fraction(3, 7) * expect
        assert values.vanishing == Fraction(l - 1, (l + 1) * (l * l + 1))


def test_prop_formula_envelopes():
    previous = None
    for l in range(2, 400):
        values = prop_formula(l, HALF)
        assert values.vanishing <= Fraction(1, l)
        assert 2 * HALF - values.main <= Fraction(5, l) * HALF
        if previous is not None:
            assert values.main >= previous
        previous = values.main
