"""Repeated averaging vectors, their exact sizes, and block combinations.

The frozen prefixes below were derived by hand from the recursion: a
successor-order vector uniformly averages a block of the order below whose
length is the value of the first index it covers, and a limit-order vector
follows the approximating order picked by the first value of the remaining
stream.
"""

import itertools
import tracemalloc
from fractions import Fraction

import pytest

from schreier_lab import averages
from schreier_lab.averages import (
    AmbiguousReconstructionError, ExplicitMethod, NibccWitness,
    RepeatedAverages, apply, cesaro_mean, cesaro_reweight, check_nibcc,
    pair_sum, repeated_avg, successor_pair_prefix, support_size)
from schreier_lab.budget import Budget, BudgetExceededError
from schreier_lab.ordinal import classify, default_fundamental_seq, parse
from schreier_lab.quantities import CanonicalBasis
from schreier_lab.schreier import FinSet, trace_member
from schreier_lab.spaces import NormSpec
from schreier_lab.streams import IndexStream
from schreier_lab.vectors import ProbVector, RatVec

ALL = IndexStream.all_indices()
HALF = Fraction(1, 2)


def uniform(values) -> dict:
    values = list(values)
    w = Fraction(1, len(values))
    return {v: w for v in values}


# -- materialized vectors ------------------------------------------------------


def test_order_zero_is_the_stream_basis():
    for M in (ALL, IndexStream.shift(2), IndexStream.cubes()):
        for n in (1, 2, 5):
            assert repeated_avg(parse("0"), M, n).entries == {M.element(n): 1}


def test_order_one_prefix_over_all():
    expected = [
        {1: Fraction(1)},
        uniform([2, 3]),
        uniform(range(4, 8)),
        uniform(range(8, 16)),
    ]
    for n, want in enumerate(expected, start=1):
        assert repeated_avg(parse("1"), ALL, n).entries == want


def test_order_one_along_other_streams():
    assert repeated_avg(parse("1"), IndexStream.shift(1), 1).entries == \
        uniform([2, 3])
    assert repeated_avg(parse("1"), IndexStream.evens(), 1).entries == \
        uniform([2, 4])
    assert repeated_avg(parse("1"), IndexStream.evens(), 2).entries == \
        uniform([6, 8, 10, 12, 14, 16])
    cubes = IndexStream.cubes()
    assert repeated_avg(parse("1"), cubes, 1).entries == {1: Fraction(1)}
    assert repeated_avg(parse("1"), cubes, 2).entries == \
        uniform([n ** 3 for n in range(2, 10)])


def test_order_two_prefix_over_all():
    assert repeated_avg(parse("2"), ALL, 1).entries == {1: Fraction(1)}
    second = repeated_avg(parse("2"), ALL, 2)
    want = {2: Fraction(1, 4), 3: Fraction(1, 4)}
    want.update({i: Fraction(1, 8) for i in range(4, 8)})
    assert second.entries == want
    # The third vector averages the eight order-one blocks covering 8..2047.
    third = repeated_avg(parse("2"), ALL, 3)
    assert len(third) == 2040
    assert third.support()[0] == 8 and third.support()[-1] == 2047
    assert third[8] == Fraction(1, 64)        # 1/8 of the 8-wide block
    assert third[1024] == Fraction(1, 8192)   # 1/8 of the 1024-wide block
    assert third.total() == 1


def test_order_two_over_shift():
    first = repeated_avg(parse("2"), IndexStream.shift(1), 1)
    want = {2: Fraction(1, 4), 3: Fraction(1, 4)}
    want.update({i: Fraction(1, 8) for i in range(4, 8)})
    assert first.entries == want


def test_limit_order_follows_the_stream_head():
    # Over All the limit recursion lands on order n at the n-th step.
    assert repeated_avg(parse("w"), ALL, 1).entries == {1: Fraction(1)}
    second = repeated_avg(parse("w"), ALL, 2)
    assert second == repeated_avg(parse("2"), ALL, 2)
    # Over cubes the first remaining value is 1, so order 1 is used.
    assert repeated_avg(parse("w"), IndexStream.cubes(), 1).entries == \
        {1: Fraction(1)}


def test_supports_are_consecutive_stream_blocks():
    for M in (ALL, IndexStream.shift(1), IndexStream.evens()):
        consumed = 0
        for n in range(1, 6):
            supp = repeated_avg(parse("1"), M, n).support()
            width = len(supp)
            assert supp == M.prefix(consumed + width)[consumed:]
            consumed += width


def test_supports_trace_into_the_family():
    cells = [("1", ALL, 5), ("1", IndexStream.cubes(), 3),
             ("2", ALL, 3), ("2", IndexStream.shift(1), 2), ("w", ALL, 2)]
    for xi_text, M, n_max in cells:
        xi = parse(xi_text)
        for n in range(1, n_max + 1):
            supp = FinSet(repeated_avg(xi, M, n).support())
            assert trace_member(xi, M, supp), (xi_text, M.name, n)


# -- exact sizes without materializing ---------------------------------------------


def test_support_sizes_match_materialization():
    for n, want in ((1, 1), (2, 6), (3, 2040)):
        assert support_size(parse("2"), ALL, n) == want
    for n in range(1, 8):
        assert support_size(parse("1"), ALL, n) == \
            len(repeated_avg(parse("1"), ALL, n))


def test_infeasible_size_reports_a_lower_bound():
    with pytest.raises(BudgetExceededError) as info:
        support_size(parse("2"), ALL, 4)
    assert info.value.needed_is_lower_bound
    assert info.value.needed >= 262143
    with pytest.raises(BudgetExceededError) as info:
        support_size(parse("1"), IndexStream.cubes(), 4)
    assert info.value.needed >= 1_030_301_000


def test_materialization_respects_the_work_budget():
    with pytest.raises(BudgetExceededError):
        repeated_avg(parse("1"), ALL, 8, budget=Budget(work=100))


def test_refusal_keeps_to_the_callers_limit_after_a_wider_one():
    # Sizes cached under a wide budget must neither lend a later refusal
    # their cap nor let it grow them past the caller's own limit.
    M = IndexStream.shift(7)
    xi = parse("2")
    assert len(repeated_avg(xi, M, 1, budget=Budget(work=10 ** 5))) == 2040
    narrow = Budget(work=5_000)
    refusals = (lambda: repeated_avg(xi, M, 2, budget=narrow),
                lambda: support_size(xi, M, 2, cap=narrow.work),
                lambda: successor_pair_prefix(parse("1"), M, 2, budget=narrow))
    for refuse in refusals:
        with pytest.raises(BudgetExceededError) as info:
            refuse()
        assert info.value.limit == 5_000
        # Order-1 vectors along shift:7 cover 8, 16, 32, ... entries; the
        # first total past 5,000 is 8 * (2^10 - 1).
        assert info.value.needed == 8_184
        assert info.value.needed_is_lower_bound


def test_refusal_keeps_no_per_entry_state(monkeypatch):
    # Order-0 boundaries are just n, so sizing a refusal that spans 2^18
    # stream entries must not allocate anything per entry.
    monkeypatch.delenv("SCHREIER_LAB_BUDGET", raising=False)
    monkeypatch.setattr(averages, "_AVERAGES_CACHE", {})
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as info:
            repeated_avg(parse("2"), ALL, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value).endswith("limit 200000 (needs >= 262143)")
    assert peak < 1_000_000


def test_a_long_vector_keeps_no_per_entry_intermediates(monkeypatch):
    # Only the requested vector is expanded: order-1 vector 17 has 65,536
    # entries and its predecessors are never built.
    monkeypatch.delenv("SCHREIER_LAB_BUDGET", raising=False)
    monkeypatch.setattr(averages, "_AVERAGES_CACHE", {})
    tracemalloc.start()
    try:
        vec = repeated_avg(parse("1"), ALL, 17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vec.support() == tuple(range(2 ** 16, 2 ** 17))
    assert set(vec.entries.values()) == {Fraction(1, 2 ** 16)}
    assert peak < 40_000_000


# -- oracle: the definition through ProbVector.average ------------------------------


class _OverBudget(Exception):
    """The reference drew more stream entries than the budget allows."""


def reference_averages(xi, M, drawn, cap):
    """The averages of order ``xi`` along ``M``, one at a time, from the
    definition, every one built by ``ProbVector`` with all its checks.

    ``drawn[0]`` counts the unit vectors drawn at every level; generators
    never draw ahead, so it reaches the entries covered by the averages
    yielded so far, and passing ``cap`` raises :class:`_OverBudget`.
    """
    kind, pred = classify(xi)
    if kind == "zero":
        for j in itertools.count(1):
            drawn[0] += 1
            if drawn[0] > cap:
                raise _OverBudget
            yield ProbVector.unit(M.element(j))
    elif kind == "successor":
        lower = reference_averages(pred, M, drawn, cap)
        for first in lower:
            block = [first] + [next(lower) for _ in range(first.min_support() - 1)]
            yield ProbVector.average(block)
    else:
        used = 0
        while True:
            tail = M.drop(used)
            approx = default_fundamental_seq(xi, tail.element(1))
            vec = next(reference_averages(approx, tail, drawn, cap))
            used += len(vec)
            yield vec


def _pronic(n):
    return n * (n + 1)


ORACLE_STREAMS = (ALL, IndexStream.shift(1), IndexStream.shift(3),
                  IndexStream.evens(), IndexStream.cubes(),
                  IndexStream.explicit((2, 3, 5, 7, 11), 7),
                  IndexStream.custom(_pronic, "pronic"))


@pytest.mark.parametrize("xi_text", ["0", "1", "2", "3", "w", "w+1", "w*2", "w^2"])
def test_repeated_avg_matches_the_definition(xi_text):
    xi = parse(xi_text)
    budget = Budget(work=3_000)
    exact = 0
    for M in ORACLE_STREAMS:
        reference = reference_averages(xi, M, [0], budget.work)
        for n in range(1, 5):
            # A reference that refused is finished: later averages cover
            # more, so they are refused too.
            try:
                want = next(reference)
            except (_OverBudget, StopIteration):
                want = None
            if want is None:
                with pytest.raises(BudgetExceededError) as info:
                    repeated_avg(xi, M, n, budget=budget)
                assert info.value.limit == budget.work
                assert info.value.needed > budget.work
                continue
            vec = repeated_avg(xi, M, n, budget=budget)
            assert type(vec) is ProbVector
            assert vec == want, (xi_text, M, n)
            assert vec.support() == want.support()
            assert len(vec) == support_size(xi, M, n, cap=budget.work)
            method = RepeatedAverages(xi, M)
            assert apply(method, CanonicalBasis(NormSpec.l1()), n,
                         budget=budget) == vec
            exact += 1
    assert exact > 0


# -- summability methods --------------------------------------------------------------


def test_repeated_averages_method():
    method = RepeatedAverages(parse("1"), ALL)
    assert method.stream == ALL
    assert method.vector(2) == repeated_avg(parse("1"), ALL, 2)
    method.validate_prefix(4)


def test_explicit_method_validation():
    good = ExplicitMethod([ProbVector.unit(1), ProbVector(uniform([2, 3]))],
                          ALL)
    good.validate_prefix(2)
    gap = ExplicitMethod([ProbVector.unit(1), ProbVector.unit(3)], ALL)
    with pytest.raises(ValueError):
        gap.validate_prefix(2)
    backwards = ExplicitMethod([ProbVector.unit(2), ProbVector.unit(1)], ALL)
    with pytest.raises(ValueError):
        backwards.validate_prefix(2)
    with pytest.raises(IndexError):
        good.vector(3)


def test_apply_averages_a_sequence():
    method = RepeatedAverages(parse("1"), ALL)
    xs = [RatVec.unit(10 + i) for i in range(1, 8)]
    out = apply(method, xs, 2)
    assert out.entries == {12: HALF, 13: HALF}
    with pytest.raises(ValueError):
        apply(method, xs[:2], 3)  # sequence shorter than the support


def test_pair_sum():
    a = RatVec({1: HALF, 2: Fraction(1, 3), 5: 1})
    assert pair_sum(a, FinSet.of(1, 5)) == Fraction(3, 2)
    assert pair_sum(a, FinSet.of(4)) == 0
    assert pair_sum(a, FinSet()) == 0


def test_cesaro_mean():
    xs = [RatVec.unit(1), RatVec.unit(2), RatVec.unit(3)]
    assert cesaro_mean(xs, 2).entries == {1: HALF, 2: HALF}
    with pytest.raises(ValueError):
        cesaro_mean(xs, 4)
    with pytest.raises(ValueError):
        cesaro_mean(xs, 0)


# -- block combination witnesses -------------------------------------------------------


def test_successor_pair_prefix_shapes():
    z, y = successor_pair_prefix(parse("0"), ALL, 3)
    assert [v.entries for v in z] == [
        {1: Fraction(1)}, uniform([2, 3]), uniform(range(4, 8))]
    assert [v.entries for v in y] == [{i: Fraction(1)} for i in range(1, 8)]


def test_successor_pair_prefix_needs_a_positive_count():
    # With boundaries cached, a negative count used to index them from the end.
    successor_pair_prefix(parse("0"), ALL, 3)
    for count in (0, -1):
        with pytest.raises(ValueError):
            successor_pair_prefix(parse("0"), ALL, count)


def test_check_nibcc_on_generated_pairs():
    z, y = successor_pair_prefix(parse("0"), ALL, 3)
    witness = check_nibcc(z, y)
    assert witness.breakpoints == (0, 1, 3, 7)
    assert witness.weights == (Fraction(1), HALF, HALF) + (Fraction(1, 4),) * 4
    assert witness.blocks == 3
    assert list(witness.block_range(2)) == [2, 3]

    z, y = successor_pair_prefix(parse("1"), ALL, 2)
    witness = check_nibcc(z, y)
    assert witness.breakpoints == (0, 1, 3)
    assert witness.weights == (Fraction(1), HALF, HALF)


def test_check_nibcc_rejects_increasing_weights():
    y = [RatVec.unit(1), RatVec.unit(2)]
    z = [RatVec({1: Fraction(1, 3), 2: Fraction(2, 3)})]
    assert check_nibcc(z, y) is None


def test_check_nibcc_needs_unique_weights():
    # Two copies of the same vector, each half the target: no single vector
    # works (its weight would be 2), and the two-vector block is
    # underdetermined, so the checker must refuse rather than pick weights.
    quarter = RatVec({1: Fraction(1, 4), 2: Fraction(1, 4)})
    z = [RatVec({1: HALF, 2: HALF})]
    with pytest.raises(AmbiguousReconstructionError):
        check_nibcc(z, [quarter, quarter])


def test_check_nibcc_repeated_vector_with_unit_weight():
    # A repeated vector is harmless when the first copy alone matches.
    u = RatVec({1: HALF, 2: HALF})
    witness = check_nibcc([u], [u, u])
    assert witness.breakpoints == (0, 1)
    assert witness.weights == (Fraction(1),)


def test_check_nibcc_overlapping_supports():
    y = [RatVec({1: HALF, 2: HALF}), RatVec({2: HALF, 3: HALF})]
    witness = check_nibcc([RatVec({1: Fraction(1, 4), 2: HALF,
                                   3: Fraction(1, 4)})], y)
    assert witness.breakpoints == (0, 2)
    assert witness.weights == (HALF, HALF)
    # Same supports, but the unique solution has increasing weights.
    bad = RatVec({1: Fraction(1, 8), 2: HALF, 3: Fraction(3, 8)})
    assert check_nibcc([bad], y) is None


def test_check_nibcc_overlap_between_non_adjacent_vectors():
    # Only y_1 and y_3 share a coordinate, so the supports are not pairwise
    # disjoint and the weights must come from the exact solver.
    y = [RatVec({1: HALF, 2: HALF}), RatVec.unit(3), RatVec({2: HALF, 4: HALF})]
    third = Fraction(1, 3)
    witness = check_nibcc([RatVec({1: third / 2, 2: third, 3: third,
                                   4: third / 2})], y)
    assert witness.breakpoints == (0, 3)
    assert witness.weights == (third, third, third)
    assert check_nibcc([y[0]], y).breakpoints == (0, 1)


def test_check_nibcc_on_a_long_disjoint_prefix():
    z, y = successor_pair_prefix(parse("0"), IndexStream.shift(2), 10)
    assert len(y) == 3_069
    witness = check_nibcc(z, y)
    sizes = [len(vec) for vec in z]
    assert witness.breakpoints == tuple(itertools.accumulate(sizes, initial=0))
    assert witness.weights == tuple(Fraction(1, size) for size in sizes
                                    for _ in range(size))
    for n, vec in enumerate(z, start=1):
        assert RatVec.combination((witness.weights[j - 1], y[j - 1])
                                  for j in witness.block_range(n)) == vec


def test_check_nibcc_rejects_non_combinations():
    z, y = successor_pair_prefix(parse("0"), ALL, 2)
    assert check_nibcc([z[0], z[1] + RatVec.unit(50)], y) is None


def test_witness_validation():
    with pytest.raises(ValueError):
        NibccWitness((1, 2), (Fraction(1),))          # must start at 0
    with pytest.raises(ValueError):
        NibccWitness((0, 2), (Fraction(1),))          # weight count off
    with pytest.raises(ValueError):
        NibccWitness((0, 2), (HALF, -HALF))           # not positive
    with pytest.raises(ValueError):
        NibccWitness((0, 2), (Fraction(1, 3), Fraction(2, 3)))  # increasing
    with pytest.raises(ValueError):
        NibccWitness((0, 1, 2), (HALF, HALF))         # block sums to 1/2


def cesaro_identity_holds(witness, z, y, n) -> bool:
    beta = cesaro_reweight(witness, n)
    lhs = RatVec()
    for vec in z[:n]:
        lhs = lhs + vec
    rhs = RatVec()
    for j, weight in beta.items():
        rhs = rhs + cesaro_mean(y, j).scale(weight)
    return lhs == rhs


@pytest.mark.parametrize("xi_text, count", [("0", 4), ("1", 2)])
def test_cesaro_reweighting_identity(xi_text, count):
    z, y = successor_pair_prefix(parse(xi_text), ALL, count)
    witness = check_nibcc(z, y)
    for n in range(1, count + 1):
        beta = cesaro_reweight(witness, n)
        assert all(v >= 0 for v in beta.values())
        assert sum(beta.values()) == n
        assert max(beta) == witness.breakpoints[n]
        assert cesaro_identity_holds(witness, z, y, n)


def test_cesaro_reweight_bounds():
    witness = NibccWitness((0, 1), (Fraction(1),))
    with pytest.raises(ValueError):
        cesaro_reweight(witness, 2)
    with pytest.raises(ValueError):
        cesaro_reweight(witness, 0)
