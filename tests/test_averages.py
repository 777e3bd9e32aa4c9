"""Repeated averaging vectors, their exact sizes, and block combinations.

The frozen prefixes below were derived by hand from the recursion: a
successor-order vector uniformly averages a block of the order below whose
length is the value of the first index it covers, and a limit-order vector
follows the approximating order picked by the first value of the remaining
stream.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from schreier_lab import averages
from schreier_lab.averages import (
    AmbiguousReconstructionError, NibccWitness, RepeatedAverages, apply,
    cesaro_mean, cesaro_reweight, check_nibcc, pair_sum, repeated_avg,
    successor_pair_prefix, support_size, validate_prefix)
from schreier_lab.budget import Budget, BudgetExceededError
from schreier_lab.ordinal import classify, default_fundamental_seq, parse
from schreier_lab.schreier import FinSet, trace_member
from schreier_lab.spaces import NormSpec
from schreier_lab.streams import IndexStream
from schreier_lab.vectors import (CanonicalBasis, ExplicitSequence, ProbVector,
                                  RatVec)

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


def test_deep_orders_need_no_interpreter_recursion(monkeypatch):
    # Each successor level is one step of the sizing and building
    # recursions, so these orders descend thousands of levels.
    monkeypatch.delenv("SCHREIER_LAB_BUDGET", raising=False)
    monkeypatch.setattr(averages, "_AVERAGES_CACHE", {})
    for text in ("3000", "w*3000", "w^2*3000"):
        assert repeated_avg(parse(text), ALL, 1) == ProbVector.unit(1), text
    with pytest.raises(BudgetExceededError) as info:
        repeated_avg(parse("3000"), ALL, 2)
    # Vector 2 starts at 2, so its 3000 successor levels cover at least
    # 2^3000 entries; the refusal reports the first total past the budget.
    assert info.value.needed_is_lower_bound
    assert info.value.limit < info.value.needed <= 2 ** 3000
    for n in (2, 3):
        with pytest.raises(BudgetExceededError) as info:
            repeated_avg(parse("w^3"), IndexStream.cubes(), n)
        assert info.value.needed_is_lower_bound
        assert info.value.needed > info.value.limit


def test_the_descent_through_orders_is_metered(monkeypatch):
    # Under a rule other than the default one nothing is known about the
    # orders the descent passes, and vector 2 of w^20 passes about 2^20 of
    # them before its first count; each order entered costs a unit of work.
    monkeypatch.setattr(averages, "_AVERAGES_CACHE", {})

    def rule(x, n):
        return default_fundamental_seq(x, n)

    with pytest.raises(BudgetExceededError) as info:
        support_size(parse("w^20"), ALL, 3, fs=rule, cap=5_000)
    assert str(info.value) == ("budget exceeded for repeated-average orders "
                               "visited: limit 5000 (needs >= 5001)")
    assert len(averages._AVERAGES_CACHE) < 6_000
    # The default rule finds the same refusal at w+1 on the way down.
    with pytest.raises(BudgetExceededError) as info:
        support_size(parse("w^20"), ALL, 3, cap=5_000)
    assert str(info.value).startswith("budget exceeded for repeated-average "
                                      "support entries: limit 5000")


def test_the_averages_cache_is_bounded(monkeypatch):
    # The descent under a copy of the default rule enters 20,000 orders
    # before it refuses; the cache keeps only the most recent ones.
    monkeypatch.setattr(averages, "_AVERAGES_CACHE", {})

    def rule(x, n):
        return default_fundamental_seq(x, n)

    with pytest.raises(BudgetExceededError) as info:
        support_size(parse("w^20"), ALL, 3, fs=rule, cap=20_000)
    assert info.value.limit == 20_000
    assert len(averages._AVERAGES_CACHE) <= averages._AVERAGES_CACHE_SIZE


def test_an_approximating_order_zero_averages_unit_vectors():
    # A rule whose w-sequence starts at 0: a vector of w whose first value is
    # m follows order m - 1, so vector 1 is a vector of order 0 itself.
    def rule(x, n):
        return parse(str(n - 1)) if x == parse("w") else default_fundamental_seq(x, n)

    assert repeated_avg(parse("w"), ALL, 1, fs=rule) == ProbVector({1: 1})
    assert support_size(parse("w"), ALL, 1, fs=rule) == 1
    assert repeated_avg(parse("w"), ALL, 2, fs=rule) == ProbVector(uniform((2, 3)))
    assert support_size(parse("w"), ALL, 2, fs=rule) == 2
    with pytest.raises(BudgetExceededError) as info:
        repeated_avg(parse("w"), ALL, 3, fs=rule)
    assert str(info.value).endswith("needs >= 262140)")


def _evict_all():
    for k in range(averages._AVERAGES_CACHE_SIZE):
        averages._averages(parse(str(k)), IndexStream.shift(1000),
                           default_fundamental_seq)


@pytest.mark.parametrize("xi_text, M, n", [
    ("2", ALL, 3), ("2", IndexStream.shift(1), 2), ("w", ALL, 2),
    ("w", IndexStream.evens(), 1)])
def test_vectors_rebuilt_after_an_eviction_are_the_same(monkeypatch,
                                                        xi_text, M, n):
    monkeypatch.setattr(averages, "_AVERAGES_CACHE", {})
    xi = parse(xi_text)
    key = (xi, M, default_fundamental_seq)
    before = repeated_avg(xi, M, n)
    _evict_all()
    assert key not in averages._AVERAGES_CACHE
    assert repeated_avg(xi, M, n) == before
    # Evicted between sizing and building: the orders below stay reachable
    # from the one sized, with the boundaries grown on them.
    monkeypatch.setattr(averages, "_AVERAGES_CACHE", {})
    top = averages._averages(xi, M, default_fundamental_seq)
    top._checked_covered(n, Budget().work)
    _evict_all()
    assert top._expanded(n) == before


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
            block = [first] + [next(lower)
                               for _ in range(first.support()[0] - 1)]
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


def _reachable(top):
    """Every averages object that ``top`` builds its vectors from."""
    seen, stack = {}, [top]
    while stack:
        found = stack.pop()
        if id(found) not in seen:
            seen[id(found)] = found
            stack.extend(a for a in [found._child, *found._approx] if a)
    return list(seen.values())


@pytest.mark.parametrize("xi_text", ["0", "1", "2", "3", "w", "w+1", "w*2", "w^2"])
def test_cached_runs_are_integer_unit_fraction_runs(xi_text):
    # Every weight is 1/q for an integer q >= 1, so the runs carry q alone.
    xi = parse(xi_text)
    budget = Budget(work=3_000)
    runs = 0
    for M in ORACLE_STREAMS:
        for n in range(1, 5):
            try:
                repeated_avg(xi, M, n, budget=budget)
            except BudgetExceededError:
                break
            top = averages._averages(xi, M, default_fundamental_seq)
            for found in _reachable(top):
                for cached in found._run_cache.values():
                    # Ascending and disjoint; no touching pair shares q.
                    assert all(a[1] + 1 < b[0] or (a[1] + 1 == b[0]
                                                   and a[2] != b[2])
                               for a, b in zip(cached, cached[1:])), cached
                    for run in cached:
                        first, last, q = run
                        assert all(type(v) is int for v in run), run
                        assert 1 <= first <= last and q >= 1, run
                        runs += 1
    assert runs > 0 or xi_text == "0"


# -- methods and prefixes ------------------------------------------------------------


def test_repeated_averages_method():
    method = RepeatedAverages(parse("1"), ALL)
    assert method.vector(2) == repeated_avg(parse("1"), ALL, 2)
    validate_prefix([method.vector(n) for n in range(1, 5)], ALL)


def test_explicit_method_validation():
    good = [ProbVector.unit(1), ProbVector(uniform([2, 3]))]
    validate_prefix(good, ALL)
    with pytest.raises(ValueError):
        validate_prefix([ProbVector.unit(1), ProbVector.unit(3)], ALL)
    with pytest.raises(ValueError):
        validate_prefix([ProbVector.unit(2), ProbVector.unit(1)], ALL)


def test_validate_prefix_names_a_zero_vector():
    with pytest.raises(ValueError, match="^vector 2 is zero$"):
        validate_prefix([RatVec({1: 1}), RatVec()], ALL)


def test_apply_averages_a_sequence():
    method = RepeatedAverages(parse("1"), ALL)
    vectors = [RatVec.unit(10 + i) for i in range(1, 8)]
    out = apply(method, ExplicitSequence(NormSpec.l1(), vectors), 2)
    assert out.entries == {12: HALF, 13: HALF}
    with pytest.raises(ValueError):
        # sequence shorter than the support
        apply(method, ExplicitSequence(NormSpec.l1(), vectors[:2]), 3)


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


def test_successor_pair_prefix_sizes_the_base_order_once(monkeypatch):
    # z_1..z_10 are sized one by one; the 3,069 base vectors they combine
    # are sized in one pass and then only expanded.
    monkeypatch.setattr(averages, "_AVERAGES_CACHE", {})
    sized = []
    checked = RepeatedAverages._checked_covered

    def counted(self, n, cap):
        sized.append((str(self.xi), n))
        return checked(self, n, cap)

    monkeypatch.setattr(RepeatedAverages, "_checked_covered", counted)
    z, y = successor_pair_prefix(parse("0"), IndexStream.shift(2), 10)
    assert len(y) == 3_069
    assert [call for call in sized if call[0] == "0"] == [("0", 3_069)]
    assert [call for call in sized if call[0] == "1"] == \
        [("1", n) for n in range(1, 11)]
    assert y == [repeated_avg(parse("0"), IndexStream.shift(2), j)
                 for j in range(1, 3_070)]


@pytest.mark.parametrize("M", ORACLE_STREAMS)
def test_the_order_zero_base_prefix_is_its_expanded_vectors(M):
    # One pass over the stream values builds what one expansion per index
    # built, class and entries alike.
    zero = parse("0")
    for count in range(1, 5):
        try:
            z, y = successor_pair_prefix(zero, M, count)
        except BudgetExceededError:
            assert count > 1    # a later count covers more
            break
        upper = averages._averages(parse("1"), M, default_fundamental_seq)
        base = averages._averages(zero, M, default_fundamental_seq)
        want = [base._expanded(j) for j in range(1, upper._sub_counts[count] + 1)]
        assert [type(vec) for vec in y] == [type(vec) for vec in want]
        assert [list(vec.items()) for vec in y] == [list(vec.items()) for vec in want]
        assert all(type(v) is Fraction for vec in y for _, v in vec.items())


def test_the_order_zero_base_prefix_checks_a_custom_stream():
    # Increasing for the first four positions only.
    dip = IndexStream.custom(lambda n: n + 1 if n < 5 else 1, "dip")
    z, y = successor_pair_prefix(parse("0"), dip, 1)
    assert [vec.support() for vec in y] == [(2,), (3,)]
    with pytest.raises(ValueError, match="stream custom:dip is not strictly "
                                         "increasing at position 5"):
        successor_pair_prefix(parse("0"), dip, 2)


@pytest.mark.parametrize("xi_text, M, count, limit, needed", [
    ("1", IndexStream.shift(7), 1, 1_000, 2_040),
    ("0", IndexStream.shift(2), 10, 1_000, 1_533),
    ("0", ALL, 12, 2_000, 2_047),
])
def test_successor_pair_prefix_refusal_after_a_wider_call(xi_text, M, count,
                                                          limit, needed):
    # Both orders are cached past the narrow budget; the refusal is the
    # first combined vector whose exact total passes it.
    xi = parse(xi_text)
    successor_pair_prefix(xi, M, count, budget=Budget(work=10 ** 5))
    narrow = Budget(work=limit)
    with pytest.raises(BudgetExceededError) as info:
        successor_pair_prefix(xi, M, count, budget=narrow)
    assert info.value.limit == narrow.work
    assert info.value.needed == needed
    assert not info.value.needed_is_lower_bound


def test_check_nibcc_on_generated_pairs():
    z, y = successor_pair_prefix(parse("0"), ALL, 3)
    witness = check_nibcc(z, y)
    assert witness.breakpoints == (0, 1, 3, 7)
    assert witness.weights == (Fraction(1), HALF, HALF) + (Fraction(1, 4),) * 4
    assert witness.blocks == 3

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


def _overlapping_pairs(count):
    """y_j = (e_j + e_{j+1}) / 2: each support meets the next one."""
    return [RatVec({j: HALF, j + 1: HALF}) for j in range(1, count + 1)]


def test_check_nibcc_overlapping_search_is_not_recursive():
    # One search level per z vector: far more levels than the interpreter's
    # recursion limit.
    y = _overlapping_pairs(1200)
    witness = check_nibcc(y, y)
    assert witness.breakpoints == tuple(range(1201))
    assert witness.weights == (Fraction(1),) * 1200


def test_check_nibcc_overlapping_search_is_metered():
    # The last z vector is no combination of any block, so the search
    # backtracks through every earlier level before it gives up.
    y = _overlapping_pairs(14)
    z = y[:-1] + [RatVec.unit(40)]
    assert check_nibcc(z, y) is None
    with pytest.raises(BudgetExceededError) as info:
        check_nibcc(z, y, budget=Budget(work=50))
    assert info.value.limit == 50
    assert info.value.needed > 50 and info.value.needed_is_lower_bound
    assert "nibcc block solves" in str(info.value)


def test_check_nibcc_on_a_long_disjoint_prefix():
    z, y = successor_pair_prefix(parse("0"), IndexStream.shift(2), 10)
    assert len(y) == 3_069
    witness = check_nibcc(z, y)
    sizes = [len(vec) for vec in z]
    bp = witness.breakpoints
    assert bp == tuple(itertools.accumulate(sizes, initial=0))
    assert witness.weights == tuple(Fraction(1, size) for size in sizes
                                    for _ in range(size))
    for n, vec in enumerate(z, start=1):
        assert RatVec.combination((witness.weights[j - 1], y[j - 1])
                                  for j in range(bp[n - 1] + 1, bp[n] + 1)) == vec


def test_check_nibcc_rejects_non_combinations():
    z, y = successor_pair_prefix(parse("0"), ALL, 2)
    assert check_nibcc([z[0], z[1] + RatVec.unit(50)], y) is None


def reference_match_block_weights(target, y, start):
    """The disjoint-support matching on fractions, as it was written before
    the matcher ran on integers: the oracle for that matcher."""
    remaining = dict(target.items())
    weights = []
    acc = Fraction(0)
    j = start
    while True:
        if j >= len(y) or y[j].is_zero:
            return None
        yj = y[j]
        lead = yj.support()[0]
        alpha = remaining.get(lead, Fraction(0)) / yj[lead]
        if alpha <= 0:
            return None
        for i, v in yj.items():
            if remaining.pop(i, None) != alpha * v:
                return None
        weights.append(alpha)
        acc += alpha
        j += 1
        if acc == 1:
            return (weights, j) if not remaining else None
        if acc > 1:
            return None


_ENTRY = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))
_WEIGHT = st.builds(Fraction, st.integers(-1, 6), st.integers(1, 6))


@st.composite
def _disjoint_blocks(draw):
    """Disjoint y vectors, a start, and a target near a combination of a
    block of them: exact, or with its lead entry dropped, one entry off,
    or one coordinate too many."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    indices = draw(st.permutations(range(1, sum(sizes) + 1)))
    y, used = [], 0
    for size in sizes:
        y.append(RatVec({i: draw(_ENTRY) for i in indices[used:used + size]}))
        used += size
    start = draw(st.integers(0, len(y) - 1))
    end = draw(st.integers(start + 1, len(y)))
    if draw(st.booleans()):
        # Weights summing to 1, so that the block can match.
        cuts = sorted(draw(st.lists(st.integers(1, 11), min_size=end - start - 1,
                                    max_size=end - start - 1)))
        bounds = [0, *cuts, 12]
        alphas = [Fraction(b - a, 12) for a, b in zip(bounds, bounds[1:])]
    else:
        alphas = [draw(_WEIGHT) for _ in range(start, end)]
    target = dict(RatVec.combination(zip(alphas, y[start:end])).items())
    flaw = draw(st.sampled_from(["none", "none", "drop lead", "off", "extra"]))
    if flaw == "drop lead":
        target.pop(y[draw(st.integers(start, end - 1))].support()[0], None)
    elif flaw == "off" and target:
        index = draw(st.sampled_from(sorted(target)))
        target[index] += draw(_ENTRY)
    elif flaw == "extra":
        target[used + draw(st.integers(1, 3))] = draw(_ENTRY)
    return RatVec(target), y, start


_Y = [RatVec({1: 2, 2: -4}), RatVec({3: Fraction(-1, 3)}),
      RatVec({4: Fraction(3, 2)})]


@settings(max_examples=400, deadline=None)
@given(case=_disjoint_blocks())
# 1/4 y_1 + 3/4 y_2, with non-unit weights and negative entries; then no
# entry at the lead of y_2, a sum past 1, and a sum short of 1.
@example(case=(RatVec({1: HALF, 2: -1, 3: Fraction(-1, 4)}), _Y, 0))
@example(case=(RatVec({1: HALF, 2: -1}), _Y, 0))
@example(case=(RatVec({1: 1, 2: -2, 3: -1}), _Y, 0))
@example(case=(RatVec({1: HALF, 2: -1, 3: Fraction(-1, 6)}), _Y, 0))
def test_integer_matcher_agrees_with_the_fraction_reference(case):
    target, y, start = case
    want = reference_match_block_weights(target, y, start)
    got = averages._match_block_weights(target, y, start)
    assert got == want
    if got is not None:
        assert all(type(w) is Fraction for w in got[0])


def solved_block(target, y, start):
    """The block of ``y`` from ``start`` that ``target`` is a convex
    combination of, by exact solves of ever longer blocks: ``(weights,
    end)`` or None.  With disjoint non-zero rows at most one block length
    solves with positive weights summing to 1; a zero row makes any block
    holding it ambiguous."""
    for end in range(start + 1, len(y) + 1):
        solved = averages._solve_exact(y[start:end], target)
        if (isinstance(solved, list) and all(a > 0 for a in solved)
                and sum(solved) == 1):
            return solved, end
    return None


@st.composite
def _unit_rows(draw):
    """Disjoint unit rows ``c e_i`` with mixed signs and weights, at times
    one zero row, and targets made block by block from convex weights, of
    which one may lack a coordinate, gain one or have one negated."""
    rows = draw(st.integers(1, 8))
    y = [RatVec({i: draw(_ENTRY)}) for i in draw(st.permutations(range(1, rows + 1)))]
    if draw(st.booleans()):
        y[draw(st.integers(0, rows - 1))] = RatVec()
    cuts = draw(st.lists(st.integers(1, rows), min_size=1, max_size=3, unique=True))
    z, start = [], 0
    for end in sorted(cuts):
        parts = sorted(draw(st.lists(st.integers(1, 11), min_size=end - start - 1,
                                     max_size=end - start - 1)))
        bounds = [0, *parts, 12]
        alphas = [Fraction(b - a, 12) for a, b in zip(bounds, bounds[1:])]
        if draw(st.booleans()):
            alphas.sort(reverse=True)   # a non-increasing block
        z.append(dict(RatVec.combination(zip(alphas, y[start:end])).items()))
        start = end
    flawed = z[draw(st.integers(0, len(z) - 1))]
    flaw = draw(st.sampled_from(["none", "lack", "gain", "gain", "negate"]))
    if flaw in ("lack", "negate") and flawed:
        index = draw(st.sampled_from(sorted(flawed)))
        if flaw == "lack":
            del flawed[index]
        else:
            flawed[index] = -flawed[index]
    elif flaw == "gain":
        # Off every row, or on a row of another block.
        flawed[draw(st.integers(1, rows + 2))] = draw(_ENTRY)
    return [RatVec(target) for target in z], y


@settings(max_examples=300, deadline=None)
@given(case=_unit_rows())
# A zero row inside the second block, a first block whose target lacks the
# coordinate of its negative row, and a one-row block of the wrong sign.
@example(case=([RatVec({1: HALF, 2: Fraction(-3, 2)}), RatVec({3: 1})],
               [RatVec({1: 2}), RatVec({2: -2}), RatVec(), RatVec({3: 1})]))
@example(case=([RatVec({1: HALF})], [RatVec({1: 1}), RatVec({2: -2})]))
@example(case=([RatVec({2: 2})], [RatVec({2: -2})]))
def test_unit_row_matcher_agrees_with_exact_block_solves(case):
    z, y = case
    blocks, start = [], 0
    for target in z:
        want = solved_block(target, y, start)
        assert averages._match_block_weights(target, y, start) == want
        if want is None:
            break
        blocks.append(want)
        start = want[1]
    if any(vec.is_zero for vec in y):
        return    # not support-separated: the block solves take over
    try:
        witness = NibccWitness(
            (0, *(end for _, end in blocks)),
            tuple(w for weights, _ in blocks for w in weights)
        ) if len(blocks) == len(z) else None
    except ValueError:
        witness = None
    assert check_nibcc(z, y) == witness


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


def reference_witness_check(breakpoints, weights):
    """The witness validation as it was written before it read stretches:
    one numerator and denominator per weight.  The oracle for it."""
    bp = breakpoints
    if not bp or bp[0] != 0:
        raise ValueError("breakpoints must start at 0")
    if any(b >= c for b, c in zip(bp, bp[1:])):
        raise ValueError("breakpoints must strictly increase")
    if len(weights) != bp[-1]:
        raise ValueError("need one weight per combined vector")
    nums = [w.numerator for w in weights]
    dens = [w.denominator for w in weights]
    if any(p <= 0 for p in nums):
        raise ValueError("weights must be positive")
    if any(p * e < r * d for p, d, r, e
           in zip(nums, dens, nums[1:], dens[1:])):
        raise ValueError("weights must be non-increasing")
    for lo, hi in zip(bp, bp[1:]):
        L = math.lcm(*dens[lo:hi])
        if sum(p * (L // d) for p, d in zip(nums[lo:hi], dens[lo:hi])) != L:
            raise ValueError("each block of weights must sum to 1")


def verdict(check, *args):
    """None when ``check`` accepts, else the text of its ValueError."""
    try:
        check(*args)
    except ValueError as error:
        return str(error)
    return None


def stretch_starts(weights, breakpoints):
    """Where a stretch of one object starts, split at the breakpoints."""
    return sorted({j for j in range(len(weights))
                   if j in breakpoints or weights[j] is not weights[j - 1]})


@st.composite
def _witness_weights(draw):
    """Breakpoints and weights, block by block: ``q`` copies of ``1/q``
    with ``q`` not decreasing, or a heavier then a lighter stretch, as one
    object (reused by a later block of the same ``q``, so that it runs
    across a breakpoint), as two equal but distinct objects, as one object
    per weight, or as the plain int 1; then at times one flaw at a stretch
    edge, or a block summing to ``1 +- 1/p``."""
    shared = {}
    breakpoints, weights = [0], []
    for q in sorted(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))):
        form = draw(st.sampled_from(["shared", "one", "halves", "each", "two"]))
        if q == 1 and draw(st.booleans()):
            block = [1]
        elif form == "shared":
            block = [shared.setdefault(q, Fraction(1, q))] * q
        elif form == "one":
            block = [Fraction(1, q)] * q
        elif form == "halves":
            cut = draw(st.integers(0, q))
            block = [Fraction(1, q)] * cut + [Fraction(1, q)] * (q - cut)
        elif form == "each":
            block = [Fraction(1, q) for _ in range(q)]
        else:
            # s copies of a and q + 1 - s of b = 1/(q + 1 + k), a >= b.
            size, k = draw(st.integers(1, q)), draw(st.integers(0, 3))
            b = Fraction(1, q + 1 + k)
            block = [(1 - (q + 1 - size) * b) / size] * size + [b] * (q + 1 - size)
        weights += block
        breakpoints.append(len(weights))
    flaw = draw(st.sampled_from(["none", "none", "raise", "zero", "negate",
                                 "sum", "count"]))
    starts = stretch_starts(weights, breakpoints)
    at = draw(st.sampled_from(starts))
    end = min([s for s in starts if s > at], default=len(weights))
    if flaw == "raise":
        value = weights[at] + Fraction(1, draw(st.integers(1, 6)))
    elif flaw == "zero":
        value = draw(st.sampled_from([0, Fraction(0)]))
    elif flaw == "negate":
        value = -weights[at]
    if flaw in ("raise", "zero", "negate"):
        weights[at:end] = [value] * (end - at)
    elif flaw == "sum":
        n = draw(st.integers(1, len(breakpoints) - 1))
        lo, hi = breakpoints[n - 1], breakpoints[n]
        off = Fraction(draw(st.sampled_from([1, -1])), draw(st.integers(2, 6)))
        weights[lo:hi] = [(1 + off) / (hi - lo)] * (hi - lo)
    elif flaw == "count":
        weights.pop()
    return tuple(breakpoints), tuple(weights)


@settings(max_examples=400, deadline=None)
@given(case=_witness_weights())
# One object across a breakpoint; equal distinct objects; a rise, a zero
# and a negative weight at a stretch edge; int weights; sums of 1 +- 1/3.
@example(case=((0, 2, 4), (HALF,) * 4))
@example(case=((0, 2), (Fraction(1, 2), Fraction(1, 2))))
@example(case=((0, 1, 3), (1, HALF, Fraction(2, 3))))
@example(case=((0, 1, 3), (1, 0, 0)))
@example(case=((0, 2), (Fraction(3, 2), Fraction(-1, 2))))
@example(case=((0, 1, 2), (1, 1)))
@example(case=((0, 3), (Fraction(4, 9),) * 3))
@example(case=((0, 3), (Fraction(2, 9),) * 3))
def test_stretch_witness_validation_agrees_with_the_per_weight_reference(case):
    breakpoints, weights = case
    want = verdict(reference_witness_check, breakpoints, weights)
    assert verdict(NibccWitness, breakpoints, weights) == want
    if want is None:
        witness = NibccWitness(breakpoints, weights)
        assert witness.breakpoints == breakpoints and witness.weights == weights


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


def reference_cesaro_reweight(witness, n):
    """The reweighting as it was written before it read stretches: one
    drop per neighbouring pair of weights.  The oracle for it."""
    K = witness.breakpoints[n]
    nums = [a.numerator for a in witness.weights[:K]]
    dens = [a.denominator for a in witness.weights[:K]]
    beta = {}
    for j in range(1, K):
        drop = nums[j - 1] * dens[j] - nums[j] * dens[j - 1]
        beta[j] = Fraction(drop * j, dens[j - 1] * dens[j]) if drop else Fraction(0)
    beta[K] = Fraction(nums[K - 1] * K, dens[K - 1])
    return beta


@settings(max_examples=300, deadline=None)
@given(case=_witness_weights())
@example(case=((0, 2, 4), (HALF,) * 4))
@example(case=((0, 1, 3, 5), (1, HALF, Fraction(1, 2), Fraction(1, 2), HALF)))
def test_stretch_reweight_agrees_with_the_per_weight_reference(case):
    breakpoints, weights = case
    assume(verdict(reference_witness_check, breakpoints, weights) is None)
    witness = NibccWitness(breakpoints, weights)
    for n in range(1, witness.blocks + 1):
        got, want = cesaro_reweight(witness, n), reference_cesaro_reweight(witness, n)
        assert list(got.items()) == list(want.items())
        assert all(type(v) is Fraction for v in got.values())
