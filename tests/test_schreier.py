"""Membership in the transfinite families, against a materializing oracle.

The reference here builds each family inside {1..N} bottom-up as an explicit
set of tuples: order 0 is the empty set plus singletons, a successor order
collects unions of at most min-many consecutive blocks from the order below,
and a limit order takes the union over its approximating orders gated by the
minimum.  The package's membership automaton and its split-search oracle
must both agree with these materialized families.
"""

import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from schreier_lab.ordinal import Ordinal, classify, default_fundamental_seq, parse
from schreier_lab.budget import Budget, BudgetExceededError
from schreier_lab.schreier import (FinSet, _Region, _automaton, _member,
                                   count_family,
                                   enumerate_family, is_member,
                                   is_member_image, is_member_oracle,
                                   threshold, trace_member)
from schreier_lab.streams import IndexStream


def materialize(xi: Ordinal, N: int, rule=default_fundamental_seq,
                _memo={}) -> frozenset:
    """Every member of the order-``xi`` family inside {1..N}, as tuples."""
    key = (str(xi), N, rule)
    if key in _memo:
        return _memo[key]
    kind = "zero" if xi.is_zero else (
        "successor" if classify_kind(xi) == "successor" else "limit")
    if kind == "zero":
        out = {()} | {(i,) for i in range(1, N + 1)}
    elif kind == "successor":
        below = sorted(F for F in materialize(pred(xi), N, rule) if F)
        out = {()}

        def extend(chain, last_max, remaining):
            if remaining < 1:
                return
            for F in below:
                if F[0] <= last_max:
                    continue
                merged = chain + F
                out.add(merged)
                extend(merged, F[-1], remaining - 1)

        for F in below:
            out.add(F)
            # The first block used up one of the min-many slots.
            extend(F, F[-1], F[0] - 1)
    else:
        out = {()}
        for n in range(1, N + 1):
            for F in materialize(rule(xi, n), N, rule):
                if F and F[0] >= n:
                    out.add(F)
    result = frozenset(out)
    _memo[key] = result
    return result


def classify_kind(xi: Ordinal) -> str:
    from schreier_lab.ordinal import classify
    return classify(xi).kind


def pred(xi: Ordinal) -> Ordinal:
    from schreier_lab.ordinal import classify
    return classify(xi).predecessor


ORDERS = ["0", "1", "2", "3", "w", "w+1", "w*2", "w^2"]


# -- FinSet ------------------------------------------------------------------


def test_finset_basics():
    F = FinSet.of(3, 1, 2, 2)
    assert tuple(F) == (1, 2, 3)
    assert F.min() == 1 and F.max() == 3
    assert len(F) == 3 and list(F) == [1, 2, 3]
    assert 2 in F and 5 not in F
    assert str(F) == "1,2,3"
    assert FinSet.parse("1, 2,3") == F
    assert FinSet.parse("") == FinSet()
    with pytest.raises(ValueError):
        FinSet.parse("3,1,2")  # literals must be ascending
    assert not FinSet()
    assert FinSet.of(1, 2) <= FinSet.of(1, 2, 3)
    assert not FinSet.of(1, 4) <= FinSet.of(1, 2, 3)


def test_finset_rejects_non_positive():
    with pytest.raises(ValueError):
        FinSet.of(0)
    with pytest.raises(ValueError):
        FinSet.parse("1,-3")


def test_finset_is_the_tuple_of_its_elements():
    F = FinSet.of(2, 3)
    assert F == (2, 3) and hash(F) == hash((2, 3))
    assert F[0] == 2 and tuple(F) == (2, 3)
    assert {F: 1}[(2, 3)] == 1


def test_finset_comparisons_mean_inclusion():
    small, large, other = FinSet.of(2, 3), FinSet.of(1, 2, 3), FinSet.of(1, 4)
    # Lexicographically (2, 3) > (1, 2, 3); as sets it is a proper subset.
    assert small < large and small <= large
    assert large > small and large >= small
    assert not (large < small or large <= small)
    assert not (small > large or small >= large)
    assert small <= small and small >= small
    assert not (small < small or small > small)
    # Neither contains the other: every comparison is false.
    assert not (other < large or other <= large or other > large
                or other >= large)
    # A plain tuple on either side is read as a set too.
    assert (1, 2, 3) > small and small < (1, 2, 3)


def test_finset_refuses_bad_literals_and_empty_extremes():
    with pytest.raises(ValueError, match="bad finite set literal '1,x'"):
        FinSet.parse("1,x")
    with pytest.raises(ValueError, match="no minimum"):
        FinSet().min()
    with pytest.raises(ValueError, match="no maximum"):
        FinSet().max()


def test_finset_refuses_concatenation_and_repetition():
    for attempt in (lambda: FinSet.of(1) + FinSet.of(2),
                    lambda: FinSet.of(1) + (2,),
                    lambda: (3,) + FinSet.of(1),
                    lambda: FinSet.of(1) * 2,
                    lambda: 2 * FinSet.of(1)):
        with pytest.raises(TypeError):
            attempt()


# -- membership against the materialized families -------------------------------


@pytest.mark.parametrize("xi_text", ORDERS)
def test_greedy_matches_materialized(xi_text):
    xi = parse(xi_text)
    family = materialize(xi, 8)
    for r in range(0, 9):
        for F in combinations(range(1, 9), r):
            assert is_member(xi, FinSet(F)) == (F in family), (xi_text, F)


@pytest.mark.parametrize("xi_text", ORDERS)
def test_split_oracle_matches_materialized(xi_text):
    xi = parse(xi_text)
    family = materialize(xi, 7)
    for r in range(0, 8):
        for F in combinations(range(1, 8), r):
            assert is_member_oracle(xi, FinSet(F)) == (F in family), (xi_text, F)


def test_order_one_closed_form():
    # |F| <= min F characterizes order 1.
    for r in range(0, 10):
        for F in combinations(range(1, 11), r):
            expected = not F or len(F) <= F[0]
            assert is_member(parse("1"), FinSet(F)) == expected


@pytest.mark.parametrize("xi_text, members, non_members", [
    ("0", ["", "4"], ["1,2"]),
    ("1", ["2,3", "3,5,9", "10"], ["1,2", "2,3,4"]),
    ("2", ["2,3,4,5", "1", "2,3,4,5,6,7", "8,9,10,11,12,13,14,15"],
     ["1,2", "2,3,4,5,6,7,8"]),
    ("w", ["2,3,4,5", "3,4,5,6,7,8,9"], ["1,2", "2,3,4,5,6,7,8"]),
    ("w+1", ["2,90", "2,3,4,5"], ["1,2"]),
])
def test_frozen_membership_facts(xi_text, members, non_members):
    xi = parse(xi_text)
    for text in members:
        assert is_member(xi, FinSet.parse(text)), (xi_text, text)
    for text in non_members:
        assert not is_member(xi, FinSet.parse(text)), (xi_text, text)


def test_empty_and_singletons_always_belong():
    for xi_text in ORDERS:
        xi = parse(xi_text)
        assert is_member(xi, FinSet())
        for i in (1, 2, 17):
            assert is_member(xi, FinSet.of(i))


_XI = st.sampled_from([parse(t) for t in ORDERS])


@given(xi=_XI, data=st.data())
@settings(max_examples=200, deadline=None)
def test_hereditary(xi, data):
    family = sorted(F for F in materialize(xi, 8) if F)
    F = data.draw(st.sampled_from(family))
    keep = data.draw(st.lists(st.booleans(), min_size=len(F), max_size=len(F)))
    sub = tuple(v for v, k in zip(F, keep) if k)
    assert is_member(xi, FinSet(sub))


@given(xi=_XI, data=st.data())
@settings(max_examples=200, deadline=None)
def test_spreading(xi, data):
    family = sorted(F for F in materialize(xi, 8) if F)
    F = data.draw(st.sampled_from(family))
    # Move every element to the right, keeping the set strictly increasing.
    shifted = []
    floor = 0
    for v in F:
        bump = data.draw(st.integers(min_value=0, max_value=4))
        floor = max(v + bump, floor + 1)
        shifted.append(floor)
    assert is_member(xi, FinSet(shifted))


@given(xi=_XI, data=st.data())
@settings(max_examples=150, deadline=None)
def test_nesting_in_the_successor(xi, data):
    family = sorted(materialize(xi, 8))
    F = data.draw(st.sampled_from(family))
    assert is_member(xi.successor(), FinSet(F))


# -- enumeration -----------------------------------------------------------------


@pytest.mark.parametrize("xi_text", ["0", "1", "2", "w"])
def test_enumeration_is_complete_and_lexicographic(xi_text):
    xi = parse(xi_text)
    family = list(enumerate_family(xi, 7))
    assert all(type(F) is FinSet for F in family)
    got = [tuple(F) for F in family]
    assert got[0] == ()
    assert got == sorted(got)
    assert len(got) == len(set(got))
    assert set(got) == materialize(xi, 7)


def test_enumeration_budget_gate():
    tiny = Budget(work=50)
    with pytest.raises(BudgetExceededError):
        list(enumerate_family(parse("2"), 12, budget=tiny))


@pytest.mark.parametrize("xi_text, N, count", [
    ("1", 15, 1597), ("2", 14, 6718), ("w", 14, 6718), ("3", 12, 2049)])
def test_count_family_matches_the_enumeration(xi_text, N, count):
    # The order-1 count is the Fibonacci number F_17 (Schreier-Zeckendorf
    # sets); the empty set is included, as in the enumeration meter.
    xi = parse(xi_text)
    assert count_family(xi, N) == count
    assert len(list(enumerate_family(xi, N))) == count


def test_count_family_past_the_enumeration_budget():
    # 277,510,579,805 sets: far beyond any enumeration, a few thousand states.
    assert count_family(parse("w"), 40) == 277_510_579_805
    assert count_family(parse("2"), 0) == 1
    with pytest.raises(ValueError, match="^horizon must be at least 0, got -1$"):
        count_family(parse("2"), -1)
    with pytest.raises(ValueError, match="^horizon must be at least 0, got -1$"):
        next(enumerate_family(parse("2"), -1))
    # One unit of work per automaton step, so a long horizon is refused
    # even where the states stay few.
    for xi_text, N in (("1", 200), ("0", 10 ** 9)):
        with pytest.raises(BudgetExceededError) as info:
            count_family(parse(xi_text), N, budget=Budget(work=50))
        assert info.value.what == "family count steps"
        assert info.value.needed > 50 and info.value.needed_is_lower_bound


@pytest.mark.parametrize("xi_text", ["0", "1", "2", "3", "w", "w+1", "w*2",
                                     "w^2", "w^2+w+3"])
def test_a_refused_count_means_more_than_one_past_the_budget(xi_text):
    # The count charges each state that takes a value, and each such state
    # gives distinct members, so a count refused under W work units leaves
    # more than W + 1 sets; a count that fits is the enumeration's length.
    xi = parse(xi_text)
    for N in range(15):
        size = sum(1 for _ in enumerate_family(xi, N))
        for work in (1, 3, 10, 30, 100, 300, 1000):
            try:
                count = count_family(xi, N, budget=Budget(work=work))
            except BudgetExceededError:
                assert size > work + 1
            else:
                assert count == size


def test_count_family_charges_the_members_it_makes():
    # 30 singletons and the empty set: 30 units, no longer about 60 steps.
    assert count_family(parse("0"), 30, budget=Budget(work=40)) == 31


def test_oracle_support_gate():
    wide = FinSet(range(2, 20))
    with pytest.raises(BudgetExceededError):
        is_member_oracle(parse("1"), wide)


# -- image and trace families ------------------------------------------------------


def test_image_reindexes_positions():
    evens = IndexStream.evens()
    # {2,4} sits at positions {1,2}, which is too wide for order 1.
    assert not is_member_image(parse("1"), evens, FinSet.of(2, 4))
    assert is_member_image(parse("1"), evens, FinSet.of(4, 8))
    assert not is_member_image(parse("1"), evens, FinSet.of(3))


def test_trace_keeps_values():
    evens = IndexStream.evens()
    assert trace_member(parse("1"), evens, FinSet.of(2, 4))
    assert not trace_member(parse("1"), evens, FinSet.of(3, 4))
    assert not trace_member(parse("1"), evens, FinSet.of(2, 4, 6))


def test_image_is_smaller_than_trace():
    # Along a fast stream the trace admits sets the image rejects, never
    # the other way around.
    cubes = IndexStream.cubes()
    xi = parse("1")
    rng = random.Random(7)
    for _ in range(100):
        values = sorted(rng.sample([cubes.element(n) for n in range(1, 9)],
                                   rng.randint(1, 4)))
        F = FinSet(values)
        if is_member_image(xi, cubes, F):
            assert trace_member(xi, cubes, F)


# -- threshold ---------------------------------------------------------------------


def test_threshold_frozen_values():
    # Worked out by listing order-2 members that are too wide for order 1:
    # within {1..8} the widest is {4,..,8} (min 4), within {1..12} it is
    # {6,..,12} (min 6); one past the worst min is the threshold.
    assert threshold(parse("2"), parse("1"), 8) == 5
    assert threshold(parse("2"), parse("1"), 12) == 7
    assert threshold(parse("1"), parse("2"), 10) == 1
    assert threshold(parse("0"), parse("w"), 10) == 1


# -- injectable fundamental rule ----------------------------------------------------


def test_rule_injection_changes_limit_membership():
    F = FinSet.of(2, 3, 4, 5)

    def stingy(x, n):
        return default_fundamental_seq(x, max(1, n - 1))

    assert is_member(parse("w"), F)
    assert not is_member(parse("w"), F, fs=stingy)
    assert is_member_oracle(parse("w"), F)
    assert not is_member_oracle(parse("w"), F, fs=stingy)


def stingy(x, n):
    return default_fundamental_seq(x, max(1, n - 1))


def test_count_family_under_an_injected_rule():
    for xi_text in ("w", "w+1", "w*2"):
        xi = parse(xi_text)
        assert count_family(xi, 10, fs=stingy) == len(
            list(enumerate_family(xi, 10, fs=stingy)))
    assert count_family(parse("w"), 10, fs=stingy) < count_family(parse("w"), 10)


# -- the automaton against the exhaustive oracle -------------------------------------

_ORACLE_CASES = ([(parse(t), default_fundamental_seq)
                  for t in ("0", "1", "2", "3", "w", "w+1", "w*2", "w^2",
                            "w^2+w+3")]
                 + [(parse(t), stingy) for t in ("w", "w+1", "w*2")])


@given(case=st.sampled_from(_ORACLE_CASES),
       elements=st.lists(st.integers(1, 16), max_size=9, unique=True))
@settings(max_examples=400, deadline=None)
def test_automaton_matches_the_split_oracle(case, elements):
    # The default rule takes the nested shortcut at a limit; the stingy rule
    # keeps one alternative per n <= min F.
    xi, rule = case
    F = FinSet(sorted(elements))
    assert is_member(xi, F, fs=rule) == is_member_oracle(xi, F, fs=rule)


@pytest.mark.parametrize("case", _ORACLE_CASES, ids=lambda c: (
    f"{c[0]}-{'default' if c[1] is default_fundamental_seq else 'stingy'}"))
def test_enumeration_is_the_oracle_filtered_subsets(case):
    xi, rule = case
    N = 8
    expected = [F for r in range(N + 1) for F in combinations(range(1, N + 1), r)
                if is_member_oracle(xi, FinSet(F), fs=rule)]
    got = [tuple(F) for F in enumerate_family(xi, N, fs=rule)]
    assert got == sorted(expected)


# -- deep orders ---------------------------------------------------------------------


def test_deep_orders_need_no_interpreter_recursion():
    # A set with min 1 must be one piece at every level down to order 0, and
    # {5,6,7} is in the order-1 family, which every larger finite order contains.
    started = time.perf_counter()
    assert not is_member(parse("3000"), FinSet.of(1, 2))
    assert is_member(parse("3000"), FinSet.of(5, 6, 7))
    assert is_member(parse("w*3000"), FinSet.of(5, 6, 7))
    assert not is_member(parse("w*3000+2"), FinSet.of(1, 2))
    # From min 300, w^4 descends through about 300^3 limits; only the
    # lowest levels are ever built.
    assert is_member(parse("w^4"), FinSet(range(300, 320)))
    assert count_family(parse("3000"), 6) == count_family(parse("6"), 6)
    assert time.perf_counter() - started < 1


def test_deep_orders_need_no_recursion_in_the_oracles():
    # The greedy and the exhaustive oracle descend the same 3000 levels.
    started = time.perf_counter()
    assert is_member_oracle(parse("3000"), FinSet.of(5, 6, 7))
    assert not is_member_oracle(parse("3000"), FinSet.of(1, 2))
    assert _member(parse("3000"), (5, 6, 7), default_fundamental_seq)
    assert not _member(parse("3001"), (1, 2), default_fundamental_seq)
    assert time.perf_counter() - started < 1


def descent(lam: Ordinal, k: int) -> list:
    """(base, count) of each successor run passed from ``lam`` down to 0
    along ``fs(., k)``, from the bottom up."""
    runs = []
    while not lam.is_zero:
        if classify(lam).kind == "limit":
            lam = default_fundamental_seq(lam, k)
            continue
        base = Ordinal(lam[:-1])
        runs.append((base, lam[-1][1]))
        lam = base
    return runs[::-1]


@pytest.mark.parametrize("lam_text", ["w", "w*4", "w^2", "w^2*3+w*5", "w^3",
                                      "w^3*2+w^2+w*4", "w^4"])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_regions_hand_out_the_descent_from_the_bottom(lam_text, k):
    lam = parse(lam_text)
    automaton = _automaton(lam, default_fundamental_seq)
    limit = automaton._node(lam)
    region, runs = _Region((limit, k, automaton._node(Ordinal()))), []
    while region is not None:
        count, ceiling = automaton._above(region)
        runs.append((region[2].xi, count))
        region = None if ceiling is None else _Region((limit, k, ceiling))
    assert runs == descent(lam, k)
