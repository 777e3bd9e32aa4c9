"""Norms built from admissible families, their oracles, and certified functionals."""

import functools
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreier_lab.budget import Budget, BudgetExceededError
from schreier_lab.ordinal import Ordinal, default_fundamental_seq, parse
from schreier_lab.schreier import (_MOVES_BOUND, FinSet, _automaton,
                                   enumerate_family, is_member,
                                   is_member_oracle)
from schreier_lab.spaces import (
    CertificationRefusedError, CertificationViolationError, Functional,
    NormSpec, _norm_order_one, _norm_search, _norm_total, _sum_total,
    _total_result, coordinate_sum_functional, norm, norm_oracle)
from schreier_lab.vectors import RatVec

ONE = parse("1")
TWO = parse("2")


def units(*indices) -> RatVec:
    return RatVec({i: Fraction(1) for i in indices})


# -- specs -----------------------------------------------------------------------


def test_spec_parsing_and_round_trip():
    assert NormSpec.parse("l1") == NormSpec.l1()
    assert NormSpec.parse("star:1") == NormSpec.star(ONE)
    assert NormSpec.parse("schreier:w").xi == parse("w")
    assert str(NormSpec.parse("baernstein:2")) == "baernstein:2"
    assert str(NormSpec.l2()) == "l2"


@pytest.mark.parametrize("text", ["schreier", "star", "l1:1", "sup:2",
                                  "huh:1", "huh"])
def test_spec_rejections(text):
    with pytest.raises(ValueError):
        NormSpec.parse(text)


# -- classical kinds ----------------------------------------------------------------


def test_classical_norms():
    x = RatVec({1: Fraction(3), 4: Fraction(-4)})
    assert norm(NormSpec.l1(), x).value == 7
    assert norm(NormSpec.sup(), x).value == 4
    l2 = norm(NormSpec.l2(), x)
    assert l2.value == 5 and l2.value_squared == 25
    irrational = norm(NormSpec.l2(), units(1, 2))
    assert irrational.value is None
    assert irrational.value_squared == 2


def test_order_zero_equals_sup():
    x = RatVec({2: Fraction(1, 3), 5: Fraction(-7, 2)})
    result = norm(NormSpec.schreier(parse("0")), x)
    assert result.value == norm(NormSpec.sup(), x).value == Fraction(7, 2)
    assert result.witness == FinSet.of(5)


# -- frozen values -------------------------------------------------------------------


def test_unit_sum_closed_form():
    # Best admissible set inside 1..n is a final segment at least as long
    # as its own minimum, which pins the value at floor((n+1)/2).
    for n in range(1, 21):
        got = norm(NormSpec.schreier(ONE), units(*range(1, n + 1)))
        assert got.value == (n + 1) // 2, n


def test_seven_units_at_order_one():
    result = norm(NormSpec.schreier(ONE), units(*range(1, 8)))
    assert result.value == 4
    assert result.witness == FinSet.of(4, 5, 6, 7)


def test_weighted_vector_at_order_one():
    x = RatVec({1: 4, 2: 3, 3: 2, 4: 1})
    result = norm(NormSpec.schreier(ONE), x)
    assert result.value == 5
    assert result.witness == FinSet.of(2, 3)


def test_seven_units_at_order_two():
    result = norm(NormSpec.schreier(TWO), units(*range(1, 8)))
    assert result.value == 6
    assert result.witness == FinSet.of(2, 3, 4, 5, 6, 7)


def test_first_index_is_special_at_order_one():
    spec = NormSpec.schreier(ONE)
    assert norm(spec, RatVec({1: 1, 2: -1})).value == 1
    assert norm(spec, RatVec({2: 1, 5: -1})).value == 2
    assert norm(spec, RatVec({3: 1, 4: -1})).value == 2


def test_star_norm_takes_the_better_signed_part():
    result = norm(NormSpec.star(ONE), RatVec({2: 1, 3: -1}))
    assert result.value == 1
    assert result.witness == ("+", FinSet.of(2))
    assert result.to_json()["witness"] == "+:2"
    heavier = norm(NormSpec.star(ONE), RatVec({2: 1, 4: -2, 5: -2}))
    assert heavier.value == 4
    assert heavier.witness == ("-", FinSet.of(4, 5))


def test_chain_norm_frozen_values():
    pair = norm(NormSpec.baernstein(ONE), units(2, 3))
    assert pair.value == 2 and pair.value_squared == 4
    assert pair.witness == (FinSet.of(2, 3),)
    six = norm(NormSpec.baernstein(ONE), units(2, 3, 4, 5, 6, 7))
    assert six.value is None
    assert six.value_squared == 20
    assert six.to_json()["witness"] == "2,3|4,5,6,7"
    assert abs(six.approx ** 2 - 20) < 1e-9


def test_chain_norm_at_order_zero_is_l2():
    x = RatVec({3: Fraction(3), 7: Fraction(4)})
    result = norm(NormSpec.baernstein(parse("0")), x)
    assert result.value == 5
    assert result.witness == (FinSet.of(3), FinSet.of(7))


# -- agreement with the exhaustive oracle --------------------------------------------


def random_vector(rng: random.Random, size: int, *, signed: bool) -> RatVec:
    support = rng.sample(range(1, 11), size)
    entries = {}
    for i in support:
        value = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        entries[i] = -value if signed and rng.random() < 0.5 else value
    return RatVec(entries)


@pytest.mark.parametrize("kind", ["schreier", "star"])
@pytest.mark.parametrize("xi_text", ["0", "1", "2", "w"])
def test_norm_matches_oracle(kind, xi_text):
    spec = NormSpec.parse(f"{kind}:{xi_text}")
    rng = random.Random(f"{kind}:{xi_text}")
    for _ in range(40):
        x = random_vector(rng, rng.randint(0, 6), signed=True)
        assert norm(spec, x).value == norm_oracle(spec, x).value, x


@pytest.mark.parametrize("spec, squared", [
    (NormSpec.l1(), 20 ** 2), (NormSpec.l2(), 20), (NormSpec.sup(), 1)])
def test_norm_oracle_answers_the_classical_kinds_past_its_support_limit(spec,
                                                                       squared):
    # The classical norms need no search, so the oracle is the norm itself,
    # even on 20 points, past the oracle's support limit of 12.
    x = units(*range(1, 21))
    assert norm_oracle(spec, x) == norm(spec, x)
    assert norm_oracle(spec, x).value_squared == squared


def test_norm_oracle_at_a_deep_order():
    started = time.perf_counter()
    result = norm_oracle(NormSpec.schreier(parse("3000")), units(1, 2))
    assert result.value == 1
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("xi_text", ["1", "2", "w"])
def test_chain_norm_matches_oracle(xi_text):
    spec = NormSpec.parse(f"baernstein:{xi_text}")
    rng = random.Random(xi_text)
    for _ in range(25):
        x = random_vector(rng, rng.randint(0, 5), signed=True)
        assert norm(spec, x).value_squared == \
            norm_oracle(spec, x).value_squared, x


# -- integer kernels against the oracle and a brute-force tie-break ------------------
#
# The searches run on integers over the lcm of the denominators, so the
# vectors here mix large coprime denominators and repeat magnitudes on
# purpose: ties decide the witness.

LARGE_PRIMES = (999_983, 999_979, 999_961, 999_959, 999_953, 999_931)
magnitudes = st.builds(
    Fraction, st.integers(1, 10 ** 6),
    st.one_of(st.sampled_from(LARGE_PRIMES), st.integers(1, 10 ** 6)))


@st.composite
def tied_vectors(draw, max_size=8, top=10):
    """A vector on up to ``max_size`` of the coordinates 1..``top`` whose
    magnitudes come from a pool of at most three values."""
    support = draw(st.lists(st.integers(1, top), max_size=max_size,
                            unique=True))
    pool = draw(st.lists(magnitudes, min_size=1, max_size=3))
    return RatVec({i: draw(st.sampled_from(pool)) * draw(st.sampled_from((1, -1)))
                   for i in support})


def lex_least_maximizer(mags: RatVec, xi, fs=default_fundamental_seq
                        ) -> tuple[Fraction, FinSet]:
    """The largest coordinate sum over admissible sets, and the least such
    set in lexicographic order, by trying every subset."""
    best, best_set = Fraction(0), ()
    for size in range(1, len(mags) + 1):
        for combo in itertools.combinations(mags.support(), size):
            if is_member(xi, FinSet(combo), fs=fs):
                total = sum(mags[i] for i in combo)
                if total > best or (total == best and combo < best_set):
                    best, best_set = total, combo
    return best, FinSet(best_set)


def lex_least_chain(mags: RatVec, xi, fs=default_fundamental_seq
                    ) -> tuple[Fraction, tuple]:
    """The largest sum of squared block masses over chains of admissible
    blocks, and the least such chain as a tuple of tuples."""
    support = mags.support()
    best, best_chain = Fraction(0), ()

    def extend(pos, chain, closed):
        nonlocal best, best_chain
        if closed > best or (closed == best and chain < best_chain):
            best, best_chain = closed, chain
        for start in range(pos, len(support)):
            for size in range(len(support) - start):
                for rest in itertools.combinations(support[start + 1:], size):
                    block = (support[start],) + rest
                    if is_member(xi, FinSet(block), fs=fs):
                        mass = sum(mags[i] for i in block)
                        extend(support.index(block[-1]) + 1, chain + (block,),
                               closed + mass * mass)

    extend(0, (), Fraction(0))
    return best, tuple(FinSet(block) for block in best_chain)


@pytest.mark.parametrize("spec_text", [
    f"{kind}:{xi}" for kind in ("schreier", "star") for xi in ("1", "2", "w", "w+1")])
@settings(max_examples=40, deadline=None)
@given(x=tied_vectors())
def test_base_norm_kernels_match_the_oracle_and_the_least_witness(spec_text, x):
    spec = NormSpec.parse(spec_text)
    result = norm(spec, x)
    assert result.value == norm_oracle(spec, x).value
    if spec.kind == "schreier":
        part, F = x.abs(), result.witness
    else:
        sign, F = result.witness
        part = x.positive_part() if sign == "+" else x.negative_part()
        other = x.negative_part() if sign == "+" else x.positive_part()
        # "+" wins ties; "-" only when the negative part is strictly larger.
        beaten = lex_least_maximizer(other, spec.xi)[0]
        assert beaten <= result.value if sign == "+" else beaten < result.value
    assert is_member_oracle(spec.xi, F)
    assert sum((part[i] for i in F), Fraction(0)) == result.value
    assert (result.value, F) == lex_least_maximizer(part, spec.xi)


@settings(max_examples=200, deadline=None)
@given(support=st.lists(st.integers(1, 24), max_size=12, unique=True).map(sorted),
       data=st.data())
def test_order_one_scan_matches_the_search(support, data):
    # Small magnitude pools make ties decide the witness, and supports
    # longer than their minimum skip the whole-support answer.
    pool = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    values = [data.draw(st.sampled_from(pool)) for _ in support]
    support = tuple(support)
    assert _norm_order_one(support, values) == _norm_search(
        support, values, ONE, default_fundamental_seq, Budget())


@pytest.mark.parametrize("spec_text", ["schreier:1", "star:1"])
@settings(max_examples=30, deadline=None)
@given(x=tied_vectors(max_size=12, top=24))
def test_order_one_norm_matches_the_oracle(spec_text, x):
    spec = NormSpec.parse(spec_text)
    assert norm(spec, x).value == norm_oracle(spec, x).value


@pytest.mark.parametrize("spec_text", ["schreier:1", "star:1"])
def test_order_one_answers_five_thousand_distinct_magnitudes(spec_text):
    rng = random.Random(spec_text)
    mags = list(range(1, 5001))
    rng.shuffle(mags)
    x = RatVec({i: Fraction(m * rng.choice((1, -1)), 7)
                for i, m in enumerate(mags, start=1)})
    spec = NormSpec.parse(spec_text)
    started = time.perf_counter()
    result = norm(spec, x)
    assert time.perf_counter() - started < 1
    if spec.kind == "schreier":
        part, F = x.abs(), result.witness
    else:
        sign, F = result.witness
        part = x.positive_part() if sign == "+" else x.negative_part()
    assert F and len(F) <= F[0]
    assert sum((part[i] for i in F), Fraction(0)) == result.value


@pytest.mark.parametrize("xi_text", ["1", "2"])
@settings(max_examples=30, deadline=None)
@given(x=tied_vectors(max_size=6))
def test_chain_norm_kernel_matches_the_oracle_and_the_least_witness(xi_text, x):
    spec = NormSpec.parse(f"baernstein:{xi_text}")
    result = norm(spec, x)
    assert result.value_squared == norm_oracle(spec, x).value_squared
    mags = x.abs()
    assert all(is_member_oracle(spec.xi, block) for block in result.witness)
    assert all(a[-1] < b[0]
               for a, b in zip(result.witness, result.witness[1:]))
    assert sum(sum((mags[i] for i in block), Fraction(0)) ** 2
               for block in result.witness) == result.value_squared
    assert (result.value_squared, result.witness) == lex_least_chain(mags, spec.xi)


def test_search_refusal_keeps_its_limit_and_count():
    with pytest.raises(BudgetExceededError) as info:
        norm(NormSpec.schreier(TWO), units(*range(1, 25)), budget=Budget(work=3000))
    assert str(info.value).endswith("limit 3000 (needs >= 3001)")


# -- the automaton's transition table ------------------------------------------------
#
# The searches read each move from the automaton's table once it is there,
# so a warm table must answer what a cold one does, under every rule.  The
# copied rule is the default one under another name: its limits keep one
# alternative per n, as any injected rule's do.


def copied(x, n):
    return default_fundamental_seq(x, n)


def stingy(x, n):
    return default_fundamental_seq(x, max(1, n - 1))


TABLE_RULES = {"default": default_fundamental_seq, "copied": copied,
               "stingy": stingy}
TABLE_SPECS = ([f"{kind}:{xi}" for kind in ("schreier", "star")
                for xi in ("2", "w", "w+1", "w^2")]
               + [f"baernstein:{xi}" for xi in ("1", "2", "w")])


def answer_or_refusal(spec: NormSpec, x: RatVec, budget=None):
    try:
        return norm(spec, x, budget=budget)
    except BudgetExceededError as error:
        return str(error)


@pytest.mark.parametrize("rule", TABLE_RULES)
@pytest.mark.parametrize("spec_text", TABLE_SPECS)
@settings(max_examples=15, deadline=None)
@given(x=tied_vectors(max_size=6))
def test_a_warm_table_answers_like_the_oracle_and_a_cold_one(spec_text, rule, x):
    # The warm runs read the moves that earlier examples left in the table.
    spec = NormSpec.parse(spec_text, fs=TABLE_RULES[rule])
    warm = norm(spec, x)
    warm_refusal = answer_or_refusal(spec, x, Budget(work=50))
    _automaton.cache_clear()
    assert norm(spec, x) == warm
    _automaton.cache_clear()
    assert answer_or_refusal(spec, x, Budget(work=50)) == warm_refusal
    oracle = norm_oracle(spec, x)
    assert (warm.value, warm.value_squared) == (oracle.value, oracle.value_squared)
    mags = x.abs()
    if spec.kind == "baernstein":
        assert (warm.value_squared, warm.witness) == lex_least_chain(
            mags, spec.xi, spec.fs)
        assert all(is_member_oracle(spec.xi, F, fs=spec.fs) for F in warm.witness)
        return
    if spec.kind == "schreier":
        F = warm.witness
    else:
        sign, F = warm.witness
        mags = x.positive_part() if sign == "+" else x.negative_part()
    assert (warm.value, F) == lex_least_maximizer(mags, spec.xi, spec.fs)
    assert is_member_oracle(spec.xi, F, fs=spec.fs)


def test_a_copied_rule_search_answers_in_time():
    # A table keyed on states that unfold their shared alternatives would
    # spend seconds hashing them here.
    spec = NormSpec.schreier(parse("w^2"), fs=copied)
    started = time.perf_counter()
    result = norm(spec, units(*range(8, 18)))
    assert time.perf_counter() - started < 1
    assert (result.value, result.witness) == (10, FinSet(range(8, 18)))


def test_long_refusals_keep_the_tables_in_their_bound():
    for spec_text in ("schreier:2", "baernstein:1"):
        with pytest.raises(BudgetExceededError):
            norm(NormSpec.parse(spec_text), units(*range(1, 1501)))
    # The chain search meets a new move at every node, so it fills its table.
    assert len(_automaton(ONE, default_fundamental_seq).moves) == _MOVES_BOUND
    for xi in (ONE, TWO):
        automaton = _automaton(xi, default_fundamental_seq)
        assert len(automaton.moves) <= _MOVES_BOUND
        assert len(automaton._states) <= _MOVES_BOUND


# -- admissible supports: found on the first dive --------------------------------------
#
# On a member of the family the base norm of a positive vector is its l1
# total, with the member itself as the witness; the search finds it on its
# first dive, one node per point.

WHOLE_ORDERS = ("1", "2", "w", "w+1")


@functools.cache
def nonempty_members(xi_text: str) -> list[FinSet]:
    return [F for F in enumerate_family(parse(xi_text), 9) if F]


@pytest.mark.parametrize("spec_text", [
    f"{kind}:{xi}" for kind in ("schreier", "star") for xi in WHOLE_ORDERS])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), mixed=st.booleans())
def test_norm_on_a_member_matches_the_oracle(spec_text, data, mixed):
    spec = NormSpec.parse(spec_text)
    F = data.draw(st.sampled_from(nonempty_members(str(spec.xi))))
    signs = st.sampled_from((1, -1)) if mixed else st.just(1)
    x = RatVec({i: data.draw(magnitudes) * data.draw(signs) for i in F})
    result = norm(spec, x)
    assert result.value == norm_oracle(spec, x).value
    if spec.kind == "schreier":
        part, witness = x.abs(), result.witness
    else:
        sign, witness = result.witness
        part = x.positive_part() if sign == "+" else x.negative_part()
    assert (result.value, witness) == lex_least_maximizer(part, spec.xi)
    if not mixed:
        assert result.value == x.l1()
        assert witness == F
        assert spec.kind == "schreier" or sign == "+"


@pytest.mark.parametrize("spec_text", ["schreier:2", "star:2", "schreier:w",
                                       "star:w+1"])
def test_whole_support_refusal_matches_the_search(spec_text):
    # A member of length L costs the search L nodes, on its first dive; a
    # budget one short refuses it as the search always did.
    spec = NormSpec.parse(spec_text)
    F = max(nonempty_members(str(spec.xi)), key=len)
    L = len(F)
    x = units(*F)
    with pytest.raises(BudgetExceededError) as info:
        norm(spec, x, budget=Budget(work=L - 1))
    assert str(info.value).endswith(f"limit {L - 1} (needs >= {L})")
    result = norm(spec, x, budget=Budget(work=L))
    assert result.value == L
    assert result.witness == (F if spec.kind == "schreier" else ("+", F))


# -- the scaled entry ----------------------------------------------------------------

ALL_KINDS = ("l1", "l2", "sup", "schreier:0", "schreier:1", "schreier:2",
             "schreier:w", "star:0", "star:1", "star:2", "baernstein:0",
             "baernstein:1", "baernstein:2")


@pytest.mark.parametrize("spec_text", ["schreier:0", "star:0"])
def test_order_zero_witness_is_the_first_largest_index(spec_text):
    spec = NormSpec.parse(spec_text)
    result = norm(spec, RatVec({2: Fraction(1, 2), 4: 3, 6: Fraction(9, 3),
                                8: Fraction(-3)}))
    assert result.value == 3
    # The star's positive part reaches 3 first at 4 and ties with the
    # negative part, so "+" keeps it.
    expected = FinSet.of(4)
    assert result.witness == (expected if spec.kind == "schreier"
                              else ("+", expected))
    negative = norm(spec, RatVec({1: 1, 3: -5, 5: -5}))
    assert negative.value == 5
    assert negative.witness == (FinSet.of(3) if spec.kind == "schreier"
                                else ("-", FinSet.of(3)))


@pytest.mark.parametrize("spec_text", ALL_KINDS)
def test_zero_vector_at_every_kind(spec_text):
    spec = NormSpec.parse(spec_text)
    result = norm(spec, RatVec())
    assert result.value == 0 and result.value_squared == 0
    assert result.approx == 0.0
    empty = {"schreier_star": ("+", FinSet()), "baernstein": ()}
    assert result.witness == empty.get(spec.kind, FinSet())


@pytest.mark.parametrize("xi_text", ["1", "2", "w"])
def test_star_tie_goes_to_the_positive_part(xi_text):
    spec = NormSpec.star(parse(xi_text))
    x = RatVec({2: Fraction(1, 3), 3: Fraction(-1, 3), 5: Fraction(2, 3),
                6: Fraction(-2, 3)})
    result = norm(spec, x)
    assert result.witness[0] == "+"
    assert result.value == norm(NormSpec.schreier(spec.xi), x.positive_part()).value
    assert result.value == norm(NormSpec.schreier(spec.xi), x.negative_part()).value


@pytest.mark.parametrize("spec_text", ALL_KINDS)
@settings(max_examples=25, deadline=None)
@given(x=tied_vectors(max_size=6), factor=st.integers(1, 10 ** 12))
def test_scaled_entry_ignores_a_common_factor(spec_text, x, factor):
    spec = NormSpec.parse(spec_text)
    support, values, D = x.scaled()
    expected = norm(spec, x)
    total, witness = _norm_total(spec, support, [v * factor for v in values],
                                 Budget())
    scaled = _total_result(spec, D * factor, total, witness)
    assert scaled.value == expected.value
    assert scaled.value_squared == expected.value_squared
    assert scaled.witness == expected.witness


@pytest.mark.parametrize("kind", ["schreier", "schreier_star"])
@pytest.mark.parametrize("xi_text", ["1", "2", "w", "w+1"])
@settings(max_examples=40, deadline=None)
@given(entries=st.dictionaries(st.integers(1, 30), st.integers(-9, 9).filter(bool),
                               max_size=8))
def test_sum_total_bounds_the_norm_total(kind, xi_text, entries):
    # The whole-vector total is the l1 mass (the larger signed mass, for
    # the star norm): never below the norm, and equal to it on an
    # admissible support, whose signed parts are admissible by heredity.
    spec = NormSpec(kind, parse(xi_text))
    support = tuple(sorted(entries))
    values = [entries[i] for i in support]
    total = _norm_total(spec, support, values, Budget())[0]
    assert _sum_total(spec, values) >= total
    if is_member(spec.xi, FinSet(support)):
        assert _sum_total(spec, values) == total


# -- structural properties -------------------------------------------------------------


positions = st.lists(st.integers(1, 30), min_size=1, max_size=8,
                     unique=True).map(sorted)
rationals = st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                         max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(positions, st.data())
def test_norm_between_sup_and_l1(support, data):
    entries = {i: data.draw(rationals, label=f"x[{i}]") for i in support}
    x = RatVec(entries)
    for spec in (NormSpec.schreier(ONE), NormSpec.schreier(TWO),
                 NormSpec.star(ONE)):
        value = norm(spec, x).value
        assert norm(NormSpec.sup(), x).value <= value <= x.l1()


@settings(max_examples=60, deadline=None)
@given(positions, st.data())
def test_base_and_chain_norms_are_unconditional(support, data):
    entries = {i: data.draw(rationals, label=f"x[{i}]") for i in support}
    x = RatVec(entries)
    for spec in (NormSpec.schreier(ONE), NormSpec.baernstein(ONE)):
        assert norm(spec, x).value_squared == norm(spec, x.abs()).value_squared


@settings(max_examples=60, deadline=None)
@given(positions, st.data())
def test_base_norm_grows_under_spreading(support, data):
    entries = {i: data.draw(rationals, label=f"x[{i}]") for i in support}
    x = RatVec(entries)
    # Spread every index to the right, preserving order.
    shift = data.draw(st.lists(st.integers(0, 5), min_size=len(support),
                               max_size=len(support)), label="shifts")
    spread, bump = {}, 0
    for i, extra in zip(support, shift):
        bump += extra
        spread[i + bump] = entries[i]
    y = RatVec(spread)
    assert norm(NormSpec.schreier(ONE), y).value >= \
        norm(NormSpec.schreier(ONE), x).value


def test_star_norm_two_sided_bounds():
    rng = random.Random("two-sided")
    star, base = NormSpec.star(ONE), NormSpec.schreier(ONE)
    for _ in range(60):
        x = random_vector(rng, rng.randint(1, 6), signed=True)
        s, b = norm(star, x).value, norm(base, x).value
        assert s <= b <= 2 * s
        nonneg = x.abs()
        assert norm(star, nonneg).value == norm(base, nonneg).value


# -- budgets ---------------------------------------------------------------------


def test_norm_budget_gates():
    wide = units(*range(1, 8))
    with pytest.raises(BudgetExceededError):
        norm_oracle(NormSpec.schreier(ONE), wide, budget=Budget(oracle_support=4))
    # Order one bypasses the search, so wide supports are still fine there.
    assert norm(NormSpec.schreier(ONE), units(*range(1, 60))).value == 30


@pytest.mark.parametrize("spec_text", ["schreier:3", "star:3", "schreier:w+1"])
def test_search_answers_a_support_deeper_than_the_interpreter(spec_text):
    # {1} is a whole family member at these orders, and 2..1500 is admissible.
    spec = NormSpec.parse(spec_text)
    started = time.perf_counter()
    result = norm(spec, units(*range(1, 1501)))
    assert time.perf_counter() - started < 1
    F = FinSet(tuple(range(2, 1501)))
    assert result.value == 1499
    assert result.witness == (F if spec.kind == "schreier" else ("+", F))


@pytest.mark.parametrize("spec_text, what", [("schreier:2", "norm search"),
                                             ("baernstein:1", "chain norm")])
def test_long_supports_refuse_on_work_alone(spec_text, what):
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        norm(NormSpec.parse(spec_text), units(*range(1, 1501)))
    assert time.perf_counter() - started < 1
    assert str(info.value).endswith(
        f"{what} nodes: limit 200000 (needs >= 200001)")


def test_chain_search_answers_a_long_support():
    xi = TWO
    result = norm(NormSpec.baernstein(xi), units(*range(1, 101)))
    blocks = result.witness
    assert all(is_member(xi, F) for F in blocks)
    assert all(F.max() < G.min() for F, G in zip(blocks, blocks[1:]))
    assert result.value_squared == sum(len(F) ** 2 for F in blocks)


# -- certified functionals ---------------------------------------------------------


def test_coordinate_sum_functional():
    f = coordinate_sum_functional(FinSet.of(2, 3), NormSpec.schreier(ONE))
    assert f.label == "sum[2,3]"
    assert f.evaluate(RatVec({2: Fraction(1, 2), 3: 2, 9: 100})) == Fraction(5, 2)
    assert f.to_json()["certified_for"] == "schreier:1"


def test_functional_certification_refusals():
    with pytest.raises(CertificationRefusedError):
        coordinate_sum_functional(FinSet.of(1, 2), NormSpec.schreier(ONE))
    with pytest.raises(CertificationRefusedError):
        coordinate_sum_functional(FinSet.of(2, 3), NormSpec.baernstein(ONE))
    with pytest.raises(CertificationRefusedError):
        coordinate_sum_functional(FinSet.of(2, 3), NormSpec.l1())


def test_violated_certificate_is_loud():
    bogus = Functional(RatVec({1: Fraction(5)}), NormSpec.schreier(ONE),
                       label="bogus")
    with pytest.raises(CertificationViolationError):
        bogus.evaluate(RatVec.unit(1))
    assert bogus.evaluate(RatVec.unit(1), check=False) == 5


def test_certified_evaluation_compares_an_irrational_norm_on_squares():
    # e1 + e2 has the irrational l2 norm sqrt(2).
    x = RatVec({1: 1, 2: 1})
    assert Functional(RatVec({1: 1}), NormSpec.l2(), "x").evaluate(x) == 1
    bogus = Functional(RatVec({1: 2, 2: 2}), NormSpec.l2(), "bogus")
    with pytest.raises(CertificationViolationError, match=r"\|4\| > sqrt\(2\)$"):
        bogus.evaluate(x)


@pytest.mark.parametrize("x, expected", [
    # x's support is smaller than, larger than, and disjoint from {2, 3, 5}.
    (RatVec({3: Fraction(1, 3)}), Fraction(1, 3)),
    (RatVec({i: i for i in range(1, 9)}), Fraction(10)),
    (RatVec({1: 7, 4: -2, 9: Fraction(1, 2)}), Fraction(0)),
    (RatVec(), Fraction(0)),
])
def test_functional_evaluates_on_the_common_support(x, expected):
    f = coordinate_sum_functional(FinSet.of(2, 3, 5), NormSpec.schreier(TWO))
    value = f.evaluate(x)
    assert value == expected and type(value) is Fraction


def test_certificate_check_refused_when_norm_is_infeasible():
    f = coordinate_sum_functional(FinSet.of(2, 3), NormSpec.schreier(TWO))
    wide = units(*range(1, 30))   # the search exceeds the work budget
    with pytest.raises(BudgetExceededError) as info:
        f.evaluate(wide)
    assert str(info.value).endswith(
        "norm search nodes: limit 200000 (needs >= 200001)")
    assert f.evaluate(wide, check=False) == 2


def test_refused_guard_does_not_hide_a_violation():
    # Coefficient 5 on 1..8 is no norm-one functional for schreier:2 (it
    # gives 40 on a vector of norm 6); a refused guard must not pass it.
    bogus = Functional(units(*range(1, 9)).scale(5), NormSpec.schreier(TWO),
                       label="bogus")
    ones = units(*range(1, 9))
    with pytest.raises(BudgetExceededError):
        bogus.evaluate(ones, budget=Budget(work=2))
    with pytest.raises(CertificationViolationError, match=r"\|40\| > 6"):
        bogus.evaluate(ones)
