"""Ordinal arithmetic below the first omega power tower level."""

import pytest
from hypothesis import given, strategies as st

from schreier_lab.ordinal import (
    OMEGA, ONE, Ordinal, OrdinalParseError, ZERO,
    classify, default_fundamental_seq, parse)


def test_parse_round_trip():
    for text in ["0", "1", "7", "w", "w+1", "w*2", "w*2+5",
                 "w^2", "w^2*3+w+5", "w^3+w^2*2+1"]:
        assert str(parse(text)) == text


def test_parse_normalizes_spellings():
    assert str(parse("w^0*7")) == "7"
    assert str(parse("w^1")) == "w"
    assert str(parse(" w + 3 ")) == "w+3"


@pytest.mark.parametrize("bad", ["", "x", "w^", "w*", "w*0", "3*2",
                                 "w+w", "1+w", "w+w^2", "-1", "w^-1"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(OrdinalParseError):
        parse(bad)


def test_integers():
    assert ZERO.is_zero
    assert Ordinal.from_int(5) == parse("5")


def test_total_order():
    chain = ["0", "1", "2", "w", "w+1", "w+2", "w*2", "w*2+1", "w*3",
             "w^2", "w^2+w", "w^2+w*2+7", "w^2*2", "w^3"]
    parsed = [parse(t) for t in chain]
    for i, a in enumerate(parsed):
        for j, b in enumerate(parsed):
            assert (a < b) == (i < j)
            assert (a == b) == (i == j)
    assert sorted(reversed(parsed)) == parsed


def test_hash_consistency():
    assert hash(parse("w*2+1")) == hash(parse("w*2+1"))
    assert len({parse("w"), parse("w"), parse("w+1")}) == 2


def test_an_ordinal_is_the_tuple_of_its_terms():
    x = parse("w^2*3+1")
    assert x == ((2, 3), (0, 1)) and hash(x) == hash(((2, 3), (0, 1)))
    assert len(x) == 2 and list(x) == [(2, 3), (0, 1)] and x[-1] == (0, 1)
    assert not Ordinal() and not ZERO and ONE


def test_arithmetic_is_refused():
    # Concatenating Cantor normal forms is not ordinal addition.
    for attempt in (lambda: ONE + ONE, lambda: ONE + ((0, 1),),
                    lambda: ((1, 1),) + ONE,
                    lambda: ONE * 2, lambda: 2 * ONE):
        with pytest.raises(TypeError):
            attempt()


def test_successor():
    assert str(ZERO.successor()) == "1"
    assert str(parse("4").successor()) == "5"
    assert str(OMEGA.successor()) == "w+1"
    assert str(parse("w^2*3").successor()) == "w^2*3+1"


@pytest.mark.parametrize("text, kind, pred", [
    ("0", "zero", None),
    ("1", "successor", "0"),
    ("9", "successor", "8"),
    ("w", "limit", None),
    ("w+3", "successor", "w+2"),
    ("w*2", "limit", None),
    ("w^2", "limit", None),
    ("w^2+1", "successor", "w^2"),
    ("w^3+w", "limit", None),
])
def test_classify(text, kind, pred):
    got_kind, got_pred = classify(parse(text))
    assert got_kind == kind
    assert (got_pred is None) == (pred is None)
    if pred is not None:
        assert str(got_pred) == pred


# The default rule on rho + w^(a+1): rho + w^a*n + 1 for a > 0, rho + n
# for a = 0.  These values pin the convention everything else builds on.
@pytest.mark.parametrize("limit, n, expected", [
    ("w", 3, "3"),
    ("w", 1, "1"),
    ("w*2", 4, "w+4"),
    ("w*3", 2, "w*2+2"),
    ("w^2", 2, "w*2+1"),
    ("w^2*2", 3, "w^2+w*3+1"),
    ("w^2+w", 5, "w^2+5"),
    ("w^3", 2, "w^2*2+1"),
])
def test_default_fundamental_seq(limit, n, expected):
    assert str(default_fundamental_seq(parse(limit), n)) == expected


def test_fundamental_seq_rejects_non_limits():
    with pytest.raises(ValueError):
        default_fundamental_seq(parse("5"), 2)
    with pytest.raises(ValueError):
        default_fundamental_seq(ZERO, 1)
    with pytest.raises(ValueError):
        default_fundamental_seq(OMEGA, 0)


_LIMITS = st.sampled_from([parse(t) for t in
                           ["w", "w*2", "w*5", "w^2", "w^2+w", "w^2*3",
                            "w^3", "w^3+w^2", "w^3*2+w*4"]])


@given(x=_LIMITS, n=st.integers(min_value=1, max_value=30))
def test_fundamental_seq_increasing_below_limit(x, n):
    a, b = default_fundamental_seq(x, n), default_fundamental_seq(x, n + 1)
    assert a < b < x
    # Every member is a successor, so iteration can keep unfolding it.
    assert classify(a).kind == "successor"


def test_omega_power_constructor():
    assert Ordinal.omega_power(0, 4) == parse("4")
    assert Ordinal.omega_power(1) == OMEGA
    assert Ordinal.omega_power(2, 3) == parse("w^2*3")
    assert ONE == parse("1")


# Cantor normal forms below w^7 with coefficients below 10, keyed by the
# base-10 integer whose digit e is the coefficient of w^e: one CNF term list
# per key, ordered the same way.
_CNF_TERMS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6),
              st.integers(min_value=1, max_value=9)),
    max_size=7, unique_by=lambda term: term[0],
).map(lambda terms: sorted(terms, reverse=True))


def _digit_key(terms):
    return sum(c * 10 ** e for e, c in terms)


@given(a=_CNF_TERMS, b=_CNF_TERMS)
def test_order_equality_and_hash_agree_with_digit_key(a, b):
    x, y = Ordinal(a), Ordinal(b)
    assert (x < y) == (_digit_key(a) < _digit_key(b))
    assert (x == y) == (_digit_key(a) == _digit_key(b))
    if x == y:
        assert hash(x) == hash(y)
    assert parse(str(x)) == x
    assert x == tuple(a)


def test_terms_are_integer_pairs():
    assert Ordinal(((2, 3), (0, 1))) == parse("w^2*3+1")
    for bad in [((-1, 1),), ((1, 0),), ((1, 2), (1, 3)), ((1, 2), (2, 3))]:
        with pytest.raises(ValueError):
            Ordinal(bad)
