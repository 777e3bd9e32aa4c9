"""Exact rational vectors and probability vectors."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from schreier_lab.vectors import (ProbVector, RatVec, format_fraction,
                                  parse_fraction)


def test_fraction_wire_format():
    assert format_fraction(Fraction(1, 2)) == "1/2"
    assert format_fraction(Fraction(-3, 4)) == "-3/4"
    assert format_fraction(Fraction(5)) == "5"
    assert parse_fraction("7/3") == Fraction(7, 3)
    assert parse_fraction("-2") == Fraction(-2)
    assert parse_fraction(format_fraction(Fraction(22, 7))) == Fraction(22, 7)


def test_decimal_exponents_stay_within_the_int_string_limit():
    # 4300 is Python's default limit on the digits of an int string.
    assert parse_fraction("1e4300") == 10 ** 4300
    assert parse_fraction("25e-4300") == Fraction(25, 10 ** 4300)
    assert parse_fraction("1.5E+2") == 150
    for text in ("1e4301", "1e-4301", "1e3000000", "2.5E+1_000_000",
                 "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="bad rational literal"):
            parse_fraction(text)


def test_construction_and_access():
    x = RatVec({3: Fraction(1, 2), 1: "1/3", 5: 2})
    assert x.support() == (1, 3, 5)
    assert x[3] == Fraction(1, 2)
    assert x[99] == 0
    assert len(x) == 3
    assert not x.is_zero
    assert RatVec().is_zero


def test_zero_entries_are_dropped():
    x = RatVec({1: 1, 2: 0})
    assert x.support() == (1,)
    y = RatVec.unit(4) - RatVec.unit(4)
    assert y.is_zero and y.support() == ()


def test_arithmetic():
    x = RatVec({1: 1, 2: Fraction(1, 2)})
    y = RatVec({2: Fraction(1, 2), 3: -1})
    assert (x + y).entries == {1: 1, 2: 1, 3: -1}
    assert (x - y).entries == {1: 1, 3: 1}
    assert (-y).entries == {2: Fraction(-1, 2), 3: 1}
    assert x.scale(Fraction(2, 3)).entries == {1: Fraction(2, 3),
                                               2: Fraction(1, 3)}
    assert x.scale(0).is_zero


def test_parts_and_sizes():
    x = RatVec({1: 2, 2: -3, 4: Fraction(1, 2)})
    assert x.abs().entries == {1: 2, 2: 3, 4: Fraction(1, 2)}
    assert x.positive_part().entries == {1: 2, 4: Fraction(1, 2)}
    # The negative part carries magnitudes, so x = pos - neg.
    assert x.negative_part().entries == {2: 3}
    assert x.positive_part() - x.negative_part() == x
    assert x.l1() == Fraction(11, 2)
    assert x.total() == Fraction(-1, 2)


def test_json_round_trip():
    x = RatVec({2: Fraction(1, 3), 7: -2})
    assert x.to_map() == {"2": "1/3", "7": "-2"}
    blob = x.to_json()
    assert json.loads(blob) == {"entries": {"2": "1/3", "7": "-2"}}
    assert RatVec.from_json(blob) == x
    assert RatVec.from_map(x.to_map()) == x


def test_vector_json_rejects_other_shapes():
    assert RatVec.from_obj({"entries": {"3": "1/2"}}) == RatVec({3: Fraction(1, 2)})
    for bad in ([], {"values": {}}, {"entries": [1, 2]}, {"entries": "1"}):
        with pytest.raises(ValueError):
            RatVec.from_obj(bad)
    with pytest.raises(ValueError):
        RatVec.from_map([1, 2])
    with pytest.raises(ValueError):
        RatVec.from_json('{"entries": [1, 2]}')


def test_constructor_merges_converts_and_sorts():
    merged = RatVec({"2": 1, 2: Fraction(1, 2), 5: 3})
    assert merged.entries == {2: Fraction(3, 2), 5: 3}
    cancelled = RatVec([(4, 1), (1, "1/3"), (4, -1), (1, Fraction(-1, 3)), (7, 2)])
    assert cancelled.entries == {7: 2}
    converted = RatVec({1: 2, 2: "3/4", 3: True, 4: False, 5: Fraction(-1, 2)})
    assert converted.entries == {1: 2, 2: Fraction(3, 4), 3: 1,
                                 5: Fraction(-1, 2)}
    assert all(type(v) is Fraction for _, v in converted.items())
    unsorted = RatVec({9: 1, 3: 2, 6: 3, 1: 4})
    assert unsorted.support() == (1, 3, 6, 9)
    assert list(unsorted.entries) == [1, 3, 6, 9]
    for index in (0, -2, "0"):
        with pytest.raises(ValueError):
            RatVec({index: 1})


def test_equality_and_hash():
    assert RatVec({1: Fraction(2, 4)}) == RatVec({1: "1/2"})
    assert RatVec({1: 1}) != RatVec({2: 1})
    assert len({RatVec({1: 1}), RatVec({1: 1})}) == 1


def test_prob_vector_validation():
    p = ProbVector({2: Fraction(1, 2), 3: Fraction(1, 2)})
    assert p.total() == 1
    with pytest.raises(ValueError):
        ProbVector({1: Fraction(1, 2)})  # mass below one
    with pytest.raises(ValueError):
        ProbVector({1: Fraction(3, 2), 2: Fraction(-1, 2)})  # negative entry
    with pytest.raises(ValueError):
        ProbVector({})  # no mass at all


def test_prob_vector_unit_and_average():
    assert ProbVector.unit(5).entries == {5: 1}
    mean = ProbVector.average([ProbVector.unit(1), ProbVector.unit(2)])
    assert mean.entries == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    overlapping = ProbVector.average([
        ProbVector({1: Fraction(1, 2), 2: Fraction(1, 2)}),
        ProbVector({2: 1}),
    ])
    assert overlapping.entries == {1: Fraction(1, 4), 2: Fraction(3, 4)}


@pytest.mark.parametrize("cls", [RatVec, ProbVector])
@pytest.mark.parametrize("index", [1, 2, 7, 10 ** 12])
def test_unit_vectors_are_what_the_checked_constructor_builds(cls, index):
    unit = cls.unit(index)
    built = cls({index: 1})
    assert type(unit) is type(built) is cls
    assert unit == built and unit.entries == built.entries
    assert all(type(v) is Fraction for v in unit.entries.values())
    for bad in (0, -3):
        with pytest.raises(ValueError) as refused:
            cls.unit(bad)
        with pytest.raises(ValueError) as checked:
            cls({bad: 1})
        assert str(refused.value) == str(checked.value)


def test_combination_keeps_the_class_checks():
    x = RatVec({1: 1, 2: -2})
    y = RatVec({2: 2, 5: Fraction(1, 3)})
    assert RatVec.combination([(1, x), (1, y)]) == x + y
    assert RatVec.combination([(Fraction(1, 2), x), (-3, y)]) == \
        x.scale(Fraction(1, 2)) - y.scale(3)
    assert RatVec.combination([]) == RatVec()
    halves = ProbVector.combination([(Fraction(1, 2), ProbVector.unit(1)),
                                     (Fraction(1, 2), ProbVector.unit(4))])
    assert isinstance(halves, ProbVector)
    with pytest.raises(ValueError):
        ProbVector.combination([(Fraction(1, 2), ProbVector.unit(1))])


_entries = st.dictionaries(st.integers(min_value=1, max_value=30),
                           st.fractions(min_value=-5, max_value=5,
                                        max_denominator=9),
                           max_size=6)


@given(a=_entries, b=_entries)
def test_l1_triangle_inequality(a, b):
    x, y = RatVec(a), RatVec(b)
    assert (x + y).l1() <= x.l1() + y.l1()


@given(a=_entries, c=st.fractions(min_value=-4, max_value=4,
                                  max_denominator=6))
def test_scaling_is_homogeneous(a, c):
    x = RatVec(a)
    assert x.scale(c).l1() == abs(c) * x.l1()


@given(a=_entries, b=_entries,
       c=st.fractions(min_value=-4, max_value=4, max_denominator=6))
def test_arithmetic_is_coordinatewise(a, b, c):
    x, y = RatVec(a), RatVec(b)
    support = set(a) | set(b)
    for got, want in [(x + y, lambda i: x[i] + y[i]),
                      (x - y, lambda i: x[i] - y[i]),
                      (-x, lambda i: -x[i]),
                      (x.scale(c), lambda i: c * x[i])]:
        assert got == RatVec({i: want(i) for i in support})
        assert type(got) is RatVec


def test_arithmetic_on_probability_vectors_gives_plain_vectors():
    p, q = ProbVector.unit(1), ProbVector({1: Fraction(1, 2), 2: Fraction(1, 2)})
    for got in (p + q, p - q, -p, p.scale(1), q.scale(Fraction(1, 3))):
        assert type(got) is RatVec
    assert (p - q).entries == {1: Fraction(1, 2), 2: Fraction(-1, 2)}
    assert p.scale(1) == p


@given(a=_entries)
def test_parts_are_what_the_checked_constructor_builds(a):
    x = RatVec(a)
    parts = [
        (x.abs(), RatVec({i: abs(v) for i, v in a.items()})),
        (x.positive_part(), RatVec({i: v for i, v in a.items() if v > 0})),
        (x.negative_part(), RatVec({i: -v for i, v in a.items() if v < 0})),
    ]
    for part, checked in parts:
        assert part == checked and type(part) is RatVec
        assert list(part.entries) == sorted(part.entries)
        assert all(type(v) is Fraction and v > 0 for _, v in part.items())


def reference_combination(cls, terms):
    """``combination`` as it was written before it kept shared weights:
    one ``Fraction`` product per entry, then the checked constructor.  The
    oracle for it."""
    merged = {}
    for c, vec in terms:
        c = Fraction(c)
        for i, v in vec.items():
            v = c * v
            merged[i] = merged[i] + v if i in merged else v
    return cls(merged)


_nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)


@st.composite
def _runs(draw):
    """A vector made of runs of consecutive indices, each run one shared
    ``Fraction`` object: at times the object of an earlier run again, or
    an equal but distinct one."""
    entries, index, used = {}, draw(st.integers(1, 5)), []
    for _ in range(draw(st.integers(1, 4))):
        source = draw(st.sampled_from(["new", "again", "equal"])) if used else "new"
        value = draw(_nonzero) if source == "new" else draw(st.sampled_from(used))
        if source == "equal":
            value = Fraction(value.numerator, value.denominator)
        used.append(value)
        size = draw(st.integers(1, 20))
        entries.update(dict.fromkeys(range(index, index + size), value))
        index += size + draw(st.integers(0, 2))
    return RatVec._canonical(entries)


_vectors = st.one_of(_entries.map(RatVec), _runs(),
                     st.integers(1, 30).map(RatVec.unit),
                     st.integers(1, 30).map(ProbVector.unit))
_coefficients = st.one_of(
    st.integers(-3, 3), _nonzero,
    _nonzero.map(lambda q: f"{q.numerator}/{q.denominator}"))


@st.composite
def _terms(draw):
    """``(c, v)`` pairs, at times with a term cancelling an earlier one,
    or convex weights on probability vectors."""
    if draw(st.booleans()):
        units = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
        return [(Fraction(1, len(units)), ProbVector.unit(i)) for i in units]
    terms = draw(st.lists(st.tuples(_coefficients, _vectors), max_size=5))
    if terms and draw(st.booleans()):
        c, vec = draw(st.sampled_from(terms))
        terms.append((-Fraction(c), vec))
    return terms


@given(terms=_terms(), cls=st.sampled_from([RatVec, ProbVector]))
def test_combination_agrees_with_the_per_entry_reference(terms, cls):
    try:
        want = reference_combination(cls, terms)
    except ValueError as error:
        with pytest.raises(ValueError, match=str(error)):
            cls.combination(terms)
        return
    got = cls.combination(terms)
    assert type(got) is type(want)
    assert list(got.items()) == list(want.items())
    assert all(type(v) is Fraction for _, v in got.items())


@given(vec=st.one_of(_runs(), _entries.map(RatVec)))
def test_scaled_is_the_per_entry_formula(vec):
    values = [v for _, v in vec.items()]
    D = math.lcm(*(v.denominator for v in values))
    assert vec.scaled() == (vec.support(),
                            [v.numerator * (D // v.denominator) for v in values], D)
