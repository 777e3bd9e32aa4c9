"""Strictly increasing index streams and their wire names."""

import gc
import tracemalloc
import weakref

import pytest
from hypothesis import given, strategies as st

from schreier_lab.streams import IndexStream, STREAM_CATALOG, parse_stream


def test_builtin_values():
    assert IndexStream.all_indices().prefix(5) == (1, 2, 3, 4, 5)
    assert IndexStream.shift(3).prefix(4) == (4, 5, 6, 7)
    assert IndexStream.cubes().prefix(4) == (1, 8, 27, 64)
    assert IndexStream.evens().prefix(4) == (2, 4, 6, 8)


def test_element_is_one_indexed():
    assert IndexStream.cubes().element(3) == 27
    with pytest.raises(IndexError):
        IndexStream.cubes().element(0)


def test_drop():
    M = IndexStream.all_indices().drop(2)
    assert M.prefix(3) == (3, 4, 5)
    assert M.drop(1).prefix(2) == (4, 5)
    assert IndexStream.cubes().drop(1).element(1) == 8


def test_compose():
    # element(n) of the outer stream at the positions the inner one picks
    M = IndexStream.evens().compose(IndexStream.evens())
    assert M.prefix(3) == (4, 8, 12)
    N = IndexStream.cubes().compose(IndexStream.shift(1))
    assert N.prefix(3) == (8, 27, 64)


def test_index_of_inverts_element():
    # Position 10**20 puts every value past 2**63: the search runs on Python
    # integers, where a bisect over range(1, value + 1) raises OverflowError.
    for M in (IndexStream.all_indices(), IndexStream.shift(4),
              IndexStream.cubes(), IndexStream.evens().drop(3),
              IndexStream.evens(), IndexStream.shift(5)):
        for n in (*range(1, 12), 10 ** 20):
            assert M.index_of(M.element(n)) == n
    assert IndexStream.cubes().index_of(9) is None
    assert IndexStream.evens().index_of(7) is None
    assert IndexStream.cubes().index_of(10 ** 20) is None
    assert IndexStream.evens().index_of(10 ** 20 + 1) is None
    assert IndexStream.shift(5).index_of(5) is None


def test_contains():
    assert 27 in IndexStream.cubes()
    assert 28 not in IndexStream.cubes()
    assert 5 in IndexStream.shift(4)
    assert 4 not in IndexStream.shift(4)


def test_explicit():
    # Past the listed prefix the stream continues as n + tail_shift.
    M = IndexStream.explicit((2, 5, 9), 9)
    assert M.prefix(5) == (2, 5, 9, 13, 14)
    with pytest.raises(ValueError):
        IndexStream.explicit((5, 2), 5)  # not increasing
    with pytest.raises(ValueError):
        IndexStream.explicit((2, 5), 2)  # tail collides with the prefix


def test_custom():
    M = IndexStream.custom(lambda n: n * n, "squares")
    assert M.prefix(4) == (1, 4, 9, 16)
    assert M.name == "custom:squares"
    decreasing = IndexStream.custom(lambda n: 10 - n, "down")
    with pytest.raises(ValueError):
        decreasing.prefix(3)


def test_custom_streams_are_keyed_on_the_callable():
    def squares(n):
        return n * n

    def cubes(n):
        return n ** 3

    same = IndexStream.custom(squares, "f")
    assert same == IndexStream.custom(squares, "f")
    assert same._key() == IndexStream.custom(squares, "f")._key()
    assert hash(same) == hash(IndexStream.custom(squares, "f"))
    assert same != IndexStream.custom(cubes, "f")
    assert same != IndexStream.custom(squares, "g")
    # A key outliving its stream keeps the callable alive, so no later
    # function can take over its identity.
    ref = weakref.ref(cubes)
    key = IndexStream.custom(cubes, "f")._key()
    del cubes
    gc.collect()
    assert ref() is not None and key[1][1] is ref()


def test_parse_stream():
    assert parse_stream("all").prefix(2) == (1, 2)
    assert parse_stream("shift:2").prefix(2) == (3, 4)
    assert parse_stream("cubes").element(2) == 8
    assert parse_stream("evens").element(2) == 4
    for bad in ("", "unknown", "shift", "shift:x", "shift:-1"):
        with pytest.raises(ValueError):
            parse_stream(bad)


def test_names_round_trip():
    for name in ("all", "shift:5", "cubes", "evens"):
        assert parse_stream(name).name == name
    assert "shift:<k>" in STREAM_CATALOG


def test_value_equality():
    assert parse_stream("shift:2") == parse_stream("shift:2")
    assert parse_stream("shift:2") != parse_stream("shift:3")
    assert len({parse_stream("cubes"), parse_stream("cubes")}) == 1
    assert IndexStream.all_indices().drop(2) == IndexStream.all_indices().drop(2)
    a, b = IndexStream.shift(2), IndexStream.evens()
    assert a.compose(b).drop(2).drop(3) == a.compose(b).drop(5)
    assert hash(a.compose(b).drop(2).drop(3)) == hash(a.compose(b).drop(5))
    assert a.compose(b) != a.compose(IndexStream.cubes())
    assert a.compose(b) != b.compose(a)


def test_drop_names_and_refusals():
    assert IndexStream.shift(2).drop(3).name == "shift:2|drop:3"
    assert IndexStream.shift(2).compose(IndexStream.evens()).drop(3).name == (
        "shift:2(evens)|drop:3")
    with pytest.raises(ValueError, match="non-negative"):
        IndexStream.shift(2).drop(-1)
    with pytest.raises(ValueError, match="positive"):
        IndexStream.explicit((), -1)


def test_a_composition_stores_no_values():
    M = IndexStream.all_indices().compose(IndexStream.evens()).drop(5)
    tracemalloc.start()
    try:
        assert M.element(10 ** 6) == 2 * (10 ** 6 + 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_the_drops_of_a_custom_stream_share_its_memo():
    calls = []

    def squares(n):
        calls.append(n)
        return n * n

    M = IndexStream.custom(squares, "squares")
    assert M.element(100) == 100 ** 2
    assert M.drop(50).element(50) == 100 ** 2
    assert M.drop(50).drop(10).element(40) == 100 ** 2
    assert len(calls) == 100
    # A check still counts positions in the base stream.
    late = IndexStream.custom(lambda n: n if n < 7 else 1, "late").drop(4)
    with pytest.raises(ValueError, match="custom:late is not strictly "
                                         "increasing at position 7"):
        late.element(3)


_STREAMS = st.sampled_from([IndexStream.all_indices(), IndexStream.shift(2),
                            IndexStream.cubes(), IndexStream.evens(),
                            IndexStream.all_indices().drop(5)])


@given(M=_STREAMS, n=st.integers(min_value=1, max_value=200))
def test_strictly_increasing(M, n):
    assert M.element(n) < M.element(n + 1)


@given(M=_STREAMS, k=st.integers(min_value=0, max_value=20),
       n=st.integers(min_value=1, max_value=50))
def test_drop_is_a_shift_of_positions(M, k, n):
    assert M.drop(k).element(n) == M.element(n + k)


def _squares(n):
    return n * n


# Every kind, bare and dropped.  The explicit prefix ends at position 3, so
# runs across positions 1..8 cross from the prefix into the tail.
_EVERY_KIND = st.sampled_from([
    IndexStream.all_indices(), IndexStream.shift(3), IndexStream.evens(),
    IndexStream.cubes(), IndexStream.explicit((2, 5, 9), 9),
    IndexStream.custom(_squares, "squares"),
    IndexStream.shift(2).compose(IndexStream.evens()),
    IndexStream.cubes().compose(IndexStream.custom(_squares, "squares")),
])


@given(M=_EVERY_KIND, drop=st.integers(0, 4), first=st.integers(1, 8),
       width=st.integers(-2, 8))
def test_values_read_what_element_reads(M, drop, first, width):
    M = M.drop(drop)
    last = first + width - 1
    assert list(M.values(first, last)) == [M.element(p)
                                           for p in range(first, last + 1)]
    assert M.prefix(last) == tuple(M.element(p) for p in range(1, last + 1))


@pytest.mark.parametrize("M", [IndexStream.all_indices(), IndexStream.evens(),
                               IndexStream.cubes(),
                               IndexStream.custom(_squares, "squares")])
def test_values_are_one_indexed(M):
    assert list(M.values(3, 2)) == []
    for first in (0, -3):
        with pytest.raises(IndexError, match="1-indexed"):
            M.values(first, 4)


def test_values_keep_the_checks_of_a_custom_stream():
    late = IndexStream.custom(lambda n: n if n < 7 else 1, "late")
    assert list(late.values(1, 6)) == [1, 2, 3, 4, 5, 6]
    with pytest.raises(ValueError, match="custom:late is not strictly "
                                         "increasing at position 7"):
        list(late.drop(2).values(3, 5))
    negative = IndexStream.custom(lambda n: n - 3, "negative")
    with pytest.raises(ValueError, match="positive"):
        list(negative.values(1, 2))
