"""Strictly increasing index streams (infinite subsets of the positive integers).

A stream stands for an infinite set ``M = {m_1 < m_2 < ...}`` given by its
increasing enumeration.  Dropping a prefix or composing yields a new stream,
and equal descriptions hash equally so they can key memoization caches.  Only
a custom stream memoizes, checking its values as they are drawn, and its drops
share that memo; a composition of increasing streams needs no check.

A stream is read at one position (``element``) or over a run of consecutive
positions (``values``), which ``all``, ``shift:k`` and ``evens`` answer with
a ``range``; ``prefix`` is the run from position 1.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["IndexStream", "parse_stream", "STREAM_CATALOG"]


class IndexStream:
    """A lazily evaluated strictly increasing injection from {1,2,...}.

    Use the named constructors: :meth:`all_indices`, :meth:`shift`,
    :meth:`cubes`, :meth:`evens`, :meth:`explicit`, :meth:`custom`.
    """

    __slots__ = ("_kind", "_params", "_drop", "_fn", "_name")

    def __init__(self, kind, params, fn, name, drop=0):
        self._kind = kind
        self._params = params
        self._fn = fn
        self._name = name
        self._drop = drop

    # -- constructors ------------------------------------------------------

    @classmethod
    def all_indices(cls) -> "IndexStream":
        """m_n = n."""
        return cls("all", (), lambda n: n, "all")

    @classmethod
    def shift(cls, k: int) -> "IndexStream":
        """m_n = n + k."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        return cls("shift", (k,), lambda n: n + k, f"shift:{k}")

    @classmethod
    def cubes(cls) -> "IndexStream":
        """m_n = n^3."""
        return cls("cubes", (), lambda n: n ** 3, "cubes")

    @classmethod
    def evens(cls) -> "IndexStream":
        """m_n = 2n."""
        return cls("evens", (), lambda n: 2 * n, "evens")

    @classmethod
    def explicit(cls, prefix, tail_shift: int) -> "IndexStream":
        """A finite prefix, then m_n = n + tail_shift beyond it."""
        prefix = tuple(int(v) for v in prefix)
        for a, b in zip(prefix, prefix[1:]):
            if b <= a:
                raise ValueError("explicit prefix must be strictly increasing")
        if prefix and prefix[0] < 1:
            raise ValueError("stream values must be positive")
        if prefix and prefix[-1] >= len(prefix) + 1 + tail_shift:
            raise ValueError("tail does not continue increasing past the prefix")
        if not prefix and tail_shift < 0:
            raise ValueError("tail_shift must keep values positive")

        def fn(n, _prefix=prefix, _shift=tail_shift):
            return _prefix[n - 1] if n <= len(_prefix) else n + _shift

        name = "explicit:" + ",".join(map(str, prefix)) + f";tail_shift={tail_shift}"
        return cls("explicit", (prefix, tail_shift), fn, name)

    @classmethod
    def custom(cls, fn: Callable[[int], int], name: str) -> "IndexStream":
        """Wrap a monotone callable; monotonicity is checked as values are drawn.

        Two custom streams are equal when they wrap the same callable under
        the same name; the key holds the callable itself, so it can never
        collide with a later function reusing a freed id.
        """
        memo: list[int] = []

        def checked(n):
            while len(memo) < n:
                value = fn(len(memo) + 1)
                if memo and value <= memo[-1]:
                    raise ValueError(f"stream custom:{name} is not strictly "
                                     f"increasing at position {len(memo) + 1}")
                if value < 1:
                    raise ValueError("stream values must be positive")
                memo.append(value)
            return memo[n - 1]

        return cls("custom", (name, fn), checked, f"custom:{name}")

    # -- derived streams ---------------------------------------------------

    def drop(self, count: int) -> "IndexStream":
        """The stream with its first ``count`` elements removed."""
        if count < 0:
            raise ValueError("drop count must be non-negative")
        if count == 0:
            return self
        return IndexStream(self._kind, self._params, self._fn, self._name,
                           self._drop + count)

    def compose(self, inner: "IndexStream") -> "IndexStream":
        """The subsequence of self along ``inner``: n -> self(inner(n)).

        It stores nothing: increasing streams compose to an increasing one,
        and a custom part checks its own values.
        """
        def fn(n, _outer=self.element, _inner=inner.element):
            return _outer(_inner(n))

        return IndexStream("compose", (self._key(), inner._key()), fn,
                           f"{self.name}({inner.name})")

    # -- access ------------------------------------------------------------

    @property
    def name(self) -> str:
        if self._drop:
            return f"{self._name}|drop:{self._drop}"
        return self._name

    def element(self, n: int) -> int:
        """The n-th value, 1-indexed."""
        if n < 1:
            raise IndexError("streams are 1-indexed")
        # A drop reads its base, and a custom stream's memo, past the prefix.
        return self._fn(n + self._drop)

    def index_of(self, value: int) -> int | None:
        """The 1-based position of ``value``, or None if absent.

        Strictly increasing positive streams satisfy element(n) >= n, so a
        binary search over positions 1..value suffices.
        """
        if value < 1:
            return None
        lo, hi = 1, value
        while lo <= hi:
            mid = (lo + hi) // 2
            v = self.element(mid)
            if v == value:
                return mid
            if v < value:
                lo = mid + 1
            else:
                hi = mid - 1
        return None

    def __contains__(self, value: int) -> bool:
        return self.index_of(value) is not None

    def values(self, first: int, last: int):
        """The values at positions ``first..last``, ascending (none when
        ``first > last``): a ``range`` for an affine stream, else read a
        position at a time, a custom one through its memo and checks."""
        if first < 1:
            raise IndexError("streams are 1-indexed")
        first += self._drop
        last += self._drop
        if self._kind in ("all", "shift", "evens"):
            step = 2 if self._kind == "evens" else 1
            return range(self._fn(first), self._fn(last) + 1, step)
        return map(self._fn, range(first, last + 1))

    def prefix(self, count: int) -> tuple[int, ...]:
        return tuple(self.values(1, count))

    # -- value identity ------------------------------------------------------

    def _key(self):
        return (self._kind, self._params, self._drop)

    def __eq__(self, other):
        if not isinstance(other, IndexStream):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"IndexStream({self.name})"


STREAM_CATALOG = ("all", "shift:<k>", "cubes", "evens")


def parse_stream(text: str) -> IndexStream:
    """Parse a stream name: ``all``, ``shift:<k>``, ``cubes``, or ``evens``."""
    text = text.strip().lower()
    if text == "all":
        return IndexStream.all_indices()
    if text == "cubes":
        return IndexStream.cubes()
    if text == "evens":
        return IndexStream.evens()
    if text.startswith("shift:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad shift amount in {text!r}") from None
        return IndexStream.shift(k)
    raise ValueError(f"unknown stream {text!r}; expected one of {STREAM_CATALOG}")
