"""Strictly increasing index streams (infinite subsets of the positive integers).

A stream stands for an infinite set ``M = {m_1 < m_2 < ...}`` given by its
increasing enumeration.  Streams are immutable value objects: dropping a
prefix or composing with another stream yields a new stream, and equal
descriptions hash equally so they can key memoization caches.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["IndexStream", "parse_stream", "STREAM_CATALOG"]


class IndexStream:
    """A lazily evaluated strictly increasing injection from {1,2,...}.

    Use the named constructors: :meth:`all_indices`, :meth:`shift`,
    :meth:`cubes`, :meth:`evens`, :meth:`explicit`, :meth:`custom`.
    """

    __slots__ = ("_kind", "_params", "_drop", "_inner", "_fn", "_cache", "_name")

    def __init__(self, kind, params, fn, name, drop=0, inner=None):
        self._kind = kind
        self._params = params
        self._fn = fn
        self._name = name
        self._drop = drop
        self._inner = inner
        self._cache: list[int] = []

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
        return cls("custom", (name, fn), fn, f"custom:{name}")

    # -- derived streams ---------------------------------------------------

    def drop(self, count: int) -> "IndexStream":
        """The stream with its first ``count`` elements removed."""
        if count < 0:
            raise ValueError("drop count must be non-negative")
        if count == 0:
            return self
        out = IndexStream(self._kind, self._params, self._fn, self._name,
                          drop=self._drop + count, inner=self._inner)
        return out

    def compose(self, inner: "IndexStream") -> "IndexStream":
        """The subsequence of self along ``inner``: n -> self(inner(n))."""
        def fn(n, _outer=self, _inner=inner):
            return _outer.element(_inner.element(n))

        out = IndexStream("compose", (), fn, f"{self.name}({inner.name})",
                          inner=(self, inner))
        return out

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
        n = n + self._drop
        if self._kind in ("all", "shift", "cubes", "evens", "explicit"):
            return self._fn(n)
        # Custom and composed streams are memoized and monotonicity-checked.
        while len(self._cache) < n:
            value = self._fn(len(self._cache) + 1)
            if self._cache and value <= self._cache[-1]:
                raise ValueError(
                    f"stream {self._name} is not strictly increasing at "
                    f"position {len(self._cache) + 1}")
            if not self._cache and value < 1:
                raise ValueError("stream values must be positive")
            self._cache.append(value)
        return self._cache[n - 1]

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

    def prefix(self, count: int) -> tuple[int, ...]:
        return tuple(self.element(n) for n in range(1, count + 1))

    # -- value identity ------------------------------------------------------

    def _key(self):
        inner = self._inner
        if inner is not None:
            inner = tuple(s._key() for s in inner)
        return (self._kind, self._params, self._drop, inner)

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
