"""Finitely supported rational vectors, probability vectors, and sequences.

Coordinates are indexed by positive integers and held exactly as
``fractions.Fraction``; zero entries are never stored.  The JSON wire
format writes every rational as a ``"p/q"`` string so that parsing is
loss-free.

A vector sequence is one :class:`SeqSpec`: an ambient norm, which this
module only carries, and a 1-indexed ``element`` callable.  Every quantity,
and :func:`~schreier_lab.averages.apply`, reads its sequence through one.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .budget import Record

__all__ = ["RatVec", "ProbVector", "format_fraction", "parse_fraction",
           "SeqSpec", "CanonicalBasis", "Subsequence", "WeightedBasis",
           "ExplicitSequence"]


def format_fraction(q: Fraction) -> str:
    """Render exactly: integers without a denominator, otherwise p/q."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# A decimal exponent is held to Python's own limit on integer strings (4300
# digits; releases before 3.10.7 lack it), so a short literal cannot stand
# for an integer of millions of digits.
_MAX_EXPONENT = getattr(sys.int_info, "default_max_str_digits", 4300)
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*\Z")


def parse_fraction(text: str) -> Fraction:
    exponent = _EXPONENT.search(text)
    try:
        if exponent and abs(int(exponent.group(1))) > _MAX_EXPONENT:
            raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational literal {text!r}") from None


_ONE = Fraction(1)


class RatVec:
    """An immutable finitely supported vector with exact rational entries."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, Fraction | int | str] | Iterable = ()):
        if isinstance(entries, Mapping):
            items = entries.items()
        else:
            items = entries
        clean: dict[int, Fraction] = {}
        for index, value in items:
            index = int(index)
            if index < 1:
                raise ValueError("coordinates are indexed from 1")
            if type(value) is not Fraction:
                value = Fraction(value)
            if value:
                clean[index] = clean[index] + value if index in clean else value
        clean = {i: v for i, v in sorted(clean.items()) if v}
        object.__setattr__(self, "_entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("RatVec is immutable")

    def __reduce__(self):
        # Rebuilt through the constructor of its class, with its checks.
        return type(self), (self._entries,)

    @classmethod
    def unit(cls, index: int) -> "RatVec":
        """``e_index``, also a probability vector when ``cls`` is one."""
        index = int(index)
        if index < 1:
            raise ValueError("coordinates are indexed from 1")
        return cls._canonical({index: _ONE})

    @classmethod
    def combination(cls, terms: Iterable[tuple]) -> "RatVec":
        """``sum c_k v_k`` over ``(c_k, v_k)`` pairs, accumulated in one dict."""
        merged: dict[int, Fraction] = {}
        for c, vec in terms:
            c = Fraction(c)
            for i, v in vec.items():
                v = c * v
                merged[i] = merged[i] + v if i in merged else v
        return cls(merged)

    @classmethod
    def _canonical(cls, entries: dict[int, Fraction]) -> "RatVec":
        """Wrap ``entries`` as they are, without the constructor's checks.

        For callers that already hold canonical data: ascending keys from 1
        up, non-zero ``Fraction`` values, and whatever ``cls`` requires of
        them (a ``ProbVector`` caller has checked positivity and the sum).
        """
        vec = object.__new__(cls)
        object.__setattr__(vec, "_entries", entries)
        return vec

    # -- access ----------------------------------------------------------

    @property
    def entries(self) -> dict[int, Fraction]:
        return dict(self._entries)

    def support(self) -> tuple[int, ...]:
        return tuple(self._entries)

    def __getitem__(self, index: int) -> Fraction:
        return self._entries.get(index, Fraction(0))

    def __len__(self):
        return len(self._entries)

    def items(self):
        return self._entries.items()

    @property
    def is_zero(self) -> bool:
        return not self._entries

    def scaled(self) -> tuple[tuple[int, ...], list[int], int]:
        """The support, the entries times ``D`` as integers, and ``D``.

        ``D`` is the lcm of the denominators (1 for the zero vector), so
        exact scans can run on the integers and divide by ``D`` once.

        >>> RatVec({2: Fraction(1, 2), 5: Fraction(-2, 3)}).scaled()
        ((2, 5), [3, -4], 6)
        """
        D = math.lcm(*(v.denominator for v in self._entries.values()))
        return (tuple(self._entries),
                [v.numerator * (D // v.denominator) for v in self._entries.values()],
                D)

    # -- arithmetic --------------------------------------------------------

    # Each returns a RatVec, also for a ProbVector operand.

    def __add__(self, other: "RatVec") -> "RatVec":
        return RatVec.combination(((1, self), (1, other)))

    def __sub__(self, other: "RatVec") -> "RatVec":
        return RatVec.combination(((1, self), (-1, other)))

    def __neg__(self) -> "RatVec":
        return RatVec.combination(((-1, self),))

    def scale(self, c) -> "RatVec":
        return RatVec.combination(((c, self),))

    # The entries are canonical already, and these keep them so.

    def abs(self) -> "RatVec":
        return RatVec._canonical({i: abs(v) for i, v in self._entries.items()})

    def positive_part(self) -> "RatVec":
        return RatVec._canonical({i: v for i, v in self._entries.items() if v > 0})

    def negative_part(self) -> "RatVec":
        """The positive vector of magnitudes of the negative entries."""
        return RatVec._canonical({i: -v for i, v in self._entries.items()
                                  if v < 0})

    # -- exact summaries -----------------------------------------------------

    def l1(self) -> Fraction:
        return sum((abs(v) for v in self._entries.values()), Fraction(0))

    def total(self) -> Fraction:
        return sum(self._entries.values(), Fraction(0))

    # -- identity --------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RatVec):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(("RatVec", tuple(self._entries.items())))

    def __repr__(self):
        inner = ", ".join(f"{i}: {format_fraction(v)}" for i, v in self._entries.items())
        return f"RatVec({{{inner}}})"

    # -- wire format --------------------------------------------------------------

    def to_map(self) -> dict[str, str]:
        """Bare JSON map of index to exact rational string."""
        return {str(i): format_fraction(v) for i, v in self._entries.items()}

    def to_json(self) -> str:
        return json.dumps({"entries": self.to_map()}, sort_keys=True)

    @classmethod
    def from_map(cls, data: Mapping[str, str]) -> "RatVec":
        if not isinstance(data, Mapping):
            raise ValueError("vector entries must be a JSON object of "
                             "index to rational")
        return cls({int(k): parse_fraction(str(v)) for k, v in data.items()})

    @classmethod
    def from_obj(cls, data) -> "RatVec":
        """The vector in decoded JSON of the form ``{"entries": {...}}``."""
        if not isinstance(data, dict) or "entries" not in data:
            raise ValueError('vector JSON must look like {"entries": {...}}')
        return cls.from_map(data["entries"])

    @classmethod
    def from_json(cls, text: str) -> "RatVec":
        return cls.from_obj(json.loads(text))


class ProbVector(RatVec):
    """A RatVec whose entries are positive and sum exactly to 1."""

    def __init__(self, entries=()):
        super().__init__(entries)
        if any(v <= 0 for v in self._entries.values()):
            raise ValueError("probability vectors need strictly positive entries")
        if self.total() != 1:
            raise ValueError("probability vector entries must sum to 1")

    @classmethod
    def average(cls, vectors: Iterable["RatVec"]) -> "ProbVector":
        """The uniform convex combination of the given probability vectors."""
        vectors = list(vectors)
        if not vectors:
            raise ValueError("cannot average zero vectors")
        weight = Fraction(1, len(vectors))
        return cls.combination((weight, vec) for vec in vectors)


# -- vector sequences --------------------------------------------------------------


class SeqSpec(Record):
    """A 1-indexed sequence of vectors living in a normed ambient:
    ``element(n)`` is the n-th vector, and ``name`` says which sequence."""

    __slots__ = ("ambient", "element", "name")
    ambient: object   # a spaces.NormSpec, or None where no norm is taken
    element: Callable[[int], RatVec]
    name: str


def _one_indexed(element: Callable[[int], RatVec]) -> Callable[[int], RatVec]:
    """``element``, refusing indices below 1."""
    def checked(n: int) -> RatVec:
        if n < 1:
            raise ValueError("sequences are 1-indexed")
        return element(n)
    return checked


def CanonicalBasis(ambient) -> SeqSpec:
    """The unit vectors ``e_n``."""
    return SeqSpec(ambient, _one_indexed(RatVec.unit), "basis")


def Subsequence(base: SeqSpec, along) -> SeqSpec:
    """``base`` re-indexed along a stream: element(n) = base.element(m_n)."""
    return SeqSpec(base.ambient, lambda n: base.element(along.element(n)),
                   f"{base.name}[{along.name}]")


def WeightedBasis(ambient, weights: Sequence[Fraction],
                  tail: Fraction = Fraction(1)) -> SeqSpec:
    """``w_n e_n`` with explicitly listed leading weights and a constant tail."""
    weights = tuple(Fraction(w) for w in weights)
    tail = Fraction(tail)

    def element(n: int) -> RatVec:
        weight = weights[n - 1] if n <= len(weights) else tail
        return RatVec.unit(n).scale(weight)

    return SeqSpec(ambient, _one_indexed(element),
                   f"weighted-basis[{len(weights)} weights, tail {tail}]")


def ExplicitSequence(ambient, vectors: Sequence[RatVec]) -> SeqSpec:
    """The listed vectors, in order."""
    vectors = tuple(RatVec(v.entries) for v in vectors)

    def element(n: int) -> RatVec:
        if not 1 <= n <= len(vectors):
            raise ValueError(f"sequence has {len(vectors)} vectors, "
                             f"asked for {n}")
        return vectors[n - 1]

    return SeqSpec(ambient, element, f"explicit[{len(vectors)}]")
