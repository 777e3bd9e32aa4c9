"""Finitely supported rational vectors and probability vectors.

Coordinates are indexed by positive integers and held exactly as
``fractions.Fraction``; zero entries are never stored.  The JSON wire
format writes every rational as a ``"p/q"`` string so that parsing is
loss-free.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Mapping

__all__ = ["RatVec", "ProbVector", "format_fraction", "parse_fraction"]


def format_fraction(q: Fraction) -> str:
    """Render exactly: integers without a denominator, otherwise p/q."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational literal {text!r}") from None


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
            value = Fraction(value)
            if value != 0:
                clean[index] = clean.get(index, Fraction(0)) + value
        clean = {i: v for i, v in sorted(clean.items()) if v != 0}
        object.__setattr__(self, "_entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("RatVec is immutable")

    @classmethod
    def unit(cls, index: int) -> "RatVec":
        return cls({index: 1})

    @classmethod
    def zero(cls) -> "RatVec":
        return cls()

    @classmethod
    def combination(cls, terms: Iterable[tuple]) -> "RatVec":
        """``sum c_k v_k`` over ``(c_k, v_k)`` pairs, accumulated in one dict."""
        merged: dict[int, Fraction] = {}
        for c, vec in terms:
            c = Fraction(c)
            for i, v in vec.items():
                merged[i] = merged.get(i, 0) + c * v
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

    def min_support(self) -> int:
        if not self._entries:
            raise ValueError("the zero vector has empty support")
        return next(iter(self._entries))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RatVec") -> "RatVec":
        merged = dict(self._entries)
        for i, v in other._entries.items():
            merged[i] = merged.get(i, Fraction(0)) + v
        return RatVec(merged)

    def __sub__(self, other: "RatVec") -> "RatVec":
        return self + other.scale(-1)

    def __neg__(self) -> "RatVec":
        return self.scale(-1)

    def scale(self, c) -> "RatVec":
        c = Fraction(c)
        if c == 0:
            return RatVec()
        return RatVec({i: v * c for i, v in self._entries.items()})

    def restrict(self, indices) -> "RatVec":
        keep = set(indices)
        return RatVec({i: v for i, v in self._entries.items() if i in keep})

    def abs(self) -> "RatVec":
        return RatVec({i: abs(v) for i, v in self._entries.items()})

    def positive_part(self) -> "RatVec":
        return RatVec({i: v for i, v in self._entries.items() if v > 0})

    def negative_part(self) -> "RatVec":
        """The positive vector of magnitudes of the negative entries."""
        return RatVec({i: -v for i, v in self._entries.items() if v < 0})

    # -- exact summaries -----------------------------------------------------

    def l1(self) -> Fraction:
        return sum((abs(v) for v in self._entries.values()), Fraction(0))

    def total(self) -> Fraction:
        return sum(self._entries.values(), Fraction(0))

    def sup_abs(self) -> Fraction:
        return max((abs(v) for v in self._entries.values()), default=Fraction(0))

    def l2_squared(self) -> Fraction:
        return sum((v * v for v in self._entries.values()), Fraction(0))

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
    def unit(cls, index: int) -> "ProbVector":
        return cls({index: 1})

    @classmethod
    def average(cls, vectors: Iterable["RatVec"]) -> "ProbVector":
        """The uniform convex combination of the given probability vectors."""
        vectors = list(vectors)
        if not vectors:
            raise ValueError("cannot average zero vectors")
        weight = Fraction(1, len(vectors))
        return cls.combination((weight, vec) for vec in vectors)

    def as_ratvec(self) -> RatVec:
        return RatVec(self._entries)
