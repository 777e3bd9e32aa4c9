"""Ordinals in Cantor normal form, with classification and fundamental sequences.

The library indexes transfinite constructions by countable ordinals written
in Cantor normal form, ``w^k1*c1 + ... + w^kr*cr`` with strictly decreasing
exponents and positive integer coefficients.  The universe is the ordinals
below ``w^w``, so every exponent is a natural number and no deeper nesting
can be configured.

Only comparison, classification, and fundamental sequences are provided.
General ordinal arithmetic is deliberately out of scope.
"""

from __future__ import annotations

import re
from functools import total_ordering
from typing import Callable, NamedTuple

__all__ = [
    "Ordinal",
    "OrdinalParseError",
    "Classification",
    "ZERO",
    "ONE",
    "OMEGA",
    "parse",
    "classify",
    "default_fundamental_seq",
    "FundamentalRule",
]


class OrdinalParseError(ValueError):
    """Raised for text that is not a well-formed ordinal expression."""


@total_ordering
class Ordinal:
    """An ordinal below ``w^w``, immutable and canonical.

    Stored as a tuple of ``(exponent, coefficient)`` pairs of naturals with
    strictly decreasing exponents and coefficients >= 1, so that order,
    equality and hashing are those of the tuple.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        terms = tuple((int(exp), int(coeff)) for exp, coeff in terms)
        prev = None
        for exp, coeff in terms:
            if exp < 0:
                raise ValueError("exponents must be >= 0")
            if coeff < 1:
                raise ValueError("coefficients must be >= 1")
            if prev is not None and not exp < prev:
                raise ValueError("exponents must be strictly decreasing")
            prev = exp
        object.__setattr__(self, "_terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("Ordinal is immutable")

    def __reduce__(self):
        return type(self), (self._terms,)

    @property
    def terms(self):
        """The ``(exponent, coefficient)`` pairs, highest exponent first.

        >>> parse("w^2*3+1").terms
        ((2, 3), (0, 1))
        """
        return self._terms

    @classmethod
    def from_int(cls, n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        if n == 0:
            return ZERO
        return cls(((0, n),))

    @classmethod
    def omega_power(cls, exponent: int, coeff: int = 1) -> "Ordinal":
        return cls(((exponent, coeff),))

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_finite(self) -> bool:
        return not self._terms or self._terms[0][0] == 0

    def as_int(self) -> int:
        """The integer value of a finite ordinal."""
        if not self.is_finite:
            raise ValueError(f"{self} is not finite")
        return self._terms[0][1] if self._terms else 0

    # -- order -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._terms == other._terms

    def __lt__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        # Cantor normal form compares lexicographically term by term, with
        # a missing term counting as smaller: the order of the tuples.
        return self._terms < other._terms

    def __hash__(self):
        return hash(self._terms)

    # -- structure -------------------------------------------------------

    def successor(self) -> "Ordinal":
        """x + 1."""
        terms = self._terms
        if terms and terms[-1][0] == 0:
            return Ordinal(terms[:-1] + ((0, terms[-1][1] + 1),))
        return Ordinal(terms + ((0, 1),))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp, coeff in self._terms:
            if exp == 0:
                parts.append(str(coeff))
                continue
            body = "w" if exp == 1 else f"w^{exp}"
            parts.append(body if coeff == 1 else f"{body}*{coeff}")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"Ordinal({self})"


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal.omega_power(1)


class Classification(NamedTuple):
    """Tagged classification: kind is 'zero', 'successor', or 'limit'.

    ``predecessor`` is set exactly when kind is 'successor'.
    """

    kind: str
    predecessor: Ordinal | None = None


def classify(x: Ordinal) -> Classification:
    """Classify an ordinal as zero, a successor, or a limit."""
    if x.is_zero:
        return Classification("zero")
    last_exp, last_coeff = x.terms[-1]
    if last_exp != 0:
        return Classification("limit")
    if last_coeff > 1:
        pred = Ordinal(x.terms[:-1] + ((0, last_coeff - 1),))
    else:
        pred = Ordinal(x.terms[:-1])
    return Classification("successor", pred)


# -- parsing and formatting ------------------------------------------------

_NAT = re.compile(r"^(0|[1-9][0-9]*)$")
_W_TERM = re.compile(r"^w(?:\^(0|[1-9][0-9]*))?(?:\*(0|[1-9][0-9]*))?$")


def parse(text: str) -> Ordinal:
    """Parse ``sum := term ("+" term)*; term := "w" ("^" nat)? ("*" nat)? | nat``.

    Accepts redundant spellings such as ``w^1`` or ``w*1`` and returns the
    canonical ordinal, but rejects non-decreasing exponent sequences and
    zero coefficients.

    >>> str(parse("w^2*3+w+1"))
    'w^2*3+w+1'
    """
    stripped = text.strip()
    if not stripped:
        raise OrdinalParseError("empty ordinal expression")
    parts = [p.strip() for p in stripped.split("+")]
    terms: list[tuple[int, int]] = []
    for part in parts:
        m = _NAT.match(part)
        if m:
            value = int(m.group(1))
            if value == 0:
                if len(parts) == 1:
                    return ZERO
                raise OrdinalParseError("a zero term is only valid on its own")
            terms.append((0, value))
            continue
        m = _W_TERM.match(part)
        if not m:
            raise OrdinalParseError(f"malformed term {part!r}")
        exp = int(m.group(1)) if m.group(1) is not None else 1
        coeff = int(m.group(2)) if m.group(2) is not None else 1
        if coeff == 0:
            raise OrdinalParseError(f"zero coefficient in term {part!r}")
        terms.append((exp, coeff))
    # Merge nothing: the wire format demands strictly decreasing exponents,
    # which the constructor checks.
    try:
        return Ordinal(terms)
    except ValueError as exc:
        raise OrdinalParseError(str(exc)) from exc


# -- fundamental sequences -------------------------------------------------

FundamentalRule = Callable[[Ordinal, int], Ordinal]


def default_fundamental_seq(x: Ordinal, n: int) -> Ordinal:
    """The n-th member of the default successor sequence converging to x.

    For a limit ``x = rho + w^(a+1)`` (the last coefficient folded into
    ``rho``) the rule returns ``rho + w^a*n + 1`` when ``a > 0`` and
    ``rho + n`` when ``a = 0``.  Each member is a successor ordinal, the
    sequence is strictly increasing, and its supremum is ``x``.

    >>> str(default_fundamental_seq(OMEGA, 3))
    '3'
    >>> str(default_fundamental_seq(parse("w^2"), 2))
    'w*2+1'
    >>> str(default_fundamental_seq(parse("w*2"), 4))
    'w+4'
    """
    if n < 1:
        raise ValueError("fundamental sequences are 1-indexed")
    kind, _ = classify(x)
    if kind != "limit":
        raise ValueError(f"{x} is not a limit ordinal")
    last_exp, last_coeff = x.terms[-1]
    rho = list(x.terms[:-1])
    if last_coeff > 1:
        rho.append((last_exp, last_coeff - 1))
    if last_exp == 1:
        return Ordinal(tuple(rho) + ((0, n),))
    return Ordinal(tuple(rho) + ((last_exp - 1, n), (0, 1)))
