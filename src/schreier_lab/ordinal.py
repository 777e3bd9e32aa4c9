"""Ordinals in Cantor normal form, with classification and fundamental sequences.

The library indexes transfinite constructions by countable ordinals written
in Cantor normal form, ``w^k1*c1 + ... + w^kr*cr`` with strictly decreasing
exponents and positive integer coefficients.  The universe is the ordinals
below ``w^w``, so every exponent is a natural number and no deeper nesting
can be configured.

An :class:`Ordinal` is a validated tuple of its Cantor-normal-form pairs.
Only parsing, classification, successors and fundamental sequences are
provided; general ordinal arithmetic is deliberately out of scope.
"""

from __future__ import annotations

import re
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


class _ClosedTuple(tuple):
    """A validated tuple that refuses ``+`` and ``*``: concatenation and
    repetition would build a value its validation never saw."""

    __slots__ = ()

    def __add__(self, other):
        return NotImplemented

    __mul__ = __rmul__ = __add__

    def __radd__(self, other):
        # ``NotImplemented`` here would let a tuple on the left concatenate
        # through ``tuple.__add__``.
        raise TypeError("unsupported operand type(s) for +: "
                        f"{type(other).__name__!r} and {type(self).__name__!r}")


class Ordinal(_ClosedTuple):
    """An ordinal below ``w^w``: a validated tuple, like the automaton's
    states, of ``(exponent, coefficient)`` pairs with strictly decreasing
    exponents and coefficients >= 1.  Tuple order is Cantor-normal-form
    order.  ``+`` and ``*`` are refused: concatenation is not addition."""

    __slots__ = ()

    def __new__(cls, terms=()):
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
        return super().__new__(cls, terms)

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
        return not self

    # -- structure -------------------------------------------------------

    def successor(self) -> "Ordinal":
        """x + 1."""
        if self and self[-1][0] == 0:
            return Ordinal((*self[:-1], (0, self[-1][1] + 1)))
        return Ordinal((*self, (0, 1)))

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        for exp, coeff in self:
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
    last_exp, last_coeff = x[-1]
    if last_exp != 0:
        return Classification("limit")
    if last_coeff > 1:
        pred = Ordinal((*x[:-1], (0, last_coeff - 1)))
    else:
        pred = Ordinal(x[:-1])
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
    last_exp, last_coeff = x[-1]
    rho = list(x[:-1])
    if last_coeff > 1:
        rho.append((last_exp, last_coeff - 1))
    if last_exp == 1:
        return Ordinal((*rho, (0, n)))
    return Ordinal((*rho, (last_exp - 1, n), (0, 1)))
