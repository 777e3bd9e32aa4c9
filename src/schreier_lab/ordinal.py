"""Ordinals in Cantor normal form, with classification and fundamental sequences.

The library indexes transfinite constructions by countable ordinals written
in Cantor normal form, ``w^k1*c1 + ... + w^kr*cr`` with strictly decreasing
exponents and positive integer coefficients.  By default the universe is
capped below ``w^w`` so every exponent is a plain natural number; the cap is
configurable per constructor call for callers that need deeper nesting.

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
    "ExponentBoundError",
    "Classification",
    "ZERO",
    "ONE",
    "OMEGA",
    "parse",
    "classify",
    "fundamental_successor_seq",
    "default_fundamental_seq",
    "FundamentalRule",
]

DEFAULT_EXPONENT_HEIGHT = 1


class OrdinalParseError(ValueError):
    """Raised for text that is not a well-formed ordinal expression."""


class ExponentBoundError(ValueError):
    """Raised when a constructed ordinal exceeds the exponent-height cap."""


@total_ordering
class Ordinal:
    """An ordinal below epsilon_0, immutable and canonical.

    Stored as a tuple of ``(exponent, coefficient)`` pairs with strictly
    decreasing exponents (themselves Ordinals) and coefficients >= 1.
    ``height`` measures exponent nesting: finite ordinals have height 0,
    anything below ``w^w`` has height 1.  Construction rejects ordinals
    whose height exceeds ``max_height`` (default 1).
    """

    __slots__ = ("_terms", "_height")

    def __init__(self, terms=(), *, max_height: int = DEFAULT_EXPONENT_HEIGHT):
        terms = tuple((exp, int(coeff)) for exp, coeff in terms)
        prev = None
        height = 0
        for exp, coeff in terms:
            if not isinstance(exp, Ordinal):
                raise TypeError("exponents must be Ordinal instances")
            if coeff < 1:
                raise ValueError("coefficients must be >= 1")
            if prev is not None and not exp < prev:
                raise ValueError("exponents must be strictly decreasing")
            prev = exp
            height = max(height, exp._height + (1 if exp._terms else 0))
        if height > max_height:
            raise ExponentBoundError(
                f"exponent nesting {height} exceeds the configured cap {max_height}")
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_height", height)

    def __setattr__(self, name, value):
        raise AttributeError("Ordinal is immutable")

    @property
    def terms(self):
        return self._terms

    @classmethod
    def from_int(cls, n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        if n == 0:
            return ZERO
        return cls(((ZERO, n),))

    @classmethod
    def omega_power(cls, exponent: "Ordinal | int", coeff: int = 1, *,
                    max_height: int = DEFAULT_EXPONENT_HEIGHT) -> "Ordinal":
        if isinstance(exponent, int):
            exponent = cls.from_int(exponent)
        return cls(((exponent, coeff),), max_height=max_height)

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_finite(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and self._terms[0][0].is_zero)

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
        # Cantor normal form compares lexicographically term by term,
        # with a missing term counting as smaller.
        for (e1, c1), (e2, c2) in zip(self._terms, other._terms):
            if e1 != e2:
                return e1 < e2
            if c1 != c2:
                return c1 < c2
        return len(self._terms) < len(other._terms)

    def __hash__(self):
        return hash(("Ordinal", self._terms))

    # -- structure -------------------------------------------------------

    def successor(self) -> "Ordinal":
        """x + 1."""
        terms = self._terms
        if terms and terms[-1][0].is_zero:
            return Ordinal(terms[:-1] + ((ZERO, terms[-1][1] + 1),))
        return Ordinal(terms + ((ZERO, 1),))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp, coeff in self._terms:
            if exp.is_zero:
                parts.append(str(coeff))
                continue
            if exp == ONE:
                body = "w"
            elif exp.is_finite:
                body = f"w^{exp.as_int()}"
            else:
                # Outside the default universe; not covered by the wire grammar.
                body = f"w^({exp})"
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
    if not last_exp.is_zero:
        return Classification("limit")
    if last_coeff > 1:
        pred = Ordinal(x.terms[:-1] + ((ZERO, last_coeff - 1),))
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
    terms: list[tuple[Ordinal, int]] = []
    for part in parts:
        m = _NAT.match(part)
        if m:
            value = int(m.group(1))
            if value == 0:
                if len(parts) == 1:
                    return ZERO
                raise OrdinalParseError("a zero term is only valid on its own")
            terms.append((ZERO, value))
            continue
        m = _W_TERM.match(part)
        if not m:
            raise OrdinalParseError(f"malformed term {part!r}")
        exp = int(m.group(1)) if m.group(1) is not None else 1
        coeff = int(m.group(2)) if m.group(2) is not None else 1
        if coeff == 0:
            raise OrdinalParseError(f"zero coefficient in term {part!r}")
        terms.append((Ordinal.from_int(exp), coeff))
    # Merge nothing: the wire format demands strictly decreasing exponents.
    for (e1, _), (e2, _) in zip(terms, terms[1:]):
        if not e2 < e1:
            raise OrdinalParseError("exponents must be strictly decreasing")
    try:
        return Ordinal(terms)
    except ValueError as exc:  # pragma: no cover - guarded above
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
    exp_kind, exp_pred = classify(last_exp)
    if exp_kind == "successor":
        alpha = exp_pred
        if alpha.is_zero:
            return Ordinal(tuple(rho) + ((ZERO, n),))
        return Ordinal(tuple(rho) + ((alpha, n), (ZERO, 1)))
    # Limit last exponent: reachable only above the default universe cap.
    # Recurse into the exponent and add 1 to keep every member a successor.
    inner = default_fundamental_seq(last_exp, n)
    max_height = x._height
    return Ordinal(tuple(rho) + ((inner, 1), (ZERO, 1)), max_height=max_height)


def fundamental_successor_seq(x: Ordinal, n: int,
                              rule: FundamentalRule = default_fundamental_seq) -> Ordinal:
    """Evaluate a fundamental-sequence rule; the rule is injectable."""
    return rule(x, n)
