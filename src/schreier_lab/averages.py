"""Repeated averages along an index stream, and block convex combinations.

The order-0 averages along ``M`` are the unit vectors ``e_{m_n}``.  At a
successor order each average is the uniform mean of the next ``s`` lower
order averages, where ``s`` is the smallest support point of the first
vector in the block; at a limit order the n-th average is the first
average of an approximating order taken along the tail of ``M`` left over
by its predecessors.  All coefficients are exact rationals.

One :class:`RepeatedAverages` per (order, stream, rule) walks this
recursion.  It first grows integer block boundaries, then builds each
vector from them.  Support sizes grow tower-exponentially with the order,
so the boundaries are checked against the budget as they grow: a request
that cannot fit refuses with the exact entry requirement, or a lower bound
for it, before any vector is allocated, and :func:`support_size` answers
from the boundaries alone.

A vector is held as runs ``(first, last, weight)``: the stream positions
``first..last`` all carry ``weight``.  Supports tile the stream, so a
successor-order vector is its children's runs scaled by one share, and
equal weights come in long consecutive stretches (the third order-2
vector along all indices has 2,040 entries in 8 runs).  Positivity and
the sum to 1 are checked on the runs, and entries are expanded only when
the vector is handed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .budget import Budget, BudgetExceededError, get_budget
from .ordinal import FundamentalRule, Ordinal, classify, default_fundamental_seq
from .schreier import FinSet
from .streams import IndexStream
from .vectors import ProbVector, RatVec

__all__ = [
    "SummabilityMethod",
    "RepeatedAverages",
    "ExplicitMethod",
    "repeated_avg",
    "support_size",
    "apply",
    "pair_sum",
    "successor_pair_prefix",
    "cesaro_mean",
    "NibccWitness",
    "AmbiguousReconstructionError",
    "check_nibcc",
    "cesaro_reweight",
]


# -- summability methods -------------------------------------------------------


class SummabilityMethod:
    """A sequence of probability vectors with a declared index stream."""

    @property
    def stream(self) -> IndexStream:
        raise NotImplementedError

    def vector(self, n: int, *, budget: Budget | None = None) -> ProbVector:
        raise NotImplementedError

    def validate_prefix(self, n: int, *, budget: Budget | None = None) -> None:
        """Check that supports strictly increase and tile a prefix of the stream."""
        covered: list[int] = []
        previous_max = 0
        for j in range(1, n + 1):
            vec = self.vector(j, budget=budget)
            supp = vec.support()
            if supp[0] <= previous_max:
                raise ValueError(f"support of vector {j} does not start after "
                                 f"vector {j - 1}")
            previous_max = supp[-1]
            covered.extend(supp)
        expected = self.stream.prefix(len(covered))
        if tuple(covered) != expected:
            raise ValueError("supports do not tile a prefix of the stream")


class ExplicitMethod(SummabilityMethod):
    """A finite, explicitly listed summability method (mostly for tests)."""

    def __init__(self, vectors: Sequence[ProbVector], stream: IndexStream):
        self._vectors = [ProbVector(v.entries) for v in vectors]
        self._stream = stream

    @property
    def stream(self) -> IndexStream:
        return self._stream

    def vector(self, n: int, *, budget: Budget | None = None) -> ProbVector:
        if not 1 <= n <= len(self._vectors):
            raise IndexError(f"method has {len(self._vectors)} vectors, asked for {n}")
        return self._vectors[n - 1]


class RepeatedAverages(SummabilityMethod):
    """The repeated-average sequence of a given order along a stream.

    ``_consumed[n]`` is the number of stream entries covered by vectors
    1..n and, at a successor order, ``_sub_counts[n]`` the number of
    lower-order vectors they average.  At order 0 the count covered is
    just n, and nothing is stored.  Every query names its own cap: the
    boundaries stop growing, and refuse with that cap, as soon as a total
    would pass it, so astronomically large vectors are detected in a
    handful of integer operations.  Boundaries found under a wider cap
    stay and are reused.

    ``_run_cache[j]`` holds vector j as runs ``(first, last, weight)`` of
    stream positions, ascending and disjoint.  :meth:`vector` builds the
    runs of the one vector asked for from the boundaries (and the cached
    runs of its children), checks that the weights are positive and that
    ``sum((last - first + 1) * weight) == 1``, and only then expands the
    entries.
    """

    def __init__(self, xi: Ordinal, M: IndexStream,
                 fs: FundamentalRule = default_fundamental_seq):
        self.xi = xi
        self._M = M
        self.fs = fs
        self.kind, self.pred = classify(xi)
        self._consumed = [0]
        self._sub_counts = [0]
        self._run_cache: dict[int, tuple] = {}

    @property
    def stream(self) -> IndexStream:
        return self._M

    def vector(self, n: int, *, budget: Budget | None = None) -> ProbVector:
        if n < 1:
            raise ValueError("averages are 1-indexed")
        budget = get_budget(budget)
        # Entries covered by vectors 1..n also bound the work at every
        # lower order, by support tiling.
        self._checked_covered(n, budget.work)
        runs = self._runs(n)
        if any(weight <= 0 for _, _, weight in runs):
            raise ValueError("probability vectors need strictly positive entries")
        if sum((last - first + 1) * weight for first, last, weight in runs) != 1:
            raise ValueError("probability vector entries must sum to 1")
        # Runs ascend and the stream strictly increases, so the keys come
        # out ascending.
        element = self._M.element
        return ProbVector._canonical({element(p): weight
                                      for first, last, weight in runs
                                      for p in range(first, last + 1)})

    def _runs(self, j: int) -> tuple:
        """Vector j as runs; its boundaries must already be grown."""
        if self.kind == "zero":
            return ((j, j, _ONE),)
        runs = self._run_cache.get(j)
        if runs is not None:
            return runs
        if self.kind == "successor":
            child = _averages(self.pred, self._M, self.fs)
            first, last = self._sub_counts[j - 1] + 1, self._sub_counts[j]
            # Merging before scaling is the same as after: one share for all.
            share = Fraction(1, last - first + 1)
            runs = tuple((a, b, weight * share) for a, b, weight in
                         _merged(run for k in range(first, last + 1)
                                 for run in child._runs(k)))
        else:
            done = self._consumed[j - 1]
            tail = self._M.drop(done)
            approx = _averages(self.fs(self.xi, tail.element(1)), tail, self.fs)
            runs = tuple((a + done, b + done, weight)
                         for a, b, weight in approx._runs(1))
        self._run_cache[j] = runs
        return runs

    # -- integer block boundaries ------------------------------------------

    def _covered(self, n: int, cap: int) -> int:
        """Stream entries covered by vectors 1..n, growing under ``cap``."""
        if self.kind == "zero":
            return n
        while len(self._consumed) <= n:
            self._grow(cap)
        return self._consumed[n]

    def _checked_covered(self, n: int, cap: int) -> int:
        """``_covered(n)``, refused with its exact value when above ``cap``.

        Boundaries may have been found under a wider cap than the
        caller's, so the exact total is compared against ``cap`` here too.
        """
        total = self._covered(n, cap)
        if total > cap:
            raise BudgetExceededError("repeated-average support entries", cap,
                                      needed=total)
        return total

    def _grow(self, cap: int) -> None:
        done = self._consumed[-1]
        if self.kind == "successor":
            child = _averages(self.pred, self._M, self.fs)
            k = self._sub_counts[-1]
            start_value = self._M.element(child._covered(k, cap) + 1)
            # The block has start_value sub-vectors, hence at least that
            # many entries; refuse before iterating a huge block.
            _refuse_past(done + start_value, cap)
            end = child._covered(k + start_value, cap)
            _refuse_past(end, cap)
            self._consumed.append(end)
            self._sub_counts.append(k + start_value)
            return
        # Limit order.
        tail = self._M.drop(done)
        n_j = tail.element(1)
        # A chain of n_j successor levels over a stream starting at n_j
        # covers at least n_j elements with its first vector.
        _refuse_past(done + n_j, cap)
        approx = _averages(self.fs(self.xi, n_j), tail, self.fs)
        total = done + approx._covered(1, cap)
        _refuse_past(total, cap)
        self._consumed.append(total)


_ONE = Fraction(1)


def _merged(runs) -> list:
    """Ascending runs with each touching pair of equal weights joined."""
    out: list = []
    for first, last, weight in runs:
        if out and out[-1][1] + 1 == first and out[-1][2] == weight:
            out[-1] = (out[-1][0], last, weight)
        else:
            out.append((first, last, weight))
    return out


def _refuse_past(total: int, cap: int) -> None:
    if total > cap:
        raise BudgetExceededError("repeated-average support entries", cap,
                                  needed=total, needed_is_lower_bound=True)


_AVERAGES_CACHE: dict = {}


def _averages(xi: Ordinal, M: IndexStream, fs: FundamentalRule) -> RepeatedAverages:
    key = (xi, M, fs)
    found = _AVERAGES_CACHE.get(key)
    if found is None:
        found = RepeatedAverages(xi, M, fs)
        _AVERAGES_CACHE[key] = found
    return found


def support_size(xi: Ordinal, M: IndexStream, n: int, *,
                 fs: FundamentalRule = default_fundamental_seq,
                 cap: int | None = None) -> int:
    """Exact support size of the n-th average, computed without materializing.

    Raises :class:`BudgetExceededError` carrying a lower bound when the size
    (or the work to determine it) exceeds ``cap``.
    """
    if n < 1:
        raise ValueError("averages are 1-indexed")
    cap = cap if cap is not None else get_budget().work
    averages = _averages(xi, M, fs)
    return averages._checked_covered(n, cap) - averages._covered(n - 1, cap)


def repeated_avg(xi: Ordinal, M: IndexStream, n: int, *,
                 fs: FundamentalRule = default_fundamental_seq,
                 budget: Budget | None = None) -> ProbVector:
    """The n-th repeated average of order ``xi`` along ``M``, exactly.

    >>> from .streams import IndexStream
    >>> from .ordinal import Ordinal
    >>> repeated_avg(Ordinal.from_int(1), IndexStream.all_indices(), 2).to_map()
    {'2': '1/2', '3': '1/2'}
    """
    return _averages(xi, M, fs).vector(n, budget=budget)


# -- applying a method to a vector sequence --------------------------------------


def _sequence_element(xs, index: int) -> RatVec:
    element = getattr(xs, "element", None)
    if element is not None:
        return element(index)
    try:
        return xs[index - 1]
    except IndexError:
        raise ValueError(f"sequence has no element {index}; it is shorter than "
                         f"the support of the averaging vector") from None


def apply(method: SummabilityMethod, xs, n: int, *,
          budget: Budget | None = None) -> RatVec:
    """The image of a vector sequence under the n-th averaging vector.

    ``xs`` may be anything with a 1-indexed ``element`` method or a plain
    sequence; the result is ``sum_k a_k x_k`` over the averaging support.
    """
    weights = method.vector(n, budget=budget)
    return RatVec.combination((weight, _sequence_element(xs, index))
                              for index, weight in weights.items())


def pair_sum(a: RatVec, F: FinSet) -> Fraction:
    """The sum of the coordinates of ``a`` over the set ``F``."""
    return sum((a[n] for n in F), Fraction(0))


def successor_pair_prefix(xi: Ordinal, M: IndexStream, count: int, *,
                          fs: FundamentalRule = default_fundamental_seq,
                          budget: Budget | None = None
                          ) -> tuple[list[ProbVector], list[ProbVector]]:
    """The first ``count`` averages one order up, with the exact base prefix
    they consume.

    The returned pair feeds the block-combination checker: each higher-order
    vector is a uniform average of a consecutive block of the base prefix.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    budget = get_budget(budget)
    succ = xi.successor()
    z = [repeated_avg(succ, M, n, fs=fs, budget=budget)
         for n in range(1, count + 1)]
    used = _averages(succ, M, fs)._sub_counts[count]
    y = [repeated_avg(xi, M, j, fs=fs, budget=budget)
         for j in range(1, used + 1)]
    return z, y


def cesaro_mean(vectors: Sequence[RatVec], n: int) -> RatVec:
    """The mean of the first n vectors, exactly."""
    if not 1 <= n <= len(vectors):
        raise ValueError(f"need {n} vectors, have {len(vectors)}")
    return RatVec.combination((Fraction(1, n), vec) for vec in vectors[:n])


# -- non-increasing block convex combinations -------------------------------------


class AmbiguousReconstructionError(RuntimeError):
    """The combination weights are not uniquely determined by the data."""


@dataclass(frozen=True)
class NibccWitness:
    """Certificate that ``z`` is a non-increasing block convex combination of ``y``.

    ``breakpoints`` is ``(k_1, ..., k_{p+1})`` with ``k_1 = 0``, and
    ``weights[j-1]`` is the weight of ``y_j``; weights are positive,
    non-increasing, and sum to 1 over each block ``k_n+1 .. k_{n+1}``.
    """

    breakpoints: tuple[int, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        bp = self.breakpoints
        if not bp or bp[0] != 0:
            raise ValueError("breakpoints must start at 0")
        if any(b >= c for b, c in zip(bp, bp[1:])):
            raise ValueError("breakpoints must strictly increase")
        if len(self.weights) != bp[-1]:
            raise ValueError("need one weight per combined vector")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if any(w < v for w, v in zip(self.weights, self.weights[1:])):
            raise ValueError("weights must be non-increasing")
        for lo, hi in zip(bp, bp[1:]):
            if sum(self.weights[lo:hi], Fraction(0)) != 1:
                raise ValueError("each block of weights must sum to 1")

    @property
    def blocks(self) -> int:
        return len(self.breakpoints) - 1

    def block_range(self, n: int) -> range:
        """1-based indices of the y-vectors combined into z_n."""
        return range(self.breakpoints[n - 1] + 1, self.breakpoints[n] + 1)


def _match_block_weights(target: RatVec, y: Sequence[RatVec], start: int):
    """Weights of a block by coordinate matching on disjoint supports.

    Returns ``(weights, next_start)`` or None.  Assumes the y supports are
    pairwise disjoint, which makes the reconstruction unique.
    """
    remaining = dict(target.items())
    weights: list[Fraction] = []
    acc = Fraction(0)
    j = start
    while True:
        if j >= len(y) or y[j].is_zero:
            return None
        yj = y[j]
        lead = yj.min_support()
        alpha = remaining.get(lead, Fraction(0)) / yj[lead]
        if alpha <= 0:
            return None
        for i, v in yj.items():
            if remaining.pop(i, None) != alpha * v:
                return None
        weights.append(alpha)
        acc += alpha
        j += 1
        if acc == 1:
            return (weights, j) if not remaining else None
        if acc > 1:
            return None


def _solve_exact(columns: Sequence[RatVec], target: RatVec):
    """Solve ``sum_j alpha_j columns[j] = target`` over the rationals.

    Returns the unique solution as a list, None when inconsistent, or the
    string "ambiguous" when solutions form an affine family.
    """
    rows = sorted({i for c in columns for i in c.support()} | set(target.support()))
    matrix = [[c[i] for c in columns] + [target[i]] for i in rows]
    ncols = len(columns)
    pivot_rows: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((k for k in range(r, len(matrix)) if matrix[k][col] != 0), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        lead = matrix[r][col]
        matrix[r] = [v / lead for v in matrix[r]]
        for k in range(len(matrix)):
            if k != r and matrix[k][col] != 0:
                factor = matrix[k][col]
                matrix[k] = [a - factor * b for a, b in zip(matrix[k], matrix[r])]
        pivot_rows.append(col)
        r += 1
    for k in range(r, len(matrix)):
        if matrix[k][ncols] != 0:
            return None
    if len(pivot_rows) < ncols:
        return "ambiguous"
    solution = [Fraction(0)] * ncols
    for row, col in enumerate(pivot_rows):
        solution[col] = matrix[row][ncols]
    return solution


def check_nibcc(z: Sequence[RatVec], y: Sequence[RatVec]) -> NibccWitness | None:
    """Search for a non-increasing block convex combination witness.

    When the ``y`` supports are pairwise disjoint the weights are forced by
    coordinate matching; otherwise each candidate block is solved exactly,
    and an underdetermined block raises
    :class:`AmbiguousReconstructionError` rather than guessing.
    """
    z = list(z)
    y = list(y)
    # Pairwise disjoint exactly when each support misses the union of the
    # ones before it.
    covered: set[int] = set()
    disjoint = True
    for vec in y:
        support = vec.support()
        if not covered.isdisjoint(support):
            disjoint = False
            break
        covered.update(support)

    if disjoint and all(not v.is_zero for v in y):
        weights: list[Fraction] = []
        breakpoints = [0]
        j = 0
        for vec in z:
            matched = _match_block_weights(vec, y, j)
            if matched is None:
                return None
            block, j = matched
            weights.extend(block)
            breakpoints.append(j)
        try:
            witness = NibccWitness(tuple(breakpoints), tuple(weights))
        except ValueError:
            return None
        return witness

    def search(n: int, start: int, weights: list[Fraction]):
        if n == len(z):
            return weights, ()
        for end in range(start + 1, len(y) + 1):
            solved = _solve_exact(y[start:end], z[n])
            if solved == "ambiguous":
                raise AmbiguousReconstructionError(
                    "combination weights are underdetermined; the given "
                    "vectors are not support-separated")
            if solved is None:
                continue
            if any(a <= 0 for a in solved) or sum(solved) != 1:
                continue
            found = search(n + 1, end, weights + solved)
            if found is not None:
                return found[0], (end,) + found[1]
        return None

    found = search(0, 0, [])
    if found is None:
        return None
    weights, cuts = found
    try:
        return NibccWitness((0,) + cuts, tuple(weights))
    except ValueError:
        return None


def cesaro_reweight(witness: NibccWitness, n: int) -> dict[int, Fraction]:
    """Weights expressing a mean of combined vectors over means of the originals.

    For ``K = k_{n+1}`` the map sends ``j < K`` to ``(alpha(j) - alpha(j+1)) * j``
    and ``K`` to ``alpha(K) * K``; the weights are non-negative, sum to n, and
    satisfy ``sum_{j<=n} z_j = sum_j beta(j) u_j`` with ``u_j`` the j-th mean
    of the original sequence.
    """
    if not 1 <= n <= witness.blocks:
        raise ValueError(f"witness has {witness.blocks} blocks, asked for {n}")
    K = witness.breakpoints[n]
    alpha = witness.weights
    beta = {j: (alpha[j - 1] - alpha[j]) * j for j in range(1, K)}
    beta[K] = alpha[K - 1] * K
    return beta
