"""Repeated averages along an index stream, and block convex combinations.

The order-0 averages along ``M`` are the unit vectors ``e_{m_n}``.  At a
successor order each average is the uniform mean of the next ``s`` lower
order averages, where ``s`` is the smallest support point of the first
vector in the block; at a limit order the n-th average is the first
average of an approximating order taken along the tail of ``M`` left over
by its predecessors.  All coefficients are exact rationals.

One :class:`RepeatedAverages` per (order, stream, rule) walks this
recursion; the process keeps the 64 most recently used, and each holds
the lower orders it is built from.  It first grows integer block
boundaries, then builds each vector from them.  Support sizes grow tower-exponentially with the order,
so the boundaries are checked against the budget as they grow: a request
that cannot fit refuses with the exact entry requirement, or a lower bound
for it, before any vector is allocated, and :func:`support_size` answers
from the boundaries alone.  Finding a first vector can pass through many
orders before it covers one entry (about ``2^k`` of them below ``w^k``), so
the orders entered are metered against the same cap, and under the default
rule the descent finds the first vector of ``w+1``, where such descents
refuse, before the orders above it.

A vector is held as runs ``(first, last, q)`` of integers: the stream
positions ``first..last`` all carry the weight ``1/q``.  Every weight is a
unit fraction, since order 0 has ``q = 1``, a successor order multiplies
its children's ``q`` by the block length, and a limit order only shifts
runs.  Supports tile the stream, so equal weights come in long consecutive
stretches (the third order-2 vector along all indices has 2,040 entries in
8 runs).  Positivity and the sum to 1 are checked on the runs, the sum as
one integer sum over ``lcm(q)``, and entries are expanded only when the
vector is handed out: one ``dict.fromkeys`` per run over the stream's
``values`` at its positions, all sharing one ``Fraction``.  A unit vector
of order 0 is its one run, so it skips the checks.

:func:`apply` pushes a vector sequence, a
:class:`~schreier_lab.vectors.SeqSpec`, through one average, and
:func:`validate_prefix` checks that listed vectors lie along a stream as the
averages do.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Generator, Sequence

from .budget import (Budget, BudgetExceededError, Record, WorkMeter, _unwound,
                     get_budget)
from .ordinal import (OMEGA, FundamentalRule, Ordinal, classify,
                      default_fundamental_seq)
from .streams import IndexStream
from .vectors import ProbVector, RatVec, SeqSpec

# An annotation only: importing it would make every average load the families.
if TYPE_CHECKING:
    from .schreier import FinSet

__all__ = [
    "RepeatedAverages",
    "repeated_avg",
    "support_size",
    "apply",
    "pair_sum",
    "successor_pair_prefix",
    "validate_prefix",
    "cesaro_mean",
    "NibccWitness",
    "AmbiguousReconstructionError",
    "check_nibcc",
    "cesaro_reweight",
]


# -- repeated averages -----------------------------------------------------------


class RepeatedAverages:
    """The repeated-average sequence of a given order along a stream.

    ``_consumed[n]`` is the number of stream entries covered by vectors
    1..n and, at a successor order, ``_sub_counts[n]`` the number of
    lower-order vectors they average.  At order 0 the count covered is
    just n, and nothing is stored.  Every query names its own cap: the
    boundaries stop growing, and refuse with that cap, as soon as a total
    would pass it, so astronomically large vectors are detected in a
    handful of integer operations.  Boundaries found under a wider cap
    stay and are reused.

    A successor order holds the order below it (``_child``), and a limit
    order holds, in ``_approx[j]``, the approximating order whose first
    vector is its vector j, so what the boundaries were grown on stays
    reachable when the process-wide cache evicts it.

    ``_run_cache[j]`` holds vector j as integer runs ``(first, last, q)``
    of stream positions, ascending and disjoint, each of weight ``1/q``.
    :meth:`vector` builds the runs of the one vector asked for from the
    boundaries (and the cached runs of its children), checks that every
    ``q`` is positive and that ``sum((last - first + 1) * (L // q)) == L``
    for ``L = lcm(q)``, and only then expands the entries, a run at a time
    from :meth:`IndexStream.values`.  At order 0, vector n is
    ``e_{m_n}``, built directly.
    """

    def __init__(self, xi: Ordinal, M: IndexStream,
                 fs: FundamentalRule = default_fundamental_seq):
        self.xi = xi
        self._M = M
        self.fs = fs
        self.kind, self.pred = classify(xi)
        self._consumed = [0]
        self._sub_counts = [0]
        self._child: RepeatedAverages | None = None
        self._approx: list = [None]
        self._run_cache: dict[int, tuple] = {}

    def vector(self, n: int, *, budget: Budget | None = None) -> ProbVector:
        if n < 1:
            raise ValueError("averages are 1-indexed")
        # Entries covered by vectors 1..n also bound the work at every
        # lower order, by support tiling; the orders passed on the way are
        # metered by the sizing step.
        self._checked_covered(n, get_budget(budget).work)
        return self._expanded(n)

    def _expanded(self, n: int) -> ProbVector:
        """Vector n from its runs, checked; its boundaries must be grown."""
        if self.kind == "zero":
            # e_{m_n}: its one run (n, n, 1) passes both checks below.
            return ProbVector._canonical({self._M.element(n): _ONE})
        runs = _unwound(self._runs(n))
        if any(q <= 0 for _, _, q in runs):
            raise ValueError("probability vectors need strictly positive entries")
        L = math.lcm(*(q for _, _, q in runs))
        if sum((last - first + 1) * (L // q) for first, last, q in runs) != L:
            raise ValueError("probability vector entries must sum to 1")
        # Runs ascend and the stream strictly increases, so the keys come
        # out ascending.
        values = self._M.values
        entries = {}
        for first, last, q in runs:
            entries.update(dict.fromkeys(values(first, last),
                                         _ONE if q == 1 else Fraction(1, q)))
        return ProbVector._canonical(entries)

    def _lower(self) -> "RepeatedAverages":
        """The order below a successor order, held once found."""
        if self._child is None:
            self._child = _averages(self.pred, self._M, self.fs)
        return self._child

    # The recursions below descend one level per successor step, and at a
    # limit order the number of steps is a stream value, so they are
    # generators run by :func:`_unwound`: each yields the lower-order call
    # it needs and is sent that call's result.

    def _runs(self, j: int) -> Generator:
        """Vector j as runs; its boundaries must already be grown."""
        if self.kind == "zero":
            return ((j, j, 1),)
        runs = self._run_cache.get(j)
        if runs is not None:
            return runs
        if self.kind == "successor":
            child = self._lower()
            first, last = self._sub_counts[j - 1] + 1, self._sub_counts[j]
            if child.kind == "zero":
                parts = [(first, last, 1)]   # unit vectors, one run
            else:
                parts = []
                for k in range(first, last + 1):
                    parts.extend((yield child._runs(k)))
            share = last - first + 1
            runs = tuple((a, b, q * share) for a, b, q in parts)
        else:
            done = self._consumed[j - 1]
            runs = tuple((a + done, b + done, q)
                         for a, b, q in (yield self._approx[j]._runs(1)))
        self._run_cache[j] = runs
        return runs

    # -- integer block boundaries ------------------------------------------

    def _covered(self, n: int, meter: WorkMeter) -> Generator:
        """Stream entries covered by vectors 1..n, growing under the cap
        ``meter.limit``; ``meter`` counts the orders entered for their
        first vector."""
        if self.kind == "zero":
            return n
        cap = meter.limit
        while len(self._consumed) <= n:
            done = self._consumed[-1]
            head = self._M.element(done + 1)
            # The next vector averages `head` vectors of the order below, or
            # at a limit order it is the first vector of a chain of `head`
            # successor levels over a stream starting at `head`: either way
            # it covers at least `head` entries, so refuse before iterating
            # a huge block.
            _refuse_past(done + head, cap)
            if not done:
                meter.spend(1)   # entered for its first vector
            if self.kind == "successor":
                child = self._lower()
                # Child vectors 1..k cover what vectors 1..j-1 cover: `done`.
                k = self._sub_counts[-1] + head
                end = k if child.kind == "zero" else (yield child._covered(k, meter))
                _refuse_past(end, cap)
                self._consumed.append(end)
                self._sub_counts.append(k)
            else:
                tail = self._M.drop(done)
                order = self.fs(self.xi, head)
                # The first vectors of the orders met on the way down from
                # `order` all start at `head`, so that descent can pass a
                # number of orders exponential in the exponents of `order`
                # before it covers one entry.  Under the default rule with
                # head >= 2, it passes w+1 if it starts above: a successor
                # step lands on its predecessor, and a limit rho + w^(a+1)
                # above w+1 steps to rho + head >= w+2 or to
                # rho + w^a*head + 1 >= w*2+1.  The orders above w+1 only
                # compare `head` with the cap, so the first vector of w+1
                # on `tail` is the first real work of the descent; finding
                # it first makes a descent that refuses there refuse at
                # once, with the same error.
                if (head > 1 and self.fs is default_fundamental_seq
                        and _OMEGA_PLUS_ONE < order):
                    floor = _averages(_OMEGA_PLUS_ONE, tail, self.fs)
                    if len(floor._consumed) == 1:
                        yield floor._covered(1, meter)
                approx = _averages(order, tail, self.fs)
                total = done + (yield approx._covered(1, meter))
                _refuse_past(total, cap)
                self._consumed.append(total)
                self._approx.append(approx)
        return self._consumed[n]

    def _checked_covered(self, n: int, cap: int) -> int:
        """``_covered(n)``, refused with its exact value when above ``cap``.

        Boundaries may have been found under a wider cap than the
        caller's, so the exact total is compared against ``cap`` here too.
        """
        total = _unwound(self._covered(n, _descent_meter(cap)))
        if total > cap:
            raise BudgetExceededError("repeated-average support entries", cap,
                                      needed=total)
        return total


_OMEGA_PLUS_ONE = OMEGA.successor()

# Shared by every unit weight and every zero reweighting, as Fractions are
# immutable.
_ONE, _ZERO = Fraction(1), Fraction(0)


def _descent_meter(cap: int) -> WorkMeter:
    return WorkMeter("repeated-average orders visited", cap)


def _refuse_past(total: int, cap: int) -> None:
    if total > cap:
        raise BudgetExceededError("repeated-average support entries", cap,
                                  needed=total, needed_is_lower_bound=True)


# The most recently used (order, stream, rule) averages, oldest first.  A
# descent under a rule other than the default one enters a new order at
# every step, so the cache is bounded; an evicted order stays reachable
# from the orders built on it, so their boundaries and runs stay valid.
_AVERAGES_CACHE: dict = {}
_AVERAGES_CACHE_SIZE = 64


def _averages(xi: Ordinal, M: IndexStream, fs: FundamentalRule) -> RepeatedAverages:
    key = (xi, M, fs)
    found = _AVERAGES_CACHE.pop(key, None)
    if found is None:
        found = RepeatedAverages(xi, M, fs)
        if len(_AVERAGES_CACHE) >= _AVERAGES_CACHE_SIZE:
            del _AVERAGES_CACHE[next(iter(_AVERAGES_CACHE))]
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
    return (averages._checked_covered(n, cap)
            - _unwound(averages._covered(n - 1, _descent_meter(cap))))


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


def apply(method: RepeatedAverages, xs: SeqSpec, n: int, *,
          budget: Budget | None = None) -> RatVec:
    """The image of a vector sequence under the n-th averaging vector.

    ``xs`` is a :class:`~schreier_lab.vectors.SeqSpec`, read through its
    1-indexed ``element`` only, so its ambient may be None; the result is
    ``sum_k a_k x_k`` over the averaging support.
    """
    weights = method.vector(n, budget=budget)
    return RatVec.combination((weight, xs.element(index))
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
    upper = _averages(xi.successor(), M, fs)
    z = [upper.vector(n, budget=budget) for n in range(1, count + 1)]
    # Base vectors 1..used tile what z_1..z_count cover, so once those
    # passed, one sizing of the base order cannot refuse, and each vector
    # is expanded without a budget of its own.
    used = upper._sub_counts[count]
    base = upper._lower()
    base._checked_covered(used, budget.work)
    return z, [base._expanded(j) for j in range(1, used + 1)]


def validate_prefix(vectors: Sequence[RatVec], stream: IndexStream) -> None:
    """Check that the supports of ``vectors`` strictly increase and tile a
    prefix of ``stream``, as the averages along it do."""
    covered: list[int] = []
    previous_max = 0
    for j, vec in enumerate(vectors, 1):
        supp = vec.support()
        if not supp:
            raise ValueError(f"vector {j} is zero")
        if supp[0] <= previous_max:
            raise ValueError(f"support of vector {j} does not start after "
                             f"vector {j - 1}")
        previous_max = supp[-1]
        covered.extend(supp)
    if tuple(covered) != stream.prefix(len(covered)):
        raise ValueError("supports do not tile a prefix of the stream")


def cesaro_mean(vectors: Sequence[RatVec], n: int) -> RatVec:
    """The mean of the first n vectors, exactly."""
    if not 1 <= n <= len(vectors):
        raise ValueError(f"need {n} vectors, have {len(vectors)}")
    return RatVec.combination((Fraction(1, n), vec) for vec in vectors[:n])


# -- non-increasing block convex combinations -------------------------------------


class AmbiguousReconstructionError(RuntimeError):
    """The combination weights are not uniquely determined by the data."""


class NibccWitness(Record):
    """Certificate that ``z`` is a non-increasing block convex combination of ``y``.

    ``breakpoints`` is ``(k_1, ..., k_{p+1})`` with ``k_1 = 0``, and
    ``weights[j-1]`` is the weight of ``y_j``; weights are positive,
    non-increasing, and sum to 1 over each block ``k_n+1 .. k_{n+1}``.
    """

    __slots__ = ("breakpoints", "weights")

    def __init__(self, breakpoints: tuple[int, ...],
                 weights: tuple[Fraction, ...]):
        bp = breakpoints
        if not bp or bp[0] != 0:
            raise ValueError("breakpoints must start at 0")
        if any(b >= c for b, c in zip(bp, bp[1:])):
            raise ValueError("breakpoints must strictly increase")
        if len(weights) != bp[-1]:
            raise ValueError("need one weight per combined vector")
        # On numerators and denominators: denominators are positive.
        nums = [w.numerator for w in weights]
        dens = [w.denominator for w in weights]
        if any(p <= 0 for p in nums):
            raise ValueError("weights must be positive")
        if any(p * e < r * d for p, d, r, e
               in zip(nums, dens, nums[1:], dens[1:])):
            raise ValueError("weights must be non-increasing")
        for lo, hi in zip(bp, bp[1:]):
            L = math.lcm(*dens[lo:hi])
            if sum(p * (L // d) for p, d in zip(nums[lo:hi], dens[lo:hi])) != L:
                raise ValueError("each block of weights must sum to 1")
        Record.__init__(self, breakpoints, weights)

    @property
    def blocks(self) -> int:
        return len(self.breakpoints) - 1


def _match_block_weights(target: RatVec, y: Sequence[RatVec], start: int):
    """Weights of a block by coordinate matching on disjoint supports.

    Returns ``(weights, next_start)`` or None.  Assumes the y supports are
    pairwise disjoint, which makes the reconstruction unique.  It runs on
    the :meth:`RatVec.scaled` rows ``(support, numerators, D)`` of the
    target and of each ``y_j``: ``y_j`` matches with the weight
    ``alpha = t_lead * d / (D * v_lead)`` at its least index ``lead``
    exactly when ``t_i * v_lead == t_lead * v_i`` on its support, so a
    weight becomes a fraction only when it is handed out, and the block
    sum is kept on integers.
    """
    support, nums, D = target.scaled()
    remaining = dict(zip(support, nums))
    pop = remaining.pop
    weights: list[Fraction] = []
    # The weights so far sum to acc / (D * den).
    acc, den = 0, 1
    made = weight = None
    j, count = start, len(y)
    while j < count:
        row = y[j]
        if len(row) == 1:      # a unit vector, say: its entry is its lead
            (lead, v), = row.items()
            t_lead, v_lead, d = pop(lead, 0), v.numerator, v.denominator
        elif row.is_zero:
            return None
        else:
            row_support, row_nums, d = row.scaled()
            t_lead, v_lead = remaining.get(row_support[0], 0), row_nums[0]
            for i, v in zip(row_support, row_nums):
                t = pop(i, None)
                if t is None or t * v_lead != t_lead * v:
                    return None
        if v_lead < 0:
            t_lead, v_lead = -t_lead, -v_lead
        if t_lead <= 0:
            return None
        key = (t_lead * d, D * v_lead)
        if key != made:     # equal weights come in stretches
            made, weight = key, Fraction(*key)
        weights.append(weight)
        if v_lead == den:
            acc += t_lead * d
        else:
            common = math.lcm(den, v_lead)
            acc = acc * (common // den) + t_lead * d * (common // v_lead)
            den = common
        j += 1
        if acc == D * den:
            return (weights, j) if not remaining else None
        if acc > D * den:
            return None
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


def check_nibcc(z: Sequence[RatVec], y: Sequence[RatVec], *,
                budget: Budget | None = None) -> NibccWitness | None:
    """Search for a non-increasing block convex combination witness.

    When the ``y`` supports are pairwise disjoint the weights are forced by
    coordinate matching, cross-multiplied on the integer
    :meth:`RatVec.scaled` rows of the vectors given; the checker reads
    nothing else, so it stays independent of how the vectors were made.
    Otherwise each candidate block is solved exactly, and an
    underdetermined block raises
    :class:`AmbiguousReconstructionError` rather than guessing.  The
    overlapping search backtracks from an explicit stack, one level per
    ``z`` vector, and each block solve is one unit of ``budget.work``.
    """
    z = list(z)
    y = list(y)
    # The weights are forced when the supports are nonempty and pairwise
    # disjoint: each one misses the union of the ones before it.
    covered: set[int] = set()
    separated = True
    for vec in y:
        support = vec.support()
        if not support or not covered.isdisjoint(support):
            separated = False
            break
        covered.update(support)

    if separated:
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

    meter = WorkMeter("nibcc block solves", get_budget(budget).work)
    # The blocks placed so far, one (end, weights) per z vector, searched
    # depth first with the shortest block tried first.
    chosen: list[tuple[int, list[Fraction]]] = []
    next_end = 1
    while len(chosen) < len(z):
        start = chosen[-1][0] if chosen else 0
        for end in range(next_end, len(y) + 1):
            meter.spend()
            solved = _solve_exact(y[start:end], z[len(chosen)])
            if solved == "ambiguous":
                raise AmbiguousReconstructionError(
                    "combination weights are underdetermined; the given "
                    "vectors are not support-separated")
            if (solved is not None and all(a > 0 for a in solved)
                    and sum(solved) == 1):
                chosen.append((end, solved))
                next_end = end + 1
                break
        else:
            if not chosen:
                return None
            next_end = chosen.pop()[0] + 1
    try:
        return NibccWitness((0,) + tuple(end for end, _ in chosen),
                            tuple(w for _, block in chosen for w in block))
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
    nums = [a.numerator for a in witness.weights[:K]]
    dens = [a.denominator for a in witness.weights[:K]]
    beta = {}
    for j in range(1, K):
        drop = nums[j - 1] * dens[j] - nums[j] * dens[j - 1]
        # Equal neighbours (the long stretches of a block) share one zero.
        beta[j] = Fraction(drop * j, dens[j - 1] * dens[j]) if drop else _ZERO
    beta[K] = Fraction(nums[K - 1] * K, dens[K - 1])
    return beta
