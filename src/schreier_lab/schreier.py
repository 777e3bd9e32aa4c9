"""Transfinite Schreier families: membership, enumeration, traces, and images.

The family of order 0 consists of the singletons and the empty set.  The
family of order ``x+1`` collects unions ``F_1 < F_2 < ... < F_n`` of members
of order ``x`` with ``n <= min F_1``, and at a limit order the family
collects the sets that belong to the n-th member of a fundamental sequence
for some ``n <= min F``.  Every family is hereditary (closed under subsets)
and spreading (closed under moving elements to the right), which the fast
membership test exploits and the exhaustive oracle deliberately does not.
A set is a :class:`FinSet`, a validated tuple of its increasing elements.

Membership is decided left to right by an automaton compiled once per order
and rule.  At a successor order a set is cut greedily into the longest
initial pieces that belong to the order below; by heredity appending an
element never changes the earlier pieces, only the last one can grow.  So
the state of a set is its minimum and piece count at each level, from the
top order down to order 0, and appending ``k`` lets the deepest level that
still has a free piece (piece count below its minimum) open a new piece
``{k}``: the levels above it keep their state and the levels below start
afresh from ``k``.  A limit order has no state of its own: the minimum of
the set fixes the approximating orders.  Under the default rule the families
are nested in ``n``, so the order ``fs(xi, min F)`` alone decides, and the
levels it descends through are handed out from the bottom up only as pieces
open there; an injected rule keeps one alternative state per ``n <= min F``,
and a set belongs when some alternative survives.  Levels that start afresh
together share a minimum and one piece each, so a run of them is stored as
one frame and the state of order 3000 is a single frame.  Nothing recurses
in the interpreter: the alternatives of an injected rule are built and
stepped from explicit stacks, and the greedy and exhaustive membership of
the oracles run their lower orders as nested calls on an explicit stack.

The alternatives share their sub-stacks, and each automaton interns its
branches (hash-consing), so equal branches are one object and states hash
and compare by value in time linear in their top-level frames.  The norm
searches of ``spaces`` step an automaton far more often than they meet new
moves, so each automaton keeps a transition table for them, ``moves``, which
stops growing at ``_MOVES_BOUND`` entries.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Generator, Iterable, Iterator

from .budget import (Budget, BudgetExceededError, WorkMeter, _unwound,
                     get_budget)
from .ordinal import (FundamentalRule, Ordinal, _ClosedTuple, classify,
                      default_fundamental_seq)

if TYPE_CHECKING:
    from .streams import IndexStream

__all__ = [
    "FinSet",
    "is_member",
    "is_member_oracle",
    "enumerate_family",
    "count_family",
    "is_member_image",
    "trace_member",
    "threshold",
]


class FinSet(_ClosedTuple):
    """A finite set of positive integers: a validated tuple of its increasing
    elements, like the automaton's states.  Comparisons mean inclusion, as
    for ``frozenset``, and ``+`` and ``*`` are refused."""

    __slots__ = ()

    def __new__(cls, elements: Iterable[int] = ()):
        elements = tuple(int(v) for v in elements)
        for a, b in zip(elements, elements[1:]):
            if b <= a:
                raise ValueError("elements must be strictly increasing")
        if elements and elements[0] < 1:
            raise ValueError("elements must be positive")
        return super().__new__(cls, elements)

    @classmethod
    def of(cls, *values: int) -> "FinSet":
        return cls(sorted(set(values)))

    @classmethod
    def parse(cls, text: str) -> "FinSet":
        """Parse comma-separated ascending integers; '' is the empty set."""
        text = text.strip()
        if not text:
            return cls()
        try:
            values = [int(p) for p in text.split(",")]
        except ValueError:
            raise ValueError(f"bad finite set literal {text!r}") from None
        return cls(values)

    def min(self) -> int:
        if not self:
            raise ValueError("empty set has no minimum")
        return self[0]

    def max(self) -> int:
        if not self:
            raise ValueError("empty set has no maximum")
        return self[-1]

    def __lt__(self, other):
        return set(self) < set(other)

    def __le__(self, other):
        return set(self) <= set(other)

    def __gt__(self, other):
        return set(self) > set(other)

    def __ge__(self, other):
        return set(self) >= set(other)

    def __str__(self):
        return ",".join(map(str, self))

    def __repr__(self):
        return f"FinSet({self})"


# -- the membership automaton --------------------------------------------------


class _Node:
    """One order of a compiled automaton, with the stacks of its singletons.

    ``chains[k]`` is the stack of ``{k}`` at this order.  A stack lists,
    from the top level down, frames and at most one region and one branch:

    - A frame ``(base, lo, hi, low, pieces)`` stands for the successor
      levels ``base+lo+1 .. base+hi`` above the zero or limit order
      ``base``.  They hold one set with minimum ``low``, cut into
      ``pieces`` pieces at the bottom level and one piece at every level
      above it.  Only the free pieces ``low - pieces`` of a one-level frame
      matter from then on, so it is stored as ``(low - pieces + 1, 1)``,
      and sets with the same future share one state.
    - A :class:`_Region` stands for levels not yet touched below a nested
      limit.
    - A :class:`_Branch` ends a stack below a limit whose approximating
      families need not be nested.
    """

    __slots__ = ("xi", "kind", "base", "count", "nested", "chains")

    def __init__(self, xi: Ordinal, kind: str, base: "_Node | None",
                 count: int, nested: bool):
        self.xi, self.kind, self.base = xi, kind, base
        self.count, self.nested = count, nested
        self.chains: dict[int, tuple] = {}


class _Region(tuple):
    """``(limit, low, floor)``: the levels of ``{low}`` below ``limit`` that
    lie above the zero or limit order ``floor``, each still one piece.

    Under the default rule, ``{low}`` descends from ``limit`` through
    ``fs(., low)`` at every limit until order 0, which at ``w^e`` passes
    about ``low^(e-1)`` limits.  A set only ever opens pieces at its lowest
    levels, so the region hands out its frames from the bottom up, one
    limit at a time, and the levels above stay a single item.
    """

    __slots__ = ()


class _Branch(tuple):
    """The live stacks of one set at the approximating orders ``n <= min``.

    Interned by :meth:`_Automaton._branch`, so it compares and hashes by
    identity."""

    __slots__ = ()
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


# The state of a singleton at order 0: one frame with no free piece.
_SINGLETON = ((None, 0, 0, 1, 1),)

# The entries at which an automaton's transition table stops growing.  It
# holds the 3,138 moves of the refused `schreier:2` search on 1,500 unit
# coordinates; a full table kept 0.39 MB (`baernstein:1`) to 1.06 MB
# (`baernstein:w`) on those coordinates under tracemalloc.
_MOVES_BOUND = 4096


def _plus_omega_power(terms: tuple, exponent: int) -> Ordinal:
    """The ordinal with Cantor normal form ``terms``, plus ``w^exponent``.

    The last exponent of ``terms`` must not be smaller than ``exponent``.
    """
    if terms and terms[-1][0] == exponent:
        return Ordinal((*terms[:-1], (exponent, terms[-1][1] + 1)))
    return Ordinal((*terms, (exponent, 1)))


class _Automaton:
    """Membership in the order-``xi`` family, one appended element at a time.

    A state is a stack (see :class:`_Node`), ``()`` stands for the empty set,
    and ``None`` for a set that left the family.  States hash and compare by
    value, since ``_branches`` interns every branch.
    """

    __slots__ = ("_rule", "_nodes", "_root", "_zero", "_branches", "moves",
                 "_states")

    def __init__(self, xi: Ordinal, rule: FundamentalRule):
        self._rule = rule
        self._nodes: dict[Ordinal, _Node] = {}
        self._branches: dict[tuple, _Branch] = {}
        # (id(state), k) -> step(state, k) for the norm searches; see keep.
        self.moves: dict[tuple[int, int], tuple | None] = {}
        self._states: dict[tuple, tuple] = {}
        self._zero = self._node(Ordinal())
        self._root = self._node(xi)

    def _node(self, xi: Ordinal) -> _Node:
        node = self._nodes.get(xi)
        if node is not None:
            return node
        kind, _ = classify(xi)
        base, count, nested = None, 0, False
        if kind == "successor":
            # The finite tail of xi: xi = base + count with base zero or a limit.
            base, count = self._node(Ordinal(xi[:-1])), xi[-1][1]
        elif kind == "limit":
            # The default rule's approximating families grow with n, so the
            # largest allowed n decides alone.
            nested = self._rule is default_fundamental_seq
        node = self._nodes[xi] = _Node(xi, kind, base, count, nested)
        return node

    def _branch(self, alternatives: Iterable[tuple]) -> _Branch:
        """The one branch of the distinct ``alternatives``, in their order;
        the key compares stacks structurally and nested branches by identity."""
        key = tuple(dict.fromkeys(alternatives))
        branch = self._branches.get(key)
        if branch is None:
            branch = self._branches[key] = _Branch(key)
        return branch

    def _chains(self, node: _Node, k: int) -> tuple:
        """The stack of ``{k}`` at ``node``; the stacks a branch needs go on
        an explicit stack of pending orders."""
        pending = [node]
        while pending:
            top = pending[-1]
            if k in top.chains:
                pending.pop()
                continue
            frames = []
            below = top
            while below.kind == "successor":
                frames.append((below.base, 0, below.count, k, 1))
                below = below.base
            if below.nested:
                frames.append(_Region((below, k, self._zero)))
            elif below.kind == "limit":
                targets = [self._node(self._rule(below.xi, n))
                           for n in range(1, k + 1)]
                missing = [n for n in targets if k not in n.chains]
                if missing:
                    pending.extend(missing)
                    continue
                frames.append(self._branch(n.chains[k] for n in targets))
            top.chains[k] = tuple(frames)
            pending.pop()
        return node.chains[k]

    def _above(self, region: _Region) -> tuple[int, _Node | None]:
        """The number of levels just above the region's floor, and the
        limit they end below (None when that is the region's own limit).

        The limits passed are the floors ``a`` with ``fs(b, low) = a + c``
        for the next one ``b``.  That is ``b = a + w`` (then ``c = low``),
        or, when ``a = r + w^e*low``, ``b = r + w^(e+1)`` (then ``c = 1``);
        the descent takes the second whenever it does not pass the limit.
        """
        limit, low, floor = region
        terms = floor.xi
        if terms and terms[-1][1] == low:
            carried = _plus_omega_power(terms[:-1], terms[-1][0] + 1)
            if not limit.xi < carried:
                return 1, None if carried == limit.xi else self._node(carried)
        plus_w = _plus_omega_power(terms, 1)
        return low, None if plus_w == limit.xi else self._node(plus_w)

    def start(self, k: int) -> tuple:
        """The state of ``{k}``."""
        stack = self._root.chains.get(k)
        if stack is None:
            stack = self._chains(self._root, k)
        return stack or _SINGLETON

    def step(self, state: tuple, k: int) -> tuple | None:
        """The state after appending ``k`` (above every element), or None."""
        if not state:
            return self.start(k)
        if type(state[-1]) is _Branch:
            return _unwound(self._branched(state, k, {}))
        return self._opened(state, k)

    def keep(self, state: tuple, k: int, after: tuple | None) -> tuple | None:
        """Store ``after = step(state, k)`` in ``moves`` and return it interned.

        ``moves`` keys ``state`` by identity, so it must be ``()`` or a state
        this method returned, which lives as long as the automaton.  Callers
        stop storing once ``moves`` holds ``_MOVES_BOUND`` entries; the states
        they meet after that are not interned, so they miss.
        """
        if after is not None:
            after = self._states.setdefault(after, after)
        self.moves[id(state), k] = after
        return after

    def _opened(self, stack: tuple, k: int) -> tuple | None:
        """Open a piece ``{k}`` at the deepest level with a free one."""
        i = len(stack)
        while i:
            i -= 1
            item = stack[i]
            if type(item) is _Region:
                if item[1] == 1:
                    continue   # one piece per level and a minimum of 1
                # Hand out the region's lowest frame; the rest stays above.
                limit, low, floor = item
                count, ceiling = self._above(item)
                item = (floor, 0, count, low, 1)
                stack = stack[:i] + (
                    (_Region((limit, low, ceiling)), item) if ceiling else (item,))
                i = len(stack) - 1
            base, lo, hi, low, pieces = item
            if pieces < low:
                # The bottom level opens a piece; the levels below restart.
                opened = ((base, lo, hi, low, pieces + 1) if hi - lo > 1
                          else (base, lo, hi, low - pieces, 1))
                cut = lo
            elif low > 1 and hi - lo > 1:
                # The level above the bottom still has one piece only.
                opened = ((base, lo + 1, hi, low, 2) if hi - lo > 2
                          else (base, lo + 1, hi, low - 1, 1))
                cut = lo + 1
            else:
                continue
            head = stack[:i] + (opened,)
            if cut:
                head += ((base, 0, cut, k, 1),)
            tail = base.chains.get(k)
            if tail is None:
                tail = self._chains(base, k)
            return head + tail
        return None

    def _branched(self, stack: tuple, k: int, done: dict) -> Generator:
        """:meth:`step` with the branch alternatives as nested calls.

        A stack shared by several alternatives is stepped once (``done``
        maps its id to its successor), which keeps a state's size linear in
        the orders it passes through.
        """
        if not stack or type(stack[-1]) is not _Branch:
            return self._opened(stack, k)
        alive = []
        for alternative in stack[-1]:
            key = id(alternative)
            if key not in done:
                done[key] = yield self._branched(alternative, k, done)
            if done[key] is not None:
                alive.append(done[key])
        if alive:
            return stack[:-1] + (self._branch(alive),)
        return self._opened(stack[:-1], k)

    def accepts(self, elements: Iterable[int]) -> bool:
        """Whether the increasing ``elements`` form a member."""
        state = ()
        for k in elements:
            state = self.step(state, k)
            if state is None:
                return False
        return True


@lru_cache(maxsize=64)
def _automaton(xi: Ordinal, rule: FundamentalRule) -> _Automaton:
    return _Automaton(xi, rule)


def is_member(xi: Ordinal, F: FinSet, *,
              fs: FundamentalRule = default_fundamental_seq) -> bool:
    """Decide membership of ``F`` in the family of order ``xi``.

    Runs the compiled automaton over ``F`` from left to right; its agreement
    with the exhaustive search is part of the test suite.

    >>> is_member(Ordinal.from_int(1), FinSet.of(2, 3))
    True
    """
    return _automaton(xi, fs).accepts(F)


# -- greedy membership for the norm oracles --------------------------------------


def _member(xi: Ordinal, elements: tuple[int, ...], rule: FundamentalRule,
            memo: dict | None = None) -> bool:
    """Membership by greedy cuts over slices, sharing no code with the automaton.

    Only the exhaustive norm oracles use it, so that they cross-check the
    searches with an independent membership test.  The cuts at lower orders
    are nested calls unwound from an explicit stack, so an order thousands
    of levels deep needs no interpreter recursion.  ``memo`` keeps the
    answers at every order visited; probes under one ``rule`` may share it,
    and without it they are kept for one probe only.
    """
    return _unwound(_greedy(xi, elements, rule, {} if memo is None else memo))


def _greedy(xi: Ordinal, elements: tuple[int, ...], rule: FundamentalRule,
            memo: dict) -> Generator:
    """:func:`_member` with its calls at lower orders as nested calls, and
    their answers in ``memo``."""
    key = (xi, elements)
    if key in memo:
        return memo[key]
    kind, pred = classify(xi)
    if not elements:
        found = True
    elif kind == "zero":
        found = len(elements) <= 1
    elif kind == "successor":
        # Greedily strip the longest initial segment belonging to the
        # predecessor family.  Heredity makes prefix membership downward
        # closed in length, so the longest good prefix minimizes the piece
        # count and binary search locates it.
        pieces = 0
        rest = elements
        found = True
        while rest and found:
            lo, hi = 1, len(rest)
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if (yield _greedy(pred, rest[:mid], rule, memo)):
                    lo = mid
                else:
                    hi = mid - 1
            rest = rest[lo:]
            pieces += 1
            found = pieces <= elements[0]
    else:
        # Limit order: member of the n-th approximating family for some n <= min.
        found = False
        for n in range(1, elements[0] + 1):
            if (yield _greedy(rule(xi, n), elements, rule, memo)):
                found = True
                break
    memo[key] = found
    return found


# -- exhaustive oracle ---------------------------------------------------------


def is_member_oracle(xi: Ordinal, F: FinSet, *,
                     fs: FundamentalRule = default_fundamental_seq,
                     budget: Budget | None = None) -> bool:
    """Membership by exhaustive decomposition search, with no greedy shortcut.

    Exponential in ``len(F)``; intended as the ground truth that validates
    :func:`is_member` on small sets.  Lower orders are nested calls unwound
    from an explicit stack, like :func:`_member`, but nothing else is
    shared with it or with the automaton.
    """
    budget = get_budget(budget)
    if len(F) > budget.oracle_support:
        raise BudgetExceededError("oracle set size", budget.oracle_support, len(F))

    memo: dict[tuple, bool] = {}

    def member(o: Ordinal, elements: tuple[int, ...]) -> Generator:
        key = (o, elements)
        if key in memo:
            return memo[key]
        kind, pred = classify(o)
        found = False
        if not elements:
            found = True
        elif kind == "zero":
            found = len(elements) <= 1
        elif kind == "successor":
            for n in range(1, min(elements[0], len(elements)) + 1):
                if (yield any_split(elements, n, pred)):
                    found = True
                    break
        else:
            for n in range(1, elements[0] + 1):
                if (yield member(fs(o, n), elements)):
                    found = True
                    break
        memo[key] = found
        return found

    def any_split(elements: tuple[int, ...], n: int, pred: Ordinal) -> Generator:
        # All ways to cut `elements` into n non-empty consecutive blocks.
        if n == 1:
            return (yield member(pred, elements))
        for first in range(1, len(elements) - n + 2):
            if ((yield member(pred, elements[:first]))
                    and (yield any_split(elements[first:], n - 1, pred))):
                return True
        return False

    return _unwound(member(xi, F))


# -- enumeration and counting --------------------------------------------------


def enumerate_family(xi: Ordinal, max_value: int, *,
                     fs: FundamentalRule = default_fundamental_seq,
                     budget: Budget | None = None) -> Iterator[FinSet]:
    """Yield every member contained in ``{1..max_value}`` in lexicographic order.

    Heredity lets the walk extend only members, and each extension costs one
    automaton step from the state of the member it extends.

    >>> [str(F) for F in enumerate_family(Ordinal.from_int(1), 3)]
    ['', '1', '2', '2,3', '3']
    """
    if max_value < 0:
        raise ValueError(f"horizon must be at least 0, got {max_value}")
    budget = get_budget(budget)
    meter = WorkMeter("family enumeration", budget.work)
    step = _automaton(xi, fs).step
    meter.spend()
    yield FinSet()
    # A member, its state, and the next value to append; the top of the
    # stack is extended first, which gives the lexicographic order.
    pending = [((), (), 1)] if max_value >= 1 else []
    while pending:
        prefix, state, k = pending.pop()
        after = step(state, k)
        if after is None:
            # Whether a value can be appended does not depend on the value,
            # so no larger one extends this member either.
            continue
        if k < max_value:
            pending.append((prefix, state, k + 1))
        meter.spend()
        member = prefix + (k,)
        # Built increasing from positive integers, so not validated again.
        yield tuple.__new__(FinSet, member)
        if k < max_value:
            pending.append((member, after, k + 1))


def count_family(xi: Ordinal, max_value: int, *,
                 fs: FundamentalRule = default_fundamental_seq,
                 budget: Budget | None = None) -> int:
    """The number of members inside ``{1..max_value}``, the empty set included.

    This is the number of sets :func:`enumerate_family` yields, found by
    counting the members per automaton state as each value is appended, so
    the cost follows the number of distinct states rather than of sets.
    Each state that takes a value is one unit of work.  Each such state and
    value give distinct members, so the units never exceed the nonempty
    members, and the automaton steps never exceed twice the units plus one.

    >>> count_family(Ordinal.from_int(1), 15)
    1597
    """
    if max_value < 0:
        raise ValueError(f"horizon must be at least 0, got {max_value}")
    budget = get_budget(budget)
    meter = WorkMeter("family count steps", budget.work)
    step = _automaton(xi, fs).step
    final = 0
    live = {(): 1}   # state -> members with that state, all below k
    for k in range(1, max_value + 1):
        grown: dict[tuple, int] = {}
        taken = 0
        for state, count in live.items():
            after = step(state, k)
            if after is None:
                # Whether a value can be appended does not depend on the
                # value, so these members take no larger one either.
                final += count
                continue
            taken += 1
            grown[state] = grown.get(state, 0) + count
            grown[after] = grown.get(after, 0) + count
        meter.spend(taken)
        live = grown
    return final + sum(live.values())


def _family(xi: Ordinal, max_value: int, *,
            fs: FundamentalRule = default_fundamental_seq,
            budget: Budget | None = None) -> Iterator[FinSet]:
    """The walk of :func:`enumerate_family`, counted first.

    For callers that need the whole family: a family the walk would refuse
    fails here, in the time of a count, not after ``budget.work`` sets.  A
    refused count and an over-large one both refuse with the text of the
    enumeration meter (``needs >= limit + 1``).  The walk stays lazy, so a
    caller that needs one pass holds no list.
    """
    budget = get_budget(budget)
    try:
        fits = count_family(xi, max_value, fs=fs, budget=budget) <= budget.work
    except BudgetExceededError:
        fits = False
    if not fits:
        raise BudgetExceededError("family enumeration", budget.work,
                                  needed=budget.work + 1,
                                  needed_is_lower_bound=True)
    return enumerate_family(xi, max_value, fs=fs, budget=budget)


# -- traces and images -----------------------------------------------------------


def is_member_image(xi: Ordinal, M: IndexStream, F: FinSet, *,
                    fs: FundamentalRule = default_fundamental_seq) -> bool:
    """Membership in the image family: F = (m_i) for i in some member.

    The image family is the pointwise push-forward of the order-``xi``
    family along ``M`` and is in general strictly smaller than the trace.
    """
    positions = []
    for value in F:
        pos = M.index_of(value)
        if pos is None:
            return False
        positions.append(pos)
    return _automaton(xi, fs).accepts(positions)


def trace_member(xi: Ordinal, M: IndexStream, F: FinSet, *,
                 fs: FundamentalRule = default_fundamental_seq) -> bool:
    """Membership in the trace family: members of order ``xi`` inside ``M``.

    For hereditary families the trace on ``M`` is exactly the members that
    are subsets of ``M``.
    """
    if not all(value in M for value in F):
        return False
    return _automaton(xi, fs).accepts(F)


# -- threshold --------------------------------------------------------------------


def threshold(zeta: Ordinal, xi: Ordinal, max_value: int, *,
              fs: FundamentalRule = default_fundamental_seq,
              budget: Budget | None = None) -> int:
    """Smallest n such that every order-``zeta`` member of {1..max_value}
    with min >= n belongs to the order-``xi`` family.

    The answer is at most ``max(max_value, 1)``: the one member with least
    element ``max_value`` is a singleton, and singletons are in every family.
    """
    target = _automaton(xi, fs)
    return max((F[0] for F in _family(zeta, max_value, fs=fs, budget=budget)
                if F and not target.accepts(F)), default=0) + 1
