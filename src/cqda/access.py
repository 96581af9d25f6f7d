"""Counting tables and polylog direct access on ordered circuits.

The preprocessing fills, bottom-up, the tuple count of every gate and
the running prefix counts along each decision gate's sorted edges.  A
direct access then makes one descent over the circuit's universe
(significance order, most significant variable first), answering one
counting query per variable.  The descent keeps one slot per level: the
decision gate that tests it below the bound prefix, or none.  Crossing
a gate fills the slots below from the chosen child's sinks, its
decision gates once products dissolve.  ``frontier`` runs the same
descent by value, and ``walk`` streams a window of consecutive tuples
from one descent, advancing its levels like an odometer, so a step
re-descends only the levels it changes.  All counts are exact Python
integers, so nothing overflows even when they exceed machine words.
``Provider`` is the contract every engine meets: the one place its
arguments are checked.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Collection, Iterator, Mapping
from dataclasses import dataclass
from functools import partial

from .circuit import BotGate, Circuit, DecisionGate, ProductGate, TopGate
from .errors import ArgumentError, NotAPrefixError, OutOfRangeError
from .relations import Assignment, Domain, VarOrder, lex_compare


@dataclass
class AccessIndex:
    """Per-gate counts and variable masks; immutable once built."""

    rel_count: dict[int, int]
    var_mask: dict[int, int]
    prefix_counts: dict[int, list[int]]      # decision gate -> running counts per edge


def preprocess(c: Circuit) -> AccessIndex:
    """Fill the counting tables bottom-up in topological order."""
    dsize = len(c.domain)
    pos = {v: i for i, v in enumerate(c.universe.vars)}
    rel_count: dict[int, int] = {}
    var_mask: dict[int, int] = {}
    prefix_counts: dict[int, list[int]] = {}

    for gid in c.reachable():
        g = c.gates[gid]
        if isinstance(g, BotGate):
            rel_count[gid], var_mask[gid] = 0, 0
        elif isinstance(g, TopGate):
            rel_count[gid], var_mask[gid] = 1, 0
        elif isinstance(g, ProductGate):
            total, mask = 1, 0
            for child in g.children:
                total *= rel_count[child]
                mask |= var_mask[child]
            rel_count[gid], var_mask[gid] = total, mask
        else:
            mask = 1 << pos[g.var]
            for _, child in g.edges:
                mask |= var_mask[child]
            own = mask.bit_count()
            running = 0
            counts: list[int] = []
            for _, child in g.edges:
                # pad each branch with the variables it does not mention
                gap = own - 1 - var_mask[child].bit_count()
                running += rel_count[child] * dsize**gap
                counts.append(running)
            rel_count[gid], var_mask[gid] = running, mask
            prefix_counts[gid] = counts
    return AccessIndex(rel_count, var_mask, prefix_counts)


def count(c: Circuit, idx: AccessIndex) -> int:
    """Number of tuples of the circuit's relation over the full universe; ``Provider.kth`` calls it per access."""
    free = len(c.universe.vars) - idx.var_mask[c.output].bit_count()
    return idx.rel_count[c.output] * len(c.domain.values) ** free


def _sinks(c: Circuit, gid: int, memo: dict) -> tuple[tuple[int, int], ...] | None:
    """Decision gates of gate ``gid``, as ``(level, gate)`` pairs, once products dissolve and Top drops.

    ``level`` is the tested variable's universe position.  ``None`` once a
    Bot appears: no tuple passes the gate.  The result is stored in
    ``memo`` under ``gid``; callers read ``memo`` first.
    """
    gates, level = c.gates, c.universe.position
    found: list[tuple[int, int]] = []
    stack = [gid]
    while stack:
        s = stack.pop()
        g = gates[s]
        if isinstance(g, DecisionGate):
            found.append((level(g.var), s))
        elif isinstance(g, ProductGate):
            stack.extend(g.children)
        elif isinstance(g, BotGate):
            memo[gid] = None
            return None
    memo[gid] = result = tuple(found)
    return result


def frontier(c: Circuit, idx: AccessIndex, tau: Mapping[str, str]) -> tuple[int, ...] | None:
    """Pairwise variable-disjoint decision gates left after committing a prefix assignment of the universe.

    The descent by value: starting from the output's sinks, each bound
    variable's slot gate, if any, is crossed along the edge matching its
    value, and the child's sinks fill the slots below.  The result is the
    filled slots past the prefix.  A missing edge or a Bot gate gives
    ``None``: no extension of the prefix is an answer.  A value outside
    the domain raises ``ValueError``.
    """
    prefix = c.universe.vars[: len(tau)]
    if set(prefix) != set(tau):
        raise NotAPrefixError("assignment must bind a prefix of the universe order")
    rank = c.domain.rank
    for value in tau.values():
        rank(value)  # raises ValueError for a value outside the domain
    slot: list[int | None] = [None] * len(c.universe)
    child: int | None = c.output
    memo: dict = {}
    for p in range(len(prefix) + 1):
        sinks = () if child is None else _sinks(c, child, memo)
        if sinks is None:
            return None
        for r, g in sinks:
            slot[r] = g
        if p == len(prefix):
            return tuple(g for g in slot[p:] if g is not None)
        gid, child, value = slot[p], None, tau[prefix[p]]
        if gid is not None:  # a level with no gate takes any value
            edges = c.gates[gid].edges
            i = bisect_left(edges, rank(value), key=lambda e: rank(e[0]))
            if i == len(edges) or edges[i][0] != value:
                return None
            child = edges[i][1]


def _descend(c: Circuit, idx: AccessIndex, k: int, memo: dict):
    """The top-down counting pass to the k-th tuple (1-based, within ``count``).

    ``slot[p]`` is the decision gate that tests level ``p``, or ``None``;
    ``product`` and ``mask`` are the count and the variable mask of the
    gates still below the bound prefix.  At a gated level the other
    gates' count times the free padding scales the gate's prefix counts,
    and a bisect picks the first edge reaching ``k`` (never one of zero
    count); crossing it refills the slots from the child's sinks, read
    through ``memo``.  A level with no gate takes the ``k``-th block of
    the domain.  Returns ``(slot, values, options, filled)``: per level
    the slot gate, the value, the edge index (or the value's 0-based
    position on a gateless level) and the sinks that its crossing filled.
    """
    gates, rel_count, var_mask, prefix_counts = c.gates, idx.rel_count, idx.var_mask, idx.prefix_counts
    dvalues = c.domain.values
    dsize, n = len(dvalues), len(c.universe)
    slot: list[int | None] = [None] * n
    values: list[str] = [""] * n
    options = [0] * n
    filled: list[tuple[tuple[int, int], ...]] = [()] * n
    for r, g in _sinks(c, c.output, memo):
        slot[r] = g
    product, mask = rel_count[c.output], var_mask[c.output]
    for p in range(n):
        free = n - p - mask.bit_count()  # levels from p on that no gate below the prefix mentions
        gid = slot[p]
        if gid is None:
            scale = product * dsize ** (free - 1)
            i = (k - 1) // scale
            k -= i * scale
            values[p] = dvalues[i]
        else:
            product //= rel_count[gid]
            mask &= ~var_mask[gid]
            scale = product * dsize**free
            counts = prefix_counts[gid]
            i = bisect_left(counts, -(-k // scale))
            if i:
                k -= counts[i - 1] * scale
            values[p], child = gates[gid].edges[i]
            s = memo.get(child)
            filled[p] = s = _sinks(c, child, memo) if s is None else s
            for r, g in s:
                slot[r] = g
            product *= rel_count[child]
            mask |= var_mask[child]
        options[p] = i
    return slot, values, options, filled


def direct_access(c: Circuit, idx: AccessIndex, k: int) -> Assignment:
    """The k-th tuple (1-based) of the circuit's relation in its universe order, by one ``_descend``."""
    total = count(c, idx)
    if k < 1 or k > total:
        raise OutOfRangeError(f"k out of range (count={total})")
    return Assignment(zip(c.universe.vars, _descend(c, idx, k, {})[1]))


def walk(c: Circuit, idx: AccessIndex, start: int, stop: int) -> Iterator[tuple[str, ...]]:
    """Value tuples ``start .. stop-1`` (1-based) of the circuit's relation, in universe order.

    One ``_descend`` reaches ``start`` and leaves its per-level state:
    each level's slot (the decision gate testing it, or ``None``),
    option, and the sinks its crossing filled.  Each later tuple
    advances, as an odometer does, the deepest level with a next option
    of nonzero count: the next edge whose prefix count rises, or the next
    domain value on a level with no gate.  The advance clears the slots
    that the crossings at that level and below had filled, and the
    re-descent fills them again from the chosen children's sinks, read
    through the descent's memo.  So a step touches only the levels it
    changes, and a window costs one descent plus amortised odometer steps.
    """
    if start >= stop:
        return
    total = count(c, idx)
    if start < 1 or stop - 1 > total:
        raise OutOfRangeError(f"window {start}..{stop - 1} outside 1..{total}")
    sinks: dict[int, tuple[tuple[int, int], ...] | None] = {}  # child -> its sinks, by level
    slot, values, options, filled = _descend(c, idx, start, sinks)
    dvalues, prefix_counts, gates = c.domain.values, idx.prefix_counts, c.gates
    last, dsize = len(c.universe) - 1, len(dvalues)
    yield tuple(values)
    for _ in range(stop - start - 1):
        p = last
        while True:  # the deepest level with a next option; the window check keeps p >= 0
            gid = slot[p]
            i = options[p] + 1
            if gid is None:
                if i < dsize:
                    break
            else:
                counts = prefix_counts[gid]
                end = len(counts)
                while i < end and counts[i] == counts[i - 1]:  # skip edges of zero count
                    i += 1
                if i < end:
                    break
            p -= 1
        for q in range(p, last):
            for r, _ in filled[q]:
                slot[r] = None
        while True:  # re-descend from p along each level's first option
            options[p] = i
            if gid is None:
                values[p] = dvalues[i]
                if p == last:
                    break
                filled[p] = ()
            else:
                values[p], child = gates[gid].edges[i]
                if p == last:
                    break
                s = sinks.get(child)
                filled[p] = s = _sinks(c, child, sinks) if s is None else s
                for r, g in s:
                    slot[r] = g
            p += 1
            gid = slot[p]
            i = 0
            if gid is not None:
                counts = prefix_counts[gid]
                while not counts[i]:
                    i += 1
        yield tuple(values)


def rank_by_kth(
    kth: Callable[[int], Mapping[str, str]], total: int, t: Mapping[str, str], order: VarOrder, domain: Domain
) -> int:
    """Number of tuples at most ``t``, which binds ``order`` to ``domain``, among ``kth(1) .. kth(total)``.

    ``kth`` lists tuples in increasing lexicographic order under
    ``order``; binary search over it gives the 1-based rank of ``t``
    when listed, else the rank of the largest listed tuple below it.
    """
    lo, hi = 0, total
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if lex_compare(kth(mid), t, order, domain) <= 0:
            lo = mid
        else:
            hi = mid - 1
    return lo


def rank(c: Circuit, idx: AccessIndex, t: Mapping[str, str]) -> int:
    """Number of tuples at most ``t``, which must have passed ``check_tuple``, in the circuit's relation."""
    return rank_by_kth(partial(direct_access, c, idx), count(c, idx), t, c.universe, c.domain)


def _int(value: object, name: str) -> int:
    """``value`` if it is an ``int`` and not a ``bool`` (the loader's rule for an arity), else ``ArgumentError``."""
    if type(value) is not int:
        raise ArgumentError(f"{name} must be an int, not {value!r}")
    return value


def answer_window(total: int, start: int = 1, limit: int | None = None) -> range:
    """Indices ``start .. start+limit-1``, checked to be ``int`` and inside ``1..total``.

    Without ``limit`` the window runs to the last answer, and ``start``
    may be ``total + 1`` for the empty tail.  Callers check the window
    before producing any answer, so a bad window yields none.
    """
    _int(start, "window start")
    if limit is None:
        if not 1 <= start <= total + 1:
            raise OutOfRangeError(f"window start {start} outside 1..{total + 1}")
        limit = total - start + 1
    if _int(limit, "window limit") < 0:
        raise OutOfRangeError(f"window limit {limit} is negative")
    if limit == 0:
        return range(0)
    if start < 1 or start + limit - 1 > total:
        raise OutOfRangeError(f"window {start}..{start + limit - 1} outside 1..{total}")
    return range(start, start + limit)


def check_tuple(t: object, variables: Collection[str], domain: Domain) -> Mapping[str, str]:
    """``t`` if it maps exactly ``variables`` to ``str`` values in ``domain``, else ``ArgumentError``."""
    if not isinstance(t, Mapping) or t.keys() != set(variables):
        raise ArgumentError(f"tuple must bind exactly {sorted(variables)}")
    for value in t.values():
        if not isinstance(value, str) or value not in domain:  # str first: a list is unhashable
            raise ArgumentError(f"tuple value {value!r} outside the domain")
    return t


class Provider:
    """The direct-access contract every engine meets, with its arguments checked once, here.

    An engine has a ``universe`` (the significance order of its answers) and a ``domain``,
    and defines ``count()`` and the hooks ``_kth`` and ``_rank_of``, which trust their
    arguments; it may override ``_answers(ks)``, the answers at the indices of a checked
    window, which defaults to one ``_kth`` per index.  ``kth(k)`` (1-based, lexicographic),
    ``rank_of(t)`` (answers at most ``t``) and ``answers(start, limit)`` take an index or
    window bound that is an ``int`` and not a ``bool``, and a tuple binding exactly the
    universe's variables to ``str`` values in the domain.  Else they raise
    ``ArgumentError``, a ``ValueError`` (CLI exit 1), or past the answers
    ``OutOfRangeError`` (CLI exit 2).
    """

    def kth(self, k: int) -> Assignment:
        if not 1 <= _int(k, "k") <= self.count():
            raise OutOfRangeError(f"k out of range (count={self.count()})")
        return self._kth(k)

    def rank_of(self, t: Mapping[str, str]) -> int:
        return self._rank_of(check_tuple(t, self.universe.vars, self.domain))

    def answers(self, start: int = 1, limit: int | None = None) -> Iterator[Assignment]:
        """Answers ``start .. start+limit-1``; raises before yielding if the window is out of range."""
        return self._answers(answer_window(self.count(), start, limit))

    def _answers(self, ks: range) -> Iterator[Assignment]:
        return map(self._kth, ks)
