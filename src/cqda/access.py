"""Counting tables and polylog direct access on ordered circuits.

The preprocessing fills, bottom-up, the tuple count of every gate and
the running prefix counts along each decision gate's sorted edges.  A
direct access then walks the circuit's universe (significance order,
most significant variable first), maintaining the frontier of gates
compatible with the bound prefix and answering one counting query per
variable.  ``walk`` streams a window of consecutive tuples from one
such descent, advancing its levels like an odometer: each level keeps a
slot with the decision gate that tests it, so a step re-descends only
the levels it changes and builds no frontier.  All counts are
exact Python integers, so nothing overflows even when they exceed
machine words.  ``Provider`` is the contract every engine meets: the
one place its arguments are checked.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Collection, Iterator, Mapping
from dataclasses import dataclass
from functools import partial

from .circuit import BotGate, Circuit, DecisionGate, ProductGate, TopGate
from .errors import ArgumentError, NotAPrefixError, OutOfRangeError, UnsatisfiableError
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


def _expand(c: Circuit, gates: Iterator[int] | list[int]) -> tuple[int, ...] | None:
    """Replace product gates by their sinks; ``None`` once a Bot appears."""
    out: list[int] = []
    stack = list(gates)
    while stack:
        gid = stack.pop()
        g = c.gates[gid]
        if isinstance(g, ProductGate):
            stack.extend(g.children)
        elif isinstance(g, BotGate):
            return None
        else:
            out.append(gid)
    return tuple(out)


def frontier(c: Circuit, idx: AccessIndex, tau: Mapping[str, str]) -> tuple[int, ...] | None:
    """Pairwise variable-disjoint gates left after committing a prefix assignment of the universe.

    Starting from the output, product gates dissolve into their sinks;
    the bound variables are taken in universe order, and the frontier's
    decision gate on each is crossed along the matching edge.  A missing
    edge or a Bot gate gives ``None``: no extension of the prefix is an
    answer.  A value outside the domain raises ``ValueError``.
    """
    prefix = c.universe.vars[: len(tau)]
    if set(prefix) != set(tau):
        raise NotAPrefixError("assignment must bind a prefix of the universe order")
    for value in tau.values():
        c.domain.rank(value)  # raises ValueError for a value outside the domain
    gates = _expand(c, [c.output])
    for x in prefix:
        for gid in gates or ():
            g = c.gates[gid]
            if isinstance(g, DecisionGate) and g.var == x:
                gates = _cross(c, gates, gid, _edge_child(c, g, tau[x]))
                break
    return gates


def _cross(c: Circuit, gates: tuple[int, ...], gid: int, child: int | None) -> tuple[int, ...] | None:
    """Frontier after crossing decision gate ``gid`` into ``child``; ``None`` once empty."""
    expanded = None if child is None else _expand(c, [child])
    return None if expanded is None else tuple(g for g in gates if g != gid) + expanded


def _edge_child(c: Circuit, g: DecisionGate, value: str) -> int | None:
    """Child behind the edge labelled ``value``, or ``None`` without one."""
    rank = c.domain.rank
    i = bisect_left(g.edges, rank(value), key=lambda e: rank(e[0]))
    if i < len(g.edges) and g.edges[i][0] == value:
        return g.edges[i][1]
    return None


def _oracle(c: Circuit, idx: AccessIndex, gates: tuple[int, ...], p: int, n: int):
    """Smallest value for variable ``p`` reaching ``n`` extensions, and the
    count of extensions strictly below it.

    Returns ``(value, below, after, gate, i)`` where ``after`` is the
    frontier once ``p`` is bound to ``value``: ``gate``, the frontier's
    decision gate on ``p`` if any, is crossed along its edge ``i``;
    without one, ``i`` is the value's 0-based position in the domain.
    ``None`` means the edge led to an empty branch.
    """
    dsize = len(c.domain)
    x = c.universe.vars[p]
    var_mask = 0
    gate_on_x = None
    for gid in gates:
        var_mask |= idx.var_mask[gid]
        g = c.gates[gid]
        if isinstance(g, DecisionGate) and g.var == x:
            gate_on_x, edges = gid, g.edges
    free_rest = (len(c.universe) - p) - var_mask.bit_count()

    if gate_on_x is not None:
        product = dsize**free_rest
        for gid in gates:
            if gid != gate_on_x:
                product *= idx.rel_count[gid]
        if product == 0:
            raise OutOfRangeError("no extension below this prefix")
        target = -(-n // product)  # ceil
        counts = idx.prefix_counts[gate_on_x]
        i = bisect_left(counts, target)
        if i == len(counts):
            raise OutOfRangeError("n exceeds the number of extensions")
        below = counts[i - 1] * product if i > 0 else 0
        value, child = edges[i]
        return value, below, _cross(c, gates, gate_on_x, child), gate_on_x, i

    product = dsize ** (free_rest - 1)
    for gid in gates:
        product *= idx.rel_count[gid]
    if product == 0:
        raise OutOfRangeError("no extension below this prefix")
    r = -(-n // product)
    if r > dsize:
        raise OutOfRangeError("n exceeds the number of extensions")
    return c.domain.value_at(r), (r - 1) * product, gates, None, r - 1


def direct_access(c: Circuit, idx: AccessIndex, k: int, trail: list | None = None) -> Assignment:
    """The k-th tuple (1-based) of the circuit's relation in its universe order.

    ``trail``, when given, receives one ``(frontier, gate, option)`` per
    level: the frontier before the level's variable is bound, and
    ``_oracle``'s gate and option there.
    """
    total = count(c, idx)
    if k < 1 or k > total:
        raise OutOfRangeError(f"k out of range (count={total})")
    gates = _expand(c, [c.output])
    bound: dict[str, str] = {}
    for p in range(len(c.universe)):
        value, below, after, gate, i = _oracle(c, idx, gates, p, k)
        if after is None:
            raise UnsatisfiableError("descended into an empty branch")
        if trail is not None:
            trail.append((gates, gate, i))
        bound[c.universe.vars[p]] = value
        gates = after
        k -= below
    return Assignment(bound)


def walk(c: Circuit, idx: AccessIndex, start: int, stop: int) -> Iterator[tuple[str, ...]]:
    """Value tuples ``start .. stop-1`` (1-based) of the circuit's relation, in universe order.

    One descent, ``direct_access``'s, reaches ``start``; its trail gives
    each level's slot (the frontier's decision gate on that level, or
    ``None``) and option.  Each later tuple advances, as an odometer
    does, the deepest level with a next option of nonzero count: the
    next edge whose prefix count rises, or the next domain value on a
    level with no gate.  The advance clears the slots that the crossings
    at that level and below had filled, and the re-descent fills them
    again from the chosen children's sinks (their decision gates, by
    level), memoised per window.  So a step touches only the levels it
    changes and builds no frontier; a window costs one descent plus
    amortised odometer steps.
    """
    if start >= stop:
        return
    total = count(c, idx)
    if start < 1 or stop - 1 > total:
        raise OutOfRangeError(f"window {start}..{stop - 1} outside 1..{total}")
    trail: list = []
    first = direct_access(c, idx, start, trail)
    dvalues, prefix_counts, gates, level = c.domain.values, idx.prefix_counts, c.gates, c.universe.position
    last, dsize = len(c.universe) - 1, len(dvalues)
    sinks: dict[int, tuple[tuple[int, int], ...]] = {}  # child -> its sinks' decision gates, by level

    def sinks_of(child: int) -> tuple[tuple[int, int], ...]:
        g = gates[child]
        if isinstance(g, DecisionGate):  # its own sink: no product to dissolve
            found = sinks[child] = ((level(g.var), child),)
        else:
            found = sinks[child] = tuple(
                (level(gates[s].var), s) for s in _expand(c, [child]) if isinstance(gates[s], DecisionGate)
            )
        return found

    slot = [g for _, g, _ in trail]
    options = [i for _, _, i in trail]
    # filled[q]: the slots that crossing level q filled; the last level fills none
    filled = [() if g is None else sinks_of(gates[g].edges[i][1]) for g, i in zip(slot[:-1], options)]
    values = [first[x] for x in c.universe.vars]
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
        if p < last:
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
                filled[p] = s = sinks_of(child) if s is None else s
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
