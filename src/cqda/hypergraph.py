"""Hypergraphs, elimination orders, cover numbers and width measures.

Width values are exact: integer cover numbers come from a complete
branch-and-bound search and fractional ones from a simplex that pivots
on integers and builds one ``Fraction`` at the optimum.  No floating
point is involved anywhere.

Vertex elimination ``H/v`` removes ``v`` from every edge and adds the
open neighbourhood of ``v`` as a fresh edge.  The width of an order is
the worst cover number, over all elimination steps, of the removed
vertex's neighbourhood, covered with the hypergraph's original edges.

There is one width core.  Vertices are the bits of a sorted vertex
tuple, and every edge family a measure maximises over walks the same
hash-consed elimination states: equal states are one object, so each
step is costed once per distinct state.  ``best_order`` keeps its
states in the module pool ``_STATES``, ``width_of_order`` in a pool of
its own per call.  Every cover number goes through one path that first
reduces the covering family to its kernel.  The set-based definitions
are kept in the tests, as the reference this core is checked against.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, UncoverableError, VertexNotFoundError
from .relations import VarOrder

EliminationOrder = VarOrder


@dataclass(frozen=True)
class Budget:
    """Cap on exhaustive-search state counts; exceeding it is an error."""

    max_states: int = 1 << 20


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class Hypergraph:
    vertices: frozenset[str]
    edges: tuple[frozenset[str], ...]

    def __post_init__(self):
        for e in self.edges:
            if not e <= self.vertices:
                raise ValueError("edge mentions a vertex outside the hypergraph")

    @classmethod
    def of(cls, vertices: Iterable[str], edges: Iterable[Iterable[str]]) -> Hypergraph:
        return cls(frozenset(vertices), tuple(frozenset(e) for e in edges))


@dataclass(frozen=True)
class SignedHypergraph:
    vertices: frozenset[str]
    pos_edges: tuple[frozenset[str], ...]
    neg_edges: tuple[frozenset[str], ...]

    def __post_init__(self):
        for e in self.pos_edges + self.neg_edges:
            if not e <= self.vertices:
                raise ValueError("edge mentions a vertex outside the hypergraph")

    @classmethod
    def of(cls, vertices, pos_edges, neg_edges) -> SignedHypergraph:
        return cls(
            frozenset(vertices),
            tuple(frozenset(e) for e in pos_edges),
            tuple(frozenset(e) for e in neg_edges),
        )

    def unsigned(self) -> Hypergraph:
        return Hypergraph(self.vertices, self.pos_edges + self.neg_edges)


def _packing_max(rows: Sequence[int], n: int) -> Fraction:
    """Maximise ``y_0 + ... + y_{n-1}`` subject to ``sum(y_i for i in row) <= 1``, y >= 0.

    ``rows`` are bitmasks over the ``n`` variables, each of which must
    lie in some row.  Tableau simplex with Bland's rule, so termination
    is guaranteed, on integers: the tableau is kept as integers over one
    common denominator ``d``, the previous pivot, which is the current
    basis determinant.  Each update ``(x*p - f*y) // d`` therefore
    divides exactly (Bareiss), and one ``Fraction`` is built at the
    optimum.  The slack basis is feasible because every right-hand side
    is 1.
    """
    m = len(rows)
    # tableau rows: [A | I | b]; the cost row tracks reduced costs and,
    # in its last entry, the current objective value, all times d
    tab = [[r >> j & 1 for j in range(n)] + [int(i == k) for k in range(m)] + [1] for i, r in enumerate(rows)]
    cost = [-1] * n + [0] * (m + 1)
    basis = list(range(n, n + m))
    d = 1
    while True:
        # Bland's rule: smallest improving column, smallest basic row on ties
        col = next((j for j in range(n + m) if cost[j] < 0), None)
        if col is None:
            return Fraction(cost[-1], d)
        row = None
        for i in range(m):
            a = tab[i][col]
            if a > 0:
                if row is None:
                    row = i
                    continue
                # compare the ratios b_i / a and b_row / a_row without dividing
                lhs, rhs = tab[i][-1] * tab[row][col], tab[row][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                    row = i
        if row is None:
            raise UncoverableError("unbounded covering dual")
        prow = tab[row]
        p = prow[col]
        for i in range(m):
            if i != row:
                f = tab[i][col]
                tab[i] = [(x * p - f * y) // d for x, y in zip(tab[i], prow)]
        f = cost[col]
        cost = [(x * p - f * y) // d for x, y in zip(cost, prow)]
        basis[row] = col
        d = p


# --- covers ---------------------------------------------------------------


def _maximal(edges: Iterable[int]) -> list[int]:
    """The distinct nonempty edges that lie inside no other edge."""
    kept: list[int] = []
    for e in sorted(set(edges) - {0}, key=int.bit_count, reverse=True):
        for f in kept:
            if not e & ~f:
                break
        else:
            kept.append(e)
    return kept


def _kernel(parts: Iterable[int]) -> tuple[int, tuple[int, ...], int]:
    """``(forced, kernel, union)``: the cover number is ``forced`` plus the kernel's.

    Two reductions, repeated until neither applies; both keep integral
    and fractional cover numbers (Weihe, ALEX 1998).  A part inside
    another part is dropped: a cover can use the larger one instead.  A
    part that alone covers some vertex is in every cover, at weight 1 in
    some optimal fractional one; it is taken and its vertices removed.
    """
    forced = 0
    while True:
        kept = _maximal(parts)
        once = twice = 0
        for p in kept:
            twice |= once & p
            once |= p
        alone = once & ~twice
        if not alone:
            return forced, tuple(kept), once
        taken = 0
        for p in kept:
            if p & alone:
                taken |= p
                forced += 1
        parts = {p & ~taken for p in kept} - {0}


def _cn_search(parts: tuple[int, ...], need: int, budget: Budget) -> int:
    """Minimum number of ``parts`` whose union is ``need``: depth-first branch and bound."""
    best = len(parts)
    states = 0
    stack = [(need, 0)]
    while stack:
        uncovered, used = stack.pop()
        states += 1
        if states > budget.max_states:
            raise BudgetExceededError("cover search exceeded the state budget")
        if not uncovered:
            if used < best:
                best = used
        elif used + 1 < best:
            # every cover uses some part holding the lowest uncovered vertex
            pivot = uncovered & -uncovered
            used += 1
            for p in parts:
                if p & pivot:
                    stack.append((uncovered & ~p, used))
    return best


def _cover(need: int, edges: Iterable[int], fractional: bool, budget: Budget, covers: dict):
    """Integral or fractional cover number of ``need`` by ``edges``; raises unless they cover it.

    The covering family, the distinct nonempty parts ``e & need``, is
    reduced to its kernel first.  ``covers`` maps kernels to their cover
    numbers, so a caller that keeps it solves each kernel once.  The
    packing dual, a variable per vertex and a row per part, gives the
    fractional one."""
    parts = set()
    covered = 0
    for e in edges:
        r = e & need
        if r:
            parts.add(r)
            covered |= r
    if covered != need:
        raise UncoverableError("vertex set not covered by any edge")
    forced, kernel, rest = (1, (), 0) if need in parts else _kernel(parts)
    if not kernel:
        return Fraction(forced) if fractional else forced
    key = frozenset(kernel)
    got = covers.get(key)
    if got is None:
        if fractional:
            members = [i for i in range(rest.bit_length()) if rest >> i & 1]
            rows = [sum((p >> v & 1) << j for j, v in enumerate(members)) for p in kernel]
            got = covers[key] = _packing_max(rows, len(members))
        else:
            got = covers[key] = _cn_search(kernel, rest, budget)
    return forced + got


def _mask(index: dict[str, int], vs: Iterable[str]) -> int:
    m = 0
    for v in vs:
        m |= 1 << index[v]
    return m


def _cover_masks(s: Iterable[str], edges: Sequence[Iterable[str]]) -> tuple[int, list[int]]:
    need = frozenset(s)
    edges = [frozenset(e) for e in edges]
    index = {v: i for i, v in enumerate(sorted(need.union(*edges)))}
    return _mask(index, need), [_mask(index, e) for e in edges]


def cover_number(s: Iterable[str], edges: Sequence[frozenset[str]], budget: Budget = DEFAULT_BUDGET) -> int:
    """Minimum number of edges whose union contains ``s`` (exact)."""
    need, masks = _cover_masks(s, edges)
    return _cover(need, masks, False, budget, {})


def fractional_cover_number(
    s: Iterable[str], edges: Sequence[frozenset[str]], budget: Budget = DEFAULT_BUDGET
) -> Fraction:
    """Exact optimum of the fractional covering program for ``s``."""
    need, masks = _cover_masks(s, edges)
    return _cover(need, masks, True, budget, {})


# --- hash-consed elimination states ------------------------------------------
#
# Vertices are the bits of a sorted vertex tuple.  A state is what every
# later step of an elimination reads: the edges after the removals so
# far, and the original edges cut to the remaining vertices.  Both are
# kept as antichains (an edge inside another changes no neighbourhood,
# and no cover number), so equal states are one object in a pool and
# each step is costed once per distinct state, however many edge
# families reach it.  Removing a vertex set yields the same states
# whatever the removal order; the order DP relies on that, and the tests
# check it, and every width against the set-based walk.


def _with(chain: frozenset[int], e: int) -> frozenset[int]:
    """``chain``, an antichain, with ``e`` added: edges inside ``e`` go; ``e`` goes if empty or inside one."""
    if not e:
        return chain
    kept = [e]
    for f in chain:
        if not e & ~f:
            return chain
        if f & ~e:
            kept.append(f)
    return frozenset(kept)


class _State:
    """One distinct elimination state; ``children`` and ``costs`` memoise its steps by vertex bit."""

    __slots__ = ("after", "cut", "budget", "children", "costs")

    def __init__(self, after: frozenset[int], cut: frozenset[int], budget: Budget):
        self.after, self.cut, self.budget = after, cut, budget
        self.children: dict[int, _State] = {}
        self.costs: dict[int, object] = {}

    def child(self, vbit: int, pool: dict) -> _State:
        """The state once ``vbit`` is removed too, for a caller that missed ``children``."""
        nb = 0
        for e in self.after:
            if e & vbit:
                nb |= e
        if not nb:
            # no edge holds vbit (every cut edge lies inside an edge after);
            # a child that is its parent is not stored, so pools stay acyclic
            return self
        # the edges through vbit shrink into its open neighbourhood, a fresh edge
        after = _with(frozenset([e for e in self.after if not e & vbit]), nb & ~vbit)
        cut = frozenset([e for e in self.cut if not e & vbit])
        for e in self.cut:
            if e & vbit:
                cut = _with(cut, e & ~vbit)
        got = self.children[vbit] = _state(pool, after, cut, self.budget)
        return got

    def cost(self, vbit: int, fractional: bool, covers: dict):
        """Cover number of ``vbit``'s neighbourhood by the cut edges, for a caller that missed ``costs``."""
        nb = 0
        for e in self.after:
            if e & vbit:
                nb |= e
        got = self.costs[vbit << 1 | fractional] = _cover(nb, self.cut, fractional, self.budget, covers)
        return got


def _state(pool: dict, after: frozenset[int], cut: frozenset[int], budget: Budget) -> _State:
    """The pool's one state with these edges."""
    key = (after, cut, budget.max_states)
    got = pool.get(key)
    if got is None:
        if len(pool) > 1 << 18:
            pool.clear()
        got = pool[key] = _State(after, cut, budget)
    return got


_STATES: dict[tuple, _State] = {}


def _children(states: tuple[_State, ...], vbit: int, pool: dict) -> tuple[_State, ...]:
    """The distinct states once ``vbit`` is removed too."""
    if len(states) == 1:
        return (states[0].children.get(vbit) or states[0].child(vbit, pool),)
    return tuple({s.children.get(vbit) or s.child(vbit, pool): None for s in states})


def _worst(states: tuple[_State, ...], vbit: int, fractional: bool, covers: dict):
    """The worst cover number of ``vbit``'s neighbourhood over ``states``."""
    key = vbit << 1 | fractional
    worst = None
    for s in states:
        c = s.costs.get(key)
        if c is None:
            c = s.cost(vbit, fractional, covers)
        if worst is None or c > worst:
            worst = c
    return worst


# --- widths of elimination orders -------------------------------------------

def _measure(h: Hypergraph | SignedHypergraph, kind: str, budget: Budget, steps: int) -> tuple:
    """``(vertices, fractional, fixed masks, optional masks)`` of a width request.

    Each edge family the measure maximises over is the fixed edges plus
    a subset of the optional ones.  ``show``/``sfhow``: the positive
    edges are fixed and the negative ones optional; ``bhow``/``bfhow``:
    every edge is optional; ``how``/``fhow``: every edge is fixed.  The
    caller names how many steps it will cost, and families x steps is
    charged against the budget before anything is built.
    """
    signed = isinstance(h, SignedHypergraph)
    if kind in ("show", "sfhow"):
        fixed, optional = (h.pos_edges, h.neg_edges) if signed else (h.edges, ())
    elif kind in ("bhow", "bfhow"):
        fixed, optional = (), (h.unsigned() if signed else h).edges
    elif kind in ("how", "fhow"):
        fixed, optional = (h.unsigned() if signed else h).edges, ()
    else:
        raise ValueError(f"unknown width measure {kind!r}")
    # a call with no steps still builds every family's root state
    if (1 << len(optional)) * max(steps, 1) > budget.max_states:
        raise BudgetExceededError(
            f"2^{len(optional)} edge families x {steps} cover steps exceed the budget of {budget.max_states} states"
        )
    vertices = tuple(sorted(h.vertices))
    index = {v: i for i, v in enumerate(vertices)}
    masks = [frozenset(_mask(index, e) for e in edges) for edges in (fixed, optional)]
    return vertices, kind in ("fhow", "sfhow", "bfhow"), *masks


def _roots(fixed: frozenset[int], optional: frozenset[int], pool: dict, budget: Budget) -> tuple[_State, ...]:
    """The distinct start states of the families: the fixed edges plus each subset of the optional ones."""
    families = {frozenset(_maximal(fixed))}
    for m in optional:
        families |= {_with(f, m) for f in families}
    return tuple({_state(pool, f, f, budget): None for f in families})


def width_of_order(h: Hypergraph | SignedHypergraph, kind: str, order: EliminationOrder, budget: Budget = DEFAULT_BUDGET):
    """Width of one elimination order under any of the six measures.

    One walk along the order; each step costs the worst cover number of
    the removed vertex's neighbourhood over the measure's edge families.
    Vertices of ``h`` missing from ``order`` are never removed; a vertex
    outside ``h``, or repeated, raises ``VertexNotFoundError``.  The
    states live in a pool of this call's own, so nothing outlives it.
    """
    vertices, fractional, fixed, optional = _measure(h, kind, budget, len(order))
    pool: dict = {}
    states = _roots(fixed, optional, pool, budget)
    index = {v: i for i, v in enumerate(vertices)}
    covers: dict = {}
    width = Fraction(0) if fractional else 0
    removed = last = 0
    for v in order:
        vbit = 1 << index[v] if v in index else 0
        if not vbit or removed & vbit:
            raise VertexNotFoundError(f"vertex {v} not in hypergraph")
        if last:
            states = _children(states, last, pool)
        width = max(width, _worst(states, vbit, fractional, covers))
        removed |= vbit
        last = vbit
    return width


def how_width(h: Hypergraph, order: EliminationOrder, budget: Budget = DEFAULT_BUDGET) -> int:
    """Worst integer cover number along the elimination, against the original edges."""
    return width_of_order(h, "how", order, budget)


def fhow_width(h: Hypergraph, order: EliminationOrder, budget: Budget = DEFAULT_BUDGET) -> Fraction:
    return width_of_order(h, "fhow", order, budget)


def show_width(h: SignedHypergraph, order: EliminationOrder, budget: Budget = DEFAULT_BUDGET) -> int:
    """Worst ``how`` width over every choice of kept negative edges."""
    return width_of_order(h, "show", order, budget)


def sfhow_width(h: SignedHypergraph, order: EliminationOrder, budget: Budget = DEFAULT_BUDGET) -> Fraction:
    return width_of_order(h, "sfhow", order, budget)


# --- optimal orders ---------------------------------------------------------

_BEST_ORDER_MEMO: dict[tuple, tuple] = {}

EXACT_SEARCH_MAX_VERTICES = 9


def best_order(
    h: Hypergraph | SignedHypergraph, kind: str = "how", budget: Budget = DEFAULT_BUDGET
) -> tuple[EliminationOrder, object, bool]:
    """Elimination order minimising the width, with an exactness flag.

    Small vertex sets are solved exactly by dynamic programming over
    removed-vertex subsets (the neighbourhood at a removal step depends
    only on the set removed before it), on the states of the module
    pool ``_STATES``.  Larger ones fall back to a greedy order whose
    width is still reported faithfully, flagged as an upper bound.
    """
    n = len(h.vertices)
    exact = n <= EXACT_SEARCH_MAX_VERTICES
    # cost calls: one per (removed set, vertex in it) for the DP, n..1 per greedy round
    memo_key = _measure(h, kind, budget, (n << n) >> 1 if exact else n * (n + 1) // 2)
    verts, fractional, fixed, optional = memo_key
    zero = Fraction(0) if fractional else 0
    if n == 0:
        return VarOrder(()), zero, True
    if exact:
        hit = _BEST_ORDER_MEMO.get(memo_key)
        if hit is not None:
            return hit
    covers: dict = {}
    roots = _roots(fixed, optional, _STATES, budget)
    if exact:
        layer = {0: roots}
        best: dict[int, tuple] = {0: (zero, ())}
        for removed in sorted(range(1, 1 << n), key=int.bit_count):
            top = 1 << (removed.bit_length() - 1)
            layer[removed] = _children(layer[removed ^ top], top, _STATES)
            winner = None
            bits = removed
            while bits:
                vbit = bits & -bits
                bits ^= vbit
                prior_width, prior_seq = best[removed ^ vbit]
                w = max(prior_width, _worst(layer[removed ^ vbit], vbit, fractional, covers))
                if winner is None or w < winner[0]:
                    winner = (w, prior_seq + (verts[vbit.bit_length() - 1],))
            best[removed] = winner
        width, seq = best[(1 << n) - 1]
        result = (VarOrder(seq), width, True)
        if len(_BEST_ORDER_MEMO) > 1 << 18:
            _BEST_ORDER_MEMO.clear()
        _BEST_ORDER_MEMO[memo_key] = result
        return result

    # greedy: cheapest next removal, ties by name
    states = roots
    removed = 0
    seq = []
    width = zero
    for _ in range(n):
        pick, pick_cost = None, None
        for i, v in enumerate(verts):
            if removed >> i & 1:
                continue
            c = _worst(states, 1 << i, fractional, covers)
            if pick_cost is None or c < pick_cost:
                pick, pick_cost = i, c
        seq.append(verts[pick])
        width = max(width, pick_cost)
        removed |= 1 << pick
        states = _children(states, 1 << pick, _STATES)
    return VarOrder(tuple(seq)), width, False


def bhtw_bruteforce(h: Hypergraph, budget: Budget = DEFAULT_BUDGET) -> int:
    """Hereditary hypertree width: worst, over edge subsets, of the best order."""
    if len(h.vertices) > 8 or len(h.edges) > 6:
        raise BudgetExceededError("bhtw search is limited to 8 vertices and 6 edges")
    if 2 ** len(h.edges) > budget.max_states:
        raise BudgetExceededError(f"2^{len(h.edges)} subhypergraphs exceed the budget")
    worst = 0
    for edges in itertools.chain.from_iterable(itertools.combinations(h.edges, r) for r in range(len(h.edges) + 1)):
        _, width, exact = best_order(Hypergraph(h.vertices, edges), "how", budget)
        assert exact
        worst = max(worst, width)
    return worst


# --- nest points, nest sets, beta-acyclicity --------------------------------

def beta_elim_order(h: Hypergraph) -> EliminationOrder | None:
    """Greedy nest-point elimination; ``None`` when none exists.

    A nest point is a nest set of one vertex.  Removing a vertex never
    destroys another vertex's nest-point status, so greedy removal is
    complete: it fails only on hypergraphs with no such order at all.
    """
    verts = tuple(sorted(h.vertices))
    index = {v: i for i, v in enumerate(verts)}
    edges = [_mask(index, e) for e in h.edges]
    remaining = (1 << len(verts)) - 1
    seq = []
    while remaining:
        sub = [e & remaining for e in edges if e & remaining]
        pick = next((i for i in range(len(verts)) if remaining >> i & 1 and _nest_ok(sub, 1 << i)), None)
        if pick is None:
            return None
        seq.append(verts[pick])
        remaining &= ~(1 << pick)
    return VarOrder(tuple(seq))


def _nest_ok(edges: list[int], block: int) -> bool:
    """Whether the edges meeting ``block``, cut to the vertices outside it, form an inclusion chain."""
    touched = sorted({e & ~block for e in edges if e & block}, key=int.bit_count)
    return all(a & ~b == 0 for a, b in zip(touched, touched[1:]))


def _blocks(mask: int, size: int):
    """Each ``size``-vertex subset of ``mask`` as a mask, in ``itertools.combinations`` order."""
    bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
    for combo in itertools.combinations(bits, size):
        block = 0
        for b in combo:
            block |= b
        yield block


def _reducible(remaining: int, k: int, edges: list[int], memo: dict, states: list[int], budget: Budget) -> bool:
    """Whether nest sets of at most ``k`` vertices eliminate ``remaining``; smaller blocks first.

    ``memo`` maps searched sets to answers, and ``states[0]`` counts
    them against the budget.  Not a closure, so a call leaves no cycle.
    """
    if not remaining:
        return True
    hit = memo.get(remaining)
    if hit is not None:
        return hit
    states[0] += 1
    if states[0] > budget.max_states:
        raise BudgetExceededError("nest-set search exceeded the state budget")
    sub = [e & remaining for e in edges if e & remaining]
    ok = False
    for size in range(1, k + 1):
        for block in _blocks(remaining, size):
            if _nest_ok(sub, block) and _reducible(remaining & ~block, k, edges, memo, states, budget):
                ok = True
                break
        if ok:
            break
    memo[remaining] = ok
    return ok


def nsw_bruteforce(h: Hypergraph, budget: Budget = DEFAULT_BUDGET) -> int:
    """Smallest width of a nest-set elimination order, by memoised exhaustive search.

    Widths 1, 2, ... are tried in turn; the whole vertex set is a nest
    set, so some width up to the vertex count succeeds.
    """
    if len(h.vertices) > 10:
        raise BudgetExceededError("nest-set search is limited to 10 vertices")
    verts = tuple(sorted(h.vertices))
    n = len(verts)
    if n == 0:
        return 0
    index = {v: i for i, v in enumerate(verts)}
    edge_masks = [m for m in dict.fromkeys(_mask(index, e) for e in h.edges) if m]
    states = [0]
    full = (1 << n) - 1
    return next(k for k in range(1, n + 1) if _reducible(full, k, edge_masks, {}, states, budget))


# --- cloning and free-connex orders ------------------------------------------

def clone_vertex(h: SignedHypergraph, u: str, clone_name: str) -> SignedHypergraph:
    """Add the new vertex ``clone_name`` to every edge containing ``u``, sign-preserving."""
    if u not in h.vertices:
        raise VertexNotFoundError(f"vertex {u} not in hypergraph")
    if clone_name in h.vertices:
        raise ValueError(f"clone name {clone_name} already taken")

    def widen(edges):
        return tuple(e | {clone_name} if u in e else e for e in edges)

    return SignedHypergraph(h.vertices | {clone_name}, widen(h.pos_edges), widen(h.neg_edges))

