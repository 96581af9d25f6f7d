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
tuple, and a ``_FamilyTable`` holds one edge family's elimination steps
and cover numbers as bitmasks.  Every cover number, width and optimal
order is read from such tables.  ``best_order`` shares them across
calls through a module-wide memo; ``width_of_order`` builds its own for
each call.  Within one call, the tables share one cover number per
covering family.  The set-based definition is kept in the tests, as the
reference this core is checked against.
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


# --- the bitmask core -------------------------------------------------------
#
# Removing a vertex set yields the same neighbourhoods whatever the
# removal order, so elimination state is keyed by the removed set alone;
# the order DP below relies on that, and the tests check it against the
# set-based walk over every permutation.


class _FamilyTable:
    """Elimination neighbourhoods and cover costs for one edge family."""

    def __init__(self, n: int, edges: tuple[int, ...], budget: Budget):
        self.n = n
        self.budget = budget
        deduped: list[int] = []
        for e in edges:
            if e and e not in deduped:
                deduped.append(e)
        self.edges = tuple(deduped)
        self._after: dict[int, tuple[int, ...]] = {0: self.edges}
        self._cn: dict[int, int] = {}
        self._fcn: dict[int, Fraction] = {}

    def edges_after(self, removed: int) -> tuple[int, ...]:
        got = self._after.get(removed)
        if got is None:
            vbit = 1 << (removed.bit_length() - 1)
            prev = self.edges_after(removed ^ vbit)
            nb = 0
            for e in prev:
                if e & vbit:
                    nb |= e
            nb &= ~vbit
            out: list[int] = []
            for e in prev:
                e2 = e & ~vbit
                if e2 and e2 not in out:
                    out.append(e2)
            if nb and nb not in out:
                out.append(nb)
            got = tuple(out)
            self._after[removed] = got
        return got

    def _covering(self, need: int) -> tuple[int, ...]:
        """The covering family of ``need``: the edges' distinct nonempty parts inside it.

        Raises unless their union is ``need``.
        """
        family: dict[int, None] = {}
        covered = 0
        for e in self.edges:
            r = e & need
            if r:
                family[r] = None
                covered |= r
        if covered != need:
            raise UncoverableError("vertex set not covered by any edge")
        return tuple(family)

    def _solve(self, need: int, covers: dict | None, solve):
        """``covers[family]``, else ``solve(need, family)``, for a memo miss on ``need``.

        A cover number depends on the covering family alone, so tables
        over one vertex set may share ``covers``; it is read only when a
        table's own memo misses.
        """
        family = self._covering(need)
        if covers is None:
            return solve(need, family)
        key = frozenset(family)
        got = covers.get(key)
        if got is None:
            got = covers[key] = solve(need, family)
        return got

    def cn(self, need: int, covers: dict | None = None) -> int:
        got = self._cn.get(need)
        if got is None:
            got = self._cn[need] = self._solve(need, covers, self._cn_search)
        return got

    def _cn_search(self, need: int, family: tuple[int, ...]) -> int:
        if need == 0:
            return 0
        best = len(family)
        states = 0

        def search(uncovered: int, used: int) -> None:
            nonlocal best, states
            states += 1
            if states > self.budget.max_states:
                raise BudgetExceededError("cover search exceeded the state budget")
            if used >= best:
                return
            if not uncovered:
                best = used
                return
            pivot = uncovered & -uncovered
            for e in family:
                if e & pivot:
                    search(uncovered & ~e, used + 1)

        search(need, 0)
        return best

    def fcn(self, need: int, covers: dict | None = None) -> Fraction:
        """Exact optimum of the fractional covering program for ``need``.

        Solved through the packing dual (one variable per vertex of
        ``need``, one constraint per edge), whose slack basis is
        immediately feasible; strong duality gives the covering optimum.
        """
        got = self._fcn.get(need)
        if got is None:
            got = self._fcn[need] = self._solve(need, covers, self._fcn_solve)
        return got

    def _fcn_solve(self, need: int, family: tuple[int, ...]) -> Fraction:
        members = [i for i in range(self.n) if need >> i & 1]
        if not members:
            return Fraction(0)
        rows = [sum((e >> v & 1) << j for j, v in enumerate(members)) for e in family]
        return _packing_max(rows, len(members))

    def cost(self, removed: int, vbit: int, fractional: bool, covers: dict | None = None):
        """Cover number of ``vbit``'s neighbourhood once ``removed`` is gone."""
        nb = 0
        for e in self.edges_after(removed):
            if e & vbit:
                nb |= e
        return self.fcn(nb, covers) if fractional else self.cn(nb, covers)


_FAMILY_TABLES: dict[tuple, _FamilyTable] = {}


def _family_table(n: int, edges: tuple[int, ...], budget: Budget) -> _FamilyTable:
    """The memoised table of one family; order searches revisit families heavily."""
    key = (n, edges, budget.max_states)
    got = _FAMILY_TABLES.get(key)
    if got is None:
        if len(_FAMILY_TABLES) > 1 << 18:
            _FAMILY_TABLES.clear()
        got = _FamilyTable(n, edges, budget)
        _FAMILY_TABLES[key] = got
    return got


def _mask(index: dict[str, int], vs: Iterable[str]) -> int:
    m = 0
    for v in vs:
        m |= 1 << index[v]
    return m


def _cover_table(s: Iterable[str], edges: Sequence[Iterable[str]], budget: Budget) -> tuple[_FamilyTable, int]:
    need = frozenset(s)
    edges = [frozenset(e) for e in edges]
    index = {v: i for i, v in enumerate(sorted(need.union(*edges)))}
    return _FamilyTable(len(index), tuple(_mask(index, e) for e in edges), budget), _mask(index, need)


def cover_number(s: Iterable[str], edges: Sequence[frozenset[str]], budget: Budget = DEFAULT_BUDGET) -> int:
    """Minimum number of edges whose union contains ``s`` (exact)."""
    table, need = _cover_table(s, edges, budget)
    return table.cn(need)


def fractional_cover_number(
    s: Iterable[str], edges: Sequence[frozenset[str]], budget: Budget = DEFAULT_BUDGET
) -> Fraction:
    """Exact optimum of the fractional covering program for ``s``."""
    table, need = _cover_table(s, edges, budget)
    return table.fcn(need)


# --- widths of elimination orders -------------------------------------------

_KIND_FRACTIONAL = {"how": False, "fhow": True, "show": False, "sfhow": True, "bhow": False, "bfhow": True}


def _subsets(edges: tuple[frozenset[str], ...]) -> Iterable[tuple[frozenset[str], ...]]:
    for r in range(len(edges) + 1):
        yield from itertools.combinations(edges, r)


def _families(h: Hypergraph | SignedHypergraph, kind: str) -> tuple[tuple[frozenset[str], ...], tuple[frozenset[str], ...]]:
    """The edge families a width measure maximises over, as ``(fixed, optional)``.

    Each family is the fixed edges plus a subset of the optional ones.
    ``show``/``sfhow``: the positive edges are fixed and the negative
    ones optional; ``bhow``/``bfhow``: every edge is optional;
    ``how``/``fhow``: every edge is fixed.
    """
    if kind in ("show", "sfhow"):
        return (h.pos_edges, h.neg_edges) if isinstance(h, SignedHypergraph) else (h.edges, ())
    plain = h.unsigned() if isinstance(h, SignedHypergraph) else h
    if kind in ("bhow", "bfhow"):
        return (), plain.edges
    if kind in ("how", "fhow"):
        return plain.edges, ()
    raise ValueError(f"unknown width measure {kind!r}")


class _OrderCost:
    """Step cost ``(removed_set, next_vertex) -> cover number`` for one width kind.

    The cost is the worst over the measure's family tables; ``table``
    makes each one, memoised or fresh.  The caller names how many steps
    it will ask for, and families x steps is charged against the budget
    before any table is built.  The tables share ``covers``, a cover
    number per covering family, for the life of this object.
    """

    def __init__(self, h: Hypergraph | SignedHypergraph, kind: str, budget: Budget, table, steps: int):
        fixed, optional = _families(h, kind)
        # a call with no steps still builds every family's table
        if (1 << len(optional)) * max(steps, 1) > budget.max_states:
            raise BudgetExceededError(
                f"2^{len(optional)} edge families x {steps} cover steps exceed the budget of {budget.max_states} states"
            )
        self.vertices = tuple(sorted(h.vertices))
        self.fractional = _KIND_FRACTIONAL[kind]
        index = {v: i for i, v in enumerate(self.vertices)}
        # equal families collapse as they are built, so memory follows the distinct ones
        families = {frozenset(_mask(index, e) for e in fixed)}
        for e in optional:
            m = _mask(index, e)
            families |= {f | {m} for f in families}
        masks = [tuple(sorted(f)) for f in families]
        self.tables = [table(len(self.vertices), edges, budget) for edges in masks]
        # one table never meets a family twice: its own memo, by need, answers first
        self.covers: dict[frozenset[int], object] | None = {} if len(self.tables) > 1 else None

    def key(self) -> tuple:
        return (self.vertices, self.fractional, tuple(sorted(t.edges for t in self.tables)))

    def cost(self, removed: int, vbit: int):
        fractional, covers = self.fractional, self.covers
        worst = None
        for table in self.tables:
            c = table.cost(removed, vbit, fractional, covers)
            if worst is None or c > worst:
                worst = c
        return worst


def width_of_order(h: Hypergraph | SignedHypergraph, kind: str, order: EliminationOrder, budget: Budget = DEFAULT_BUDGET):
    """Width of one elimination order under any of the six measures.

    One walk along the order; each step costs the worst cover number of
    the removed vertex's neighbourhood over the measure's edge family.
    Vertices of ``h`` missing from ``order`` are never removed; a vertex
    outside ``h``, or repeated, raises ``VertexNotFoundError``.
    """
    # Within this call the fresh tables share one cover per covering
    # family (model.covers); nothing outlives the call.  Sharing
    # best_order's _FAMILY_TABLES memo across calls is a later perf
    # change: it waits for the ROADMAP benchmark item, which times each
    # request kind on its own.
    model = _OrderCost(h, kind, budget, _FamilyTable, len(order))
    index = {v: i for i, v in enumerate(model.vertices)}
    width = Fraction(0) if model.fractional else 0
    removed = 0
    for v in order:
        vbit = 1 << index[v] if v in index else 0
        if not vbit or removed & vbit:
            raise VertexNotFoundError(f"vertex {v} not in hypergraph")
        width = max(width, model.cost(removed, vbit))
        removed |= vbit
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


def bhow_width(h: Hypergraph, order: EliminationOrder, budget: Budget = DEFAULT_BUDGET) -> int:
    """Worst ``how`` width over all edge subsets (hereditary width of the order)."""
    return width_of_order(h, "bhow", order, budget)


def bfhow_width(h: Hypergraph, order: EliminationOrder, budget: Budget = DEFAULT_BUDGET) -> Fraction:
    return width_of_order(h, "bfhow", order, budget)


# --- optimal orders ---------------------------------------------------------

_BEST_ORDER_MEMO: dict[tuple, tuple] = {}

EXACT_SEARCH_MAX_VERTICES = 9


def best_order(
    h: Hypergraph | SignedHypergraph, kind: str = "how", budget: Budget = DEFAULT_BUDGET
) -> tuple[EliminationOrder, object, bool]:
    """Elimination order minimising the width, with an exactness flag.

    Small vertex sets are solved exactly by dynamic programming over
    removed-vertex subsets (the neighbourhood at a removal step depends
    only on the set removed before it).  Larger ones fall back to a
    greedy order whose width is still reported faithfully, flagged as an
    upper bound.
    """
    n = len(h.vertices)
    exact = n <= EXACT_SEARCH_MAX_VERTICES
    # cost calls: one per (removed set, vertex in it) for the DP, n..1 per greedy round
    model = _OrderCost(h, kind, budget, _family_table, (n << n) >> 1 if exact else n * (n + 1) // 2)
    verts = model.vertices
    zero = Fraction(0) if model.fractional else 0
    if n == 0:
        return VarOrder(()), zero, True
    if exact:
        memo_key = model.key()
        hit = _BEST_ORDER_MEMO.get(memo_key)
        if hit is not None:
            return hit
        best: dict[int, tuple] = {0: (zero, ())}
        for removed in sorted(range(1, 1 << n), key=int.bit_count):
            winner = None
            bits = removed
            while bits:
                vbit = bits & -bits
                bits ^= vbit
                prior_width, prior_seq = best[removed ^ vbit]
                w = max(prior_width, model.cost(removed ^ vbit, vbit))
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
    removed = 0
    seq = []
    width = zero
    for _ in range(n):
        pick, pick_cost = None, None
        for i, v in enumerate(verts):
            if removed >> i & 1:
                continue
            c = model.cost(removed, 1 << i)
            if pick_cost is None or c < pick_cost:
                pick, pick_cost = i, c
        seq.append(verts[pick])
        width = max(width, pick_cost)
        removed |= 1 << pick
    return VarOrder(tuple(seq)), width, False


def bhtw_bruteforce(h: Hypergraph, budget: Budget = DEFAULT_BUDGET) -> int:
    """Hereditary hypertree width: worst, over edge subsets, of the best order."""
    if len(h.vertices) > 8 or len(h.edges) > 6:
        raise BudgetExceededError("bhtw search is limited to 8 vertices and 6 edges")
    if 2 ** len(h.edges) > budget.max_states:
        raise BudgetExceededError(f"2^{len(h.edges)} subhypergraphs exceed the budget")
    worst = 0
    for edges in _subsets(h.edges):
        _, width, exact = best_order(Hypergraph(h.vertices, edges), "how", budget)
        assert exact
        worst = max(worst, width)
    return worst


# --- nest points, nest sets, beta-acyclicity --------------------------------

def _chain_ordered(sets: Iterable[frozenset[str]]) -> bool:
    chain = sorted(set(sets), key=len)
    return all(a <= b for a, b in zip(chain, chain[1:]))


def is_nest_point(h: Hypergraph, v: str) -> bool:
    """Whether the edges containing ``v`` form an inclusion chain."""
    if v not in h.vertices:
        raise VertexNotFoundError(f"vertex {v} not in hypergraph")
    return _chain_ordered(e for e in h.edges if v in e)


def _drop_vertices(h: Hypergraph, gone: set[str]) -> Hypergraph:
    edges = tuple(e - gone for e in h.edges if e - gone)
    return Hypergraph(h.vertices - gone, edges)


def beta_elim_order(h: Hypergraph) -> EliminationOrder | None:
    """Greedy nest-point elimination; ``None`` when none exists.

    Removing a vertex never destroys another vertex's nest-point status,
    so greedy removal is complete: it fails only on hypergraphs with no
    such order at all.
    """
    remaining = h
    seq = []
    while remaining.vertices:
        pick = None
        for v in sorted(remaining.vertices):
            if is_nest_point(remaining, v):
                pick = v
                break
        if pick is None:
            return None
        seq.append(pick)
        remaining = _drop_vertices(remaining, {pick})
    return VarOrder(tuple(seq))


def is_nest_set(h: Hypergraph, s: Iterable[str]) -> bool:
    """Whether the edges meeting ``s``, with ``s`` removed, form an inclusion chain."""
    block = frozenset(s)
    return _chain_ordered(e - block for e in h.edges if e & block)


def nsw_bruteforce(
    h: Hypergraph, k_max: int | None = None, budget: Budget = DEFAULT_BUDGET
) -> int | None:
    """Smallest width of a nest-set elimination order, up to ``k_max``.

    Memoised exhaustive search over remaining-vertex states; complete on
    the tiny instances it accepts.
    """
    if len(h.vertices) > 10:
        raise BudgetExceededError("nest-set search is limited to 10 vertices")
    verts = tuple(sorted(h.vertices))
    n = len(verts)
    if n == 0:
        return 0
    index = {v: i for i, v in enumerate(verts)}
    edge_masks = [m for m in dict.fromkeys(_mask(index, e) for e in h.edges) if m]
    cap = n if k_max is None else min(k_max, n)
    states = 0

    def nest_ok(edges: list[int], block: int) -> bool:
        touched = sorted(
            {e & ~block for e in edges if e & block}, key=int.bit_count
        )
        return all(a & ~b == 0 for a, b in zip(touched, touched[1:]))

    def subsets_of(mask: int, size: int):
        bits = [1 << i for i in range(n) if mask >> i & 1]
        for combo in itertools.combinations(bits, size):
            block = 0
            for b in combo:
                block |= b
            yield block

    def reducible(remaining: int, k: int, memo: dict) -> bool:
        nonlocal states
        if not remaining:
            return True
        hit = memo.get(remaining)
        if hit is not None:
            return hit
        states += 1
        if states > budget.max_states:
            raise BudgetExceededError("nest-set search exceeded the state budget")
        sub = [e & remaining for e in edge_masks if e & remaining]
        ok = False
        for size in range(1, k + 1):
            for block in subsets_of(remaining, size):
                if nest_ok(sub, block) and reducible(remaining & ~block, k, memo):
                    ok = True
                    break
            if ok:
                break
        memo[remaining] = ok
        return ok

    full = (1 << n) - 1
    for k in range(1, cap + 1):
        if reducible(full, k, {}):
            return k
    return None


# --- cloning and free-connex orders ------------------------------------------

def fresh_clone_name(u: str, taken: Iterable[str]) -> str:
    used = set(taken)
    candidate = u + "_c"
    while candidate in used:
        candidate += "c"
    return candidate


def clone_vertex(h: SignedHypergraph, u: str, clone_name: str | None = None) -> SignedHypergraph:
    """Add a twin of ``u`` to every edge containing ``u``, sign-preserving."""
    if u not in h.vertices:
        raise VertexNotFoundError(f"vertex {u} not in hypergraph")
    u2 = clone_name if clone_name is not None else fresh_clone_name(u, h.vertices)
    if u2 in h.vertices:
        raise ValueError(f"clone name {u2} already taken")

    def widen(edges):
        return tuple(e | {u2} if u in e else e for e in edges)

    return SignedHypergraph(h.vertices | {u2}, widen(h.pos_edges), widen(h.neg_edges))


def is_free_connex(order: EliminationOrder, s: Iterable[str]) -> bool:
    """Whether ``s`` is exactly a suffix of the elimination order."""
    block = frozenset(s)
    if not block:
        return True
    n = len(order.vars)
    if len(block) > n:
        return False
    return frozenset(order.vars[n - len(block):]) == block
