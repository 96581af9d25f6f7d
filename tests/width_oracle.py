"""Set-based reference for covers and widths, straight from the definitions.

``cqda.hypergraph`` computes every cover number and width on bitmask
tables; the tests compare it with this walk, which removes one vertex at
a time from frozenset hypergraphs and searches covers over frozensets.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from fractions import Fraction

from cqda.errors import BudgetExceededError, UncoverableError, VertexNotFoundError
from cqda.hypergraph import DEFAULT_BUDGET, Budget, Hypergraph, SignedHypergraph


def neighbourhood(h: Hypergraph, v: str) -> frozenset[str]:
    """Union of the edges containing ``v`` (``v`` included when covered)."""
    out: set[str] = set()
    for e in h.edges:
        if v in e:
            out |= e
    return frozenset(out)


def remove_vertex(h: Hypergraph, v: str) -> Hypergraph:
    """``H/v``: drop ``v`` everywhere, add its open neighbourhood as an edge."""
    if v not in h.vertices:
        raise VertexNotFoundError(f"vertex {v} not in hypergraph")
    open_nb = neighbourhood(h, v) - {v}
    edges = [e - {v} for e in h.edges if e - {v}]
    edges.append(open_nb)
    # drop duplicates and the empty open neighbourhood of an isolated vertex
    seen: list[frozenset[str]] = []
    for e in edges:
        if e and e not in seen:
            seen.append(e)
    return Hypergraph(h.vertices - {v}, tuple(seen))


def _dedupe(edges: Sequence[frozenset[str]]) -> list[frozenset[str]]:
    out: list[frozenset[str]] = []
    for e in edges:
        if e not in out:
            out.append(e)
    return out


def _covering(s: Iterable[str], edges: Sequence[frozenset[str]]) -> tuple[frozenset[str], list[frozenset[str]]]:
    need = frozenset(s)
    family = [e & need for e in _dedupe([frozenset(e) for e in edges])]
    family = [e for e in family if e]
    covered = frozenset().union(*family)
    if not need <= covered:
        raise UncoverableError(f"{sorted(need - covered)} not covered by any edge")
    return need, family


def cover_number(s: Iterable[str], edges: Sequence[frozenset[str]], budget: Budget = DEFAULT_BUDGET) -> int:
    """Minimum number of edges whose union contains ``s``, by exhaustive search."""
    need, family = _covering(s, edges)
    if not need:
        return 0
    # branch on an uncovered element; every cover uses some edge containing it
    best = len(family)
    states = 0

    def search(uncovered: frozenset[str], used: int) -> None:
        nonlocal best, states
        states += 1
        if states > budget.max_states:
            raise BudgetExceededError("cover search exceeded the state budget")
        if used >= best:
            return
        if not uncovered:
            best = used
            return
        pivot = min(uncovered)
        for e in family:
            if pivot in e:
                search(uncovered - e, used + 1)

    search(need, 0)
    return best


def simplex_max(constraints: list[list[Fraction]], rhs: list[Fraction], objective: list[Fraction]) -> Fraction:
    """Maximise ``objective . y`` subject to ``constraints . y <= rhs``, y >= 0.

    Standard tableau simplex over ``Fraction`` entries with Bland's rule,
    so termination is guaranteed.  The slack basis must be feasible,
    which holds when every right-hand side is nonnegative.
    """
    m, n = len(constraints), len(objective)
    # tableau rows: [A | I | b]; the cost row tracks reduced costs and,
    # in its last entry, the current objective value
    tab = [constraints[i][:] + [Fraction(int(i == j)) for j in range(m)] + [rhs[i]] for i in range(m)]
    cost = [-c for c in objective] + [Fraction(0)] * (m + 1)
    basis = [n + i for i in range(m)]
    while True:
        # Bland's rule: smallest improving column, smallest basic row on ties
        col = next((j for j in range(n + m) if cost[j] < 0), None)
        if col is None:
            return cost[-1]
        row, best = None, None
        for i in range(m):
            if tab[i][col] > 0:
                ratio = tab[i][-1] / tab[i][col]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    row, best = i, ratio
        if row is None:
            raise UncoverableError("unbounded covering dual")
        piv = tab[row][col]
        tab[row] = [x / piv for x in tab[row]]
        for i in range(m):
            if i != row and tab[i][col]:
                f = tab[i][col]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[row])]
        if cost[col]:
            f = cost[col]
            cost = [a - f * b for a, b in zip(cost, tab[row])]
        basis[row] = col


def fractional_cover_number(s: Iterable[str], edges: Sequence[frozenset[str]]) -> Fraction:
    """Optimum of the packing dual: one variable per vertex of ``s``, one row per edge."""
    need, family = _covering(s, edges)
    if not need:
        return Fraction(0)
    members = sorted(need)
    rows = [[Fraction(int(v in e)) for v in members] for e in family]
    return simplex_max(rows, [Fraction(1)] * len(family), [Fraction(1)] * len(members))


def step_sets(h: Hypergraph, order: Sequence[str]) -> Iterable[frozenset[str]]:
    """Neighbourhood of each removed vertex at its removal, in order."""
    current = h
    for v in order:
        yield neighbourhood(current, v)
        current = remove_vertex(current, v)


def family(h: Hypergraph | SignedHypergraph, kind: str) -> list[Hypergraph]:
    """The hypergraphs a width measure maximises over."""
    if kind in ("show", "sfhow"):
        pos, neg = (h.pos_edges, h.neg_edges) if isinstance(h, SignedHypergraph) else (h.edges, ())
        keep = [pos + c for r in range(len(neg) + 1) for c in itertools.combinations(neg, r)]
    else:
        plain = h.unsigned() if isinstance(h, SignedHypergraph) else h
        if kind in ("bhow", "bfhow"):
            keep = [c for r in range(len(plain.edges) + 1) for c in itertools.combinations(plain.edges, r)]
        else:
            keep = [plain.edges]
    return [Hypergraph(h.vertices, edges) for edges in keep]


def width_of_order(h: Hypergraph | SignedHypergraph, kind: str, order: Iterable[str]):
    """Worst cover number over the family and the elimination steps of ``order``."""
    fractional = kind in ("fhow", "sfhow", "bfhow")
    cover = fractional_cover_number if fractional else cover_number
    width = Fraction(0) if fractional else 0
    for g in family(h, kind):
        for nb in step_sets(g, list(order)):
            width = max(width, cover(nb, g.edges))
    return width
