"""Shared fixtures: the worked examples, random instance generators, and the
checks, oracles and loaders that more than one test file uses."""

from __future__ import annotations

import itertools
import random
from collections.abc import Mapping
from dataclasses import dataclass

import pytest
from hypothesis import strategies as st

from cqda.circuit import Circuit, DecisionGate, ProductGate, gate_var_sets
from cqda.errors import OutOfRangeError
from cqda.query import Atom, SignedQuery, parse_query
from cqda.relations import Assignment, Database, Domain, Relation, VarOrder


def example51_db() -> Database:
    return Database(
        Domain(("0", "1")),
        {
            "S": Relation.from_rows(("c0", "c1", "c2", "c3"), [("0", "0", "0", "0")]),
            "R": Relation.from_rows(("c0", "c1"), [("0", "0"), ("0", "1"), ("1", "1"), ("1", "0")]),
            "T": Relation.from_rows(("c0", "c1"), [("0", "1"), ("1", "1")]),
        },
    )


def example51_query() -> SignedQuery:
    return parse_query("Q(x1,x2,x3,x4) :- !S(x1,x2,x3,x4), T(x1,x3), R(x2,x4).")


@pytest.fixture
def ex51():
    return example51_query(), example51_db(), VarOrder(("x1", "x2", "x3", "x4"))


def annotated_circuit() -> Circuit:
    """Three-variable circuit whose counting labels are [1,2,2], [2,4], [4,10,14].

    Top decision on x1: value 0 leads to an x2 gate over a shared x3
    gate, value 1 directly to an x3 gate with a free x2, and value 2 to
    a product of independent x2 and x3 gates.
    """
    c = Circuit(Domain(("0", "1", "2")), VarOrder(("x1", "x2", "x3")))
    top, bot = c.top(), c.bot()
    left_x3 = c.add_decision("x3", [("0", top), ("1", top), ("2", bot)])
    upper_x2 = c.add_decision("x2", [("0", left_x3), ("1", left_x3)])
    right_x3 = c.add_decision("x3", [("0", bot), ("1", top), ("2", top)])
    centre_x2 = c.add_decision("x2", [("0", top), ("1", bot), ("2", top)])
    prod = c.add_product([centre_x2, right_x3])
    out = c.add_decision("x1", [("0", upper_x2), ("1", right_x3), ("2", prod)])
    c.set_output(out)
    return c


def tree_trie(rel: Relation, perm: tuple[int, ...]) -> dict:
    """The trie of ``rel`` over columns ``perm`` as a plain tree: no node is shared.

    Same contents as ``Relation.trie``; a node's identity here names its
    path from the root, the granularity of keying by bound values.
    """
    root: dict = {}
    for row in rel.rows:
        node = root
        for col in perm:
            node = node.setdefault(row[col], {})
    return root


def validate_decomposable(c: Circuit) -> tuple[bool, list[str]]:
    """Check product disjointness and that no decision child re-tests its variable."""
    problems: list[str] = []
    var_of = gate_var_sets(c)
    for gid in var_of:
        g = c.gates[gid]
        if isinstance(g, ProductGate):
            taken: set[str] = set()
            for child in g.children:
                overlap = taken & var_of[child]
                if overlap:
                    problems.append(f"product {gid}: children share {sorted(overlap)}")
                taken |= var_of[child]
        elif isinstance(g, DecisionGate):
            for _, child in g.edges:
                if g.var in var_of[child]:
                    problems.append(f"decision {gid}: child {child} re-tests {g.var}")
    return not problems, problems


def validate_ordered(c: Circuit, order: VarOrder) -> bool:
    """True iff every decision gate tests the order-minimum of its variable set."""
    var_of = gate_var_sets(c)
    for gid, vs in var_of.items():
        g = c.gates[gid]
        if isinstance(g, DecisionGate) and vs:
            if min(vs, key=order.position) != g.var:
                return False
    return True


def load_circuit(text: str) -> Circuit:
    """The circuit a ``dump_circuit`` text describes, one gate per line in line order."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3 or not lines[0].startswith("domain ") or not lines[1].startswith("vars"):
        raise ValueError("circuit dump must start with domain and vars lines")
    domain = Domain(tuple(lines[0].split()[1:]))
    universe = VarOrder(tuple(lines[1].split()[1:]))
    c = Circuit(domain, universe)
    ids: dict[str, int] = {}
    for line in lines[2:]:
        parts = line.split()
        if parts[0] == "output":
            c.set_output(ids[parts[1]])
            return c
        name, kind = parts[0], parts[1]
        if kind == "top":
            gid = c.top()
        elif kind == "bot":
            gid = c.bot()
        elif kind == "decision":
            edges = []
            for item in parts[3:]:
                value, _, child = item.rpartition("->")
                edges.append((value, ids[child]))
            gid = c.add_decision(parts[2], edges)
        elif kind == "product":
            gid = c.add_product(ids[p] for p in parts[2:])
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
        ids[name] = gid
    raise ValueError("circuit dump has no output line")


def select_prefix(r: Relation, tau: Mapping[str, str]) -> Relation:
    """Rows of ``r`` agreeing with ``tau`` on every variable ``tau`` binds."""
    cols = [(r.column(v), d) for v, d in tau.items()]
    return Relation(r.vars, frozenset(row for row in r.rows if all(row[c] == d for c, d in cols)))


def kth_tuple_bruteforce(r: Relation, order: VarOrder, domain: Domain, k: int) -> Assignment:
    """The k-th tuple of ``r`` under the lexicographic order (1-based).

    Peels one variable at a time: bind the most significant variable to
    the smallest value whose prefix count reaches k, subtract the count
    of strictly smaller prefixes, recurse on the selected slice.
    """
    if k < 1 or k > len(r.rows):
        raise OutOfRangeError(f"k out of range (count={len(r.rows)})")
    rows = list(r.rows)
    bound: dict[str, str] = {}
    for var in order:
        if var not in r.vars:
            continue
        col = r.vars.index(var)
        tally: dict[str, int] = {}
        for row in rows:
            tally[row[col]] = tally.get(row[col], 0) + 1
        below = 0
        for d in domain.values:
            here = tally.get(d, 0)
            if below + here >= k:
                bound[var] = d
                k -= below
                rows = [row for row in rows if row[col] == d]
                break
            below += here
    return Assignment(bound)


@dataclass
class Instance:
    query: SignedQuery
    db: Database
    order: VarOrder  # significance order over the query variables


def make_instance(
    rng: random.Random,
    max_vars: int = 5,
    max_atoms: int = 4,
    max_dom: int = 4,
    max_tuples: int = 20,
    min_dom: int = 1,
) -> Instance:
    """Random signed query, database and significance order."""
    nvars = rng.randint(1, max_vars)
    pool = [f"x{i}" for i in range(nvars)]
    domain = Domain(tuple(str(i) for i in range(rng.randint(min_dom, max_dom))))
    atoms: list[Atom] = []
    relations: dict[str, Relation] = {}
    for i in range(rng.randint(1, max_atoms)):
        arity = rng.randint(1, min(3, nvars))
        args = tuple(rng.sample(pool, arity))
        symbol = f"R{i}"
        positive = rng.random() < 0.55
        full = sorted(itertools.product(domain.values, repeat=arity))
        if positive and rng.random() < 0.5:
            # dense table behind a positive atom keeps answer sets alive
            rows = frozenset(rng.sample(full, min(max_tuples, len(full))))
        else:
            cap = min(max_tuples, len(full)) if positive else min(4, len(full))
            rows = frozenset(
                tuple(rng.choice(domain.values) for _ in range(arity))
                for _ in range(rng.randint(0, cap))
            )
        relations[symbol] = Relation(tuple(f"c{j}" for j in range(arity)), rows)
        atoms.append(Atom(positive, symbol, args))
    used = sorted({v for a in atoms for v in a.args})
    rng.shuffle(used)
    return Instance(SignedQuery(tuple(atoms)), Database(domain, relations), VarOrder(tuple(used)))


@st.composite
def instances(draw, max_vars=4, max_atoms=3, max_dom=3, max_tuples=8, min_dom=1) -> Instance:
    seed = draw(st.integers(0, 2**48))
    return make_instance(random.Random(seed), max_vars, max_atoms, max_dom, max_tuples, min_dom)


@st.composite
def hypergraphs(draw, max_vertices=6, max_edges=5):
    from cqda.hypergraph import Hypergraph

    n = draw(st.integers(1, max_vertices))
    verts = tuple(f"v{i}" for i in range(n))
    edges = draw(
        st.lists(
            st.sets(st.sampled_from(verts), min_size=1), min_size=0, max_size=max_edges
        )
    )
    return Hypergraph.of(verts, edges)
