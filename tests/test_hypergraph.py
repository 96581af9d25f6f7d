import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import width_oracle as oracle
from conftest import example51_query, hypergraphs, instances
from cqda import hypergraph
from cqda.errors import BudgetExceededError, UncoverableError, VertexNotFoundError
from cqda.hypergraph import (
    Budget,
    Hypergraph,
    SignedHypergraph,
    best_order,
    beta_elim_order,
    bfhow_width,
    bhow_width,
    bhtw_bruteforce,
    clone_vertex,
    cover_number,
    fhow_width,
    fractional_cover_number,
    how_width,
    is_free_connex,
    is_nest_point,
    is_nest_set,
    nsw_bruteforce,
    show_width,
    sfhow_width,
    width_of_order,
)
from cqda.query import eval_bruteforce, hypergraph_of, parse_query
from cqda.relations import VarOrder

TRIANGLE = Hypergraph.of("abc", [{"a", "b"}, {"b", "c"}, {"a", "c"}])
TRI_FULL = Hypergraph.of("abc", [{"a", "b"}, {"b", "c"}, {"a", "c"}, {"a", "b", "c"}])


def edge_set(h):
    return {frozenset(e) for e in h.edges}


def test_remove_vertex_triangle():
    out = oracle.remove_vertex(TRIANGLE, "a")
    assert out.vertices == {"b", "c"}
    assert edge_set(out) == {frozenset({"b"}), frozenset({"c"}), frozenset({"b", "c"})}


def test_remove_vertex_single_edge():
    h = Hypergraph.of("abc", [{"a", "b", "c"}])
    out = oracle.remove_vertex(h, "b")
    assert edge_set(out) == {frozenset({"a", "c"})}


def test_remove_isolated_vertex():
    h = Hypergraph.of("ab", [{"a"}])
    out = oracle.remove_vertex(h, "b")
    assert edge_set(out) == {frozenset({"a"})}
    with pytest.raises(VertexNotFoundError):
        oracle.remove_vertex(out, "b")


def test_cover_number():
    assert cover_number([], TRIANGLE.edges) == 0
    assert cover_number("abc", TRIANGLE.edges) == 2
    assert cover_number({"a", "b"}, TRIANGLE.edges) == 1
    with pytest.raises(UncoverableError):
        cover_number({"z"}, TRIANGLE.edges)


def test_fractional_cover_number():
    assert fractional_cover_number("abc", TRIANGLE.edges) == Fraction(3, 2)
    assert fractional_cover_number({"a", "b"}, TRIANGLE.edges) == 1
    pairs = [frozenset(p) for p in itertools.combinations("abcd", 2)]
    assert fractional_cover_number("abcd", pairs) == 2


def test_how_width_examples():
    single = Hypergraph.of("ab", [{"a", "b"}])
    assert how_width(single, VarOrder(("a", "b"))) == 1
    for perm in itertools.permutations("abc"):
        assert how_width(TRIANGLE, VarOrder(perm)) == 2
        assert fhow_width(TRIANGLE, VarOrder(perm)) == Fraction(3, 2)
        assert how_width(TRI_FULL, VarOrder(perm)) == 1
        assert fhow_width(TRI_FULL, VarOrder(perm)) == 1
    # removing b leaves the fill edge {a, c}, so a's neighbourhood needs three edges
    fill = Hypergraph.of("abcde", [{"a", "b"}, {"b", "c"}, {"a", "d"}, {"a", "e"}])
    assert how_width(fill, VarOrder(tuple("bacde"))) == 3


def test_show_width_example51():
    h = hypergraph_of(example51_query())
    order = VarOrder(("x4", "x3", "x2", "x1"))
    assert show_width(h, order) == max(
        how_width(Hypergraph(h.vertices, h.pos_edges), order),
        how_width(Hypergraph(h.vertices, h.pos_edges + h.neg_edges), order),
    )
    assert show_width(h, order) == 1


def test_show_reduces_to_how_without_negatives():
    h = SignedHypergraph.of("abc", TRIANGLE.edges, [])
    for perm in itertools.permutations("abc"):
        assert show_width(h, VarOrder(perm)) == how_width(TRIANGLE, VarOrder(perm))


def test_show_equals_bhow_when_all_negative():
    h = SignedHypergraph.of("abc", [], TRIANGLE.edges)
    for perm in itertools.permutations("abc"):
        order = VarOrder(perm)
        assert show_width(h, order) == bhow_width(TRIANGLE, order)
        assert sfhow_width(h, order) == bfhow_width(TRIANGLE, order)


def test_bhow_examples():
    assert bhow_width(Hypergraph.of("ab", [{"a", "b"}]), VarOrder(("a", "b"))) == 1
    for perm in itertools.permutations("abc"):
        assert bhow_width(TRI_FULL, VarOrder(perm)) == 2
    star = Hypergraph.of("0123", [{"0", "1"}, {"0", "2"}, {"0", "3"}])
    order, width, exact = best_order(star, "bhow")
    assert exact and width == 1


def test_budget_exceeded():
    edges = [frozenset({f"v{i}"}) for i in range(25)]
    h = Hypergraph.of({f"v{i}" for i in range(25)}, edges)
    with pytest.raises(BudgetExceededError):
        bhow_width(h, VarOrder(tuple(sorted(h.vertices))), Budget(max_states=4))


def test_bhtw_bruteforce():
    assert bhtw_bruteforce(Hypergraph.of("ab", [{"a", "b"}])) == 1
    assert bhtw_bruteforce(TRI_FULL) == 2
    assert bhtw_bruteforce(Hypergraph.of("abc", [{"a", "b"}, {"b", "c"}])) == 1


def test_nest_points():
    single = Hypergraph.of("ab", [{"a", "b"}])
    assert is_nest_point(single, "a")
    for v in "abc":
        assert not is_nest_point(TRIANGLE, v)
    assert beta_elim_order(TRIANGLE) is None

    star_full = Hypergraph.of("0123", [{"0", "1"}, {"0", "2"}, {"0", "3"}, {"0", "1", "2", "3"}])
    order = beta_elim_order(star_full)
    assert order is not None
    # eliminating everything else first leaves the centre as a nest point
    assert _valid_beta_order(star_full, VarOrder(("1", "2", "3", "0")))


def _valid_beta_order(h, order):
    from cqda.hypergraph import _drop_vertices

    gone = set()
    for v in order:
        if not is_nest_point(_drop_vertices(h, gone), v):
            return False
        gone.add(v)
    return True


def test_nest_sets():
    assert is_nest_set(TRIANGLE, {"a", "b"})
    assert is_nest_set(TRIANGLE, TRIANGLE.vertices)
    assert nsw_bruteforce(TRIANGLE) == 2
    star_full = Hypergraph.of("0123", [{"0", "1"}, {"0", "2"}, {"0", "3"}, {"0", "1", "2", "3"}])
    assert nsw_bruteforce(star_full) == 1  # beta-acyclic
    assert nsw_bruteforce(TRIANGLE, k_max=1) is None


def test_clone_vertex():
    h = SignedHypergraph.of("abc", [{"a", "b"}, {"b", "c"}, {"a", "c"}], [])
    out = clone_vertex(h, "a", "a2")
    assert edge_set(Hypergraph(out.vertices, out.pos_edges)) == {
        frozenset({"a", "a2", "b"}),
        frozenset({"b", "c"}),
        frozenset({"a", "a2", "c"}),
    }
    lonely = SignedHypergraph.of("ab", [{"b"}], [])
    out = clone_vertex(lonely, "a", "a2")
    assert out.vertices == {"a", "b", "a2"}
    assert edge_set(Hypergraph(out.vertices, out.pos_edges)) == {frozenset({"b"})}
    with pytest.raises(VertexNotFoundError):
        clone_vertex(h, "zz")


def test_best_order_triangle():
    _, width, exact = best_order(TRIANGLE, "how")
    assert (width, exact) == (2, True)
    order, width, exact = best_order(hypergraph_of(example51_query()), "show")
    assert exact
    # exhaustive check over all 24 orders
    h = hypergraph_of(example51_query())
    best = min(show_width(h, VarOrder(p)) for p in itertools.permutations(sorted(h.vertices)))
    assert width == best == show_width(h, order)


def test_best_order_greedy_on_large_instance():
    verts = [f"v{i}" for i in range(12)]
    edges = [{verts[i], verts[i + 1]} for i in range(11)]
    order, width, exact = best_order(Hypergraph.of(verts, edges), "how")
    assert not exact
    assert width >= 1  # honest upper bound, still a real width of some order
    assert width == how_width(Hypergraph.of(verts, edges), order)


def test_is_free_connex():
    order = VarOrder(("a", "b", "c"))
    assert is_free_connex(order, {"a", "b", "c"})
    assert is_free_connex(order, set())
    assert is_free_connex(order, {"c"})
    assert not is_free_connex(order, {"a", "c"})


@given(hypergraphs(max_vertices=6, max_edges=5))
@settings(max_examples=30, deadline=None)
def test_hereditary_width_chain(h):
    _, bhow, exact = best_order(h, "bhow")
    assert exact
    assert bhtw_bruteforce(h) <= bhow <= nsw_bruteforce(h)
    assert (bhow <= 1) == (beta_elim_order(h) is not None)


def test_nest_set_vertex_cap():
    verts = [f"v{i}" for i in range(11)]
    with pytest.raises(BudgetExceededError):
        nsw_bruteforce(Hypergraph.of(verts, [set(verts)]))


@given(hypergraphs(max_vertices=5, max_edges=4))
@settings(max_examples=50, deadline=None)
def test_monotonicity_and_edge_permutation(h):
    rng = random.Random(17)
    order = VarOrder(tuple(sorted(h.vertices)))
    shuffled = list(h.edges)
    rng.shuffle(shuffled)
    assert how_width(h, order) == how_width(Hypergraph(h.vertices, tuple(shuffled)), order)
    assert fhow_width(h, order) == fhow_width(Hypergraph(h.vertices, tuple(shuffled)), order)
    if h.edges:
        covered = frozenset().union(*h.edges)
        target = set(rng.sample(sorted(covered), min(3, len(covered))))
        frac = fractional_cover_number(target, h.edges)
        whole = cover_number(target, h.edges)
        assert frac <= whole
        # nondecreasing in the target, nonincreasing in the family
        smaller = set(list(target)[:-1])
        assert fractional_cover_number(smaller, h.edges) <= frac
        assert cover_number(target, h.edges + (covered,)) <= whole


@given(hypergraphs(max_vertices=5, max_edges=4))
@settings(max_examples=40, deadline=None)
def test_cloning_preserves_width(h):
    rng = random.Random(23)
    u = rng.choice(sorted(h.vertices))
    signed = SignedHypergraph(h.vertices, h.edges, ())
    cloned = clone_vertex(signed, u, "uclone")
    perm = sorted(h.vertices)
    rng.shuffle(perm)
    order = VarOrder(tuple(perm))
    after = VarOrder(tuple(v for x in perm for v in ((x, "uclone") if x == u else (x,))))
    plain = Hypergraph(cloned.vertices, cloned.pos_edges)
    assert how_width(h, order) == how_width(plain, after)
    assert fhow_width(h, order) == fhow_width(plain, after)


@given(hypergraphs(max_vertices=4, max_edges=4))
@settings(max_examples=30, deadline=None)
def test_cloning_preserves_signed_width(h):
    rng = random.Random(29)
    edges = list(h.edges)
    half = len(edges) // 2
    signed = SignedHypergraph(h.vertices, tuple(edges[:half]), tuple(edges[half:]))
    u = rng.choice(sorted(h.vertices))
    cloned = clone_vertex(signed, u, "uclone")
    perm = sorted(h.vertices)
    rng.shuffle(perm)
    order = VarOrder(tuple(perm))
    after = VarOrder(tuple(v for x in perm for v in ((x, "uclone") if x == u else (x,))))
    assert show_width(signed, order) == show_width(cloned, after)
    assert sfhow_width(signed, order) == sfhow_width(cloned, after)


@given(hypergraphs(max_vertices=4, max_edges=3))
@settings(max_examples=25, deadline=None)
def test_best_order_matches_permutation_enumeration(h):
    for kind in ("how", "fhow", "bhow", "bfhow"):
        _, width, exact = best_order(h, kind)
        assert exact
        brute = min(oracle.width_of_order(h, kind, perm) for perm in itertools.permutations(sorted(h.vertices)))
        assert width == brute


@given(hypergraphs(max_vertices=4, max_edges=4))
@settings(max_examples=20, deadline=None)
def test_best_order_signed_matches_permutation_enumeration(h):
    edges = list(h.edges)
    signed = SignedHypergraph(h.vertices, tuple(edges[: len(edges) // 2]), tuple(edges[len(edges) // 2:]))
    for kind in ("show", "sfhow"):
        _, width, exact = best_order(signed, kind)
        assert exact
        brute = min(oracle.width_of_order(signed, kind, perm) for perm in itertools.permutations(sorted(h.vertices)))
        assert width == brute


@st.composite
def signed_orders(draw):
    """Edges of at most three vertices with random signs, and a random order of some of the vertices."""
    verts = [f"v{i}" for i in range(draw(st.integers(1, 6)))]
    edges = draw(st.lists(st.sets(st.sampled_from(verts), min_size=1, max_size=3), max_size=5))
    signs = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    signed = SignedHypergraph.of(
        verts, [e for e, s in zip(edges, signs) if s], [e for e, s in zip(edges, signs) if not s]
    )
    perm = draw(st.permutations(verts))
    return signed, VarOrder(tuple(perm[: draw(st.integers(len(perm) // 2, len(perm)))]))


@given(signed_orders())
@settings(max_examples=150, deadline=None)
def test_width_of_order_matches_set_based_walk(case):
    signed, order = case
    for kind in ("how", "fhow", "show", "sfhow", "bhow", "bfhow"):
        assert width_of_order(signed, kind, order) == oracle.width_of_order(signed, kind, order), kind


@st.composite
def packing_systems(draw):
    """0/1 rows over ``n`` variables, every variable in some row, with copies and parts of rows."""
    n = draw(st.integers(1, 6))
    full = (1 << n) - 1
    rows = draw(st.lists(st.integers(1, full), min_size=1, max_size=8))
    # copies of drawn rows (when r & part is r or empty) and rows they dominate (a proper part)
    for _ in range(draw(st.integers(0, 8 - len(rows)))):
        r, part = draw(st.sampled_from(rows)), draw(st.integers(0, full))
        rows.append(r & part or r)
    covered = 0
    for r in rows:
        covered |= r
    rows[-1] |= full & ~covered
    return draw(st.permutations(rows)), n


@given(packing_systems())
@settings(max_examples=300, deadline=None)
def test_packing_max_matches_fraction_simplex(system):
    # every right-hand side is 1, so every first ratio test is a tie
    rows, n = system
    dense = [[Fraction(r >> j & 1) for j in range(n)] for r in rows]
    expected = oracle.simplex_max(dense, [Fraction(1)] * len(rows), [Fraction(1)] * n)
    got = hypergraph._packing_max(rows, n)
    assert type(got) is Fraction and got == expected


@given(hypergraphs(max_vertices=5, max_edges=4), st.data())
@settings(max_examples=60, deadline=None)
def test_cover_numbers_match_set_based_search(h, data):
    target = data.draw(st.sets(st.sampled_from(sorted(h.vertices))))
    try:
        expected = (oracle.cover_number(target, h.edges), oracle.fractional_cover_number(target, h.edges))
    except UncoverableError:
        with pytest.raises(UncoverableError):
            cover_number(target, h.edges)
        with pytest.raises(UncoverableError):
            fractional_cover_number(target, h.edges)
        return
    assert (cover_number(target, h.edges), fractional_cover_number(target, h.edges)) == expected


def test_width_of_order_rejects_foreign_and_repeated_vertices():
    signed = SignedHypergraph.of("abc", TRIANGLE.edges, [])
    for kind in ("how", "show", "bfhow"):
        with pytest.raises(VertexNotFoundError):
            width_of_order(signed, kind, VarOrder(("a", "z")))
        with pytest.raises(VertexNotFoundError):
            width_of_order(signed, kind, ("a", "b", "a"))
    with pytest.raises(VertexNotFoundError):
        how_width(TRIANGLE, VarOrder(("z",)))


def _module_memos() -> dict[str, int]:
    return {name: len(v) for name, v in vars(hypergraph).items() if isinstance(v, (dict, list, set))}


def test_width_of_order_builds_its_own_tables(monkeypatch):
    h = hypergraph_of(example51_query())
    best_order(h, "show")
    before = dict(hypergraph._FAMILY_TABLES)
    for kind in ("how", "fhow", "show", "sfhow", "bhow", "bfhow"):
        width_of_order(h, kind, VarOrder(tuple(sorted(h.vertices))))
    assert hypergraph._FAMILY_TABLES == before

    # the star of the serve benchmark: within one call, one LP per covering
    # family (the distinct nonempty parts e & need), and nothing kept after it
    serve = hypergraph_of(parse_query("Q(*) :- C(x), R1(x,y1), R2(x,y2), R3(x,y3), !N1(y1), !N2(y2)."))
    order, width, _ = best_order(serve, "bfhow")
    families = set()
    for g in oracle.family(serve, "bfhow"):
        for nb in oracle.step_sets(g, list(order)):
            if nb:
                families.add(frozenset(e & nb for e in g.edges if e & nb))
    calls = []
    solve = hypergraph._packing_max
    monkeypatch.setattr(hypergraph, "_packing_max", lambda rows, n: calls.append(rows) or solve(rows, n))
    before, memos = dict(hypergraph._FAMILY_TABLES), _module_memos()
    counts = []
    for _ in range(2):
        calls.clear()
        assert width_of_order(serve, "bfhow", order) == width
        counts.append(len(calls))
    assert 0 < counts[0] <= len(families) and counts[1] == counts[0]
    assert hypergraph._FAMILY_TABLES == before and _module_memos() == memos


@given(instances(max_vars=4, max_atoms=3, max_dom=3))
@settings(max_examples=40, deadline=None)
def test_answer_count_bounded_by_fractional_cover(inst):
    # counting version of the fractional-cover output bound
    q, db = inst.query, inst.db
    positive = [a for a in q.atoms if a.positive]
    if not positive:
        return
    edges = [a.var_set for a in positive]
    if not q.variables <= frozenset().union(*edges):
        return
    from cqda.query import SignedQuery

    pos_q = SignedQuery(tuple(positive))
    count = len(eval_bruteforce(pos_q, db).rows)
    lam = fractional_cover_number(q.variables, edges)
    assert count ** lam.denominator <= db.size ** lam.numerator
