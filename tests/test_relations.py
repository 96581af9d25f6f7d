import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import kth_tuple_bruteforce, select_prefix, tree_trie
from cqda.errors import OutOfRangeError
from cqda.relations import (
    Assignment,
    Database,
    Domain,
    Relation,
    VarOrder,
    join,
    lex_compare,
    sort_lex,
)

D2 = Domain(("0", "1"))
D3 = Domain(("a", "b", "c"))


def rel(vars, rows):
    return Relation.from_rows(vars, rows)


def assignments(r: Relation) -> set[Assignment]:
    return {Assignment(zip(r.vars, row)) for row in r.rows}


def test_domain_order_is_declaration_order():
    d = Domain(("z", "a"))
    assert d.rank("z") == 1 and d.rank("a") == 2
    with pytest.raises(ValueError):
        Domain(("a", "a"))


def test_domain_rank_names_a_value_outside_it():
    with pytest.raises(ValueError, match="'d' outside the domain"):
        D3.rank("d")


def test_database_names_a_value_outside_the_domain():
    with pytest.raises(ValueError, match="relation R: value 'd' outside the domain"):
        Database(D3, {"S": rel(("c0",), [("a",)]), "R": rel(("c0", "c1"), [("a", "b"), ("c", "d")])})
    # of several, the least by repr, whatever the set's hash order
    with pytest.raises(ValueError, match="relation R: value 'd' outside the domain"):
        Database(D3, {"R": rel(("c0",), [("z",), ("d",), ("q",)])})
    assert Database(D3, {"R": rel(("c0", "c1"), [("a", "b"), ("c", "c")])}).size == 5


def test_join_forced_compatibility():
    r1 = rel(("x",), [("a",)])
    r2 = rel(("x", "y"), [("a", "b")])
    assert join(r1, r2) == rel(("x", "y"), [("a", "b")])


def test_join_disjoint_is_cartesian():
    r1 = rel(("x",), [("0",), ("1",)])
    r2 = rel(("y",), [("a",), ("b",), ("c",)])
    assert len(join(r1, r2)) == 6


def test_join_example_tables():
    t = rel(("x1", "x3"), [("0", "1"), ("1", "1")])
    r = rel(("x2", "x4"), list(itertools.product("01", repeat=2)))
    joined = join(t, r)
    assert len(joined) == 8
    # independent oracle: enumerate and filter
    expected = {
        (a + b)
        for a in t.rows
        for b in r.rows
    }
    assert {row for row in joined.rows} == {ta + rb for ta in t.rows for rb in r.rows}


def test_select_prefix():
    r = rel(("x2", "x4"), list(itertools.product("01", repeat=2)))
    assert select_prefix(r, {}) == r
    assert len(select_prefix(r, {"x2": "0"})) == 2
    assert len(select_prefix(r, {"x2": "z"})) == 0


def test_lex_compare_first_variable_dominates():
    order = VarOrder(("x", "y"))
    dom = Domain(tuple(str(i) for i in range(10)))
    t1 = Assignment({"x": "0", "y": "9"})
    t2 = Assignment({"x": "1", "y": "0"})
    assert lex_compare(t1, t1, order, dom) == 0
    assert lex_compare(t1, t2, order, dom) == -1
    assert lex_compare(t1, t2, VarOrder(("y", "x")), dom) == 1


def test_kth_tuple_bounds():
    r = rel(("x",), [("0",), ("1",)])
    order = VarOrder(("x",))
    assert kth_tuple_bruteforce(r, order, D2, 1) == Assignment({"x": "0"})
    assert kth_tuple_bruteforce(r, order, D2, 2) == Assignment({"x": "1"})
    with pytest.raises(OutOfRangeError):
        kth_tuple_bruteforce(r, order, D2, 3)
    with pytest.raises(OutOfRangeError):
        kth_tuple_bruteforce(r, order, D2, 0)


@st.composite
def random_relation(draw):
    nvars = draw(st.integers(1, 5))
    vars = tuple(f"x{i}" for i in range(nvars))
    dsize = draw(st.integers(1, 4))
    dom = Domain(tuple(str(i) for i in range(dsize)))
    rows = draw(
        st.sets(st.tuples(*[st.sampled_from(dom.values)] * nvars), max_size=30)
    )
    perm = draw(st.permutations(vars))
    return Relation(vars, frozenset(rows)), VarOrder(tuple(perm)), dom


@given(random_relation())
def test_kth_matches_full_sort_and_is_increasing(data):
    r, order, dom = data
    expected = sort_lex(r, order, dom)
    got = [kth_tuple_bruteforce(r, order, dom, k) for k in range(1, len(r) + 1)]
    assert got == expected
    for a, b in zip(got, got[1:]):
        assert lex_compare(a, b, order, dom) == -1


@given(random_relation())
def test_prefix_decomposition_identity(data):
    # the defining property of the k-th tuple: value of the most
    # significant variable is the least d whose prefix count reaches k
    r, order, dom = data
    if not r.rows:
        return
    x = next(v for v in order if v in r.vars)
    for k in range(1, len(r) + 1):
        t = kth_tuple_bruteforce(r, order, dom, k)
        counts = lambda d: len(select_prefix(r, {x: d}))
        below = sum(counts(d) for d in dom.values if dom.rank(d) < dom.rank(t[x]))
        at = below + counts(t[x])
        assert below < k <= at


@given(instances_seed=st.integers(0, 2**32))
def test_join_associative_commutative(instances_seed):
    rng = random.Random(instances_seed)
    dom = Domain(("0", "1", "2"))
    def rand_rel(vars):
        return Relation(
            vars,
            frozenset(
                tuple(rng.choice(dom.values) for _ in vars)
                for _ in range(rng.randint(0, 6))
            ),
        )
    r1 = rand_rel(("x", "y"))
    r2 = rand_rel(("y", "z"))
    r3 = rand_rel(("z", "w"))
    ab = join(r1, r2)
    ba = join(r2, r1)
    assert assignments(ab) == assignments(ba)
    left = join(join(r1, r2), r3)
    right = join(r1, join(r2, r3))
    assert assignments(left) == assignments(right)


@given(random_relation())
@settings(max_examples=100)
def test_trie_is_the_tree_with_equal_subtries_shared(data):
    r, order, _ = data
    perm = tuple(r.vars.index(v) for v in order)
    trie = r.trie(perm)
    assert trie == tree_trie(r, perm)
    assert r.trie(perm) is trie
    level = [trie]
    for _ in range(len(perm) + 1):
        # equal subtries sit at one depth, and there they are one object
        for a in level:
            for b in level:
                assert (a is b) == (a == b)
        level = [child for node in level for child in node.values()]
    assert not level
