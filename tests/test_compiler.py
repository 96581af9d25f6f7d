import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import example51_db, example51_query, instances
from cqda.circuit import BotGate, DecisionGate, ProductGate, validate_decomposable, validate_ordered
from cqda.compiler import (
    BinCodec,
    binarize,
    bits_needed,
    compile_binarized,
    debin_tuple,
    dpll_compile,
)
from cqda.errors import RankOutOfDomainError
from cqda.hypergraph import Hypergraph, fhow_width, show_width
from cqda.query import Atom, SignedQuery, eval_bruteforce, hypergraph_of, parse_query
from cqda.relations import Assignment, Database, Domain, Relation, VarOrder, sort_lex
from cqda.access import count, direct_access, preprocess


def test_compile_example51_shares_and_multiplies(ex51):
    q, db, order = ex51
    circuit, stats = dpll_compile(q, db, order.reversed())
    assert count(circuit, preprocess(circuit)) == 8
    assert stats.cache_hits >= 1
    assert any(isinstance(g, ProductGate) for g in circuit.gates)


def test_compile_empty_positive_relation():
    from cqda.circuit import BotGate

    db = Database(Domain(("0", "1")), {"R": Relation.from_rows(("c0",), [])})
    q = parse_query("Q(*) :- R(x).")
    circuit, stats = dpll_compile(q, db, VarOrder(("x",)))
    assert isinstance(circuit.gates[circuit.output], BotGate)
    assert count(circuit, preprocess(circuit)) == 0
    assert circuit_edges(circuit) == 0


def circuit_edges(c):
    from cqda.circuit import circuit_size

    return circuit_size(c)


def test_compile_disconnected_query_makes_product():
    db = Database(
        Domain(("0", "1")),
        {
            "A": Relation.from_rows(("c0",), [("0",)]),
            "B": Relation.from_rows(("c0",), [("0",), ("1",)]),
        },
    )
    q = parse_query("Q(*) :- A(x1), B(x2).")
    circuit, _ = dpll_compile(q, db, VarOrder(("x2", "x1")))
    assert isinstance(circuit.gates[circuit.output], ProductGate)
    assert count(circuit, preprocess(circuit)) == 2


def test_empty_component_ends_the_product():
    # at x=a the S/N component excludes its only z value, so the R component is never compiled
    db = Database(
        Domain(("a", "b")),
        {
            "S": Relation.from_rows(("c0", "c1"), [("a", "a"), ("b", "a")]),
            "N": Relation.from_rows(("c0", "c1"), [("a", "a")]),
            "R": Relation.from_rows(("c0", "c1"), [("a", "a"), ("b", "a")]),
        },
    )
    q = parse_query("Q(*) :- S(x,z), !N(x,z), R(x,y).")
    circuit, stats = dpll_compile(q, db, VarOrder(("x", "y", "z")).reversed())
    assert len(circuit.reachable()) == len(circuit.gates)
    assert stats.rec_calls == 4
    assert count(circuit, preprocess(circuit)) == 1


def test_compile_order_contract(ex51):
    q, db, order = ex51
    circuit, _ = dpll_compile(q, db, order.reversed())
    ok, problems = validate_decomposable(circuit)
    assert ok, problems
    assert validate_ordered(circuit, order)


def test_bits_needed():
    assert [bits_needed(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [1, 1, 2, 2, 3, 3, 4]


def figure_db():
    dom = Domain(tuple(str(i) for i in range(4)))
    return Database(
        dom,
        {
            "A": Relation.from_rows(("c0",), [("0",), ("1",), ("2",)]),
            "B": Relation.from_rows(("c0",), [("1",), ("2",), ("3",)]),
            "R": Relation.from_rows(("c0", "c1"), [(str(i), str(i)) for i in range(4)]),
        },
    )


def test_binarize_figure_tables():
    db = figure_db()
    q = parse_query("Q(*) :- A(x1), B(x2), !R(x1,x2).")
    bdb, bq, border, codec = binarize(db, q, VarOrder(("x1", "x2")))
    assert codec.bits == 2
    assert bdb.relations["A"].rows == {("0", "0"), ("1", "0"), ("0", "1")}
    assert bdb.relations["B"].rows == {("1", "0"), ("0", "1"), ("1", "1")}
    assert bdb.relations["R"].rows == {
        ("0", "0", "0", "0"),
        ("1", "0", "1", "0"),
        ("0", "1", "0", "1"),
        ("1", "1", "1", "1"),
    }
    # most significant bit first, per variable
    assert border.vars == ("x1^2", "x1^1", "x2^2", "x2^1")


def test_binarize_binary_domain_is_renaming():
    db = example51_db()
    q = example51_query()
    bdb, bq, border, codec = binarize(db, q, VarOrder(("x1", "x2", "x3", "x4")))
    assert codec.bits == 1
    assert {len(r.rows) for r in bdb.relations.values()} == {
        len(db.relations[n].rows) for n in db.relations
    }
    assert border.vars == ("x1^1", "x2^1", "x3^1", "x4^1")


def test_debin_examples():
    dom = Domain(("a", "b", "c"))
    codec = BinCodec(dom, 2, ("x",))
    assert debin_tuple({"x^1": "0", "x^2": "0"}, codec) == Assignment({"x": "a"})
    assert debin_tuple({"x^1": "0", "x^2": "1"}, codec) == Assignment({"x": "c"})
    with pytest.raises(RankOutOfDomainError):
        debin_tuple({"x^1": "1", "x^2": "1"}, codec)
    for value in dom.values:
        bits = codec.encode_value(value)
        assert codec.decode_value(bits) == value
    with pytest.raises(ValueError, match="only some bits"):
        debin_tuple({"x^1": "0"}, codec)
    assert debin_tuple({"y^1": "0"}, codec) == Assignment({})


def test_codec_tables():
    codec = BinCodec(Domain(("a", "b", "c")), 2, ("x", "y"))
    assert codec.bit_names == {"x": ("x^1", "x^2"), "y": ("y^1", "y^2")}
    assert codec.values == {("0", "0"): "a", ("1", "0"): "b", ("0", "1"): "c"}
    assert codec.encode_assignment({"x": "b", "y": "c"}) == Assignment(
        {"x^1": "1", "x^2": "0", "y^1": "0", "y^2": "1"}
    )
    with pytest.raises(ValueError, match="not encoded"):
        codec.encode_assignment({"z": "a"})
    with pytest.raises(RankOutOfDomainError):
        codec.decode_value(("1", "1"))


def test_compile_binarized_inequality_count():
    db = figure_db()
    # only values 0..2 so the domain is a strict subset of the bit patterns
    db3 = Database(
        Domain(("0", "1", "2")),
        {
            "A": Relation.from_rows(("c0",), [("0",), ("1",), ("2",)]),
            "B": Relation.from_rows(("c0",), [("0",), ("1",), ("2",)]),
            "R": Relation.from_rows(("c0", "c1"), [(str(i), str(i)) for i in range(3)]),
        },
    )
    q = parse_query("Q(*) :- A(x1), B(x2), !R(x1,x2).")
    circuit, codec, _ = compile_binarized(q, db3, VarOrder(("x2", "x1")))
    assert count(circuit, preprocess(circuit)) == 6  # d^2 - d


def test_compile_binarized_example51(ex51):
    q, db, order = ex51
    circuit, codec, _ = compile_binarized(q, db, order.reversed())
    idx = preprocess(circuit)
    assert count(circuit, idx) == 8
    got = [debin_tuple(direct_access(circuit, idx, k), codec) for k in range(1, 9)]
    assert got == sort_lex(eval_bruteforce(q, db), order, db.domain)


@given(instances())
@settings(max_examples=60, deadline=None)
def test_compile_matches_bruteforce(inst):
    q, db, order = inst.query, inst.db, inst.order
    circuit, _ = dpll_compile(q, db, order.reversed())
    from cqda.circuit import semantics_bruteforce

    assert semantics_bruteforce(circuit).rows == eval_bruteforce(q, db).rows
    ok, problems = validate_decomposable(circuit)
    assert ok, problems
    assert validate_ordered(circuit, order)


@given(instances())
@settings(max_examples=40, deadline=None)
def test_recursion_count_bound(inst):
    q, db, order = inst.query, inst.db, inst.order
    _, stats = dpll_compile(q, db, order.reversed())
    h = hypergraph_of(q)
    n, m = len(q.variables), len(q.atoms)
    if not q.negative_atoms:
        k = fhow_width(Hypergraph(h.vertices, h.pos_edges), order.reversed())
        assert stats.rec_calls <= n * db.size ** math.ceil(k)
    else:
        k = show_width(h, order.reversed())
        assert stats.rec_calls <= n * m ** (k + 1) * db.size**k


@given(instances())
@settings(max_examples=40, deadline=None)
def test_order_isomorphism(inst):
    # k-th binarized answer decodes to the k-th plain answer, for all k
    q, db, order = inst.query, inst.db, inst.order
    circuit, codec, _ = compile_binarized(q, db, order.reversed())
    idx = preprocess(circuit)
    oracle = sort_lex(eval_bruteforce(q, db), order, db.domain)
    assert count(circuit, idx) == len(oracle)
    for k, expected in enumerate(oracle, 1):
        assert debin_tuple(direct_access(circuit, idx, k), codec) == expected


@given(instances())
@settings(max_examples=40, deadline=None)
def test_binarization_preserves_signed_widths(inst):
    q, db, order = inst.query, inst.db, inst.order
    if not q.atoms:
        return
    _, bq, border, _ = binarize(db, q, order)
    before = hypergraph_of(q)
    after = hypergraph_of(bq)
    elim_before = order.reversed()
    elim_after = border.reversed()
    assert show_width(before, elim_before) == show_width(after, elim_after)
    from cqda.hypergraph import sfhow_width

    assert sfhow_width(before, elim_before) == sfhow_width(after, elim_after)


# --- support-driven branching ------------------------------------------------

def _compiled(inst, binarized: bool):
    """Query, database and the circuit compiled from them (on bits when binarized)."""
    q, db, order = inst.query, inst.db, inst.order
    if binarized:
        db, q, order, _ = binarize(db, q, order)
    circuit, _ = dpll_compile(q, db, order.reversed())
    return q, db, order, circuit


def _trie_levels(atom, rel, order):
    # the compiler's trie layout: decreasing elimination position = significance order
    perm = tuple(sorted(range(len(atom.args)), key=lambda i: order.position(atom.args[i])))
    return rel.trie(perm), tuple(atom.args[i] for i in perm)


@given(instances(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_no_decision_edge_points_at_bot(inst, binarized):
    _, _, _, circuit = _compiled(inst, binarized)
    for g in circuit.gates:
        if isinstance(g, DecisionGate):
            assert not any(isinstance(circuit.gates[child], BotGate) for _, child in g.edges)
    idx = preprocess(circuit)
    if isinstance(circuit.gates[circuit.output], BotGate):
        assert circuit.reachable() == [circuit.output]
    else:
        assert all(idx.rel_count[gid] > 0 for gid in circuit.reachable())


@given(instances(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_edge_values_are_supported_by_every_positive_atom(inst, binarized):
    q, db, order, circuit = _compiled(inst, binarized)
    guards = [_trie_levels(a, db.relations[a.symbol], order) for a in q.positive_atoms]
    seen = set()
    stack = [(circuit.output, {})]
    while stack:
        gid, tau = stack.pop()
        if (gid, tuple(sorted(tau.items()))) in seen:
            continue
        seen.add((gid, tuple(sorted(tau.items()))))
        g = circuit.gates[gid]
        if isinstance(g, ProductGate):
            stack.extend((child, tau) for child in g.children)
        elif isinstance(g, DecisionGate):
            for node, levels in guards:
                if g.var not in levels:
                    continue
                for var in levels[: levels.index(g.var)]:
                    node = node[tau[var]]
                assert all(value in node for value, _ in g.edges)
            stack.extend((child, {**tau, g.var: value}) for value, child in g.edges)


@st.composite
def padded_instances(draw):
    """An instance plus a variable only a negated atom mentions and one no atom mentions."""
    inst = draw(instances())
    values = inst.db.domain.values
    partner = draw(st.sampled_from(inst.order.vars))
    args = ("z", partner) if draw(st.booleans()) else ("z",)
    rows = draw(st.sets(st.tuples(*[st.sampled_from(values)] * len(args)), max_size=4))
    q = SignedQuery(inst.query.atoms + (Atom(False, "NZ", args),))
    db = Database(
        inst.db.domain,
        {**inst.db.relations, "NZ": Relation(tuple(f"c{j}" for j in range(len(args))), frozenset(rows))},
    )
    significance = list(inst.order.vars)
    for var in ("z", "pad"):
        significance.insert(draw(st.integers(0, len(significance))), var)
    return q, db, VarOrder(tuple(significance))


@given(padded_instances())
@settings(max_examples=60, deadline=None)
def test_full_domain_branches_match_bruteforce(case):
    from cqda.circuit import semantics_bruteforce

    q, db, order = case
    circuit, _ = dpll_compile(q, db, order.reversed())
    oracle = eval_bruteforce(q, db)
    # "pad" is mentioned by no atom: every value of it extends every answer
    vs = oracle.vars + ("pad",)
    perm = sorted(range(len(vs)), key=vs.__getitem__)
    expected = {
        tuple((row + (d,))[i] for i in perm) for row in oracle.rows for d in db.domain.values
    }
    got = semantics_bruteforce(circuit)
    assert got.vars == tuple(sorted(vs))
    assert got.rows == expected
    assert validate_ordered(circuit, order)


@given(instances(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_every_call_has_bound_exactly_the_trie_levels_above_its_variable(inst, binarized):
    from unittest import mock

    from cqda import compiler

    q, db, order = inst.query, inst.db, inst.order
    if binarized:
        db, q, order, _ = binarize(db, q, order)
    layouts = [_trie_levels(a, db.relations[a.symbol], order) for a in q.atoms]
    path_of = {}  # (atom id, id(node)) -> values on the way from the root to node
    for aid, (root, _) in enumerate(layouts):
        stack = [(root, ())]
        while stack:
            node, path = stack.pop()
            path_of[aid, id(node)] = path
            stack.extend((child, path + (d,)) for d, child in node.items())
    real = compiler._call_key
    calls = []

    def checked(call, nodes, ids, table):
        comp, bound, x, on_x = call
        tau = {}
        for aid in comp:
            levels = layouts[aid][1]
            path = path_of[aid, id(nodes[aid])]
            # the atom's node lies below exactly its bound variables, which are a prefix of its levels
            assert set(levels[: len(path)]) == set(levels) & set(bound)
            for var, d in zip(levels, path):
                assert tau.setdefault(var, d) == d
        for aid, _, _ in on_x:
            levels = layouts[aid][1]
            assert levels[len(path_of[aid, id(nodes[aid])])] == x
        calls.append(call)
        return real(call, nodes, ids, table)

    with mock.patch.object(compiler, "_call_key", checked):
        circuit, _ = dpll_compile(q, db, order.reversed())
    if any(isinstance(g, DecisionGate) for g in circuit.gates):
        assert calls


# --- cache keys by residual subtrie ----------------------------------------------

def _by_identity(node, ids, table):
    # one id per trie node: the granularity of keying a call by its bound values
    return id(node)


@given(instances(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_subtrie_keys_keep_the_answers_and_never_add_calls(inst, binarized):
    from unittest import mock

    from cqda import compiler
    from cqda.circuit import semantics_bruteforce

    q, db, order = inst.query, inst.db, inst.order
    if binarized:
        db, q, order, _ = binarize(db, q, order)
    circuit, stats = dpll_compile(q, db, order.reversed())
    with mock.patch.object(compiler, "_subtrie_id", _by_identity):
        plain, plain_stats = dpll_compile(q, db, order.reversed())
    expected = eval_bruteforce(q, db).rows
    assert semantics_bruteforce(circuit).rows == expected
    assert semantics_bruteforce(plain).rows == expected
    assert stats.rec_calls <= plain_stats.rec_calls
    assert validate_ordered(circuit, order)


def test_star_with_negated_leaves_shares_equal_subtries():
    from unittest import mock

    from cqda import compiler

    # x=a and x=b leave R1 and R2 the same rows, so the y1 and y2 calls repeat
    db = Database(
        Domain(("a", "b", "c", "d")),
        {
            "C": Relation.from_rows(("c0",), [("a",), ("b",)]),
            "R1": Relation.from_rows(("c0", "c1"), [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]),
            "R2": Relation.from_rows(("c0", "c1"), [("a", "c"), ("b", "c")]),
            "N1": Relation.from_rows(("c0",), [("a",)]),
            "N2": Relation.from_rows(("c0",), [("d",)]),
        },
    )
    q = parse_query("Q(*) :- C(x), R1(x,y1), R2(x,y2), !N1(y1), !N2(y2).")
    order = VarOrder(("x", "y1", "y2"))
    circuit, _, stats = compile_binarized(q, db, order.reversed())
    with mock.patch.object(compiler, "_subtrie_id", _by_identity):
        plain, _, plain_stats = compile_binarized(q, db, order.reversed())
    assert stats.cache_hits >= 1
    assert plain_stats.cache_hits == 0
    assert stats.rec_calls < plain_stats.rec_calls
    assert count(circuit, preprocess(circuit)) == count(plain, preprocess(plain)) == 2


def _subtrie_id_recursive(node, ids, table):
    # the recursive naming the compiler's stack walk must reproduce, id for id
    got = ids.get(id(node))
    if got is None:
        if next(iter(node.values()), None):
            name = frozenset([(d, _subtrie_id_recursive(child, ids, table)) for d, child in node.items()])
        else:
            name = frozenset(node)
        got = ids[id(node)] = table.setdefault(name, len(table))
    return got


@given(st.lists(st.lists(st.tuples(*[st.sampled_from("abc")] * 3), max_size=8), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_subtrie_ids_match_recursive_naming(relations):
    from cqda.compiler import _subtrie_id

    # several tries share one intern table, as the atoms of one compile do
    tries = [Relation.from_rows(("c0", "c1", "c2"), rows).trie((2, 0, 1)) for rows in relations]
    got_ids, got_table, ref_ids, ref_table = {}, {}, {}, {}
    for trie in tries:
        for node in (trie, next(iter(trie.values()), trie)):
            assert _subtrie_id(node, got_ids, got_table) == _subtrie_id_recursive(node, ref_ids, ref_table)
    assert got_ids == ref_ids and got_table == ref_table


def test_deep_binarized_trie_counts_like_raw():
    # 200 variables over 128 values binarize to 1,400 trie levels
    values = tuple(f"v{i}" for i in range(128))
    rows = [tuple(values[(7 * i + j) % 128] for i in range(200)) for j in (0, 5)]
    db = Database(Domain(values), {"R": Relation.from_rows(tuple(f"c{i}" for i in range(200)), rows)})
    q = parse_query("Q(*) :- R(" + ",".join(f"x{i}" for i in range(200)) + ").")
    order = VarOrder(tuple(f"x{i}" for i in range(200)))
    raw, _ = dpll_compile(q, db, order)
    binarized, _, _ = compile_binarized(q, db, order)
    assert count(binarized, preprocess(binarized)) == count(raw, preprocess(raw)) == 2


# --- edge count ------------------------------------------------------------------

@given(instances(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_edge_count_covers_the_reachable_circuit(inst, binarized):
    q, db, order = inst.query, inst.db, inst.order
    if binarized:
        db, q, order, _ = binarize(db, q, order)
    circuit, stats = dpll_compile(q, db, order.reversed())
    assert stats.edges >= circuit_edges(circuit)
    if len(circuit.reachable()) == len(circuit.gates):
        assert stats.edges == circuit_edges(circuit)


def test_edge_count_includes_gates_left_unreachable():
    # at x=a the R component is built before the S/N component turns out empty
    db = Database(
        Domain(("a", "b")),
        {
            "R": Relation.from_rows(("c0", "c1"), [("a", "a"), ("b", "b")]),
            "S": Relation.from_rows(("c0", "c1"), [("a", "a"), ("b", "a")]),
            "N": Relation.from_rows(("c0", "c1"), [("a", "a")]),
        },
    )
    q = parse_query("Q(*) :- R(x,y), S(x,z), !N(x,z).")
    circuit, stats = dpll_compile(q, db, VarOrder(("x", "y", "z")).reversed())
    assert len(circuit.reachable()) < len(circuit.gates)
    assert stats.edges > circuit_edges(circuit)
    assert count(circuit, preprocess(circuit)) == 1
