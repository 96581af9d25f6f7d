import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import annotated_circuit, example51_db, example51_query, instances
from cqda.circuit import (
    Circuit,
    DecisionGate,
    ProductGate,
    circuit_size,
    dump_circuit,
    gate_var_sets,
    load_circuit,
    semantics_bruteforce,
    validate_decomposable,
    validate_ordered,
)
from cqda.compiler import dpll_compile
from cqda.errors import CycleDetectedError, TooLargeError
from cqda.query import SignedQuery, eval_bruteforce
from cqda.relations import Domain, VarOrder


def top_only(universe=("x",), dom=("0", "1", "2")):
    c = Circuit(Domain(dom), VarOrder(universe))
    c.set_output(c.top())
    return c


def test_validate_decomposable_trivial():
    ok, problems = validate_decomposable(top_only())
    assert ok and not problems


def test_validate_decomposable_rejects_shared_variable():
    c = Circuit(Domain(("0", "1")), VarOrder(("x",)))
    a = c.add_decision("x", [("0", c.top())])
    b = c.add_decision("x", [("1", c.top())])
    c.set_output(c.add_product([a, b]))
    ok, problems = validate_decomposable(c)
    assert not ok and "share" in problems[0]


def test_validate_ordered():
    c = Circuit(Domain(("0", "1")), VarOrder(("x", "y")))
    inner = c.add_decision("x", [("0", c.top())])
    outer = c.add_decision("y", [("0", inner)])
    c.set_output(outer)
    assert validate_ordered(c, VarOrder(("y", "x")))
    assert not validate_ordered(c, VarOrder(("x", "y")))
    single = Circuit(Domain(("0", "1")), VarOrder(("x", "y")))
    single.set_output(single.add_decision("x", [("0", single.top())]))
    assert validate_ordered(single, VarOrder(("x", "y")))
    assert validate_ordered(single, VarOrder(("y", "x")))


def test_semantics_top_output_pads_universe():
    rel = semantics_bruteforce(top_only(universe=("x",)))
    assert len(rel.rows) == 3


def test_semantics_single_decision():
    c = Circuit(Domain(("0", "1")), VarOrder(("x",)))
    c.set_output(c.add_decision("x", [("0", c.top()), ("1", c.bot())]))
    rel = semantics_bruteforce(c)
    assert rel.rows == frozenset({("0",)})


def test_semantics_matches_bruteforce_on_example(ex51):
    q, db, order = ex51
    circuit, _ = dpll_compile(q, db, order.reversed())
    assert semantics_bruteforce(circuit).rows == eval_bruteforce(q, db).rows
    ok, _ = validate_decomposable(circuit)
    assert ok
    assert validate_ordered(circuit, order)


def test_circuit_size():
    assert circuit_size(top_only()) == 0
    c = Circuit(Domain(("0", "1", "2")), VarOrder(("x",)))
    c.set_output(c.add_decision("x", [(v, c.top()) for v in "012"]))
    assert circuit_size(c) == 3


def test_add_decision_checks_edges_without_sorting():
    c = Circuit(Domain(("0", "1", "2")), VarOrder(("x",)))
    top = c.top()
    g = c.add_decision("x", [("0", top), ("2", top)])
    assert c.gates[g].edges == (("0", top), ("2", top))
    with pytest.raises(ValueError, match="increasing rank"):
        c.add_decision("x", [("2", top), ("0", top)])
    with pytest.raises(ValueError, match="distinct"):
        c.add_decision("x", [("1", top), ("1", top)])
    with pytest.raises(ValueError, match="unknown gate"):
        c.add_decision("x", [("0", top), ("1", 99)])
    with pytest.raises(ValueError, match="outside the domain"):
        c.add_decision("x", [("7", top)])
    with pytest.raises(ValueError, match="outside the universe"):
        c.add_decision("y", [("0", top)])


def test_cycle_detection():
    c = Circuit(Domain(("0", "1")), VarOrder(("x", "y")))
    g = c.add_decision("x", [("0", c.top())])
    # force a cycle by hand
    c.gates[g] = DecisionGate("x", (("0", g),))
    c.set_output(g)
    with pytest.raises(CycleDetectedError):
        c.reachable()


def test_too_large_guard():
    c = Circuit(Domain(tuple(str(i) for i in range(4))), VarOrder(tuple(f"x{i}" for i in range(12))))
    c.set_output(c.top())
    with pytest.raises(TooLargeError):
        semantics_bruteforce(c, max_tuples=1000)


def test_dump_load_roundtrip(ex51):
    q, db, order = ex51
    circuit, _ = dpll_compile(q, db, order.reversed())
    text = dump_circuit(circuit)
    again = load_circuit(text)
    assert semantics_bruteforce(again).rows == semantics_bruteforce(circuit).rows
    assert dump_circuit(again) == text


def test_dump_annotated_fixture():
    c = annotated_circuit()
    again = load_circuit(dump_circuit(c))
    assert semantics_bruteforce(again).rows == semantics_bruteforce(c).rows


@given(instances(max_vars=4, max_dom=3))
@settings(max_examples=25, deadline=None)
def test_sink_product_identity(inst):
    # every gate's relation is the product of its sink gates' relations
    q, db = inst.query, inst.db
    circuit, _ = dpll_compile(q, db, inst.order.reversed())
    var_of = gate_var_sets(circuit)
    from cqda.access import _expand

    for gid in circuit.reachable():
        if not isinstance(circuit.gates[gid], ProductGate):
            continue
        sinks = _expand(circuit, [gid])
        sub = Circuit(circuit.domain, circuit.universe)
        sub.gates = circuit.gates
        sub.set_output(gid)
        whole = semantics_bruteforce(sub)
        expected = 1
        for s in sinks:
            piece = Circuit(circuit.domain, circuit.universe)
            piece.gates = circuit.gates
            piece.set_output(s)
            expected *= len(
                semantics_bruteforce(piece).rows
            ) // (len(circuit.domain) ** (len(circuit.universe) - len(var_of[s])))
        assert len(whole.rows) == expected * len(circuit.domain) ** (
            len(circuit.universe) - len(var_of[gid])
        )


@given(instances())
@settings(max_examples=30, deadline=None)
def test_semantics_invariant_under_renumbering(inst):
    q, db = inst.query, inst.db
    circuit, _ = dpll_compile(q, db, inst.order.reversed())
    rng = random.Random(5)
    ids = list(range(len(circuit.gates)))
    # renumber while keeping children before parents is not required by
    # semantics; shuffle and remap all references
    perm = ids[:]
    rng.shuffle(perm)
    mapping = {old: new for new, old in enumerate(perm)}
    fresh = Circuit(circuit.domain, circuit.universe)
    fresh.gates = [None] * len(ids)
    for old, g in enumerate(circuit.gates):
        if isinstance(g, DecisionGate):
            g = DecisionGate(g.var, tuple((v, mapping[ch]) for v, ch in g.edges))
        elif isinstance(g, ProductGate):
            g = ProductGate(tuple(mapping[ch] for ch in g.children))
        fresh.gates[mapping[old]] = g
    fresh.output = mapping[circuit.output]
    assert semantics_bruteforce(fresh).rows == semantics_bruteforce(circuit).rows


@given(instances())
@settings(max_examples=30, deadline=None)
def test_var_sets_are_reachable_decision_vars(inst):
    q, db = inst.query, inst.db
    circuit, _ = dpll_compile(q, db, inst.order.reversed())
    var_of = gate_var_sets(circuit)
    for gid in circuit.reachable():
        seen = set()
        stack = [gid]
        visited = set()
        while stack:
            g = stack.pop()
            if g in visited:
                continue
            visited.add(g)
            gate = circuit.gates[g]
            if isinstance(gate, DecisionGate):
                seen.add(gate.var)
            stack.extend(circuit.children(g))
        assert var_of[gid] == frozenset(seen)
