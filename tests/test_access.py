import itertools
from collections.abc import Mapping

import pytest
from hypothesis import given, settings

from conftest import annotated_circuit, instances, kth_tuple_bruteforce, select_prefix
from cqda.access import AccessIndex, answer_window, count, direct_access, frontier, preprocess, rank, walk
from cqda.circuit import Circuit, DecisionGate, ProductGate, semantics_bruteforce
from cqda.compiler import dpll_compile
from cqda.errors import NotAPrefixError, OutOfRangeError
from cqda.query import SignedQuery, Atom, eval_bruteforce, parse_query
from cqda.relations import (
    Assignment,
    Database,
    Domain,
    Relation,
    VarOrder,
    lex_compare,
    sort_lex,
)


class DeadPrefixError(Exception):
    """The committed prefix admits no extension to an answer."""


def extensions(c: Circuit, idx: AccessIndex, tau: Mapping[str, str]) -> int:
    """Tuples extending prefix ``tau``: its frontier's counts times the free padding (0 when dead)."""
    gates = frontier(c, idx, tau)
    if gates is None:
        return 0
    product, mask = 1, 0
    for gid in gates:
        product *= idx.rel_count[gid]
        mask |= idx.var_mask[gid]
    return product * len(c.domain) ** (len(c.universe) - len(tau) - mask.bit_count())


def count_leq(c: Circuit, idx: AccessIndex, tau: Mapping[str, str], n: int) -> tuple[str, int]:
    """Counting oracle for the first unbound variable after prefix ``tau``, on the value descent.

    Returns the smallest domain value ``d`` such that at least ``n``
    tuples extend ``tau`` with the next variable at most ``d``, together
    with the number of extensions strictly below ``d``.
    """
    if len(tau) >= len(c.universe):
        raise NotAPrefixError("prefix already binds every variable")
    if n < 1:
        raise OutOfRangeError("n must be at least 1")
    if frontier(c, idx, tau) is None:
        raise DeadPrefixError("prefix admits no extension")
    x, below = c.universe.vars[len(tau)], 0
    for value in c.domain.values:
        here = extensions(c, idx, {**tau, x: value})
        if below + here >= n:
            return value, below
        below += here
    raise OutOfRangeError("n exceeds the number of extensions")


def test_preprocess_top_only():
    c = Circuit(Domain(("0", "1")), VarOrder(()))
    c.set_output(c.top())
    idx = preprocess(c)
    assert idx.rel_count[c.output] == 1
    assert count(c, idx) == 1


def test_annotated_circuit_labels():
    c = annotated_circuit()
    idx = preprocess(c)
    by_var = {}
    for gid in c.reachable():
        g = c.gates[gid]
        if isinstance(g, DecisionGate):
            by_var.setdefault(g.var, []).append(idx.prefix_counts[gid])
    assert [1, 2, 2] in by_var["x3"]
    assert [2, 4] in by_var["x2"]
    assert by_var["x1"] == [[4, 10, 14]]
    assert count(c, idx) == 14


def test_annotated_circuit_access_seven():
    c = annotated_circuit()
    idx = preprocess(c)
    t = direct_access(c, idx, 7)
    assert t["x1"] == "1"
    # walking down with k = 13 crosses the product into both lower gates
    t13 = direct_access(c, idx, 13)
    assert t13 == Assignment({"x1": "2", "x2": "2", "x3": "1"})
    kinds = sorted(c.gates[g].var for g in frontier(c, idx, {"x1": "2"}))
    assert kinds == ["x2", "x3"]


def test_count_examples():
    c = annotated_circuit()
    idx = preprocess(c)
    assert count(c, idx) == 14
    empty = Circuit(Domain(("0", "1")), VarOrder(("x",)))
    empty.set_output(empty.bot())
    assert count(empty, preprocess(empty)) == 0
    free = Circuit(Domain(("0", "1", "2")), VarOrder(("x", "y")))
    free.set_output(free.top())
    assert count(free, preprocess(free)) == 9


def test_frontier_basics():
    c = annotated_circuit()
    idx = preprocess(c)
    assert frontier(c, idx, {}) == (c.output,)
    with pytest.raises(NotAPrefixError):
        frontier(c, idx, {"x2": "0"})
    assert frontier(c, idx, {"x1": "0", "x2": "0", "x3": "2"}) is None

    prod = Circuit(Domain(("0", "1")), VarOrder(("x", "y")))
    a = prod.add_decision("x", [("0", prod.top())])
    b = prod.add_decision("y", [("1", prod.top())])
    prod.set_output(prod.add_product([a, b]))
    assert sorted(frontier(prod, preprocess(prod), {})) == sorted((a, b))


def test_frontier_rejects_a_value_outside_the_domain():
    # y has no gate, so only the up-front check catches its bad value
    db = Database(Domain(("a", "b")), {"R": Relation.from_rows(("c0",), [("a",), ("b",)])})
    c, _ = dpll_compile(parse_query("Q(*) :- R(x)."), db, VarOrder(("y", "x")))
    idx = preprocess(c)
    for tau in ({"x": "zzz"}, {"x": "a", "y": "zzz"}):
        with pytest.raises(ValueError, match="'zzz' outside the domain"):
            frontier(c, idx, tau)
    with pytest.raises(ValueError, match="'zzz' outside the domain"):
        count_leq(c, idx, {"x": "zzz"}, 1)


def test_count_leq_on_annotated_circuit():
    c = annotated_circuit()
    idx = preprocess(c)
    # top decision gate: labels [4, 10, 14]
    assert count_leq(c, idx, {}, 7) == ("1", 4)
    assert count_leq(c, idx, {}, 1) == ("0", 0)
    assert count_leq(c, idx, {}, 14) == ("2", 10)
    # after x1 <- 1 the next variable x2 is free with P = 2, |D| = 3
    assert count_leq(c, idx, {"x1": "1"}, 3) == ("1", 2)
    # the same points on the count descent: answers 5..10 bind x1 to 1, and 7 and 8 also x2
    x1 = [direct_access(c, idx, k)["x1"] for k in range(1, 15)]
    assert x1 == ["0"] * 4 + ["1"] * 6 + ["2"] * 4
    assert [direct_access(c, idx, k)["x2"] for k in range(5, 11)] == ["0", "0", "1", "1", "2", "2"]
    with pytest.raises(DeadPrefixError):
        count_leq(c, idx, {"x1": "2", "x2": "1"}, 1)
    with pytest.raises(NotAPrefixError):
        count_leq(c, idx, {"x1": "0", "x2": "0", "x3": "2"}, 1)


def test_single_decision_count_leq():
    c = Circuit(Domain(("0", "1", "2")), VarOrder(("x",)))
    c.set_output(c.add_decision("x", [("0", c.top()), ("1", c.top()), ("2", c.bot())]))
    idx = preprocess(c)
    assert idx.prefix_counts[c.output] == [1, 2, 2]
    assert count_leq(c, idx, {}, 2) == ("1", 1)


def test_direct_access_bounds():
    c = annotated_circuit()
    idx = preprocess(c)
    with pytest.raises(OutOfRangeError):
        direct_access(c, idx, 0)
    with pytest.raises(OutOfRangeError):
        direct_access(c, idx, 15)
    first = direct_access(c, idx, 1)
    last = direct_access(c, idx, 14)
    assert first == Assignment({"x1": "0", "x2": "0", "x3": "0"})
    assert last == Assignment({"x1": "2", "x2": "2", "x3": "2"})


def test_rank_and_enumerate_roundtrip():
    c = annotated_circuit()
    idx = preprocess(c)

    def answers_in(start=1, limit=None):
        return [direct_access(c, idx, k) for k in answer_window(count(c, idx), start, limit)]

    answers = answers_in()
    assert len(answers) == 14
    for k, t in enumerate(answers, 1):
        assert rank(c, idx, t) == k
    below_min = Assignment({"x1": "0", "x2": "0", "x3": "0"})
    # the minimum itself has rank 1; nothing is below it
    assert rank(c, idx, below_min) == 1
    assert answers_in(1, 0) == []
    window = answers_in(5, 3)
    assert window == answers[4:7]
    with pytest.raises(OutOfRangeError):
        answers_in(10, 6)
    with pytest.raises(OutOfRangeError):
        answers_in(2, -1)
    # without a limit the start may be one past the end, not further
    assert answers_in(15) == []
    for start in (0, 16):
        with pytest.raises(OutOfRangeError):
            answers_in(start)


def test_walk_equals_direct_access_on_every_window():
    # Bot edges have zero count, and x2 is free below x1=1, so that level has no gate
    c = annotated_circuit()
    idx = preprocess(c)
    tuples = [tuple(direct_access(c, idx, k)[x] for x in c.universe.vars) for k in range(1, 15)]
    for start in range(1, 16):
        for stop in range(start, 16):
            assert list(walk(c, idx, start, stop)) == tuples[start - 1:stop - 1]
    for start, stop in ((0, 2), (14, 16)):
        with pytest.raises(OutOfRangeError):
            list(walk(c, idx, start, stop))
    # no variables: the one empty tuple
    top = Circuit(Domain(("0",)), VarOrder(()))
    top.set_output(top.top())
    assert list(walk(top, preprocess(top), 1, 2)) == [()]


def test_walk_slots_filled_above_an_advance_survive_it():
    # A product of a gate on x0 (its children test x2) and a gate on x1 (its children test x3),
    # so the crossings at levels 0 and 1 fill interleaved slots; no gate tests x4.
    c = Circuit(Domain(("a", "b", "c")), VarOrder(("x0", "x1", "x2", "x3", "x4")))
    top = c.top()
    x2_ac = c.add_decision("x2", [("a", top), ("c", top)])
    x2_b = c.add_decision("x2", [("b", top)])
    dead = c.add_product([c.bot(), x2_b])
    x0 = c.add_decision("x0", [("a", x2_ac), ("b", dead), ("c", x2_b)])  # x0=b has zero count
    x3_ab = c.add_decision("x3", [("a", top), ("b", top)])
    x1 = c.add_decision("x1", [("a", x3_ab), ("b", top)])  # x1=b leaves x3 free
    c.set_output(c.add_product([x0, x1]))
    idx = preprocess(c)
    n = count(c, idx)
    tuples = [tuple(direct_access(c, idx, k)[x] for x in c.universe.vars) for k in range(1, n + 1)]
    assert n == 45 and len(set(tuples)) == n
    # Advancing x1 from a to b must keep the x2 slot that the crossing at x0 filled, or x2 would
    # range over the whole domain, and must clear the x3 slot the crossing at x1 filled, or x3
    # would stay limited to a and b.
    assert ("a", "a", "a", "b", "c") in tuples and ("a", "b", "a", "c", "a") in tuples
    assert not any(t[0] == "a" and t[2] == "b" for t in tuples)
    for start in range(1, n + 2):
        for stop in range(start, n + 2):
            assert list(walk(c, idx, start, stop)) == tuples[start - 1:stop - 1]


def test_rank_of_absent_tuple_counts_predecessors():
    c = Circuit(Domain(("0", "1", "2")), VarOrder(("x",)))
    c.set_output(c.add_decision("x", [("0", c.top()), ("2", c.top())]))
    idx = preprocess(c)
    assert rank(c, idx, Assignment({"x": "1"})) == 1
    assert rank(c, idx, Assignment({"x": "2"})) == 2


def test_counts_stay_exact_beyond_word_size():
    # one negated wide atom over 41 three-valued variables
    n = 41
    vars = tuple(f"x{i:02d}" for i in range(n))
    dom = Domain(("0", "1", "2"))
    db = Database(dom, {"S": Relation.from_rows(tuple(f"c{i}" for i in range(n)), [("0",) * n])})
    q = SignedQuery((Atom(False, "S", vars),))
    circuit, _ = dpll_compile(q, db, VarOrder(vars).reversed())
    idx = preprocess(circuit)
    expected = 3**n - 1
    assert expected > 2**64
    assert count(circuit, idx) == expected
    assert direct_access(circuit, idx, 1) == Assignment({v: "0" for v in vars[:-1]} | {vars[-1]: "1"})
    assert direct_access(circuit, idx, expected) == Assignment({v: "2" for v in vars})
    mid = (expected + 1) // 2
    assert rank(circuit, idx, direct_access(circuit, idx, mid)) == mid


@given(instances())
@settings(max_examples=60, deadline=None)
def test_direct_access_matches_oracle_everywhere(inst):
    q, db, order = inst.query, inst.db, inst.order
    circuit, _ = dpll_compile(q, db, order.reversed())
    idx = preprocess(circuit)
    rel = eval_bruteforce(q, db)
    assert count(circuit, idx) == len(rel.rows)
    previous = None
    for k in range(1, len(rel.rows) + 1):
        got = direct_access(circuit, idx, k)
        assert got == kth_tuple_bruteforce(rel, order, db.domain, k)
        if previous is not None:
            assert lex_compare(previous, got, order, db.domain) == -1
        previous = got
        assert rank(circuit, idx, got) == k


@given(instances(max_vars=4, max_dom=3))
@settings(max_examples=40, deadline=None)
def test_frontier_identity(inst):
    # tuples extending a prefix = prefix x frontier relations x free padding
    q, db, order = inst.query, inst.db, inst.order
    circuit, _ = dpll_compile(q, db, order.reversed())
    idx = preprocess(circuit)
    rel = eval_bruteforce(q, db)
    universe = circuit.universe
    for p in range(len(universe) + 1):
        for values in itertools.islice(itertools.product(db.domain.values, repeat=p), 10):
            tau = dict(zip(universe.vars[:p], values))
            assert extensions(circuit, idx, tau) == len(select_prefix(rel, tau).rows)


@given(instances())
@settings(max_examples=40, deadline=None)
def test_prefix_sums_match_per_edge_bruteforce(inst):
    q, db, order = inst.query, inst.db, inst.order
    circuit, _ = dpll_compile(q, db, order.reversed())
    idx = preprocess(circuit)
    for gid in circuit.reachable():
        g = circuit.gates[gid]
        if not isinstance(g, DecisionGate):
            continue
        sub = Circuit(circuit.domain, circuit.universe)
        sub.gates = circuit.gates
        sub.set_output(gid)
        rel = semantics_bruteforce(sub)
        pad = len(circuit.universe) - bin(idx.var_mask[gid]).count("1")
        for (value, _), prefix_count in zip(g.edges, idx.prefix_counts[gid]):
            selected = sum(
                1
                for row in rel.rows
                if db.domain.rank(dict(zip(rel.vars, row))[g.var]) <= db.domain.rank(value)
            )
            assert selected == prefix_count * len(db.domain) ** pad
