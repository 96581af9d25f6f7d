import dataclasses
import functools
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import example51_db, example51_query, instances, validate_decomposable, validate_ordered
from cqda import access
from cqda.access import count, direct_access, preprocess
from cqda.circuit import BotGate, Circuit, ProductGate, TopGate, circuit_size, semantics_bruteforce
from cqda.compiler import compile_binarized, dpll_compile
from cqda.errors import ArgumentError, ArityMismatchError, CqdaError, NotFreeConnexError
from cqda.project import CircuitEngine, da_conjunctive, project_circuit
from cqda.query import SignedQuery, eval_bruteforce, parse_query
from cqda.relations import Assignment, Database, Domain, Relation, VarOrder, sort_lex


def projected_rows(rel: Relation, keep: tuple[str, ...]) -> frozenset:
    cols = [rel.vars.index(v) for v in sorted(keep)]
    return frozenset(tuple(row[c] for c in cols) for row in rel.rows)


def test_project_identity_and_boolean(ex51):
    q, db, order = ex51
    circuit, _ = dpll_compile(q, db, order.reversed())
    idx = preprocess(circuit)
    same = project_circuit(circuit, idx, len(order))
    assert count(same, preprocess(same)) == 8
    boolean = project_circuit(circuit, idx, 0)
    assert count(boolean, preprocess(boolean)) == 1


def test_project_example51_pairs(ex51):
    q, db, order = ex51
    circuit, _ = dpll_compile(q, db, order.reversed())
    idx = preprocess(circuit)
    pairs = project_circuit(circuit, idx, 2)
    pidx = preprocess(pairs)
    assert count(pairs, pidx) == 4
    rel = semantics_bruteforce(pairs)
    assert rel.rows == projected_rows(eval_bruteforce(q, db), ("x1", "x2"))


def test_da_conjunctive_free_connex_gate(ex51):
    q, db, order = ex51
    conj = SignedQuery(q.atoms, frozenset({"x1", "x2"}))
    engine = da_conjunctive(conj, db, order)
    assert engine.count() == 4
    with pytest.raises(NotFreeConnexError):
        da_conjunctive(conj, db, VarOrder(("x1", "x3", "x2", "x4")))


def test_da_conjunctive_empty_head(ex51):
    q, db, order = ex51
    boolean = SignedQuery(q.atoms, frozenset())
    engine = da_conjunctive(boolean, db, order)
    assert engine.count() == 1
    assert engine.kth(1) == Assignment({})


def test_da_conjunctive_matches_projected_oracle(ex51):
    q, db, order = ex51
    conj = SignedQuery(q.atoms, frozenset({"x1", "x2"}))
    for binarize in (False, True):
        engine = da_conjunctive(conj, db, order, binarize=binarize)
        oracle = sort_lex(eval_bruteforce(conj, db), VarOrder(("x1", "x2")), db.domain)
        assert [engine.kth(k) for k in range(1, engine.count() + 1)] == oracle


@given(instances())
@settings(max_examples=50, deadline=None)
def test_projection_semantics_and_size(inst):
    q, db, order = inst.query, inst.db, inst.order
    circuit, _ = dpll_compile(q, db, order.reversed())
    idx = preprocess(circuit)
    rng = random.Random(3)
    full = eval_bruteforce(q, db)
    for keep in range(len(order) + 1):
        small = project_circuit(circuit, idx, keep)
        assert circuit_size(small) <= circuit_size(circuit)
        ok, problems = validate_decomposable(small)
        assert ok, problems
        got = semantics_bruteforce(small)
        assert got.rows == projected_rows(full, order.vars[:keep])


@given(instances())
@settings(max_examples=40, deadline=None)
def test_da_conjunctive_random_free_prefix(inst):
    q, db, order = inst.query, inst.db, inst.order
    rng = random.Random(9)
    keep = rng.randint(0, len(order))
    conj = SignedQuery(q.atoms, frozenset(order.vars[:keep]))
    for binarize in (False, True):
        engine = da_conjunctive(conj, db, order, binarize=binarize)
        keep_order = VarOrder(order.vars[:keep])
        oracle = sort_lex(eval_bruteforce(conj, db), keep_order, db.domain)
        assert engine.count() == len(oracle)
        got = [engine.kth(k) for k in range(1, engine.count() + 1)]
        assert got == oracle
        for k, t in enumerate(got, 1):
            assert engine.rank_of(t) == k


@given(instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_compile_time_projection_matches_project_circuit(inst, data):
    q, db, order = inst.query, inst.db, inst.order
    keep = data.draw(st.integers(0, len(order)), label="free prefix")
    conj = SignedQuery(q.atoms, frozenset(order.vars[:keep]))
    elimination = order.reversed()
    for binarized in (False, True):
        if binarized:
            full, codec, full_stats = compile_binarized(q, db, elimination)
            small, _, stats = compile_binarized(conj, db, elimination)
            kept = keep * codec.bits
        else:
            full, full_stats = dpll_compile(q, db, elimination)
            small, stats = dpll_compile(conj, db, elimination)
            kept = keep
        oracle = project_circuit(full, preprocess(full), kept)
        assert small.universe == oracle.universe
        assert validate_ordered(small, small.universe)
        idx, oracle_idx = preprocess(small), preprocess(oracle)
        total = count(oracle, oracle_idx)
        assert count(small, idx) == total
        got = [direct_access(small, idx, k) for k in range(1, total + 1)]
        assert got == [direct_access(oracle, oracle_idx, k) for k in range(1, total + 1)]
        assert circuit_size(small) <= circuit_size(oracle)
        assert stats.rec_calls <= full_stats.rec_calls


@given(st.integers(1, 8), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_an_existential_call_stops_at_its_first_model(ys, xs, zs):
    # y is existential and sits above z; each y reaches z values of its own, so no two z calls share
    # a cache entry, and trying every y would cost a call per y: doubling the ys must add no call
    def rec_calls(n: int) -> int:
        x, y, z = ([f"{v}{i}" for i in range(size)] for v, size in (("x", xs), ("y", n), ("z", n * zs)))
        db = Database(Domain((*x, *y, *z)), {
            "R": Relation.from_rows(("c0", "c1"), [(a, b) for a in x for b in y]),
            "S": Relation.from_rows(("c0", "c1"), [(b, z[j * zs + m]) for j, b in enumerate(y) for m in range(zs)]),
        })
        circuit, stats = dpll_compile(parse_query("Q(x) :- R(x,y), S(y,z)."), db, VarOrder(("z", "y", "x")))
        assert count(circuit, preprocess(circuit)) == xs
        return stats.rec_calls

    assert rec_calls(2 * ys) == rec_calls(ys)


@pytest.mark.parametrize("binarize", [False, True])
def test_da_conjunctive_preprocesses_a_projected_query_once(ex51, monkeypatch, binarize):
    q, db, order = ex51
    built = []
    real = access.preprocess
    monkeypatch.setattr(access, "preprocess", lambda c: built.append(c) or real(c))
    engine = da_conjunctive(SignedQuery(q.atoms, frozenset({"x1", "x2"})), db, order, binarize=binarize)
    assert engine.count() == 4
    assert built == [engine.circuit]


@pytest.mark.parametrize("binarize", [False, True])
def test_da_conjunctive_names_the_source_arities(binarize):
    # four values take two bits, so a binarized R would have arity 4 and the atom 6
    db = Database(Domain(("a", "b", "c", "d")), {"R": Relation(("c0", "c1"), frozenset({("a", "d")}))})
    q = parse_query("Q(*) :- R(x, y, z).")
    with pytest.raises(ArityMismatchError, match="^R has arity 2, atom uses 3$"):
        da_conjunctive(q, db, VarOrder(("x", "y", "z")), binarize=binarize)


def test_dpll_compile_rejects_a_head_that_is_not_an_elimination_suffix(ex51):
    q, db, order = ex51
    elimination = order.reversed()  # x4, x3, x2, x1
    for free in ({"x1", "x3"}, {"x4"}, {"x2"}):
        conj = SignedQuery(q.atoms, frozenset(free))
        with pytest.raises(NotFreeConnexError):
            dpll_compile(conj, db, elimination)
        with pytest.raises(NotFreeConnexError):
            compile_binarized(conj, db, elimination)
    suffix, _ = dpll_compile(SignedQuery(q.atoms, frozenset({"x1", "x2"})), db, elimination)
    assert suffix.universe == VarOrder(("x1", "x2"))


@given(instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_answers_survive_atom_order_value_names_and_encoding(inst, data):
    q, db, order = inst.query, inst.db, inst.order
    keep = data.draw(st.integers(0, len(order)), label="free prefix")
    free = None if keep == len(order) else frozenset(order.vars[:keep])
    binarize = data.draw(st.booleans(), label="binarize")
    engine = da_conjunctive(SignedQuery(q.atoms, free), db, order, binarize=binarize)
    answers = list(engine.answers())

    atoms = data.draw(st.permutations(q.atoms), label="atom order")
    permuted = da_conjunctive(SignedQuery(tuple(atoms), free), db, order, binarize=binarize)
    assert list(permuted.answers()) == answers

    toggled = da_conjunctive(SignedQuery(q.atoms, free), db, order, binarize=not binarize)
    assert list(toggled.answers()) == answers

    # new names in any string order; the domain keeps its declared order
    size = len(db.domain)
    distinct = st.lists(st.text("abz019", min_size=1, max_size=3), min_size=size, max_size=size, unique=True)
    names = data.draw(distinct, label="value names")
    rename = dict(zip(db.domain.values, names))
    renamed_db = Database(
        Domain(tuple(names)),
        {
            symbol: Relation(rel.vars, frozenset(tuple(map(rename.__getitem__, row)) for row in rel.rows))
            for symbol, rel in db.relations.items()
        },
    )
    renamed = da_conjunctive(SignedQuery(q.atoms, free), renamed_db, order, binarize=binarize)
    back = {new: old for old, new in rename.items()}
    assert [{v: back[d] for v, d in t.items()} for t in renamed.answers()] == answers
    assert renamed.stats == engine.stats


@pytest.mark.parametrize("engine", ["binarized", "raw", "reduction"])
def test_rank_of_needs_every_answer_variable(ex51, engine):
    from cqda.reduction import signed_da_via_reduction

    q, db, order = ex51
    # no answers: T(0,0) is not stored, and S holds only (0,0,0,0)
    empty = parse_query("Q(x1,x2,x3,x4) :- S(x1,x2,x3,x4), T(x1,x3), !R(x2,x4).")
    for query in (q, empty):
        if engine == "reduction":
            handle = signed_da_via_reduction(query, db, order)
        else:
            handle = da_conjunctive(query, db, order, binarize=engine == "binarized")
        assert handle.count() == (8 if query is q else 0)
        with pytest.raises(ValueError):
            handle.rank_of({"x1": "0"})


@pytest.mark.parametrize("engine", ["binarized", "raw", "reduction"])
def test_rank_of_rejects_a_value_outside_the_domain(ex51, engine):
    from cqda.reduction import signed_da_via_reduction

    q, db, order = ex51
    empty = parse_query("Q(x1,x2,x3,x4) :- S(x1,x2,x3,x4), T(x1,x3), !R(x2,x4).")
    for query in (q, empty):
        if engine == "reduction":
            handle = signed_da_via_reduction(query, db, order)
        else:
            handle = da_conjunctive(query, db, order, binarize=engine == "binarized")
        # no answer has x3=0, so the search never compares x4 of the second tuple
        for bad in ({"x1": "7", "x2": "0", "x3": "0", "x4": "0"}, {"x1": "0", "x2": "1", "x3": "0", "x4": "7"}):
            with pytest.raises(ValueError, match="'7' outside the domain"):
                handle.rank_of(bad)
        # an unhashable or absent value, and a variable beyond the universe
        answer = {"x1": "0", "x2": "1", "x3": "1", "x4": "0"}
        for bad in ({**answer, "x1": ["0"]}, {**answer, "x4": None}, {**answer, "y": "0"}):
            with pytest.raises(ArgumentError):
                handle.rank_of(bad)


_ENGINES = ("binarized", "raw", "reduction")
# ints, bools, floats, strings and None; the domain is "0" and "1", and the example has 8 answers
_ARG = st.one_of(st.integers(-2, 10), st.booleans(), st.floats(-2, 10), st.sampled_from(["0", "1", "3", "7"]), st.none())
_INDEX = st.booleans().flatmap(lambda plain: st.integers(-1, 10) if plain else _ARG)  # half of them ints


@st.composite
def _rank_tuples(draw):
    """Mostly mappings over the universe, with odd values, a variable dropped or one added."""
    odd = st.one_of(_ARG, st.lists(st.sampled_from(["0", "1"]), max_size=2), st.dictionaries(st.just("0"), st.just("0")))
    names = ["x1", "x2", "x3", "x4"]
    change = draw(st.sampled_from(["none", "none", "drop", "add"]))
    if change == "drop":
        names.remove(draw(st.sampled_from(names)))
    elif change == "add":
        names.append(draw(st.sampled_from(["y", "x5"])))
    # about one value in ten is odd; a test on 0 would fire far more often, as Hypothesis favours small draws
    t = {v: draw(odd if draw(st.integers(0, 9)) == 5 else st.sampled_from(["0", "1"])) for v in names}
    return draw(st.one_of(st.just(t), st.just(t), st.just(t), _ARG, st.lists(st.sampled_from(names))))


@functools.cache
def _ex51_engines() -> dict:
    from cqda.reduction import signed_da_via_reduction

    q, db, order = example51_query(), example51_db(), VarOrder(("x1", "x2", "x3", "x4"))
    return {
        engine: signed_da_via_reduction(q, db, order)
        if engine == "reduction"
        else da_conjunctive(q, db, order, binarize=engine == "binarized")
        for engine in _ENGINES
    }


@given(st.sampled_from(["kth", "answers", "rank_of"]), _INDEX, _INDEX, st.one_of(st.none(), _INDEX), _rank_tuples())
@settings(max_examples=300, deadline=None)
def test_every_engine_checks_its_arguments_alike(call, k, start, limit, t):
    outcomes = {}
    for name, engine in _ex51_engines().items():
        try:
            if call == "kth":
                got = dict(engine.kth(k))
            elif call == "answers":
                got = [dict(a) for a in engine.answers(start, limit)]
            else:
                got = engine.rank_of(t)
        except CqdaError as exc:
            got = type(exc)
        outcomes[name] = got
    event(f"{call}: {outcomes['raw'].__name__ if isinstance(outcomes['raw'], type) else 'answered'}")
    assert outcomes["binarized"] == outcomes["raw"] == outcomes["reduction"]


@pytest.mark.parametrize("call, args", [
    ("kth", (2.5,)), ("kth", (True,)), ("kth", ("3",)), ("answers", ("1",)), ("answers", (1, 2.5)), ("rank_of", (None,)),
])
def test_a_bad_index_or_tuple_raises_argument_error_on_every_engine(call, args):
    for engine in _ex51_engines().values():
        with pytest.raises(ArgumentError):
            getattr(engine, call)(*args)


def test_answers_window_is_checked_before_yielding(ex51):
    from cqda.errors import OutOfRangeError

    q, db, order = ex51
    engine = da_conjunctive(q, db, order)
    everything = list(engine.answers())
    assert len(everything) == 8
    assert list(engine.answers(6, 3)) == everything[5:]
    assert list(engine.answers(9)) == []
    for start, limit in ((7, 5), (0, 2), (9, 1), (2, -1)):
        with pytest.raises(OutOfRangeError):
            engine.answers(start, limit)


def with_dead_edges(c, rng: random.Random):
    """``c`` rebuilt with zero-count edges: each missing value of a decision gate may lead to Bot or to Bot x Top."""
    out = Circuit(c.domain, c.universe)
    dead = [out.bot(), out.add_product([out.bot(), out.top()])]
    new: dict[int, int] = {}
    for gid in c.reachable():
        g = c.gates[gid]
        if isinstance(g, TopGate):
            new[gid] = out.top()
        elif isinstance(g, BotGate):
            new[gid] = out.bot()
        elif isinstance(g, ProductGate):
            new[gid] = out.add_product(new[ch] for ch in g.children)
        else:
            edges = {v: new[ch] for v, ch in g.edges}
            for v in c.domain.values:
                if v not in edges and rng.random() < 0.5:
                    edges[v] = rng.choice(dead)
            new[gid] = out.add_decision(g.var, [(v, edges[v]) for v in c.domain.values if v in edges])
    out.set_output(new[c.output])
    return out


@given(st.sampled_from([1, 2, 3, 4, 5]).flatmap(lambda d: instances(max_vars=4, max_atoms=3, max_tuples=20, min_dom=d, max_dom=d)),
       st.data())
@settings(max_examples=300, deadline=None)
def test_answers_walk_equals_kth(inst, data):
    """The streamed window equals one kth per index: one bit per variable at a 2-value domain,
    invalid bit patterns at 3 and 5, a padding variable, zero-count edges, windows to ``count()``."""
    q, order = inst.query, inst.order
    keep = data.draw(st.integers(0, len(order)), label="free prefix")
    query = q if keep == len(order) else SignedQuery(q.atoms, frozenset(order.vars[:keep]))
    if query.free is None and data.draw(st.booleans(), label="pad"):
        at = data.draw(st.integers(0, len(order)), label="padding position")
        order = VarOrder(order.vars[:at] + ("pad",) + order.vars[at:])  # no atom mentions it, so no gate tests it
    binarize = data.draw(st.booleans(), label="binarize")
    engine = da_conjunctive(query, inst.db, order, binarize=binarize)
    everything = [engine.kth(k) for k in range(1, engine.count() + 1)]
    dead_edges = data.draw(st.booleans(), label="dead edges")
    if dead_edges:
        dead = with_dead_edges(engine.circuit, random.Random(data.draw(st.integers(0, 2**32), label="edge seed")))
        engine = dataclasses.replace(engine, circuit=dead, index=preprocess(dead))
        assert [engine.kth(k) for k in range(1, engine.count() + 1)] == everything
    n = engine.count()
    start = data.draw(st.integers(1, n + 1), label="start")
    window = data.draw(st.sampled_from(["limit 0", "to count()", "any"]), label="window")
    room = n - start + 1
    limit = 0 if window == "limit 0" else room if window == "to count()" else data.draw(st.integers(0, room), label="limit")
    event(f"{len(inst.db.domain)} values, {'binarized' if binarize else 'raw'}")
    event(f"window {window}, {'no answers' if n == 0 else 'answers'}")
    event(f"dead edges: {dead_edges}")
    assert list(engine.answers(start, limit)) == [engine.kth(k) for k in range(start, start + limit)]
    assert list(engine.answers()) == everything


@pytest.mark.parametrize("binarize", [False, True])
def test_a_window_costs_one_descent(ex51, monkeypatch, binarize):
    q, db, order = ex51
    engine = da_conjunctive(q, db, order, binarize=binarize)
    c, idx = engine.circuit, engine.index
    universe = c.universe.vars

    def path(k: int) -> set[int]:
        # the output and the child crossed at each gated level, found by value
        t = direct_access(c, idx, k)
        found = {c.output}
        for p, x in enumerate(universe):
            for gid in access.frontier(c, idx, {v: t[v] for v in universe[:p]}):
                if c.gates[gid].var == x:
                    found.add(dict(c.gates[gid].edges)[t[x]])
        return found

    paths = {k: path(k) for k in (3, 8)}
    descents, looked_up = [], []
    descend, sinks = access._descend, access._sinks
    monkeypatch.setattr(access, "_descend", lambda c, idx, k, memo: descents.append(k) or descend(c, idx, k, memo))
    monkeypatch.setattr(access, "_sinks", lambda c, gid, memo: looked_up.append(gid) or sinks(c, gid, memo))
    for start, limit in ((1, 8), (2, 6), (5, 2), (3, 1), (8, 1)):
        descents.clear()
        looked_up.clear()
        assert len(list(engine.answers(start, limit))) == limit
        # one descent per window, not one per answer
        assert descents == [start]
        # and the window looks up each child's sinks once
        assert len(looked_up) == len(set(looked_up))
        if limit == 1:
            # a one-answer window looks up only the sinks on its own descent path
            assert set(looked_up) == paths[start]
