import pytest

from conftest import example51_db, example51_query
from cqda.errors import (
    ArityMismatchError,
    QuerySyntaxError,
    RepeatedVariableError,
    SelfJoinError,
    UnknownRelationError,
)
from cqda.query import (
    Atom,
    SignedQuery,
    atom_consistent,
    check_compatible,
    eval_bruteforce,
    hypergraph_of,
    parse_query,
)
from cqda.relations import Database, Domain, Relation


def test_parse_single_atom():
    q = parse_query("Q() :- R(x,y).")
    assert len(q.atoms) == 1 and q.atoms[0].positive
    assert q.free == frozenset()


def test_parse_example51():
    q = example51_query()
    assert q.free is None  # head lists every variable
    signs = {a.symbol: a.positive for a in q.atoms}
    assert signs == {"S": False, "T": True, "R": True}


def test_parse_star_head():
    q = parse_query("Q(*) :- R(x,y).")
    assert q.free is None


def test_parse_projection_head():
    q = parse_query("Q(x) :- R(x,y).")
    assert q.free == frozenset({"x"})


def test_parse_self_join_rejected():
    with pytest.raises(SelfJoinError):
        parse_query("Q() :- R(x), R(y).")


def test_parse_repeated_variable_rejected():
    with pytest.raises(RepeatedVariableError):
        parse_query("Q() :- R(x,x).")


def test_parse_errors_carry_position():
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("Q() :- R(x,\n ).")
    assert err.value.line == 2


def test_parse_head_variable_must_occur():
    with pytest.raises(QuerySyntaxError):
        parse_query("Q(z) :- R(x,y).")


def test_hypergraph_of_example51():
    h = hypergraph_of(example51_query())
    assert h.vertices == {"x1", "x2", "x3", "x4"}
    assert set(h.pos_edges) == {frozenset({"x1", "x3"}), frozenset({"x2", "x4"})}
    assert set(h.neg_edges) == {frozenset({"x1", "x2", "x3", "x4"})}


def test_hypergraph_positive_only():
    h = hypergraph_of(parse_query("Q() :- R(x,y), T(y)."))
    assert h.neg_edges == ()
    assert frozenset({"y"}) in h.pos_edges


def test_atom_consistency():
    db = example51_db()
    t = Atom(True, "T", ("x1", "x3"))
    s = Atom(False, "S", ("x1", "x2", "x3", "x4"))
    assert atom_consistent(t, {}, db)
    assert not atom_consistent(t, {"x1": "0", "x3": "0"}, db)
    full = {"x1": "0", "x2": "0", "x3": "0", "x4": "0"}
    assert not atom_consistent(s, full, db)
    assert atom_consistent(s, {"x1": "0"}, db)
    # bound on the first and last columns only: some stored row must match both
    three = Database(
        Domain(("0", "1")), {"U": Relation.from_rows(("c0", "c1", "c2"), [("0", "1", "1"), ("1", "0", "0")])}
    )
    u = Atom(True, "U", ("a", "b", "c"))
    assert atom_consistent(u, {"a": "0", "c": "1"}, three)
    assert atom_consistent(u, {"a": "1", "c": "0"}, three)
    assert not atom_consistent(u, {"a": "0", "c": "0"}, three)
    assert not atom_consistent(u, {"a": "1", "c": "1"}, three)
    with pytest.raises(UnknownRelationError):
        atom_consistent(Atom(True, "Nope", ("x",)), {}, db)


def test_check_compatible():
    db = example51_db()
    with pytest.raises(ArityMismatchError):
        check_compatible(parse_query("Q() :- T(x,y,z)."), db)
    with pytest.raises(UnknownRelationError):
        check_compatible(parse_query("Q() :- U(x)."), db)


def test_eval_bruteforce_example51():
    assert len(eval_bruteforce(example51_query(), example51_db()).rows) == 8


def test_eval_bruteforce_inequality_pairs():
    # unary tables joined under a negated diagonal
    dom = Domain(tuple(str(i) for i in range(4)))
    db = Database(
        dom,
        {
            "A": Relation.from_rows(("c0",), [("0",), ("1",), ("2",)]),
            "B": Relation.from_rows(("c0",), [("1",), ("2",), ("3",)]),
            "R": Relation.from_rows(("c0", "c1"), [(str(i), str(i)) for i in range(4)]),
        },
    )
    q = parse_query("Q(*) :- A(x1), B(x2), !R(x1,x2).")
    assert len(eval_bruteforce(q, db).rows) == 7


def test_eval_bruteforce_empty_relation():
    db = Database(Domain(("0",)), {"R": Relation.from_rows(("c0",), [])})
    assert len(eval_bruteforce(parse_query("Q() :- R(x)."), db).rows) == 0


def test_eval_bruteforce_projects_free():
    q, db = example51_query(), example51_db()
    projected = eval_bruteforce(SignedQuery(q.atoms, frozenset({"x1", "x2"})), db)
    assert len(projected.rows) == 4
