import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import example51_db, example51_query, instances
from cqda.access import Provider, rank_by_kth
from cqda.errors import OutOfRangeError
from cqda.project import da_conjunctive
from cqda.query import SignedQuery, eval_bruteforce, parse_query
from cqda.reduction import Difference, positive_part, signed_da_via_reduction
from cqda.relations import Assignment, Database, Domain, Relation, VarOrder, sort_lex


D3 = Domain(("0", "1", "2"))
XY = VarOrder(("x", "y"))


class ExplicitProvider(Provider):
    """Direct access over a materialised relation; the small-case oracle."""

    def __init__(self, rel: Relation, order: VarOrder, domain: Domain):
        self.universe = order
        self.domain = domain
        self._sorted = sort_lex(rel, order, domain)

    def count(self) -> int:
        return len(self._sorted)

    def _kth(self, k: int) -> Assignment:
        return self._sorted[k - 1]

    def _rank_of(self, t) -> int:
        return rank_by_kth(self._kth, self.count(), t, self.universe, self.domain)


def provider(rows):
    return ExplicitProvider(Relation.from_rows(("x", "y"), rows), XY, D3)


def full_square():
    return [(a, b) for a in D3.values for b in D3.values]


def test_rank_via_da_inverse():
    p = provider(full_square())
    for k in range(1, p.count() + 1):
        assert p.rank_of(p.kth(k)) == k


def test_rank_via_da_below_minimum():
    p = provider([("1", "1"), ("2", "0")])
    assert p.rank_of(Assignment({"x": "0", "y": "0"})) == 0


def test_rank_via_da_matches_bruteforce_count():
    rng = random.Random(2)
    rows = [tuple(rng.choice(D3.values) for _ in range(2)) for _ in range(6)]
    p = provider(rows)
    everything = sort_lex(Relation.from_rows(("x", "y"), set(rows)), XY, D3)
    for t in (Assignment({"x": a, "y": b}) for a in D3.values for b in D3.values):
        expected = sum(
            1
            for s in everything
            if (D3.rank(s["x"]), D3.rank(s["y"])) <= (D3.rank(t["x"]), D3.rank(t["y"]))
        )
        assert p.rank_of(t) == expected


def test_subtract_identity_and_empty():
    square = provider(full_square())
    nothing = provider([])
    same = Difference(square, nothing)
    assert same.count() == 9
    assert [same.kth(k) for k in range(1, 10)] == [square.kth(k) for k in range(1, 10)]
    gone = Difference(square, provider(full_square()))
    assert gone.count() == 0
    with pytest.raises(OutOfRangeError):
        gone.kth(1)


def test_subtract_diagonal():
    square = provider(full_square())
    diag = provider([(v, v) for v in D3.values])
    diff = Difference(square, diag)
    assert diff.count() == 6
    expected = sort_lex(
        Relation.from_rows(("x", "y"), [r for r in full_square() if r[0] != r[1]]), XY, D3
    )
    assert [diff.kth(k) for k in range(1, 7)] == expected


@given(seed=st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_subtract_matches_set_difference(seed):
    rng = random.Random(seed)
    big_rows = {
        tuple(rng.choice(D3.values) for _ in range(2)) for _ in range(rng.randint(0, 9))
    }
    small_rows = {r for r in big_rows if rng.random() < 0.5}
    diff = Difference(provider(sorted(big_rows)), provider(sorted(small_rows)))
    expected = sort_lex(Relation.from_rows(("x", "y"), big_rows - small_rows), XY, D3)
    assert diff.count() == len(expected)
    assert [diff.kth(k) for k in range(1, diff.count() + 1)] == expected


def test_positive_part(ex51):
    q, _, _ = ex51
    neg = [i for i, a in enumerate(q.atoms) if not a.positive]
    flipped = positive_part(q, frozenset(neg))
    assert all(a.positive for a in flipped.atoms)
    assert len(flipped.atoms) == 3
    dropped = positive_part(q, frozenset())
    assert {a.symbol for a in dropped.atoms} == {"T", "R"}


def test_signed_da_equals_circuit_engine(ex51):
    q, db, order = ex51
    red = signed_da_via_reduction(q, db, order)
    eng = da_conjunctive(q, db, order)
    assert red.count() == eng.count() == 8
    for k in range(1, 9):
        assert red.kth(k) == eng.kth(k)


def test_positive_parts_alone_and_flipped(ex51):
    # no kept negatives: the engine serves the positive part alone
    q, db, order = ex51
    neg = frozenset(i for i, a in enumerate(q.atoms) if not a.positive)
    for flipped in (frozenset(), neg):
        positive = positive_part(q, flipped)
        engine = signed_da_via_reduction(positive, db, order)
        oracle = sort_lex(eval_bruteforce(positive, db), order, db.domain)
        assert engine.count() == len(oracle)
        assert [engine.kth(k) for k in range(1, engine.count() + 1)] == oracle


@given(instances(max_vars=4, max_atoms=3, max_dom=3))
@settings(max_examples=30, deadline=None)
def test_cross_engine_equivalence(inst):
    q, db, order = inst.query, inst.db, inst.order
    red = signed_da_via_reduction(q, db, order)
    eng = da_conjunctive(q, db, order)
    oracle = sort_lex(eval_bruteforce(q, db), order, db.domain)
    assert red.count() == eng.count() == len(oracle)
    for k, expected in enumerate(oracle, 1):
        assert red.kth(k) == expected
        assert eng.kth(k) == expected


@given(instances(max_vars=4, max_atoms=3, max_dom=3), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_reduction_rank_of_inverts_kth_and_matches_circuit(inst, seed):
    q, db, order = inst.query, inst.db, inst.order
    red = signed_da_via_reduction(q, db, order)
    eng = da_conjunctive(q, db, order)
    for k in range(1, red.count() + 1):
        assert red.rank_of(red.kth(k)) == k
    rng = random.Random(seed)
    t = Assignment({v: rng.choice(db.domain.values) for v in order.vars})
    assert red.rank_of(t) == eng.rank_of(t)


def split_query(q: SignedQuery, flipped: frozenset[int], kept: frozenset[int]) -> SignedQuery:
    """``q`` with the negated atoms in ``flipped`` made positive, those in ``kept`` kept, the rest dropped."""
    return SignedQuery(
        tuple(
            a.as_positive() if i in flipped else a
            for i, a in enumerate(q.atoms)
            if a.positive or i in flipped | kept
        )
    )


@given(instances(max_vars=3, max_atoms=3, max_dom=3, max_tuples=5))
@settings(max_examples=20, deadline=None)
def test_every_flipped_kept_split_matches_bruteforce(inst):
    # each split through the reduction engine, and again with the flipped
    # atoms peeled off by differences rooted at signed circuit engines
    q, db, order = inst.query, inst.db, inst.order
    negatives = [i for i, a in enumerate(q.atoms) if not a.positive]

    def peeled(flipped: frozenset[int], kept: frozenset[int]):
        if not flipped:
            return da_conjunctive(split_query(q, flipped, kept), db, order)
        r = max(flipped)
        rest = flipped - {r}
        return Difference(peeled(rest, kept), peeled(rest, kept | {r}))

    for take in range(len(negatives) + 1):
        for flipped in map(frozenset, itertools.combinations(negatives, take)):
            kept = frozenset(negatives) - flipped
            split = split_query(q, flipped, kept)
            oracle = sort_lex(eval_bruteforce(split, db), order, db.domain)
            for got in (signed_da_via_reduction(split, db, order), peeled(flipped, kept)):
                assert got.count() == len(oracle)
                assert [got.kth(k) for k in range(1, got.count() + 1)] == oracle


def _engine(engine: str, q, db, order):
    if engine == "reduction":
        return signed_da_via_reduction(q, db, order)
    return da_conjunctive(q, db, order, binarize=engine == "circuit")


@pytest.mark.parametrize("engine", ["circuit", "raw", "reduction"])
def test_answers_window_equals_kth_and_is_checked_before_yielding(ex51, engine):
    q, db, order = ex51
    handle = _engine(engine, q, db, order)
    everything = [handle.kth(k) for k in range(1, handle.count() + 1)]
    assert len(everything) == 8
    assert list(handle.answers()) == everything
    for start in range(1, 10):
        assert list(handle.answers(start)) == everything[start - 1:]
        for limit in range(0, 10 - start):
            assert list(handle.answers(start, limit)) == everything[start - 1:start - 1 + limit]
    for start, limit in ((7, 5), (0, 2), (9, 1), (2, -1), (10, None)):
        with pytest.raises(OutOfRangeError):
            handle.answers(start, limit)

    # 56 answers, so windows run past 50 answers
    square = Relation.from_rows(("c0", "c1"), itertools.product("abcd", repeat=2))
    pairs = Relation.from_rows(("c0", "c1"), [("a", "b"), ("d", "d")])
    wide = Database(Domain(tuple("abcd")), {"R": square, "S": square, "T": pairs})
    handle = _engine(engine, parse_query("Q(*) :- R(x,y), S(y,z), !T(x,z)."), wide, VarOrder(("x", "y", "z")))
    everything = [handle.kth(k) for k in range(1, handle.count() + 1)]
    assert len(everything) == 56
    assert list(handle.answers()) == everything
    rng = random.Random(0)
    for _ in range(20):
        start = rng.randint(1, 6)
        limit = rng.randint(51, 57 - start)
        assert list(handle.answers(start, limit)) == everything[start - 1:start - 1 + limit]
    for start, limit in ((1, 57), (6, 52)):
        with pytest.raises(OutOfRangeError):
            handle.answers(start, limit)


@given(instances(max_vars=4, max_atoms=4, max_dom=3), st.data())
@settings(max_examples=40, deadline=None)
def test_reduction_answers_survive_atom_order_and_value_names(inst, data):
    # permuting the atoms changes the order in which the negated atoms are subtracted
    q, db, order = inst.query, inst.db, inst.order
    binarize = data.draw(st.booleans(), label="binarize")
    answers = list(signed_da_via_reduction(q, db, order, binarize=binarize).answers())

    atoms = data.draw(st.permutations(q.atoms), label="atom order")
    permuted = signed_da_via_reduction(SignedQuery(tuple(atoms)), db, order, binarize=binarize)
    assert list(permuted.answers()) == answers
    assert [permuted.rank_of(t) for t in answers] == list(range(1, len(answers) + 1))

    # new names in any string order; the domain keeps its declared order
    size = len(db.domain)
    distinct = st.lists(st.text("abz019", min_size=1, max_size=3), min_size=size, max_size=size, unique=True)
    rename = dict(zip(db.domain.values, data.draw(distinct, label="value names")))
    renamed_db = Database(
        Domain(tuple(rename.values())),
        {symbol: Relation(rel.vars, frozenset(tuple(map(rename.__getitem__, row)) for row in rel.rows))
         for symbol, rel in db.relations.items()},
    )
    renamed = signed_da_via_reduction(q, renamed_db, order, binarize=binarize)
    moved = [Assignment({v: rename[d] for v, d in t.items()}) for t in answers]
    assert list(renamed.answers()) == moved
    assert [renamed.rank_of(t) for t in moved] == list(range(1, len(answers) + 1))
