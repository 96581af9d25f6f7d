import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import example51_db, example51_query, instances
from cqda.access import rank_by_kth
from cqda.errors import OutOfRangeError
from cqda.project import da_conjunctive
from cqda.query import SignedQuery, eval_bruteforce
from cqda.reduction import (
    QnnSpec,
    SubtractedProvider,
    positive_part,
    qnn_da,
    signed_da_via_reduction,
)
from cqda.relations import Assignment, Domain, Relation, VarOrder, sort_lex


D3 = Domain(("0", "1", "2"))
XY = VarOrder(("x", "y"))


class ExplicitProvider:
    """Direct access over a materialised relation; the small-case oracle."""

    def __init__(self, rel: Relation, order: VarOrder, domain: Domain):
        self.universe = order
        self.domain = domain
        self._sorted = sort_lex(rel, order, domain)

    def count(self) -> int:
        return len(self._sorted)

    def kth(self, k: int) -> Assignment:
        if not 1 <= k <= len(self._sorted):
            raise OutOfRangeError(f"k out of range (count={len(self._sorted)})")
        return self._sorted[k - 1]

    def rank_of(self, t) -> int:
        return rank_by_kth(self.kth, self.count(), t, self.universe, self.domain)


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
    same = SubtractedProvider(square, nothing)
    assert same.count() == 9
    assert [same.kth(k) for k in range(1, 10)] == [square.kth(k) for k in range(1, 10)]
    gone = SubtractedProvider(square, provider(full_square()))
    assert gone.count() == 0
    with pytest.raises(OutOfRangeError):
        gone.kth(1)


def test_subtract_diagonal():
    square = provider(full_square())
    diag = provider([(v, v) for v in D3.values])
    diff = SubtractedProvider(square, diag)
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
    diff = SubtractedProvider(provider(sorted(big_rows)), provider(sorted(small_rows)))
    expected = sort_lex(Relation.from_rows(("x", "y"), big_rows - small_rows), XY, D3)
    assert diff.count() == len(expected)
    assert [diff.kth(k) for k in range(1, diff.count() + 1)] == expected


def test_qnn_spec_disjointness():
    with pytest.raises(ValueError):
        QnnSpec(frozenset({1}), frozenset({1}))


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


def test_qnn_base_and_flip_cases(ex51):
    q, db, order = ex51
    neg = frozenset(i for i, a in enumerate(q.atoms) if not a.positive)

    def base(flipped):
        return da_conjunctive(positive_part(q, flipped), db, order)

    # no kept negatives: provider for the positive part alone
    plain = qnn_da(QnnSpec(frozenset(), frozenset()), base)
    oracle = sort_lex(eval_bruteforce(positive_part(q, frozenset()), db), order, db.domain)
    assert plain.count() == len(oracle)

    # flipped negative: conjunction with the atom made positive
    flipped = qnn_da(QnnSpec(neg, frozenset()), base)
    oracle = sort_lex(eval_bruteforce(positive_part(q, neg), db), order, db.domain)
    assert flipped.count() == len(oracle)
    assert [flipped.kth(k) for k in range(1, flipped.count() + 1)] == oracle


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


@given(instances(max_vars=3, max_atoms=3, max_dom=3, max_tuples=5))
@settings(max_examples=20, deadline=None)
def test_every_qnn_combination_matches_bruteforce(inst):
    # direct access for the query also answers every flipped/kept split:
    # peel kept atoms off with subtractions rooted at signed engines
    q, db, order = inst.query, inst.db, inst.order
    negatives = [i for i, a in enumerate(q.atoms) if not a.positive]

    def signed_engine(n1: frozenset[int], n2: frozenset[int]):
        # engine for the signed query with n1 flipped, n2 kept negative
        atoms = tuple(
            a.as_positive() if i in n1 else a
            for i, a in enumerate(q.atoms)
            if a.positive or i in n1 | n2
        )
        return da_conjunctive(SignedQuery(atoms), db, order)

    def provider_for(n1: frozenset[int], n2: frozenset[int]):
        if not n1:
            return signed_engine(n1, n2)
        r = max(n1)
        rest = n1 - {r}
        return SubtractedProvider(provider_for(rest, n2), provider_for(rest, n2 | {r}))

    for take in range(len(negatives) + 1):
        for n1 in map(frozenset, itertools.combinations(negatives, take)):
            n2 = frozenset(negatives) - n1
            got = provider_for(n1, n2)
            oracle = sort_lex(
                eval_bruteforce(positive_part(q, n1), db)
                if not n2
                else eval_bruteforce(
                    SignedQuery(
                        tuple(
                            a.as_positive() if i in n1 else a
                            for i, a in enumerate(q.atoms)
                            if a.positive or i in n1 | n2
                        )
                    ),
                    db,
                ),
                order,
                db.domain,
            )
            assert got.count() == len(oracle)
            for k, expected in enumerate(oracle, 1):
                assert got.kth(k) == expected
