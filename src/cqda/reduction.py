"""Direct access for signed queries by reduction to positive queries.

This is a second, independent engine used to cross-validate the circuit
pipeline.  It peels negated atoms one at a time: answers with atom
``!R`` equal answers without it minus answers with ``R`` made positive,
and set difference lifts to direct access through ranking plus binary
search.  Every node of the peel, a positive base engine or a
difference, is wrapped in one memo of ``count`` and ``kth``, because
the nested binary searches revisit indices heavily; the nodes meet the
``access.Provider`` contract of ``CircuitEngine``.
"""

from __future__ import annotations

from collections.abc import Mapping

from .access import Provider, rank_by_kth
from .hypergraph import Budget
from .project import da_conjunctive
from .query import SignedQuery
from .relations import Assignment, Database, VarOrder


class _Memo(Provider):
    """A provider with ``count`` and ``kth`` memoised.

    A difference ranks by subtracting its two sides' ranks; any other
    provider ranks by binary search over the memoised ``kth``, whose
    first probes are the same for every tuple.
    """

    def __init__(self, inner: Provider):
        self.inner, self.universe, self.domain = inner, inner.universe, inner.domain
        self._count = inner.count()
        self._memo: dict[int, Assignment] = {}

    def count(self) -> int:
        return self._count

    def _kth(self, k: int) -> Assignment:
        got = self._memo.get(k)
        if got is None:
            got = self._memo[k] = self.inner._kth(k)
        return got

    def _rank_of(self, t: Mapping[str, str]) -> int:
        if isinstance(self.inner, Difference):
            return self.inner._rank_of(t)
        return rank_by_kth(self._kth, self._count, t, self.universe, self.domain)


class Difference(Provider):
    """``big`` minus ``small``, for providers with ``small`` inside ``big``.

    The k-th element is found by binary search over ranks of ``big``: a
    candidate at big-rank ``r`` has difference-rank ``r`` minus its
    small-rank, and that difference is nondecreasing in ``r``.  As
    ``small`` lies inside ``big``, any tuple's rank is its big-rank
    minus its small-rank.  Nothing is cached here: the engine wraps
    every difference in the same memo as its base providers.
    """

    def __init__(self, big: Provider, small: Provider):
        self.big, self.small = big, small
        self.universe, self.domain = big.universe, big.domain

    def count(self) -> int:
        return self.big.count() - self.small.count()

    def _kth(self, k: int) -> Assignment:
        lo, hi = 1, self.big.count()
        while lo < hi:
            mid = (lo + hi) // 2
            if mid - self.small._rank_of(self.big._kth(mid)) >= k:
                hi = mid
            else:
                lo = mid + 1
        return self.big._kth(lo)

    def _rank_of(self, t: Mapping[str, str]) -> int:
        return self.big._rank_of(t) - self.small._rank_of(t)


def positive_part(q: SignedQuery, flipped: frozenset[int]) -> SignedQuery:
    """The positive query keeping ``flipped`` negated atoms as positives."""
    atoms = tuple(a.as_positive() for i, a in enumerate(q.atoms) if a.positive or i in flipped)
    return SignedQuery(atoms, None)


def signed_da_via_reduction(
    q: SignedQuery, db: Database, order: VarOrder, *, binarize: bool = True, budget: Budget | None = None
) -> Provider:
    """End-to-end second engine: every negated atom peeled by subtraction; ``budget`` caps each compile.

    ``peel(flipped, kept)`` answers the query with the negated atoms in
    ``flipped`` made positive, those in ``kept`` kept negative and the
    others dropped.  Keeping ``!R`` means subtracting, from the answers
    without the atom, the answers with ``R`` positive.  The two sets are
    disjoint by construction, and no pair occurs twice in the recursion.
    """

    def peel(flipped: frozenset[int], kept: frozenset[int]) -> Provider:
        if not kept:
            return _Memo(da_conjunctive(positive_part(q, flipped), db, order, binarize=binarize, budget=budget))
        r = max(kept)
        rest = kept - {r}
        return _Memo(Difference(peel(flipped, rest), peel(flipped | {r}, rest)))

    return peel(frozenset(), frozenset(i for i, a in enumerate(q.atoms) if not a.positive))
