"""Direct access for signed queries by reduction to positive queries.

This is a second, independent engine used to cross-validate the circuit
pipeline.  It peels negated atoms one at a time: answers with atom
``!R`` equal answers without it minus answers with ``R`` made positive,
and set difference lifts to direct access through ranking plus binary
search.  Every provider answers ``count()``, ``kth(k)`` and
``rank_of(t)`` over a common universe and significance order, the same
contract as ``CircuitEngine``.  A base provider's ``rank_of`` is
``access.rank_by_kth`` over its own ``kth``; a difference ranks by
subtracting its two sides' ranks.  Providers memoise ``kth`` because
the nested binary searches revisit indices heavily.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from .access import rank_by_kth
from .errors import OutOfRangeError
from .hypergraph import Budget
from .project import da_conjunctive
from .query import SignedQuery
from .relations import Assignment, Database, Domain, VarOrder


@dataclass(frozen=True)
class QnnSpec:
    """Choice of negated atoms to flip positive (`n1`) and to keep (`n2`)."""

    n1: frozenset[int]
    n2: frozenset[int]

    def __post_init__(self):
        if self.n1 & self.n2:
            raise ValueError("flipped and kept atom sets must be disjoint")


@dataclass(eq=False)
class SubtractedProvider:
    """Direct access to ``S2 minus S1`` given providers for S1 subset of S2.

    The k-th element is found by binary search over ranks of S2: a
    candidate at S2-rank ``r`` has difference-rank ``r`` minus its
    S1-rank, and that difference is nondecreasing in ``r``.  As S1 lies
    inside S2, any tuple's rank is its S2-rank minus its S1-rank.
    """

    big: object
    small: object
    _kth_cache: dict[int, Assignment] = field(default_factory=dict)

    @property
    def universe(self) -> VarOrder:
        return self.big.universe

    @property
    def domain(self) -> Domain:
        return self.big.domain

    def count(self) -> int:
        return self.big.count() - self.small.count()

    def kth(self, k: int) -> Assignment:
        if not 1 <= k <= self.count():
            raise OutOfRangeError(f"k out of range (count={self.count()})")
        hit = self._kth_cache.get(k)
        if hit is not None:
            return hit
        lo, hi = 1, self.big.count()
        while lo < hi:
            mid = (lo + hi) // 2
            t = self.big.kth(mid)
            if mid - self.small.rank_of(t) >= k:
                hi = mid
            else:
                lo = mid + 1
        result = self.big.kth(lo)
        self._kth_cache[k] = result
        return result

    def rank_of(self, t: Mapping[str, str]) -> int:
        return self.big.rank_of(t) - self.small.rank_of(t)


class _MemoProvider:
    """Memoising wrapper so repeated binary-search probes hit a dict."""

    def __init__(self, inner):
        self.inner = inner
        self.universe = inner.universe
        self.domain = inner.domain
        self._count: int | None = None
        self._kth: dict[int, Assignment] = {}

    def count(self) -> int:
        if self._count is None:
            self._count = self.inner.count()
        return self._count

    def kth(self, k: int) -> Assignment:
        got = self._kth.get(k)
        if got is None:
            got = self.inner.kth(k)
            self._kth[k] = got
        return got

    def rank_of(self, t: Mapping[str, str]) -> int:
        return rank_by_kth(self.kth, self.count(), t, self.universe, self.domain)


def positive_part(q: SignedQuery, flipped: frozenset[int]) -> SignedQuery:
    """The positive query keeping ``flipped`` negated atoms as positives."""
    negatives = [i for i, a in enumerate(q.atoms) if not a.positive]
    drop = set(negatives) - flipped
    atoms = tuple(
        a.as_positive() if i in flipped else a
        for i, a in enumerate(q.atoms)
        if i not in drop
    )
    return SignedQuery(atoms, None)


def qnn_da(spec: QnnSpec, base):
    """Provider for the query with ``n1`` flipped positive and ``n2`` kept.

    Recurses on the kept set: keeping ``!R`` means subtracting, from the
    answers without the atom, the answers with ``R`` positive.  ``base``
    builds a provider for any purely positive combination.  No pair
    ``(n1, n2)`` occurs twice in the recursion, so nothing is memoised
    across calls.
    """
    if not spec.n2:
        return _MemoProvider(base(spec.n1))
    r = max(spec.n2)
    rest = spec.n2 - {r}
    keep = qnn_da(QnnSpec(spec.n1, rest), base)
    flip = qnn_da(QnnSpec(spec.n1 | {r}, rest), base)
    return SubtractedProvider(keep, flip)


def signed_da_via_reduction(
    q: SignedQuery, db: Database, order: VarOrder, *, binarize: bool = True, budget: Budget | None = None
):
    """End-to-end second engine: every negated atom peeled by subtraction; ``budget`` caps each compile."""

    def base(flipped: frozenset[int]):
        return da_conjunctive(positive_part(q, flipped), db, order, binarize=binarize, budget=budget)

    negatives = frozenset(i for i, a in enumerate(q.atoms) if not a.positive)
    return qnn_da(QnnSpec(frozenset(), negatives), base)
