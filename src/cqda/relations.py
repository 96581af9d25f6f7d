"""Named tuples, relations and ordered domains, plus a full-sort oracle.

Everything here works on explicit, fully materialised relations.
``sort_lex`` lists a relation in lexicographic order by sorting it
outright; the circuit and reduction engines are tested against it.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

LT, EQ, GT = -1, 0, 1


@dataclass(frozen=True)
class Domain:
    """Finite totally ordered set of opaque values.

    The order is the declaration order of ``values`` and nothing else;
    ranks are 1-based.
    """

    values: tuple[str, ...]
    _pos: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pos = {v: i + 1 for i, v in enumerate(self.values)}
        if len(pos) != len(self.values):
            raise ValueError("domain values must be distinct")
        object.__setattr__(self, "_pos", pos)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)

    def __contains__(self, value: str) -> bool:
        return value in self._pos

    def rank(self, value: str) -> int:
        """Number of domain elements smaller or equal to ``value``."""
        try:
            return self._pos[value]
        except KeyError:
            raise ValueError(f"value {value!r} outside the domain") from None


@dataclass(frozen=True)
class VarOrder:
    """Sequence of distinct variable names; earlier means more significant."""

    vars: tuple[str, ...]
    _pos: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pos = {v: i for i, v in enumerate(self.vars)}
        if len(pos) != len(self.vars):
            raise ValueError("variable order must not repeat names")
        object.__setattr__(self, "_pos", pos)

    def __len__(self) -> int:
        return len(self.vars)

    def __iter__(self) -> Iterator[str]:
        return iter(self.vars)

    def __contains__(self, var: str) -> bool:
        return var in self._pos

    def position(self, var: str) -> int:
        return self._pos[var]

    def reversed(self) -> VarOrder:
        return VarOrder(self.vars[::-1])


class Assignment(Mapping):
    """Immutable mapping from variable names to domain values."""

    __slots__ = ("_map", "_items")

    def __init__(self, mapping: Mapping[str, str] | Iterable[tuple[str, str]] = ()):
        m = dict(mapping)
        object.__setattr__(self, "_map", m)
        object.__setattr__(self, "_items", tuple(sorted(m.items())))

    def __getitem__(self, var: str) -> str:
        return self._map[var]

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._map))

    def __len__(self) -> int:
        return len(self._map)

    def __hash__(self) -> int:
        return hash(self._items)

    def __eq__(self, other) -> bool:
        if isinstance(other, Assignment):
            return self._items == other._items
        if isinstance(other, Mapping):
            return self._map == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}={d!r}" for v, d in self._items)
        return f"Assignment({inner})"


@dataclass(frozen=True)
class Relation:
    """Set of tuples over a fixed variable list.

    Rows are stored positionally, aligned with ``vars``.  Set semantics:
    duplicates are impossible by construction.
    """

    vars: tuple[str, ...]
    rows: frozenset[tuple[str, ...]]
    _tries: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("relation variables must be distinct")
        for row in self.rows:
            if len(row) != len(self.vars):
                raise ValueError("row width differs from variable list")

    @classmethod
    def from_rows(cls, vars: Iterable[str], rows: Iterable[Iterable[str]]) -> Relation:
        return cls(tuple(vars), frozenset(tuple(r) for r in rows))

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, var: str) -> int:
        return self.vars.index(var)

    def trie(self, perm: tuple[int, ...]) -> dict:
        """Nested-dict prefix trie over columns taken in ``perm`` order.

        Equal subtries are one object, so a node's identity stands for
        the rows below it; the compiler keys its cache by it, and the trie
        is read-only.  Rows go in with ``setdefault``, all ending in one
        empty leaf.  Every root-to-leaf path has ``len(perm)`` edges, so
        equal subtries sit at one depth, and they are interned level by
        level from the leaves, without recursion: a node above the leaf
        by its value set, any other node by its ``(value, id(child))``
        pairs once its children are their level's representatives.
        Memoised per permutation; a relation is immutable, so the trie is
        built at most once for each column ordering.
        """
        root = self._tries.get(perm)
        if root is not None:
            return root
        root, leaf = {}, {}
        for row in self.rows if perm else ():  # with no columns the trie is the bare root
            node = root
            for col in perm[:-1]:
                node = node.setdefault(row[col], {})
            node[row[perm[-1]]] = leaf
        levels = [[root]]  # keeps every node alive through the pass, so no id is reused
        for _ in perm[1:]:
            levels.append([child for node in levels[-1] for child in node.values()])
        table: dict[frozenset, dict] = {}
        rep = {id(node): table.setdefault(frozenset(node), node) for node in levels.pop()}
        for nodes in reversed(levels):
            below, rep, table = rep, {}, {}
            for node in nodes:
                pairs = []
                for d, child in node.items():
                    child = node[d] = below[id(child)]
                    pairs.append((d, id(child)))
                rep[id(node)] = table.setdefault(frozenset(pairs), node)
        self._tries[perm] = root
        return root


@dataclass(frozen=True, eq=False)
class Database:
    """Ordered domain plus named positional relations."""

    domain: Domain
    relations: dict[str, Relation]

    def __post_init__(self):
        known = self.domain._pos.keys()
        for name, rel in self.relations.items():
            if not known >= set(itertools.chain.from_iterable(rel.rows)):
                # the least by repr, so the message does not depend on the set's hash order
                value = min((v for row in rel.rows for v in row if v not in known), key=repr)
                raise ValueError(f"relation {name}: value {value!r} outside the domain")

    @property
    def size(self) -> int:
        """Total tuple count plus the domain size."""
        return sum(len(r) for r in self.relations.values()) + len(self.domain)


def join(r1: Relation, r2: Relation) -> Relation:
    """Natural join; a Cartesian product when no variables are shared."""
    shared = [v for v in r1.vars if v in r2.vars]
    out_vars = r1.vars + tuple(v for v in r2.vars if v not in r1.vars)
    k1 = [r1.column(v) for v in shared]
    k2 = [r2.column(v) for v in shared]
    extra = [i for i, v in enumerate(r2.vars) if v not in r1.vars]
    buckets: dict[tuple, list] = {}
    for row in r2.rows:
        buckets.setdefault(tuple(row[i] for i in k2), []).append(row)
    out = set()
    for row in r1.rows:
        for other in buckets.get(tuple(row[i] for i in k1), ()):
            out.add(row + tuple(other[i] for i in extra))
    return Relation(out_vars, frozenset(out))


def lex_compare(t1: Mapping[str, str], t2: Mapping[str, str], order: VarOrder, domain: Domain) -> int:
    """Compare two tuples that bind every variable of ``order``; returns LT, EQ or GT."""
    for v in order:
        a, b = domain.rank(t1[v]), domain.rank(t2[v])
        if a != b:
            return LT if a < b else GT
    return EQ


def sort_lex(r: Relation, order: VarOrder, domain: Domain) -> list[Assignment]:
    """All tuples of ``r`` in lexicographic order (full-sort oracle)."""
    sig = [r.column(v) for v in order if v in r.vars]
    rows = sorted(r.rows, key=lambda row: tuple(domain.rank(row[c]) for c in sig))
    return [Assignment(zip(r.vars, row)) for row in rows]

