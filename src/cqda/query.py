"""Signed join/conjunctive query AST, parser and brute-force evaluation.

Queries are conjunctions of positive and negated atoms over named
relations, with positional argument binding.  A query may carry a set of
free variables; without one it is a plain join query whose answers bind
every variable.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import (
    ArityMismatchError,
    QuerySyntaxError,
    RepeatedVariableError,
    SelfJoinError,
    UnknownRelationError,
)
from .hypergraph import SignedHypergraph
from .relations import Database, Relation


@dataclass(frozen=True)
class Atom:
    positive: bool
    symbol: str
    args: tuple[str, ...]

    def __post_init__(self):
        if not self.args:
            raise RepeatedVariableError(f"atom {self.symbol} has no arguments")
        if len(set(self.args)) != len(self.args):
            raise RepeatedVariableError(f"atom {self.symbol} repeats a variable")

    @property
    def var_set(self) -> frozenset[str]:
        return frozenset(self.args)

    def as_positive(self) -> Atom:
        return Atom(True, self.symbol, self.args)

    def __str__(self) -> str:
        sign = "" if self.positive else "!"
        return f"{sign}{self.symbol}({', '.join(self.args)})"


@dataclass(frozen=True)
class SignedQuery:
    """Self-join-free conjunction of signed atoms, optionally projected."""

    atoms: tuple[Atom, ...]
    free: frozenset[str] | None = None

    def __post_init__(self):
        symbols = [a.symbol for a in self.atoms]
        if len(set(symbols)) != len(symbols):
            raise SelfJoinError("a relation symbol may appear in at most one atom")
        if self.free is not None and not self.free <= self.variables:
            raise QuerySyntaxError("free variables must occur in the body")

    @property
    def variables(self) -> frozenset[str]:
        return frozenset(v for a in self.atoms for v in a.args)

    @property
    def positive_atoms(self) -> tuple[Atom, ...]:
        return tuple(a for a in self.atoms if a.positive)

    @property
    def negative_atoms(self) -> tuple[Atom, ...]:
        return tuple(a for a in self.atoms if not a.positive)

    def __str__(self) -> str:
        head = "*" if self.free is None else ", ".join(sorted(self.free))
        return f"Q({head}) :- {', '.join(map(str, self.atoms))}."


# --- parsing ---------------------------------------------------------------

_PUNCT = {"(", ")", ",", ".", "!", ":-", "*"}


def _tokenize(text: str):
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c.isspace():
            col += 1
            i += 1
        elif text.startswith(":-", i):
            yield ":-", line, col
            col += 2
            i += 2
        elif c in "(),.!*":
            yield c, line, col
            col += 1
            i += 1
        elif c.isalnum() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield text[i:j], line, col
            col += j - i
            i = j
        else:
            raise QuerySyntaxError(f"unexpected character {c!r}", line, col)
    yield None, line, col


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, want: str) -> None:
        tok, line, col = self.next()
        if tok != want:
            raise QuerySyntaxError(f"expected {want!r}, found {tok!r}", line, col)

    def name(self, what: str) -> tuple[str, int, int]:
        tok, line, col = self.next()
        if tok is None or tok in _PUNCT:
            raise QuerySyntaxError(f"expected {what}, found {tok!r}", line, col)
        return tok, line, col


def parse_query(text: str) -> SignedQuery:
    """Parse ``Head(v1, ..) :- Lit, Lit, ... .`` into a query.

    ``!Name(..)`` marks a negated atom.  ``Head(*)`` and a head listing
    every body variable both mean "no projection".
    """
    p = _Parser(text)
    p.name("query name")
    p.expect("(")
    head: list[str] = []
    star = False
    if p.peek() == "*":
        p.next()
        star = True
    elif p.peek() != ")":
        while True:
            var, line, col = p.name("head variable")
            if var in head:
                raise RepeatedVariableError(f"head repeats variable {var}", line, col)
            head.append(var)
            if p.peek() != ",":
                break
            p.next()
    p.expect(")")
    p.expect(":-")

    atoms: list[Atom] = []
    seen_symbols: dict[str, tuple[int, int]] = {}
    while True:
        positive = True
        if p.peek() == "!":
            p.next()
            positive = False
        symbol, line, col = p.name("relation name")
        if symbol in seen_symbols:
            raise SelfJoinError(f"relation {symbol} used twice", line, col)
        seen_symbols[symbol] = (line, col)
        p.expect("(")
        args: list[str] = []
        while True:
            var, vline, vcol = p.name("variable")
            if var in args:
                raise RepeatedVariableError(f"variable {var} repeated in {symbol}", vline, vcol)
            args.append(var)
            if p.peek() != ",":
                break
            p.next()
        p.expect(")")
        atoms.append(Atom(positive, symbol, tuple(args)))
        if p.peek() != ",":
            break
        p.next()
    p.expect(".")
    tok, line, col = p.next()
    if tok is not None:
        raise QuerySyntaxError(f"trailing input {tok!r}", line, col)

    body_vars = frozenset(v for a in atoms for v in a.args)
    for var in head:
        if var not in body_vars:
            raise QuerySyntaxError(f"head variable {var} does not occur in the body", 1, 1)
    free = None if star or frozenset(head) == body_vars else frozenset(head)
    return SignedQuery(tuple(atoms), free)


# --- semantics -------------------------------------------------------------

def check_compatible(q: SignedQuery, db: Database) -> None:
    """Raise unless every atom names a stored relation of matching arity."""
    for atom in q.atoms:
        rel = db.relations.get(atom.symbol)
        if rel is None:
            raise UnknownRelationError(f"relation {atom.symbol} not in database")
        if len(rel.vars) != len(atom.args):
            raise ArityMismatchError(
                f"{atom.symbol} has arity {len(rel.vars)}, atom uses {len(atom.args)}"
            )


def hypergraph_of(q: SignedQuery) -> SignedHypergraph:
    """One positive edge per positive atom, one negative edge per negated atom."""
    return SignedHypergraph(
        vertices=q.variables,
        pos_edges=tuple(a.var_set for a in q.positive_atoms),
        neg_edges=tuple(a.var_set for a in q.negative_atoms),
    )


def atom_consistent(atom: Atom, tau: Mapping[str, str], db: Database) -> bool:
    """Whether the atom can still be satisfied under the partial tuple.

    A fully bound atom holds by membership of its row (or non-membership
    when negated).  A partly bound positive atom needs a stored row that
    agrees with ``tau`` on its bound arguments; a partly bound negated
    atom can always still hold.
    """
    rel = db.relations.get(atom.symbol)
    if rel is None:
        raise UnknownRelationError(f"relation {atom.symbol} not in database")
    if all(v in tau for v in atom.args):
        return (tuple(tau[v] for v in atom.args) in rel.rows) == atom.positive
    if not atom.positive:
        return True
    bound = [(i, tau[v]) for i, v in enumerate(atom.args) if v in tau]
    return any(all(row[i] == d for i, d in bound) for row in rel.rows)


def eval_bruteforce(q: SignedQuery, db: Database) -> Relation:
    """All answers by enumerating every assignment of the query variables.

    Intended for small instances only; this is the ground-truth oracle
    for both engines.  Answers are projected to the free variables when
    the query has a head.
    """
    check_compatible(q, db)
    vs = tuple(sorted(q.variables))
    rows = set()
    for values in itertools.product(db.domain.values, repeat=len(vs)):
        tau = dict(zip(vs, values))
        if all(atom_consistent(a, tau, db) for a in q.atoms):
            rows.add(values)
    result = Relation(vs, frozenset(rows))
    if q.free is not None:
        keep = tuple(sorted(q.free))
        cols = [vs.index(v) for v in keep]
        result = Relation(keep, frozenset(tuple(row[c] for c in cols) for row in result.rows))
    return result
