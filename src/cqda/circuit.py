"""Ordered relational circuits: gates, semantics, size and a debug dump.

A circuit is a DAG of constant gates (``Top``/``Bot``), decision gates
whose sorted in-edges carry domain values, and product gates joining
variable-disjoint subcircuits.  The circuit's ``universe`` is a variable
order over the full tuple space; it is also the significance order the
access routines serve (most significant variable first).  On a valid
circuit every decision gate tests the most significant variable of its
subcircuit.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from collections.abc import Iterable

from .errors import CqdaError, TooLargeError
from .relations import Domain, Relation, VarOrder

DEFAULT_MATERIALISE_BOUND = 1 << 20
_child = operator.itemgetter(1)  # the child id of a ``(value, child)`` decision edge


@dataclass(frozen=True)
class TopGate:
    pass


@dataclass(frozen=True)
class BotGate:
    pass


@dataclass(frozen=True)
class DecisionGate:
    var: str
    edges: tuple[tuple[str, int], ...]  # (value, child id), sorted by value rank


@dataclass(frozen=True)
class ProductGate:
    children: tuple[int, ...]


Gate = TopGate | BotGate | DecisionGate | ProductGate


class Circuit:
    """Append-only gate arena with a single output gate.

    Gates are addressed by index.  Ids are children-first: only ``top``,
    ``bot``, ``add_decision`` and ``add_product`` call ``_add``, and the
    last two take only existing gates as children.  Construction is
    single-threaded; the circuit is immutable once the output is set.
    """

    def __init__(self, domain: Domain, universe: VarOrder):
        self.domain = domain
        self.universe = universe
        self.gates: list[Gate] = []
        self.output: int = -1
        self._top: int | None = None
        self._bot: int | None = None

    def _add(self, gate: Gate) -> int:
        self.gates.append(gate)
        return len(self.gates) - 1

    def top(self) -> int:
        """Shared constant-true gate (created on first use)."""
        if self._top is None:
            self._top = self._add(TopGate())
        return self._top

    def bot(self) -> int:
        if self._bot is None:
            self._bot = self._add(BotGate())
        return self._bot

    def add_decision(self, var: str, edges: Iterable[tuple[str, int]]) -> int:
        """Decision gate on ``var`` with ``(value, child id)`` edges in strictly increasing rank.

        Edges are stored as given, never sorted: a repeated value, a
        value out of rank order or outside the domain, and a child that
        is not yet a gate each raise ``ValueError``.
        """
        if var not in self.universe:
            raise ValueError(f"decision variable {var} outside the universe")
        edges = tuple(edges)
        rank = self.domain.rank
        last = 0
        for value, child in edges:
            r = rank(value)
            if r <= last:
                if r == last:
                    raise ValueError("decision edge values must be distinct")
                raise ValueError("decision edges must come in increasing rank order")
            if not 0 <= child < len(self.gates):
                raise ValueError("edge to unknown gate")
            last = r
        return self._add(DecisionGate(var, edges))

    def add_product(self, children: Iterable[int]) -> int:
        kids = tuple(children)
        if len(kids) < 2:
            raise ValueError("product gates need at least two children")
        for child in kids:
            if not 0 <= child < len(self.gates):
                raise ValueError("edge to unknown gate")
        return self._add(ProductGate(kids))

    def set_output(self, gate_id: int) -> None:
        if not 0 <= gate_id < len(self.gates):
            raise ValueError("output gate does not exist")
        self.output = gate_id

    def children(self, gate_id: int) -> Iterable[int]:
        """Child ids of a gate, read off its edges without building a tuple."""
        g = self.gates[gate_id]
        if isinstance(g, DecisionGate):
            return map(_child, g.edges)
        return g.children if isinstance(g, ProductGate) else ()

    def reachable(self) -> list[int]:
        """Gates reachable from the output, in increasing id order.

        Ids are children-first (see ``Circuit``), so one sweep from the
        output down to id 0 marks every live gate's children.  Every pass
        over a circuit starts with this sweep, so it reads the edges in
        place instead of calling ``children``.
        """
        if self.output < 0:
            raise ValueError("circuit has no output")
        gates = self.gates
        live = bytearray(self.output + 1)
        live[self.output] = 1
        for gid in range(self.output, -1, -1):
            if live[gid]:
                g = gates[gid]
                if isinstance(g, DecisionGate):
                    for _, child in g.edges:
                        live[child] = 1
                elif isinstance(g, ProductGate):
                    for child in g.children:
                        live[child] = 1
        return list(itertools.compress(range(self.output + 1), live))


def circuit_size(c: Circuit) -> int:
    """Number of edges of the DAG reachable from the output."""
    gates = [c.gates[gid] for gid in c.reachable()]
    decisions = sum(len(g.edges) for g in gates if isinstance(g, DecisionGate))
    return decisions + sum(len(g.children) for g in gates if isinstance(g, ProductGate))


def gate_var_sets(c: Circuit) -> dict[int, frozenset[str]]:
    """Decision variables reachable from each reachable gate, built as bitmasks and decoded once per mask."""
    bit = {v: 1 << i for i, v in enumerate(c.universe.vars)}
    mask: dict[int, int] = {}
    for gid in c.reachable():
        g = c.gates[gid]
        m = bit[g.var] if isinstance(g, DecisionGate) else 0
        for child in c.children(gid):
            m |= mask[child]
        mask[gid] = m
    decoded = {m: frozenset(v for v, b in bit.items() if m & b) for m in set(mask.values())}
    return {gid: decoded[m] for gid, m in mask.items()}


def semantics_bruteforce(c: Circuit, max_tuples: int = DEFAULT_MATERIALISE_BOUND) -> Relation:
    """Materialise the relation the circuit computes over its universe.

    Bottom-up evaluation; decision branches are padded with all values of
    the variables their subcircuit does not mention, and the output is
    padded to the full universe the same way.  A gate's rows hold its
    decision variables (``gate_var_sets``) in sorted order.
    """
    domain = c.domain
    var_of = gate_var_sets(c)

    def pad(rows: set[tuple], vars_now: tuple[str, ...], target: frozenset[str]) -> tuple[set[tuple], tuple[str, ...]]:
        missing = tuple(sorted(target - set(vars_now)))
        if not missing:
            return rows, vars_now
        # padding is injective, so the size is known before building anything
        if len(rows) * len(domain) ** len(missing) > max_tuples:
            raise TooLargeError("materialised relation exceeds the configured bound")
        out = set()
        for row in rows:
            for extra in itertools.product(domain.values, repeat=len(missing)):
                out.add(row + extra)
        return out, vars_now + missing

    def sort_columns(rows: set[tuple], cols: tuple[str, ...]) -> set[tuple]:
        """The rows with their columns permuted into sorted name order."""
        perm = sorted(range(len(cols)), key=cols.__getitem__)
        return {tuple(row[i] for i in perm) for row in rows}

    rel_rows: dict[int, set[tuple]] = {}
    for gid in c.reachable():
        g = c.gates[gid]
        if isinstance(g, BotGate):
            rel_rows[gid] = set()
        elif isinstance(g, TopGate):
            rel_rows[gid] = {()}
        elif isinstance(g, DecisionGate):
            target = var_of[gid] - {g.var}
            rows: set[tuple] = set()
            for value, child in g.edges:
                crows, cvars = pad(rel_rows[child], tuple(sorted(var_of[child])), target)
                rows |= sort_columns({(value,) + row for row in crows}, (g.var,) + cvars)
                if len(rows) > max_tuples:
                    raise TooLargeError("materialised relation exceeds the configured bound")
            rel_rows[gid] = rows
        else:
            rows = {()}
            vars_now: tuple[str, ...] = ()
            for child in g.children:
                rows = {a + b for a in rows for b in rel_rows[child]}
                vars_now += tuple(sorted(var_of[child]))
                if len(rows) > max_tuples:
                    raise TooLargeError("materialised relation exceeds the configured bound")
            rel_rows[gid] = sort_columns(rows, vars_now)

    out_rows = sort_columns(*pad(rel_rows[c.output], tuple(sorted(var_of[c.output])), frozenset(c.universe)))
    if len(out_rows) > max_tuples:
        raise TooLargeError("materialised relation exceeds the configured bound")
    return Relation(tuple(sorted(c.universe)), frozenset(out_rows))


# --- debug dump --------------------------------------------------------------

def check_dump_tokens(tokens: Iterable[str]) -> None:
    """Raise ``CqdaError`` on a value or variable that contains whitespace or ``->``."""
    for token in tokens:
        if any(ch.isspace() for ch in token) or "->" in token:
            raise CqdaError(f"token {token!r} cannot appear in a circuit dump")


def dump_circuit(c: Circuit) -> str:
    """One gate per line, in increasing id order, renumbered from 0."""
    check_dump_tokens(itertools.chain(c.domain.values, c.universe.vars))
    lines = [
        "domain " + " ".join(c.domain.values),
        "vars " + " ".join(c.universe.vars),
    ]
    order = c.reachable()
    renum = {gid: i for i, gid in enumerate(order)}
    for i, gid in enumerate(order):
        g = c.gates[gid]
        if isinstance(g, TopGate):
            lines.append(f"{i} top")
        elif isinstance(g, BotGate):
            lines.append(f"{i} bot")
        elif isinstance(g, DecisionGate):
            edges = " ".join(f"{v}->{renum[ch]}" for v, ch in g.edges)
            lines.append(f"{i} decision {g.var} {edges}".rstrip())
        else:
            lines.append(f"{i} product " + " ".join(str(renum[ch]) for ch in g.children))
    lines.append(f"output {renum[c.output]}")
    return "\n".join(lines) + "\n"
