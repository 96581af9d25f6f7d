"""Ordered relational circuits: gates, validation, semantics, size.

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
from dataclasses import dataclass
from collections.abc import Iterable

from .errors import CycleDetectedError, TooLargeError
from .relations import Domain, Relation, VarOrder

DEFAULT_MATERIALISE_BOUND = 1 << 20


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

    Gates are addressed by index.  Construction is single-threaded; once
    the output is set the circuit is treated as immutable.
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

    def children(self, gate_id: int) -> tuple[int, ...]:
        g = self.gates[gate_id]
        if isinstance(g, DecisionGate):
            return tuple(child for _, child in g.edges)
        if isinstance(g, ProductGate):
            return g.children
        return ()

    def reachable(self) -> list[int]:
        """Gates reachable from the output, in topological (children-first) order."""
        if self.output < 0:
            raise ValueError("circuit has no output")
        seen: set[int] = set()
        order: list[int] = []
        stack: list[tuple[int, bool]] = [(self.output, False)]
        on_path: set[int] = set()
        while stack:
            gid, done = stack.pop()
            if done:
                on_path.discard(gid)
                order.append(gid)
                continue
            if gid in seen:
                continue
            if gid in on_path:
                raise CycleDetectedError("gate graph contains a cycle")
            seen.add(gid)
            on_path.add(gid)
            stack.append((gid, True))
            for child in self.children(gid):
                if child in on_path:
                    raise CycleDetectedError("gate graph contains a cycle")
                if child not in seen:
                    stack.append((child, False))
        return order


def circuit_size(c: Circuit) -> int:
    """Number of edges of the DAG reachable from the output."""
    return sum(len(c.children(g)) for g in c.reachable())


def gate_var_sets(c: Circuit) -> dict[int, frozenset[str]]:
    """Decision variables reachable from each reachable gate."""
    var_of: dict[int, frozenset[str]] = {}
    for gid in c.reachable():
        g = c.gates[gid]
        acc: frozenset[str] = frozenset()
        for child in c.children(gid):
            acc |= var_of[child]
        if isinstance(g, DecisionGate):
            acc |= {g.var}
        var_of[gid] = acc
    return var_of


def validate_decomposable(c: Circuit) -> tuple[bool, list[str]]:
    """Check product disjointness and that no decision child re-tests its variable."""
    problems: list[str] = []
    var_of = gate_var_sets(c)
    for gid in var_of:
        g = c.gates[gid]
        if isinstance(g, ProductGate):
            taken: set[str] = set()
            for child in g.children:
                overlap = taken & var_of[child]
                if overlap:
                    problems.append(f"product {gid}: children share {sorted(overlap)}")
                taken |= var_of[child]
        elif isinstance(g, DecisionGate):
            for _, child in g.edges:
                if g.var in var_of[child]:
                    problems.append(f"decision {gid}: child {child} re-tests {g.var}")
    return not problems, problems


def validate_ordered(c: Circuit, order: VarOrder) -> bool:
    """True iff every decision gate tests the order-minimum of its variable set."""
    var_of = gate_var_sets(c)
    for gid, vs in var_of.items():
        g = c.gates[gid]
        if isinstance(g, DecisionGate) and vs:
            if order.min_of(vs) != g.var:
                return False
    return True


def semantics_bruteforce(c: Circuit, max_tuples: int = DEFAULT_MATERIALISE_BOUND) -> Relation:
    """Materialise the relation the circuit computes over its universe.

    Bottom-up evaluation; decision branches are padded with all values of
    the variables their subcircuit does not mention, and the output is
    padded to the full universe the same way.
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

    rel_rows: dict[int, set[tuple]] = {}
    rel_vars: dict[int, tuple[str, ...]] = {}
    for gid in c.reachable():
        g = c.gates[gid]
        if isinstance(g, BotGate):
            rel_rows[gid], rel_vars[gid] = set(), ()
        elif isinstance(g, TopGate):
            rel_rows[gid], rel_vars[gid] = {()}, ()
        elif isinstance(g, DecisionGate):
            target = var_of[gid] - {g.var}
            rows: set[tuple] = set()
            for value, child in g.edges:
                crows, cvars = pad(rel_rows[child], rel_vars[child], target)
                cvars_full = (g.var,) + cvars
                perm = sorted(range(len(cvars_full)), key=lambda i: cvars_full[i])
                for row in crows:
                    full = (value,) + row
                    rows.add(tuple(full[i] for i in perm))
                if len(rows) > max_tuples:
                    raise TooLargeError("materialised relation exceeds the configured bound")
            rel_rows[gid], rel_vars[gid] = rows, tuple(sorted(var_of[gid]))
        else:
            rows = {()}
            vars_now: tuple[str, ...] = ()
            for child in g.children:
                crows, cvars = rel_rows[child], rel_vars[child]
                rows = {a + b for a in rows for b in crows}
                vars_now = vars_now + cvars
                if len(rows) > max_tuples:
                    raise TooLargeError("materialised relation exceeds the configured bound")
            perm = sorted(range(len(vars_now)), key=lambda i: vars_now[i])
            rel_rows[gid] = {tuple(row[i] for i in perm) for row in rows}
            rel_vars[gid] = tuple(sorted(vars_now))

    out_rows, out_vars = pad(rel_rows[c.output], rel_vars[c.output], frozenset(c.universe))
    if len(out_rows) > max_tuples:
        raise TooLargeError("materialised relation exceeds the configured bound")
    perm = sorted(range(len(out_vars)), key=lambda i: out_vars[i])
    return Relation(tuple(sorted(out_vars)), frozenset(tuple(row[i] for i in perm) for row in out_rows))


# --- debug dump --------------------------------------------------------------

def dump_circuit(c: Circuit) -> str:
    """One gate per line, children before parents; reloadable via ``load_circuit``."""
    for token in itertools.chain(c.domain.values, c.universe.vars):
        if any(ch.isspace() for ch in token) or "->" in token:
            raise ValueError(f"token {token!r} cannot appear in a circuit dump")
    lines = [
        "domain " + " ".join(c.domain.values),
        "vars " + " ".join(c.universe.vars),
    ]
    order = c.reachable()
    renum = {gid: i for i, gid in enumerate(order)}
    for gid in order:
        g = c.gates[gid]
        i = renum[gid]
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


def load_circuit(text: str) -> Circuit:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3 or not lines[0].startswith("domain ") or not lines[1].startswith("vars"):
        raise ValueError("circuit dump must start with domain and vars lines")
    domain = Domain(tuple(lines[0].split()[1:]))
    universe = VarOrder(tuple(lines[1].split()[1:]))
    c = Circuit(domain, universe)
    ids: dict[str, int] = {}
    for line in lines[2:]:
        parts = line.split()
        if parts[0] == "output":
            c.set_output(ids[parts[1]])
            return c
        name, kind = parts[0], parts[1]
        if kind == "top":
            gid = c.top() if c._top is None else c._add(TopGate())
        elif kind == "bot":
            gid = c.bot() if c._bot is None else c._add(BotGate())
        elif kind == "decision":
            edges = []
            for item in parts[3:]:
                value, _, child = item.rpartition("->")
                edges.append((value, ids[child]))
            gid = c.add_decision(parts[2], edges)
        elif kind == "product":
            gid = c.add_product(ids[p] for p in parts[2:])
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
        ids[name] = gid
    raise ValueError("circuit dump has no output line")

