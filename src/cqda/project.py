"""Existential projection on ordered circuits and the full query pipeline.

Projection keeps a prefix of the circuit's universe: because the
circuit is ordered, every decision gate on a dropped variable sits
below the kept ones and can be replaced by a constant recording whether
its subcircuit is satisfiable.  The pipeline does not run this pass:
``dpll_compile`` projects while it compiles, stopping each call on an
existential variable at its first model, so the pipeline below compiles
a query with its head (binarized by default), fills the counting tables
once, and hands back direct access over the answers.
``project_circuit`` stays as the oracle that compile-time projection is
tested against.

Order conventions, fixed once here: the user-facing order is the
lexicographic significance order (most significant variable first).
The compiler consumes its reverse as elimination order, and a query
with free variables needs the free set to be a significance-order
prefix, equivalently an elimination-order suffix.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from . import access as acc
from .circuit import BotGate, Circuit, DecisionGate, TopGate
from .compiler import BinCodec, CompileStats, compile_binarized, debin_tuple, dpll_compile
from .hypergraph import Budget
from .query import SignedQuery
from .relations import Assignment, Database, Domain, VarOrder


def project_circuit(c: Circuit, idx: acc.AccessIndex, keep: int) -> Circuit:
    """Drop all but the first ``keep`` universe variables from the circuit.

    Every decision gate on a dropped variable collapses to Top when its
    relation is nonempty and to Bot otherwise; the result computes the
    projection of the original relation and is never larger.
    """
    n = len(c.universe)
    if not 0 <= keep <= n:
        raise ValueError(f"keep must lie in 0..{n}")
    kept_vars = VarOrder(c.universe.vars[:keep])
    kept_set = set(kept_vars.vars)
    out = Circuit(c.domain, kept_vars)
    mapping: dict[int, int] = {}
    for gid in c.reachable():
        g = c.gates[gid]
        if isinstance(g, TopGate):
            mapping[gid] = out.top()
        elif isinstance(g, BotGate):
            mapping[gid] = out.bot()
        elif isinstance(g, DecisionGate):
            if g.var in kept_set:
                mapping[gid] = out.add_decision(g.var, [(v, mapping[ch]) for v, ch in g.edges])
            else:
                mapping[gid] = out.top() if idx.rel_count[gid] > 0 else out.bot()
        else:
            mapping[gid] = out.add_product(mapping[ch] for ch in g.children)
    out.set_output(mapping[c.output])
    return out


@dataclass(eq=False)
class CircuitEngine(acc.Provider):
    """Direct access handle over the answers of one compiled query.

    ``universe`` is the significance order of the answer variables (the
    free variables when the query had a head).  The hooks run on the
    preprocessed circuit; binarized pipelines encode and decode bit tuples.
    """

    universe: VarOrder
    domain: Domain
    circuit: Circuit
    index: acc.AccessIndex
    stats: CompileStats
    codec: BinCodec | None = None

    def count(self) -> int:
        return acc.count(self.circuit, self.index)

    def _kth(self, k: int) -> Assignment:
        raw = acc.direct_access(self.circuit, self.index, k)
        if self.codec is None:
            return raw
        return debin_tuple(raw, self.codec)

    def _answers(self, ks: range) -> Iterator[Assignment]:
        """One ``access.walk`` over the window.  ``binarize`` lays answer variable ``i``'s bits out at
        positions ``i*bits .. (i+1)*bits``, most significant first, which decode through ``codec.values``."""
        names, tuples = self.universe.vars, acc.walk(self.circuit, self.index, ks.start, ks.stop)
        if self.codec is None:
            return (Assignment(zip(names, t)) for t in tuples)
        decode, width = self.codec.values, self.codec.bits
        blocks = [slice(at, at + width) for at in range(0, len(names) * width, width)]
        return (Assignment(zip(names, [decode[t[b]] for b in blocks])) for t in tuples)

    def _rank_of(self, t: Mapping[str, str]) -> int:
        if self.codec is not None:
            t = self.codec.encode_assignment(t)
        return acc.rank(self.circuit, self.index, t)


def da_conjunctive(
    q: SignedQuery,
    db: Database,
    order: VarOrder,
    *,
    binarize: bool = True,
    budget: Budget | None = None,
) -> CircuitEngine:
    """Compile, projecting to the head while compiling, then preprocess once.

    ``order`` is the significance order and must cover the query
    variables (it may mention extra variables, which pad the answer
    space).  When the query has free variables they must form a prefix
    of ``order``; otherwise the compiler rejects the order as not
    free-connex.  ``budget`` caps the compiler's calls.
    """
    answer_order = order if q.free is None else VarOrder(order.vars[: len(q.free)])
    codec: BinCodec | None = None
    if binarize:
        circuit, codec, stats = compile_binarized(q, db, order.reversed(), budget)
    else:
        circuit, stats = dpll_compile(q, db, order.reversed(), budget)
    return CircuitEngine(answer_order, db.domain, circuit, acc.preprocess(circuit), stats, codec)
