"""One workload run in a fresh interpreter: set-up, then a closed request loop.

Usage: ``python3 worker.py WORKDIR WORKLOAD SECONDS TRACE``.  Reads the
inputs ``run.py`` wrote to WORKDIR and writes ``results.json`` there.
A single caller issues kth, rank, enumeration and width requests, each
only after the previous one returned; the request kind is chosen so the
measured time splits by fixed shares, and each kind cycles
through a fixed seeded set of distinct requests.  Answers are stored as
digests and checked by the parent against the oracle, so the oracle
never inflates this process's peak memory.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import sys
import time
from array import array
from contextlib import nullcontext
from itertools import permutations
from pathlib import Path

from tracing import Tracer, layer_of, median_or_zero, span_cost_ns
from workloads import (ENUM_REQUESTS, ENUM_WINDOW, KINDS, KTH_REQUESTS, MEASURES, SHARES, WIDTH_ORDERS, WORKLOADS,
                       answer_hash, window_hash)

from cqda import cli, hypergraph as hg, project, query
from cqda.circuit import BotGate, DecisionGate
from cqda.relations import VarOrder


def width_requests(sh) -> list[tuple[str, str | None, VarOrder | None]]:
    """The width requests for one hypergraph, as ``cqda width`` issues them.

    Per measure: the best order, the width of that order (``None`` stands
    for the order the latest ``best_order`` call returned) and the widths
    of up to ``WIDTH_ORDERS`` vertex orders, evenly spaced in the sorted
    list of all orders; then the nest-set width.  The set depends on the
    query alone, not on the seed.
    """
    orders = list(permutations(sorted(sh.vertices)))
    orders = orders[:: -(-len(orders) // WIDTH_ORDERS)]
    out: list[tuple[str, str | None, VarOrder | None]] = []
    for m in MEASURES:
        out.append(("best_order", m, None))
        out.append(("width_of_order", m, None))
        out.extend(("width_of_order", m, VarOrder(p)) for p in orders)
    out.append(("nsw_bruteforce", None, None))
    return out


def width_result(name: str, result) -> list:
    """A JSON form of one width result, compared across repeats."""
    if name == "best_order":
        order, width, exact = result
        return [list(order.vars), str(width), exact]
    return [str(result)]


class Loop:
    """Closed-loop issuer over one fixed, seeded set of distinct requests per kind.

    The loop picks the kind whose measured time is furthest below its
    share and issues that kind's next request, cycling through the set, so
    the repeats of one request lie a whole cycle apart.  Latencies are kept
    per request: ``run.py`` takes a high percentile of each request's
    repeats, which reads the host's normal state, and reports percentiles
    over the requests.  Every answer of every repeat is recorded.
    """

    def __init__(self, engine, answer_vars, req: dict, graph, tracer: Tracer | None):
        self.engine = engine
        self.vars = answer_vars
        self.graph = graph
        self.tracer = tracer
        self.count = engine.count()
        k_rng = random.Random(req["seed"])
        window_rng = random.Random(req["seed"] + 1)
        self.inputs = {
            "kth": [k_rng.randint(1, self.count) for _ in range(KTH_REQUESTS)],
            "rank": [dict(zip(answer_vars, values)) for values in req["rank"]],
            "enum": [window_rng.randint(1, self.count) for _ in range(ENUM_REQUESTS)],
            "width": width_requests(graph),
        }
        self.lat = {k: [array("q") for _ in self.inputs[k]] for k in KINDS}
        self.kth = array("q")        # k, answer digest, ...
        self.rank = array("q")       # rank input index, rank, ...
        self.enum = array("q")       # window start, answers, digest, ...
        self.enum_answers = 0
        self.best: dict[str, VarOrder] = {}
        self.widths: list = [None] * len(self.inputs["width"])   # first result per request
        self.width_changed = 0       # repeats whose result differs from the first
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, kind: str, exc: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")

    def op_kth(self, i: int) -> int:
        k = self.inputs["kth"][i]
        t0 = time.perf_counter_ns()
        a = self.engine.kth(k)
        dt = time.perf_counter_ns() - t0
        self.kth.extend((k, answer_hash(tuple(a[v] for v in self.vars))))
        return dt

    def op_rank(self, i: int) -> int:
        t = self.inputs["rank"][i]
        t0 = time.perf_counter_ns()
        r = self.engine.rank_of(t)
        dt = time.perf_counter_ns() - t0
        self.rank.extend((i, r))
        return dt

    def op_enum(self, i: int) -> int:
        start = self.inputs["enum"][i]
        limit = min(ENUM_WINDOW, self.count - start + 1)  # answers() fails past count()
        t0 = time.perf_counter_ns()
        got = list(self.engine.answers(start, limit))
        dt = time.perf_counter_ns() - t0
        self.enum.extend((start, len(got), window_hash(tuple(a[v] for v in self.vars) for a in got)))
        self.enum_answers += len(got)
        return dt

    def op_width(self, i: int) -> int:
        name, m, order = self.inputs["width"][i]
        fn = getattr(hg, name)
        if name == "nsw_bruteforce":
            args = (self.graph.unsigned(),)
        elif name == "best_order":
            args = (self.graph, m)
        else:
            args = (self.graph, m, self.best[m] if order is None else order)
        t0 = time.perf_counter_ns()
        result = fn(*args)
        dt = time.perf_counter_ns() - t0
        if name == "best_order":
            self.best[m] = result[0]
        rec = width_result(name, result)
        if self.widths[i] is None:
            self.widths[i] = rec
        elif rec != self.widths[i]:
            self.width_changed += 1
        return dt

    def run(self, seconds: float) -> None:
        ops = {"kth": self.op_kth, "rank": self.op_rank, "enum": self.op_enum, "width": self.op_width}
        spent = {k: 0 for k in KINDS}
        nxt = {k: 0 for k in KINDS}
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        while time.perf_counter_ns() < deadline:
            kind = min(KINDS, key=lambda k: spent[k] / SHARES[k])
            i = nxt[kind]
            nxt[kind] = (i + 1) % len(self.inputs[kind])
            ctx = self.tracer.root(kind) if self.tracer else nullcontext()
            t0 = time.perf_counter_ns()
            try:
                with ctx:
                    dt = ops[kind](i)
            except Exception as exc:  # a failed request counts, the loop goes on
                self._fail(kind, exc)
                spent[kind] += time.perf_counter_ns() - t0
                continue
            spent[kind] += dt
            self.lat[kind][i].append(dt)


def bot_edge_frac(circuit) -> float:
    bot = {i for i, g in enumerate(circuit.gates) if isinstance(g, BotGate)}
    total = hits = 0
    for g in circuit.gates:
        if isinstance(g, DecisionGate):
            total += len(g.edges)
            hits += sum(1 for _, child in g.edges if child in bot)
    return hits / total if total else 0.0


def layer_metrics(tracer: Tracer, loop: Loop, wall_ns: int) -> dict:
    """Per-layer metrics from the spans; each value is ``(value, unit)``."""
    roots, durations = tracer.summarize()
    setups = [r for r in roots if r[0] == "setup"]
    out: dict[str, tuple[float, str]] = {}

    def per_setup(fn: str) -> float:
        return median_or_zero([r[2].get(fn, 0) for r in setups]) / 1e9

    for fn, metric in (
        ("cli.load_database", "cli.load_database_s"),
        ("query.parse_query", "query.parse_query_s"),
        ("compiler.binarize", "compiler.binarize_s"),
        ("compiler.dpll_compile", "compiler.dpll_compile_s"),
        ("project.project_circuit", "project.project_circuit_s"),
        ("project.da_conjunctive", "project.da_conjunctive_self_s"),
        ("access.preprocess", "access.preprocess_s"),
    ):
        out[metric] = (per_setup(fn), "s")
    out["access.preprocess_calls"] = (median_or_zero([r[3].get("access.preprocess", 0) for r in setups]), "count")

    for layer in ("cli", "query", "compiler", "project", "access"):
        shares = [sum(v for fn, v in r[2].items() if layer_of(fn) == layer) / r[1] for r in setups]
        out[f"{layer}.setup_share"] = (median_or_zero(shares), "ratio")
    out["trace.setup_accounted_frac"] = (median_or_zero([sum(r[2].values()) / r[1] for r in setups]), "ratio")

    compiled = tracer.last.get("compiler.dpll_compile")
    if compiled is not None:
        circuit, stats = compiled
        calls = stats.rec_calls + stats.cache_hits
        out["compiler.rec_calls"] = (stats.rec_calls, "count")
        out["compiler.cache_hit_ratio"] = (stats.cache_hits / calls if calls else 0.0, "ratio")
        out["compiler.gates"] = (stats.gates, "count")
        out["compiler.edges"] = (stats.edges, "count")
        out["compiler.bot_edge_frac"] = (bot_edge_frac(circuit), "ratio")
    else:
        for name in ("rec_calls", "gates", "edges"):
            out[f"compiler.{name}"] = (0, "count")
        out["compiler.cache_hit_ratio"] = (0.0, "ratio")
        out["compiler.bot_edge_frac"] = (0.0, "ratio")
    projected = tracer.last.get("project.project_circuit")
    out["project.gates_out"] = (len(projected.gates) if projected is not None else 0, "count")

    out["access.direct_access_us"] = (median_or_zero(durations.get("access.direct_access", [])) / 1e3, "us")
    out["compiler.debin_tuple_us"] = (median_or_zero(durations.get("compiler.debin_tuple", [])) / 1e3, "us")
    for fn, metric in (
        ("hypergraph.best_order", "hypergraph.best_order_ms"),
        ("hypergraph.width_of_order", "hypergraph.width_of_order_ms"),
        ("hypergraph.nsw_bruteforce", "hypergraph.nsw_ms"),
    ):
        out[metric] = (median_or_zero(durations.get(fn, [])) / 1e6, "ms")

    def calls_per(kind: str, fn: str, per: int) -> float:
        total = sum(r[3].get(fn, 0) for r in roots if r[0] == kind)
        return total / per if per else 0.0

    rank_calls = sum(len(a) for a in loop.lat["rank"])
    out["access.direct_access_per_rank"] = (calls_per("rank", "access.direct_access", rank_calls), "count")
    out["access.direct_access_per_enum_answer"] = (
        calls_per("enum", "access.direct_access", loop.enum_answers), "count")

    for kind, layer in (("kth", "access"), ("kth", "compiler"), ("rank", "access"),
                        ("enum", "access"), ("width", "hypergraph")):
        mine = [r for r in roots if r[0] == kind]
        wall = sum(r[1] for r in mine)
        own = sum(v for r in mine for fn, v in r[2].items() if layer_of(fn) == layer)
        out[f"{layer}.{kind}_share"] = (own / wall if wall else 0.0, "ratio")

    exact = [rec[2] for (name, _, _), rec in zip(loop.inputs["width"], loop.widths)
             if name == "best_order" and rec is not None]
    out["hypergraph.exact_frac"] = (sum(exact) / len(exact) if exact else 0.0, "ratio")

    n_spans = len(tracer.names)
    out["trace.spans"] = (n_spans, "count")
    out["trace.overhead_frac"] = (n_spans * span_cost_ns() / wall_ns, "ratio")
    return out


def main(argv: list[str]) -> int:
    workdir, name, seconds, traced = Path(argv[1]), argv[2], float(argv[3]), argv[4] == "1"
    w = WORKLOADS[name]
    spec = w.spec
    req = json.loads((workdir / "requests.json").read_text(encoding="utf-8"))
    text = (workdir / "query.cq").read_text(encoding="utf-8")
    db_path = str(workdir / "db.json")
    order = VarOrder(spec.order)

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    started = time.perf_counter_ns()

    setup_ns, counts = [], []
    engine = q = None
    for _ in range(w.setup_reps):
        engine = q = db = None
        gc.collect()
        with tracer.root("setup") if tracer else nullcontext():
            t0 = time.perf_counter_ns()
            db = cli.load_database(db_path)
            q = query.parse_query(text)
            engine = project.da_conjunctive(q, db, order, binarize=spec.binarize)
            setup_ns.append(time.perf_counter_ns() - t0)
        counts.append(engine.count())

    loop = Loop(engine, spec.answer_vars, req, query.hypergraph_of(q), tracer)
    loop.run(seconds)
    wall_ns = time.perf_counter_ns() - started

    out = {
        "cqda_file": query.__file__,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "setup_ns": setup_ns,
        "counts": counts,
        "lat": {k: [list(a) for a in v] for k, v in loop.lat.items()},
        "enum_starts": loop.inputs["enum"],
        "kth": list(loop.kth),
        "rank": list(loop.rank),
        "enum": list(loop.enum),
        "width_requests": [[name, m, None if order is None else list(order.vars)]
                           for name, m, order in loop.inputs["width"]],
        "widths": loop.widths,
        "width_changed": loop.width_changed,
        "failed": loop.failed,
        "errors": loop.errors,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "wall_s": wall_ns / 1e9,
    }
    if tracer:
        out["layers"] = layer_metrics(tracer, loop, wall_ns)
        out["absent"] = tracer.absent
    (workdir / "results.json").write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
