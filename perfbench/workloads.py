"""Workload definitions, seeded input generation and the independent oracles.

Everything here runs in the parent process, outside the timed section:
it writes the database and query files a worker loads, draws the request
streams from the seed, and afterwards checks every answer the worker
recorded.  The query oracle never touches the circuit engine: it joins
the positive atoms with ``relations.join``, drops rows matched by a
negated atom, projects, and sorts with ``relations.sort_lex``.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from cqda import hypergraph as hg
from cqda.relations import Domain, Relation, VarOrder, join, sort_lex

MEASURES = ("how", "fhow", "show", "sfhow", "bhow", "bfhow")
KINDS = ("kth", "rank", "enum", "width")
# Share of the request loop's measured time per kind.  Rank calls cost
# ~10x a kth call, so they get the most time to repeat each request enough.
SHARES = {"kth": 0.15, "rank": 0.4, "enum": 0.25, "width": 0.2}
ENUM_WINDOW = 100
# Distinct requests per kind.  The worker cycles each set for the whole run,
# so every request is repeated and a high percentile of its repeats sheds
# the host's fast spells.
KTH_REQUESTS = 1000
RANK_REQUESTS = 300
ENUM_REQUESTS = 30
WIDTH_ORDERS = 8          # vertex orders per width measure, the same for every seed


@dataclass(frozen=True)
class Atom:
    symbol: str
    args: tuple[str, ...]
    positive: bool = True


@dataclass(frozen=True)
class QuerySpec:
    """One signed join query over a seeded random database."""

    head: tuple[str, ...] | None          # free variables; ``None`` keeps all
    atoms: tuple[Atom, ...]
    order: tuple[str, ...]                # significance order
    binarize: bool
    domain_size: int
    sizes: dict[str, int]                 # relation -> number of distinct rows

    def text(self) -> str:
        head = "*" if self.head is None else ",".join(self.head)
        body = ", ".join(f"{'' if a.positive else '!'}{a.symbol}({','.join(a.args)})" for a in self.atoms)
        return f"Q({head}) :- {body}."

    @property
    def answer_vars(self) -> tuple[str, ...]:
        return self.order if self.head is None else self.order[: len(self.head)]


@dataclass(frozen=True)
class Workload:
    """One query pipeline and its set-up reps; BENCHMARK.json says why each exists."""

    name: str
    spec: QuerySpec
    setup_reps: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve",
            QuerySpec(
                head=None,
                atoms=(
                    Atom("C", ("x",)),
                    Atom("R1", ("x", "y1")),
                    Atom("R2", ("x", "y2")),
                    Atom("R3", ("x", "y3")),
                    Atom("N1", ("y1",), False),
                    Atom("N2", ("y2",), False),
                ),
                order=("x", "y1", "y2", "y3"),
                binarize=True,
                domain_size=128,
                sizes={"C": 64, "R1": 1536, "R2": 1536, "R3": 1536, "N1": 32, "N2": 32},
            ),
            setup_reps=5,
        ),
        Workload(
            "raw-project",
            QuerySpec(
                head=("x", "y"),
                atoms=(
                    Atom("R", ("x", "y")),
                    Atom("S", ("y", "z")),
                    Atom("T", ("x", "z")),
                    Atom("N", ("y", "z"), False),
                ),
                order=("x", "y", "z"),
                binarize=False,
                domain_size=256,
                sizes={"R": 4000, "S": 4000, "T": 4000, "N": 4000},
            ),
            setup_reps=3,
        ),
    )
}


# --- inputs -------------------------------------------------------------------

def domain_values(d: int) -> list[str]:
    return [f"v{i}" for i in range(d)]


def make_database(spec: QuerySpec, rng: random.Random) -> dict[str, list[tuple[str, ...]]]:
    """Distinct uniform rows per relation, drawn in atom order."""
    values = domain_values(spec.domain_size)
    d = spec.domain_size
    rows: dict[str, list[tuple[str, ...]]] = {}
    for atom in spec.atoms:
        arity = len(atom.args)
        codes = rng.sample(range(d**arity), spec.sizes[atom.symbol])
        rows[atom.symbol] = sorted(
            tuple(values[(code // d**i) % d] for i in range(arity)) for code in codes
        )
    return rows


def write_inputs(spec: QuerySpec, rows: dict, workdir: Path) -> tuple[Path, Path]:
    doc = {
        "domain": domain_values(spec.domain_size),
        "relations": {name: {"arity": len(r[0]), "tuples": [list(t) for t in r]} for name, r in rows.items()},
    }
    db_path, query_path = workdir / "db.json", workdir / "query.cq"
    db_path.write_text(json.dumps(doc), encoding="utf-8")
    query_path.write_text(spec.text() + "\n", encoding="utf-8")
    return db_path, query_path


def oracle_answers(spec: QuerySpec, rows: dict) -> list[tuple[str, ...]]:
    """Sorted answers, each a tuple over ``spec.answer_vars``."""
    domain = Domain(tuple(domain_values(spec.domain_size)))
    joined = None
    for atom in spec.atoms:
        if atom.positive:
            rel = Relation(atom.args, frozenset(rows[atom.symbol]))
            joined = rel if joined is None else join(joined, rel)
    kept = set(joined.rows)
    for atom in spec.atoms:
        if not atom.positive:
            cols = [joined.column(v) for v in atom.args]
            banned = set(rows[atom.symbol])
            kept = {r for r in kept if tuple(r[c] for c in cols) not in banned}
    out_vars = spec.answer_vars
    cols = [joined.column(v) for v in out_vars]
    projected = Relation(out_vars, frozenset(tuple(r[c] for c in cols) for r in kept))
    return [tuple(t[v] for v in out_vars) for t in sort_lex(projected, VarOrder(out_vars), domain)]


def answer_hash(values) -> int:
    """Signed 64-bit digest of one answer tuple; the worker stores these."""
    digest = hashlib.blake2b("\x1f".join(values).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little", signed=True)


def window_hash(answers) -> int:
    h = hashlib.blake2b(digest_size=8)
    for values in answers:
        h.update("\x1f".join(values).encode())
        h.update(b"\x1e")
    return int.from_bytes(h.digest(), "little", signed=True)


def make_requests(w: Workload, answers: list, rng: random.Random) -> dict:
    """Rank inputs, half answers and half uniform domain tuples, plus a seed
    from which the worker draws kth indexes, enumeration windows and orders."""
    values = domain_values(w.spec.domain_size)
    rank = []
    for i in range(RANK_REQUESTS):
        if i % 2 == 0:
            rank.append(list(answers[rng.randrange(len(answers))]))
        else:
            rank.append([rng.choice(values) for _ in w.spec.answer_vars])
    return {"rank": rank, "seed": rng.randrange(1 << 30)}


# --- verification -------------------------------------------------------------

def check_widths(requests: list, results: list, sh: hg.SignedHypergraph) -> list[str]:
    """Problems with the first result of each width request; empty when all hold."""
    problems = []
    best: dict[str, tuple] = {}
    nsw = None
    for (name, m, order), rec in zip(requests, results):
        if rec is None:
            continue
        if name == "best_order":
            best[m] = (rec[0], Fraction(rec[1]), rec[2])
            if sorted(rec[0]) != sorted(sh.vertices):
                problems.append(f"{m}: best order {rec[0]} is not a permutation of the vertices")
        elif name == "width_of_order" and m in best:
            at, (best_vars, width, exact) = Fraction(rec[0]), best[m]
            if order is None and at != width:
                problems.append(f"{m}: best_order width {width} but width_of_order gives {at}")
            if order is not None and exact and at < width:
                problems.append(f"{m}: order {order} width {at} beats exact {width}")
        elif name == "nsw_bruteforce":
            nsw = rec[0]
    if len(best) == len(MEASURES) and all(b[2] for b in best.values()):
        w = {m: b[1] for m, b in best.items()}
        for lo, hi in (("how", "show"), ("show", "bhow"), ("fhow", "sfhow"), ("sfhow", "bfhow"),
                       ("fhow", "how"), ("sfhow", "show"), ("bfhow", "bhow")):
            if w[lo] > w[hi]:
                problems.append(f"width chain broken: {lo}={w[lo]} > {hi}={w[hi]}")
    beta = hg.beta_elim_order(sh.unsigned()) is not None
    if nsw is not None and (nsw == "1") != beta:
        problems.append(f"nsw={nsw} disagrees with beta-acyclicity={beta}")
    return problems


def rank_keys(spec: QuerySpec, answers: list) -> tuple[dict, list]:
    pos = {v: i for i, v in enumerate(domain_values(spec.domain_size))}
    return pos, [tuple(pos[v] for v in a) for a in answers]


def expected_rank(pos: dict, keys: list, values) -> int:
    """Answers at most ``values`` in lexicographic order, by bisecting the oracle."""
    return bisect_right(keys, tuple(pos[v] for v in values))
