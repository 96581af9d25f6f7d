#!/usr/bin/env python3
"""Differential fuzzing: both engines against the brute-force oracle.

Generates random signed queries and databases, sorts the brute-force
answers, and checks count, the whole enumeration ``answers()``, one
seeded window ``answers(start, limit)``, every k-th access and the rank
of every answer for the circuit engine (raw and binarized, both of
which stream a window by one descent and an odometer walk) and the
subtraction-based reduction engine.  On the circuit engines, an
instance with at most 64 answers also checks ``answers(start)`` for
every start from 1 to one past the last answer, so the walk starts
from every descent's slots.  Each engine must also refuse
``kth(1.5)`` and a rank tuple with a variable beyond its universe with
``ArgumentError``.  Each instance is also
given a head, a random prefix of its significance order, and the
projected query is checked the same way on the two circuit engines,
which project while they compile.  Every instance's
database is first written as a JSON document and read back through the
command-line loader, which must rebuild it exactly; the engines run on
the database it returns.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

sys.path.insert(0, "tests")

from conftest import make_instance  # noqa: E402

from cqda.cli import database_from_dict  # noqa: E402
from cqda.errors import ArgumentError  # noqa: E402
from cqda.project import CircuitEngine, da_conjunctive  # noqa: E402
from cqda.query import SignedQuery, eval_bruteforce  # noqa: E402
from cqda.reduction import signed_da_via_reduction  # noqa: E402
from cqda.relations import VarOrder, sort_lex  # noqa: E402


def fail(trial: int, query, message: str) -> None:
    print(f"trial {trial}: {message}")
    print(f"  query: {query}")
    sys.exit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-vars", type=int, default=5)
    parser.add_argument("--max-atoms", type=int, default=4)
    parser.add_argument("--max-dom", type=int, default=4)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    windows = random.Random(f"windows {args.seed}")  # apart from rng, so the instances stay the same
    accesses = starts = 0
    for trial in range(args.iterations):
        inst = make_instance(rng, args.max_vars, args.max_atoms, args.max_dom)
        q, order = inst.query, inst.order
        doc = {
            "domain": list(inst.db.domain.values),
            "relations": {
                name: {"arity": len(rel.vars), "tuples": [list(row) for row in sorted(rel.rows)]}
                for name, rel in inst.db.relations.items()
            },
        }
        db = database_from_dict(json.loads(json.dumps(doc)))
        if db.domain != inst.db.domain or db.relations != inst.db.relations:
            fail(trial, q, "the loaded database differs from the generated one")
        keep = rng.randint(0, len(order))
        head, prefix = SignedQuery(q.atoms, frozenset(order.vars[:keep])), VarOrder(order.vars[:keep])
        runs = {
            "circuit": (q, order, da_conjunctive(q, db, order, binarize=False)),
            "binarized": (q, order, da_conjunctive(q, db, order, binarize=True)),
            "reduction": (q, order, signed_da_via_reduction(q, db, order)),
            f"circuit, head of {keep}": (head, prefix, da_conjunctive(head, db, order, binarize=False)),
            f"binarized, head of {keep}": (head, prefix, da_conjunctive(head, db, order, binarize=True)),
        }
        for name, (query, answer_order, engine) in runs.items():
            oracle = sort_lex(eval_bruteforce(query, db), answer_order, db.domain)
            if engine.count() != len(oracle):
                fail(trial, query, f"{name} count {engine.count()} != {len(oracle)}")
            if list(engine.answers()) != oracle:
                fail(trial, query, f"{name} answers() differs from the sorted oracle")
            start = windows.randint(1, len(oracle) + 1)
            limit = windows.randint(0, len(oracle) - start + 1)
            if list(engine.answers(start, limit)) != oracle[start - 1:start - 1 + limit]:
                fail(trial, query, f"{name} answers({start}, {limit}) differs from the oracle slice")
            if isinstance(engine, CircuitEngine) and len(oracle) <= 64:
                for start in range(1, len(oracle) + 2):
                    starts += 1
                    if list(engine.answers(start)) != oracle[start - 1:]:
                        fail(trial, query, f"{name} answers({start}) differs from the oracle's tail")
            for k, expected in enumerate(oracle, 1):
                got = engine.kth(k)
                accesses += 1
                if got != expected:
                    fail(trial, query, f"{name} kth({k}) = {dict(got)} != {dict(expected)}")
                if engine.rank_of(expected) != k:
                    fail(trial, query, f"{name} rank_of({dict(expected)}) = {engine.rank_of(expected)} != {k}")
            # a float index and a variable beyond the universe are refused alike by every engine
            extra = {v: db.domain.values[0] for v in answer_order.vars} | {"y": db.domain.values[0]}
            probes = {"kth(1.5)": lambda: engine.kth(1.5), f"rank_of({extra})": lambda: engine.rank_of(extra)}
            for probe, call in probes.items():
                try:
                    got = call()
                except ArgumentError:
                    continue
                except Exception as exc:  # any other error is a mismatch too
                    got = exc
                fail(trial, query, f"{name} {probe} gave {got!r}, not ArgumentError")
    print(f"ok: {args.iterations} instances, {accesses} accesses, {starts} walks from every start, engines agree")


if __name__ == "__main__":
    main()
