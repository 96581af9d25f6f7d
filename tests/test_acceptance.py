"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Every expected value is exact; the only soft bound is the
scaling check of criterion 10.
"""

from __future__ import annotations

import itertools
import math
import random
import time

import pytest

from conftest import annotated_circuit, example51_db, example51_query, make_instance
from cqda.access import _descend, count, direct_access, frontier, preprocess
from cqda.circuit import DecisionGate, ProductGate, circuit_size
from cqda.compiler import binarize, compile_binarized, dpll_compile
from cqda.hypergraph import (
    Hypergraph,
    SignedHypergraph,
    best_order,
    beta_elim_order,
    bhtw_bruteforce,
    clone_vertex,
    fhow_width,
    how_width,
    nsw_bruteforce,
    sfhow_width,
    show_width,
)
from cqda.project import CircuitEngine, da_conjunctive, project_circuit
from cqda.query import SignedQuery, eval_bruteforce, hypergraph_of, parse_query
from cqda.relations import Database, Domain, Relation, VarOrder, sort_lex
from cqda.reduction import signed_da_via_reduction

SWEEP_SIZE = 500
CROSS_ENGINE_SIZE = 100
SEED = 20250810


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def sweep():
    """Shared 500-instance run backing criteria 1, 2, 8 and 9."""
    rng = random.Random(SEED)
    data = {
        "instances": [],
        "crit1_failures": [],
        "crit1_accesses": 0,
        "crit1_elapsed": 0.0,
        "crit2_failures": [],
        "crit2_elapsed": 0.0,
        "crit8_failures": [],
        "crit9_failures": [],
    }
    for i in range(SWEEP_SIZE):
        inst = make_instance(rng, max_vars=5, max_atoms=4, max_dom=4, max_tuples=20)
        data["instances"].append(inst)
        q, db, order = inst.query, inst.db, inst.order
        oracle = sort_lex(eval_bruteforce(q, db), order, db.domain)

        t0 = time.perf_counter()
        circuit, stats = dpll_compile(q, db, order.reversed())
        idx = preprocess(circuit)
        if count(circuit, idx) != len(oracle):
            data["crit1_failures"].append((i, "count"))
        else:
            for k, expected in enumerate(oracle, 1):
                if direct_access(circuit, idx, k) != expected:
                    data["crit1_failures"].append((i, f"k={k}"))
                    break
        data["crit1_accesses"] += len(oracle)
        data["crit1_elapsed"] += time.perf_counter() - t0

        # criterion 8: recursion-count bounds from the width of the order
        h = hypergraph_of(q)
        n, m = len(q.variables), len(q.atoms)
        if not q.negative_atoms:
            k_width = fhow_width(Hypergraph(h.vertices, h.pos_edges), order.reversed())
            bound = n * db.size ** math.ceil(k_width)
        else:
            k_width = show_width(h, order.reversed())
            bound = n * m ** (k_width + 1) * db.size**k_width
        if stats.rec_calls > bound:
            data["crit8_failures"].append((i, stats.rec_calls, bound))

        # criterion 9: projection to a random significance-order prefix
        keep = rng.randint(0, len(order))
        small = project_circuit(circuit, idx, keep)
        small_idx = preprocess(small)
        if circuit_size(small) > circuit_size(circuit):
            data["crit9_failures"].append((i, "size"))
        else:
            keep_order = VarOrder(order.vars[:keep])
            conj = SignedQuery(q.atoms, frozenset(keep_order.vars))
            expected = sort_lex(eval_bruteforce(conj, db), keep_order, db.domain)
            if count(small, small_idx) != len(expected):
                data["crit9_failures"].append((i, "projected count"))
            else:
                for k, want in enumerate(expected, 1):
                    if direct_access(small, small_idx, k) != want:
                        data["crit9_failures"].append((i, f"projected k={k}"))
                        break

        # criterion 2: second engine on the first instances
        if i < CROSS_ENGINE_SIZE:
            t0 = time.perf_counter()
            reduction = signed_da_via_reduction(q, db, order, binarize=False)
            if reduction.count() != len(oracle):
                data["crit2_failures"].append((i, "count"))
            else:
                for k, expected in enumerate(oracle, 1):
                    if reduction.kth(k) != expected:
                        data["crit2_failures"].append((i, f"k={k}"))
                        break
            data["crit2_elapsed"] += time.perf_counter() - t0
    return data


def test_criterion_1_oracle_equivalence(sweep):
    ok = not sweep["crit1_failures"] and sweep["crit1_elapsed"] < 60
    report(
        1,
        "oracle equivalence",
        ok,
        f"{SWEEP_SIZE} instances, {sweep['crit1_accesses']} accesses, "
        f"{sweep['crit1_elapsed']:.1f}s, failures={sweep['crit1_failures'][:3]}",
    )
    assert not sweep["crit1_failures"]
    assert sweep["crit1_elapsed"] < 60


def test_criterion_2_second_engine_agreement(sweep):
    ok = not sweep["crit2_failures"] and sweep["crit2_elapsed"] < 60
    report(
        2,
        "second-engine agreement",
        ok,
        f"{CROSS_ENGINE_SIZE} instances, {sweep['crit2_elapsed']:.1f}s, "
        f"failures={sweep['crit2_failures'][:3]}",
    )
    assert not sweep["crit2_failures"]
    assert sweep["crit2_elapsed"] < 60


def test_count_descent_fills_the_value_descents_slots(sweep):
    # For every answer k and level q, the gate that the count descent to k left in slot q is the
    # decision gate on q of the value descent's frontier after the first q values of kth(k).
    for inst in sweep["instances"]:
        circuit, _ = dpll_compile(inst.query, inst.db, inst.order.reversed())
        idx = preprocess(circuit)
        universe = circuit.universe.vars
        on_level: dict[tuple[str, ...], int | None] = {}  # prefix values -> gate on the next level
        for k in range(1, count(circuit, idx) + 1):
            slot = _descend(circuit, idx, k, {})[0]
            t = direct_access(circuit, idx, k)
            for q, x in enumerate(universe):
                prefix = tuple(t[v] for v in universe[:q])
                if prefix not in on_level:
                    gates = frontier(circuit, idx, dict(zip(universe, prefix)))
                    on_level[prefix] = next((g for g in gates if circuit.gates[g].var == x), None)
                assert slot[q] == on_level[prefix], (inst, k, q)


def test_criterion_3_worked_example():
    q, db = example51_query(), example51_db()
    order = VarOrder(("x1", "x2", "x3", "x4"))
    circuit, stats = dpll_compile(q, db, order.reversed())
    total = count(circuit, preprocess(circuit))
    products = sum(isinstance(g, ProductGate) for g in circuit.gates)
    ok = total == 8 and products >= 1 and stats.cache_hits >= 1
    report(
        3,
        "worked example",
        ok,
        f"count={total}, product gates={products}, cache hits={stats.cache_hits}",
    )
    assert total == 8
    assert products >= 1
    assert stats.cache_hits >= 1


def test_criterion_4_annotated_circuit_fixture():
    c = annotated_circuit()
    idx = preprocess(c)
    labels = [
        idx.prefix_counts[g]
        for g in c.reachable()
        if isinstance(c.gates[g], DecisionGate)
    ]
    t7 = direct_access(c, idx, 7)
    ok = [1, 2, 2] in labels and [2, 4] in labels and t7["x1"] == "1"
    report(4, "annotated circuit", ok, f"labels={labels}, access(7) sets x1={t7['x1']}")
    assert [1, 2, 2] in labels
    assert [2, 4] in labels
    assert t7["x1"] == "1"


def test_criterion_5_width_measures():
    t0 = time.perf_counter()
    triangle = Hypergraph.of("abc", [{"a", "b"}, {"b", "c"}, {"a", "c"}])
    tri_full = Hypergraph.of("abc", list(triangle.edges) + [{"a", "b", "c"}])
    _, how_tri, _ = best_order(triangle, "how")
    _, fhow_tri, _ = best_order(triangle, "fhow")
    _, how_full, _ = best_order(tri_full, "how")
    constants_ok = how_tri == 2 and str(fhow_tri) == "3/2" and how_full == 1

    checked = 0
    chain_failures = []
    for n in range(0, 6):
        verts = tuple(f"v{i}" for i in range(n))
        nonempty = [
            frozenset(c)
            for r in range(1, n + 1)
            for c in itertools.combinations(verts, r)
        ]
        for esize in range(0, 5):
            for edges in itertools.combinations(nonempty, esize):
                h = Hypergraph(frozenset(verts), tuple(edges))
                _, bhow, exact = best_order(h, "bhow")
                assert exact
                bhtw = bhtw_bruteforce(h)
                nsw = nsw_bruteforce(h)
                beta = beta_elim_order(h)
                if not (bhtw <= bhow <= nsw):
                    chain_failures.append((edges, bhtw, bhow, nsw))
                if (bhow <= 1) != (beta is not None):
                    chain_failures.append((edges, "acyclicity", bhow, beta))
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = constants_ok and not chain_failures and elapsed < 120
    report(
        5,
        "width measures",
        ok,
        f"how={how_tri}, fhow={fhow_tri}, acyclic how={how_full}; "
        f"chain on {checked} hypergraphs in {elapsed:.1f}s, failures={chain_failures[:2]}",
    )
    assert constants_ok
    assert not chain_failures
    assert elapsed < 120


def test_criterion_6_binarization():
    dom = Domain(tuple(str(i) for i in range(4)))
    db = Database(
        dom,
        {
            "A": Relation.from_rows(("c0",), [("0",), ("1",), ("2",)]),
            "B": Relation.from_rows(("c0",), [("1",), ("2",), ("3",)]),
            "R": Relation.from_rows(("c0", "c1"), [(str(i), str(i)) for i in range(4)]),
        },
    )
    q = parse_query("Q(*) :- A(x1), B(x2), !R(x1,x2).")
    bdb, _, _, codec = binarize(db, q, VarOrder(("x1", "x2")))
    tables_ok = (
        codec.bits == 2
        and bdb.relations["A"].rows == {("0", "0"), ("1", "0"), ("0", "1")}
        and bdb.relations["B"].rows == {("1", "0"), ("0", "1"), ("1", "1")}
        and bdb.relations["R"].rows
        == {("0", "0", "0", "0"), ("1", "0", "1", "0"), ("0", "1", "0", "1"), ("1", "1", "1", "1")}
    )

    rng = random.Random(SEED + 6)
    failures = []
    for i in range(100):
        inst = make_instance(rng, max_vars=5, max_atoms=4, max_dom=4, max_tuples=20)
        plain = da_conjunctive(inst.query, inst.db, inst.order, binarize=False)
        encoded = da_conjunctive(inst.query, inst.db, inst.order, binarize=True)
        if plain.count() != encoded.count():
            failures.append((i, "count"))
            continue
        for k in range(1, plain.count() + 1):
            if plain.kth(k) != encoded.kth(k):
                failures.append((i, f"k={k}"))
                break
    ok = tables_ok and not failures
    report(6, "binarization", ok, f"figure tables ok={tables_ok}, failures={failures[:3]}")
    assert tables_ok
    assert not failures


def test_criterion_7_width_preservation():
    rng = random.Random(SEED + 7)
    bin_failures = []
    for i in range(100):
        inst = make_instance(rng, max_vars=4, max_atoms=3, max_dom=4, max_tuples=4)
        q, db, order = inst.query, inst.db, inst.order
        _, bq, border, _ = binarize(db, q, order)
        before, after = hypergraph_of(q), hypergraph_of(bq)
        if show_width(before, order.reversed()) != show_width(after, border.reversed()):
            bin_failures.append((i, "show"))
        elif sfhow_width(before, order.reversed()) != sfhow_width(after, border.reversed()):
            bin_failures.append((i, "sfhow"))

    clone_failures = []
    for i in range(100):
        n = rng.randint(1, 5)
        verts = [f"v{j}" for j in range(n)]
        edges = [
            frozenset(rng.sample(verts, rng.randint(1, n)))
            for _ in range(rng.randint(0, 4))
        ]
        h = Hypergraph.of(verts, edges)
        u = rng.choice(verts)
        perm = verts[:]
        rng.shuffle(perm)
        order = VarOrder(tuple(perm))
        widened = VarOrder(
            tuple(v for x in perm for v in ((x, "uclone") if x == u else (x,)))
        )
        cloned = clone_vertex(SignedHypergraph(h.vertices, h.edges, ()), u, "uclone")
        plain = Hypergraph(cloned.vertices, cloned.pos_edges)
        if how_width(h, order) != how_width(plain, widened):
            clone_failures.append((i, "how"))
        elif fhow_width(h, order) != fhow_width(plain, widened):
            clone_failures.append((i, "fhow"))
    ok = not bin_failures and not clone_failures
    report(
        7,
        "width preservation",
        ok,
        f"binarization failures={bin_failures[:3]}, cloning failures={clone_failures[:3]}",
    )
    assert not bin_failures
    assert not clone_failures


def test_criterion_8_cache_bound_instrumentation(sweep):
    ok = not sweep["crit8_failures"]
    report(
        8,
        "recursion-count bounds",
        ok,
        f"{SWEEP_SIZE} compiles, violations={sweep['crit8_failures'][:3]}",
    )
    assert not sweep["crit8_failures"]


def test_criterion_9_projection(sweep):
    ok = not sweep["crit9_failures"]
    report(
        9,
        "projection",
        ok,
        f"{SWEEP_SIZE} projections, failures={sweep['crit9_failures'][:3]}",
    )
    assert not sweep["crit9_failures"]


def test_criterion_10_scaling_smoke():
    t0 = time.perf_counter()

    def inequality_db(d: int) -> tuple[Database, SignedQuery]:
        dom = Domain(tuple(str(i) for i in range(d)))
        db = Database(
            dom,
            {
                "A": Relation.from_rows(("c0",), [(v,) for v in dom.values]),
                "B": Relation.from_rows(("c0",), [(v,) for v in dom.values]),
                "R": Relation.from_rows(("c0", "c1"), [(v, v) for v in dom.values]),
            },
        )
        return db, parse_query("Q(*) :- A(x1), B(x2), !R(x1,x2).")

    order = VarOrder(("x1", "x2"))
    sizes_bin, sizes_plain, counts = [], [], []
    for d in (64, 128, 256, 512):
        db, q = inequality_db(d)
        circuit, _, _ = compile_binarized(q, db, order.reversed())
        sizes_bin.append(circuit_size(circuit))
        plain, _ = dpll_compile(q, db, order.reversed())
        sizes_plain.append(circuit_size(plain))
        counts.append((count(circuit, preprocess(circuit)), d * d - d))
    bin_ratios = [b / a for a, b in zip(sizes_bin, sizes_bin[1:])]
    plain_ratios = [b / a for a, b in zip(sizes_plain, sizes_plain[1:])]
    elapsed = time.perf_counter() - t0
    counts_ok = all(got == want for got, want in counts)
    ok = (
        counts_ok
        and all(r <= 3 for r in bin_ratios)
        and all(r >= 3.5 for r in plain_ratios)
        and elapsed < 60
    )
    report(
        10,
        "scaling smoke",
        ok,
        f"binarized sizes={sizes_bin} (ratios {[f'{r:.2f}' for r in bin_ratios]}), "
        f"direct sizes={sizes_plain} (ratios {[f'{r:.2f}' for r in plain_ratios]}), "
        f"{elapsed:.1f}s",
    )
    assert counts_ok
    assert all(r <= 3 for r in bin_ratios)
    assert all(r >= 3.5 for r in plain_ratios)
    assert elapsed < 60
