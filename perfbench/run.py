#!/usr/bin/env python3
"""Seeded benchmark of the cqda pipeline: build, access, rank, enumeration, width.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

For each workload this process draws a database, a query and request
streams from the seed, computes the oracle answers, and starts one fresh
interpreter (``worker.py``) with a pinned ``PYTHONHASHSEED`` that builds
the engine several times and then runs a single-caller closed loop for
``--seconds``.  Workers run one at a time.  Afterwards every recorded
answer is checked against the oracle.  The last stdout line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics from spans
around each layer's public functions with ``--trace 1``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER_HASH_SEED = "0"
WORKER_TIMEOUT_S = 170


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def request_latency(repeats: list, q: float) -> float:
    """The nearest-rank ``q`` percentile of one request's repeats, never the slowest one.

    The shared host used for tuning alternates between a normal state and
    one up to 1.6x faster, in spells from seconds to whole runs, with short
    slower bursts on top.  A high percentile of the repeats reads the
    normal state whenever a run spends a tenth of its time in it; leaving
    out the slowest repeat keeps a single burst out.  Medians and minima
    of the repeats flip with the share of time a run spent in the fast
    state (NOTES.md, "Noise on this machine").
    """
    ordered = sorted(repeats)
    return ordered[min(math.ceil(q * len(ordered)), max(1, len(ordered) - 1)) - 1]


def timing(per_request: list, scale: float) -> tuple[float, float, int]:
    """Median and p99 over the distinct requests of their latencies.

    The median takes each request's p90; the p99 takes each request's
    upper quartile, because picking the slowest 1% of requests would
    otherwise pick the ones whose p90 a burst happened to hit twice.
    """
    ran = [v for v in per_request if v]
    typical = sorted(request_latency(v, 0.9) for v in ran)
    tail = sorted(request_latency(v, 0.75) for v in ran)
    return statistics.median(typical) / scale, percentile(tail, 0.99) / scale, len(ran)


def verify(w, answers: list, req: dict, res: dict, own_graph) -> tuple[int, list[str]]:
    """Count recorded answers that disagree with the oracle."""
    from workloads import ENUM_WINDOW, answer_hash, check_widths, expected_rank, rank_keys, window_hash

    bad: list[str] = []
    for c in res["counts"]:
        if c != len(answers):
            bad.append(f"count() = {c}, oracle has {len(answers)} answers")
    kth = res["kth"]
    for i in range(0, len(kth), 2):
        k, h = kth[i], kth[i + 1]
        if h != answer_hash(answers[k - 1]):
            bad.append(f"kth({k}) differs from the oracle")
    pos, keys = rank_keys(w.spec, answers)
    rank = res["rank"]
    for i in range(0, len(rank), 2):
        values = req["rank"][rank[i]]
        want = expected_rank(pos, keys, values)
        if rank[i + 1] != want:
            bad.append(f"rank_of({values}) = {rank[i + 1]}, oracle says {want}")
    enum = res["enum"]
    for i in range(0, len(enum), 3):
        start = enum[i]
        limit = min(ENUM_WINDOW, len(answers) - start + 1)
        if enum[i + 1] != limit or enum[i + 2] != window_hash(answers[start - 1:start - 1 + limit]):
            bad.append(f"answers({start}, {limit}) differs from the oracle")
    bad.extend(f"width: {p}" for p in check_widths(res["width_requests"], res["widths"], own_graph))
    bad.extend(["width: a repeated request gave another result"] * res["width_changed"])
    return len(bad), bad


def end_to_end(res: dict) -> dict:
    """``name -> (value, unit, distinct requests or set-up reps)``."""
    from workloads import ENUM_WINDOW

    out = {}
    setup = res["setup_ns"]
    out["setup_s"] = (statistics.median(setup) / 1e9, "s", len(setup))
    for kind, prefix, unit, scale in (("kth", "access", "us", 1e3), ("rank", "rank", "us", 1e3),
                                      ("width", "width", "ms", 1e6)):
        p50, p99, n = timing(res["lat"][kind], scale)
        out[f"{prefix}_p50_{unit}"] = (p50, unit, n)
        out[f"{prefix}_p99_{unit}"] = (p99, unit, n)
    # answers over the summed latency of the windows that ran
    n_answers = window_ns = windows = 0
    for start, lat in zip(res["enum_starts"], res["lat"]["enum"]):
        if lat:
            n_answers += min(ENUM_WINDOW, res["counts"][-1] - start + 1)
            window_ns += request_latency(lat, 0.9)
            windows += 1
    out["enum_answers_per_s"] = (n_answers / (window_ns / 1e9), "1/s", windows)
    out["peak_rss_mb"] = (res["peak_rss_kb"] / 1024, "MB", 1)
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from workloads import (WORKLOADS, make_database, make_requests, oracle_answers, write_inputs)
    from cqda.hypergraph import SignedHypergraph

    w = WORKLOADS[name]
    rng = random.Random(f"{seed}:{name}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        rows = make_database(w.spec, rng)
        write_inputs(w.spec, rows, workdir)
        t0 = time.perf_counter()
        answers = oracle_answers(w.spec, rows)
        oracle_s = time.perf_counter() - t0
        if not answers:
            raise SystemExit(f"error: seed {seed} gives {name} no answers")
        req = make_requests(w, answers, rng)
        (workdir / "requests.json").write_text(json.dumps(req), encoding="utf-8")

        env = dict(os.environ, PYTHONHASHSEED=WORKER_HASH_SEED, PYTHONPATH=str(SRC))
        cmd = [sys.executable, str(HERE / "worker.py"), tmp, name, repr(seconds), "1" if traced else "0"]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"error: worker for {name} exceeded {WORKER_TIMEOUT_S} s")
        if proc.returncode != 0:
            raise SystemExit(f"error: worker for {name} exited with code {proc.returncode}")
        res = json.loads((workdir / "results.json").read_text(encoding="utf-8"))

    if not Path(res["cqda_file"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: worker imported cqda from {res['cqda_file']}, not from {SRC}")
    own = SignedHypergraph.of(
        w.spec.order,
        [a.args for a in w.spec.atoms if a.positive],
        [a.args for a in w.spec.atoms if not a.positive],
    )
    mismatches, problems = verify(w, answers, req, res, own)
    ops = len(res["setup_ns"]) + sum(len(a) for v in res["lat"].values() for a in v) + res["failed"]
    failed = res["failed"] + mismatches
    return {
        "name": name,
        "answers": len(answers),
        "oracle_s": oracle_s,
        "ops": ops,
        "failed": failed,
        "problems": res["errors"] + problems[:5],
        "e2e": end_to_end(res),
        "layers": res.get("layers", {}),
        "absent": res.get("absent", []),
        "wall_s": res["wall_s"],
        "samples": res["lat"],
        "hash_seed": res["hash_seed"],
    }


def report(r: dict, traced: bool) -> None:
    print(f"# workload {r['name']}: {r['answers']} answers, oracle {r['oracle_s']:.2f} s, "
          f"worker wall {r['wall_s']:.2f} s, PYTHONHASHSEED={r['hash_seed']}")
    for name, (value, unit, n) in r["e2e"].items():
        print(f"  {name:<22} {value:>14.6g} {unit:<5} n={n}")
    for kind, lat in r["samples"].items():
        print(f"  {kind:<6} requests: {len(lat)} distinct, {sum(map(len, lat))} issued, "
              f"{min(map(len, lat))}-{max(map(len, lat))} repeats each")
    print(f"  {'failed_ops_frac':<22} {r['failed'] / r['ops']:>14.6g} ratio n={r['ops']}")
    if traced:
        print("  per-layer (traced run; the end-to-end figures above include tracing):")
        for name, (value, unit) in r["layers"].items():
            print(f"  {name:<38} {value:>14.6g} {unit}")
        for name in r["absent"]:
            print(f"  {name:<38} {'absent':>14}")
    for p in r["problems"]:
        print(f"  problem: {p}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0, help="measured time of the request loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (SRC / "cqda" / "__init__.py").is_file():
        print(f"error: no cqda sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            print(f"error: unknown workload {name!r}; choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
            return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    traced = args.trace == 1
    results = []
    for name in names:
        r = run_workload(name, args.seed, args.seconds, traced)
        report(r, traced)
        results.append(r)

    def metrics_of(r: dict) -> dict:
        if traced:
            src = {n: (v, u) for n, (v, u) in r["layers"].items()}
        else:
            src = {n: (v, u) for n, (v, u, _) in r["e2e"].items()}
        prefix = f"{r['name']}." if len(results) > 1 else ""
        return {prefix + n: {"value": v, "unit": u} for n, (v, u) in src.items()}

    metrics: dict = {}
    for r in results:
        metrics.update(metrics_of(r))
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["ops"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
