#!/usr/bin/env python3
"""Survey the hereditary width measures over all tiny hypergraphs.

Enumerates every hypergraph up to the given vertex and edge counts and
tabulates how the hereditary hypertree width, the hereditary order
width and the nest-set width relate, including how often the
inequalities are strict.  It also finds the best ``how``, ``fhow`` and
``bfhow`` orders, checks ``fhow <= how``, ``bfhow <= bhow`` and
``fhow <= bfhow``, checks that ``width_of_order`` gives each best
order's width back, and tabulates the fractional pair ``(fhow, bfhow)``.
"""

from __future__ import annotations

import argparse
import itertools
from collections import Counter

from cqda.hypergraph import (
    Hypergraph,
    best_order,
    beta_elim_order,
    bhtw_bruteforce,
    nsw_bruteforce,
    width_of_order,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-vertices", type=int, default=4)
    parser.add_argument("--max-edges", type=int, default=4)
    args = parser.parse_args()

    triples: Counter = Counter()
    fractional: Counter = Counter()
    strict = Counter()
    total = 0
    acyclic = 0
    for n in range(args.max_vertices + 1):
        verts = tuple(f"v{i}" for i in range(n))
        nonempty = [
            frozenset(c)
            for r in range(1, n + 1)
            for c in itertools.combinations(verts, r)
        ]
        for esize in range(args.max_edges + 1):
            for edges in itertools.combinations(nonempty, esize):
                h = Hypergraph(frozenset(verts), tuple(edges))
                best = {kind: best_order(h, kind) for kind in ("how", "fhow", "bhow", "bfhow")}
                for kind, (order, width, _) in best.items():
                    assert width_of_order(h, kind, order) == width, (edges, kind)
                how, fhow, bhow, bfhow = (best[kind][1] for kind in ("how", "fhow", "bhow", "bfhow"))
                assert fhow <= how and bfhow <= bhow and fhow <= bfhow, edges
                fractional[(fhow, bfhow)] += 1
                bhtw = bhtw_bruteforce(h)
                nsw = nsw_bruteforce(h)
                assert bhtw <= bhow <= nsw
                triples[(bhtw, bhow, nsw)] += 1
                strict["bhtw<bhow"] += bhtw < bhow
                strict["bhow<nsw"] += bhow < nsw
                acyclic += beta_elim_order(h) is not None
                total += 1

    print(f"{total} hypergraphs (|V| <= {args.max_vertices}, |E| <= {args.max_edges})")
    print(f"beta-acyclic: {acyclic}")
    for key, count in sorted(strict.items()):
        print(f"strict {key}: {count}")
    print("\n(bhtw, bhow, nsw) histogram:")
    for triple, count in sorted(triples.items()):
        print(f"  {triple}: {count}")
    print("\n(fhow, bfhow) histogram:")
    for (fhow, bfhow), count in sorted(fractional.items()):
        print(f"  ({fhow}, {bfhow}): {count}")


if __name__ == "__main__":
    main()
