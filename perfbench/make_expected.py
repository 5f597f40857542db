"""Write the benchmark's stored expected values from independent references.

The cycle, path and complete graph take their polynomials from the closed
forms; the grid, the hypercube and G(16, 0.5) from the brute-force engine,
which tests every subset. The corpus report is rebuilt from brute-force
polynomials of every record, grouped here rather than by ``run_batch``.
Neither reference shares the pruned walk that the workloads time.

Run from the repository root, once, when the inputs change:

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
from collections import Counter

from common import (
    EXPECTED_FILE,
    EXPECTED_REPORT_FILE,
    base_graphs,
    corpus_records,
    import_visipoly,
    report_text,
)


def single_polynomials(vp) -> dict:
    graphs = base_graphs()
    closed = {"c40": vp.poly_cycle(40), "p64": vp.poly_path(64), "k16": vp.poly_complete(16)}
    out = {}
    for name, g in graphs.items():
        poly = closed[name] if name in closed else vp.polynomial_bruteforce(g)
        out[name] = poly.to_canonical_string()
    return out


def corpus_report(vp) -> str:
    by_order: dict = {}
    for record in corpus_records(seed=0):
        g = vp.parse_graph6(record)
        key = vp.polynomial_bruteforce(g).to_canonical_string()
        by_order.setdefault(g.n, Counter())[key] += 1
    reports = []
    for order in sorted(by_order):
        groups = by_order[order]
        largest = max(groups.values())
        reports.append(
            {
                "order": order,
                "total_graphs": sum(groups.values()),
                "group_count": len(groups),
                "max_group_size": largest,
                "max_group_polynomials": sorted(k for k, c in groups.items() if c == largest),
                "histogram": [[k, c] for k, c in sorted(groups.items())],
            }
        )
    return report_text(reports)


def main() -> None:
    vp = import_visipoly()
    polys = single_polynomials(vp)
    EXPECTED_FILE.write_text(json.dumps({"polynomials": polys}, indent=2) + "\n", "ascii")
    EXPECTED_REPORT_FILE.write_text(corpus_report(vp), "ascii")


if __name__ == "__main__":
    main()
