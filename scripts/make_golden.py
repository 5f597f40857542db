#!/usr/bin/env python3
"""Write tests/golden/connected_n1-7.txt, one line per committed corpus graph.

Each line holds a record of data/connected_n1..n7.g6 (in file order), its
canonical visibility polynomial and its sorted (size, diameter) table as
[[k,d,count],...]. The polynomial and the table come from the package's
pruned engine, and every line is checked against the all-paths oracle of
tests/oracles.py before the file is written (about 5 s). Run from anywhere:

    python3 scripts/make_golden.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from visipoly import count_by_size_and_diameter, parse_graph6, polynomial_pruned
from visipoly.graph6 import iter_graph6_lines

from oracles import golden_line, oracle_golden_line

ORDERS = range(1, 8)
GOLDEN = ROOT / "tests" / "golden" / "connected_n1-7.txt"


def corpus_records() -> list[str]:
    records = []
    for order in ORDERS:
        with open(ROOT / "data" / f"connected_n{order}.g6", encoding="ascii") as handle:
            records.extend(record for _, record in iter_graph6_lines(handle))
    return records


def engine_line(record: str) -> str:
    g = parse_graph6(record)
    return golden_line(record, polynomial_pruned(g), count_by_size_and_diameter(g))


def main() -> int:
    lines = []
    for record in corpus_records():
        line = engine_line(record)
        expected = oracle_golden_line(record, parse_graph6(record))
        if line != expected:
            print(f"engine and oracle differ:\n  {line}\n  {expected}", file=sys.stderr)
            return 1
        lines.append(line)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {GOLDEN} ({len(lines)} graphs, each checked against the oracle)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
