"""Inputs, expected values and output checks shared by the benchmark scripts.

Every input is derived from the workload seed, and the program under test is
always the ``visipoly`` package in this checkout's ``src/`` directory, never
an installed copy.
"""

from __future__ import annotations

import json
import random
import sys
from math import comb
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
EXPECTED_FILE = BENCH_DIR / "expected.json"
EXPECTED_REPORT_FILE = BENCH_DIR / "expected_corpus_report.json"

# Connected graphs per order in data/connected_n1..n7.g6.
ORDER_TOTALS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# Order 5 has four polynomials that share the largest group.
ORDER5_MODAL_TIE = 4

# Generator seed of G(16, 0.5); fixed, unlike the workload seed.
GNP_SEED = 1
SINGLE_GRAPHS = ("grid4x5", "q4", "gnp16", "c40", "p64", "k16")


# The calibration loop's iteration count, its result, and its time at the
# reference speed: a round figure near its time on an unloaded 2-vCPU Xeon VM.
CALIBRATION_ITERATIONS = 30_000
CALIBRATION_RESULT = 16019
REFERENCE_CALIBRATION_S = 0.025


class MissingProgram(RuntimeError):
    """The checkout lacks the package sources or the corpus the benchmark runs."""


def import_visipoly():
    """Import visipoly from this checkout's src/ and return the module."""
    if not (SRC / "visipoly" / "__init__.py").is_file():
        raise MissingProgram(f"no visipoly package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import visipoly

    if Path(visipoly.__file__).resolve().parent.parent != SRC:
        raise MissingProgram(f"visipoly was imported from {visipoly.__file__}, not {SRC}")
    return visipoly


def forget_visipoly() -> None:
    """Drop visipoly from the module cache so the next import runs it again."""
    for name in [m for m in sys.modules if m == "visipoly" or m.startswith("visipoly.")]:
        del sys.modules[name]


def calibration_loop() -> int:
    """A fixed pure-Python loop of integer, bit, dict and list operations.

    It uses no visipoly code, so its time tracks only the host's speed.
    """
    seen = {}
    odd = []
    x = 0x9E3779B9
    for _ in range(CALIBRATION_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        low = x & (x - 1)
        bits = bin(low).count("1")
        seen[x & 1023] = bits
        if bits & 1:
            odd.append(low)
    return len(odd) + len(seen)


class ReferenceClock:
    """Turns wall times into seconds at a fixed reference speed of the host.

    Other tenants of a shared host slow it by tens of percent for seconds to
    minutes at a time, and such a slowdown moves this process's wall and CPU
    time alike. The calibration loop runs between timed calls, so the mean of
    its times just before and just after a call measures the host's speed
    during that call; the call's wall time times REFERENCE_CALIBRATION_S over
    that mean is its time at the reference speed.
    """

    def __init__(self):
        self.loop_s = [self._loop()]

    def _loop(self) -> float:
        start = perf_counter()
        result = calibration_loop()
        seconds = perf_counter() - start
        if result != CALIBRATION_RESULT:
            raise RuntimeError(f"calibration loop returned {result}, not {CALIBRATION_RESULT}")
        return seconds

    def scale(self) -> float:
        """Reference seconds per wall second since the previous call or creation."""
        before = self.loop_s[-1]
        self.loop_s.append(self._loop())
        return 2 * REFERENCE_CALIBRATION_S / (before + self.loop_s[-1])


def corpus_records(seed: int) -> list[str]:
    """All graph6 records of orders 1..7, in an order shuffled by the seed."""
    records = []
    for order in ORDER_TOTALS:
        path = DATA / f"connected_n{order}.g6"
        if not path.is_file():
            raise MissingProgram(f"missing corpus file {path}")
        records.extend(line.strip() for line in path.read_text("ascii").splitlines() if line.strip())
    random.Random(seed).shuffle(records)
    return records


def base_graphs() -> dict:
    """The six single graphs with their constructors' vertex labels."""
    from visipoly import Graph, complete_graph, cycle_graph, path_graph

    rows, cols = 4, 5
    grid = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    grid += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    cube = [(u, u | 1 << b) for u in range(16) for b in range(4) if not u >> b & 1]
    rng = random.Random(GNP_SEED)
    gnp = [(u, v) for u in range(16) for v in range(u + 1, 16) if rng.random() < 0.5]
    return {
        "grid4x5": Graph.from_edges(rows * cols, grid),
        "q4": Graph.from_edges(16, cube),
        "gnp16": Graph.from_edges(16, gnp),
        "c40": cycle_graph(40),
        "p64": path_graph(64),
        "k16": complete_graph(16),
    }


def single_graphs(seed: int) -> dict:
    """The six single graphs with vertex labels permuted by the seed.

    Relabelling leaves every polynomial and stats table unchanged but
    changes the shape of the enumeration tree.
    """
    from visipoly import Graph

    rng = random.Random(seed)
    out = {}
    for name, g in base_graphs().items():
        perm = list(range(g.n))
        rng.shuffle(perm)
        out[name] = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    return out


def report_text(report_dicts: list) -> str:
    """Serialise a batch report exactly as ``visipoly batch --json`` writes it."""
    return json.dumps({"reports": report_dicts}, indent=2) + "\n"


def load_expected() -> tuple[dict, str]:
    """Stored polynomials of the single graphs and the stored corpus report."""
    try:
        polys = json.loads(EXPECTED_FILE.read_text("ascii"))["polynomials"]
        report = EXPECTED_REPORT_FILE.read_text("ascii")
    except (OSError, KeyError, ValueError) as exc:
        raise MissingProgram(f"cannot read the stored expected values: {exc}") from exc
    return polys, report


def corpus_problems(reports, expected_report: str) -> list[str]:
    """Differences between a run_batch result and the stored report."""
    problems = []
    totals = {r.order: r.total_graphs for r in reports}
    if totals != ORDER_TOTALS:
        problems.append(f"per-order totals {totals}")
    order5 = [r for r in reports if r.order == 5]
    if not order5 or len(order5[0].max_group_polynomials) != ORDER5_MODAL_TIE:
        problems.append("the four-way modal tie at order 5 is missing")
    if report_text([r.to_json_dict() for r in reports]) != expected_report:
        problems.append("report differs from the stored expected report")
    return problems


def coeffs_of(canonical: str) -> list[int]:
    return [int(c) for c in canonical[1:-1].split(",")]


def poly_problems(name: str, poly, expected_poly: str) -> list[str]:
    text = poly.to_canonical_string()
    return [] if text == expected_poly else [f"{name}: polynomial {text}, expected {expected_poly}"]


def stats_problems(name: str, stats, expected_poly: str) -> list[str]:
    """Disagreements between a compute_stats result and the graph's polynomial."""
    coeffs = coeffs_of(expected_poly)
    problems = []
    by_size: dict = {}
    for (k, _), count in stats.theta.items():
        by_size[k] = by_size.get(k, 0) + count
    if by_size != {k: c for k, c in enumerate(coeffs) if k and c}:
        problems.append(f"{name}: sums of theta(k, d) over d are {by_size}, not r_k")
    if (stats.mu, stats.r_mu) != (len(coeffs) - 1, coeffs[-1]):
        problems.append(f"{name}: mu, r_mu = {stats.mu}, {stats.r_mu}")
    if name == "k16" and any(stats.cliques.get(k) != comb(16, k) for k in range(17)):
        problems.append("k16: clique counts are not binomial coefficients")
    return problems


# Workload -> the visipoly call its pass makes on each single graph, and its check.
SINGLE_CALLS = {
    "single_poly": ("polynomial_pruned", poly_problems),
    "single_stats": ("compute_stats", stats_problems),
}
