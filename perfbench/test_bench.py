"""Checks of the benchmark itself: output shape, stored values, exact counts.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from common import (
    BENCH_DIR,
    ORDER_TOTALS,
    ROOT,
    coeffs_of,
    import_visipoly,
    load_expected,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("ascii"))
COUNT_PREFIXES = ("enumeration.mv_sets.", "visibility.is_mv_calls.")


def run_bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_stored_values_match_closed_forms_and_corpus_totals():
    vp = import_visipoly()
    polys, report = load_expected()
    assert polys["c40"] == vp.poly_cycle(40).to_canonical_string()
    assert polys["p64"] == vp.poly_path(64).to_canonical_string()
    assert polys["k16"] == vp.poly_complete(16).to_canonical_string()
    totals = {r["order"]: r["total_graphs"] for r in json.loads(report)["reports"]}
    assert totals == ORDER_TOTALS


def test_untraced_run_prints_every_end_to_end_metric():
    result = result_line(run_bench("--workload", "verify_suite", "--seed", "1", "--seconds", "1"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 58
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_exactly_across_runs():
    args = ("--workload", "verify_suite", "--seed", "3", "--seconds", "1", "--trace", "1")
    with ThreadPoolExecutor(max_workers=2) as pool:
        first, second = (result_line(p) for p in pool.map(lambda _: run_bench(*args), range(2)))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units
    assert first["correct"] and second["correct"]
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if k.startswith(COUNT_PREFIXES)}
        for r in (first, second)
    ]
    assert len(counts[0]) == 12 and counts[0] == counts[1]
    polys, _ = load_expected()
    for name, poly in polys.items():
        assert counts[0]["enumeration.mv_sets." + name] == sum(coeffs_of(poly)) - 1


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "corpus_batch", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
