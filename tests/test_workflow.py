"""The CI workflow runs scripts, checks and compares paths and loops over workloads that exist.

The workflow is read as text: a renamed script, a moved checked directory or
a workload list out of step with ``BENCHMARK.json`` fails here, before CI runs.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

REPO_DIR = Path(__file__).resolve().parent.parent
WORKFLOW = (REPO_DIR / ".github" / "workflows" / "tests.yml").read_text("utf-8")


def test_workflow_scripts_exist():
    scripts = re.findall(r"python3 (\S+\.py)", WORKFLOW)
    assert {"scripts/make_golden.py", "perfbench/run.py"} <= set(scripts)
    assert [script for script in scripts if not (REPO_DIR / script).is_file()] == []


def test_workflow_checks_paths_that_exist():
    paths = re.findall(r"diff --exit-code (\S+)", WORKFLOW)
    assert "tests/golden/" in paths
    assert [path for path in paths if not (REPO_DIR / path).exists()] == []


def test_workflow_compares_files_that_exist():
    """Both the compiler and the compiler-less step compare the batch CLI's corpus report
    with the stored one; an operand outside the runner's temporary directory must exist."""
    compared = re.findall(r'^ *(?:cmp|"\$CMP") (\S+) (\S+)$', WORKFLOW, re.M)
    assert compared == [('"$RUNNER_TEMP/report.json"', "perfbench/expected_corpus_report.json")] * 2
    files = [name for pair in compared for name in pair if not name.startswith('"$RUNNER_TEMP/')]
    assert [name for name in files if not (REPO_DIR / name).is_file()] == []
    inputs = re.findall(r"cat (\S+) >", WORKFLOW)
    assert inputs == ["data/connected_n[1-7].g6"] * 2
    assert len(list(REPO_DIR.glob(inputs[0]))) == 7


def test_workflow_loops_over_the_benchmark_workloads():
    benchmark = json.loads((REPO_DIR / "BENCHMARK.json").read_text("utf-8"))
    names = [workload["name"] for workload in benchmark["workloads"]]
    loops = re.findall(r"for workload in ([^;]*);", WORKFLOW)
    assert len(loops) == 2
    assert [loop.split() for loop in loops] == [names, names]
