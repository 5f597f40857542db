"""The CI workflow runs scripts, checks paths and loops over workloads that exist.

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


def test_workflow_loops_over_the_benchmark_workloads():
    benchmark = json.loads((REPO_DIR / "BENCHMARK.json").read_text("utf-8"))
    names = [workload["name"] for workload in benchmark["workloads"]]
    loops = re.findall(r"for workload in ([^;]*);", WORKFLOW)
    assert len(loops) == 2
    assert [loop.split() for loop in loops] == [names, names]
