from __future__ import annotations

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import visipoly._native as native
from visipoly.cli import main

from conftest import corpus_path, pin_python_walk

REPO_DIR = Path(__file__).resolve().parent.parent
PYPROJECT = REPO_DIR / "pyproject.toml"
SRC_DIR = REPO_DIR / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_class_cycle(capsys):
    code, out, _ = run_cli(capsys, "poly", "--class", "cycle:7")
    assert code == 0
    assert "[1,7,21,14]" in out
    assert "mu: 3  r_mu: 14" in out


def test_poly_class_complete_json(capsys):
    code, out, _ = run_cli(capsys, "poly", "--class", "complete:5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial"] == "[1,5,10,10,5,1]"
    assert payload["engine"] == "closed-form"
    assert payload["mu"] == 5 and payload["r_mu"] == 1


def test_poly_g6_record(capsys):
    code, out, _ = run_cli(capsys, "poly", "--g6", "C~", "--engine", "bruteforce")
    assert code == 0
    assert "[1,4,6,4,1]" in out


def test_poly_g6_file_with_header(capsys, tmp_path):
    path = tmp_path / "k4.g6"
    path.write_text(">>graph6<<\nC~\n")
    code, out, _ = run_cli(capsys, "poly", "--input", str(path))
    assert code == 0
    assert "[1,4,6,4,1]" in out


def test_poly_and_stats_refuse_several_records(capsys, tmp_path):
    path = tmp_path / "two.g6"
    path.write_text("C~\nBW\n")
    for command in ("poly", "stats"):
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert code == 2
        assert out == ""
        assert "line 2:" in err and "more than one graph6 record" in err


def test_poly_input_format_error_names_the_line(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text(">>graph6<<\n\n~~\n")
    code, _, err = run_cli(capsys, "poly", "--input", str(path))
    assert code == 2
    assert "line 3: truncated long-form order field" in err


@pytest.mark.parametrize(
    "fmt, content, message",
    [
        ("graph6", ">>graph6<<\n\nA\u00e9\n",
         "line 3: graph6 record contains non-ASCII characters"),
        ("edgelist", "3 2\n0 1\n1 \u00e9\n", "line 3: non-integer field in '1 \\udcc3\\udca9'"),
    ],
    ids=["graph6", "edgelist"],
)
def test_poly_non_ascii_input_exits_2_naming_the_line(capsys, tmp_path, fmt, content, message):
    path = tmp_path / "input"
    path.write_bytes(content.encode("utf-8"))
    code, out, err = run_cli(capsys, "poly", "--input", str(path), "--format", fmt)
    assert code == 2
    assert out == ""
    assert f"error: {message}\n" == err


@pytest.mark.parametrize("walk", ["native", "python"])
def test_batch_non_ascii_input_exits_2_naming_the_line(capsys, monkeypatch, tmp_path, walk):
    if walk == "python":
        pin_python_walk(monkeypatch)
    path = tmp_path / "input.g6"
    path.write_bytes("A_\nA\u00e9\nA?\n".encode("utf-8"))
    code, out, err = run_cli(capsys, "batch", "--input", str(path), "--workers", "1")
    assert code == 2
    assert out == ""
    assert err == "error: line 2: graph6 record contains non-ASCII characters\n"


def test_format_refused_without_input(capsys):
    for source in (("--g6", "C~"), ("--class", "cycle:5")):
        for command in ("poly", "stats"):
            code, out, err = run_cli(capsys, command, *source, "--format", "edgelist")
            assert code == 2
            assert out == ""
            assert "--format applies only to --input" in err


def test_poly_edgelist_diamond(capsys, tmp_path):
    path = tmp_path / "diamond.edges"
    path.write_text("4 5\n0 1\n1 2\n2 3\n0 3\n1 3\n")
    code, out, _ = run_cli(
        capsys, "poly", "--input", str(path), "--format", "edgelist"
    )
    assert code == 0
    assert "[1,4,6,4]" in out


def test_poly_edgelist_repeated_edge_exits_2(capsys, tmp_path):
    path = tmp_path / "repeated.edges"
    path.write_text("3 2\n0 1\n1 0\n")
    code, out, err = run_cli(capsys, "poly", "--input", str(path), "--format", "edgelist")
    assert code == 2
    assert out == ""
    assert err == "error: line 3: edge (1, 0) repeats line 2\n"


def test_poly_format_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "poly", "--g6", "A=")
    assert code == 2
    assert "error" in err


def test_poly_guardrail_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "poly", "--class", "path:30", "--engine", "bruteforce"
    )
    assert code == 4
    assert "pruned" in err


def test_stats_guardrail_exit_code(capsys, tmp_path):
    path = tmp_path / "p65.edges"
    path.write_text("65 64\n" + "".join(f"{v} {v + 1}\n" for v in range(64)))
    code, out, err = run_cli(
        capsys, "stats", "--input", str(path), "--format", "edgelist"
    )
    assert code == 4
    assert out == ""
    assert "64 vertices" in err


def test_poly_closed_form_engine_needs_class(capsys):
    code, _, err = run_cli(capsys, "poly", "--g6", "C~", "--engine", "closed-form")
    assert code == 2
    assert "--class" in err


@pytest.mark.parametrize("text", ["paw", "diamond", "empty:5"])
def test_bare_raw_class_is_counted_by_the_pruned_engine(capsys, text):
    """A named graph or empty:N has no closed form: auto names the walk that counted it."""
    code, out, _ = run_cli(capsys, "poly", "--class", text, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["engine"] == "pruned"
    assert payload["walk"] == ("python" if native.load() is None else "native")
    code, out, err = run_cli(capsys, "poly", "--class", text, "--engine", "closed-form")
    assert (code, out) == (2, "")
    assert err == f"error: class '{text}' has no closed form; use --engine pruned\n"


def test_union_with_a_raw_part_keeps_the_closed_form_label(capsys):
    code, out, _ = run_cli(capsys, "poly", "--class", "union:paw+path:3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["engine"], payload["walk"]) == ("closed-form", None)
    assert payload["polynomial"] == "[1,7,9,2]"
    code, out, _ = run_cli(capsys, "poly", "--class", "union:paw+path:3", "--engine", "closed-form")
    assert code == 0 and "engine: closed-form" in out


def test_poly_bad_class_exit_code(capsys):
    code, _, _ = run_cli(capsys, "poly", "--class", "cycle:2")
    assert code == 2
    code, _, _ = run_cli(capsys, "poly", "--class", "nonsense:3")
    assert code == 2


def test_stats_json(capsys):
    code, out, _ = run_cli(capsys, "stats", "--class", "cycle:6", "--kmax", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == 3
    assert payload["r_mu"] == 14
    assert [2, 2, 6] in payload["theta"]
    assert [3, 0] in payload["cliques"]


def test_verify_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--spec", "cycle:6", "--spec", "complete:4"
    )
    assert code == 0
    assert out.count("PASS") == 2
    assert "2/2 instances passed" in out


def test_verify_paper_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out


def test_batch_cli(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "batch",
        "--input",
        str(corpus_path(4)),
        "--workers",
        "1",
        "--json",
        str(out_path),
    )
    assert code == 0
    assert "order 4: graphs=6" in out
    payload = json.loads(out_path.read_text())
    assert payload["reports"][0]["max_group_polynomials"] == ["[1,4,6,4]"]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_batch_refuses_fewer_than_one_worker(capsys, workers):
    code, out, err = run_cli(capsys, "batch", "--input", str(corpus_path(4)), "--workers", workers)
    assert code == 2
    assert out == ""
    assert err == f"error: --workers must be at least 1, got {workers}\n"


def test_batch_json_to_stdout_is_only_json(capsys):
    code, out, _ = run_cli(capsys, "batch", "--input", str(corpus_path(4)), "--workers", "1",
                           "--json", "-")
    assert code == 0
    payload = json.loads(out)
    assert [report["order"] for report in payload["reports"]] == [4]
    assert payload["reports"][0]["total_graphs"] == 6


def test_batch_missing_file(capsys):
    code, _, err = run_cli(capsys, "batch", "--input", "/nonexistent.g6")
    assert code == 2
    assert "error" in err


def test_join_with_check(capsys):
    code, out, _ = run_cli(
        capsys, "join", "--left", "paw", "--right", "cycle:6", "--check"
    )
    assert code == 0
    assert "[1,10,45,120,210,252,207,102,30,2]" in out
    assert "check: PASS" in out


def test_join_beyond_the_guardrail(capsys):
    # 70 vertices: the law walks only the cycle, while --check enumerates the join
    code, out, _ = run_cli(
        capsys, "join", "--left", "complete:10", "--right", "cycle:60"
    )
    assert code == 0
    assert "polynomial: [1,70," in out
    code, out, err = run_cli(
        capsys, "join", "--left", "complete:10", "--right", "cycle:60", "--check"
    )
    assert code == 4
    assert "64 vertices" in err
    assert out == ""  # a refused check prints no result


def test_console_script_installed(tmp_path, monkeypatch):
    """The declared console script launches the CLI from a plain checkout.

    The launcher is written with the same distlib script maker pip uses for
    ``console_scripts``, from the entry point in ``pyproject.toml``, so the
    test needs no install step. An installed distribution, if there is one,
    must declare the same entry point.
    """
    tomllib = pytest.importorskip("tomllib")
    scripts = pytest.importorskip("pip._vendor.distlib.scripts")
    with PYPROJECT.open("rb") as fh:
        entry_point = tomllib.load(fh)["project"]["scripts"]["visipoly"]

    bin_dir = tmp_path / "bin"
    maker = scripts.ScriptMaker(None, str(bin_dir))
    maker.executable = sys.executable
    maker.variants = {""}
    maker.set_mode = True
    (launcher,) = maker.make_multiple([f"visipoly = {entry_point}"])
    monkeypatch.setenv("PATH", os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]))
    assert shutil.which("visipoly") == launcher

    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    result = subprocess.run(
        [launcher, "poly", "--class", "cycle:7"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "[1,7,21,14]" in result.stdout

    try:
        dist = importlib.metadata.distribution("visipoly")
    except importlib.metadata.PackageNotFoundError:
        return
    installed = [
        ep.value for ep in dist.entry_points.select(group="console_scripts", name="visipoly")
    ]
    assert installed == [entry_point]
