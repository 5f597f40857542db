from __future__ import annotations

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import visipoly._native as native
from visipoly import (Complete, Polynomial, classes, cli, closed_forms, compute_stats,
                      enumeration, verify)
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


@pytest.mark.parametrize("spec", ["bipartite:2,100", "bipartite:100,2"])
def test_poly_bipartite_with_a_part_of_two_past_the_guardrail(capsys, spec):
    # one small vertex with all 100 others is the largest set: C(102, i) less the
    # sets holding both small vertices and two or more of the others
    coeffs = [comb(102, i) - (comb(100, i - 2) if i >= 4 else 0) for i in range(102)]
    code, out, _ = run_cli(capsys, "poly", "--class", spec, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["engine"] == "closed-form"
    assert payload["polynomial"] == "[" + ",".join(map(str, coeffs)) + "]"
    assert payload["mu"] == 101 and payload["r_mu"] == 2


def test_poly_g6_record(capsys):
    code, out, _ = run_cli(capsys, "poly", "--g6", "C~", "--engine", "bruteforce")
    assert code == 0
    assert "[1,4,6,4,1]" in out
    code, out, _ = run_cli(capsys, "poly", "--g6", "C~", "--engine", "bruteforce", "--json")
    assert code == 0
    assert [json.loads(out)[key] for key in ("engine", "walk")] == ["bruteforce", None]


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


def test_poly_input_reads_at_most_two_records(capsys, monkeypatch, tmp_path):
    path = tmp_path / "many.g6"
    path.write_text("C~\nBW\nA_\n")

    def two_records_then_fail(lines):
        yield 1, "C~"
        yield 4, "BW"
        pytest.fail("a third record was read")

    monkeypatch.setattr(cli, "iter_graph6_lines", two_records_then_fail)
    code, out, err = run_cli(capsys, "poly", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: line 4: {path} holds more than one graph6 record; use batch for several\n"


def test_poly_input_without_a_record_exits_2(capsys, tmp_path):
    path = tmp_path / "header-only.g6"
    path.write_text(">>graph6<<\n\n")
    code, out, err = run_cli(capsys, "poly", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: no graph6 record in {path}\n"


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


def test_poly_edgelist_order_above_the_limit_exits_2(capsys, tmp_path):
    path = tmp_path / "wide.edges"
    path.write_text("2000000 0\n")
    code, out, err = run_cli(capsys, "poly", "--input", str(path), "--format", "edgelist")
    assert (code, out) == (2, "")
    assert err == "error: line 1: order 2000000 above the limit 262143\n"


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
    assert payload["engine"] == "closed-form"
    assert payload["walk"] == ("python" if native.load() is None else "native")
    assert payload["polynomial"] == "[1,7,9,2]"
    code, out, _ = run_cli(capsys, "poly", "--class", "union:paw+path:3", "--engine", "closed-form")
    assert code == 0 and "engine: closed-form" in out


@pytest.mark.parametrize(
    "text, lines",
    [
        ("paw", ["graph: paw", "polynomial: [1,4,6,2]", "pretty: 1 + 4x + 6x^2 + 2x^3",
                 "mu: 3  r_mu: 2", "engine: pruned"]),
        ("empty: 3", ["graph: empty:3", "polynomial: [1,3]", "pretty: 1 + 3x", "mu: 1  r_mu: 3",
                      "engine: pruned"]),
        ("union:paw+empty:2", ["graph: union:paw+empty:2", "polynomial: [1,6,6,2]",
                               "pretty: 1 + 6x + 6x^2 + 2x^3", "mu: 3  r_mu: 2",
                               "engine: closed-form"]),
    ],
)
def test_poly_names_a_raw_class_as_given(capsys, text, lines):
    """Text output names paw, diamond and empty:N by their spec, alone or inside a union."""
    code, out, _ = run_cli(capsys, "poly", "--class", text)
    assert code == 0
    printed = out.splitlines()
    assert printed[:4] == lines[:4]
    assert printed[4].startswith(lines[4] + "  time: ")
    assert len(printed) == 5


def test_join_names_a_raw_operand_as_given(capsys):
    code, out, _ = run_cli(capsys, "poly", "--class", "join:paw*empty:2")
    assert code == 0
    assert out.splitlines()[:2] == ["graph: join:paw*empty:2", "polynomial: [1,6,15,20,15,4]"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("join:paw", "join takes exactly two nonempty operands, A*B, got 'join:paw'"),
        ("join:paw*cycle:6*path:2",
         "join takes exactly two nonempty operands, A*B, got 'join:paw*cycle:6*path:2'"),
        ("join:*cycle:6", "join takes exactly two nonempty operands, A*B, got 'join:*cycle:6'"),
    ],
)
def test_join_without_two_operands_exits_2(capsys, text, message):
    for argv in (("poly", "--class", text), ("stats", "--class", text), ("verify", "--spec", text)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, walks",
    [
        ("join:cycle:3*complete:2", False),  # C_3 is K_3: no operand is walked
        ("join:empty:0*complete:3", False),
        ("join:paw*complete:2", True),
        ("join:empty:0*cycle:5", True),
        ("union:join:paw*complete:2+path:3", True),
        ("join:union:complete:2*complete:3", False),
        ("join:union:path:2+path:3*cycle:6", True),
    ],
)
def test_a_join_names_the_walk_only_when_an_operand_is_walked(capsys, monkeypatch, text, walks):
    """``walk`` is exact: it is named just when the closed form reaches the counting walk."""
    calls = []
    count_sets = enumeration._count_sets
    monkeypatch.setattr(enumeration, "_count_sets",
                        lambda *args, **kwargs: calls.append(args) or count_sets(*args, **kwargs))
    code, out, _ = run_cli(capsys, "poly", "--class", text, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["engine"] == "closed-form"
    assert payload["walk"] == (("python" if native.load() is None else "native") if walks else None)
    assert bool(calls) == walks


@pytest.mark.parametrize(
    "text, order, edges",
    [("complete:2000", 2000, 1999000), ("join:complete:2000*cycle:6", 2006, 1999000 + 6 + 12000)],
)
def test_poly_class_builds_no_graph_for_a_closed_form(capsys, monkeypatch, text, order, edges):
    def refuse(n):
        raise AssertionError(f"complete_graph({n}) was built")

    row = classes._FAMILIES[Complete]
    monkeypatch.setitem(classes._FAMILIES, Complete, row[:1] + (refuse,) + row[2:])
    code, out, _ = run_cli(capsys, "poly", "--class", text, "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["order"], payload["edges"], payload["engine"]) == (order, edges, "closed-form")
    assert payload["polynomial"].startswith(f"[1,{order},")
    with pytest.raises(AssertionError, match="was built"):
        run_cli(capsys, "poly", "--class", "complete:3", "--engine", "pruned")


BRUTE_REFUSAL = ("brute force over 2^{} subsets refused (limit 25 vertices); "
                 "use polynomial_pruned or a closed form")
PRUNED_REFUSAL = "enumeration is limited to 64 vertices, got {}; use a closed form"


@pytest.mark.parametrize(
    "engine, text, message",
    [("bruteforce", "complete:26", BRUTE_REFUSAL.format(26)),
     ("bruteforce", "star:25", BRUTE_REFUSAL.format(26)),
     ("bruteforce", "join:complete:3000*cycle:6", BRUTE_REFUSAL.format(3006)),
     ("pruned", "complete:65", PRUNED_REFUSAL.format(65)),
     ("pruned", "star:64", PRUNED_REFUSAL.format(65)),
     ("pruned", "complete:3000", PRUNED_REFUSAL.format(3000)),
     ("pruned", "union:complete:3000+path:2", PRUNED_REFUSAL.format(3002))],
)
def test_poly_engine_refuses_from_the_order_before_building(capsys, monkeypatch, engine, text,
                                                            message):
    """An enumeration engine's guardrail refuses from the spec's order, before any build,
    with the message and exit code that the engine gives a built graph. The library's
    counts take the spec itself and refuse it the same way; a star's order is one more
    than its field ``n``. ``stats`` walks as the pruned engine does, and ``verify`` meets
    the pruned guardrail first, then brute force's, so each refuses with that engine's
    message too."""
    from visipoly import complete_graph

    count, refusal, least = ((enumeration.polynomial_bruteforce, BRUTE_REFUSAL, 26)
                             if engine == "bruteforce" else
                             (enumeration.polynomial_pruned, PRUNED_REFUSAL, 65))
    with pytest.raises(enumeration.GuardrailError) as raised:
        count(complete_graph(least))
    assert str(raised.value) == refusal.format(least)

    def refuse(*args):
        raise AssertionError(f"a family graph of {args} was built")

    for family, row in list(classes._FAMILIES.items()):
        monkeypatch.setitem(classes._FAMILIES, family, row[:1] + (refuse,) + row[2:])
    entries = ((enumeration.polynomial_bruteforce,) if engine == "bruteforce" else
               (enumeration.polynomial_pruned, enumeration.count_by_size_and_diameter,
                compute_stats))
    for entry in entries:
        with pytest.raises(enumeration.GuardrailError) as raised:
            entry(classes.parse_class_spec(text))
        assert str(raised.value) == message
    code, out, err = run_cli(capsys, "poly", "--class", text, "--engine", engine)
    assert (code, out, err) == (4, "", f"error: {message}\n")
    if engine == "pruned":
        assert run_cli(capsys, "stats", "--class", text) == (4, "", f"error: {message}\n")
    order = classes.spec_size(classes.parse_class_spec(text))[0]
    refusal = PRUNED_REFUSAL if order > 64 else BRUTE_REFUSAL
    assert run_cli(capsys, "verify", "--spec", text) == (4, "", f"error: {refusal.format(order)}\n")


def test_run_verify_refuses_from_the_orders_before_building_or_counting(monkeypatch):
    """``run_verify`` meets each spec's order with the pruned guardrail, then brute force's,
    before it builds or counts any spec; it reads an iterator of specs whole."""
    results = verify.run_verify(iter([classes.Path(3), Complete(3)]))
    assert [(result.label, result.passed) for result in results] == [("path:3", True),
                                                                      ("complete:3", True)]

    def refuse(n):
        raise AssertionError(f"complete_graph({n}) was built")

    row = classes._FAMILIES[Complete]
    monkeypatch.setitem(classes._FAMILIES, Complete, row[:1] + (refuse,) + row[2:])
    calls = []
    monkeypatch.setattr(enumeration, "_count_sets", lambda *args: calls.append(args))
    for specs, message in (([Complete(3000)], PRUNED_REFUSAL.format(3000)),
                           ([classes.Path(3), Complete(30)], BRUTE_REFUSAL.format(30))):
        with pytest.raises(enumeration.GuardrailError) as raised:
            verify.run_verify(specs)
        assert str(raised.value) == message
    assert calls == []


@pytest.mark.parametrize("text, order",
                         [("join:cycle:100*path:1", 100), ("join:complete:3*cycle:100", 100),
                          ("join:cycle:100*cycle:200", 100), ("join:empty:0*cycle:70", 70)])
def test_join_law_refuses_an_operand_before_any_binomial(capsys, monkeypatch, text, order):
    """A join's non-complete operand meets the walk's guardrail, the left one first, before
    the law computes a binomial; the recorder is unset again after the refusal."""
    monkeypatch.setattr(closed_forms, "comb", lambda *args: pytest.fail("computed a binomial"))
    message = f"error: {PRUNED_REFUSAL.format(order)}\n"
    assert run_cli(capsys, "poly", "--class", text) == (4, "", message)
    assert enumeration._recorder is None


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


def test_verify_reports_a_mismatch_and_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(verify, "poly_for_class", lambda spec: Polynomial((1, 6, 15)))
    code, out, _ = run_cli(capsys, "verify", "--spec", "cycle:6")
    assert code == 3
    assert out == ("FAIL cycle:6: [1,6,15] (pruned [1,6,15,14], brute [1,6,15,14])\n"
                   "0/1 instances passed\n")


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


@pytest.mark.parametrize("name, message", [("missing/report.json", "No such file or directory"),
                                           (".", "Is a directory")])
def test_batch_json_to_an_unwritable_path_fails_before_counting(
    capsys, monkeypatch, tmp_path, name, message
):
    monkeypatch.setattr(cli, "run_batch_file", lambda *args, **kwargs: pytest.fail("counted"))
    code, out, err = run_cli(capsys, "batch", "--input", str(corpus_path(4)),
                             "--json", str(tmp_path / name))
    assert code == 2
    assert out == ""
    assert message in err


def test_failed_batch_leaves_the_report_as_it_was(capsys, tmp_path):
    """A batch that fails keeps OUT; one that succeeds gives it the mode ``open(OUT, "w")`` would."""
    bad = tmp_path / "bad.g6"
    bad.write_text("C~\nnot graph6\n")
    report = tmp_path / "report.json"
    report.write_bytes(b"an earlier report\n")
    report.chmod(0o640)
    for path in (report, tmp_path / "new.json"):
        code, _, err = run_cli(capsys, "batch", "--input", str(bad), "--json", str(path))
        assert code == 2 and "line 2" in err
    assert report.read_bytes() == b"an earlier report\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.g6", "report.json"]
    fresh = tmp_path / "fresh.json"
    for path in (report, fresh):
        assert run_cli(capsys, "batch", "--input", str(corpus_path(4)), "--workers", "1",
                       "--json", str(path))[0] == 0
    assert report.read_bytes() == fresh.read_bytes()
    assert json.loads(fresh.read_text())["reports"][0]["total_graphs"] == 6
    umask = os.umask(0)
    os.umask(umask)
    assert (report.stat().st_mode & 0o777, fresh.stat().st_mode & 0o777) == (0o640, 0o666 & ~umask)


def test_batch_json_writes_a_read_only_report_only_where_open_could(capsys, monkeypatch, tmp_path):
    """A read-only OUT fails before counting; where open() may write it anyway (as root),
    it is written in place, keeping its inode and mode."""
    report = tmp_path / "report.json"
    report.write_bytes(b"an earlier report\n")
    report.chmod(0o444)
    inode = report.stat().st_ino
    writable = os.access(report, os.W_OK)
    if not writable:
        monkeypatch.setattr(cli, "run_batch_file", lambda *args, **kwargs: pytest.fail("counted"))
    code, out, _ = run_cli(capsys, "batch", "--input", str(corpus_path(4)), "--workers", "1",
                           "--json", str(report))
    if writable:
        assert code == 0
        assert json.loads(report.read_text())["reports"][0]["total_graphs"] == 6
    else:
        assert (code, out, report.read_bytes()) == (2, "", b"an earlier report\n")
    assert (report.stat().st_ino, report.stat().st_mode & 0o777) == (inode, 0o444)


def test_batch_json_to_a_fifo_opens_it_once(capsys, tmp_path):
    """A FIFO OUT is opened once, after counting, so its reader gets the whole report."""
    import threading

    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    reads = []

    def read():
        while not reads or not reads[-1]:
            with open(fifo, encoding="ascii") as handle:
                reads.append(handle.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    code, _, _ = run_cli(capsys, "batch", "--input", str(corpus_path(4)), "--workers", "1",
                         "--json", str(fifo))
    reader.join(timeout=30)
    assert code == 0
    assert len(reads) == 1
    assert json.loads(reads[0])["reports"][0]["total_graphs"] == 6
    assert fifo.is_fifo()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_batch_refuses_fewer_than_one_worker(capsys, workers):
    code, out, err = run_cli(capsys, "batch", "--input", str(corpus_path(4)), "--workers", workers)
    assert code == 2
    assert out == ""
    assert err == f"error: worker count must be at least 1, got {workers}\n"


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
    code, out, _ = run_cli(capsys, "verify", "--spec", "join:paw*cycle:6")
    assert code == 0
    assert out == ("PASS join:paw*cycle:6: [1,10,45,120,210,252,207,102,30,2]\n"
                   "1/1 instances passed\n")


def test_join_check_reports_a_mismatch_and_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(verify, "poly_for_class", lambda spec: Polynomial((1,)))
    code, out, _ = run_cli(capsys, "verify", "--spec", "join:paw*cycle:6")
    assert code == 3
    enumerated = "[1,10,45,120,210,252,207,102,30,2]"
    assert out == (f"FAIL join:paw*cycle:6: [1] (pruned {enumerated}, brute {enumerated})\n"
                   "0/1 instances passed\n")


def test_join_beyond_the_guardrail(capsys):
    # 70 vertices: the law walks only the cycle, while verify enumerates the join
    code, out, _ = run_cli(capsys, "poly", "--class", "join:complete:10*cycle:60")
    assert code == 0
    assert "polynomial: [1,70," in out
    code, out, err = run_cli(capsys, "verify", "--spec", "join:complete:10*cycle:60")
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
