from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import visipoly._native as native
import visipoly.batch as batch
from visipoly import (
    FormatError,
    GuardrailError,
    cycle_graph,
    diamond_graph,
    empty_graph,
    encode_graph6,
    load_graph6_file,
    parse_graph6,
    path_graph,
    polynomial_pruned,
    run_batch,
    run_batch_file,
)
from visipoly.batch import CHUNK_RECORDS, effective_workers
from visipoly.cli import _load_graph, main

from conftest import GOLDEN, corpus_path, pin_python_walk
from oracles import are_isomorphic


def record_pools(monkeypatch):
    """The worker counts of the pools run_batch starts from now on."""
    started = []
    real_pool = multiprocessing.Pool

    def pool(*args, **kwargs):
        started.append(kwargs["processes"])
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", pool)
    return started


def force_pool(monkeypatch):
    """Let no chunk run in-process when there is more than one worker."""
    monkeypatch.setattr(batch, "SERIAL_SLICE_S", 0)


def report_tuple(report):
    return (
        report.order,
        report.total_graphs,
        report.group_count,
        report.max_group_size,
        tuple(report.max_group_polynomials),
    )


def test_order4_grouping():
    report = run_batch_file(corpus_path(4), workers=1)[0]
    assert report.order == 4
    assert report.total_graphs == 6
    assert report.max_group_size == 2
    assert report.max_group_polynomials == ["[1,4,6,4]"]


def test_order4_modal_graphs_are_c4_and_diamond():
    from visipoly import load_graph6_file, polynomial_pruned

    modal = [
        g
        for g in load_graph6_file(corpus_path(4))
        if polynomial_pruned(g).to_canonical_string() == "[1,4,6,4]"
    ]
    assert len(modal) == 2
    assert sum(1 for g in modal if are_isomorphic(g, cycle_graph(4))) == 1
    assert sum(1 for g in modal if are_isomorphic(g, diamond_graph())) == 1


def test_grouping_independent_of_order_and_workers(monkeypatch):
    lines = [l for l in corpus_path(5).read_text().splitlines() if l.strip()]
    shuffled = lines[:]
    random.Random(5).shuffle(shuffled)
    started = record_pools(monkeypatch)
    base = report_tuple(run_batch(lines, workers=1)[0])
    assert report_tuple(run_batch(shuffled, workers=1)[0]) == base
    assert report_tuple(run_batch(shuffled, workers=2)[0]) == base
    assert started == []  # 21 records finish inside the slice
    force_pool(monkeypatch)
    assert report_tuple(run_batch(shuffled, workers=2)[0]) == base
    assert started == [2]


def test_mixed_orders_reported_separately():
    lines = corpus_path(3).read_text().splitlines() + corpus_path(4).read_text().splitlines()
    reports = run_batch(lines, workers=1)
    assert [r.order for r in reports] == [3, 4]
    assert [r.total_graphs for r in reports] == [2, 6]


def test_histogram_sums_to_total():
    report = run_batch_file(corpus_path(5), workers=1, keep_histogram=True)[0]
    assert sum(report.histogram.values()) == report.total_graphs
    assert max(report.histogram.values()) == report.max_group_size
    assert report.group_count == len(report.histogram)


def test_malformed_record_aborts_with_line_number():
    with pytest.raises(FormatError, match="line 2"):
        run_batch(["A_", "A=", "B?"], workers=1)


def test_every_reader_keeps_the_byte_offset_with_the_line(monkeypatch, tmp_path):
    """A record's FormatError gains its line and keeps its byte offset and its text.

    The readers are load_graph6_file, the CLI's --input reader and run_batch,
    in this process and on a pool, whose workers pickle the refusal.
    """
    two = tmp_path / "two.g6"
    two.write_text("A_\nA=\n")
    one = tmp_path / "one.g6"
    one.write_text("\nA=\n")
    args = argparse.Namespace(format=None, g6=None, class_spec=None, input=str(one))
    readers = [lambda: load_graph6_file(two), lambda: _load_graph(args),
               lambda: run_batch(["A_", "A="], workers=1), lambda: run_batch(["A_", "A="], workers=2)]
    started = record_pools(monkeypatch)
    force_pool(monkeypatch)
    for reader in readers:
        with pytest.raises(FormatError) as raised:
            reader()
        error = raised.value
        assert str(error) == "line 2: byte 61 outside graph6 range 63..126 (byte offset 1)"
        assert (error.line, error.offset) == (2, 1)
    assert started == [2]


def test_skip_bad_keeps_going():
    reports = run_batch(["A_", "A=", "Bw"], workers=1, skip_bad=True)
    assert sum(r.total_graphs for r in reports) == 2


def test_worker_pool_error_handling(monkeypatch):
    started = record_pools(monkeypatch)
    force_pool(monkeypatch)
    with pytest.raises(FormatError, match="line 2"):
        run_batch(["A_", "A=", "Bw"], workers=2)
    reports = run_batch(["A_", "A=", "Bw"], workers=2, skip_bad=True)
    assert sum(r.total_graphs for r in reports) == 2
    assert started == [2, 2]


def test_header_line_is_tolerated():
    reports = run_batch([">>graph6<<A_"], workers=1)
    assert reports[0].order == 2


def test_json_dict_shape():
    report = run_batch_file(corpus_path(4), workers=1, keep_histogram=True)[0]
    payload = report.to_json_dict()
    assert payload["order"] == 4
    assert payload["max_group_polynomials"] == ["[1,4,6,4]"]
    assert ["[1,4,6,4]", 2] in payload["histogram"]


def test_default_workers_count_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert effective_workers() == 1
    assert effective_workers(3) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert effective_workers() == 8


TOO_LARGE = encode_graph6(path_graph(65))


@pytest.mark.parametrize(
    "lines, error, code",
    [
        (["A_", "A=", TOO_LARGE], FormatError, 2),
        (["A_", TOO_LARGE, "A="], GuardrailError, 4),
    ],
)
def test_first_bad_record_decides_the_error_for_every_worker_count(
    monkeypatch, capsys, tmp_path, lines, error, code
):
    path = tmp_path / "bad.g6"
    path.write_text("\n".join(lines) + "\n")
    started = record_pools(monkeypatch)
    outcomes = []
    for workers, forced in ((1, False), (2, False), (2, True)):
        if forced:
            force_pool(monkeypatch)
        with pytest.raises(error) as raised:
            run_batch(lines, workers=workers)
        assert main(["batch", "--input", str(path), "--workers", str(workers)]) == code
        outcomes.append((str(raised.value), capsys.readouterr().err))
    assert started == [2, 2]
    assert outcomes[0][0].startswith("line 2: ")
    assert outcomes[0][1] == f"error: {outcomes[0][0]}\n"
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


def test_skip_bad_skips_no_guardrail_refusal():
    with pytest.raises(GuardrailError, match="^line 2: enumeration is limited to 64"):
        run_batch(["A_", TOO_LARGE, "A="], workers=1, skip_bad=True)


def test_input_is_read_one_chunk_at_a_time(monkeypatch):
    def lines(pulled):
        for i in range(40 * CHUNK_RECORDS):
            pulled.append(i)
            yield "A=" if i == 1 else "A_"

    pulled = []
    with pytest.raises(FormatError, match="line 2"):
        run_batch(lines(pulled), workers=1)
    assert len(pulled) <= CHUNK_RECORDS
    force_pool(monkeypatch)
    pulled = []
    with pytest.raises(FormatError, match="line 2"):
        run_batch(lines(pulled), workers=2)
    assert len(pulled) <= (batch.POOL_CHUNKS_PER_WORKER * 2 + 1) * CHUNK_RECORDS


def golden_histograms():
    histograms = {}
    for line in GOLDEN.read_text("ascii").splitlines():
        record, poly, _ = line.split(" ")
        histograms.setdefault(parse_graph6(record).n, Counter())[poly] += 1
    return histograms


@pytest.mark.parametrize("path", ["serial", "pool", "slice then pool", "python walk"])
def test_run_batch_reproduces_golden_file(monkeypatch, path):
    records = [line.split(" ", 1)[0] for line in GOLDEN.read_text("ascii").splitlines()]
    started = record_pools(monkeypatch)
    if path == "pool":
        force_pool(monkeypatch)
    if path == "slice then pool":
        # A clock that ticks once a read: the first chunk runs in-process, the rest pooled.
        ticks = iter(range(10**6))
        monkeypatch.setattr(batch, "perf_counter", lambda: next(ticks))
        monkeypatch.setattr(batch, "SERIAL_SLICE_S", 1.5)
    if path == "python walk":
        pin_python_walk(monkeypatch)
    pooled = path in ("pool", "slice then pool")
    reports = run_batch(records, workers=2 if pooled else 1, keep_histogram=True)
    assert {r.order: r.histogram for r in reports} == golden_histograms()
    assert sum(r.total_graphs for r in reports) == 996
    assert started == ([2] if pooled else [])


@pytest.mark.parametrize("min_record_s, pooled", [(None, False), (0, True)])
def test_pool_starts_past_the_slice_only_for_costly_records(monkeypatch, min_record_s, pooled):
    """Past the slice, a pool starts only once the records so far took POOL_MIN_RECORD_S each.

    The clock gains, at each read, a quarter of that cost for each record of a
    chunk: the slice ends at the second chunk, and the corpus records stay in
    this process; with the constant at 0 the rest of them are pooled.
    """
    step = batch.POOL_MIN_RECORD_S * CHUNK_RECORDS / 4
    ticks = itertools.count(0, step)
    monkeypatch.setattr(batch, "perf_counter", lambda: next(ticks))
    monkeypatch.setattr(batch, "SERIAL_SLICE_S", 1.5 * step)
    if min_record_s is not None:
        monkeypatch.setattr(batch, "POOL_MIN_RECORD_S", min_record_s)
    started = record_pools(monkeypatch)
    records = [line.split(" ", 1)[0] for line in GOLDEN.read_text("ascii").splitlines()]
    reports = run_batch(records, workers=2, keep_histogram=True)
    assert {r.order: r.histogram for r in reports} == golden_histograms()
    assert started == ([2] if pooled else [])


@pytest.mark.parametrize("walk", ["native", "python"])
def test_non_ascii_record_is_refused_on_every_walk(monkeypatch, walk):
    """The native decoder declines a non-ASCII record: "Aé" must not pass as "A?".

    "A\udce9" is how ``run_batch_file`` reads the byte 0xE9.
    """
    if walk == "python":
        pin_python_walk(monkeypatch)
    for bad in ("Aé", "A\udce9"):
        with pytest.raises(FormatError, match="^line 2: graph6 record contains non-ASCII characters$"):
            run_batch(["A_", bad], workers=1)
    reports = run_batch(["A_", "Aé", "A?"], workers=1, skip_bad=True, keep_histogram=True)
    assert [(r.order, r.histogram) for r in reports] == [(2, {"[1,2]": 1, "[1,2,1]": 1})]


@pytest.mark.parametrize("pooled", [False, True])
def test_long_form_records_take_the_fallback_in_a_mixed_chunk(monkeypatch, pooled):
    """One chunk of short-form records, long-form ones of orders 63 and 64, and one of order 65.

    The native decoder reads only short-form records, so the long-form ones
    are parsed and counted by the fallback, and the order-65 one still meets
    the guardrail with its line number.
    """
    long_form = [path_graph(63), empty_graph(64)]  # cheap for the plain walk too
    lines = corpus_path(4).read_text("ascii").split() + [encode_graph6(g) for g in long_form]
    lines += corpus_path(5).read_text("ascii").split()
    assert len(lines) + 1 < CHUNK_RECORDS
    walk = native.load()
    if walk is not None:
        records = [encode_graph6(g).encode("ascii") for g in long_form]
        assert walk.graph6(b"\n".join(records)) == ["", ""]
    started = record_pools(monkeypatch)
    if pooled:
        force_pool(monkeypatch)
    workers = 2 if pooled else 1
    reports = run_batch(lines, workers=workers, keep_histogram=True)
    expected = {4: golden_histograms()[4], 5: golden_histograms()[5], 63: Counter(), 64: Counter()}
    for g in long_form:
        expected[g.n][polynomial_pruned(g).to_canonical_string()] += 1
    assert {r.order: r.histogram for r in reports} == expected
    at = len(corpus_path(4).read_text("ascii").split()) + len(long_form) + 1
    with pytest.raises(GuardrailError, match=f"^line {at}: enumeration is limited to 64"):
        run_batch(lines[:at - 1] + [TOO_LARGE] + lines[at - 1:], workers=workers)
    assert started == ([2, 2] if pooled else [])


MIXED_CHUNK = ["A_", "", ">>graph6<<", ">>graph6<<Bw", "~??C~", "A=", "Bww", "C", "  C~  ",
               TOO_LARGE, "Bé", "B?"]


@pytest.mark.parametrize("walk", ["native", "python"])
def test_mixed_chunk_keeps_each_refusals_line_and_error(monkeypatch, walk):
    """One chunk of short-form, long-form, bad-byte, wrong-length, non-ASCII, header and blank lines.

    The native decoder declines all but the short-form records; the fallback
    reads the rest by ``iter_graph6_lines``'s rule, so blank and header-only
    lines count nothing, and each refusal keeps its line and its error. A
    list item that holds a line break of its own sends its whole chunk to the
    fallback, which refuses it by its line; it shifts no other key.
    """
    if walk == "python":
        pin_python_walk(monkeypatch)
    keys, refusals = batch._analyse_chunk((1, MIXED_CHUNK))
    assert keys == ["[1,2,1]", "[1,3,3,1]", "[1,4,6,4,1]", "[1,4,6,4,1]", "[1,3]"]
    assert [(line, type(exc), str(exc), getattr(exc, "offset", None)) for line, exc in refusals] == [
        (6, FormatError, "byte 61 outside graph6 range 63..126 (byte offset 1)", 1),
        (7, FormatError, "trailing bytes after adjacency section (byte offset 2)", 2),
        (8, FormatError, "truncated adjacency section: expected 1 bytes, got 0", None),
        (10, GuardrailError, "enumeration is limited to 64 vertices, got 65; use a closed form", None),
        (11, FormatError, "graph6 record contains non-ASCII characters", None),
    ]
    with pytest.raises(FormatError, match="^line 6: byte 61 outside"):
        run_batch(MIXED_CHUNK, workers=1)
    with pytest.raises(GuardrailError, match="^line 10: enumeration is limited to 64"):
        run_batch(MIXED_CHUNK, workers=1, skip_bad=True)
    split = ["A_", "A_\nB?", "B?"]
    keys, refusals = batch._analyse_chunk((1, split))
    assert keys == ["[1,2,1]", "[1,3]"]
    assert [(line, str(exc), exc.offset) for line, exc in refusals] == [
        (2, "byte 10 outside graph6 range 63..126 (byte offset 2)", 2)]
    with pytest.raises(FormatError, match="^line 2: byte 10 outside graph6 range"):
        run_batch(split, workers=1)
    reports = run_batch(split, workers=1, skip_bad=True, keep_histogram=True)
    assert [(r.order, r.histogram) for r in reports] == [(2, {"[1,2,1]": 1}), (3, {"[1,3]": 1})]


@pytest.mark.parametrize("pooled", [False, True])
def test_one_graph_by_both_paths_groups_once(monkeypatch, pooled):
    """K_4 as the short-form record C~, which the native decoder counts, and as the
    long-form record ~??C~, which the fallback parses: one key, so one group of two."""
    assert parse_graph6("~??C~") == parse_graph6("C~")
    if pooled:
        force_pool(monkeypatch)
    started = record_pools(monkeypatch)
    reports = run_batch(["C~", "~??C~"], workers=2 if pooled else 1, keep_histogram=True)
    assert [(r.order, r.group_count, r.max_group_size, r.max_group_polynomials, r.histogram)
            for r in reports] == [(4, 1, 2, ["[1,4,6,4,1]"], {"[1,4,6,4,1]": 2})]
    assert started == ([2] if pooled else [])


SPAWNED_BATCH = """
import json, multiprocessing, sys
import visipoly._native as native
import visipoly.batch as batch
multiprocessing.set_start_method("spawn")
batch.SERIAL_SLICE_S = 0
reports = batch.run_batch(sys.stdin.read().split(), workers=2, keep_histogram=True)
assert native.load.cache_info().currsize == 0, "this process loaded the walk"
print(json.dumps([report.to_json_dict() for report in reports]))
"""


def test_spawned_workers_load_the_walk_themselves():
    """Spawned workers inherit no loaded walk, so each one loads its own.

    ``spawn`` is macOS's default start method, and Linux moves to
    ``forkserver`` in Python 3.14. The start method is process-wide, so the
    pooled batch runs in a child process, with no chunk counted in-process.
    """
    lines = [line for n in (5, 6, 7) for line in corpus_path(n).read_text("ascii").split()]
    env = {**os.environ, "PYTHONPATH": str(native.SOURCE.parent.parent)}
    child = subprocess.run([sys.executable, "-c", SPAWNED_BATCH], input="\n".join(lines), env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    serial = run_batch(lines, workers=1, keep_histogram=True)
    assert json.loads(child.stdout) == [report.to_json_dict() for report in serial]
