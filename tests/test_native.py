"""The native counting walk of _walk.c against brute force, the plain walk and the closed forms.

The native walk must give the polynomials and (size, diameter) tables of
brute force (up to 25 vertices) or of the plain walk of ``iter_mv_sets``
(above), and fixed walk counters on fixed graphs; the package must give the
same results when the native walk cannot be built. Tests that need the
native walk skip only when no C compiler is found.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import visipoly._native as native
from visipoly import (
    Graph,
    Polynomial,
    complete_graph,
    components,
    compute_stats,
    count_by_size_and_diameter,
    cycle_graph,
    delete_edge,
    disjoint_union,
    empty_graph,
    encode_graph6,
    iter_mv_sets,
    parse_graph6,
    path_graph,
    poly_complete,
    poly_cycle,
    poly_path,
    polynomial_pruned,
)
from visipoly.cli import main
from visipoly.enumeration import BRUTEFORCE_MAX_VERTICES, _bruteforce_counts, _count_sets
from visipoly.errors import FormatError

from conftest import GOLDEN, corpus_path, pin_python_walk
from oracles import (
    cycle_chain,
    glued_blocks,
    golden_line,
    oracle_golden_line,
    random_graph,
    random_tree,
    relabel,
)


@pytest.fixture
def native_walk():
    if native._compiler() is None:
        pytest.skip("no C compiler found")
    walk = native.load()
    assert walk is not None, "a C compiler was found but the native walk did not build"
    return walk


def golden_records():
    lines = GOLDEN.read_text("ascii").splitlines()
    return [line.split(" ", 1)[0] for line in lines]


def engine_golden_text(records):
    lines = []
    for record in records:
        g = parse_graph6(record)
        lines.append(golden_line(record, polynomial_pruned(g), count_by_size_and_diameter(g)))
    return "\n".join(lines) + "\n"


def test_golden_file_covers_the_corpus():
    records = []
    for order in range(1, 8):
        records += corpus_path(order).read_text("ascii").split()
    assert golden_records() == records
    assert len(records) == 996


def test_native_walk_reproduces_golden_file(native_walk):
    assert engine_golden_text(golden_records()) == GOLDEN.read_text("ascii")


def test_python_walk_reproduces_golden_file(monkeypatch):
    pin_python_walk(monkeypatch)
    assert engine_golden_text(golden_records()) == GOLDEN.read_text("ascii")


def test_golden_file_matches_oracle_sample():
    """All of orders 1..6 and every 10th record of order 7, so the file cannot drift."""
    lines = GOLDEN.read_text("ascii").splitlines()
    order7 = [line for line in lines if parse_graph6(line.split(" ", 1)[0]).n == 7]
    sample = [line for line in lines if line not in order7] + order7[::10]
    assert len(sample) == 143 + 86
    for line in sample:
        record = line.split(" ", 1)[0]
        assert line == oracle_golden_line(record, parse_graph6(record))


def benchmark_graphs(seed):
    """The six graphs of the single-graph benchmark, relabelled by seed."""
    rows, cols = 4, 5
    grid = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    grid += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    cube = [(u, u | 1 << b) for u in range(16) for b in range(4) if not u >> b & 1]
    rng = random.Random(1)
    gnp = [(u, v) for u in range(16) for v in range(u + 1, 16) if rng.random() < 0.5]
    graphs = [
        Graph.from_edges(rows * cols, grid),
        Graph.from_edges(16, cube),
        Graph.from_edges(16, gnp),
        cycle_graph(40),
        path_graph(64),
        complete_graph(16),
    ]
    rng = random.Random(seed)
    return [relabel(rng, g) for g in graphs]


# (nodes, closed, propagations, blocks, hidden) of the native walk on P_64,
# three copies of C_5 and benchmark_graphs(211), for either sink.
FIXED_COUNTERS = [
    (2036, 1, 118, 8, 41544), (16, 3, 15, 9, 0),
    (1438, 207, 14799, 944, 1171), (530, 48, 6292, 380, 0), (584, 48, 6272, 428, 116),
    (1997, 99, 1900, 380, 15141), (2036, 1, 118, 8, 41544), (1, 1, 15, 0, 0),
]


def by_size(table, n):
    """The counts by size, entries 0..n, of a (size, diameter) table."""
    counts = [0] * (n + 1)
    for (k, _), c in table.items():
        counts[k] += c
    return counts


def reference_counts(g):
    """Counts by size and by (size, diameter): brute force, or the plain walk past 25 vertices."""
    if g.n <= BRUTEFORCE_MAX_VERTICES:
        return _bruteforce_counts(g, False), _bruteforce_counts(g, True)
    table = dict(Counter((len(members), diam) for members, diam in iter_mv_sets(g)))
    return by_size(table, g.n), table


def test_walks_agree_on_counts_and_counters(native_walk):
    rng = random.Random(20261018)
    graphs = [empty_graph(0), empty_graph(1), path_graph(64), disjoint_union([cycle_graph(5)] * 3)]
    graphs += [
        random_graph(rng, rng.randint(2, 14), rng.choice((0.1, 0.2, 0.3, 0.5, 0.7, 0.9)))
        for _ in range(520)
    ]
    graphs += benchmark_graphs(211)
    assert sum(len(components(g)) > 1 for g in graphs) >= 50
    assert sum(g.n > BRUTEFORCE_MAX_VERTICES for g in graphs) == 3
    for g in graphs:
        expected = reference_counts(g)
        if g.n > BRUTEFORCE_MAX_VERTICES:  # P_64, C_40 and P_64: the plain walk's closed forms
            closed_form = {g.n - 1: poly_path, g.n: poly_cycle}[g.edge_count](g.n)
            assert Polynomial((1, *expected[0][1:])) == closed_form, g
        for theta in (False, True):
            counters = {}
            counts = native_walk(g.adj, theta, counters)
            assert counts == expected[theta], (g, theta)
            assert set(counters) == {"nodes", "closed", "propagations", "blocks", "hidden"}
            assert counters["nodes"] >= 1
    for g, expected in zip(graphs[2:4] + graphs[-6:], FIXED_COUNTERS):
        for theta in (False, True):
            counters = {}
            native_walk(g.adj, theta, counters)
            assert tuple(counters[name] for name in native.COUNTER_NAMES) == expected


def test_native_walk_equals_bruteforce_on_16_to_25_vertices(native_walk):
    """Leaf blocks deep in larger trees, both sinks, against brute force (about 5 s)."""
    rng = random.Random(20261019)
    densities = (0.15, 0.3, 0.5, 0.7, 0.9)
    graphs = [random_graph(rng, n, densities[n % 5]) for n in range(16, 26)]
    graphs += [random_graph(rng, n, densities[(n + 2) % 5]) for n in range(16, 22)]
    blocks = 0
    for g in graphs:
        table = _bruteforce_counts(g, True)
        counters = {}
        assert native_walk(g.adj, False, counters) == by_size(table, g.n), g
        assert native_walk(g.adj, True) == table, g
        blocks += counters["blocks"]
    assert blocks > 1000


def shadow_graphs():
    """Graphs where most failing candidates hide behind a member, with their reference tables.

    Random trees of up to 25 vertices and glued-block graphs (edges, cycles
    and cliques glued at cut vertices) of up to 22, some of two or three
    components, against brute force; three block graphs of 26 to 40
    vertices made of long cycles, against the plain walk; P_n and C_n for
    n <= 64, against the closed forms. The list is shuffled, so graphs above
    and below BLOCK_MAX alternate.
    """
    rng = random.Random(20261034)  # seeded so the large graphs hold about 45,000 sets
    large = [glued_blocks(rng, n, sizes)
             for n, sizes in ((26, (9, 13)), (32, (9, 16)), (40, (14, 20)))]
    small = [random_tree(rng, n) for n in range(1, 23)] + [random_tree(rng, 25)]
    small += [glued_blocks(rng, n) for n in range(2, 23)]
    small += [relabel(rng, disjoint_union([glued_blocks(rng, a), random_tree(rng, b)]))
              for a, b in ((3, 4), (6, 6), (9, 8), (12, 10))]
    small += [relabel(rng, disjoint_union([glued_blocks(rng, 7), glued_blocks(rng, 6),
                                           random_tree(rng, 8)]))]
    cases = []
    for g in small:
        table = _bruteforce_counts(g, True)
        cases.append((g, by_size(table, g.n), table))
    cases += [(g, *reference_counts(g)) for g in large]
    for n in range(1, 65):
        family = [(path_graph(n), poly_path(n))]
        if n > 2:
            family.append((cycle_graph(n), poly_cycle(n)))
        for g, poly in family:
            counts = [0] * (n + 1)
            counts[1:len(poly.coeffs)] = poly.coeffs[1:]
            cases.append((relabel(rng, g), counts, None))
    rng.shuffle(cases)
    return cases


def test_shadow_filter_keeps_the_counts(native_walk):
    """The cut and shadow filters drop only candidates that would fail, on both sinks.

    P_n and C_n are checked on their counts by size, the others on their
    full tables. The graphs of order at most 62 are also counted as graph6
    records in one call, which walks them all with one set of tables, so a
    shadow row, interval memo or leaf-block pattern left over from an
    earlier graph would prune a later one; the shuffle of shadow_graphs()
    makes graphs above and below BLOCK_MAX alternate. That call must give the
    counts and the summed counters of one call per graph.
    """
    cases = shadow_graphs()
    for theta in (False, True):
        counters = {}
        for g, counts, table in cases:
            got = native_walk(g.adj, theta, counters)
            if not theta:
                assert got == counts, g
            elif table is None:
                assert by_size(got, g.n) == counts, g
            else:
                assert got == table, g
        # Nearly every candidate that fails here is hidden before any propagation.
        assert counters["hidden"] > 5 * counters["propagations"]
    short = [g for g, _, _ in cases if g.n <= native.SHORT_MAX_ORDER]
    assert len(short) == len(cases) - 4  # P_63, P_64, C_63 and C_64
    one_counters, many_counters = {}, {}
    per_graph = [native_walk(g.adj, False, one_counters) for g in short]
    records = [encode_graph6(g).encode("ascii") for g in short]
    assert native_walk.graph6(records, many_counters) == per_graph
    assert many_counters == one_counters


@pytest.mark.parametrize(
    "g, propagations",
    [
        (complete_graph(6), 0),
        (cycle_graph(6), 3),
        (empty_graph(6), 0),
        (disjoint_union([complete_graph(3)] * 2), 0),
        (disjoint_union([complete_graph(1), path_graph(5)]), 0),
        (disjoint_union([complete_graph(1), complete_graph(1)]), 0),
        (cycle_graph(7), 0),
        (disjoint_union([complete_graph(1), path_graph(7)]), 0),
        (cycle_graph(8), 4),
        (complete_graph(9), 0),
        (cycle_graph(9), 0),
        (empty_graph(9), 0),
        (disjoint_union([complete_graph(3)] * 3), 0),
    ],
    ids=["K6", "C6", "empty6", "2K3", "K1+P5", "2K1", "C7", "K1+P7", "C8", "K9", "C9", "empty9",
         "3K3"],
)
def test_root_block(native_walk, g, propagations):
    """A graph of 2..9 vertices is one leaf block at the root.

    6 vertices fill one word; 7, 8 and 9 vertices fill 2, 4 and 8 words.
    The root's candidates are all n vertices, so the walk pops the root only.
    Pairs in different components, and pairs whose interval has a cut
    vertex, fail without a propagation; only the antipodal pairs of C_6 and
    C_8 need one each.
    """
    expected = reference_counts(g)
    for theta in (False, True):
        counters = {}
        assert native_walk(g.adj, theta, counters) == expected[theta], theta
        assert counters == {"nodes": 1, "closed": 0, "propagations": propagations, "blocks": 1,
                            "hidden": 0}


def test_walk_on_orders_0_1_and_64_and_the_golden_records(native_walk):
    """One call per graph: orders 0 and 1, the closed forms of order 64 and the golden file."""
    assert native_walk(empty_graph(0).adj, False) == [0]
    assert native_walk(empty_graph(0).adj, True) == {}
    assert native_walk(empty_graph(1).adj, False) == [0, 1]
    assert native_walk(empty_graph(1).adj, True) == {(1, 0): 1}
    order64 = [path_graph(64), complete_graph(64), cycle_graph(64), benchmark_graphs(5)[4]]
    closed_forms = [poly_path(64), poly_complete(64), poly_cycle(64), poly_path(64)]
    counters = {}
    for g, poly in zip(order64, closed_forms):
        counts = native_walk(g.adj, False, counters)
        assert Polynomial((1, *counts[1:])) == poly
        assert by_size(native_walk(g.adj, True), 64) == counts
    assert counters["blocks"] > 0  # C_64 and the two P_64
    lines = []
    for record in golden_records():
        adj = parse_graph6(record).adj
        counts = native_walk(adj, False)
        lines.append(golden_line(record, Polynomial((1, *counts[1:])), native_walk(adj, True)))
    assert "\n".join(lines) + "\n" == GOLDEN.read_text("ascii")


def graph6_inputs():
    """The corpus records, seeded short-form records of every order 0..62, and their mutations.

    A mutation sets one byte to 62, 63, 126 or 127, cuts one byte, adds one
    '?', or sets one padding bit. Above order 14 the graphs have about n / 3
    edges, so their components, and the walks, stay small.
    """
    rng = random.Random(20261020)
    records = [record.encode("ascii") for record in golden_records()]
    for n in range(63):
        p = rng.choice((0.2, 0.5, 0.8)) if n <= 14 else 0.7 / n
        records.append(encode_graph6(random_graph(rng, n, p)).encode("ascii"))
    mutated = set()
    for record in records:
        for pos in range(len(record) + 1):
            mutated.add(record[:pos] + b"?" + record[pos:])
            if pos < len(record):
                mutated.add(record[:pos] + record[pos + 1:])
                mutated.update(record[:pos] + bytes([byte]) + record[pos + 1:]
                               for byte in (62, 63, 126, 127))
        n = record[0] - 63
        for bit in range(-(n * (n - 1) // 2) % 6):
            mutated.add(record[:-1] + bytes([record[-1] | 1 << bit]))
    return records + sorted(mutated - set(records))


def test_graph6_entry_agrees_with_parse_graph6(native_walk):
    """The native decoder accepts a subset of what parse_graph6 accepts and counts the same graphs.

    A declined record must be malformed, or long-form: the native decoder
    reads only the one-byte order field of orders 0..62, while parse_graph6
    also reads a long-form record of a small order.
    """
    records = graph6_inputs()
    counted = native_walk.graph6(records)
    accepted, expected = [], []
    for record, counts in zip(records, counted):
        if counts is not None:
            accepted.append(parse_graph6(record))
            expected.append(counts)
            continue
        try:
            g = parse_graph6(record)
        except FormatError:
            continue
        assert g.n >= 63 or record[0] == 126, record
    assert all(counts is not None for counts in counted[:996 + 63])
    assert len(accepted) > 10000 and len(records) - len(accepted) > 30000
    assert [_count_sets(g, theta=False) for g in accepted] == expected


def poly_json(capsys, *argv):
    assert main(["poly", *argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_fallback_without_compiler_gives_identical_results(monkeypatch, capsys):
    graphs = benchmark_graphs(7)[:3] + [random_graph(random.Random(3), 12, 0.4)]
    built = [(polynomial_pruned(g), compute_stats(g)) for g in graphs]
    before = poly_json(capsys, "--g6", "Ch")

    monkeypatch.setattr(native, "_compiler", lambda: None)
    monkeypatch.setattr(native, "_walk", native._UNSET)
    assert native.load() is None
    assert [(polynomial_pruned(g), compute_stats(g)) for g in graphs] == built
    after = poly_json(capsys, "--g6", "Ch")
    assert after["walk"] == "python"
    assert {**after, "seconds": 0} == {**before, "walk": "python", "seconds": 0}


def test_unwritable_cache_falls_back(monkeypatch, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(native, "cache_dir", lambda: blocker / "visipoly")
    monkeypatch.setattr(native, "_walk", native._UNSET)
    assert native.load() is None
    assert polynomial_pruned(cycle_graph(7)).coeffs == (1, 7, 21, 14)


WARNINGS = ["-Wall", "-Wextra", "-Werror"]
UBSAN = ["-fsanitize=undefined", "-fno-sanitize-recover=all"]
ASAN_UBSAN = ["-fsanitize=address,undefined", "-fno-sanitize-recover=all"]

# Runs in a child process: count the graphs read from stdin with the library
# named by argv[1], one call per graph and sink, writing the counts by size and
# the (size, diameter) tables, then decode and count the graph6 records of the
# file argv[2], one a line, in one call.
SANITIZED_CHILD = """
import json, sys
from pathlib import Path
from visipoly._native import _bind
walk = _bind(Path(sys.argv[1]))
adjs = json.load(sys.stdin)
counts = [walk(adj, False) for adj in adjs]
tables = [sorted(walk(adj, True).items()) for adj in adjs]
records = Path(sys.argv[2]).read_bytes().split(b"\\n")
json.dump([counts, tables, walk.graph6(records)], sys.stdout)
"""


def sanitizer_build(build, tmp_path):
    """The sanitizer flags the compiler can link and the child's extra environment.

    ASan with UBSan when a probe links and the compiler names its runtime,
    which the child preloads, since the interpreter itself is not built with
    ASan; else UBSan alone; else None. Under ASan the child allocates with
    malloc, so the tables it hands the walk have bounds that ASan sees.
    """
    probe = tmp_path / "probe.c"
    probe.write_text("int probe(int x) { return x + 1; }\n")

    def links(flags):
        return not subprocess.run([*build, *flags, "-o", str(tmp_path / "probe.so"), str(probe)],
                                  capture_output=True, timeout=120).returncode

    runtime = subprocess.run([build[0], "-print-file-name=libasan.so"],
                             capture_output=True, text=True, timeout=120).stdout.strip()
    if os.path.isabs(runtime) and os.path.exists(runtime) and links(ASAN_UBSAN):
        return ASAN_UBSAN, {"LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0",
                            "PYTHONMALLOC": "malloc"}
    if links(UBSAN):
        return UBSAN, {}
    return None, {}


def test_walk_is_clean_under_ubsan_and_warnings(native_walk, tmp_path):
    """_walk.c with warnings as errors and ASan and UBSan on, reproducing the golden file.

    The build aborts at its first undefined behaviour, such as a shift by 64
    in a full-word leaf block, or its first out-of-bounds access to the stack
    or the heap, such as a write past the end of the caller's count table;
    ASan is left out when the compiler cannot link it. The benchmark graphs
    hold blocks of every width, and C_9 and K_9 - e are root blocks of 8
    words. K_12 - e closes one node of 10 candidates whose sets take two
    diameters, and G(24, .8) closes thousands, so the closure test and the
    level loop of count_closed_theta run too. P_64, a random tree of 40 vertices, a chain of five C_6 and a
    graph of glued blocks in three components build shadow tables and hide
    candidates with them. The walk counts each graph, orders 0, 1 and 64
    included, in its own call per sink. The graph6 entry decodes the golden
    records, which must give the golden polynomials, and the mutated records
    of graph6_inputs, so its byte reads of malformed records run under the
    sanitizer. It is loaded in a child process, so an abort fails this test
    alone. When the compiler cannot link UBSan, only the warnings are checked.
    """
    build = [native._compiler(), "-O2", "-shared", "-fPIC"]
    sanitize, child_env = sanitizer_build(build, tmp_path)
    library = tmp_path / "walk-sanitized.so"
    result = subprocess.run([*build, *WARNINGS, *(sanitize or []), "-o", str(library),
                             str(native.SOURCE)], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    if sanitize is None:
        pytest.skip("the compiler cannot link UBSan; the warnings build passed")

    records = golden_records()
    graphs = [parse_graph6(record) for record in records] + benchmark_graphs(211)
    graphs += [empty_graph(6), complete_graph(6), complete_graph(64), empty_graph(0), empty_graph(1),
               cycle_graph(9), delete_edge(complete_graph(9), 1, 8), delete_edge(complete_graph(12), 3, 7),
               random_graph(random.Random(24), 24, 0.8)]
    rng = random.Random(3)
    graphs += [path_graph(64), random_tree(rng, 40), relabel(rng, cycle_chain(5)),
               relabel(rng, disjoint_union([glued_blocks(rng, 12), glued_blocks(rng, 10),
                                            random_tree(rng, 8)]))]
    inputs = graph6_inputs()
    stored = tmp_path / "records"
    stored.write_bytes(b"\n".join(inputs))
    env = {**os.environ, "PYTHONPATH": str(native.SOURCE.parent.parent), **child_env}
    child = subprocess.run([sys.executable, "-c", SANITIZED_CHILD, str(library), str(stored)], env=env,
                           input=json.dumps([list(g.adj) for g in graphs]),
                           capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    counts, tables, decoded = json.loads(child.stdout)
    tables = [{tuple(key): c for key, c in table} for table in tables]
    lines = [golden_line(record, Polynomial((1, *c[1:])), table)
             for record, c, table in zip(records, counts, tables)]
    assert "\n".join(lines) + "\n" == GOLDEN.read_text("ascii")
    rest = graphs[len(records):]
    assert counts[len(records):] == [native_walk(g.adj, False) for g in rest]
    assert tables[len(records):] == [native_walk(g.adj, True) for g in rest]
    polys = [Polynomial((1, *c[1:])).to_canonical_string() for c in decoded[:len(records)]]
    assert polys == [line.split(" ")[1] for line in GOLDEN.read_text("ascii").splitlines()]
    assert decoded == native_walk.graph6(inputs)


def test_build_into_empty_cache(native_walk, monkeypatch, tmp_path):
    monkeypatch.setattr(native, "cache_dir", lambda: tmp_path / "cache")
    monkeypatch.setattr(native, "_walk", native._UNSET)
    walk = native.load()
    assert walk is not None
    (built,) = (tmp_path / "cache").iterdir()  # the temporary file is gone
    assert built.name.startswith("walk-") and built.suffix == ".so"
    assert walk(cycle_graph(7).adj, False) == [0, 7, 21, 14, 0, 0, 0, 0]


def test_poly_json_names_the_walk(capsys):
    payload = poly_json(capsys, "--g6", "Ch")
    assert payload["walk"] == ("python" if native.load() is None else "native")
    assert poly_json(capsys, "--class", "cycle:5")["walk"] is None
