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
import time
from collections import Counter
from functools import cache

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
    poly_star,
    polynomial_pruned,
    run_batch,
    star_graph,
)
from visipoly.cli import main
from visipoly.enumeration import BRUTEFORCE_MAX_VERTICES, _bruteforce_counts, _count_sets
from visipoly.errors import FormatError
from visipoly.polynomial import _canonical_text

from conftest import GOLDEN, corpus_path, pin_python_walk
from oracles import (
    check_certificates,
    clique_chain,
    cycle_chain,
    glued_blocks,
    golden_line,
    oracle_golden_line,
    random_graph,
    random_tree,
    relabel,
    tree_top_row,
)


@pytest.fixture
def native_walk():
    if native._compiler() is None:
        pytest.skip("no C compiler found")
    walk = native.load()
    assert walk is not None, "a C compiler was found but the native walk did not build"
    return walk


def graph6_entry(walk, records, counters=None):
    """The keys of the graph6 entry on records, a list of bytes, one a line, in one call."""
    return walk.graph6(b"\n".join(records), counters)


def golden_records():
    lines = GOLDEN.read_text("ascii").splitlines()
    return [line.split(" ", 1)[0] for line in lines]


def engine_golden_text(records):
    """The golden lines of the engine that counts, each table checked against its certificates."""
    lines = []
    for record in records:
        g = parse_graph6(record)
        table = count_by_size_and_diameter(g)
        check_certificates(g, table)
        lines.append(golden_line(record, polynomial_pruned(g), table))
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
# three copies of C_5 and benchmark_graphs(211), for either sink. The walk
# relabels each graph, so the shuffled P_64 counts as P_64 does.
FIXED_COUNTERS = [
    (2036, 1, 118, 8, 41544), (16, 3, 15, 9, 0),
    (1028, 103, 7246, 751, 419), (502, 45, 4799, 367, 0), (494, 70, 4582, 329, 74),
    (2516, 21, 1607, 256, 17794), (2036, 1, 118, 8, 41544), (1, 1, 15, 0, 0),
]


def by_size(table, n):
    """The counts by size, entries 0..n, of a (size, diameter) table; entry 0 is the empty set."""
    counts = [1] + [0] * n
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
        check_certificates(g, expected[True])
        if g.n > BRUTEFORCE_MAX_VERTICES:  # P_64, C_40 and P_64: the plain walk's closed forms
            closed_form = {g.n - 1: poly_path, g.n: poly_cycle}[g.edge_count](g.n)
            assert Polynomial(tuple(expected[0])) == closed_form, g
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
        check_certificates(g, table)
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
            counts = list(poly.coeffs) + [0] * (n + 1 - len(poly.coeffs))
            cases.append((relabel(rng, g), counts, None))
    rng.shuffle(cases)
    return cases


def test_shadow_filter_keeps_the_counts(native_walk):
    """The cut and shadow filters drop only candidates that would fail, on both sinks.

    P_n and C_n are checked on their counts by size, the others on their
    full tables, and every table on its certificates. The graphs of order at most 62 are also counted as graph6
    records in one call, which walks them all with one set of tables, so a
    shadow row, interval memo or leaf-block pattern left over from an
    earlier graph would prune a later one; the shuffle of shadow_graphs()
    makes graphs above and below BLOCK_MAX alternate. That call must give the
    keys of the counts and the summed counters of one call per graph.
    """
    cases = shadow_graphs()
    for theta in (False, True):
        counters = {}
        for g, counts, table in cases:
            got = native_walk(g.adj, theta, counters)
            if not theta:
                assert got == counts, g
                continue
            check_certificates(g, got)
            if table is None:
                assert by_size(got, g.n) == counts, g
            else:
                assert got == table, g
        # Nearly every candidate that fails here is hidden before any propagation.
        assert counters["hidden"] > 5 * counters["propagations"]
    short = [g for g, _, _ in cases if g.n <= native.SHORT_MAX_ORDER]
    assert len(short) == len(cases) - 4  # P_63, P_64, C_63 and C_64
    one_counters, many_counters = {}, {}
    per_graph = [_canonical_text(tuple(native_walk(g.adj, False, one_counters))) for g in short]
    records = [encode_graph6(g).encode("ascii") for g in short]
    assert graph6_entry(native_walk, records, many_counters) == per_graph
    assert many_counters == one_counters


def test_walk_order_is_its_own(native_walk):
    """The walk relabels every graph of more than BLOCK_MAX vertices, so its labels do not matter.

    The relabel shrinks the tree: random_tree(Random(3), 40) pops 33,136
    nodes, where its own labels popped 262,726; its counters and those of a
    glued-block graph with cliques pin the order. Trees, glued-block graphs,
    G(n, p) for n = 10..25 and disconnected graphs with isolated vertices
    give brute force's tables, and P_64, C_64 and the star of 63 leaves
    (whose centre is vertex 63) their closed forms and tables that meet
    their certificates, under 10 random relabellings each, on both sinks.
    """
    for g, expected in ((random_tree(random.Random(3), 40), (33136, 9335, 241041, 19182, 16260)),
                        (glued_blocks(random.Random(11), 30), (10863, 963, 38745, 8009, 6158))):
        counters = {}
        native_walk(g.adj, False, counters)
        assert tuple(counters[name] for name in native.COUNTER_NAMES) == expected
    rng = random.Random(20261040)
    graphs = [random_tree(rng, n) for n in (10, 16, 22)]
    graphs += [glued_blocks(rng, n) for n in (12, 18, 23)]
    graphs += [random_graph(rng, n, (0.15, 0.3, 0.7, 0.9)[n % 4]) for n in range(10, 26)]
    graphs += [disjoint_union([empty_graph(1), random_tree(rng, 6), empty_graph(2),
                               glued_blocks(rng, 8), random_graph(rng, 5, 0.6)]),
               disjoint_union([random_graph(rng, 9, 0.5), empty_graph(3)]),
               disjoint_union([empty_graph(4), complete_graph(4), cycle_graph(5)])]
    assert sum(len(components(g)) > 1 for g in graphs) >= 3
    for g in graphs:
        table = _bruteforce_counts(g, True)
        check_certificates(g, table)
        counts = by_size(table, g.n)
        for h in [g] + [relabel(rng, g) for _ in range(10)]:
            assert native_walk(h.adj, False) == counts, h
            assert native_walk(h.adj, True) == table, h
    for g, poly in ((path_graph(64), poly_path(64)), (cycle_graph(64), poly_cycle(64)),
                    (star_graph(63), poly_star(63))):
        for h in [g] + [relabel(rng, g) for _ in range(10)]:
            counts = native_walk(h.adj, False)
            assert Polynomial(tuple(counts)) == poly, h
            table = native_walk(h.adj, True)
            assert by_size(table, 64) == counts, h
            check_certificates(h, table)



def test_closures_count_theta_as_bruteforce(native_walk):
    """A closing node counts its sets by diameter as brute force does.

    Relabelled chains of K_3..K_6 close with candidates in several blocks, at
    several distances from each other and from the members, so the clique
    counts of count_closed_theta hold non-neighbours, carry pivots and skip
    empty levels; random trees and glued-block graphs close with candidates
    that see each other only across a member. Up to 25 vertices, about 6 s.
    """
    rng = random.Random(20261021)
    graphs = [relabel(rng, clique_chain(blocks, size))
              for size in (3, 4, 5, 6) for blocks in range(1, 22 // (size - 1) + 1)]
    graphs += [relabel(rng, clique_chain(12, 3)), relabel(rng, clique_chain(6, 5))]
    graphs += [random_tree(rng, rng.randint(3, 22)) for _ in range(30)] + [random_tree(rng, 25)]
    graphs += [glued_blocks(rng, rng.randint(3, 22)) for _ in range(30)] + [glued_blocks(rng, 24)]
    closed = 0
    for g in graphs:
        counters = {}
        table = _bruteforce_counts(g, True)
        check_certificates(g, table)
        assert native_walk(g.adj, True, counters) == table, g
        closed += counters["closed"]
    assert len(graphs) > 90 and closed > 1000


def test_random_trees_meet_the_tree_rule(native_walk):
    """On random trees of 4 to 40 vertices, mu is the number of leaves and r_mu the
    product of the pendant-path lengths (``check_certificates``), past brute force too."""
    rng = random.Random(20261027)
    trees = [random_tree(rng, rng.randint(4, 40)) for _ in range(120)]
    for g in trees:
        check_certificates(g, native_walk(g.adj, True))
    assert sum(tree_top_row(g)[0] >= 4 for g in trees) > 100
    assert sum(g.n > BRUTEFORCE_MAX_VERTICES for g in trees) > 40


def test_closures_on_a_chain_past_bruteforce(native_walk):
    """Theta of a relabelled chain of eleven K_5 (45 vertices) against independent counts.

    Summed over diameters it gives the polynomial, whose closures add
    binomials and count no cliques; and it meets its certificates, among them
    the cliques of the listing counter in visibility at diameter 1 and the
    pairs and triples at each distance. Its closures once listed every clique
    of their distance graphs and took seconds.
    """
    g = relabel(random.Random(1), clique_chain(11))
    assert g.n == 45
    table = native_walk(g.adj, True)
    assert Polynomial(tuple(by_size(table, g.n))) == polynomial_pruned(g)
    check_certificates(g, table)


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
    """One call per graph: orders 0 and 1, order 64 and the golden file.

    The graphs of order 64 give their closed forms, and tables that meet their certificates.
    """
    assert native_walk(empty_graph(0).adj, False) == [1]
    assert native_walk(empty_graph(0).adj, True) == {}
    assert native_walk(empty_graph(1).adj, False) == [1, 1]
    assert native_walk(empty_graph(1).adj, True) == {(1, 0): 1}
    order64 = [path_graph(64), complete_graph(64), cycle_graph(64), benchmark_graphs(5)[4]]
    closed_forms = [poly_path(64), poly_complete(64), poly_cycle(64), poly_path(64)]
    counters = {}
    for g, poly in zip(order64, closed_forms):
        counts = native_walk(g.adj, False, counters)
        assert Polynomial(tuple(counts)) == poly
        table = native_walk(g.adj, True)
        assert by_size(table, 64) == counts
        check_certificates(g, table)
    assert counters["blocks"] > 0  # C_64 and the two P_64
    lines = []
    for record in golden_records():
        adj = parse_graph6(record).adj
        counts = native_walk(adj, False)
        lines.append(golden_line(record, Polynomial(tuple(counts)), native_walk(adj, True)))
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


def test_every_engine_counts_the_empty_set(monkeypatch):
    """Entry 0 of every count by size is 1, and no (size, diameter) table has a size-0 key.

    On the golden graphs and orders 0, 1 and 64: the native walk and its graph6
    entry when a compiler is found, brute force up to 25 vertices, and
    ``_count_sets`` with the native walk and without it (brute force, and the
    plain walk on P_64).
    """
    records = golden_records()
    graphs = [parse_graph6(record) for record in records]
    graphs += [empty_graph(0), empty_graph(1), path_graph(64)]
    walk = native.load()
    engines = [_count_sets]
    if walk is not None:
        engines.append(lambda g, theta: walk(g.adj, theta))
    for g in graphs:
        for engine in engines + ([_bruteforce_counts] if g.n <= BRUTEFORCE_MAX_VERTICES else []):
            assert engine(g, False)[0] == 1, (g, engine)
            assert all(k for k, _ in engine(g, True)), (g, engine)
    if walk is not None:
        keys = graph6_entry(walk, [r.encode() for r in records])
        assert {json.loads(key)[0] for key in keys} == {1}
    pin_python_walk(monkeypatch)
    for g in graphs:
        assert _count_sets(g, False)[0] == 1, g
        assert all(k for k, _ in _count_sets(g, True)), g


def test_graph6_entry_agrees_with_parse_graph6(native_walk):
    """The native decoder accepts a subset of what parse_graph6 accepts and counts the same graphs.

    Every counted record, every corpus record among them, gets the key that
    ``_canonical_text``, the key's reference, gives the per-graph walk's
    counts; a declined one gets "".

    A declined record must be malformed, or long-form: the native decoder
    reads only the one-byte order field of orders 0..62, while parse_graph6
    also reads a long-form record of a small order.
    """
    records = graph6_inputs()
    counted = graph6_entry(native_walk, records)
    assert len(counted) == len(records)
    accepted, expected = [], []
    for record, key in zip(records, counted):
        if key:
            accepted.append(parse_graph6(record))
            expected.append(key)
            continue
        try:
            g = parse_graph6(record)
        except FormatError:
            continue
        assert g.n >= 63 or record[0] == 126, record
    assert all(counted[:996 + 63])
    assert len(accepted) > 10000 and len(records) - len(accepted) > 30000
    assert [_canonical_text(tuple(_count_sets(g, theta=False))) for g in accepted] == expected


def test_graph6_entry_keys_the_extremes(native_walk):
    """K_62's 63 entries reach C(62, 31), 18 digits; orders 0 and 1; empty:62 trims 61 zeros.

    A chunk of 64 K_62 records, each key 872 bytes and a newline, fits the wrapper's buffer.
    In ``run_batch`` each lands in the report of the order its key's entry 1 names, as do
    the long-form records of orders 63 and 64, which the fallback keys.
    """
    k62 = encode_graph6(complete_graph(62)).encode("ascii")
    cases = [(k62, poly_complete(62).to_canonical_string()), (b"?", "[1]"), (b"@", "[1,1]"),
             (encode_graph6(empty_graph(62)).encode("ascii"), "[1,62]")]
    assert len(str(poly_complete(62).coefficient(31))) == 18
    keys = graph6_entry(native_walk, [record for record, _ in cases])
    assert keys == [key for _, key in cases]
    assert polynomial_pruned(empty_graph(62)).to_canonical_string() == "[1,62]"
    assert graph6_entry(native_walk, [k62] * 64) == [keys[0]] * 64
    long_form = [path_graph(63), empty_graph(64)]
    lines = [record.decode("ascii") for record, _ in cases] + [encode_graph6(g) for g in long_form]
    expected = {0: {"[1]": 1}, 1: {"[1,1]": 1}, 62: {keys[0]: 1, "[1,62]": 1}}
    expected.update({g.n: {polynomial_pruned(g).to_canonical_string(): 1} for g in long_form})
    assert {r.order: r.histogram for r in run_batch(lines, workers=1, keep_histogram=True)} == expected


def test_graph6_entry_writes_nothing_past_capacity(native_walk):
    """The C entry refuses a chunk whose next record's worst-case key, 24 + 21n bytes for
    order n, would pass the capacity, and writes no byte past it; a declined record takes 1,
    an empty line and a line longer than K_62's 317 bytes among them."""
    import ctypes

    entry = ctypes.CDLL(str(native._library())).visipoly_walk_graph6
    entry.restype = ctypes.c_long
    k62 = encode_graph6(complete_graph(62)).encode("ascii")
    key = (poly_complete(62).to_canonical_string() + "\n").encode("ascii")
    worst = 24 + 21 * 62
    for records, need, written in (([k62], worst, key), ([b"", k62], 1 + worst, b"\n" + key),
                                   ([b"~??C~", b"A_"], 1 + 24 + 21 * 2, b"\n[1,2,1]\n"),
                                   ([k62 + b"?", b"", b"A_"], 2 + 24 + 21 * 2, b"\n\n[1,2,1]\n")):
        text = b"\n".join(records)
        for capacity in (need, need - 1):
            keys = ctypes.create_string_buffer(b"#" * (need + 8), need + 8)
            tally = (ctypes.c_uint64 * len(native.COUNTER_NAMES))()
            used = entry(text, ctypes.c_long(len(text)), keys, ctypes.c_long(capacity), tally)
            if capacity == need:
                assert keys.raw[:used] == written and used <= capacity
            else:
                assert used == -1
            assert keys.raw[capacity:] == b"#" * (need + 8 - capacity)


def poly_json(capsys, *argv):
    assert main(["poly", *argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_fallback_without_compiler_gives_identical_results(monkeypatch, capsys):
    graphs = benchmark_graphs(7)[:3] + [random_graph(random.Random(3), 12, 0.4)]
    built = [(polynomial_pruned(g), compute_stats(g)) for g in graphs]
    before = poly_json(capsys, "--g6", "Ch")

    monkeypatch.setattr(native, "_compiler", lambda: None)
    monkeypatch.setattr(native, "load", cache(native.load.__wrapped__))
    assert native.load() is None
    assert [(polynomial_pruned(g), compute_stats(g)) for g in graphs] == built
    after = poly_json(capsys, "--g6", "Ch")
    assert after["walk"] == "python"
    assert {**after, "seconds": 0} == {**before, "walk": "python", "seconds": 0}


def test_unwritable_cache_falls_back(monkeypatch, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(native, "cache_dir", lambda: blocker / "visipoly")
    monkeypatch.setattr(native, "load", cache(native.load.__wrapped__))
    assert native.load() is None
    assert polynomial_pruned(cycle_graph(7)).coeffs == (1, 7, 21, 14)


WARNINGS = ["-Wall", "-Wextra", "-Werror"]
UBSAN = ["-fsanitize=undefined", "-fno-sanitize-recover=all"]
ASAN_UBSAN = ["-fsanitize=address,undefined", "-fno-sanitize-recover=all"]

# Runs in a child process: count the graphs read from stdin with the library
# named by argv[1], one call per graph and sink, writing the counts by size and
# the (size, diameter) tables, then decode and count the graph6 records of the
# file argv[2], one a line, in one call, into their keys.
SANITIZED_CHILD = """
import json, sys
from pathlib import Path
from visipoly._native import _bind
walk = _bind(Path(sys.argv[1]))
adjs = json.load(sys.stdin)
counts = [walk(adj, False) for adj in adjs]
tables = [sorted(walk(adj, True).items()) for adj in adjs]
json.dump([counts, tables, walk.graph6(Path(sys.argv[2]).read_bytes())], sys.stdout)
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
    diameters, G(24, .8) closes thousands, and a relabelled chain of nine K_5
    closes nodes whose distance graphs hold non-neighbours, so the closure
    test and the pivoting clique count of count_closed_theta run too. P_64, a
    random tree of 40 vertices, a chain of five C_6 and a graph of glued
    blocks in three components build shadow tables and hide candidates with
    them. Every graph of more than 9 vertices is relabelled:
    a graph of five components, three of them isolated vertices, takes the
    relabel's component loop, and the star of 63 leaves moves its centre
    from 63 to 0, so the 64-bit shifts of the relabel run at n = 64. The
    walk counts each graph, orders 0, 1 and 64 included, in its own call per
    sink. The graph6 entry decodes the golden
    records, whose keys must be the golden polynomials, and the mutated records
    of graph6_inputs, so its byte reads of malformed records run under the
    sanitizer. It is loaded in a child process, so an abort fails this test
    alone. When the compiler cannot link UBSan, only the warnings are checked.
    It builds with ``native.FLAGS``, so the checks cover the host-targeted code
    that the loader builds.
    """
    build = [native._compiler(), *native.FLAGS]
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
               random_graph(random.Random(24), 24, 0.8), relabel(random.Random(1), clique_chain(9))]
    rng = random.Random(3)
    graphs += [path_graph(64), random_tree(rng, 40), relabel(rng, cycle_chain(5)),
               relabel(rng, disjoint_union([glued_blocks(rng, 12), glued_blocks(rng, 10),
                                            random_tree(rng, 8)]))]
    graphs += [relabel(rng, disjoint_union([empty_graph(2), glued_blocks(rng, 9), empty_graph(1),
                                            random_tree(rng, 5)])),
               star_graph(63)]
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
    lines = [golden_line(record, Polynomial(tuple(c)), table)
             for record, c, table in zip(records, counts, tables)]
    assert "\n".join(lines) + "\n" == GOLDEN.read_text("ascii")
    rest = graphs[len(records):]
    assert counts[len(records):] == [native_walk(g.adj, False) for g in rest]
    assert tables[len(records):] == [native_walk(g.adj, True) for g in rest]
    golden = [line.split(" ") for line in GOLDEN.read_text("ascii").splitlines()]
    assert decoded[:len(records)] == [poly for _, poly, _ in golden]
    assert decoded == graph6_entry(native_walk, inputs)


@pytest.fixture
def empty_cache(native_walk, monkeypatch, tmp_path):
    directory = tmp_path / "cache"
    monkeypatch.setattr(native, "cache_dir", lambda: directory)
    monkeypatch.setattr(native, "load", cache(native.load.__wrapped__))
    return directory


def fake_compiler(monkeypatch, tmp_path, refuse):
    """Make the loader build with a script that logs its arguments, one call a line,
    and runs the real compiler; with ``refuse`` it refuses HOST_FLAG as gcc does."""
    log = tmp_path / "cc.log"
    script = tmp_path / "fake-cc"
    flag = native.HOST_FLAG
    refusal = (f'case " $* " in *" {flag} "*) '
               f'echo "cc: error: unrecognized command-line option \'{flag}\'" >&2; exit 1;; esac\n'
               if refuse else "")
    script.write_text(f'#!/bin/sh\necho "$*" >> "{log}"\n{refusal}exec "{native._compiler()}" "$@"\n')
    script.chmod(0o755)
    monkeypatch.setattr(native, "_compiler", lambda: str(script))
    return log


def test_build_into_empty_cache(empty_cache, monkeypatch):
    walk = native.load()
    assert walk is not None
    (built,) = empty_cache.iterdir()  # the temporary file is gone
    assert built.name.startswith("walk-") and built.suffix == ".so"
    assert walk(cycle_graph(7).adj, False) == [1, 7, 21, 14, 0, 0, 0, 0]
    stamp = built.stat().st_mtime_ns
    assert native._library() == built and built.stat().st_mtime_ns == stamp
    monkeypatch.setattr(native, "FLAGS", ("-O1", *native.FLAGS[1:]))
    assert native._library() != built  # a changed flag set builds anew
    assert len(list(empty_cache.iterdir())) == 2


def test_compiler_refusing_the_host_flag_gets_the_portable_build(empty_cache, monkeypatch, tmp_path):
    log = fake_compiler(monkeypatch, tmp_path, refuse=True)
    monkeypatch.setattr(native, "_cpu", lambda: "model name\t: one")
    walk = native.load()
    assert walk is not None
    assert walk(cycle_graph(7).adj, False) == [1, 7, 21, 14, 0, 0, 0, 0]
    assert len(list(empty_cache.iterdir())) == 1
    assert [native.HOST_FLAG in call.split() for call in log.read_text().splitlines()] == [True, False]


def test_a_refused_host_flag_is_asked_once_per_cache(empty_cache, monkeypatch, tmp_path):
    """The portable build goes into the CPU's one file, so later loads call no compiler."""
    log = fake_compiler(monkeypatch, tmp_path, refuse=True)
    monkeypatch.setattr(native, "_cpu", lambda: "model name\t: one")
    for _ in range(3):  # three fresh processes on one cache
        monkeypatch.setattr(native, "load", cache(native.load.__wrapped__))
        assert native.load()(cycle_graph(7).adj, False) == [1, 7, 21, 14, 0, 0, 0, 0]
    assert len(log.read_text().splitlines()) == 2  # the first load: host refused, portable built
    assert len(list(empty_cache.iterdir())) == 1


def test_a_failed_host_build_that_names_no_flag_caches_nothing(empty_cache, monkeypatch):
    """A timeout is no refusal of HOST_FLAG: no portable build, and the next process tries again."""
    calls = []

    def timing_out(args, **kwargs):
        calls.append(args)
        raise subprocess.TimeoutExpired(args, kwargs["timeout"])

    monkeypatch.setattr(native, "_cpu", lambda: "model name\t: one")
    monkeypatch.setattr(subprocess, "run", timing_out)
    assert native.load() is None
    assert [native.HOST_FLAG in call for call in calls] == [True]
    assert list(empty_cache.iterdir()) == []


def test_unnamed_cpu_gets_the_portable_build(empty_cache, monkeypatch, tmp_path):
    log = fake_compiler(monkeypatch, tmp_path, refuse=False)
    monkeypatch.setattr(native, "_cpu", lambda: None)
    assert native.load()(cycle_graph(7).adj, False) == [1, 7, 21, 14, 0, 0, 0, 0]
    (call,) = log.read_text().splitlines()
    assert native.HOST_FLAG not in call.split()


def test_each_cpu_gets_its_own_library(empty_cache, monkeypatch, tmp_path):
    log = fake_compiler(monkeypatch, tmp_path, refuse=False)
    for model in ("one", "two", "one"):
        monkeypatch.setattr(native, "_cpu", lambda: f"model name\t: {model}")
        native._library()
    assert len(list(empty_cache.iterdir())) == 2
    assert len(log.read_text().splitlines()) == 2  # the first CPU's library is built once


def test_cpu_identity_is_the_first_processors_named_lines(monkeypatch, tmp_path):
    info = tmp_path / "cpuinfo"
    monkeypatch.setattr(native, "CPUINFO", info)
    assert native._cpu() is None  # unreadable
    info.write_text("processor\t: 0\nvendor_id\t: A\ncpu MHz\t\t: 2100.000\nmodel name\t: B\n"
                    "flags\t\t: fpu popcnt\n\nprocessor\t: 1\nvendor_id\t: C\n")
    assert native._cpu() == "vendor_id\t: A\nmodel name\t: B\nflags\t\t: fpu popcnt\n"
    info.write_text("processor\t: 0\nFeatures\t: fp asimd\nCPU implementer\t: 0x41\nCPU part\t: 0xd0c\n")
    assert native._cpu() == "Features\t: fp asimd\nCPU part\t: 0xd0c\n"
    info.write_text("processor\t: 0\ncpu\t\t: POWER9\nclock\t\t: 2.2GHz\n")
    assert native._cpu() is None  # no named line: the portable build


def test_poly_json_names_the_walk(capsys):
    payload = poly_json(capsys, "--g6", "Ch")
    assert payload["walk"] == ("python" if native.load() is None else "native")
    assert poly_json(capsys, "--class", "cycle:5")["walk"] is None


def test_poly_json_times_the_count_not_the_build(empty_cache, monkeypatch, capsys):
    build = native._build

    def slow_build(*args):
        time.sleep(0.5)
        build(*args)

    monkeypatch.setattr(native, "_build", slow_build)
    payload = poly_json(capsys, "--g6", "?")
    assert payload["walk"] == "native" and payload["seconds"] < 0.5


def test_poly_json_of_a_closed_form_builds_nothing(empty_cache, monkeypatch, capsys):
    monkeypatch.setattr(native, "_build", lambda *args: pytest.fail("built the walk"))
    for spec in ("cycle:7", "union:cycle:5+path:3"):
        payload = poly_json(capsys, "--class", spec)
        assert (payload["engine"], payload["walk"]) == ("closed-form", None)
    assert not empty_cache.exists()


def test_poly_json_times_a_raw_union_part_not_the_build(empty_cache, monkeypatch, capsys):
    """A union's closed form counts its raw parts by the walk; ``seconds`` leaves out its build."""
    build = native._build

    def slow_build(*args):
        time.sleep(0.5)
        build(*args)

    monkeypatch.setattr(native, "_build", slow_build)
    payload = poly_json(capsys, "--class", "union:paw+path:3")
    assert payload["engine"] == "closed-form" and payload["polynomial"] == "[1,7,9,2]"
    assert payload["walk"] == "native" and payload["seconds"] < 0.5
