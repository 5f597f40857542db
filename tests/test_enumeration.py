from __future__ import annotations

import random
import time
from math import comb

import pytest

from visipoly import (
    Graph,
    GuardrailError,
    Polynomial,
    complete_bipartite_graph,
    complete_graph,
    components,
    compute_stats,
    count_by_size_and_diameter,
    cycle_graph,
    delete_edge,
    diamond_graph,
    disjoint_union,
    empty_graph,
    iter_mv_sets,
    join,
    parse_graph6,
    path_graph,
    paw_graph,
    poly_complete,
    poly_complete_bipartite,
    poly_cycle,
    poly_path,
    polynomial_bruteforce,
    polynomial_pruned,
    star_graph,
)

from conftest import GOLDEN, native_counters, pin_python_walk
from oracles import (
    check_certificates,
    glued_blocks,
    oracle_is_mv,
    oracle_mv_sets,
    oracle_polynomial,
    oracle_theta,
    random_graph,
    random_tree,
    relabel,
    shortest_path_lengths,
    tree_top_row,
)


def test_bruteforce_examples():
    assert polynomial_bruteforce(complete_graph(4)) == Polynomial((1, 4, 6, 4, 1))
    assert polynomial_bruteforce(cycle_graph(4)) == Polynomial((1, 4, 6, 4))
    assert polynomial_bruteforce(diamond_graph()) == Polynomial((1, 4, 6, 4))


def test_pruned_examples():
    # 5-vertex star: x + 4x^2 + (1+x)^4 expanded
    assert polynomial_pruned(star_graph(4)) == Polynomial((1, 5, 10, 4, 1))
    assert polynomial_pruned(cycle_graph(7)) == Polynomial((1, 7, 21, 14))
    assert polynomial_pruned(path_graph(6)) == Polynomial((1, 6, 15))


def test_empty_graph_polynomial_is_one():
    assert polynomial_pruned(empty_graph(0)) == Polynomial((1,))
    assert polynomial_bruteforce(empty_graph(0)) == Polynomial((1,))


def spider(legs):
    """A centre, vertex 0, with one path of each length in ``legs`` hanging from it."""
    edges, order = [], 1
    for length in legs:
        path = [0] + list(range(order, order + length))
        order += length
        edges += list(zip(path, path[1:]))
    return Graph.from_edges(order, edges)


def test_tree_top_row_certificate():
    """A tree's mu is its number of leaves and r_mu the product of its pendant-path lengths.

    The spider of three legs of length 2 has the maximum set {1, 5, 6} besides
    its leaves {4, 5, 6}. A table whose top row is one short fails, on
    spiders whose mu is past the sizes 1..3 of ``small_theta``, so only the
    tree rule can catch it.
    """
    g = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
    assert polynomial_pruned(g) == polynomial_bruteforce(g) == Polynomial((1, 7, 21, 8))
    assert tree_top_row(g) == (3, 8) and oracle_is_mv(g, (1, 5, 6))
    assert tree_top_row(path_graph(5)) == (2, 16)  # the product rule needs three leaves: r_2 = 10
    for legs, mu, r_mu in (((2, 2, 2, 2), 4, 16), ((1, 2, 3, 3), 4, 18), ((1, 1, 4, 2, 3), 5, 24)):
        g = spider(legs)
        table = count_by_size_and_diameter(g)
        check_certificates(g, table)
        assert polynomial_pruned(g).coeffs[mu:] == (r_mu,), legs
        top = max(key for key in table if key[0] == mu)
        short = {**table, top: table[top] - 1}
        with pytest.raises(AssertionError, match="pendant paths"):
            check_certificates(g, short)


def test_kruskal_katona_certificate():
    """A Theta entry of size >= 4 moved whole to another diameter >= 2 keeps every row sum,
    the sizes 1..3 and the cliques, which the other certificates read; so only the
    Kruskal-Katona check per diameter bound, which runs last, can reject it. On the 4x5 grid
    it rejects some of the moves, each naming its bound, and accepts the true table."""
    rows, cols = 4, 5
    grid = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    grid += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    g = Graph.from_edges(rows * cols, grid)
    table = count_by_size_and_diameter(g)
    check_certificates(g, table)
    moves = caught = 0
    widest = max(d for _, d in table)
    for (k, d), count in table.items():
        for other in range(2, widest + 1):
            if k < 4 or d < 2 or other == d:
                continue
            moved = {key: c for key, c in table.items() if key != (k, d)}
            moved[k, other] = moved.get((k, other), 0) + count
            moves += 1
            try:
                check_certificates(g, moved)
            except AssertionError as exc:
                assert exc.args[0][0] == "Kruskal-Katona fails at diameter bound", exc
                caught += 1
    assert (caught, moves) == (81, 120)


def test_bruteforce_guardrail():
    with pytest.raises(GuardrailError, match="pruned"):
        polynomial_bruteforce(empty_graph(26))
    assert polynomial_bruteforce(empty_graph(3)) == Polynomial((1, 3))


def test_bruteforce_reproduces_golden_polynomials():
    for line in GOLDEN.read_text("ascii").splitlines():
        record, poly, _ = line.split(" ")
        assert polynomial_bruteforce(parse_graph6(record)).to_canonical_string() == poly, record


def test_bruteforce_matches_oracle_on_seeded_graphs():
    rng = random.Random(20261018)
    graphs = [empty_graph(0), empty_graph(1), empty_graph(2)]
    graphs += [
        random_graph(rng, n, p) for n in range(2, 10) for p in (0.1, 0.25, 0.4, 0.6, 0.8, 1.0)
    ]
    graphs.append(disjoint_union([cycle_graph(5), path_graph(1), star_graph(2)]))
    assert sum(len(components(g)) > 1 for g in graphs) > 10
    for g in graphs:
        assert polynomial_bruteforce(g) == oracle_polynomial(g), g


def test_bruteforce_across_the_block_boundary(monkeypatch):
    """Graphs of 14..18 vertices fill one to 16 blocks of 2^14 subsets."""
    rng = random.Random(20261019)
    graphs = [random_graph(rng, n, p) for n in range(14, 19) for p in (0.1, 0.3, 0.6, 0.9)]
    assert any(len(components(g)) > 1 for g in graphs)
    # The native walk when it can be built, then brute force for both counts.
    tables = []
    for g in graphs:
        assert polynomial_pruned(g) == polynomial_bruteforce(g), g
        tables.append(count_by_size_and_diameter(g))
    pin_python_walk(monkeypatch)
    for g, table in zip(graphs, tables):
        assert count_by_size_and_diameter(g) == table, g


def test_bruteforce_closed_forms_over_many_blocks():
    assert polynomial_bruteforce(path_graph(20)) == poly_path(20)
    assert polynomial_bruteforce(cycle_graph(20)) == poly_cycle(20)
    assert polynomial_bruteforce(complete_bipartite_graph(5, 15)) == poly_complete_bipartite(5, 15)


def test_pruned_guardrail():
    with pytest.raises(GuardrailError):
        polynomial_pruned(empty_graph(65))


def test_stats_guardrail():
    with pytest.raises(GuardrailError):
        compute_stats(path_graph(65))
    with pytest.raises(GuardrailError):
        count_by_size_and_diameter(path_graph(65))


def test_engines_agree_with_oracle(random_small_graphs):
    for g in random_small_graphs[:60]:
        expected = oracle_polynomial(g)
        assert polynomial_bruteforce(g) == expected
        assert polynomial_pruned(g) == expected


def test_pruned_equals_bruteforce_on_whole_corpus(random_small_graphs):
    for g in random_small_graphs:
        assert polynomial_pruned(g) == polynomial_bruteforce(g)


def test_engines_agree_on_all_class_graphs():
    graphs = [complete_graph(n) for n in range(1, 9)]
    graphs += [path_graph(n) for n in range(1, 11)]
    graphs += [cycle_graph(n) for n in range(3, 11)]
    graphs += [star_graph(n) for n in range(0, 9)]
    graphs += [
        disjoint_union([path_graph(3), cycle_graph(4)]),
        disjoint_union([complete_graph(3), complete_graph(3), path_graph(2)]),
        disjoint_union([empty_graph(4), star_graph(3)]),
    ]
    for g in graphs:
        assert polynomial_pruned(g) == polynomial_bruteforce(g), g


def test_each_set_enumerated_once(random_small_graphs):
    for g in random_small_graphs[:50]:
        seen = set()
        for members, _ in iter_mv_sets(g):
            assert members not in seen
            seen.add(members)
        assert len(seen) == sum(polynomial_pruned(g).coeffs) - 1


def test_low_coefficients(random_small_graphs):
    for g in random_small_graphs:
        poly = polynomial_pruned(g)
        assert poly.coefficient(0) == 1
        assert poly.coefficient(1) == g.n
        parts = components(g)
        cross_pairs = (
            comb(g.n, 2) - sum(comb(len(part), 2) for part in parts)
        )
        assert poly.coefficient(2) == comb(g.n, 2) - cross_pairs


def test_degree_and_leading_coefficient_match_stats(random_small_graphs):
    for g in random_small_graphs[:80]:
        poly = polynomial_pruned(g)
        stats = compute_stats(g)
        assert max(poly.degree, 0) == stats.mu
        if g.n:
            assert poly.coefficient(poly.degree) == stats.r_mu


def test_count_by_size_and_diameter():
    table = count_by_size_and_diameter(cycle_graph(6))
    assert table[(3, 2)] == 2
    assert table[(3, 3)] == 12
    assert (0, 0) not in table
    assert count_by_size_and_diameter(complete_graph(3))[(3, 1)] == 1


def test_diameter_table_matches_polynomial():
    for g in (cycle_graph(6), diamond_graph(), star_graph(4)):
        table = count_by_size_and_diameter(g)
        poly = polynomial_pruned(g)
        for k in range(1, g.n + 1):
            assert sum(c for (kk, _), c in table.items() if kk == k) == poly.coefficient(k)


def test_theta_table_matches_oracle(random_small_graphs, monkeypatch):
    rng = random.Random(20261018)
    dense = [
        random_graph(rng, n, p)
        for n in range(8, 13)
        for p in (0.7, 0.85, 0.95)
        for _ in range(3)
    ]
    k12_minus_edge = delete_edge(complete_graph(12), 3, 7)
    k9_minus_edge = delete_edge(complete_graph(9), 1, 8)
    dense += [
        join(paw_graph(), cycle_graph(6)),
        complete_bipartite_graph(3, 4),
        k12_minus_edge,
        k9_minus_edge,
    ]
    graphs = random_small_graphs[:80] + dense
    expected_tables = [oracle_theta(g) for g in graphs]
    # The native walk when it can be built, then brute force.
    for g, expected in zip(graphs, expected_tables):
        assert compute_stats(g).theta == expected, g
        assert count_by_size_and_diameter(g) == expected, g
    # K_9 less the edge 1-8 is one leaf block of 2^9 sets at the root: only
    # the whole vertex set fails, and a set of two or more vertices has
    # diameter 2 when it holds 1 and 8, else 1. Its one propagation settles
    # the pair 1-8, whose interval has no cut vertex.
    assert sum(c for (_, d), c in expected_tables[-1].items() if d == 2) == 2**7 - 1
    counters = native_counters(k9_minus_edge, theta=True)
    if counters is not None:
        assert (counters["nodes"], counters["closed"], counters["blocks"]) == (1, 0, 1)
    # A native closure of p >= 10 candidates whose sets take two diameters. In
    # K_12 less the edge 3-7, only the whole vertex set fails, and a set of
    # two or more vertices has diameter 2 when it holds 3 and 7, else 1. The
    # walk relabels it first: the ten vertices of degree 11 keep their order
    # as 0..9, and the simplicial 3 and 7 come last as 10 and 11. It pops 34
    # nodes: the root, its 12 children, the 11 of {0} and the 10 of {0, 1}.
    # A node whose largest member v is 2..9 has the p = 11 - v candidates
    # above v and is a leaf block (24 blocks); v = 10 closes with p = 1 and
    # v = 11 is a leaf. The root, {0} and {0, 1} with their candidates hold
    # the whole set and are walked. {1} closes with its 10 candidates 2..11
    # (0 stays out, a common neighbour of 10 and 11), so count_closed_theta
    # counts its sets at diameters 1 and 2: 4 closures in all. Walking {1}
    # would pop its 10 children.
    assert sum(c for (_, d), c in expected_tables[-2].items() if d == 2) == 2**10 - 1
    counters = native_counters(k12_minus_edge, theta=True)
    if counters is not None:
        assert (counters["nodes"], counters["closed"], counters["blocks"]) == (34, 4, 24)
    pin_python_walk(monkeypatch)
    for g, expected in zip(graphs, expected_tables):
        assert compute_stats(g).theta == expected, g
        assert count_by_size_and_diameter(g) == expected, g


def test_stats_of_complete_graph_skip_the_walk():
    start = time.perf_counter()
    stats = compute_stats(complete_graph(20))
    elapsed = time.perf_counter() - start
    assert stats.theta[(1, 0)] == 20
    assert stats.theta == {(1, 0): 20, **{(k, 1): comb(20, k) for k in range(2, 21)}}
    assert (stats.mu, stats.r_mu) == (20, 1)
    assert stats.cliques == {k: comb(20, k) for k in range(21)}
    # It takes under a millisecond; walking all 2^20 sets took seconds.
    assert elapsed < 1.0


def test_pruned_equals_bruteforce_on_larger_graphs():
    rng = random.Random(20261017)
    graphs = [
        random_graph(rng, n, p)
        for n in range(9, 14)
        for p in (0.15, 0.2, 0.3, 0.5, 0.6, 0.7, 0.85, 0.95)
    ]
    assert any(len(components(g)) > 1 for g in graphs)
    special = (delete_edge(complete_graph(12), 3, 7), join(paw_graph(), cycle_graph(6)))
    expected_polys = [polynomial_bruteforce(g) for g in graphs + list(special)]
    # The native walk when it can be built, then the plain walk.
    for g, expected in zip(graphs + list(special), expected_polys):
        assert polynomial_pruned(g) == expected, g
    for g, expected in zip(graphs, expected_polys):
        counts = [1] + [0] * g.n
        for members, _ in iter_mv_sets(g):
            counts[len(members)] += 1
        assert Polynomial(tuple(counts)) == expected, g

    # In these graphs the native walk closes some nodes and not others: more
    # than one node means the root, with all n > 9 vertices as passed
    # candidates, did not close.
    for g in special:
        counters = native_counters(g, theta=False)
        if counters is not None:
            assert counters["closed"] > 0, g
            assert counters["nodes"] > 1, g
    # A closure of p >= 10 candidates on K_12 - e, walked as derived in
    # test_theta_table_matches_oracle. Each mutual-visibility set (and the
    # empty root) is popped as a node, counted in a leaf block or lies in the
    # subtree of a closed node, which adds 2^p - 1 sets unpopped. The blocks
    # at the nodes {v}, {0, v} and {0, 1, v}, v = 2..9, hold the p = 11 - v
    # candidates above v and count 2^p - 1 sets each, except that the block
    # of {0, 1, 2} loses the whole vertex set. The three closures with p = 1
    # add one set each and {1} adds 2^10 - 1.
    counters = native_counters(special[0], theta=False)
    if counters is not None:
        assert (counters["nodes"], counters["closed"], counters["blocks"]) == (34, 4, 24)
        unpopped = sum(expected_polys[len(graphs)].coeffs) - counters["nodes"]
        in_blocks = 3 * sum(2**p - 1 for p in range(2, 10)) - 1
        assert unpopped == in_blocks + 3 + (2**10 - 1)


def test_iter_mv_sets_in_lexicographic_order(random_small_graphs):
    graphs = random_small_graphs[:50] + [cycle_graph(9), join(paw_graph(), cycle_graph(6))]
    for g in graphs:
        sets = [members for members, _ in iter_mv_sets(g)]
        assert all(a < b for a, b in zip(sets, sets[1:])), g
        assert all(list(members) == sorted(set(members)) for members in sets), g


def test_iter_mv_sets_yields_the_oracle_sets(random_small_graphs):
    # The plain walk shares its membership test with brute force, so it is
    # checked against the all-paths oracle: the same sets, in lexicographic
    # order, with BFS diameters.
    rng = random.Random(20261020)
    sparse = []
    for _ in range(5):
        n = rng.randint(9, 12)
        sparse += [random_tree(rng, n), glued_blocks(rng, n), relabel(rng, cycle_graph(n))]
        sparse.append(relabel(rng, random_graph(rng, n, 0.2)))
    graphs = random_small_graphs + sparse
    assert sum(len(components(g)) > 1 for g in graphs) > 50
    for g in graphs:
        dist = [shortest_path_lengths(g, u) for u in range(g.n)]
        expected = sorted(tuple(sorted(x)) for x in oracle_mv_sets(g) if x)
        expected = [(x, max(dist[u][v] for u in x for v in x)) for x in expected]
        assert list(iter_mv_sets(g)) == expected, g.edges()


@pytest.mark.parametrize(
    "g, expected",
    [
        (path_graph(64), poly_path(64)),
        (cycle_graph(40), poly_cycle(40)),
        (complete_graph(20), poly_complete(20)),
    ],
    ids=["P64", "C40", "K20"],
)
def test_pruned_matches_closed_forms_on_large_classes(g, expected, monkeypatch):
    start = time.perf_counter()
    assert polynomial_pruned(g) == expected
    # Each takes a few hundredths of a second; the bound leaves room for a
    # loaded host and still fails an engine that visits all 2^20 sets of K_20.
    assert time.perf_counter() - start < 2.0
    # Without the native walk: brute force for K_20, the plain walk above 25 vertices.
    pin_python_walk(monkeypatch)
    assert polynomial_pruned(g) == expected
