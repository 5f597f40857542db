from __future__ import annotations

import copy
import pickle
import random
from itertools import combinations
from math import comb

import pytest

import visipoly.visibility as visibility
from visipoly import (
    GuardrailError,
    ParameterError,
    VisibilityContext,
    clique_count,
    complete_graph,
    compute_stats,
    cycle_graph,
    delete_edge,
    disjoint_union,
    is_mutual_visibility_set,
    path_graph,
    paw_graph,
    polynomial_pruned,
    star_graph,
)

from conftest import pin_python_walk
from oracles import check_certificates, oracle_is_mv, oracle_mv_sets, random_graph, relabel


def mv(g, x):
    return is_mutual_visibility_set(VisibilityContext(g), x)


def test_context_refuses_assignment_and_deletion():
    ctx = VisibilityContext(paw_graph())
    rows = ctx.rows
    with pytest.raises(AttributeError, match="^cannot assign to field 'rows'$"):
        ctx.rows = None
    with pytest.raises(AttributeError, match="^cannot delete field 'steps'$"):
        del ctx.steps
    assert ctx.rows is rows
    assert is_mutual_visibility_set(ctx, [0, 1, 3])
    assert not is_mutual_visibility_set(ctx, [0, 2, 3])
    for twin in (pickle.loads(pickle.dumps(ctx)), copy.copy(ctx), copy.deepcopy(ctx)):
        assert (twin.n, twin.layers, twin.rows, twin.steps) == (ctx.n, ctx.layers, ctx.rows, ctx.steps)
        with pytest.raises(AttributeError):
            twin.n = 5


def test_whole_complete_graph_is_mv():
    for n in range(2, 7):
        assert mv(complete_graph(n), range(n))


def test_star_center_with_two_leaves_fails():
    g = star_graph(4)  # leaves 0..3, centre 4
    assert not mv(g, [4, 0, 1])
    assert mv(g, [0, 1, 2])
    assert mv(g, [4, 0])


def test_c4_triple_is_mv():
    g = cycle_graph(4)
    for combo in combinations(range(4), 3):
        assert mv(g, combo)


def test_small_sets_trivially_mv():
    g = path_graph(5)
    assert mv(g, [])
    assert mv(g, [3])
    for pair in combinations(range(5), 2):
        assert mv(g, pair)


def test_cross_component_pair_fails():
    g = disjoint_union([path_graph(2), path_graph(2)])
    assert not mv(g, [0, 2])
    assert mv(g, [0, 1])
    assert mv(g, [2])


def test_vertex_out_of_range():
    g = path_graph(3)
    with pytest.raises(ParameterError):
        mv(g, [0, 7])


def test_agrees_with_path_oracle_on_random_graphs(random_small_graphs):
    rng = random.Random(7)
    checked = 0
    for g in random_small_graphs:
        d = VisibilityContext(g)
        for _ in range(5):
            k = rng.randint(0, g.n)
            x = rng.sample(range(g.n), k)
            assert is_mutual_visibility_set(d, x) == oracle_is_mv(g, x)
            checked += 1
    assert checked >= 500


def test_agrees_with_path_oracle_on_class_graphs():
    graphs = [complete_graph(n) for n in range(1, 7)]
    graphs += [path_graph(n) for n in range(1, 8)]
    graphs += [cycle_graph(n) for n in range(3, 8)]
    graphs += [star_graph(n) for n in range(0, 6)]
    graphs += [paw_graph(), disjoint_union([path_graph(3), cycle_graph(3)])]
    for g in graphs:
        d = VisibilityContext(g)
        for k in range(g.n + 1):
            for x in combinations(range(g.n), k):
                assert is_mutual_visibility_set(d, x) == oracle_is_mv(g, x), (g, x)


def test_sets_straddling_components_match_the_oracle():
    # Every set with members in two or more components, on relabelled unions
    # of 2-3 random parts, so that a component's vertices interleave.
    from visipoly import components

    rng = random.Random(20261021)
    checked = 0
    for _ in range(40):
        parts = [random_graph(rng, rng.randint(1, 4), 0.6) for _ in range(rng.randint(2, 3))]
        g = relabel(rng, disjoint_union(parts))
        d = VisibilityContext(g)
        part_of = {v: i for i, part in enumerate(components(g)) for v in part}
        for k in range(2, g.n + 1):
            for x in combinations(range(g.n), k):
                if len({part_of[v] for v in x}) > 1:
                    assert is_mutual_visibility_set(d, x) == oracle_is_mv(g, x), (g.edges(), x)
                    checked += 1
    assert checked > 2000


def test_within_component_pairs_always_mv(random_small_graphs):
    from visipoly import components

    for g in random_small_graphs[:80]:
        d = VisibilityContext(g)
        for part in components(g):
            for pair in combinations(part, 2):
                assert is_mutual_visibility_set(d, pair)


def test_mv_sets_are_downward_closed(random_small_graphs):
    for g in random_small_graphs[:60]:
        sets = oracle_mv_sets(g)
        for s in sets:
            for v in s:
                assert s - {v} in sets


def test_compute_stats_c6():
    stats = compute_stats(cycle_graph(6))
    assert stats.mu == 3
    assert stats.r_mu == 14
    assert stats.cliques[1] == 6
    assert stats.cliques[2] == 6
    assert stats.cliques[3] == 0
    assert stats.theta.get((2, 2), 0) == 6
    assert stats.theta.get((3, 2), 0) == 2
    assert stats.theta.get((1, 0), 0) == 6
    assert stats.theta.get((1, 2), 0) == 0


def test_compute_stats_paw():
    stats = compute_stats(paw_graph())
    assert stats.cliques[3] == 1
    assert stats.theta.get((3, 2), 0) == 1
    assert stats.theta.get((2, 2), 0) == 2


def test_compute_stats_k5():
    stats = compute_stats(complete_graph(5))
    assert stats.mu == 5
    assert stats.r_mu == 1


def test_stats_theta_sums_match_polynomial(random_small_graphs):
    for g in random_small_graphs[:80]:
        stats = compute_stats(g)
        check_certificates(g, stats.theta)
        poly = polynomial_pruned(g)
        for k in range(1, g.n + 1):
            total = sum(c for (kk, _), c in stats.theta.items() if kk == k)
            assert total == poly.coefficient(k)
        assert stats.mu == max(poly.degree, 0)
        if g.n:
            assert stats.r_mu == poly.coefficient(poly.degree)
        assert stats.cliques[0] == 1
        if g.n >= 1:
            assert stats.cliques[1] == g.n
        if g.n >= 2:
            assert stats.cliques[2] == g.edge_count
        assert all(d == 0 for (k, d) in stats.theta if k == 1)


def test_stats_kmax_bounds():
    g = cycle_graph(5)
    stats = compute_stats(g, k_max=2)
    assert set(stats.cliques) == {0, 1, 2}
    assert max(k for k, _ in stats.theta) == 2
    # mu still comes from the full enumeration
    assert stats.mu == 3
    with pytest.raises(ParameterError):
        compute_stats(g, k_max=9)
    # The guardrail comes first, as in `stats --class path:70 --kmax 100`.
    with pytest.raises(GuardrailError, match="^enumeration is limited to 64 vertices, got 70;"):
        compute_stats(path_graph(70), k_max=100)


def test_stats_kmax_when_the_root_closes():
    # Every set of K_8 is a mutual-visibility set, so the walk stops at the root.
    stats = compute_stats(complete_graph(8), k_max=2)
    assert (stats.mu, stats.r_mu) == (8, 1)
    assert stats.theta == {(1, 0): 8, (2, 1): 28}
    assert stats.cliques == {0: 1, 1: 8, 2: 28}


def test_stats_json_shape():
    payload = compute_stats(paw_graph()).to_json_dict()
    assert set(payload) == {"mu", "r_mu", "theta", "cliques"}
    assert [1, 0, 4] in payload["theta"]
    assert [3, 1] in payload["cliques"]


def test_clique_counts():
    assert clique_count(cycle_graph(6), 3) == 0
    assert clique_count(paw_graph(), 3) == 1
    assert clique_count(paw_graph(), 2) == 4
    assert clique_count(complete_graph(5), 0) == 1
    assert clique_count(complete_graph(5), 3) == 10
    with pytest.raises(ParameterError):
        clique_count(paw_graph(), 5)


def test_clique_counts_match_bruteforce(random_small_graphs, monkeypatch):
    rng = random.Random(20261018)
    dense = [random_graph(rng, n, p) for n in range(8, 13) for p in (0.7, 0.85, 0.95)]
    dense.append(delete_edge(complete_graph(12), 3, 7))

    # The counter adds binomials C(p, j) when p candidates are pairwise adjacent.
    closed_sizes = []

    def recording_comb(p, j):
        closed_sizes.append(p)
        return comb(p, j)

    monkeypatch.setattr(visibility, "comb", recording_comb)
    for g in random_small_graphs[:40] + dense:
        for k in range(g.n + 1):
            expected = sum(
                1
                for combo in combinations(range(g.n), k)
                if all(g.adjacent(u, v) for u, v in combinations(combo, 2))
            )
            assert clique_count(g, k) == expected
    assert max(closed_sizes, default=0) >= 3


def test_stats_cliques_are_theta_at_diameter_one(monkeypatch):
    """compute_stats reads c_k = Theta(k, 1) for k >= 2; clique_count counts them on its own."""
    rng = random.Random(20261020)
    graphs = [random_graph(rng, rng.randint(0, 13), rng.choice((0.2, 0.5, 0.8, 0.95)))
              for _ in range(60)]
    graphs.append(delete_edge(complete_graph(12), 3, 7))
    expected = [{k: clique_count(g, k) for k in range(g.n + 1)} for g in graphs]
    assert max(max(k for k, c in e.items() if c) for e in expected) >= 11
    # The native walk when it can be built, then brute force.
    for g, cliques in zip(graphs, expected):
        assert compute_stats(g).cliques == cliques, g
    pin_python_walk(monkeypatch)
    for g, cliques in zip(graphs, expected):
        assert compute_stats(g).cliques == cliques, g
