from __future__ import annotations

import random
from itertools import combinations
from math import comb

import pytest

import visipoly.classes as classes
import visipoly.closed_forms as closed_forms
from visipoly import (
    Complete,
    CompleteBipartite,
    Cycle,
    DisjointUnion,
    Graph,
    Join,
    ParameterError,
    Path,
    Polynomial,
    Raw,
    Star,
    VisibilityContext,
    build_class,
    complement,
    components,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    diamond_graph,
    disjoint_union,
    empty_graph,
    is_mutual_visibility_set,
    join,
    load_graph6_file,
    path_graph,
    paw_graph,
    poly_complete,
    poly_complete_bipartite,
    poly_cycle,
    poly_disconnected,
    poly_for_class,
    poly_join,
    poly_path,
    poly_star,
    polynomial_bruteforce,
    polynomial_pruned,
    r_mu_cycle,
    star_graph,
)

from conftest import corpus_path, pin_python_walk
from oracles import oracle_polynomial, random_graph, relabel


def test_poly_path_values():
    assert poly_path(1) == Polynomial((1, 1))
    assert poly_path(2) == Polynomial((1, 2, 1))
    assert poly_path(6) == Polynomial((1, 6, 15))
    with pytest.raises(ParameterError):
        poly_path(0)


def test_poly_complete_values():
    assert poly_complete(4) == Polynomial((1, 4, 6, 4, 1))
    assert poly_complete(1) == Polynomial((1, 1))
    assert poly_complete(8) == Polynomial(tuple(comb(8, i) for i in range(9)))
    with pytest.raises(ParameterError):
        poly_complete(0)


def test_poly_star_values_resolved_by_enumeration():
    # order-4 star: 1 + 4x + 6x^2 + x^3
    assert poly_star(3) == Polynomial((1, 4, 6, 1))
    assert poly_star(3) == oracle_polynomial(star_graph(3))
    # degenerate stars reduce to a vertex and an edge
    assert poly_star(0) == oracle_polynomial(star_graph(0)) == Polynomial((1, 1))
    assert poly_star(1) == oracle_polynomial(star_graph(1)) == Polynomial((1, 2, 1))
    # x + 5x^2 + (1+x)^5
    assert poly_star(5) == Polynomial((1, 6, 15, 10, 5, 1))


def test_poly_cycle_values():
    assert poly_cycle(5).coefficient(3) == 5
    assert poly_cycle(6) == Polynomial((1, 6, 15, 14))
    assert poly_cycle(3) == poly_complete(3)
    with pytest.raises(ParameterError):
        poly_cycle(2)


def test_r_mu_cycle_small_values():
    assert [r_mu_cycle(n) for n in (3, 4, 5, 6, 7)] == [1, 4, 5, 14, 14]


def test_r_mu_cycle_parity_monotone_up_to_200():
    odd = [r_mu_cycle(n) for n in range(3, 201, 2)]
    even = [r_mu_cycle(n) for n in range(4, 201, 2)]
    assert all(a < b for a, b in zip(odd, odd[1:]))
    assert all(a < b for a, b in zip(even, even[1:]))


def test_r_mu_cycle_adjacent_equality_only_at_six():
    hits = [n for n in range(3, 200) if r_mu_cycle(n) == r_mu_cycle(n + 1)]
    assert hits == [6]


def test_r_mu_cycle_unique_collision_pair():
    values = {}
    collisions = set()
    for n in range(3, 201):
        v = r_mu_cycle(n)
        if v in values:
            collisions.add((values[v], n))
        else:
            values[v] = n
    assert collisions == {(6, 7)}


def test_r_mu_cycle_odd_even_comparisons():
    for n in range(3, 200, 2):
        assert r_mu_cycle(n) < r_mu_cycle(n + 1)
    for n in range(8, 200, 2):
        assert r_mu_cycle(n) > r_mu_cycle(n + 1)


def test_poly_complete_bipartite_values():
    assert poly_complete_bipartite(3, 3) == Polynomial((1, 6, 15, 20, 15))
    assert poly_complete_bipartite(3, 4) == Polynomial((1, 7, 21, 35, 35, 15))
    assert poly_complete_bipartite(3, 3).degree == 4
    assert poly_complete_bipartite(3, 4).degree == 5
    assert poly_complete_bipartite(6, 6).degree == 10
    # arguments may come in either order
    assert poly_complete_bipartite(5, 3) == poly_complete_bipartite(3, 5)
    # below the paper's range: the star K_{1,3}, the 4-cycle K_{2,2}, and K_{2,5}
    assert poly_complete_bipartite(1, 3) == Polynomial((1, 4, 6, 1))
    assert poly_complete_bipartite(2, 2) == Polynomial((1, 4, 6, 4))
    assert poly_complete_bipartite(2, 5) == Polynomial(k2n_coeffs(5))
    assert poly_complete_bipartite(2, 5).degree == 6
    for m, n in ((0, 3), (3, 0), (0, 0), (-1, 2)):
        with pytest.raises(ParameterError, match="complete bipartite parts must be at least 1"):
            poly_complete_bipartite(m, n)


def k2n_coeffs(n):
    """r_i of K_{2,n} for n >= 2: a set fails only when it takes both small vertices
    and two or more of the others."""
    expected = [comb(n + 2, i) for i in range(n + 3)]
    for i in range(4, n + 3):
        expected[i] -= comb(n, i - 2)
    return tuple(expected)


def test_poly_complete_bipartite_matches_enumeration():
    for m in range(1, 8):
        for n in range(m, 15 - m):
            expected = polynomial_bruteforce(complete_bipartite_graph(m, n))
            assert poly_complete_bipartite(m, n) == expected, (m, n)
    for m in range(1, 13):
        for n in range(m, 13):
            expected = polynomial_pruned(complete_bipartite_graph(m, n))
            assert poly_complete_bipartite(m, n) == expected, (m, n)
            assert poly_complete_bipartite(n, m) == expected, (n, m)


def test_poly_complete_bipartite_small_parts_match_star_and_join():
    for n in range(1, 201):
        assert poly_complete_bipartite(1, n) == poly_star(n), n
        assert poly_complete_bipartite(n, 1) == poly_star(n), n
    for n in range(1, 65):
        assert poly_complete_bipartite(2, n) == poly_join(empty_graph(2), empty_graph(n)), n


def test_equal_parts_bipartite_branch():
    # for m = n the middle correction window is empty and both tails coincide
    for n in (3, 4, 5):
        poly = poly_complete_bipartite(n, n)
        for i in range(n + 2, 2 * n - 1):
            assert poly.coefficient(i) == comb(2 * n, i) - 2 * comb(n, i - n)
        for i in range(0, n + 2):
            assert poly.coefficient(i) == comb(2 * n, i)


def test_poly_disconnected():
    assert poly_disconnected([poly_path(2), poly_path(2)]) == Polynomial((1, 4, 2))
    single = poly_cycle(5)
    assert poly_disconnected([single]) == single
    assert poly_disconnected([poly_path(3), poly_path(2)]) == Polynomial((1, 5, 4))
    with pytest.raises(ParameterError, match="^disjoint union composition needs at least one part$"):
        poly_disconnected([])


def _induced(g, vertices):
    """The subgraph of g induced by one of its components, relabelled 0..len - 1."""
    index = {v: i for i, v in enumerate(vertices)}
    return Graph.from_edges(len(vertices), [(index[u], index[v]) for u, v in g.edges() if u in index])


def test_union_law_on_raw_graphs(random_small_graphs, monkeypatch):
    # the disconnected sample graphs, and relabelled unions of 2-4 random
    # parts of at most 25 vertices in all, composed from their components
    rng = random.Random(2929)
    graphs = [g for g in random_small_graphs if len(components(g)) > 1]
    for _ in range(40):
        count = rng.randint(2, 4)
        parts = [random_graph(rng, rng.randint(1, 25 // count), rng.choice((0.2, 0.5, 0.8)))
                 for _ in range(count)]
        graphs.append(relabel(rng, disjoint_union(parts)))
    expected = [polynomial_bruteforce(g) for g in graphs]
    # The native walk when it can be built, then brute force.
    for pinned in (False, True):
        if pinned:
            pin_python_walk(monkeypatch)
        for g, poly in zip(graphs, expected):
            parts = [polynomial_pruned(_induced(g, c)) for c in components(g)]
            assert poly_disconnected(parts) == polynomial_pruned(g) == poly, g.edges()


def test_path_edge_deletion_drops_cross_pairs():
    # removing an edge from P_n drops exactly n1*n2 two-vertex sets
    for n1, n2 in ((1, 4), (2, 3), (3, 3), (2, 5)):
        n = n1 + n2
        composed = poly_disconnected([poly_path(n1), poly_path(n2)])
        expected = Polynomial((1, n, comb(n, 2) - n1 * n2))
        assert composed == expected


def test_poly_join_worked_example():
    poly = poly_join(paw_graph(), cycle_graph(6))
    assert [poly.coefficient(i) for i in range(5)] == [comb(10, i) for i in range(5)]
    assert [poly.coefficient(i) for i in range(5, 10)] == [252, 207, 102, 30, 2]
    assert poly == polynomial_pruned(join(paw_graph(), cycle_graph(6)))


def test_poly_join_operand_order_irrelevant():
    assert poly_join(cycle_graph(6), paw_graph()) == poly_join(paw_graph(), cycle_graph(6))


def test_poly_join_complete_inputs_multiply():
    assert poly_join(complete_graph(3), complete_graph(2)) == Polynomial(
        (1, 5, 10, 10, 5, 1)
    )
    assert poly_join(complete_graph(4), complete_graph(4)) == poly_complete(8)


def test_poly_join_one_complete_operand_matches_enumeration():
    for g, h in ((complete_graph(3), cycle_graph(5)), (complete_graph(1), path_graph(4))):
        assert poly_join(g, h) == polynomial_pruned(join(g, h))


def test_poly_join_non_complete_pairs_match_enumeration():
    cases = [
        (cycle_graph(4), cycle_graph(6)),
        (path_graph(2), path_graph(2)),
        (path_graph(3), star_graph(3)),
        (cycle_graph(6), cycle_graph(6)),
        (diamond_graph(), path_graph(5)),
    ]
    for g, h in cases:
        assert poly_join(g, h) == polynomial_pruned(join(g, h)), (g, h)


def test_poly_join_random_pairs_match_enumeration():
    # operands of every dispatch flavour, disconnected ones included
    import random

    from oracles import random_graph

    rng = random.Random(424242)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6), rng.choice((0.2, 0.5, 0.8, 1.0)))
        h = random_graph(rng, rng.randint(1, 6), rng.choice((0.2, 0.5, 0.8, 1.0)))
        assert poly_join(g, h) == polynomial_pruned(join(g, h)), (g.edges(), h.edges())


def test_poly_join_law_on_all_pairs_up_to_order_five(monkeypatch):
    # the connected graphs of order 1..5 and their complements, which bring
    # in disconnected, empty and complete operands
    operands = []
    for order in range(1, 6):
        for g in load_graph6_file(corpus_path(order)):
            operands += [g, complement(g)]
    pairs = [(g, h) for g in operands for h in operands]
    assert len(pairs) == 3844
    expected = [polynomial_pruned(join(g, h)) for g, h in pairs]
    # The native walk when it can be built, then brute force.
    for (g, h), poly in zip(pairs, expected):
        assert poly_join(g, h) == poly, (g.edges(), h.edges())
    pin_python_walk(monkeypatch)
    for (g, h), poly in zip(pairs, expected):
        assert poly_join(g, h) == poly, (g.edges(), h.edges())


def test_poly_join_beyond_the_guardrail_matches_closed_forms(monkeypatch):
    # joins of up to 128 vertices; only the operands are walked
    for pinned in (False, True):
        if pinned:
            pin_python_walk(monkeypatch)
        assert poly_join(empty_graph(64), empty_graph(64)) == poly_complete_bipartite(
            64, 64
        )
        for n in range(65):
            assert poly_join(complete_graph(1), empty_graph(n)) == poly_star(n), n
        assert poly_join(complete_graph(40), complete_graph(40)) == poly_complete(80)


def test_poly_join_empty_operand():
    assert poly_join(complete_graph(0), cycle_graph(5)) == poly_cycle(5)
    assert poly_join(complete_graph(3), complete_graph(0)) == poly_complete(3)
    assert poly_join(empty_graph(0), empty_graph(0)) == Polynomial((1,))


def test_join_set_classification_lemma():
    # full left side plus B works iff B is empty, a clique, or an MV set of
    # diameter 2 in the right side
    cases = [
        (path_graph(3), cycle_graph(5)),
        (cycle_graph(4), cycle_graph(6)),
        (path_graph(4), path_graph(4)),
    ]
    for g, h in cases:
        joined = join(g, h)
        d_joined = VisibilityContext(joined)
        d_h = VisibilityContext(h)
        for size in range(h.n + 1):
            for combo in combinations(range(h.n), size):
                x = list(range(g.n)) + [g.n + b for b in combo]
                got = is_mutual_visibility_set(d_joined, x)
                if not combo:
                    expected = True
                else:
                    clique = all(h.adjacent(u, v) for u, v in combinations(combo, 2))
                    mv_in_h = is_mutual_visibility_set(d_h, combo)
                    diam = max(d_h.rows[u][v] for u in combo for v in combo)
                    expected = clique or (mv_in_h and diam == 2)
                assert got == expected, (g, h, combo)


def test_full_join_vertex_set_mv_only_for_complete_pairs():
    cases = [
        (complete_graph(3), complete_graph(4), True),
        (complete_graph(3), path_graph(3), False),
        (cycle_graph(4), complete_graph(2), False),
        (cycle_graph(4), cycle_graph(5), False),
        (complete_graph(1), complete_graph(1), True),
    ]
    for g, h, expected in cases:
        joined = join(g, h)
        d = VisibilityContext(joined)
        assert is_mutual_visibility_set(d, range(joined.n)) == expected


def test_bipartite_subset_lemmas():
    # any set missing a vertex of each part is MV; a full part plus Y is MV
    # iff Y has at most one vertex
    for m in range(3, 6):
        for n in range(m, 6):
            g = complete_bipartite_graph(m, n)
            d = VisibilityContext(g)
            part_a = set(range(m))
            part_b = set(range(m, m + n))
            for size in range(g.n + 1):
                for combo in combinations(range(g.n), size):
                    chosen = set(combo)
                    misses_both = part_a - chosen and part_b - chosen
                    got = is_mutual_visibility_set(d, combo)
                    if misses_both:
                        assert got
                    if part_a <= chosen:
                        assert got == (len(chosen - part_a) <= 1)
                    if part_b <= chosen:
                        assert got == (len(chosen - part_b) <= 1)


def test_poly_for_class_dispatch():
    assert poly_for_class(Cycle(9)) == poly_cycle(9)
    assert poly_for_class(Complete(6)) == poly_complete(6)
    assert poly_for_class(Star(4)) == poly_star(4)
    assert poly_for_class(Path(7)) == poly_path(7)
    assert poly_for_class(CompleteBipartite(4, 3)) == poly_complete_bipartite(3, 4)
    union = DisjointUnion((Path(3), Path(2)))
    assert poly_for_class(union) == Polynomial((1, 5, 4))
    joined = Join(Raw(paw_graph()), Cycle(6))
    assert poly_for_class(joined) == poly_join(paw_graph(), cycle_graph(6))


def test_join_reads_a_complete_spec_without_building_it(monkeypatch):
    others = [Cycle(6), Path(4), Star(3), Complete(2), Raw(paw_graph()), Raw(empty_graph(0))]
    others.append(DisjointUnion((Path(2), Raw(empty_graph(3)))))
    expected = {
        (m, other): poly_join(complete_graph(m), build_class(other))
        for m in range(1, 6)
        for other in others
    }

    def refuse(n):
        raise AssertionError(f"complete_graph({n}) was built")

    name, _, least, error, size = classes._FAMILIES[Complete]
    monkeypatch.setitem(classes._FAMILIES, Complete, (name, refuse, least, error, size))
    with pytest.raises(AssertionError):
        build_class(Complete(3))
    for (m, other), poly in expected.items():
        assert poly_for_class(Join(Complete(m), other)) == poly, (m, other)
        assert poly_for_class(Join(other, Complete(m))) == poly, (m, other)


def test_poly_for_class_bipartite_small_parts():
    # the one closed form covers parts of size 1 and 2, past the guardrail too
    assert poly_for_class(CompleteBipartite(1, 5)) == poly_star(5)
    expected = polynomial_pruned(complete_bipartite_graph(2, 5))
    assert poly_for_class(CompleteBipartite(2, 5)) == expected
    assert poly_for_class(CompleteBipartite(2, 2)) == Polynomial((1, 4, 6, 4))
    for n in (5, 64, 100):
        assert poly_for_class(CompleteBipartite(2, n)) == Polynomial(k2n_coeffs(n))
        assert poly_for_class(CompleteBipartite(n, 2)) == Polynomial(k2n_coeffs(n))


def test_no_family_spec_is_walked(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a family spec was walked")

    monkeypatch.setattr(closed_forms, "polynomial_pruned", refuse)
    monkeypatch.setattr(closed_forms, "count_by_size_and_diameter", refuse)
    for n in range(1, 71):
        assert poly_for_class(Path(n)) == poly_path(n)
        assert poly_for_class(Complete(n)) == poly_complete(n)
        assert poly_for_class(Star(n)) == poly_star(n)
        if n >= 3:
            assert poly_for_class(Cycle(n)) == poly_cycle(n)
        for m in range(1, 5):
            expected = poly_complete_bipartite(m, n)
            assert poly_for_class(CompleteBipartite(m, n)) == expected, (m, n)
            assert poly_for_class(CompleteBipartite(n, m)) == expected, (n, m)


def test_poly_for_class_raw():
    assert poly_for_class(Raw(diamond_graph())) == Polynomial((1, 4, 6, 4))
    assert poly_for_class(Raw(empty_graph(0))) == Polynomial((1,))


def test_class_sweep_matches_enumeration():
    specs = (
        [Complete(n) for n in range(1, 11)]
        + [Star(n) for n in range(0, 10)]
        + [Path(n) for n in range(1, 13)]
        + [Cycle(n) for n in range(3, 13)]
        + [CompleteBipartite(m, n) for m in range(3, 7) for n in range(m, 7)]
        + [
            DisjointUnion((Path(4), Cycle(5))),
            DisjointUnion((Star(3), Complete(4), Path(3))),
        ]
    )
    for spec in specs:
        graph = build_class(spec)
        assert poly_for_class(spec) == polynomial_pruned(graph), spec
