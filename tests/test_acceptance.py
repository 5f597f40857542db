"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Every expected value is
exact (integer equality); the stated runtime budgets are asserted too.
"""

from __future__ import annotations

import gc
import random
import time
from math import comb

import pytest

from visipoly import (
    Complete,
    CompleteBipartite,
    Cycle,
    DisjointUnion,
    Path,
    Star,
    VisibilityContext,
    build_class,
    complete_graph,
    compute_stats,
    cycle_graph,
    diamond_graph,
    is_mutual_visibility_set,
    iter_mv_sets,
    join,
    load_graph6_file,
    paw_graph,
    poly_for_class,
    poly_join,
    polynomial_bruteforce,
    polynomial_pruned,
    r_mu_cycle,
    run_batch_file,
)
from visipoly import enumeration

from conftest import corpus_path
from oracles import oracle_is_mv, random_graph


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {criterion}: {status}{suffix}")
    assert passed, f"{criterion} failed{suffix}"


def test_criterion_1_closed_forms_equal_enumeration():
    specs = (
        [Complete(n) for n in range(1, 11)]
        + [Star(n) for n in range(0, 10)]
        + [Path(n) for n in range(1, 13)]
        + [Cycle(n) for n in range(3, 13)]
        + [CompleteBipartite(m, n) for m in range(3, 7) for n in range(m, 7)]
        + [
            DisjointUnion((Path(2), Path(2))),
            DisjointUnion((Path(3), Path(2))),
            DisjointUnion((Path(5), Cycle(7))),
            DisjointUnion((Complete(4), Star(3), Path(4))),
            DisjointUnion((Cycle(3), Cycle(4), Cycle(5))),
            DisjointUnion((Complete(6), Complete(6))),
        ]
    )
    start = time.perf_counter()
    mismatches = [
        spec
        for spec in specs
        if poly_for_class(spec) != polynomial_pruned(build_class(spec))
    ]
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (closed forms vs enumeration)",
        not mismatches and elapsed < 10.0,
        f"{len(specs)} instances, {elapsed:.2f}s",
    )


def test_criterion_2_join_worked_example():
    start = time.perf_counter()
    poly = poly_join(paw_graph(), cycle_graph(6))
    front_ok = [poly.coefficient(i) for i in range(5)] == [comb(10, i) for i in range(5)]
    tail_ok = [poly.coefficient(i) for i in range(5, 10)] == [252, 207, 102, 30, 2]
    enum_ok = poly == polynomial_pruned(join(paw_graph(), cycle_graph(6)))
    elapsed = time.perf_counter() - start
    report(
        "criterion 2 (join worked example)",
        front_ok and tail_ok and enum_ok and elapsed < 1.0,
        f"{poly.to_canonical_string()}, {elapsed:.2f}s",
    )


def test_criterion_3_figure1_collision():
    c4 = polynomial_bruteforce(cycle_graph(4))
    dia = polynomial_bruteforce(diamond_graph())
    ok = c4 == dia and c4.to_canonical_string() == "[1,4,6,4]"
    report("criterion 3 (4-cycle vs diamond collision)", ok, c4.to_canonical_string())


TABLE1 = {
    4: (6, 2, "[1,4,6,4]"),
    5: (21, 2, "[1,5,10,7]"),
    6: (112, 4, "[1,6,15,14,3]"),
    7: (853, 6, "[1,7,21,26,9]"),
}


def test_criterion_4_table1_desk_scale():
    start = time.perf_counter()
    failures = []
    for order, (total, modal_size, modal_poly) in TABLE1.items():
        rep = run_batch_file(corpus_path(order))[0]
        ok = (
            rep.total_graphs == total
            and rep.max_group_size == modal_size
            and modal_poly in rep.max_group_polynomials
        )
        if not ok:
            failures.append((order, rep.total_graphs, rep.max_group_size, rep.max_group_polynomials))
    elapsed = time.perf_counter() - start
    report(
        "criterion 4 (polynomial-collision table, orders 4-7)",
        not failures and elapsed < 30.0,
        f"{elapsed:.2f}s" + (f", failures {failures}" if failures else ""),
    )


@pytest.mark.slow
@pytest.mark.skipif(
    not corpus_path(8).exists(),
    reason="order-8 corpus not committed; generate with geng -c 8",
)
def test_criterion_4_order8_optional():
    start = time.perf_counter()
    rep = run_batch_file(corpus_path(8))[0]
    ok = (
        rep.total_graphs == 11117
        and rep.max_group_size == 14
        and "[1,8,28,52,46,12]" in rep.max_group_polynomials
    )
    elapsed = time.perf_counter() - start
    report(
        "criterion 4 optional (order 8)", ok and elapsed < 600.0, f"{elapsed:.1f}s"
    )


def test_criterion_5_cycle_r_mu_lemmas():
    values = {n: r_mu_cycle(n) for n in range(3, 201)}
    small_ok = [values[n] for n in (3, 4, 5, 6, 7)] == [1, 4, 5, 14, 14]
    odd = [values[n] for n in range(3, 201, 2)]
    even = [values[n] for n in range(4, 201, 2)]
    monotone_ok = all(a < b for a, b in zip(odd, odd[1:])) and all(
        a < b for a, b in zip(even, even[1:])
    )
    adjacent = [n for n in range(3, 200) if values[n] == values[n + 1]]
    pairs = {
        (a, b)
        for a in range(3, 201)
        for b in range(a + 1, 201)
        if values[a] == values[b]
    }
    ok = small_ok and monotone_ok and adjacent == [6] and pairs == {(6, 7)}
    report("criterion 5 (cycle maximum-set-count lemmas)", ok)


def _criterion_corpus():
    rng = random.Random(20240901)
    graphs = []
    for _ in range(220):
        n = rng.randint(1, 7)
        p = rng.choice((0.15, 0.3, 0.5, 0.7, 0.9))
        graphs.append(random_graph(rng, n, p))
    return rng, graphs


def test_criterion_6_mv_test_oracle_equivalence():
    rng, graphs = _criterion_corpus()
    start = time.perf_counter()
    subsets = 0
    mismatches = 0
    for g in graphs:
        d = VisibilityContext(g)
        for _ in range(5):
            x = rng.sample(range(g.n), rng.randint(0, g.n))
            if is_mutual_visibility_set(d, x) != oracle_is_mv(g, x):
                mismatches += 1
            subsets += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and len(graphs) >= 200 and subsets >= 500 and elapsed < 30.0
    report(
        "criterion 6 (layered test vs all-paths oracle)",
        ok,
        f"{len(graphs)} graphs, {subsets} subsets, {elapsed:.2f}s",
    )


def test_criterion_7_closure_and_prefix_properties():
    _, graphs = _criterion_corpus()
    from visipoly import components

    bad = 0
    for g in graphs:
        sets = {frozenset(members) for members, _ in iter_mv_sets(g)}
        sets.add(frozenset())
        for s in sets:
            for v in s:
                if s - {v} not in sets:
                    bad += 1
        poly = polynomial_pruned(g)
        stats = compute_stats(g)
        if max(poly.degree, 0) != stats.mu:
            bad += 1
        if g.n and poly.coefficient(poly.degree) != stats.r_mu:
            bad += 1
        if len(components(g)) == 1 and g.n >= 2:
            if (
                poly.coefficient(0) != 1
                or poly.coefficient(1) != g.n
                or poly.coefficient(2) != comb(g.n, 2)
            ):
                bad += 1
    report("criterion 7 (downward closure, prefix, degree/leading)", bad == 0)


def test_criterion_8_complete_graph_characterization():
    failures = []
    for order in range(1, 7):
        for g in load_graph6_file(corpus_path(order)):
            degree = polynomial_pruned(g).degree
            if (degree == g.n) != (g.edge_count == comb(g.n, 2)):
                failures.append(g)
    report("criterion 8 (degree n exactly for complete graphs)", not failures)


# Band for the change in time per (subset x vertex pair) from K_n to
# K_(n+2), symmetric on a log scale around 1. Ratios sit a little below 1
# because a high vertex outside a block's set is skipped, and from n = 14 on
# a larger share of the vertices is high. On a shared 2-vCPU host, ten runs
# with nine rounds gave 0.84 to 0.97 over K_18 -> K_22, where five rounds
# gave 0.73 to 1.28 (listed in CHANGES.md).
BAND_LOW, BAND_HIGH = 2 / 3, 3 / 2


def subset_pairs(n):
    """Brute-force work on an n-vertex graph: every subset against every vertex pair.

    There are 2^n subsets and C(n, 2) pairs, a growth of
    4 (n+2)(n+1)/(n(n-1)) per two added vertices.
    """
    return 2 ** n * comb(n, 2)


def test_criterion_9_bruteforce_scaling_band(monkeypatch):
    # Exactly 2^n subsets evaluated, also where over 90% of them fail, so no
    # block is skipped and nothing is pruned.
    original = enumeration._bad_subsets
    sparse = random_graph(random.Random(2009), 16, 0.3)
    for g in (complete_graph(12), complete_graph(14), complete_graph(16), sparse):
        evaluated = 0

        def counting(member, full, steps):
            nonlocal evaluated
            evaluated += full.bit_count()
            return original(member, full, steps)

        with monkeypatch.context() as m:
            m.setattr(enumeration, "_bad_subsets", counting)
            poly = polynomial_bruteforce(g)
        assert evaluated == 2 ** g.n, (g, evaluated)
        assert poly == polynomial_pruned(g), g
    assert sum(polynomial_pruned(sparse).coeffs) < 2 ** sparse.n // 10

    polynomial_bruteforce(complete_graph(16))  # warm-up
    sizes = (18, 20, 22)
    graphs = {n: complete_graph(n) for n in sizes}
    timings = dict.fromkeys(sizes, float("inf"))
    # Interleaved rounds, minimum per size: a slow spell on a shared host
    # then slows one round of every size instead of all runs of one size.
    for _ in range(9):
        for n in sizes:
            gc.disable()
            start = time.perf_counter()
            poly = polynomial_bruteforce(graphs[n])
            elapsed = time.perf_counter() - start
            gc.enable()
            assert poly.coeffs == tuple(comb(n, i) for i in range(n + 1))
            timings[n] = min(timings[n], elapsed)
    ratios = (timings[20] / timings[18], timings[22] / timings[20])
    per_unit = {n: timings[n] / subset_pairs(n) for n in sizes}
    per_unit_ratios = (per_unit[20] / per_unit[18], per_unit[22] / per_unit[20])
    ok = all(BAND_LOW <= r <= BAND_HIGH for r in per_unit_ratios)
    report(
        "criterion 9 (brute-force growth sanity band)",
        ok,
        f"ratios {ratios[0]:.2f}, {ratios[1]:.2f}; "
        f"per subset and pair {per_unit_ratios[0]:.2f}, {per_unit_ratios[1]:.2f}",
    )
