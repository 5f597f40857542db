"""Closed-form visibility polynomials and the two composition laws.

Each formula is guarded by the hypotheses it was proved under; outside that
range the dispatcher falls back to enumeration rather than extrapolating.
All coefficients are exact integers.
"""

from __future__ import annotations

from math import comb
from typing import List, Optional, Sequence

from .classes import (
    ClassSpec,
    Complete,
    CompleteBipartite,
    Cycle,
    DisjointUnion,
    Join,
    Path,
    Star,
    build_class,
)
from .enumeration import polynomial_pruned
from .errors import ParameterError
from .graph import Graph
from .graph import join as graph_join
from .polynomial import Polynomial
from .visibility import VisStats, compute_stats


def poly_path(n: int) -> Polynomial:
    """1 + n x + C(n,2) x^2: no mutual-visibility set of a path exceeds two vertices."""
    if n < 1:
        raise ParameterError("path order must be at least 1")
    return Polynomial((1, n, comb(n, 2)))


def poly_complete(n: int) -> Polynomial:
    """(1+x)^n: every subset of a complete graph is a mutual-visibility set."""
    if n < 1:
        raise ParameterError("complete graph order must be at least 1")
    return Polynomial(tuple(comb(n, i) for i in range(n + 1)))


def poly_star(n: int) -> Polynomial:
    """x + n x^2 + (1+x)^n for the star with n leaves (order n+1).

    The centre joins mutual-visibility sets only up to size 2; leaf subsets
    are unrestricted. The expansion also reproduces the degenerate stars:
    n=0 gives 1+x (a single vertex) and n=1 gives (1+x)^2 (a single edge),
    both confirmed against enumeration.
    """
    if n < 0:
        raise ParameterError("star leaf count must be nonnegative")
    coeffs = [comb(n, i) for i in range(n + 1)]
    while len(coeffs) < 3:
        coeffs.append(0)
    coeffs[1] += 1
    coeffs[2] += n
    return Polynomial(tuple(coeffs))


def r_mu_cycle(n: int) -> int:
    """Number of maximum mutual-visibility sets (triples) of the n-cycle."""
    if n < 3:
        raise ParameterError("cycle order must be at least 3")
    if n % 2:
        value = n * (n * n - 1)
    else:
        value = (n - 2) * n * (n + 8)
    assert value % 24 == 0
    return value // 24


def poly_cycle(n: int) -> Polynomial:
    """1 + n x + C(n,2) x^2 + r3 x^3 with the parity-dependent triple count."""
    if n < 3:
        raise ParameterError("cycle order must be at least 3")
    return Polynomial((1, n, comb(n, 2), r_mu_cycle(n)))


def poly_complete_bipartite(m: int, n: int) -> Polynomial:
    """Closed form for K_{m,n} with both parts of size at least 3.

    With m <= n, the coefficient of x^i is C(m+n, i), minus C(n, i-m) once
    i >= m+2 (sets swallowing all of the small part plus two or more of the
    other), minus C(m, i-n) once i >= n+2 (the symmetric exclusion). The
    degree is m + n - 2. For m = n both corrections coincide, which is the
    equal-parts special case.
    """
    if m > n:
        m, n = n, m
    if m < 3:
        raise ParameterError(
            "closed form proven only for parts of size >= 3; "
            "use the star formula for a part of size 1 or enumeration for size 2"
        )
    coeffs = []
    for i in range(m + n - 1):
        r = comb(m + n, i)
        if i >= m + 2:
            r -= comb(n, i - m)
        if i >= n + 2:
            r -= comb(m, i - n)
        coeffs.append(r)
    return Polynomial(tuple(coeffs))


def poly_disconnected(polys: Sequence[Polynomial]) -> Polynomial:
    """Compose per-part polynomials of a disjoint union: sum minus (parts - 1).

    Every mutual-visibility set of two or more vertices lies inside a single
    part, and the empty set would otherwise be counted once per part.
    """
    if not polys:
        raise ParameterError("disjoint union composition needs at least one part")
    acc = polys[0]
    for p in polys[1:]:
        acc = acc.add(p)
    return acc.subtract_scalar(len(polys) - 1)


def _clique_theta(stats: VisStats, k: int) -> int:
    """c_k plus the count of diameter-2 mutual-visibility sets of size k."""
    return stats.cliques.get(k, 0) + stats.theta_count(k, 2)


def poly_join(
    g: Graph,
    h: Graph,
    g_stats: Optional[VisStats] = None,
    h_stats: Optional[VisStats] = None,
) -> Polynomial:
    """Visibility polynomial of the join of two graphs.

    Both operands complete: the product of their polynomials (the join is
    again complete). Both non-complete: the four-branch coefficient formula
    driven by clique counts and diameter-2 set counts of the operands.
    Exactly one complete: no proven formula, so the join is built and
    enumerated. Caller-provided stats are trusted as-is; omit them to have
    the operands analysed here.
    """
    if g.n == 0 or h.n == 0:
        other = h if g.n == 0 else g
        if other.n == 0:
            return Polynomial((1,))
        return poly_complete(other.n) if other.is_complete else polynomial_pruned(other)
    if g.is_complete and h.is_complete:
        return poly_complete(g.n).multiply(poly_complete(h.n))
    if g.is_complete or h.is_complete:
        return polynomial_pruned(graph_join(g, h))

    # Non-complete operands necessarily have two or more vertices.
    if g.n > h.n:
        g, h = h, g
        g_stats, h_stats = h_stats, g_stats
    m, n = g.n, h.n
    if g_stats is None:
        g_stats = compute_stats(g, k_max=m - 1)
    if h_stats is None:
        h_stats = compute_stats(h, k_max=n - 1)

    coeffs: List[int] = []
    for i in range(m + 1):
        coeffs.append(comb(m + n, i))
    for i in range(m + 1, n + 1):
        mixed = sum(comb(m, k) * comb(n, i - k) for k in range(m))
        coeffs.append(mixed + _clique_theta(h_stats, i - m))
    for i in range(n + 1, m + n - 1):
        mixed = sum(comb(m, k) * comb(n, i - k) for k in range(i - n + 1, m))
        coeffs.append(
            mixed + _clique_theta(h_stats, i - m) + _clique_theta(g_stats, i - n)
        )
    coeffs.append(_clique_theta(h_stats, n - 1) + _clique_theta(g_stats, m - 1))
    return Polynomial(tuple(coeffs))


def poly_for_class(spec: ClassSpec) -> Polynomial:
    """Dispatch a class spec to its closed form, composition law, or enumeration.

    The result is always the true visibility polynomial; formulas are used
    only where their hypotheses hold.
    """
    if isinstance(spec, Path):
        return poly_path(spec.n)
    if isinstance(spec, Cycle):
        return poly_cycle(spec.n)
    if isinstance(spec, Complete):
        return poly_complete(spec.n)
    if isinstance(spec, Star):
        return poly_star(spec.n)
    if isinstance(spec, CompleteBipartite):
        m, n = min(spec.m, spec.n), max(spec.m, spec.n)
        if m >= 3:
            return poly_complete_bipartite(m, n)
        if m == 1:
            return poly_star(n)
        return polynomial_pruned(build_class(spec))
    if isinstance(spec, Join):
        return poly_join(build_class(spec.left), build_class(spec.right))
    if isinstance(spec, DisjointUnion):
        return poly_disconnected([poly_for_class(part) for part in spec.parts])
    graph = build_class(spec)
    if graph.n == 0:
        return Polynomial((1,))
    return polynomial_pruned(graph)
