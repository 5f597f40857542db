"""Closed-form visibility polynomials and the two composition laws.

Every family of ``classes._FAMILIES`` has one closed form here, valid on the
family's whole domain. A closed form checks its arguments by building the
family's spec, so each domain and its error text live in one row of that
table. No family spec is walked: the dispatcher enumerates only raw specs,
and the join law only the non-complete operands of a join. The law reads
completeness from ``spec_size``, so it builds no complete operand. All
coefficients are exact integers.
"""

from __future__ import annotations

from math import comb
from typing import List, Sequence, Tuple, Union

from .classes import (
    ClassSpec,
    Complete,
    CompleteBipartite,
    Cycle,
    DisjointUnion,
    Join,
    Path,
    Raw,
    Star,
    spec_size,
)
from .enumeration import _check_pruned_guardrail, count_by_size_and_diameter, polynomial_pruned
from .errors import ParameterError
from .graph import Graph
from .polynomial import Polynomial


def poly_path(n: int) -> Polynomial:
    """1 + n x + C(n,2) x^2: no mutual-visibility set of a path exceeds two vertices."""
    Path(n)
    return Polynomial((1, n, comb(n, 2)))


def poly_complete(n: int) -> Polynomial:
    """(1+x)^n: every subset of a complete graph is a mutual-visibility set."""
    Complete(n)
    return Polynomial(tuple([comb(n, i) for i in range(n + 1)]))


def poly_star(n: int) -> Polynomial:
    """x + n x^2 + (1+x)^n for the star with n leaves (order n+1).

    The centre joins mutual-visibility sets only up to size 2; leaf subsets
    are unrestricted. The expansion also reproduces the degenerate stars:
    n=0 gives 1+x (a single vertex) and n=1 gives (1+x)^2 (a single edge),
    both confirmed against enumeration.
    """
    Star(n)
    coeffs = [comb(n, i) for i in range(n + 1)]
    while len(coeffs) < 3:
        coeffs.append(0)
    coeffs[1] += 1
    coeffs[2] += n
    return Polynomial(tuple(coeffs))


def r_mu_cycle(n: int) -> int:
    """Number of maximum mutual-visibility sets (triples) of the n-cycle."""
    Cycle(n)
    if n % 2:
        value = n * (n * n - 1)
    else:
        value = (n - 2) * n * (n + 8)
    assert value % 24 == 0
    return value // 24


def poly_cycle(n: int) -> Polynomial:
    """1 + n x + C(n,2) x^2 + r3 x^3 with the parity-dependent triple count."""
    Cycle(n)
    return Polynomial((1, n, comb(n, 2), r_mu_cycle(n)))


def poly_complete_bipartite(m: int, n: int) -> Polynomial:
    """Closed form for K_{m,n}, for all parts m, n >= 1.

    Two vertices of one part see each other through any vertex of the other
    part left out of the set, so a set fails exactly when it holds two or
    more vertices of one part and all of the other. By inclusion-exclusion
    the coefficient of x^i is C(m+n, i), minus C(n, i-m) once i >= m+2, minus
    C(m, i-n) once i >= n+2, plus 1 at i = m+n when m, n >= 2: the whole
    vertex set fails both ways and was subtracted twice. The formula is
    symmetric in m and n. For m, n >= 3, the paper's range, the top two
    coefficients vanish and the degree is m + n - 2; m = 1 gives the star.
    """
    CompleteBipartite(m, n)
    coeffs = []
    for i in range(m + n + 1):
        r = comb(m + n, i)
        if i >= m + 2:
            r -= comb(n, i - m)
        if i >= n + 2:
            r -= comb(m, i - n)
        coeffs.append(r)
    if m >= 2 and n >= 2:
        coeffs[m + n] += 1
    return Polynomial(tuple(coeffs))


def poly_disconnected(polys: Sequence[Polynomial]) -> Polynomial:
    """Compose per-part polynomials of a disjoint union: sum minus (parts - 1).

    Every mutual-visibility set of two or more vertices lies inside a single
    part, and the empty set would otherwise be counted once per part.
    """
    if not polys:
        raise ParameterError("disjoint union composition needs at least one part")
    coeffs = [1 - len(polys)] + [0] * max(len(p.coeffs) for p in polys)
    for p in polys:
        for i, c in enumerate(p.coeffs):
            coeffs[i] += c
    return Polynomial(tuple(coeffs))


def _join_rows(spec: ClassSpec) -> Tuple[List[int], List[int]]:
    """C(|G|, k) and q_k(G) for k = 0..|G|, the two rows the join law reads of G.

    q_k counts the k-sets whose nonadjacent pairs share an outside neighbour:
    the cliques and the mutual-visibility sets of diameter 2, so q_0 = 1 and
    q_k = Theta(k, 0) + Theta(k, 1) + Theta(k, 2). A spec whose ``spec_size``
    is complete, of any family, has q_k = C(|G|, k) and is neither built nor
    walked.
    """
    n, m = spec_size(spec)
    binomials = [comb(n, k) for k in range(n + 1)]
    if m == n * (n - 1) // 2:
        return binomials, binomials
    q = [1] + [0] * n
    for (k, d), c in count_by_size_and_diameter(spec).items():
        if d <= 2:
            q[k] += c
    return binomials, q


def poly_join(g: Union[Graph, ClassSpec], h: Union[Graph, ClassSpec]) -> Polynomial:
    """Visibility polynomial of the join of two graphs or specs, for every operand pair.

    Take a set A + B with A in G and B in H. Pairs across the join are
    adjacent, and a nonadjacent pair inside A sees through any vertex of H
    left out of B. So A is restricted only when B takes all of H, and then
    A must be a q-set of G; the same holds for B. Summing over the split,
    r_i(G+H) = sum over k + l = i of
    (q_k(G) if l = |H| else C(|G|, k)) * (q_l(H) if k = |G| else C(|H|, l)).
    A graph operand is read as ``Raw(graph)``. The joined graph is never
    built: only non-complete operands are built and walked, and the walk's
    64-vertex guardrail refuses them, left first, before any binomial. A
    join with the order-0 graph is the other operand itself: the law gives
    its binomials when it is complete, and any other is walked whole.
    """
    g, h = [Raw(o) if isinstance(o, Graph) else o for o in (g, h)]
    for other, empty in (g, h), (h, g):
        n, m = spec_size(other)
        if m < n * (n - 1) // 2:
            _check_pruned_guardrail(n)  # the walk's refusal, before any binomial or build
            if spec_size(empty)[0] == 0:
                return polynomial_pruned(other)
    (cg, qg), (ch, qh) = _join_rows(g), _join_rows(h)
    m, n = len(cg) - 1, len(ch) - 1
    coeffs = [0] * (m + n + 1)
    for k in range(m + 1):
        for l in range(n + 1):
            coeffs[k + l] += (qg[k] if l == n else cg[k]) * (qh[l] if k == m else ch[l])
    return Polynomial(tuple(coeffs))


# closed form of each family of classes._FAMILIES, called with the spec's fields
_CLOSED_FORMS = {
    Path: poly_path,
    Cycle: poly_cycle,
    Complete: poly_complete,
    Star: poly_star,
    CompleteBipartite: poly_complete_bipartite,
}


def poly_for_class(spec: ClassSpec) -> Polynomial:
    """Dispatch a class spec to its closed form or composition law.

    The result is always the true visibility polynomial. Only ``Raw`` specs
    and the non-complete operands of a ``Join`` are built and enumerated.
    """
    if type(spec) in _CLOSED_FORMS:
        return _CLOSED_FORMS[type(spec)](*spec._values(spec))
    if isinstance(spec, Join):
        return poly_join(spec.left, spec.right)
    if isinstance(spec, DisjointUnion):
        return poly_disconnected([poly_for_class(part) for part in spec.parts])
    return polynomial_pruned(spec)
