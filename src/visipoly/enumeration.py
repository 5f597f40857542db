"""Visibility polynomial computation by subset enumeration.

Brute force tests every subset of every size, exactly the shape whose total
cost is O(|V| (|V|+|E|) 2^|V|). It tests them in bit slices: the 2^14
subsets of the low 14 vertices are the bit positions of one integer, each
vertex's membership and each subset size is a fixed pattern over those bits,
and one clear-set propagation per source (``visibility._bad_subsets``, made
of integer ORs and ANDs) tests every subset of a block at once; the high
vertices are fixed per block. For the (size, diameter) table it also marks,
per distance d, the subsets that hold a pair at distance d: a passing subset
with two or more vertices has the largest such d as its diameter.

The pruned engine walks a depth-first set-enumeration tree instead: a node
holds a mutual-visibility set and extends it only with vertices above its
maximum that passed at its parent, and a child that fails the membership
test is cut off together with its whole subtree. The pruning is sound
because the property is hereditary: every subset of a mutual-visibility set
is one, so no failing set has a passing superset. The plain walk of
``iter_mv_sets`` tests all children of a node with one run of the same
propagation, one child per bit.

The counting calls (``polynomial_pruned`` and ``count_by_size_and_diameter``,
on a ``Graph`` or a spec, see ``_graph``, and ``run_batch``) run that walk in
C, with the candidate filters and the closure shortcut that ``_walk.c``
specifies, one call per graph (``run_batch`` hands a chunk's short-form records
to the native graph6 decoder in one call and counts each other record on its
own); ``_native`` builds it with the system C compiler on first use. Without a
compiler they count a graph of up to ``BRUTEFORCE_MAX_VERTICES`` vertices by
brute force and a larger one with the plain walk of ``iter_mv_sets``, which has
neither the filters nor the shortcut.

``compute_stats`` and its record ``VisStats`` are the per-graph statistics, a
view over the (size, diameter) table that ``count_by_size_and_diameter`` counts.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Mapping
from functools import lru_cache
from time import perf_counter

from .classes import ClassSpec, build_class, spec_size
from .errors import GuardrailError, ParameterError, _integer, _Record
from .graph import Graph, iter_bits
from .polynomial import Polynomial
from .visibility import VisibilityContext, _bad_subsets, _search

BRUTEFORCE_MAX_VERTICES = 25
SLICE_VERTICES = 14  # brute force tests the 2^14 subsets of one block at once
PRUNED_MAX_VERTICES = 64
_recorder = None  # or a dict: _count_sets sets the "walk" it ran, adds its load seconds to "load_s"

def polynomial_bruteforce(g: Graph | ClassSpec) -> Polynomial:
    """Visibility polynomial by testing all subsets, a block of 2^14 at a time.

    Coefficient k is the number of mutual-visibility sets of cardinality k;
    the empty set contributes coefficient 1 at degree 0. The subsets of the
    low L = min(n, ``SLICE_VERTICES``) vertices are the bit positions of one
    integer, and each of the 2^(n-L) blocks fixes which high vertices are
    in the set. Per block, ``_bad_subsets`` runs one clear-set propagation
    from each vertex for all the block's subsets at once and marks every
    subset with a pair that does not see each other: still O(n (n+m) 2^n)
    bit operations, with no heredity and no pruning.
    """
    g = _graph(g, _check_bruteforce_guardrail)
    return Polynomial(tuple(_bruteforce_counts(g, theta=False)))


@lru_cache(maxsize=None)
def _patterns(low: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The membership pattern of each of ``low`` vertices and the pattern of each size.

    Over the 2^low subsets of the low vertices, bit s of member[w] says w is
    in subset s, and bit s of size[k] says subset s has k vertices. Each is
    doubled from the patterns of low - 1, once per ``low`` (at most 15).
    """
    if not low:
        return (), (1,)
    member, size = _patterns(low - 1)
    width = 1 << (low - 1)
    member = tuple([m | m << width for m in member]) + (((1 << width) - 1) << width,)
    size = tuple([a | b << width for a, b in zip(size + (0,), (0,) + size)])
    return member, size


def _bruteforce_counts(g: Graph, theta: bool) -> list[int] | dict[tuple[int, int], int]:
    """Brute-force counts of the mutual-visibility sets, one entry of ``_count_sets``.

    A list indexed by size (entry 0 is 1, the empty set), or with ``theta``
    a dict keyed by (size, diameter) of the nonempty sets. For the
    diameters, each block also collects per distance d the subsets holding
    a pair of vertices at distance d; a subset of the block that holds no
    pair farther apart has diameter d. Singletons have diameter 0. The count
    by size pays for none of this.
    """
    n = g.n
    low = min(n, SLICE_VERTICES)
    low_member, size = _patterns(low)
    full = (1 << (1 << low)) - 1

    # With theta, per source u and distance d from u, the low later vertices
    # as one pattern and the high ones as block-index bits.
    all_layers, steps = _search(g.adj)
    rings: list[list[tuple[int, int]]] = []
    for u, layers in enumerate(all_layers if theta else ()):
        ring = []
        for layer in layers[1:]:
            later = layer >> (u + 1) << (u + 1)
            pattern = 0
            for w in iter_bits(later & ((1 << low) - 1)):
                pattern |= low_member[w]
            ring.append((pattern, later >> low))
        rings.append(ring)

    counts = [[0] * max(n, 1) for _ in range(n + 1)]  # by size, then diameter
    for high in range(1 << (n - low)):
        member = low_member + tuple([full if high >> j & 1 else 0 for j in range(n - low)])
        good = full ^ _bad_subsets(member, full, steps)
        offset = high.bit_count()
        slices = [good]  # slices[d]: the good subsets of diameter d
        if theta:
            at = [0] * n  # at[d]: the subsets holding a pair at distance d
            for u, ring in enumerate(rings):
                if member[u]:
                    for d, (pattern, later_high) in enumerate(ring, 1):
                        at[d] |= member[u] & (full if later_high & high else pattern)
            slices = []
            farther = 0
            for d in range(n - 1, 0, -1):
                slices.append(good & at[d] & ~farther)
                farther |= at[d]
            slices.append(good & ~farther)  # at most one vertex
            slices.reverse()
        for d, sets in enumerate(slices):
            if sets:
                for k, pattern in enumerate(size):
                    counts[offset + k][d] += (sets & pattern).bit_count()
    if theta:
        return {(k, d): c for k, row in enumerate(counts[1:], 1) for d, c in enumerate(row) if c}
    return [row[0] for row in counts]


def iter_mv_sets(g: Graph) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (vertices, diameter) for every nonempty mutual-visibility set.

    The plain walk of the set-enumeration tree. A node holds a set X and
    its candidates, the vertices above its maximum that passed at its
    parent; a candidate v passes when X + v is a mutual-visibility set. One
    ``_bad_subsets`` slice tests all children: the members are in every set
    and candidate i only in set i. Every candidate lies above every member,
    so only the members run as sources. Sets come in lexicographic order of
    their sorted vertex tuples, the pre-order of the tree. Members of one
    set always sit in one component, so the diameters are finite.
    """
    _check_pruned_guardrail(g.n)
    ctx = VisibilityContext(g)
    stack = [((), 0, list(range(g.n)))]
    while stack:
        members, diam, cand = stack.pop()
        if members:
            yield members, diam
        if not cand:
            continue
        full = (1 << len(cand)) - 1
        member = [0] * g.n
        for u in members:
            member[u] = full
        for i, v in enumerate(cand):
            member[v] = 1 << i
        bad = _bad_subsets(member, full, ctx.steps)
        passed = [v for i, v in enumerate(cand) if not bad >> i & 1]
        for i, v in reversed(list(enumerate(passed))):
            child_diam = max([diam] + [ctx.rows[v][u] for u in members])
            stack.append((members + (v,), child_diam, passed[i + 1:]))


def _check_bruteforce_guardrail(n: int) -> None:
    if n > BRUTEFORCE_MAX_VERTICES:
        raise GuardrailError(
            f"brute force over 2^{n} subsets refused (limit {BRUTEFORCE_MAX_VERTICES} vertices); "
            "use polynomial_pruned or a closed form"
        )


def _check_pruned_guardrail(n: int) -> None:
    if n > PRUNED_MAX_VERTICES:
        raise GuardrailError(
            f"enumeration is limited to {PRUNED_MAX_VERTICES} vertices, got {n}; "
            "use a closed form"
        )


def _graph(g: Graph | ClassSpec, check) -> Graph:
    """g itself, or spec g built once its order, read with ``spec_size``, passes ``check``."""
    built = isinstance(g, Graph)
    check(g.n if built else spec_size(g)[0])
    return g if built else build_class(g)


def _count_sets(g: Graph | ClassSpec, theta: bool) -> list[int] | dict[tuple[int, int], int]:
    """Counts of the mutual-visibility sets of graph or spec g, by size or by (size, diameter).

    A list indexed by size (entry 0 is 1, the empty set) or a dict keyed by
    (size, diameter) of the nonempty sets. The native walk counts the graph
    in one call when it can be built. Otherwise brute force counts a graph of
    up to ``BRUTEFORCE_MAX_VERTICES`` vertices and ``iter_mv_sets`` a larger
    one. All of them give the same counts.
    """
    from . import _native  # here, so that `import visipoly` does not load _native too

    g = _graph(g, _check_pruned_guardrail)
    if _recorder is None:
        walk = _native.load()
    else:
        start = perf_counter()
        walk = _native.load()
        _recorder["load_s"] += perf_counter() - start
        _recorder["walk"] = "python" if walk is None else "native"
    if walk is not None:
        return walk(g.adj, theta)
    if g.n <= BRUTEFORCE_MAX_VERTICES:
        return _bruteforce_counts(g, theta)
    if theta:
        return dict(Counter((len(members), diam) for members, diam in iter_mv_sets(g)))
    sizes = Counter(len(members) for members, _ in iter_mv_sets(g))
    return [1] + [sizes[k] for k in range(1, g.n + 1)]


def polynomial_pruned(g: Graph | ClassSpec) -> Polynomial:
    """Visibility polynomial via the pruned set-enumeration tree (see ``_count_sets``).

    Output contract is identical to polynomial_bruteforce.
    """
    return Polynomial(tuple(_count_sets(g, theta=False)))


def count_by_size_and_diameter(g: Graph | ClassSpec) -> dict[tuple[int, int], int]:
    """Map (size, diameter) -> number of mutual-visibility sets of that shape.

    Same enumeration as polynomial_pruned; the empty set is not classified.
    """
    return _count_sets(g, theta=True)


class VisStats(_Record):
    """Per-graph mutual-visibility statistics.

    ``theta`` maps (size, diameter) to the number of mutual-visibility sets
    of that size whose maximum pairwise distance (measured in the whole
    graph) is that diameter; zero entries are omitted. ``cliques`` maps k to
    the k-clique count for every k up to the requested bound.
    """

    __slots__ = ("mu", "r_mu", "theta", "cliques")
    __hash__ = None  # two dicts

    def __init__(self, mu: int, r_mu: int, theta: Mapping[tuple[int, int], int],
                 cliques: Mapping[int, int]):
        self._set(mu, r_mu, theta, cliques)

    def to_json_dict(self) -> dict:
        return {
            "mu": self.mu,
            "r_mu": self.r_mu,
            "theta": [[k, d, c] for (k, d), c in sorted(self.theta.items())],
            "cliques": [[k, c] for k, c in sorted(self.cliques.items())],
        }


def compute_stats(g: Graph | ClassSpec, k_max: int | None = None) -> VisStats:
    """Exact theta and clique tables for sizes up to k_max, plus mu and r_mu, of a graph or spec.

    A view over the (size, diameter) table of ``count_by_size_and_diameter``,
    so the same pruned walk and the same 64-vertex guardrail apply, to a spec's
    order before its build and before k_max, an exact integer, is read. mu and r_mu
    come from the table's per-size sums over all sizes, independent of k_max; theta
    and cliques stop at k_max. A clique is exactly a mutual-visibility set of
    diameter at most 1, so c_0 = 1, c_1 = n and c_k = Theta(k, 1) for k >= 2.
    """
    g = _graph(g, _check_pruned_guardrail)
    n = g.n
    if k_max is None:
        k_max = n
    _integer(k_max, "k_max")
    if not 0 <= k_max <= n:
        raise ParameterError(f"k_max {k_max} out of range for order {n}")
    table = _count_sets(g, theta=True)
    mu = max((k for k, _ in table), default=0)
    r_mu = sum(c for (k, _), c in table.items() if k == mu) if mu else 1
    theta = {key: c for key, c in table.items() if key[0] <= k_max}
    cliques = {k: table.get((k, 1), 0) if k > 1 else (1, n)[k] for k in range(k_max + 1)}
    return VisStats(mu=mu, r_mu=r_mu, theta=theta, cliques=cliques)
