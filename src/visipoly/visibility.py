"""Mutual-visibility membership testing and per-graph statistics.

A set X is a mutual-visibility set when every pair u, v in X has some
shortest u-v path whose internal vertices all avoid X. The membership test
runs one BFS per source u in X and then clears vertices in nondecreasing
distance order: a vertex is clear when some neighbour one layer closer to u
is clear and is not an element of X other than u itself. The pair (u, v) is
u-visible exactly when v ends up clear. Layers are bitmasks, so each layer
step is a handful of integer operations.

``VisibilityContext`` is the one per-graph distance table: a single BFS
pass per source gives both the layer masks the test runs over and the
distance rows that diameters and intervals are read from.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Mapping, Sequence, Tuple

from .errors import ParameterError
from .graph import Graph, bfs


def _visible_from_source(adj: Sequence[int], layers: Sequence[int], u: int, x_mask: int) -> bool:
    """True when every member of x_mask is clear from source u.

    ``layers`` are the BFS layer masks from u. Propagation stops early once
    all members are cleared, a member's layer is reached without clearing it,
    or the clear frontier dies out.
    """
    ubit = 1 << u
    remaining = x_mask & ~ubit
    allowed = ~remaining
    frontier = ubit
    for d in range(1, len(layers)):
        layer = layers[d]
        cleared = 0
        m = frontier
        while m:
            low = m & -m
            cleared |= adj[low.bit_length() - 1]
            m ^= low
        cleared &= layer
        targets = remaining & layer
        if targets & ~cleared:
            return False
        remaining &= ~targets
        if not remaining:
            return True
        if not cleared:
            return False
        frontier = cleared & allowed
    return not remaining


class VisibilityContext:
    """The per-graph distance table, reused across many membership tests.

    Building the context costs one BFS per vertex, which yields both tables:
    ``layers[u]`` holds the BFS layer masks from u (index = distance) and
    ``rows[u]`` the distances from u, with -1 marking unreachable vertices.
    Afterwards each test is a short pass over the precomputed layer masks.
    Instances are immutable and safe to share between workers.
    """

    __slots__ = ("n", "adj", "layers", "rows")

    def __init__(self, graph: Graph):
        self.n = graph.n
        self.adj = graph.adj
        tables = [bfs(graph.adj, src) for src in range(graph.n)]
        self.layers = tuple([layers for layers, _ in tables])
        self.rows = tuple([row for _, row in tables])

    def is_mv(self, x_mask: int, members: Sequence[int]) -> bool:
        """Membership test for the set with bitmask x_mask and vertex list members."""
        adj = self.adj
        layers = self.layers
        for u in members:
            if not _visible_from_source(adj, layers[u], u, x_mask):
                return False
        return True


def is_mutual_visibility_set(ctx: VisibilityContext, x: Iterable[int]) -> bool:
    """True iff every pair in x is x-visible in the context's graph.

    Sets of size 0 or 1 are trivially mutual-visibility sets. Pairs lying in
    different components are never x-visible, so any such x fails.
    """
    members = sorted(set(x))
    x_mask = 0
    for v in members:
        if not 0 <= v < ctx.n:
            raise ParameterError(f"vertex {v} out of range for order {ctx.n}")
        x_mask |= 1 << v
    return ctx.is_mv(x_mask, members)


@dataclass(frozen=True, eq=True)
class VisStats:
    """Per-graph mutual-visibility statistics.

    ``theta`` maps (size, diameter) to the number of mutual-visibility sets
    of that size whose maximum pairwise distance (measured in the whole
    graph) is that diameter; zero entries are omitted. ``cliques`` maps k to
    the k-clique count for every k up to the requested bound.
    """

    mu: int
    r_mu: int
    theta: Mapping[Tuple[int, int], int]
    cliques: Mapping[int, int]

    def to_json_dict(self) -> dict:
        return {
            "mu": self.mu,
            "r_mu": self.r_mu,
            "theta": [[k, d, c] for (k, d), c in sorted(self.theta.items())],
            "cliques": [[k, c] for k, c in sorted(self.cliques.items())],
        }


def compute_stats(g: Graph, k_max: int | None = None) -> VisStats:
    """Exact theta and clique tables for sizes up to k_max, plus mu and r_mu.

    A view over the (size, diameter) table of ``count_by_size_and_diameter``,
    so the same pruned walk and the same 64-vertex guardrail apply. mu and
    r_mu come from the table's per-size sums over all sizes, independent of
    k_max; theta and cliques stop at k_max. A clique is exactly a
    mutual-visibility set of diameter at most 1, so c_0 = 1, c_1 = n and
    c_k = Theta(k, 1) for k >= 2.
    """
    from .enumeration import count_by_size_and_diameter

    n = g.n
    if k_max is None:
        k_max = n
    if not 0 <= k_max <= n:
        raise ParameterError(f"k_max {k_max} out of range for order {n}")
    table = count_by_size_and_diameter(g)
    mu = max((k for k, _ in table), default=0)
    r_mu = sum(c for (k, _), c in table.items() if k == mu) if mu else 1
    theta = {key: c for key, c in table.items() if key[0] <= k_max}
    cliques = {k: table.get((k, 1), 0) if k > 1 else (1, n)[k] for k in range(k_max + 1)}
    return VisStats(mu=mu, r_mu=r_mu, theta=theta, cliques=cliques)


def _clique_counts(adj: Sequence[int], cand: int, k_max: int) -> list[int]:
    """Counts of the k-cliques inside the mask cand for k = 0..k_max.

    The empty set counts as the 0-clique. A stack node (cand, size) stands for
    one clique of that size, and cand holds the vertices above its maximum
    that are adjacent to all of it. When the p vertices of cand are pairwise
    adjacent, every j-subset of them extends the clique, so the node adds
    C(p, j) to size + j and is not expanded. Only the bits of ``adj[v]``
    inside cand are read.
    """
    counts = [0] * (k_max + 1)
    counts[0] = 1
    if k_max == 0:
        return counts
    stack = [(cand, 0)]
    while stack:
        cand, size = stack.pop()
        children = []
        closed = True
        m = cand
        while m:
            low = m & -m
            m ^= low
            child = m & adj[low.bit_length() - 1]
            if child != m:
                closed = False
            if child:
                children.append(child)
        if closed:
            p = cand.bit_count()
            for j in range(1, min(p, k_max - size) + 1):
                counts[size + j] += comb(p, j)
        else:
            counts[size + 1] += cand.bit_count()
            if size + 1 < k_max:
                stack.extend((child, size + 1) for child in children)
    return counts


def clique_count(g: Graph, k: int) -> int:
    """Number of k-subsets inducing complete subgraphs; c_0 = 1 by convention."""
    if not 0 <= k <= g.n:
        raise ParameterError(f"clique size {k} out of range for order {g.n}")
    return _clique_counts(g.adj, (1 << g.n) - 1, k)[k]

