"""Mutual-visibility membership testing, and the Python reference clique counter.

A set X is a mutual-visibility set when every pair u, v in X has some
shortest u-v path whose internal vertices all avoid X. ``_bad_subsets`` is
the package's one membership test. It tests many sets at once, one per bit,
clearing vertices from each source in the BFS order of ``_search``, the
package's one breadth-first search. Brute force tests the subsets of 14
vertices in one slice, the plain walk all children of a node, and
``VisibilityContext.is_mv`` a single set. ``VisibilityContext`` is the
per-graph table of the searches, with the distance rows that diameters and
intervals are read from. The per-graph statistics, ``compute_stats``, view the
(size, diameter) table, so they live beside it in ``enumeration``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import comb

from .errors import ParameterError, _integer, _Record
from .graph import Graph, iter_bits

Steps = tuple[list[tuple[int, int, Sequence[int]]], list[int]]


def _search(adj: Sequence[int]) -> tuple[list[list[int]], list[Steps]]:
    """One breadth-first search from each source: its layer masks and its steps.

    ``layers[u][d]`` holds the vertices at distance d from u. ``steps[u]``
    lists every vertex w that u reaches, in BFS order, with w's predecessors
    one layer closer to u (the first apart), and then the vertices above u
    that u does not reach.
    """
    n = len(adj)
    all_layers = []
    all_steps = []
    for u in range(n):
        layers = [1 << u]
        order = []
        seen = previous = 1 << u
        reach = adj[u]
        while reach & ~seen:
            layer = reach & ~seen
            layers.append(layer)
            seen |= layer
            reach = 0
            m = layer
            while m:
                wbit = m & -m
                m ^= wbit
                w = wbit.bit_length() - 1
                reach |= adj[w]
                preds = adj[w] & previous
                first = preds & -preds
                preds ^= first
                rest = ()  # shared while w has one predecessor, the common case
                if preds:
                    rest = []
                    while preds:
                        p = preds & -preds
                        rest.append(p.bit_length() - 1)
                        preds ^= p
                order.append((w, first.bit_length() - 1, rest))
            previous = layer
        all_layers.append(layers)
        all_steps.append((order, list(iter_bits(((1 << n) - 1) & ~seen & ~((2 << u) - 1)))))
    return all_layers, all_steps


def _bad_subsets(member: Sequence[int], full: int, steps: Sequence[Steps]) -> int:
    """The sets of one slice that are not mutual-visibility sets, as a bit slice.

    ``member[w]`` has bit s set when vertex w is in set s, ``full`` has one
    bit per set of the slice, and ``steps[u]`` comes from ``_search``. From
    each source u, clear[w] holds the sets with a shortest u-w path whose
    interior avoids the set: the union, over the BFS predecessors p of w, of
    clear[p] without the sets that hold p, where the source itself never
    blocks. A set is bad when it holds some u < w with w not clear from u,
    so a source runs only for the sets that also hold a later vertex. A
    vertex in no set of the slice is neither a source nor a blocker.
    """
    n = len(member)
    opened = [full ^ m for m in member]
    passes = [0] * n
    later = 0  # the sets holding a vertex above u
    bad = 0
    for u in range(n - 1, -1, -1):
        mu = member[u]
        if mu & later:
            order, unreached = steps[u]
            passes[u] = full
            missed = 0
            for w in unreached:
                missed |= member[w]
            for w, first, rest in order:
                clear = passes[first]
                for p in rest:
                    clear |= passes[p]
                mw = member[w]
                if mw:
                    passes[w] = clear & opened[w]
                    if w > u:
                        missed |= mw & ~clear
                else:
                    passes[w] = clear
            bad |= mu & missed
        later |= mu
    return bad


class VisibilityContext:
    """The per-graph distance table, reused across many membership tests.

    Building the context costs one ``_search``: ``layers[u]`` holds the BFS
    layer masks from u (index = distance), ``rows[u]`` the distances from
    u, with -1 marking unreachable vertices, and ``steps[u]`` what
    ``_bad_subsets`` runs over from u. Instances refuse assignment and
    deletion, as records do, and are safe to share between workers.
    """

    __slots__ = ("n", "layers", "rows", "steps")
    __setattr__, __delattr__, _set = _Record.__setattr__, _Record.__delattr__, _Record._set

    def __init__(self, graph: Graph):
        layers, steps = _search(graph.adj)
        rows = []
        for source in layers:
            row = [-1] * graph.n
            for d, layer in enumerate(source):
                for w in iter_bits(layer):
                    row[w] = d
            rows.append(tuple(row))
        self._set(graph.n, tuple([tuple(row) for row in layers]), tuple(rows), tuple(steps))

    def __setstate__(self, state):  # pickle and copy pass the slots' values here
        self._set(*[state[1][name] for name in self.__slots__])

    def is_mv(self, x_mask: int, members: Sequence[int]) -> bool:
        """Membership test for the set x_mask (vertex list members), a one-bit slice."""
        return not _bad_subsets([x_mask >> w & 1 for w in range(self.n)], 1, self.steps)


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
    _integer(k, "clique size")
    if not 0 <= k <= g.n:
        raise ParameterError(f"clique size {k} out of range for order {g.n}")
    return _clique_counts(g.adj, (1 << g.n) - 1, k)[k]

