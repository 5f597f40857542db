"""Visibility polynomial computation by subset enumeration.

Two engines produce the same coefficient vector. The brute-force engine
tests every subset of every size, exactly the shape whose total cost is
O(|V| (|V|+|E|) 2^|V|). It tests them in bit slices: the 2^14 subsets of
the low 14 vertices are the bit positions of one integer, each vertex's
membership and each subset size is a fixed pattern over those bits, and
one clear-set propagation per source, made of integer ORs and ANDs, tests
every subset of a block at once; the high vertices are fixed per block.
It shares only the BFS layers with the walks below.

The pruned engine walks a depth-first set-enumeration tree instead: a node
holds a mutual-visibility set and extends it only with vertices above its
maximum, and a child that fails the membership test is cut off together
with its whole subtree. The pruning is sound because the property is
hereditary: every subset of a mutual-visibility set is one, so no failing
set has a passing superset.

The walk runs on an explicit stack and tests each child incrementally:

- Candidate mask. A node carries the vertices above its maximum that
  passed at its parent. By heredity no other vertex can pass, so a vertex
  that failed at an ancestor is never tested again (as in Bron-Kerbosch).
- Interval filter. Adding v to X is accepted when every member sees v and
  v blocks no pair of members. The first condition is one clear-set
  propagation per member for all candidates at once, or one test from each
  candidate when there are fewer candidates than members. For the second,
  a node keeps, per member u, the union of the interiors of the intervals
  I(u, w) over the later members w; only a candidate inside that union can
  block a pair starting at u, so any other candidate needs no test. A vertex
  alone at its distance from u in I(u, w) lies on every shortest u-w path,
  so it leaves the candidates of every set holding u and w untested.
- Closure shortcut. When the node's members together with all passed
  candidates form a mutual-visibility set, every combination of the p
  candidates is one too, so the subtree is counted and not walked. For the
  polynomial the node adds C(p, j) to coefficient |X| + j. For the
  (size, diameter) table it counts, for each distinct diameter D in
  increasing order, the cliques of the graph joining the candidates within
  distance D of each other and of every member; the cliques new at D are
  the sets of diameter D.

The counting calls (``polynomial_pruned``, ``count_by_size_and_diameter``,
``run_batch``) run this walk in C: ``_walk.c`` ports it on 64-bit masks, one
call per list of graphs (a chunk of records for ``run_batch``, a list of one
otherwise), and ``_native`` builds it with the system C compiler on first
use. The native walk visits the same nodes and makes the same tests, so it
reports the same counters. Without a compiler they run the Python walk
below, which stays the reference; ``iter_mv_sets`` and brute force always
run in Python.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import GuardrailError
from .graph import Graph, iter_bits
from .polynomial import Polynomial
from .visibility import VisibilityContext, _clique_counts, _visible_from_source

BRUTEFORCE_MAX_VERTICES = 25
SLICE_VERTICES = 14  # brute force tests the 2^14 subsets of one block at once
PRUNED_MAX_VERTICES = 64


def polynomial_bruteforce(g: Graph) -> Polynomial:
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
    n = g.n
    if n > BRUTEFORCE_MAX_VERTICES:
        raise GuardrailError(
            f"brute force over 2^{n} subsets refused (limit {BRUTEFORCE_MAX_VERTICES} vertices); "
            "use polynomial_pruned or a closed form"
        )
    low = min(n, SLICE_VERTICES)
    # Bit s of low_member[w] says w is in subset s of the low vertices, and
    # bit s of size[k] says that subset has k vertices.
    width = 1
    low_member: List[int] = []
    size = [1]
    for _ in range(low):
        low_member = [m | m << width for m in low_member]
        low_member.append(((1 << width) - 1) << width)
        size = [a | b << width for a, b in zip(size + [0], [0] + size)]
        width <<= 1
    full = (1 << width) - 1

    # For each source u: every vertex w it reaches, in BFS order, with w's
    # predecessors one layer closer to u (the first apart), and the later
    # vertices it does not reach.
    layers = VisibilityContext(g).layers
    steps = []
    for u in range(n):
        lu = layers[u]
        order = []
        reached = 1 << u
        for d in range(1, len(lu)):
            reached |= lu[d]
            for w in iter_bits(lu[d]):
                first, *rest = iter_bits(g.adj[w] & lu[d - 1])
                order.append((w, first, rest))
        steps.append((order, list(iter_bits(((1 << n) - 1) & ~reached & ~((2 << u) - 1)))))

    counts = [0] * (n + 1)
    for high in range(1 << (n - low)):
        member = low_member + [full if high >> j & 1 else 0 for j in range(n - low)]
        good = full ^ _bad_subsets(member, full, steps)
        offset = high.bit_count()
        for k, pattern in enumerate(size):
            counts[offset + k] += (good & pattern).bit_count()
    return Polynomial(tuple(counts))


def _bad_subsets(
    member: Sequence[int],
    full: int,
    steps: Sequence[Tuple[List[Tuple[int, int, List[int]]], List[int]]],
) -> int:
    """The subsets of one block that are not mutual-visibility sets, as a bit slice.

    ``member[w]`` has bit s set when vertex w is in subset s, and ``full``
    has one bit per subset of the block. From each source u, clear[w] holds
    the subsets with a shortest u-w path whose interior avoids the set: the
    union, over the BFS predecessors p of w, of clear[p] without the subsets
    that hold p, where the source itself never blocks. A subset is bad when
    it holds some u < w with w not clear from u. A vertex in no subset of
    the block (a high vertex left out) is neither a source nor a blocker.
    """
    n = len(member)
    opened = [full ^ m for m in member]
    passes = [0] * n
    bad = 0
    for u, (order, unreached) in enumerate(steps):
        mu = member[u]
        if not mu:
            continue
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
    return bad


def _clear_targets(
    adj: Sequence[int], layers: Sequence[int], u: int, x_mask: int, targets: int
) -> int:
    """The vertices of ``targets`` that are clear from u when x_mask is in the way.

    A vertex w is clear when some shortest u-w path has no interior vertex in
    x_mask. ``targets`` must avoid x_mask. This is the propagation of
    ``_visible_from_source`` run for every target at once.
    """
    allowed = ~x_mask
    frontier = 1 << u
    clear = 0
    for d in range(1, len(layers)):
        layer = layers[d]
        cleared = 0
        m = frontier
        while m:
            low = m & -m
            cleared |= adj[low.bit_length() - 1]
            m ^= low
        cleared &= layer
        reached = targets & layer
        if reached:
            clear |= reached & cleared
            targets ^= reached
            if not targets:
                break
        frontier = cleared & allowed
        if not frontier:
            break
    return clear


def _walk_mv_sets(
    ctx: VisibilityContext,
    sink: Union[List[int], Dict[Tuple[int, int], int], None] = None,
    counters: Optional[dict] = None,
) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """Yield (vertices, diameter) for every nonempty mutual-visibility set.

    Sets come in lexicographic order of their sorted vertex tuples, which is
    the pre-order of the tree. Members of one set always sit in one
    component, so the distances involved are finite.

    With a sink the walk yields nothing and counts every set into the sink
    instead: a list is indexed by size, a dict is keyed by (size, diameter).
    A node whose members together with all its passed candidates form a
    mutual-visibility set then counts its whole subtree without walking it.

    When the walk ends, ``counters`` (if given) gains the nodes popped,
    the nodes closed by that shortcut and the membership propagations
    (``_visible_from_source`` and ``_clear_targets`` calls, those of
    ``_closes`` included). The native walk of ``_walk.c`` reports the same.
    """
    n = ctx.n
    adj = ctx.adj
    layers = ctx.layers
    dist = ctx.rows
    by_size = isinstance(sink, list)
    intervals: List[Optional[Tuple[int, int]]] = [None] * (n * n)
    balls = [[1 << v for v in range(n)]]

    def ball_row(d: int) -> List[int]:
        """The mask of the vertices within distance d of each vertex."""
        while len(balls) <= d:
            r = len(balls)
            balls.append([b | lv[r] if r < len(lv) else b for b, lv in zip(balls[-1], layers)])
        return balls[d]

    def interval(u: int, v: int) -> Tuple[int, int]:
        """The interior of the interval I(u, v) and the part of it on every shortest path.

        The interior holds the inner vertices of shortest u-v paths; a
        vertex alone at its distance from u among them lies on every one.
        When no path joins u and v, every vertex counts as a cut.
        """
        found = intervals[u * n + v]
        if found is None:
            span = dist[u][v]
            if span < 0:
                return 0, -1
            lu = layers[u]
            lv = layers[v]
            inner = cuts = 0
            for d in range(1, span):
                layer = lu[d] & lv[span - d]
                inner |= layer
                if layer & (layer - 1) == 0:
                    cuts |= layer
            found = intervals[u * n + v] = intervals[v * n + u] = (inner, cuts)
        return found

    # A node is (mask, members, diameter, cand, spans). cand holds the
    # vertices above the maximum that passed at the parent; spans[i] is the
    # union of the interiors of I(members[i], w) over the later members w.
    nodes = closed = propagations = 0
    in_closes = [0]  # the propagations of _closes
    stack = [(0, (), 0, (1 << n) - 1, ())]
    while stack:
        mask, members, diam, cand, spans = stack.pop()
        nodes += 1
        if members:
            if sink is None:
                yield members, diam
            elif by_size:
                sink[len(members)] += 1
            else:
                key = (len(members), diam)
                sink[key] = sink.get(key, 0) + 1
        if not cand:
            continue
        passed = cand
        # 1. Every member must see the candidate.
        if cand.bit_count() > len(members):
            for u in members:
                propagations += 1
                passed &= _clear_targets(adj, layers[u], u, mask, passed)
                if not passed:
                    break
        else:
            propagations += cand.bit_count()
            for v in iter_bits(cand):
                if not _visible_from_source(adj, layers[v], v, mask | 1 << v):
                    passed ^= 1 << v
        # 2. A candidate can only block a pair of members that it lies
        # between; the test from the pair's first member covers the pair.
        for u, span in zip(members, spans):
            inside = passed & span
            propagations += inside.bit_count()
            while inside:
                vbit = inside & -inside
                inside ^= vbit
                if not _visible_from_source(adj, layers[u], u, mask | vbit):
                    passed ^= vbit
        if not passed:
            continue

        if sink is not None and _closes(
            in_closes, adj, layers, interval, members, spans, mask, passed
        ):
            closed += 1
            if by_size:
                size = len(members)
                p = passed.bit_count()
                for j in range(1, p + 1):
                    sink[size + j] += comb(p, j)
            else:
                _count_closed_theta(sink, dist, ball_row, members, diam, passed)
            continue

        children = []
        for v in iter_bits(passed):
            vbit = 1 << v
            rest = passed & ~((vbit << 1) - 1)
            row = dist[v]
            child_diam = diam
            for w in members:
                if row[w] > child_diam:
                    child_diam = row[w]
            child_spans: Tuple[int, ...] = ()
            if rest:
                # A vertex on every shortest path between two members can
                # never join them, so it leaves the candidates for good.
                grown = []
                for w, span in zip(members, spans):
                    inner, cuts = interval(w, v)
                    grown.append(span | inner)
                    rest &= ~cuts
                if rest:
                    child_spans = tuple(grown) + (0,)
            children.append((mask | vbit, members + (v,), child_diam, rest, child_spans))
        children.reverse()
        stack.extend(children)
    if counters is not None:
        for name, value in (("nodes", nodes), ("closed", closed),
                            ("propagations", propagations + in_closes[0])):
            counters[name] = counters.get(name, 0) + value


def _closes(
    propagations: List[int],
    adj: Sequence[int],
    layers: Sequence[Sequence[int]],
    interval: Callable[[int, int], Tuple[int, int]],
    members: Sequence[int],
    spans: Sequence[int],
    mask: int,
    passed: int,
) -> bool:
    """True when the members plus all passed candidates form a mutual-visibility set.

    The members plus any one candidate are known to pass, so a pair can only
    fail when the other candidates add a blocker inside its interval. A test
    from a vertex covers every pair holding it. The other pairs are settled
    from the intervals: a pair of members can only fail when at least two
    candidates lie in the first member's span, a member and a candidate
    when another candidate lies between them, and two candidates when any
    vertex of the set does. A blocker that cuts its pair fails at once.
    Each membership propagation it runs is added to ``propagations[0]``.
    """
    if passed & (passed - 1) == 0:
        return True
    x_mask = mask | passed
    tested = []
    untested = []
    for u, span in zip(members, spans):
        inside = span & passed
        if inside & (inside - 1):
            tested.append(u)
        else:
            untested.append(u)
    seen = []
    m = passed
    while m:
        low = m & -m
        m ^= low
        s = low.bit_length() - 1
        others = passed ^ low
        for w in untested:
            inner, cuts = interval(w, s)
            if cuts & others:
                return False
            if inner & others:
                break
        else:
            for t in seen:
                inner, cuts = interval(t, s)
                if cuts & x_mask:
                    return False
                if inner & x_mask:
                    break
            else:
                seen.append(s)
                continue
        propagations[0] += 1
        if not _visible_from_source(adj, layers[s], s, x_mask):
            return False
    for u in tested:
        propagations[0] += 1
        if not _visible_from_source(adj, layers[u], u, x_mask):
            return False
    return True


def _count_closed_theta(
    table: Dict[Tuple[int, int], int],
    dist: Sequence[Sequence[int]],
    ball_row: Callable[[int], Sequence[int]],
    members: Sequence[int],
    diam: int,
    passed: int,
) -> None:
    """Add to ``table`` the sets X + S for every nonempty S within ``passed``.

    X (the members, of diameter ``diam``) together with all of ``passed`` must
    be a mutual-visibility set. The diameter of X + S is the largest of e(s)
    over s in S, where e(s) is the larger of diam and the farthest member
    from s, and of d(s, t) over s, t in S. So the sets S of diameter at most
    D are the cliques of H_D, the graph on the candidates with e(s) <= D
    whose edges join candidates at distance at most D, and the cliques that
    H_D adds to the previous threshold's graph are the sets of diameter D.
    """
    size = len(members)
    cands = []
    ecc = []
    m = passed
    while m:
        low = m & -m
        m ^= low
        v = low.bit_length() - 1
        row = dist[v]
        e = diam
        for w in members:
            if row[w] > e:
                e = row[w]
        cands.append(v)
        ecc.append(e)
    p = len(cands)
    if p == 1:
        key = (size + 1, ecc[0])
        table[key] = table.get(key, 0) + 1
        return
    first = min(ecc)
    levels = set(ecc)
    for i in range(1, p):
        row = dist[cands[i]]
        for t in cands[:i]:
            if row[t] > first:
                levels.add(row[t])
    levels = sorted(levels)
    previous = [1] + [0] * p
    for d in levels:
        if d == levels[-1]:
            # Every candidate and every pair lies within the last level.
            cliques = [comb(p, j) for j in range(p + 1)]
        else:
            vertices = 0
            for v, e in zip(cands, ecc):
                if e <= d:
                    vertices |= 1 << v
            cliques = _clique_counts(ball_row(d), vertices, p)
        for j in range(1, p + 1):
            new = cliques[j] - previous[j]
            if new:
                key = (size + j, d)
                table[key] = table.get(key, 0) + new
        previous = cliques


def iter_mv_sets(g: Graph) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """Public wrapper around the pruned walk: (vertices, diameter) pairs."""
    _check_pruned_guardrail(g.n)
    yield from _walk_mv_sets(VisibilityContext(g))


def _check_pruned_guardrail(n: int) -> None:
    if n > PRUNED_MAX_VERTICES:
        raise GuardrailError(
            f"enumeration is limited to {PRUNED_MAX_VERTICES} vertices, got {n}; "
            "use a closed form"
        )


def _count_sets(graphs: Sequence[Graph], theta: bool, counters: Optional[dict] = None) -> list:
    """Counts of the nonempty mutual-visibility sets of each graph, by size or by (size, diameter).

    Per graph, a list indexed by size (entry 0 left at 0) or a dict keyed by
    (size, diameter). The native walk counts all the graphs in one call when
    it can be built; otherwise the Python walk counts them one by one, each
    over a ``VisibilityContext``. Both give the same counts and add the same
    ``counters``, summed over the graphs.
    """
    from . import _native  # not at package import: it may build the library

    for g in graphs:
        _check_pruned_guardrail(g.n)
    walk = _native.load()
    if walk is not None:
        return walk([g.adj for g in graphs], theta, counters)
    sinks: List[Union[List[int], Dict[Tuple[int, int], int]]] = []
    for g in graphs:
        sinks.append({} if theta else [0] * (g.n + 1))
        for _ in _walk_mv_sets(VisibilityContext(g), sinks[-1], counters):
            pass
    return sinks


def polynomial_pruned(g: Graph) -> Polynomial:
    """Visibility polynomial via the pruned set-enumeration tree.

    Output contract is identical to polynomial_bruteforce.
    """
    (counts,) = _count_sets([g], theta=False)
    counts[0] = 1
    return Polynomial(tuple(counts))


def count_by_size_and_diameter(g: Graph) -> Dict[Tuple[int, int], int]:
    """Map (size, diameter) -> number of mutual-visibility sets of that shape.

    Same enumeration as polynomial_pruned; the empty set is not classified.
    """
    (table,) = _count_sets([g], theta=True)
    return table
