"""Independent reference implementations used only by the tests.

The mutual-visibility oracle enumerates every shortest path of every pair
and checks interior disjointness directly, with no layered propagation and
no pruning, so it shares no code path with the package engines. The
certificates of ``check_certificates`` list no set, so they also check
tables past the sizes anything can enumerate; of the package they read only
the listing clique counter of ``visibility``, which the walk does not use.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import combinations, permutations
from math import comb

from visipoly import Graph, Polynomial, iter_bits
from visipoly.visibility import _clique_counts


def shortest_path_lengths(g: Graph, source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        w = queue.popleft()
        for nb in iter_bits(g.adj[w]):
            if nb not in dist:
                dist[nb] = dist[w] + 1
                queue.append(nb)
    return dist


def all_shortest_paths(g: Graph, u: int, v: int) -> list[list[int]]:
    """Every shortest u-v path, as vertex lists; empty when unreachable."""
    dist = shortest_path_lengths(g, u)
    if v not in dist:
        return []
    paths: list[list[int]] = []

    def walk_back(w: int, tail: list[int]):
        if w == u:
            paths.append([u] + tail)
            return
        for p in iter_bits(g.adj[w]):
            if dist.get(p) == dist[w] - 1:
                walk_back(p, [w] + tail)

    walk_back(v, [])
    return paths


def oracle_is_mv(g: Graph, x) -> bool:
    """Pairwise definition, checked path by path."""
    members = sorted(set(x))
    xs = set(members)
    for u, v in combinations(members, 2):
        if not any(
            xs.isdisjoint(path[1:-1]) for path in all_shortest_paths(g, u, v)
        ):
            return False
    return True


def oracle_polynomial(g: Graph) -> Polynomial:
    """Coefficient vector by exhaustive subset enumeration over the oracle."""
    counts = [0] * (g.n + 1)
    counts[0] = 1
    vertices = range(g.n)
    for k in range(1, g.n + 1):
        for combo in combinations(vertices, k):
            if oracle_is_mv(g, combo):
                counts[k] += 1
    return Polynomial(tuple(counts))


def oracle_mv_sets(g: Graph) -> set[frozenset[int]]:
    """All mutual-visibility sets, the empty set included.

    The same pairwise check as ``oracle_is_mv``, with the shortest paths of
    each pair listed once per graph instead of once per subset.
    """
    paths = {pair: all_shortest_paths(g, *pair) for pair in combinations(range(g.n), 2)}
    out = {frozenset()}
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            xs = set(combo)
            if all(
                any(xs.isdisjoint(path[1:-1]) for path in paths[pair])
                for pair in combinations(combo, 2)
            ):
                out.add(frozenset(combo))
    return out


def oracle_theta(g: Graph) -> dict[tuple[int, int], int]:
    """(size, diameter) table of the oracle's mutual-visibility sets, diameters by BFS."""
    dist = [shortest_path_lengths(g, u) for u in range(g.n)]
    table: dict[tuple[int, int], int] = {}
    for x in oracle_mv_sets(g):
        if not x:
            continue
        diam = max(dist[u][v] for u in x for v in x)
        table[(len(x), diam)] = table.get((len(x), diam), 0) + 1
    return table


def small_theta(g: Graph) -> dict[tuple[int, int], int]:
    """Theta(k, d) for k <= 3, from the distances alone and listing no set.

    Theta(1, 0) = n, and Theta(2, d) is the number of pairs at distance d. A
    triple inside one component fails exactly when one of its vertices c lies
    on every shortest path between the other two, a and b: c is then the only
    vertex of I(a, b) at its distance from a, and the triple's diameter is
    d(a, b). At most one vertex of a triple is such a vertex, so Theta(3, d)
    is the number of triples of diameter d less, over the pairs {a, b} at
    distance d, the interior vertices alone at their level of I(a, b).
    """
    dist = [shortest_path_lengths(g, u) for u in range(g.n)]
    table = Counter({(1, 0): g.n})
    for a, b in combinations(range(g.n), 2):
        d = dist[a].get(b)
        if d is None:
            continue
        table[2, d] += 1
        levels = Counter(dist[a][c] for c in dist[a] if dist[a][c] + dist[b][c] == d)
        table[3, d] -= sum(levels[level] == 1 for level in range(1, d))
    for a, b, c in combinations(range(g.n), 3):
        if b in dist[a] and c in dist[a]:
            table[3, max(dist[a][b], dist[a][c], dist[b][c])] += 1
    return {key: count for key, count in table.items() if count}


def check_certificates(g: Graph, table: dict[tuple[int, int], int]) -> None:
    """Assert what every (size, diameter) table of g must meet, without enumerating its sets.

    Sizes 1..3 equal ``small_theta``; Theta(k, 1) is the number of k-cliques
    for k >= 2; and r_k, the sum of Theta(k, d) over d, meets the heredity
    bound k r_k <= (n - k + 1) r_{k-1}, since each k-set has k subsets of size
    k - 1, all mutual-visibility sets, and each (k - 1)-set lies in n - k + 1
    k-sets. On a tree of n >= 2 vertices the top row is checked whole
    (``tree_top_row``). Last, for each diameter bound D the sets of diameter
    at most D are closed under subsets, as a subset's diameter is no larger,
    so they form a simplicial complex, and its face counts f_k(D), the sum of
    Theta(k, d) over d <= D with f_0 = 1, meet the Kruskal-Katona bound
    f_{k-1}(D) >= ``shadow_bound``(f_k(D), k). This reads how the sets of one
    size split by diameter, which no other certificate here does.
    """
    assert {key: count for key, count in table.items() if key[0] <= 3} == small_theta(g), g
    cliques = _clique_counts(g.adj, (1 << g.n) - 1, g.n)
    assert [table.get((k, 1), 0) for k in range(2, g.n + 1)] == cliques[2:], g
    r = [1] + [0] * g.n
    for (k, _), count in table.items():
        r[k] += count
    assert all(k * r[k] <= (g.n - k + 1) * r[k - 1] for k in range(1, g.n + 1)), g
    if g.n >= 2 and g.edge_count == g.n - 1 and len(shortest_path_lengths(g, 0)) == g.n:
        mu = max(k for k in range(g.n + 1) if r[k])
        leaves, product = tree_top_row(g)
        assert mu == leaves, ("a tree's mu is its number of leaves", g)
        if leaves >= 3:
            assert r[mu] == product, ("a tree's r_mu is the product of its pendant paths", g)
    for bound in sorted({d for _, d in table}):
        f = [1] + [0] * g.n
        for (k, d), count in table.items():
            if d <= bound:
                f[k] += count
        assert all(f[k - 1] >= shadow_bound(f[k], k) for k in range(1, g.n + 1)), (
            "Kruskal-Katona fails at diameter bound", bound, g)


def shadow_bound(m: int, k: int) -> int:
    """The fewest (k - 1)-sets that m distinct k-sets can cover (Kruskal, 1963; Katona, 1968).

    With m = C(a_k, k) + C(a_{k-1}, k - 1) + ... + C(a_j, j), a_k > ... > a_j >= j >= 1,
    the greedy k-binomial representation of m, it is C(a_k, k - 1) + ... + C(a_j, j - 1).
    """
    shadow, a = 0, k
    while m and comb(a + 1, k) <= m:
        a += 1
    while m:
        while comb(a, k) > m:
            a -= 1
        m -= comb(a, k)
        shadow += comb(a, k - 1)
        k -= 1
    return shadow


def tree_top_row(g: Graph) -> tuple[int, int]:
    """The number of leaves of the tree g, and the product of their pendant-path lengths.

    A leaf's pendant path holds the leaf and the degree-2 vertices above it,
    up to but not including the nearest vertex of degree 3 or more. On a
    tree of n >= 2 vertices, mu is the number of leaves (Di Stefano, "Mutual
    visibility in graphs", Appl. Math. Comput., 2022). With at least three
    leaves, r_mu is the product of their lengths, as if the maximum sets were
    exactly those taking one vertex of each pendant path; this rule is
    checked against the walk and brute force on random trees, not taken from
    the paper. On a path, which has no vertex of degree 3, it does not hold.
    """
    degree = [mask.bit_count() for mask in g.adj]
    leaves = [v for v in range(g.n) if degree[v] == 1]
    product = 1
    for leaf in leaves:
        previous, v, length = leaf, g.adj[leaf].bit_length() - 1, 1
        while degree[v] == 2:
            previous, v, length = v, (g.adj[v] & ~(1 << previous)).bit_length() - 1, length + 1
        product *= length
    return len(leaves), product


def golden_line(record: str, poly: Polynomial, table: dict[tuple[int, int], int]) -> str:
    """One line of tests/golden/: record, canonical polynomial, sorted theta rows."""
    rows = ",".join(f"[{k},{d},{c}]" for (k, d), c in sorted(table.items()))
    return f"{record} {poly.to_canonical_string()} [{rows}]"


def oracle_golden_line(record: str, g: Graph) -> str:
    """The golden line of g from the oracle's sets: r_k sums the theta rows of size k."""
    table = oracle_theta(g)
    coeffs = [1] + [0] * max((k for k, _ in table), default=0)
    for (k, _), count in table.items():
        coeffs[k] += count
    return golden_line(record, Polynomial(tuple(coeffs)), table)


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Inverse of delete_edge, for restore round-trips."""
    assert u != v and not g.adjacent(u, v)
    masks = list(g.adj)
    masks[u] |= 1 << v
    masks[v] |= 1 << u
    return Graph(g.n, tuple(masks))


def random_graph(rng, n: int, p: float) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Brute-force isomorphism test, only sensible for tiny orders."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    g_edges = {frozenset(e) for e in g.edges()}
    for perm in permutations(range(h.n)):
        if {frozenset((perm[u], perm[v])) for u, v in h.edges()} == g_edges:
            return True
    return False


def relabel(rng, g: Graph) -> Graph:
    """g with its vertices permuted at random."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_tree(rng, n: int) -> Graph:
    """A random labelled tree: each vertex joins an earlier one, then the labels are shuffled."""
    return relabel(rng, Graph.from_edges(n, [(v, rng.randrange(v)) for v in range(1, n)]))


def glued_blocks(rng, n: int, sizes=(2, 7)) -> Graph:
    """A connected graph of at most n vertices whose blocks are edges, cycles and cliques.

    Each new block, of a random order within ``sizes``, is glued at one
    random vertex of the graph so far, which becomes a cut vertex; a block of
    4 or 5 vertices is a clique about a third of the time. The labels are
    shuffled at the end.
    """
    edges, order = [], 1
    while order < n:
        size = min(rng.randint(*sizes), n - order + 1)
        glue = rng.randrange(order)
        block = [glue] + list(range(order, order + size - 1))
        order += size - 1
        if size in (4, 5) and rng.random() < 0.35:
            edges += list(combinations(block, 2))
        else:
            edges += [(block[i], block[(i + 1) % size]) for i in range(size if size > 2 else 1)]
    return relabel(rng, Graph.from_edges(order, edges))


def cycle_chain(blocks: int, size: int = 6) -> Graph:
    """``blocks`` copies of C_size in a row, glued at opposite vertices."""
    edges, glue, order = [], 0, 1
    for _ in range(blocks):
        cycle = [glue] + list(range(order, order + size - 1))
        order += size - 1
        edges += [(cycle[i], cycle[(i + 1) % size]) for i in range(size)]
        glue = cycle[size // 2]
    return Graph.from_edges(order, edges)


def clique_chain(blocks: int, size: int = 5) -> Graph:
    """``blocks`` copies of K_size in a row, each glued at the last vertex of the one before."""
    edges, glue, order = [], 0, 1
    for _ in range(blocks):
        block = [glue] + list(range(order, order + size - 1))
        order += size - 1
        edges += list(combinations(block, 2))
        glue = block[-1]
    return Graph.from_edges(order, edges)
