"""Immutable bitset-backed simple graphs.

Vertices are 0..n-1 and adjacency is one integer bitmask per vertex, so
membership tests and neighbourhood unions are single integer operations for
graphs up to machine-word size. Every operation is a pure function over
immutable values; editors such as ``complement`` and ``delete_edge`` return
new graphs, which makes everything safe to share between workers.

The breadth-first search from each source, with the distances read from it,
lives in ``visibility``; the C walk runs its own.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .errors import FormatError, ParameterError, _integer, _Record

# The largest order a graph file may announce: graph6's 18-bit order field.
MAX_ORDER = (1 << 18) - 1


def _decimal(field: str) -> int | None:
    """int(field) for ASCII digits with an optional leading minus; None for "+3", "1_0", "٣"."""
    return int(field) if field.isascii() and field.removeprefix("-").isdigit() else None


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph(_Record):
    """Simple undirected graph on vertices 0..n-1, immutable after construction.

    ``adj[u]`` is the neighbourhood of u as a bitmask. The masks are copied
    into a tuple before they are checked, so the graph owns what it validated:
    the relation is symmetric and irreflexive, and no mask reaches past n.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Iterable[int]):
        adj = tuple(adj)
        _integer(n, "vertex count")
        if n < 0:
            raise ParameterError("vertex count must be nonnegative")
        if len(adj) != n:
            raise ParameterError(f"expected {n} adjacency masks, got {len(adj)}")
        _check_adjacency(adj)
        self._set(n, adj)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs."""
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u}, {v}) out of range for order {n}")
            if u == v:
                raise ParameterError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(n, tuple(masks))

    def adjacent(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1)):
                out.append((u, u + 1 + v))
        return out

    @property
    def edge_count(self) -> int:
        return sum([mask.bit_count() for mask in self.adj]) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _check_adjacency(adj: Sequence[int]) -> None:
    """Test every edge from both ends in vertex order.

    Raises ``ParameterError`` for the first fault: a mask out of range, a
    self-loop or an asymmetric pair.
    """
    n = len(adj)
    for u, mask in enumerate(adj):
        if mask >> n:
            raise ParameterError(f"adjacency mask of vertex {u} is out of range")
        if (mask >> u) & 1:
            raise ParameterError(f"self-loop at vertex {u}")
        while mask:
            low = mask & -mask
            v = low.bit_length() - 1
            if not (adj[v] >> u) & 1:
                raise ParameterError(f"adjacency is not symmetric for ({u}, {v})")
            mask ^= low


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by least vertex."""
    seen = 0
    out = []
    for v in range(g.n):
        if (seen >> v) & 1:
            continue
        mask, grown = 0, 1 << v
        while grown != mask:
            mask = grown
            for w in iter_bits(mask):
                grown |= g.adj[w]
        seen |= mask
        out.append(tuple(iter_bits(mask)))
    return out


# Constructors for the analysed graph families. Labelings are fixed so that
# golden tests are deterministic.

def empty_graph(n: int) -> Graph:
    if n < 0:
        raise ParameterError("order must be nonnegative")
    return Graph(n, (0,) * n)


def path_graph(n: int) -> Graph:
    """P_n with vertices 0..n-1 in path order."""
    if n < 1:
        raise ParameterError("a path needs at least one vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """C_n: the path 0..n-1 closed by the edge {0, n-1}."""
    if n < 3:
        raise ParameterError("a cycle needs at least three vertices")
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((0, n - 1))
    return Graph.from_edges(n, edges)


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise ParameterError("order must be nonnegative")
    full = (1 << n) - 1
    return Graph(n, tuple([full & ~(1 << u) for u in range(n)]))


def star_graph(n: int) -> Graph:
    """Star with n leaves 0..n-1 and centre at index n (order n+1)."""
    if n < 0:
        raise ParameterError("leaf count must be nonnegative")
    return Graph.from_edges(n + 1, [(i, n) for i in range(n)])


def complete_bipartite_graph(m: int, n: int) -> Graph:
    """K_{m,n} with parts {0..m-1} and {m..m+n-1}."""
    if m < 1 or n < 1:
        raise ParameterError("both parts need at least one vertex")
    return Graph.from_edges(m + n, [(a, m + b) for a in range(m) for b in range(n)])


def paw_graph() -> Graph:
    """Triangle 0-1-2 with the pendant vertex 3 attached to 2."""
    return Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


def diamond_graph() -> Graph:
    """K_4 minus one edge: the 4-cycle 0-1-2-3 plus the chord {1, 3}."""
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])


def join(g: Graph, h: Graph) -> Graph:
    """Join of two graphs: g's vertices first, then h's, plus all cross edges."""
    n = g.n + h.n
    h_block = ((1 << h.n) - 1) << g.n
    g_block = (1 << g.n) - 1
    masks = [g.adj[u] | h_block for u in range(g.n)]
    masks += [(h.adj[v] << g.n) | g_block for v in range(h.n)]
    return Graph(n, tuple(masks))


def disjoint_union(gs: Sequence[Graph]) -> Graph:
    """Concatenate vertex ranges with no cross edges."""
    masks: list[int] = []
    offset = 0
    for g in gs:
        masks.extend(mask << offset for mask in g.adj)
        offset += g.n
    return Graph(offset, tuple(masks))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple([full & ~(mask | (1 << u)) for u, mask in enumerate(g.adj)]))


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ParameterError(f"vertex pair ({u}, {v}) out of range for order {g.n}")
    if not g.adjacent(u, v):
        raise ParameterError(f"({u}, {v}) is not an edge")
    masks = list(g.adj)
    masks[u] &= ~(1 << v)
    masks[v] &= ~(1 << u)
    return Graph(g.n, tuple(masks))


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: header line "n m", then m lines "u v".

    Blank lines and lines starting with "#" are ignored. 0-based endpoints;
    every field is ASCII digits with an optional leading minus, as in a class spec.
    An order above ``MAX_ORDER``, an endpoint out of range, a self-loop or a
    repeated edge is refused with its line number.
    """
    header = None
    edges: dict[tuple[int, int], int] = {}  # each edge, low end first -> its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise FormatError(f"expected two integers, got {raw!r}", line=lineno)
        a, b = _decimal(fields[0]), _decimal(fields[1])
        if a is None or b is None:
            raise FormatError(f"non-integer field in {raw!r}", line=lineno)
        if header is None:
            if a < 0 or b < 0:
                raise FormatError("header counts must be nonnegative", line=lineno)
            if a > MAX_ORDER:
                raise FormatError(f"order {a} above the limit {MAX_ORDER}", line=lineno)
            header = (a, b)
            continue
        n = header[0]
        if not (0 <= a < n and 0 <= b < n):
            raise FormatError(f"edge ({a}, {b}) out of range for order {n}", line=lineno)
        if a == b:
            raise FormatError(f"self-loop at vertex {a}", line=lineno)
        first = edges.setdefault((min(a, b), max(a, b)), lineno)
        if first != lineno:
            raise FormatError(f"edge ({a}, {b}) repeats line {first}", line=lineno)
    if header is None:
        raise FormatError("missing header line \"n m\"")
    n, m = header
    if len(edges) != m:
        raise FormatError(f"header announced {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)
