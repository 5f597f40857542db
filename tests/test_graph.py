from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

import visipoly
from visipoly import (
    Graph,
    ParameterError,
    VisibilityContext,
    complement,
    complete_bipartite_graph,
    complete_graph,
    components,
    cycle_graph,
    delete_edge,
    diamond_graph,
    disjoint_union,
    empty_graph,
    join,
    parse_edge_list,
    path_graph,
    paw_graph,
    star_graph,
)
from visipoly.enumeration import polynomial_bruteforce, polynomial_pruned
from visipoly.errors import FormatError
from visipoly.graph import MAX_ORDER

from conftest import pin_python_walk
from oracles import add_edge


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pair_count = n * (n - 1) // 2
    edge_mask = draw(st.integers(min_value=0, max_value=(1 << pair_count) - 1 if pair_count else 0))
    edges = []
    index = 0
    for v in range(1, n):
        for u in range(v):
            if (edge_mask >> index) & 1:
                edges.append((u, v))
            index += 1
    return Graph.from_edges(n, edges)


def test_graph_construction_basics():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.edge_count == 2
    assert g.adjacent(0, 1) and g.adjacent(1, 0)
    assert not g.adjacent(0, 2)
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.adj[1].bit_count() == 2


def test_graph_rejects_self_loop_and_bad_range():
    with pytest.raises(ParameterError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ParameterError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ParameterError):
        Graph(2, (0b10, 0b00))  # asymmetric


def test_graph_validation_names_the_first_fault_in_vertex_order():
    # 0 -> 1 is not mirrored and vertex 3 has a self-loop: vertex 0 comes first.
    adj = (0b0010, 0b0000, 0b0000, 0b1000)
    with pytest.raises(ParameterError, match=r"^adjacency is not symmetric for \(0, 1\)$"):
        Graph(4, adj)
    # 1 -> 0 is not mirrored: only a lower bit is wrong, so the edge counts
    # differ, and vertex 1 still comes before the self-loop at 3.
    adj = (0b0000, 0b0001, 0b0000, 0b1000)
    with pytest.raises(ParameterError, match=r"^adjacency is not symmetric for \(1, 0\)$"):
        Graph(4, adj)
    with pytest.raises(ParameterError, match=r"^adjacency is not symmetric for \(1, 0\)$"):
        Graph(2, (0b00, 0b01))
    with pytest.raises(ParameterError, match=r"^self-loop at vertex 3$"):
        Graph(4, (0b0010, 0b0001, 0b0000, 0b1000))
    with pytest.raises(ParameterError, match=r"^adjacency mask of vertex 1 is out of range$"):
        Graph(2, (0b00, 0b100))
    assert Graph(4, (0b0110, 0b0101, 0b0011, 0b0000)).edge_count == 3


@pytest.mark.parametrize("walk", ["native", "python"])
def test_graph_owns_its_masks(monkeypatch, walk):
    if walk == "python":
        pin_python_walk(monkeypatch)
    a = [2, 1]
    g = Graph(2, a)
    a[0] = 2 | 1 << 40  # a later edit of the caller's list reaches no graph
    assert g.adj == (2, 1) and type(g.adj) is tuple
    assert hash(g) == hash(Graph(2, (2, 1)))
    assert polynomial_pruned(g).coeffs == (1, 2, 1)
    assert polynomial_bruteforce(g).coeffs == (1, 2, 1)


@pytest.mark.parametrize(
    "build, args, message",
    [
        (Graph, (-1, ()), "vertex count must be nonnegative"),
        (Graph, (2, (0,)), "expected 2 adjacency masks, got 1"),
        (delete_edge, (path_graph(3), 0, 3), "vertex pair (0, 3) out of range for order 3"),
        (empty_graph, (-1,), "order must be nonnegative"),
        (path_graph, (0,), "a path needs at least one vertex"),
        (cycle_graph, (2,), "a cycle needs at least three vertices"),
        (complete_graph, (-1,), "order must be nonnegative"),
        (star_graph, (-1,), "leaf count must be nonnegative"),
        (complete_bipartite_graph, (0, 3), "both parts need at least one vertex"),
        (complete_bipartite_graph, (3, 0), "both parts need at least one vertex"),
        # The order is an exact integer, as a coefficient of Polynomial is: no bool, no float.
        (Graph, (True, (0,)), "vertex count True is not an exact integer"),
        (Graph, (2.0, (0, 0)), "vertex count 2.0 is not an exact integer"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_argument_errors_name_the_fault(build, args, message):
    with pytest.raises(ParameterError) as caught:
        build(*args)
    assert str(caught.value) == message


def test_complete_graph_k4():
    g = complete_graph(4)
    assert g.edge_count == 6
    assert all(g.adjacent(u, v) for u in range(4) for v in range(4) if u != v)


def test_complete_bipartite_parts():
    g = complete_bipartite_graph(3, 3)
    assert g.edge_count == 9
    assert all(g.adjacent(a, 3 + b) for a in range(3) for b in range(3))
    assert not any(g.adjacent(a, b) for a in range(3) for b in range(3) if a != b)
    assert not any(g.adjacent(3 + a, 3 + b) for a in range(3) for b in range(3) if a != b)


def test_join_of_k1_and_empty_is_star():
    g = join(complete_graph(1), empty_graph(4))
    degrees = sorted(g.adj[v].bit_count() for v in range(g.n))
    assert degrees == [1, 1, 1, 1, 4]
    assert g.edge_count == 4


def test_join_k2_k2_is_k4():
    assert join(complete_graph(2), complete_graph(2)) == complete_graph(4)


def test_join_of_complement_k3_and_complement_k4_is_k34():
    g = join(complement(complete_graph(3)), complement(complete_graph(4)))
    assert g == complete_bipartite_graph(3, 4)


def test_join_paw_c6_order_and_edges():
    g = join(paw_graph(), cycle_graph(6))
    assert g.n == 10
    assert g.edge_count == 4 + 6 + 4 * 6


def test_distances_complete_and_cycle():
    d4 = VisibilityContext(complete_graph(4))
    assert all(d4.rows[u][v] == 1 for u in range(4) for v in range(4) if u != v)
    d6 = VisibilityContext(cycle_graph(6))
    assert d6.rows[0][3] == 3
    assert d6.rows[0][0] == 0


def test_distances_cross_component_unreachable():
    g = disjoint_union([path_graph(2), path_graph(2)])
    d = VisibilityContext(g)
    assert d.rows[0][2] == -1
    assert d.rows[0][1] == 1


def test_package_exports_resolve_once():
    assert len(set(visipoly.__all__)) == len(visipoly.__all__)
    for name in visipoly.__all__:
        assert hasattr(visipoly, name), name


def test_components():
    assert components(complete_graph(4)) == [(0, 1, 2, 3)]
    assert components(disjoint_union([path_graph(2), path_graph(2)])) == [(0, 1), (2, 3)]
    assert components(empty_graph(3)) == [(0,), (1,), (2,)]


def test_disjoint_union_examples():
    g = disjoint_union([path_graph(2), path_graph(2)])
    assert g.n == 4 and g.edge_count == 2
    assert disjoint_union([complete_graph(1)]) == complete_graph(1)
    g = disjoint_union([path_graph(3), path_graph(2)])
    assert g.edges() == [(0, 1), (1, 2), (3, 4)]


def test_complement_examples():
    assert complement(complete_graph(5)) == empty_graph(5)
    c4c = complement(cycle_graph(4))
    assert sorted(c4c.edges()) == [(0, 2), (1, 3)]


def test_delete_edge():
    g = delete_edge(path_graph(3), 1, 2)
    assert g.edges() == [(0, 1)]
    assert delete_edge(complete_graph(3), 0, 1).edges() == [(0, 2), (1, 2)]
    g = delete_edge(path_graph(5), 1, 2)
    assert components(g) == [(0, 1), (2, 3, 4)]
    with pytest.raises(ParameterError):
        delete_edge(path_graph(3), 0, 2)


@given(small_graphs())
def test_distance_matrix_agrees_with_adjacency(g):
    d = VisibilityContext(g)
    for u in range(g.n):
        assert d.rows[u][u] == 0
        for v in range(g.n):
            assert d.rows[u][v] == d.rows[v][u]
            assert (d.rows[u][v] == 1) == g.adjacent(u, v)
            assert [k for k, layer in enumerate(d.layers[u]) if (layer >> v) & 1] == (
                [d.rows[u][v]] if d.rows[u][v] >= 0 else []
            )


@given(small_graphs())
def test_triangle_inequality_over_reachable_triples(g):
    d = VisibilityContext(g)
    for u in range(g.n):
        for v in range(g.n):
            for w in range(g.n):
                duv, dvw, duw = d.rows[u][v], d.rows[v][w], d.rows[u][w]
                if duv >= 0 and dvw >= 0:
                    assert duw >= 0
                    assert duw <= duv + dvw


@given(small_graphs(max_n=5), small_graphs(max_n=5))
def test_join_diameter_at_most_two(g, h):
    if g.n == 0 or h.n == 0:
        return
    d = VisibilityContext(join(g, h))
    assert max(max(row) for row in d.rows) <= 2


@given(small_graphs())
def test_complement_is_involution(g):
    assert complement(complement(g)) == g


@given(small_graphs())
def test_delete_then_add_edge_restores(g):
    for u, v in g.edges():
        assert add_edge(delete_edge(g, u, v), u, v) == g


@given(st.lists(small_graphs(max_n=4), min_size=1, max_size=4))
def test_union_component_count_adds_up(gs):
    total = sum(len(components(g)) for g in gs)
    assert len(components(disjoint_union(gs))) == total


def test_parse_edge_list():
    text = """
    # a triangle plus an isolated vertex
    4 3
    0 1
    1 2

    2 0
    """
    g = parse_edge_list(text)
    assert g.n == 4
    assert g.edge_count == 3
    assert components(g) == [(0, 1, 2), (3,)]
    # the largest order a graph6 record holds
    g = parse_edge_list(f"{MAX_ORDER} 1\n0 {MAX_ORDER - 1}\n")
    assert (MAX_ORDER, g.n, g.edge_count) == ((1 << 18) - 1, MAX_ORDER, 1)


def test_parse_edge_list_errors():
    with pytest.raises(FormatError):
        parse_edge_list("")
    with pytest.raises(FormatError):
        parse_edge_list("2 1\n0 1\n1 0\n")  # more edges than announced
    with pytest.raises(FormatError):
        parse_edge_list("2 1\n0 two\n")
    with pytest.raises(FormatError):
        parse_edge_list("2 1\n0 5\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 2\n0 1\n1 0\n", "line 3: edge (1, 0) repeats line 2"),
        ("3 2\n0 1\n# comment\n0 1\n", "line 4: edge (0, 1) repeats line 2"),
        ("3 2\n0 1\n1 3\n", "line 3: edge (1, 3) out of range for order 3"),
        ("3 1\n-1 2\n", "line 2: edge (-1, 2) out of range for order 3"),
        ("3 2\n\n2 2\n0 1\n", "line 3: self-loop at vertex 2"),
        ("-1 0\n0 1\n", "line 1: header counts must be nonnegative"),
        ("# big\n2000000 0\n", "line 2: order 2000000 above the limit 262143"),
        ("262144 1\n0 1\n", "line 1: order 262144 above the limit 262143"),
        ("3 2\n0 1\n", "header announced 2 edges, found 1"),
        ("3 1\n0 1 2\n", "line 2: expected two integers, got '0 1 2'"),
        ("+3 1\n0 1\n", "line 1: non-integer field in '+3 1'"),
        ("3 1\n0 1_0\n", "line 2: non-integer field in '0 1_0'"),
        ("٣ ١\n٠ ١\n", "line 1: non-integer field in '٣ ١'"),
    ],
)
def test_parse_edge_list_names_the_faulty_line(text, message):
    with pytest.raises(FormatError) as caught:
        parse_edge_list(text)
    assert str(caught.value) == message


def test_named_graphs():
    paw = paw_graph()
    assert paw.n == 4 and paw.edge_count == 4
    assert sorted(paw.adj[v].bit_count() for v in range(4)) == [1, 2, 2, 3]
    diamond = diamond_graph()
    assert diamond.n == 4 and diamond.edge_count == 5
    assert sorted(diamond.adj[v].bit_count() for v in range(4)) == [2, 2, 3, 3]


def test_star_center_is_last_index():
    g = star_graph(3)
    assert g.adj[3].bit_count() == 3
    assert all(g.adj[v].bit_count() == 1 for v in range(3))
