from __future__ import annotations

import random
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from visipoly import (
    FormatError,
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    encode_graph6,
    load_graph6_file,
    parse_graph6,
)

from conftest import corpus_path
from oracles import random_graph


def test_parse_k2():
    g = parse_graph6("A_")
    assert g.n == 2
    assert g.edge_count == 1


def test_parse_k4():
    assert parse_graph6("C~") == complete_graph(4)


def test_parse_empty_three_vertices():
    assert parse_graph6("B?") == empty_graph(3)


def test_parse_header_and_bytes_input():
    assert parse_graph6(">>graph6<<A_") == parse_graph6(b"A_")


def test_encode_examples():
    assert encode_graph6(complete_graph(4)) == "C~"
    assert encode_graph6(empty_graph(3)) == "B?"
    assert encode_graph6(complete_graph(1)) == "@"


def test_long_form_order():
    g = empty_graph(100)
    record = encode_graph6(g)
    assert record.startswith(chr(126))
    assert parse_graph6(record) == g


def test_parse_errors_carry_offsets():
    with pytest.raises(FormatError, match="offset 1"):
        parse_graph6("A=")
    with pytest.raises(FormatError, match="truncated"):
        parse_graph6("D~")  # order 5 needs two adjacency bytes
    with pytest.raises(FormatError):
        parse_graph6("")
    with pytest.raises(FormatError, match="trailing"):
        parse_graph6("A__")
    with pytest.raises(FormatError, match="padding"):
        parse_graph6("A" + chr(63 + 1))  # nonzero bits below the single pair bit


def test_error_texts_and_offsets_in_both_order_forms():
    long_record = encode_graph6(cycle_graph(65))  # 2080 pair bits, 2 padding bits
    cases = [
        ("A=", "byte 61 outside graph6 range 63..126 (byte offset 1)"),
        ("D~", "truncated adjacency section: expected 2 bytes, got 1"),
        ("A__", "trailing bytes after adjacency section (byte offset 2)"),
        ("A" + chr(64), "nonzero padding bits in final byte (byte offset 1)"),
        (long_record[:-1], "truncated adjacency section: expected 347 bytes, got 346"),
        (long_record + "?", "trailing bytes after adjacency section (byte offset 351)"),
        (long_record[:-1] + chr(ord(long_record[-1]) + 1),
         "nonzero padding bits in final byte (byte offset 350)"),
        (chr(126) + "??", "truncated long-form order field"),
    ]
    for record, message in cases:
        with pytest.raises(FormatError) as raised:
            parse_graph6(record)
        assert str(raised.value) == message, record


def test_round_trip_on_seeded_random_graphs_up_to_order_70():
    rng = random.Random(70)
    for n in range(71):
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, n, p)
            record = encode_graph6(g)
            assert parse_graph6(record) == g
            assert parse_graph6(record).adj == g.adj
            decoded = nx.from_graph6_bytes(record.encode("ascii"))
            assert {frozenset(e) for e in decoded.edges()} == {frozenset(e) for e in g.edges()}


def test_wide_order_rejected():
    with pytest.raises(FormatError, match="18 bits"):
        parse_graph6(chr(126) + chr(126) + "????")
    # encode_graph6 checks the order before it reads a mask, so a stand-in with
    # no masks serves: building a Graph of 2^18 vertices takes seconds.
    with pytest.raises(FormatError, match="^order 262144 too large for an 18-bit graph6 record$"):
        encode_graph6(SimpleNamespace(n=1 << 18, adj=()))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    pair_count = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << pair_count) - 1 if pair_count else 0))
    edges = []
    index = 0
    for v in range(1, n):
        for u in range(v):
            if (mask >> index) & 1:
                edges.append((u, v))
            index += 1
    return Graph.from_edges(n, edges)


@given(small_graphs())
def test_round_trip(g):
    assert parse_graph6(encode_graph6(g)) == g


@given(small_graphs())
def test_agrees_with_networkx(g):
    record = encode_graph6(g)
    decoded = nx.from_graph6_bytes(record.encode("ascii"))
    assert set(decoded.nodes()) == set(range(g.n))
    assert {frozenset(e) for e in decoded.edges()} == {frozenset(e) for e in g.edges()}


def test_corpus_round_trip():
    for order in range(1, 8):
        path = corpus_path(order)
        records = [line.strip() for line in path.read_text().splitlines() if line.strip()]
        for record in records:
            assert encode_graph6(parse_graph6(record)) == record
    assert len(records) == 853


def test_load_graph6_file_reports_line_numbers(tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("A_\nA\x20_\n")
    with pytest.raises(FormatError, match="line 2"):
        load_graph6_file(bad)
    bad.write_bytes("A_\nA\u00e9\n".encode("utf-8"))  # a non-ASCII byte is refused, not decoded
    with pytest.raises(FormatError, match="^line 2: graph6 record contains non-ASCII characters$"):
        load_graph6_file(bad)


def test_corpus_graphs_are_connected_and_expected_counts():
    from visipoly import components

    expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    for order, count in expected.items():
        graphs = load_graph6_file(corpus_path(order))
        assert len(graphs) == count
        assert all(g.n == order for g in graphs)
        assert all(len(components(g)) == 1 for g in graphs)


def test_parse_cycle_matches_networkx_generated():
    record = nx.to_graph6_bytes(nx.cycle_graph(6), header=False).strip()
    assert parse_graph6(record) == cycle_graph(6)
