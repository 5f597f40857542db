"""graph6 record encoding and decoding.

A record is an order field N(n) followed by the upper triangle of the
adjacency matrix, bits x(i, j) for i < j ordered column-major (j = 1..n-1,
inner i = 0..j-1), packed big-endian into 6-bit groups and stored one group
per byte with offset 63. Orders up to 62 use the single byte n+63; larger
orders use byte 126 followed by three bytes carrying n in 18 bits.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import FormatError
from .graph import MAX_ORDER, Graph

HEADER = ">>graph6<<"
# The six bits of each byte 63..126, last bit first.
_REVERSED_BITS = [""] * 63 + [format(value, "06b")[::-1] for value in range(64)]


def _record_bytes(line) -> bytes:
    if isinstance(line, bytes):
        return line
    try:
        return line.encode("ascii")
    except UnicodeEncodeError:
        raise FormatError("graph6 record contains non-ASCII characters") from None


def parse_graph6(line) -> Graph:
    """Decode one graph6 record (str or bytes, optional header prefix)."""
    data = _record_bytes(line).strip()
    if data.startswith(HEADER.encode("ascii")):
        data = data[len(HEADER):].strip()
    if not data:
        raise FormatError("empty graph6 record")
    if min(data) < 63 or max(data) > 126:
        for pos, byte in enumerate(data):
            if not 63 <= byte <= 126:
                raise FormatError(f"byte {byte} outside graph6 range 63..126", offset=pos)
    if data[0] == 126:
        if len(data) < 4:
            raise FormatError("truncated long-form order field")
        if data[1] == 126:
            raise FormatError("orders wider than 18 bits are not supported", offset=1)
        n = 0
        for byte in data[1:4]:
            n = (n << 6) | (byte - 63)
        body = data[4:]
        header_len = 4
    else:
        n = data[0] - 63
        body = data[1:]
        header_len = 1
    bit_count = n * (n - 1) // 2
    expected = (bit_count + 5) // 6
    if len(body) < expected:
        raise FormatError(
            f"truncated adjacency section: expected {expected} bytes, got {len(body)}"
        )
    if len(body) > expected:
        raise FormatError(
            "trailing bytes after adjacency section", offset=header_len + expected
        )
    # Bit k of ``bits`` is bit k of the adjacency section, so column j, the
    # bits x(0, j) .. x(j-1, j), is the j-bit slice starting at j(j-1)/2.
    bits = int("".join(map(_REVERSED_BITS.__getitem__, reversed(body))) or "0", 2)
    if bits >> bit_count:
        raise FormatError(
            "nonzero padding bits in final byte", offset=header_len + expected - 1
        )
    masks = [0] * n
    start = 0
    for j in range(1, n):
        column = masks[j] = (bits >> start) & ((1 << j) - 1)
        start += j
        while column:
            low = column & -column
            masks[low.bit_length() - 1] |= 1 << j
            column ^= low
    return Graph(n, tuple(masks))


def encode_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 record (no header, no newline)."""
    n = g.n
    if n > MAX_ORDER:
        raise FormatError(f"order {n} too large for an 18-bit graph6 record")
    if n <= 62:
        out = [n + 63]
    else:
        out = [126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    group = 0
    filled = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            group = (group << 1) | ((col >> i) & 1)
            filled += 1
            if filled == 6:
                out.append(63 + group)
                group = 0
                filled = 0
    if filled:
        out.append(63 + (group << (6 - filled)))
    return bytes(out).decode("ascii")


def iter_graph6_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Yield (line_number, record) from an iterable of text lines.

    Blank lines are skipped; a leading ">>graph6<<" header is stripped.
    """
    for lineno, raw in enumerate(lines, start=1):
        record = raw.strip()
        if record.startswith(HEADER):
            record = record[len(HEADER):].strip()
        if record:
            yield lineno, record


def load_graph6_file(path) -> list[Graph]:
    """Parse every record in a .g6 file."""
    graphs = []
    with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
        for lineno, record in iter_graph6_lines(handle):
            try:
                graphs.append(parse_graph6(record))
            except FormatError as exc:
                raise exc.at_line(lineno) from exc
    return graphs
