"""Parameterized descriptions of graph families.

A class spec, a frozen value on ``errors._Record``, names a graph family
instance (path, cycle, complete, star, complete bipartite) or composes specs
by join and disjoint union; ``Raw`` wraps an explicit graph. Each family is
one row of ``_FAMILIES``, and its spec's field tuple ``_fields`` lists its
arguments, in the spec syntax and to its builder and size. Specs drive graph
construction and the closed-form dispatch, with a small command-line syntax
("cycle:7", "bipartite:3,4", "union:path:3+path:2", "join:paw*cycle:6",
"paw"). ``spec_size`` gives a spec's order and edge count without building
its graph.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from .errors import FormatError, ParameterError, _Record
from .graph import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    diamond_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    paw_graph,
    star_graph,
)
from .graph import join as graph_join


class _Family(_Record):
    """A family spec: each argument (one, ``n``, unless redefined) reaches its row's least."""

    __slots__ = ()

    def __init__(self, n: int):
        self._set(n)

    def _set(self, *args):
        _, _, least, error, _ = _FAMILIES[type(self)]
        if min(args) < least:
            raise ParameterError(error)
        super()._set(*args)


def family_args(spec: _Family) -> tuple:
    """The fields of a family spec in order: its builder's and closed form's arguments."""
    return tuple([getattr(spec, name) for name in spec._fields])


class Path(_Family):
    __slots__ = ("n",)


class Cycle(_Family):
    __slots__ = ("n",)


class Complete(_Family):
    __slots__ = ("n",)


class Star(_Family):
    """Star with n leaves; order n+1, centre at index n."""

    __slots__ = ("n",)


class CompleteBipartite(_Family):
    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int):
        self._set(m, n)


# spec type -> (name in the spec syntax, builder, least legal argument, error text,
#               (order, edge count) of the built graph)
_FAMILIES = {
    Path: ("path", path_graph, 1, "path order must be at least 1", lambda n: (n, n - 1)),
    Cycle: ("cycle", cycle_graph, 3, "cycle order must be at least 3", lambda n: (n, n)),
    Complete: ("complete", complete_graph, 1, "complete graph order must be at least 1",
               lambda n: (n, n * (n - 1) // 2)),
    Star: ("star", star_graph, 0, "star leaf count must be nonnegative", lambda n: (n + 1, n)),
    CompleteBipartite: ("bipartite", complete_bipartite_graph, 1,
                        "complete bipartite parts must be at least 1", lambda m, n: (m + n, m * n)),
}
_FAMILY_BY_NAME = {row[0]: spec_type for spec_type, row in _FAMILIES.items()}
_FAMILY_BY_NAME["complete_bipartite"] = CompleteBipartite


class Join(_Record):
    __slots__ = ("left", "right")

    def __init__(self, left: "ClassSpec", right: "ClassSpec"):
        self._set(left, right)


class DisjointUnion(_Record):
    __slots__ = ("parts",)

    def __init__(self, parts):
        self._set(tuple(parts))
        if not self.parts:
            raise ParameterError("disjoint union needs at least one part")


class Raw(_Record):
    """An explicit graph; ``name`` is the spec text it was parsed from, kept for labels only."""

    __slots__ = ("graph", "name")
    _compared = ("graph",)

    def __init__(self, graph: Graph, name: Optional[str] = None):
        self._set(graph, name)


ClassSpec = Union[Path, Cycle, Complete, Star, CompleteBipartite, Join, DisjointUnion, Raw]


def build_class(spec: ClassSpec) -> Graph:
    """Build the canonical labeled graph for a class spec."""
    if type(spec) in _FAMILIES:
        return _FAMILIES[type(spec)][1](*family_args(spec))
    if isinstance(spec, Join):
        return graph_join(build_class(spec.left), build_class(spec.right))
    if isinstance(spec, DisjointUnion):
        return disjoint_union([build_class(part) for part in spec.parts])
    if not isinstance(spec, Raw):
        raise ParameterError(f"unknown class spec {spec!r}")
    return spec.graph


def spec_size(spec: ClassSpec) -> Tuple[int, int]:
    """The order and edge count of the spec's graph, read without building it."""
    if type(spec) in _FAMILIES:
        return _FAMILIES[type(spec)][4](*family_args(spec))
    if isinstance(spec, Join):
        (n, m), (n2, m2) = spec_size(spec.left), spec_size(spec.right)
        return n + n2, m + m2 + n * n2
    if isinstance(spec, DisjointUnion):
        orders, edges = zip(*[spec_size(part) for part in spec.parts])
        return sum(orders), sum(edges)
    return spec.graph.n, spec.graph.edge_count


def spec_label(spec: ClassSpec) -> str:
    """Human-readable name used in reports; a parsed spec's label parses back to it."""
    if type(spec) in _FAMILIES:
        return _FAMILIES[type(spec)][0] + ":" + ",".join(map(str, family_args(spec)))
    if isinstance(spec, Join):
        return f"join:{spec_label(spec.left)}*{spec_label(spec.right)}"
    if isinstance(spec, DisjointUnion):
        return "union:" + "+".join(spec_label(p) for p in spec.parts)
    g = spec.graph
    return spec.name or f"graph(n={g.n}, m={g.edge_count})"


_NAMED_GRAPHS = {
    "paw": paw_graph,
    "diamond": diamond_graph,
}


def parse_class_spec(text: str) -> ClassSpec:
    """Parse the textual spec syntax used by the CLI.

    Accepted forms: ``path:N``, ``cycle:N``, ``complete:N``, ``star:N``,
    ``bipartite:M,N`` (alias ``complete_bipartite``), ``empty:N``, the named
    graphs ``paw`` and ``diamond``, ``union:SPEC+SPEC+...`` and
    ``join:SPEC*SPEC``. ``+`` splits before ``*``, and a join has exactly
    two operands, so joins do not nest; no union part or join operand may be
    empty. Names are case-insensitive, and an integer argument is ASCII digits
    with an optional leading minus; whitespace may surround any token.
    """
    text = text.strip()
    name, sep, args = text.partition(":")
    name = name.strip().lower()
    if name in _NAMED_GRAPHS:
        if sep:
            raise FormatError(f"{name} takes no arguments, got {text!r}")
        return Raw(_NAMED_GRAPHS[name](), name)
    if not sep:
        raise FormatError(f"class spec {text!r} needs arguments, e.g. 'cycle:7'")
    if name == "union":
        parts = args.split("+")
        if not all(part.strip() for part in parts):
            raise FormatError(f"union takes nonempty parts, A+B+..., got {text!r}")
        return DisjointUnion([parse_class_spec(part) for part in parts])
    if name == "join":
        operands = args.split("*")
        if len(operands) != 2 or not all(operand.strip() for operand in operands):
            raise FormatError(f"join takes exactly two nonempty operands, A*B, got {text!r}")
        return Join(*[parse_class_spec(operand) for operand in operands])
    values = []
    for arg in args.split(",") if args else ():
        # int() would also take "1_0", "+10" and non-ASCII digits such as "١٠".
        arg = arg.strip()
        if not (arg.isascii() and arg.removeprefix("-").isdigit()):
            raise FormatError(f"argument {arg!r} of class spec {text!r} is not a decimal integer")
        values.append(int(arg))
    if (spec_type := _FAMILY_BY_NAME.get(name)) is not None:
        arity = len(spec_type._fields)
        if len(values) != arity:
            count = "exactly one argument" if arity == 1 else f"{arity} arguments"
            raise FormatError(f"{name} takes {count}, got {text!r}")
        return spec_type(*values)
    if name == "empty":
        if len(values) != 1:
            raise FormatError(f"empty takes exactly one argument, got {text!r}")
        if values[0] < 0:
            raise FormatError("empty graph order must be nonnegative")
        return Raw(empty_graph(values[0]), f"empty:{values[0]}")
    raise FormatError(f"unknown graph class {name!r}")
