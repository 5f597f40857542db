"""Parameterized descriptions of graph families.

A class spec names a graph family instance (path, cycle, complete, star,
complete bipartite) or composes specs by join and disjoint union; ``Raw``
wraps an explicit graph. Each family is one row of ``_FAMILIES``, and its
spec's fields are its arguments, both in the spec syntax and to its builder.
Specs drive both graph construction and the closed-form dispatch, and have
a small textual syntax for the command line ("cycle:7", "bipartite:3,4",
"union:path:3+path:2", "paw").
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Union

from .errors import FormatError, ParameterError
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


class _Family:
    """A family spec: every field must reach the least argument of its ``_FAMILIES`` row."""

    def __post_init__(self):
        _, _, least, error = _FAMILIES[type(self)]
        if min(family_args(self)) < least:
            raise ParameterError(error)


def family_args(spec: _Family) -> tuple:
    """The fields of a family spec in order: its builder's and closed form's arguments.

    A shallow ``dataclasses.astuple``, which would deep-copy every field.
    """
    return tuple(getattr(spec, field.name) for field in fields(spec))


@dataclass(frozen=True)
class Path(_Family):
    n: int


@dataclass(frozen=True)
class Cycle(_Family):
    n: int


@dataclass(frozen=True)
class Complete(_Family):
    n: int


@dataclass(frozen=True)
class Star(_Family):
    """Star with n leaves; order n+1, centre at index n."""

    n: int


@dataclass(frozen=True)
class CompleteBipartite(_Family):
    m: int
    n: int


# spec type -> (name in the spec syntax, builder, least legal argument, error text)
_FAMILIES = {
    Path: ("path", path_graph, 1, "path order must be at least 1"),
    Cycle: ("cycle", cycle_graph, 3, "cycle order must be at least 3"),
    Complete: ("complete", complete_graph, 1, "complete graph order must be at least 1"),
    Star: ("star", star_graph, 0, "star leaf count must be nonnegative"),
    CompleteBipartite: (
        "bipartite", complete_bipartite_graph, 1, "complete bipartite parts must be at least 1"
    ),
}
_FAMILY_BY_NAME = {row[0]: spec_type for spec_type, row in _FAMILIES.items()}
_FAMILY_BY_NAME["complete_bipartite"] = CompleteBipartite


@dataclass(frozen=True)
class Join:
    left: "ClassSpec"
    right: "ClassSpec"


@dataclass(frozen=True)
class DisjointUnion:
    parts: tuple["ClassSpec", ...]

    def __init__(self, parts):
        object.__setattr__(self, "parts", tuple(parts))
        if not self.parts:
            raise ParameterError("disjoint union needs at least one part")


@dataclass(frozen=True)
class Raw:
    """An explicit graph; ``name`` is the spec text it was parsed from, kept for labels only."""

    graph: Graph
    name: Optional[str] = field(default=None, compare=False)


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


def spec_label(spec: ClassSpec) -> str:
    """Human-readable name used in reports."""
    if type(spec) in _FAMILIES:
        return _FAMILIES[type(spec)][0] + ":" + ",".join(map(str, family_args(spec)))
    if isinstance(spec, Join):
        return f"join({spec_label(spec.left)}, {spec_label(spec.right)})"
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
    graphs ``paw`` and ``diamond``, and ``union:SPEC+SPEC+...``. Names are
    case-insensitive.
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
        parts = [parse_class_spec(part) for part in args.split("+") if part.strip()]
        if not parts:
            raise FormatError(f"empty union in class spec {text!r}")
        return DisjointUnion(parts)
    try:
        values = [int(a) for a in args.split(",")] if args else []
    except ValueError:
        raise FormatError(f"non-integer argument in class spec {text!r}") from None
    if (spec_type := _FAMILY_BY_NAME.get(name)) is not None:
        arity = len(fields(spec_type))
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
