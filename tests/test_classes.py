from __future__ import annotations

import pytest

from visipoly import (
    Complete,
    CompleteBipartite,
    Cycle,
    DisjointUnion,
    FormatError,
    Join,
    ParameterError,
    Path,
    Raw,
    Star,
    build_class,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    parse_class_spec,
    path_graph,
    paw_graph,
    poly_for_class,
    polynomial_pruned,
    spec_label,
    star_graph,
)
from visipoly.classes import _FAMILIES, spec_size
from visipoly.closed_forms import _CLOSED_FORMS


def test_build_class_basics():
    assert build_class(Path(4)) == path_graph(4)
    assert build_class(Cycle(5)) == cycle_graph(5)
    assert build_class(Complete(4)) == complete_graph(4)
    assert build_class(Star(3)) == star_graph(3)
    assert build_class(CompleteBipartite(3, 3)) == complete_bipartite_graph(3, 3)
    assert build_class(Raw(paw_graph())) == paw_graph()


def test_build_class_join_of_k1_and_empty_is_star_shaped():
    g = build_class(Join(Complete(1), Raw(empty_graph(5))))
    assert g.n == 6
    assert g.adj[0].bit_count() == 5
    assert all(g.adj[v].bit_count() == 1 for v in range(1, 6))


def test_build_class_union_concatenates_ranges():
    g = build_class(DisjointUnion((Path(3), Path(2))))
    assert g.edges() == [(0, 1), (1, 2), (3, 4)]


def test_invalid_parameters():
    with pytest.raises(ParameterError):
        build_class(Cycle(2))
    with pytest.raises(ParameterError):
        build_class(Path(0))
    with pytest.raises(ParameterError):
        build_class(CompleteBipartite(0, 3))
    with pytest.raises(ParameterError):
        build_class(DisjointUnion(()))
    with pytest.raises(ParameterError):
        build_class(Join(Cycle(2), Path(3)))
    with pytest.raises(ParameterError, match="^unknown class spec 'cycle:7'$"):
        build_class("cycle:7")


def test_parse_class_spec():
    assert parse_class_spec("cycle:7") == Cycle(7)
    assert parse_class_spec("path:5") == Path(5)
    assert parse_class_spec("complete:4") == Complete(4)
    assert parse_class_spec("star:3") == Star(3)
    assert parse_class_spec("bipartite:3,4") == CompleteBipartite(3, 4)
    assert parse_class_spec("complete_bipartite:3,4") == CompleteBipartite(3, 4)
    assert parse_class_spec("paw") == Raw(paw_graph())
    assert parse_class_spec("empty:4") == Raw(empty_graph(4))
    assert parse_class_spec("union:path:3+path:2") == DisjointUnion((Path(3), Path(2)))
    assert parse_class_spec("join:paw*cycle:6") == Join(Raw(paw_graph()), Cycle(6))
    # a union splits at + before its parts split at *
    assert parse_class_spec("union:join:paw*cycle:6+path:3") == DisjointUnion(
        (Join(Raw(paw_graph()), Cycle(6)), Path(3))
    )
    assert parse_class_spec("join:union:path:2+path:3*cycle:6") == Join(
        DisjointUnion((Path(2), Path(3))), Cycle(6)
    )


def test_parse_class_spec_errors():
    for bad in ("cycle", "cycle:x", "bipartite:3", "wat:3", "union:"):
        with pytest.raises(FormatError):
            parse_class_spec(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        ("paw:1", "paw takes no arguments, got 'paw:1'"),
        ("paw:", "paw takes no arguments, got 'paw:'"),
        ("Diamond:", "diamond takes no arguments, got 'Diamond:'"),
        ("empty:1,2", "empty takes exactly one argument, got 'empty:1,2'"),
        ("empty:-1", "empty graph order must be nonnegative"),
        ("join:paw", "join takes exactly two nonempty operands, A*B, got 'join:paw'"),
        ("join:", "join takes exactly two nonempty operands, A*B, got 'join:'"),
        ("join:paw*cycle:6*path:2",
         "join takes exactly two nonempty operands, A*B, got 'join:paw*cycle:6*path:2'"),
        ("join:join:paw*cycle:6*path:2",
         "join takes exactly two nonempty operands, A*B, got 'join:join:paw*cycle:6*path:2'"),
        ("join:*cycle:6", "join takes exactly two nonempty operands, A*B, got 'join:*cycle:6'"),
        ("join:paw* ", "join takes exactly two nonempty operands, A*B, got 'join:paw*'"),
        ("union:path:3++path:2", "union takes nonempty parts, A+B+..., got 'union:path:3++path:2'"),
        ("union:path:2+ ", "union takes nonempty parts, A+B+..., got 'union:path:2+'"),
        ("union:", "union takes nonempty parts, A+B+..., got 'union:'"),
        ("cycle:1_0", "argument '1_0' of class spec 'cycle:1_0' is not a decimal integer"),
        ("cycle:+10", "argument '+10' of class spec 'cycle:+10' is not a decimal integer"),
        ("cycle:\u0661\u0660",
         "argument '\u0661\u0660' of class spec 'cycle:\u0661\u0660' is not a decimal integer"),
        ("cycle:1 0", "argument '1 0' of class spec 'cycle:1 0' is not a decimal integer"),
        ("bipartite:3,", "argument '' of class spec 'bipartite:3,' is not a decimal integer"),
        ("empty:--1", "argument '--1' of class spec 'empty:--1' is not a decimal integer"),
        ("path:x", "argument 'x' of class spec 'path:x' is not a decimal integer"),
    ],
)
def test_parse_class_spec_names_the_fault(text, message):
    with pytest.raises(FormatError) as caught:
        parse_class_spec(text)
    assert str(caught.value) == message


def test_spec_labels():
    assert spec_label(Cycle(7)) == "cycle:7"
    assert spec_label(CompleteBipartite(3, 4)) == "bipartite:3,4"
    assert spec_label(DisjointUnion((Path(3), Path(2)))) == "union:path:3+path:2"
    assert spec_label(Join(Complete(2), Cycle(4))) == "join:complete:2*cycle:4"


@pytest.mark.parametrize(
    "text",
    ["cycle:7", " Cycle: 07 ", "bipartite:3,4", "complete_bipartite:3,4", "paw", "DIAMOND",
     "empty:0", "union:union:path:2+path:3", "join:paw*cycle:6",
     "join: complete:2 * EMPTY:3", "union:join:paw*cycle:6+path:3",
     "join:union:path:2+path:3*cycle:6", "join:cycle:6*union:path:2+path:3",
     "union:join:paw*union:path:2+path:3", "union:join:paw*empty:1+join:star:2*path:2"],
)
def test_a_parsed_specs_label_parses_back_to_it(text):
    spec = parse_class_spec(text)
    label = spec_label(spec)
    assert parse_class_spec(label) == spec
    assert spec_label(parse_class_spec(label)) == label


def test_raw_spec_keeps_the_name_it_was_parsed_from():
    for text, label in (("paw", "paw"), ("diamond", "diamond"), ("empty:4", "empty:4"),
                        (" empty: 4 ", "empty:4"), ("union:paw+empty:2", "union:paw+empty:2"),
                        # names ignore case, the named graphs' as the families'
                        ("PAW", "paw"), ("Paw", "paw"), (" DIAMOND ", "diamond"),
                        ("union:PAW+path:2", "union:paw+path:2")):
        assert spec_label(parse_class_spec(text)) == label
        assert parse_class_spec(text) == parse_class_spec(label)
    assert spec_label(Raw(paw_graph())) == "graph(n=4, m=4)"
    assert parse_class_spec("paw") == Raw(paw_graph())  # the name is not part of equality


@pytest.mark.parametrize(
    "text",
    ["empty:0", "paw", "union:path:3+empty:0+star:0", "union:cycle:5+complete:4",
     "join:paw*cycle:6", "join:empty:0*empty:0", "join:empty:0*cycle:5", "join:complete:1*empty:4",
     "join:empty:0*complete:3", "join:union:path:2+path:3*bipartite:2,3",
     "union:join:paw*cycle:6+path:3"],
)
def test_spec_size_is_the_built_graphs(text):
    spec = parse_class_spec(text)
    g = build_class(spec)
    assert spec_size(spec) == (g.n, g.edge_count)


# Each family as the docs state it: syntax name, graph constructor, least argument.
FAMILIES = {
    Path: ("path", path_graph, 1),
    Cycle: ("cycle", cycle_graph, 3),
    Complete: ("complete", complete_graph, 1),
    Star: ("star", star_graph, 0),
    CompleteBipartite: ("bipartite", complete_bipartite_graph, 1),
}


@pytest.mark.parametrize("spec_type", list(_FAMILIES), ids=lambda t: t.__name__)
def test_family_table_row(spec_type):
    assert set(_FAMILIES) == set(FAMILIES) == set(_CLOSED_FORMS)
    name, constructor, least = FAMILIES[spec_type]
    arity = len(spec_type._fields)
    for offset in range(5):
        for slot in range(arity):
            args = [least + 2] * arity
            args[slot] = least + offset
            spec = spec_type(*args)
            label = f"{name}:" + ",".join(map(str, args))
            assert spec_label(spec) == label
            assert parse_class_spec(label) == spec
            if spec_type is CompleteBipartite:
                assert parse_class_spec("complete_bipartite" + label[len(name):]) == spec
            g = build_class(spec)
            assert g == constructor(*args)
            assert spec_size(spec) == (g.n, g.edge_count), label
            assert poly_for_class(spec) == polynomial_pruned(g), label
    for slot in range(arity):
        args = [least] * arity
        args[slot] = least - 1
        with pytest.raises(ParameterError):
            spec_type(*args)
        # An argument is an exact integer: a float, even a whole one, or a bool is refused
        # by the spec and by its closed form, not read as a number.
        for value in least + 0.5, float(least + 2), True:
            args[slot] = value
            for call in spec_type, _CLOSED_FORMS[spec_type]:
                with pytest.raises(ParameterError,
                                   match=f"^{name} argument {value!r} is not an exact integer$"):
                    call(*args)
