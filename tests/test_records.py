"""The value classes' contract: equality, hashing, repr, immutability, pickling and copies."""

from __future__ import annotations

import copy
import json
import os
import pickle
import subprocess
import sys
from collections import namedtuple
from pathlib import Path as FilePath

import pytest

from visipoly import (
    Complete,
    CompleteBipartite,
    Cycle,
    DisjointUnion,
    Graph,
    Join,
    ParameterError,
    Path,
    Polynomial,
    Raw,
    Star,
    VisStats,
    path_graph,
    paw_graph,
)
from visipoly.batch import BatchReport
from visipoly.verify import VerifyResult

SRC_DIR = FilePath(__file__).resolve().parent.parent / "src"
PAW = paw_graph()
P = Polynomial([1, 2, 1])

# class: (field names, arguments, arguments of an unequal value, its repr)
CASES = {
    Path: (("n",), (3,), (4,), "Path(n=3)"),
    Cycle: (("n",), (5,), (6,), "Cycle(n=5)"),
    Complete: (("n",), (4,), (5,), "Complete(n=4)"),
    Star: (("n",), (0,), (2,), "Star(n=0)"),
    CompleteBipartite: (("m", "n"), (2, 3), (3, 2), "CompleteBipartite(m=2, n=3)"),
    Join: (("left", "right"), (Path(2), Raw(PAW, "paw")), (Raw(PAW, "paw"), Path(2)),
           "Join(left=Path(n=2), right=Raw(graph=Graph(n=4, m=4), name='paw'))"),
    DisjointUnion: (("parts",), ([Path(2), Cycle(3)],), ([Cycle(3), Path(2)],),
                    "DisjointUnion(parts=(Path(n=2), Cycle(n=3)))"),
    Raw: (("graph", "name"), (PAW, "paw"), (path_graph(4), "paw"),
          "Raw(graph=Graph(n=4, m=4), name='paw')"),
    Graph: (("n", "adj"), (4, PAW.adj), (4, path_graph(4).adj), "Graph(n=4, m=4)"),
    Polynomial: (("coeffs",), ([1, 4, 0],), ([1, 4, 1],), "Polynomial([1, 4])"),
    VisStats: (("mu", "r_mu", "theta", "cliques"), (2, 3, {(2, 1): 3}, {0: 1, 1: 3}),
               (2, 3, {(2, 1): 2}, {0: 1, 1: 3}),
               "VisStats(mu=2, r_mu=3, theta={(2, 1): 3}, cliques={0: 1, 1: 3})"),
    BatchReport: (("order", "total_graphs", "group_count", "max_group_size",
                   "max_group_polynomials", "histogram"),
                  (4, 6, 5, 2, ["[1,4]"]), (4, 6, 5, 2, ["[1,4]"], {"[1,4]": 2}),
                  "BatchReport(order=4, total_graphs=6, group_count=5, max_group_size=2, "
                  "max_group_polynomials=['[1,4]'], histogram=None)"),
    VerifyResult: (("label", "passed", "closed_form", "pruned", "bruteforce"),
                   ("path:3", True, P, P, P), ("path:3", False, P, P, P),
                   "VerifyResult(label='path:3', passed=True, closed_form=Polynomial([1, 2, 1]), "
                   "pruned=Polynomial([1, 2, 1]), bruteforce=Polynomial([1, 2, 1]))"),
}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_value_class_contract(cls):
    names, args, other_args, text = CASES[cls]
    value = cls(*args)
    assert repr(value) == text
    assert cls.__match_args__ == names
    assert cls(**dict(zip(names, args))) == value
    assert cls(*args[:-1], **{names[len(args) - 1]: args[-1]}) == value
    assert not value != cls(*args)
    assert value != cls(*other_args) and not value == cls(*other_args)
    # Another class with the same fields and values is never equal.
    twin = namedtuple(cls.__name__, names)(*[getattr(value, name) for name in names])
    assert value != twin and not value == twin
    assert value.__eq__(twin) is NotImplemented

    # Only the classes with a dict or list field refuse a hash, and at once.
    if cls in (VisStats, BatchReport):
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert cls.__hash__ is not None
        assert hash(value) == hash(cls(*args))
    for name in names + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    with pytest.raises(AttributeError):
        delattr(value, names[0])
    assert repr(value) == text

    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is cls
        assert copied == value
        assert repr(copied) == text


def test_fields_left_out_of_equality():
    assert Raw(PAW) == Raw(PAW, None) == Raw(PAW, "paw") == Raw(graph=PAW, name="other")
    assert hash(Raw(PAW)) == hash(Raw(PAW, "paw"))
    assert repr(Raw(PAW)) == "Raw(graph=Graph(n=4, m=4), name=None)"
    assert Graph(4, PAW.adj).edge_count == 4
    assert pickle.loads(pickle.dumps(PAW)).edge_count == 4
    assert Polynomial() == Polynomial([0, 0]) and repr(Polynomial()) == "Polynomial([])"
    assert Path(3) != Cycle(3) and Complete(3) != Star(3)
    assert BatchReport(4, 6, 5, 2, []).histogram is None


def test_subclasses_keep_the_fields_of_their_parent():
    class Named(Raw):
        pass

    class Labelled(Graph):
        pass

    assert Named(PAW, "a") == Named(PAW, "b") != Raw(PAW, "a")
    assert repr(Named(PAW, "a")) == f"{Named.__qualname__}(graph=Graph(n=4, m=4), name='a')"
    copied = copy.copy(Labelled(4, PAW.adj))
    assert type(copied) is Labelled and copied == Labelled(4, PAW.adj) and copied.edge_count == 4


def test_import_loads_no_code_generation():
    """Importing the package and its command line loads none of dataclasses, inspect and
    typing: the records generate no code, and the annotations name builtin types."""
    code = ("import sys, visipoly, visipoly.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    # -S: no site-specific start-up files, which may import any of them themselves.
    child = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                           text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


REIMPORTS = """
import gc, json, sys
from collections import Counter
for _ in range(21):
    for name in [m for m in sys.modules if m == "visipoly" or m.startswith("visipoly.")]:
        del sys.modules[name]
    import visipoly, visipoly.cli
gc.collect()
print(json.dumps(Counter(f"{c.__module__}.{c.__qualname__}" for c in gc.get_objects()
                         if isinstance(c, type) and c.__module__.startswith("visipoly"))))
"""


def test_a_reimport_frees_the_copy_it_replaced():
    """After 21 rounds of dropping ``visipoly.*`` from ``sys.modules`` and importing it
    again, as the benchmark's set-up does, one copy of each package class is alive: no
    module-level object, such as a ``typing`` alias in its cache, holds an older copy. It
    runs in a child process, so that no other test meets a second copy of the classes."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    child = subprocess.run([sys.executable, "-c", REIMPORTS], env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    alive = json.loads(child.stdout)
    classes = [Graph, Path, Raw, Polynomial, VisStats, BatchReport, VerifyResult, ParameterError]
    assert {f"{cls.__module__}.{cls.__qualname__}" for cls in classes} <= set(alive)
    assert {name: copies for name, copies in alive.items() if copies != 1} == {}
