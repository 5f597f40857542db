"""Cross-validation harness: closed forms against both enumeration engines.

The standard suite covers every class instance analysed at desk scale, plus
the worked join of the paw graph with the 6-cycle. Each instance must give
the same polynomial from the closed-form dispatch, the pruned enumerator,
and the brute-force enumerator.
"""

from __future__ import annotations

from typing import List, Sequence

from .classes import (
    ClassSpec,
    Complete,
    CompleteBipartite,
    Cycle,
    DisjointUnion,
    Join,
    Path,
    Raw,
    Star,
    build_class,
    spec_label,
)
from .closed_forms import poly_for_class
from .enumeration import polynomial_bruteforce, polynomial_pruned
from .errors import _Record
from .graph import paw_graph
from .polynomial import Polynomial


class VerifyResult(_Record, frozen=False):
    __slots__ = ("label", "passed", "closed_form", "pruned", "bruteforce")

    def __init__(self, label: str, passed: bool, closed_form: Polynomial, pruned: Polynomial,
                 bruteforce: Polynomial):
        self._set(label, passed, closed_form, pruned, bruteforce)


def paper_suite() -> List[ClassSpec]:
    """Every class instance the closed forms are validated on."""
    specs: List[ClassSpec] = []
    specs.extend(Complete(n) for n in range(1, 11))
    specs.extend(Star(n) for n in range(0, 10))
    specs.extend(Path(n) for n in range(1, 13))
    specs.extend(Cycle(n) for n in range(3, 13))
    specs.extend(
        CompleteBipartite(m, n) for m in range(3, 7) for n in range(m, 7)
    )
    specs.extend(
        [
            DisjointUnion((Path(2), Path(2))),
            DisjointUnion((Path(3), Path(2))),
            DisjointUnion((Cycle(5), Path(4), Complete(3))),
            DisjointUnion((Star(4), Cycle(6))),
            DisjointUnion((Complete(4), Complete(4), Path(4))),
        ]
    )
    specs.append(Join(Raw(paw_graph(), "paw"), Cycle(6)))
    return specs


def run_verify(specs: Sequence[ClassSpec]) -> List[VerifyResult]:
    """Compare closed form, pruned, and brute force on each instance."""
    results = []
    for spec in specs:
        closed = poly_for_class(spec)
        graph = build_class(spec)
        pruned = polynomial_pruned(graph)
        brute = polynomial_bruteforce(graph)
        results.append(
            VerifyResult(
                label=spec_label(spec),
                passed=closed == pruned == brute,
                closed_form=closed,
                pruned=pruned,
                bruteforce=brute,
            )
        )
    return results
