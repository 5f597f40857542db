"""Cross-validation harness: closed forms against both enumeration engines.

The standard suite covers every class instance analysed at desk scale, plus
the worked join of the paw graph with the 6-cycle. Each instance must give
the same polynomial from the closed-form dispatch, the pruned enumerator,
and the brute-force enumerator.
"""

from __future__ import annotations

from collections.abc import Sequence

from .classes import (
    ClassSpec,
    Complete,
    CompleteBipartite,
    Cycle,
    DisjointUnion,
    Path,
    Star,
    build_class,
    parse_class_spec,
    spec_label,
    spec_size,
)
from .closed_forms import poly_for_class
from .enumeration import (_check_bruteforce_guardrail, _check_pruned_guardrail,
                          polynomial_bruteforce, polynomial_pruned)
from .errors import _Record
from .polynomial import Polynomial


class VerifyResult(_Record):
    __slots__ = ("label", "passed", "closed_form", "pruned", "bruteforce")

    def __init__(self, label: str, passed: bool, closed_form: Polynomial, pruned: Polynomial,
                 bruteforce: Polynomial):
        self._set(label, passed, closed_form, pruned, bruteforce)


def paper_suite() -> list[ClassSpec]:
    """Every class instance the closed forms are validated on."""
    specs: list[ClassSpec] = []
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
    specs.append(parse_class_spec("join:paw*cycle:6"))
    return specs


def run_verify(specs: Sequence[ClassSpec]) -> list[VerifyResult]:
    """Compare closed form, pruned, and brute force on each instance."""
    specs = list(specs)  # read twice, so an iterator of specs is verified too
    for order, _ in map(spec_size, specs):  # both engines' refusals, before any build or count
        _check_pruned_guardrail(order)
        _check_bruteforce_guardrail(order)
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
