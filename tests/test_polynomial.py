from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from visipoly import ParameterError, Polynomial, poly_complete, poly_disconnected

polys = st.builds(
    Polynomial,
    st.lists(st.integers(min_value=0, max_value=50), max_size=6).map(tuple),
)
# polynomials with constant term 1, as every visibility polynomial has
parts = st.lists(
    st.lists(st.integers(min_value=0, max_value=50), max_size=5).map(lambda t: Polynomial((1, *t))),
    min_size=1,
    max_size=4,
)


def test_trailing_zeros_trimmed():
    assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert Polynomial((0, 0)).coeffs == ()


def test_degree_and_coefficient():
    p = Polynomial((1, 4, 6, 4))
    assert p.degree == 3
    assert p.coefficient(2) == 6
    assert p.coefficient(9) == 0
    assert Polynomial(()).degree == -1
    with pytest.raises(ParameterError, match="^coefficient index must be nonnegative$"):
        p.coefficient(-1)


def test_rejects_bad_coefficients():
    with pytest.raises(ParameterError):
        Polynomial((1, -2))
    with pytest.raises(ParameterError):
        Polynomial((1.0, 2))


def test_disconnected_composition_example():
    # visibility polynomials of P3 and P2, composed for their disjoint union
    p3 = Polynomial((1, 3, 3))
    p2 = Polynomial((1, 2, 1))
    assert poly_disconnected([p3, p2]) == Polynomial((1, 5, 4))


def test_disconnected_parts_must_absorb_the_shared_empty_set():
    # the constant terms lose parts - 1 in all, and no coefficient may go negative
    assert poly_disconnected([Polynomial((2, 1)), Polynomial((0, 3))]) == Polynomial((1, 4))
    for bad in ([Polynomial((1, 1)), Polynomial((0, 1)), Polynomial((0, 2))],
                [Polynomial(()), Polynomial(())]):
        with pytest.raises(ParameterError, match="^coefficient -1 is negative$"):
            poly_disconnected(bad)


def test_canonical_string():
    assert Polynomial((1, 4, 6, 4, 1)).to_canonical_string() == "[1,4,6,4,1]"
    assert Polynomial(()).to_canonical_string() == "[]"
    assert Polynomial((1, 6, 15, 14)).to_canonical_string() == "[1,6,15,14]"


def test_pretty():
    assert Polynomial((1, 4, 6, 4)).pretty() == "1 + 4x + 6x^2 + 4x^3"
    assert Polynomial((1, 0, 3, 1)).pretty() == "1 + 3x^2 + x^3"
    assert Polynomial(()).pretty() == "0"


def test_huge_coefficients_stay_exact():
    from math import comb

    assert poly_complete(64).coefficient(32) == comb(64, 32)


@given(parts, st.randoms(use_true_random=False))
def test_disconnected_part_order_irrelevant(ps, rng):
    shuffled = list(ps)
    rng.shuffle(shuffled)
    assert poly_disconnected(shuffled) == poly_disconnected(ps)


@given(parts, parts)
def test_disconnected_composes_in_stages(ps, qs):
    # a union of unions is the union of all their parts
    staged = poly_disconnected([poly_disconnected(ps), poly_disconnected(qs)])
    assert staged == poly_disconnected(ps + qs)


@given(polys)
def test_canonical_string_round_trip(p):
    assert Polynomial(json.loads(p.to_canonical_string())) == p
