from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from visipoly import ParameterError, Polynomial, poly_complete

polys = st.builds(
    Polynomial,
    st.lists(st.integers(min_value=0, max_value=50), max_size=6).map(tuple),
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
    assert p3.add(p2).subtract_scalar(1) == Polynomial((1, 5, 4))


def test_subtract_scalar_guard():
    with pytest.raises(ParameterError):
        Polynomial((1, 1)).subtract_scalar(2)
    with pytest.raises(ParameterError):
        Polynomial((3,)).subtract_scalar(-1)


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


@given(polys, polys)
def test_add_commutes(p, q):
    assert p.add(q) == q.add(p)


@given(polys, polys, polys)
def test_add_and_multiply_associate(p, q, r):
    assert p.add(q).add(r) == p.add(q.add(r))


@given(polys)
def test_canonical_string_round_trip(p):
    assert Polynomial(json.loads(p.to_canonical_string())) == p
