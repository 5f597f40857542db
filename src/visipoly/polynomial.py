"""Exact integer polynomials, coefficient vectors indexed by degree.

Coefficients count vertex subsets, so they are nonnegative and may grow to
binomial(n, n/2) and beyond; plain Python integers keep all arithmetic exact.
Equality and the grouping key are bit-exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ParameterError


@dataclass(frozen=True)
class Polynomial:
    """Coefficient vector by ascending degree, trailing zeros trimmed.

    The zero polynomial has an empty vector and degree -1.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        for c in coeffs:
            if not isinstance(c, int):
                raise ParameterError(f"coefficient {c!r} is not an exact integer")
            if c < 0:
                raise ParameterError(f"coefficient {c} is negative")
        object.__setattr__(self, "coeffs", _trimmed(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        if i < 0:
            raise ParameterError("coefficient index must be nonnegative")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def add(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(tuple(out))

    __add__ = add

    def subtract_scalar(self, k: int) -> "Polynomial":
        """Lower the constant term by k; requires coefficient(0) >= k >= 0."""
        if k < 0:
            raise ParameterError("scalar must be nonnegative")
        c0 = self.coefficient(0)
        if c0 < k:
            raise ParameterError(f"constant term {c0} is smaller than {k}")
        return Polynomial((c0 - k,) + self.coeffs[1:])

    def to_canonical_string(self) -> str:
        """Deterministic grouping key: the JSON array "[c0,c1,...,ck]" with no whitespace,
        so ``Polynomial(json.loads(key))`` reads one back; built by ``_canonical_text``."""
        return _canonical_text(self.coeffs)

    def pretty(self) -> str:
        """Human-readable rendering like "1 + 4x + 6x^2 + 4x^3"."""
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                x = "x" if i == 1 else f"x^{i}"
                terms.append(x if c == 1 else f"{c}{x}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


@lru_cache(maxsize=None)
def _array_format(length: int) -> str:
    return "[" + ",".join(["%d"] * length) + "]"


def _trimmed(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The tuple without its trailing zeros, sliced once."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return coeffs[:end]


def _canonical_text(coeffs: tuple[int, ...]) -> str:
    """The key "[c0,c1,...,ck]" of a tuple of ints, trailing zeros trimmed: of a
    ``Polynomial``, and in ``run_batch`` of walk counts, which need no validation."""
    coeffs = _trimmed(coeffs)
    return _array_format(len(coeffs)) % coeffs
