"""Exact integer polynomials, coefficient vectors indexed by degree.

Coefficients count vertex subsets, so they are nonnegative and may grow to
binomial(n, n/2) and beyond; plain Python integers keep all arithmetic exact.
Equality and the grouping key are bit-exact by construction.
"""

from __future__ import annotations

from .errors import ParameterError, _Record


class Polynomial(_Record):
    """Coefficient vector by ascending degree, trailing zeros trimmed.

    The zero polynomial has an empty vector and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...] = ()):
        coeffs = tuple(coeffs)
        for c in coeffs:
            if type(c) is not int:  # a bool or another int subclass too
                raise ParameterError(f"coefficient {c!r} is not an exact integer")
            if c < 0:
                raise ParameterError(f"coefficient {c} is negative")
        self._set(_trimmed(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        if i < 0:
            raise ParameterError("coefficient index must be nonnegative")
        return self.coeffs[i] if i < len(self.coeffs) else 0

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


def _trimmed(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The tuple without its trailing zeros, sliced once."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return coeffs[:end]


def _canonical_text(coeffs: tuple[int, ...]) -> str:
    """The key "[c0,c1,...,ck]" of a tuple of ints, trailing zeros trimmed: of a
    ``Polynomial``, and in ``run_batch`` of walk counts, which need no validation."""
    return "[" + ",".join(map(int.__repr__, _trimmed(coeffs))) + "]"  # a bool as 1 or 0
