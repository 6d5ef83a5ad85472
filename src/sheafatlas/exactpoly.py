"""Exact arithmetic on low-degree polynomials with rational coefficients.

Every quantity in this package is an Euler characteristic, a dimension or a
Chern number, so all values are integers or half-integers.  Polynomials keep
`fractions.Fraction` coefficients throughout; no floating point is ever
involved, which is what makes the parity checks downstream trustworthy.
"""

from __future__ import annotations

from fractions import Fraction

MAX_DEGREE = 3


class HilbertPolynomial:
    """A univariate polynomial of degree at most 3 over the rationals.

    Coefficients are indexed by the power of t and stored exactly.  The
    degree cap matches the ambient threefold: any higher degree is a
    programming error and is rejected rather than truncated.  Instances are
    immutable and safe to share between threads.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients=()):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) > MAX_DEGREE + 1:
            raise ValueError(
                "degree %d exceeds the supported cap of %d"
                % (len(coeffs) - 1, MAX_DEGREE)
            )
        self._coeffs = tuple(coeffs)

    @classmethod
    def zero(cls) -> "HilbertPolynomial":
        return cls(())

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of t**k (zero beyond the degree)."""
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return Fraction(0)

    def eval(self, t: int) -> Fraction:
        """Exact value at the integer t."""
        acc = Fraction(0)
        for a in reversed(self._coeffs):
            acc = acc * t + a
        return acc

    def eval_int(self, t: int) -> int:
        """Value at t, checked to be an integer."""
        v = self.eval(t)
        if v.denominator != 1:
            raise ValueError("value %s at t=%d is not an integer" % (v, t))
        return int(v)

    def scale(self, factor) -> "HilbertPolynomial":
        f = Fraction(factor)
        return HilbertPolynomial(a * f for a in self._coeffs)

    def binomial_coordinates(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Coordinates (n0, ..., n3) with p(t) = sum n_i * C(t+i, i).

        The basis C(t+i, i) vanishes at t = -1, ..., -i, so four evaluations
        at t = -1..-4 solve the triangular system exactly.
        """
        n0 = self.eval(-1)
        n1 = n0 - self.eval(-2)
        n2 = self.eval(-3) - n0 + 2 * n1
        n3 = n0 - 3 * n1 + 3 * n2 - self.eval(-4)
        return (n0, n1, n2, n3)

    def is_numerical(self) -> bool:
        """True iff the polynomial is integer-valued on all of Z."""
        return all(n.denominator == 1 for n in self.binomial_coordinates())

    def __add__(self, other: "HilbertPolynomial") -> "HilbertPolynomial":
        if not isinstance(other, HilbertPolynomial):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return HilbertPolynomial(
            self.coefficient(k) + other.coefficient(k) for k in range(n)
        )

    def __sub__(self, other: "HilbertPolynomial") -> "HilbertPolynomial":
        if not isinstance(other, HilbertPolynomial):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return HilbertPolynomial(
            self.coefficient(k) - other.coefficient(k) for k in range(n)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, HilbertPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return "HilbertPolynomial([%s])" % ", ".join(str(a) for a in self._coeffs)
