"""Integer-valued polynomials of degree at most 3, in the binomial basis.

Every quantity in this package is an Euler characteristic, a dimension or a
Chern number, and every Hilbert polynomial it handles is integer-valued.
Such a polynomial is an integer combination of the binomials C(t+i, i), so
it is stored as four `int` coordinates and computed with exact integers
only.  No floating point and no rational arithmetic is ever involved.
"""

from __future__ import annotations


class HilbertPolynomial:
    """p(t) = n0 + n1*C(t+1, 1) + n2*C(t+2, 2) + n3*C(t+3, 3), n_i integers.

    The degree cap of 3 matches the ambient threefold.  `coords` is the
    tuple (n0, n1, n2, n3); instances are never mutated after construction.
    """

    __slots__ = ("coords",)

    def __init__(self, n0: int = 0, n1: int = 0, n2: int = 0, n3: int = 0):
        self.coords = (n0, n1, n2, n3)

    @classmethod
    def from_values(cls, v1: int, v2: int, v3: int, v4: int) -> "HilbertPolynomial":
        """The polynomial with p(-1), ..., p(-4) = v1, ..., v4.

        C(t+i, i) vanishes at t = -1, ..., -i, so the system is triangular.
        """
        n1 = v1 - v2
        n2 = v3 - v1 + 2 * n1
        return cls(v1, n1, n2, v1 - 3 * n1 + 3 * n2 - v4)

    def eval(self, t: int) -> int:
        """Exact value at the integer t."""
        n0, n1, n2, n3 = self.coords
        u = t + 1
        b2 = u * (u + 1) // 2
        return n0 + n1 * u + n2 * b2 + n3 * (b2 * (u + 2) // 3)

    def scale(self, factor: int) -> "HilbertPolynomial":
        return HilbertPolynomial(*(factor * n for n in self.coords))

    def __add__(self, other: "HilbertPolynomial") -> "HilbertPolynomial":
        if not isinstance(other, HilbertPolynomial):
            return NotImplemented
        return HilbertPolynomial(*(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "HilbertPolynomial") -> "HilbertPolynomial":
        if not isinstance(other, HilbertPolynomial):
            return NotImplemented
        return HilbertPolynomial(*(a - b for a, b in zip(self.coords, other.coords)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, HilbertPolynomial):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return "HilbertPolynomial(%d, %d, %d, %d)" % self.coords
