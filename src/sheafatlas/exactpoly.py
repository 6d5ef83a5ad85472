"""Integer-valued polynomials of degree at most 3, in the binomial basis.

This is the binomial form of the Riemann-Roch dictionary, kept for the
`verify` checks that compare it with the value form in `p3rr`
(`chern-round-trip` and `sheaf-hilbert-numerical`); no report is computed
through it.  An integer-valued cubic is an integer combination of the
binomials C(t+i, i), so it is stored as four `int` coordinates and
evaluated with exact integers only.
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

    def eval(self, t: int) -> int:
        """Exact value at the integer t."""
        n0, n1, n2, n3 = self.coords
        u = t + 1
        b2 = u * (u + 1) // 2
        return n0 + n1 * u + n2 * b2 + n3 * (b2 * (u + 2) // 3)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HilbertPolynomial):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return "HilbertPolynomial(%d, %d, %d, %d)" % self.coords
