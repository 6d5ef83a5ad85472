"""Binomial-coordinate view of the Riemann-Roch dictionary, for tests only.

The package reads Chern data off integer values (`p3rr.hp_value`,
`p3rr.chern_from_values`).  The oracles here take a second route through
the four binomial coordinates of `HilbertPolynomial`, and `coefficient`
gives the rational power-basis view that the symbolic oracle compares with.
"""

from fractions import Fraction

from sheafatlas.p3rr import ChernData


class HilbertPolynomial:
    """p(t) = n0 + n1*C(t+1, 1) + n2*C(t+2, 2) + n3*C(t+3, 3), n_i integers.

    An integer-valued cubic is an integer combination of the binomials
    C(t+i, i), so it is stored as four `int` coordinates and evaluated with
    exact integers only.  The degree cap of 3 matches the ambient
    threefold.  `coords` is the tuple (n0, n1, n2, n3); instances are never
    mutated after construction.
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


def hp_from_chern(c: ChernData) -> HilbertPolynomial:
    """Hilbert polynomial of a rank-2, c1 = 0 sheaf with invariants c.

    P(t) = 2*chi(O(t)) - c2*(t+2) + c3/2; with t + 2 = C(t+1, 1) + 1 its
    binomial coordinates are (c3/2 - c2, -c2, 0, 2).
    """
    return HilbertPolynomial(c.c3 // 2 - c.c2, -c.c2, 0, 2)


def chern_from_hp(p: HilbertPolynomial) -> ChernData:
    """Invert hp_from_chern exactly.

    n3 = 2 and n2 = 0 are pinned by rank 2 and c1 = 0; then c2 = -n1 and
    c3 = 2*(n0 - n1).
    """
    n0, n1, n2, n3 = p.coords
    if n3 != 2 or n2 != 0:
        raise ValueError("not a rank-2 c1=0 Hilbert polynomial")
    return ChernData(-n1, 2 * (n0 - n1))


def coefficient(p, k: int) -> Fraction:
    """Coefficient of t**k in the HilbertPolynomial p (zero beyond degree 3)."""
    n0, n1, n2, n3 = p.coords
    if k == 0:
        return Fraction(n0 + n1 + n2 + n3)
    if k == 1:
        return n1 + Fraction(3 * n2, 2) + Fraction(11 * n3, 6)
    if k == 2:
        return Fraction(n2, 2) + n3
    return Fraction(n3, 6) if k == 3 else Fraction(0)
