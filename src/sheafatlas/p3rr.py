"""Riemann-Roch bookkeeping on projective 3-space.

Euler characteristics of twisted line bundles, and the exact dictionary
between Hilbert polynomials and Chern data in the rank-2, c1 = 0 slice.
Only that slice is exposed: the curve and rank-1 pieces of the calculus live
with their own chi formulas in the modules that need them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactpoly import HilbertPolynomial


class CertificateError(RuntimeError):
    """An identity that exact arithmetic guarantees did not hold.  Not a
    ValueError, so input validation never swallows a broken certificate."""


@dataclass(frozen=True)
class ChernData:
    """Chern classes (rank, c1, c2, c3) of a sheaf on P^3.

    A rank-2 sheaf with c1 = 0 always has even c3; odd parity certifies a
    typo or a bug, so it is rejected at construction.
    """

    rank: int
    c1: int
    c2: int
    c3: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        if self.rank == 2 and self.c1 == 0 and self.c3 % 2 != 0:
            raise ValueError(
                "odd c3: a rank-2 sheaf with c1 = 0 on P^3 has even c3"
            )


def chi_o_p3(j: int) -> int:
    """chi(O_P3(j)) = (j+1)(j+2)(j+3)/6, exact for every integer j."""
    num = (j + 1) * (j + 2) * (j + 3)
    if num % 6 != 0:
        raise CertificateError("chi(O(%d)) has numerator %d" % (j, num))
    return num // 6


def h0_o_p3(j: int) -> int:
    """Global sections of O_P3(j): C(j+3, 3) for j >= 0, else 0."""
    return chi_o_p3(j) if j >= 0 else 0


def hp_o_p3(j: int = 0) -> HilbertPolynomial:
    """The Hilbert polynomial t -> chi(O_P3(t + j)).

    With u = j + 2 it is ((t+u)^3 - (t+u))/6, written out in powers of t.
    """
    u = j + 2
    return HilbertPolynomial(
        [chi_o_p3(j), Fraction(3 * u * u - 1, 6), Fraction(u, 2), Fraction(1, 6)])


def hp_from_chern(c: ChernData) -> HilbertPolynomial:
    """Hilbert polynomial of a rank-2, c1 = 0 sheaf with invariants c.

    P(t) = 2*chi(O(t)) - c2*(t+2) + c3/2.
    """
    if c.rank != 2 or c.c1 != 0:
        raise ValueError("only the rank-2, c1 = 0 calculus is supported")
    return hp_o_p3().scale(2) - HilbertPolynomial(
        [2 * c.c2 - Fraction(c.c3, 2), c.c2])


def chern_from_hp(p: HilbertPolynomial) -> ChernData:
    """Invert hp_from_chern exactly.

    The cubic and quadratic coefficients are pinned by rank 2 and c1 = 0;
    the remaining two unknowns (c2, c3) follow from evaluation at t = 0 and
    t = 1, so the inversion does not care about any internal basis.
    """
    if p.coefficient(3) != Fraction(1, 3) or p.coefficient(2) != 2:
        raise ValueError("not a rank-2 c1=0 Hilbert polynomial")
    p0 = p.eval(0)
    p1 = p.eval(1)
    c2 = p0 - p1 + 6
    if c2.denominator != 1:
        raise ValueError("not a rank-2 c1=0 Hilbert polynomial: c2 = %s" % c2)
    c3 = 2 * (p0 - 2 + 2 * c2)
    if c3.denominator != 1:
        raise ValueError("non-integral c3 recovered: %s" % c3)
    return ChernData(2, 0, int(c2), int(c3))
