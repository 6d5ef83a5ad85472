"""Riemann-Roch bookkeeping on projective 3-space.

Euler characteristics of twisted line bundles, and the one owner of the
exact dictionary between Hilbert polynomials and Chern data in the rank-2,
c1 = 0 slice, P(t) = 2*chi(O(t)) - c2*(t+2) + c3/2.  A Hilbert polynomial is
handled through its integer values only: `hp_value` evaluates P at an
integer, and `chern_from_values` inverts P(0), P(1).

Only that slice is exposed: the curve and rank-1 pieces of the calculus live
with their own chi formulas in the modules that need them.
"""

from __future__ import annotations

from dataclasses import dataclass


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


def hp_value(c: ChernData, t: int) -> int:
    """P(t) = 2*chi(O(t)) - c2*(t+2) + c3/2 for rank-2, c1 = 0 data c."""
    return 2 * chi_o_p3(t) - c.c2 * (t + 2) + c.c3 // 2


def chern_from_values(p0: int, p1: int) -> ChernData:
    """Invert hp_value from P(0) = 2 - 2*c2 + c3/2 and P(1) = 8 - 3*c2 +
    c3/2: c2 = P(0) - P(1) + 6 and c3 = 2*(P(0) - 2 + 2*c2)."""
    c2 = p0 - p1 + 6
    return ChernData(2, 0, c2, 2 * (p0 - 2 + 2 * c2))
