"""Riemann-Roch bookkeeping on projective 3-space.

Euler characteristics of twisted line bundles, and the one owner of the
exact dictionary between Hilbert polynomials and Chern data in the rank-2,
c1 = 0 slice, P(t) = 2*chi(O(t)) - c2*(t+2) + c3/2, in two forms:

- value form, used by every Chern number the program reports: `hp_value`
  evaluates P at an integer, and `chern_from_values` inverts P(0), P(1);
- binomial form, used by `verify`'s round-trip and Riemann-Roch checks:
  `hp_from_chern` and `chern_from_hp` map to and from `HilbertPolynomial`.

Only that slice is exposed: the curve and rank-1 pieces of the calculus live
with their own chi formulas in the modules that need them.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def hp_value(c: ChernData, t: int) -> int:
    """P(t) = 2*chi(O(t)) - c2*(t+2) + c3/2 for rank-2, c1 = 0 data c."""
    return 2 * chi_o_p3(t) - c.c2 * (t + 2) + c.c3 // 2


def chern_from_values(p0: int, p1: int) -> ChernData:
    """Invert hp_value from P(0) = 2 - 2*c2 + c3/2 and P(1) = 8 - 3*c2 +
    c3/2: c2 = P(0) - P(1) + 6 and c3 = 2*(P(0) - 2 + 2*c2)."""
    c2 = p0 - p1 + 6
    return ChernData(2, 0, c2, 2 * (p0 - 2 + 2 * c2))


def hp_from_chern(c: ChernData) -> HilbertPolynomial:
    """Hilbert polynomial of a rank-2, c1 = 0 sheaf with invariants c.

    P(t) = 2*chi(O(t)) - c2*(t+2) + c3/2; with t + 2 = C(t+1, 1) + 1 its
    binomial coordinates are (c3/2 - c2, -c2, 0, 2).
    """
    if c.rank != 2 or c.c1 != 0:
        raise ValueError("only the rank-2, c1 = 0 calculus is supported")
    return HilbertPolynomial(c.c3 // 2 - c.c2, -c.c2, 0, 2)


def chern_from_hp(p: HilbertPolynomial) -> ChernData:
    """Invert hp_from_chern exactly.

    n3 = 2 and n2 = 0 are pinned by rank 2 and c1 = 0; then c2 = -n1 and
    c3 = 2*(n0 - n1).
    """
    n0, n1, n2, n3 = p.coords
    if n3 != 2 or n2 != 0:
        raise ValueError("not a rank-2 c1=0 Hilbert polynomial")
    return ChernData(2, 0, -n1, 2 * (n0 - n1))
