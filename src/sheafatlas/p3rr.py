"""Riemann-Roch bookkeeping on projective 3-space.

Euler characteristics of twisted line bundles, and the one owner of the
exact dictionary between Hilbert polynomials and Chern data of rank-2
sheaves with c1 = 0, the one slice the package works in, so `ChernData`
holds c2 and c3 only: P(t) = 2*chi(O(t)) - c2*(t+2) + c3/2.  A Hilbert
polynomial is handled through its integer values only: `hp_value` evaluates
P at an integer, and `chern_from_values` inverts P(0), P(1).

Only that slice is exposed: the curve and rank-1 pieces of the calculus live
with their own chi formulas in the modules that need them.
"""

from __future__ import annotations

from collections import namedtuple


class CertificateError(RuntimeError):
    """An identity that exact arithmetic guarantees did not hold.  Not a
    ValueError, so input validation never swallows a broken certificate."""


class ChernData(namedtuple("ChernData", "c2 c3")):
    """Chern classes c2, c3 of a rank-2 sheaf with c1 = 0 on P^3.

    Such a sheaf always has even c3 (Hartshorne, Stable reflexive sheaves,
    1980); odd parity certifies a typo or a bug, so it is rejected at
    construction.
    """

    __slots__ = ()

    def __new__(cls, c2: int, c3: int):
        if c3 % 2 != 0:
            raise ValueError(
                "odd c3: a rank-2 sheaf with c1 = 0 on P^3 has even c3"
            )
        return tuple.__new__(cls, (c2, c3))


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
    """P(t) = 2*chi(O(t)) - c2*(t+2) + c3/2; c3 is even, so c3/2 is exact."""
    return 2 * chi_o_p3(t) - c.c2 * (t + 2) + c.c3 // 2


def chern_from_values(p0: int, p1: int) -> ChernData:
    """Invert hp_value from P(0) = 2 - 2*c2 + c3/2 and P(1) = 8 - 3*c2 +
    c3/2: c2 = P(0) - P(1) + 6 and c3 = 2*(P(0) - 2 + 2*c2)."""
    c2 = p0 - p1 + 6
    return ChernData(c2, 2 * (p0 - 2 + 2 * c2))
