"""Cohomology and Hilbert-scheme dimensions for the two curve families.

The curves along which the elementary transformations happen are either
smooth irreducible rational space curves of degree d, or smooth complete
intersections of surfaces of degrees (d1, d2).  Everything here is a closed
formula: line bundles on a rational curve pull back to P^1, and complete
intersections are projectively normal, so sections of O_C(a) come from the
Koszul resolution of the ideal.
"""

from __future__ import annotations

from collections import namedtuple

from .p3rr import CertificateError, h0_o_p3

# (1,1) is a line and (1,2) a conic; both are rational and belong to the
# other family.
EXCLUDED_CI = frozenset({(1, 1), (1, 2)})


class RationalCurve(namedtuple("RationalCurve", "d")):
    """Smooth irreducible rational curve of degree d in P^3."""

    __slots__ = ()

    def __new__(cls, d: int):
        if d < 1:
            raise ValueError("degree must be positive")
        return tuple.__new__(cls, (d,))

    @property
    def degree(self) -> int:
        return self.d


class CompleteIntersection(namedtuple("CompleteIntersection", "d1 d2")):
    """Smooth complete intersection of surfaces of degrees d1 <= d2."""

    __slots__ = ()

    def __new__(cls, d1: int, d2: int):
        if d1 < 1 or d2 < 1:
            raise ValueError("surface degrees must be positive")
        if d1 > d2:
            raise ValueError("require d1 <= d2")
        if (d1, d2) in EXCLUDED_CI:
            raise ValueError(
                "(%d, %d) is rational and excluded from the complete-"
                "intersection family" % (d1, d2)
            )
        return tuple.__new__(cls, (d1, d2))

    @property
    def degree(self) -> int:
        return self.d1 * self.d2


CurveFamily = RationalCurve | CompleteIntersection


class CurveCohomology(namedtuple("CurveCohomology", "h0 h1")):
    __slots__ = ()


def genus(curve: CurveFamily) -> int:
    """Arithmetic genus: 0 for rational curves, 1 + d1*d2*(d1+d2-4)/2 else."""
    if isinstance(curve, RationalCurve):
        return 0
    prod = curve.d1 * curve.d2 * (curve.d1 + curve.d2 - 4)
    if prod % 2 != 0:
        raise CertificateError("odd genus numerator %d for %r" % (prod, curve))
    g = 1 + prod // 2
    if g < 0:
        raise CertificateError("negative genus %d for %r" % (g, curve))
    return g


def canonical_twist(curve: CurveFamily) -> int:
    """The twist e with omega_C = O_C(e); adjunction gives e = d1 + d2 - 4.

    Rational curves are rejected: their canonical bundle is not the
    restriction of a line bundle on P^3, and the degree bookkeeping that
    needs omega_C handles them separately.
    """
    if isinstance(curve, RationalCurve):
        raise ValueError("rational curves have no canonical twist on P^3")
    return curve.d1 + curve.d2 - 4


def chi_oc(curve: CurveFamily, a: int) -> int:
    """chi(O_C(a)) = a * deg(C) + 1 - g by Riemann-Roch."""
    return a * curve.degree + 1 - genus(curve)


def cohomology_oc(curve: CurveFamily, a: int) -> CurveCohomology:
    """Exact (h0, h1) of O_C(a).

    Rational curve of degree d: O_C(a) pulls back to O_P1(a*d).  Complete
    intersection: projective normality plus the Koszul resolution of I_C
    give h0 = h0(O(a)) - h0(O(a-d1)) - h0(O(a-d2)) + h0(O(a-d1-d2)); the
    same expression degenerates to 0 for a < 0, where the bundle has
    negative degree on an irreducible curve.  h1 follows from chi.
    """
    chi = chi_oc(curve, a)
    if isinstance(curve, RationalCurve):
        h0 = max(0, a * curve.d + 1)
    else:
        h0 = (
            h0_o_p3(a)
            - h0_o_p3(a - curve.d1)
            - h0_o_p3(a - curve.d2)
            + h0_o_p3(a - curve.d1 - curve.d2)
        )
    h1 = h0 - chi
    if h0 < 0 or h1 < 0:
        raise CertificateError("negative cohomology (%d, %d) of O_C(%d) on %r"
                               % (h0, h1, a, curve))
    return CurveCohomology(h0, h1)


def normal_cohomology(curve: CurveFamily) -> CurveCohomology:
    """(h0, h1) of the normal bundle N_{C/P^3}.

    For a general rational curve of degree d, chi(N) = 4d and h1(N) = 0, so
    h0(N) = 4d; the whole construction restricts to general curves, and the
    same genericity convention is used here.  For a complete intersection,
    N_C = O_C(d1) + O_C(d2), and h1 is nonzero only for large ones.  Reports
    expose h1 so that the tangent-space reading of the Hilbert-scheme
    dimension is visible whenever obstructions could matter.
    """
    if isinstance(curve, RationalCurve):
        return CurveCohomology(4 * curve.d, 0)
    first = cohomology_oc(curve, curve.d1)
    second = cohomology_oc(curve, curve.d2)
    return CurveCohomology(first.h0 + second.h0, first.h1 + second.h1)
