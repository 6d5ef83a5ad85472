"""Curve cohomology: genus, Serre duality, Koszul sections, Hilbert schemes."""

import pytest

from sheafatlas.curvecoh import (
    CompleteIntersection,
    RationalCurve,
    canonical_twist,
    chi_oc,
    cohomology_oc,
    genus,
    normal_cohomology,
)
from sheafatlas.p3rr import chi_o_p3


def all_complete_intersections(max_product):
    out = []
    for d1 in range(1, max_product + 1):
        for d2 in range(d1, max_product + 1):
            if d1 * d2 > max_product or (d1, d2) in {(1, 1), (1, 2)}:
                continue
            out.append(CompleteIntersection(d1, d2))
    return out


def test_genus_examples():
    assert genus(RationalCurve(5)) == 0
    assert genus(CompleteIntersection(2, 2)) == 1
    assert genus(CompleteIntersection(3, 3)) == 10


def test_genus_nonnegative_small_degrees():
    for ci in all_complete_intersections(25):
        assert genus(ci) >= 0


def test_canonical_twist():
    assert canonical_twist(CompleteIntersection(2, 2)) == 0
    assert canonical_twist(CompleteIntersection(2, 3)) == 1
    assert canonical_twist(CompleteIntersection(1, 3)) == 0
    with pytest.raises(ValueError):
        canonical_twist(RationalCurve(2))


def test_chi_examples():
    assert chi_oc(RationalCurve(2), 2) == 5
    assert chi_oc(CompleteIntersection(2, 2), 1) == 4
    assert chi_oc(CompleteIntersection(2, 3), 1) == 3


def test_koszul_riemann_roch_agreement():
    for ci in all_complete_intersections(12):
        for a in range(-6, 13):
            alt = (chi_o_p3(a) - chi_o_p3(a - ci.d1) - chi_o_p3(a - ci.d2)
                   + chi_o_p3(a - ci.d1 - ci.d2))
            assert alt == chi_oc(ci, a)


def test_cohomology_examples():
    coh = cohomology_oc(CompleteIntersection(2, 2), 1)
    assert (coh.h0, coh.h1) == (4, 0)
    # plane cubic, third twist: degree 9 > 2g - 2 = 0, so h0 = chi = 9
    coh = cohomology_oc(CompleteIntersection(1, 3), 3)
    assert (coh.h0, coh.h1) == (9, 0)
    coh = cohomology_oc(RationalCurve(3), -1)
    assert (coh.h0, coh.h1) == (0, 2)


def test_cohomology_large_degree_equals_chi():
    # once deg O_C(a) > 2g - 2 there are no higher sections, so h0 = chi;
    # this is the Riemann-Roch oracle, independent of the Koszul route
    for ci in all_complete_intersections(16):
        g = genus(ci)
        for a in range(0, 13):
            if a * ci.degree > 2 * g - 2:
                coh = cohomology_oc(ci, a)
                assert coh.h1 == 0
                assert coh.h0 == chi_oc(ci, a)


def test_chi_consistency():
    curves = [RationalCurve(d) for d in range(1, 13)]
    curves += [ci for ci in all_complete_intersections(12)]
    for curve in curves:
        for a in range(-6, 13):
            coh = cohomology_oc(curve, a)
            assert coh.h0 - coh.h1 == chi_oc(curve, a)
            assert coh.h0 >= 0 and coh.h1 >= 0


def test_serre_duality_on_curves():
    for ci in all_complete_intersections(16):
        e = canonical_twist(ci)
        for a in range(0, e + 5):
            assert cohomology_oc(ci, a).h1 == cohomology_oc(ci, e - a).h0


def test_trivial_bundle_sections():
    for ci in all_complete_intersections(16):
        assert cohomology_oc(ci, 0).h0 == 1
        assert cohomology_oc(ci, 0).h1 == genus(ci)


def test_h0_normal_examples():
    assert normal_cohomology(RationalCurve(1)).h0 == 4
    assert normal_cohomology(RationalCurve(2)).h0 == 8
    # plane cubic: 3 from the planes, 9 from cubics in the plane
    assert normal_cohomology(CompleteIntersection(1, 3)).h0 == 12


def test_dim_hilb_examples():
    # dim Hilb(C) is read off the tangent space h0(N_C)
    assert normal_cohomology(RationalCurve(2)).h0 == 8
    assert normal_cohomology(CompleteIntersection(2, 2)).h0 == 16
    assert normal_cohomology(RationalCurve(3)).h0 == 12


def test_h1_normal_obstructed_case():
    assert normal_cohomology(RationalCurve(7)).h1 == 0
    assert normal_cohomology(CompleteIntersection(2, 2)).h1 == 0
    # surfaces of degree >= 4 leave sections of O_C(d2 - 4) in the way
    assert normal_cohomology(CompleteIntersection(1, 4)).h1 == 1
    assert normal_cohomology(CompleteIntersection(4, 4)).h1 == 2


def test_invalid_families_rejected():
    with pytest.raises(ValueError):
        CompleteIntersection(1, 1)
    with pytest.raises(ValueError):
        CompleteIntersection(1, 2)
    with pytest.raises(ValueError):
        CompleteIntersection(2, 1)
    with pytest.raises(ValueError):
        CompleteIntersection(0, 3)
    with pytest.raises(ValueError):
        RationalCurve(0)
