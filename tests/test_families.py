"""Reflexive families: Chern routes, moduli dimensions, Ext profiles."""

import math
from fractions import Fraction

import pytest

from powerbasis import coefficient, hp_from_chern
from sheafatlas import families
from sheafatlas.families import (
    ExtProfile,
    IdealExtension,
    SplitResolution,
    chern_of,
    chern_sabc_closed,
    dim_moduli,
    dim_paut,
    euler_check,
    ext_profile,
    half_c3,
)
from sheafatlas.p3rr import ChernData, chi_o_p3, hp_value


def admissible_triples(max_weight):
    for w in range(2, max_weight + 1, 2):
        for a in range(w // 3 + 1):
            for b in range((w - 3 * a) // 2 + 1):
                yield (a, b, w - 3 * a - 2 * b)


def resolution_value(a, b, c, t):
    """The resolution's Hilbert polynomial at t, summed term by term."""
    kappa = (3 * a + 2 * b + c) // 2
    return ((a + b + c + 2) * chi_o_p3(t - kappa) - a * chi_o_p3(t - kappa - 3)
            - b * chi_o_p3(t - kappa - 2) - c * chi_o_p3(t - kappa - 1))


def test_resolution_point_values():
    # P(0), P(1) of the resolution, summed by hand, through chern_of
    assert (resolution_value(0, 0, 2, 0), resolution_value(0, 0, 2, 1)) == (0, 4)
    s002 = chern_of(SplitResolution(0, 0, 2))
    assert (hp_value(s002, 0), hp_value(s002, 1)) == (0, 4)
    assert hp_value(chern_of(SplitResolution(0, 1, 0)), 0) == 0
    assert hp_value(chern_of(SplitResolution(2, 0, 0)), 0) == 20


def test_resolution_rejects_bad_exponents():
    for abc in ((0, 0, 1), (0, 0, 0), (-1, 0, 3), (0, 1, 1)):
        # odd weight, zero weight, a negative exponent, odd weight
        with pytest.raises(ValueError):
            SplitResolution(*abc)
        with pytest.raises(ValueError):
            chern_sabc_closed(*abc)


def test_chern_of_rejects_a_non_riemann_roch_sum(monkeypatch):
    # A t**2 term in every summand survives the resolution sum (the
    # coefficients add to 2), so P(2) and P(3) miss the Riemann-Roch values
    # of the (c2, c3) read off P(0) and P(1).
    real = families.chi_o_p3
    monkeypatch.setattr(families, "chi_o_p3", lambda j: real(j) + j * j)
    chern_of.cache_clear()
    try:
        with pytest.raises(ValueError,
                           match="not a rank-2 c1=0 Hilbert polynomial"):
            chern_of(SplitResolution(0, 0, 2))
    finally:
        chern_of.cache_clear()


def test_closed_form_examples():
    assert chern_sabc_closed(0, 0, 2) == (2, Fraction(4))
    assert chern_sabc_closed(0, 1, 0) == (3, Fraction(8))
    assert chern_sabc_closed(1, 0, 1) == (9, Fraction(77, 2))


def literal_closed_form(a, b, c):
    """Reference: the closed form for (c2, c3), evaluated term by term in
    Fraction arithmetic."""
    kappa = (3 * a + 2 * b + c) // 2
    c2 = kappa * kappa + 3 * kappa - (b + c)
    c3 = Fraction(27 * math.comb(a + 2, 3) + 8 * math.comb(b + 2, 3) + math.comb(c + 2, 3))
    c3 += 3 * (3 * a + 2 * b + 5) * a * b
    c3 += Fraction(3, 2) * (2 * a + c + 4) * a * c
    c3 += (2 * b + 3 * c + 3) * b * c
    c3 += 6 * a * b * c
    return c2, c3


def test_closed_form_matches_the_literal_expression():
    triples = list(admissible_triples(30))
    assert len(triples) == 545
    for (a, b, c) in triples:
        c2, c3 = chern_sabc_closed(a, b, c)
        assert type(c3) is Fraction
        assert (c2, c3) == literal_closed_form(a, b, c)
    # the known disagreement stays visible: 77/2 against the oracle's 40
    assert chern_sabc_closed(1, 0, 1)[1] != chern_of(SplitResolution(1, 0, 1)).c3


def test_chern_of_examples():
    assert chern_of(SplitResolution(0, 0, 2)) == ChernData(2, 0, 2, 4)
    assert chern_of(IdealExtension(1)) == ChernData(2, 0, 1, 2)
    # mixed triple where the closed form is wrong; the resolution wins
    assert chern_of(SplitResolution(1, 0, 1)) == ChernData(2, 0, 9, 40)


def test_closed_form_c2_always_agrees():
    for (a, b, c) in admissible_triples(30):
        closed_c2, _ = chern_sabc_closed(a, b, c)
        assert closed_c2 == chern_of(SplitResolution(a, b, c)).c2


def test_closed_form_c3_single_exponent_agrees():
    for (a, b, c) in admissible_triples(30):
        if a * b == 0 and a * c == 0 and b * c == 0:
            _, closed_c3 = chern_sabc_closed(a, b, c)
            assert closed_c3 == chern_of(SplitResolution(a, b, c)).c3


def test_c3_parity_and_positivity():
    for (a, b, c) in admissible_triples(30):
        fam = SplitResolution(a, b, c)
        assert chern_of(fam).c3 % 2 == 0
        assert half_c3(fam) >= 1
    for m in range(1, 21):
        fam = IdealExtension(m)
        assert chern_of(fam).c3 == 4 * m - 2
        assert half_c3(fam) == 2 * m - 1


def test_hp_of_family_is_the_resolution_polynomial():
    # The family polynomial is rebuilt from the cached Chern data; its values
    # must be those of the presentation: the resolution sum for the split
    # family, and 2*chi(O(t)) - chi(O_Y(t)) = 2*chi(O(t)) - (mt + 1) for the
    # extension of I_Y by O, which gives (c2, c3) = (m, 4m - 2).
    for (a, b, c) in admissible_triples(30):
        chern = chern_of(SplitResolution(a, b, c))
        for t in range(-6, 7):
            assert hp_value(chern, t) == resolution_value(a, b, c, t)
    for m in range(1, 21):
        chern = chern_of(IdealExtension(m))
        for t in range(-6, 7):
            assert hp_value(chern, t) == 2 * chi_o_p3(t) - (m * t + 1)
        assert (chern.c2, chern.c3) == (m, 4 * m - 2)


def test_family_hilbert_polynomials_are_numerical():
    # integer values that agree with the rational power-basis view
    fams = [SplitResolution(*abc) for abc in admissible_triples(20)]
    fams += [IdealExtension(m) for m in range(1, 21)]
    for fam in fams:
        p = hp_from_chern(chern_of(fam))
        for t in range(-6, 7):
            value = p.eval(t)
            assert type(value) is int
            assert value == sum(coefficient(p, k) * t ** k for k in range(4))


def test_dim_moduli():
    assert dim_moduli(SplitResolution(0, 0, 2)) == 13
    assert dim_moduli(IdealExtension(1)) == 6
    assert dim_moduli(IdealExtension(3)) == 22
    # the normal-bundle count 8m - 2 for every m
    for m in range(1, 21):
        assert dim_moduli(IdealExtension(m)) == 8 * m - 2


def test_ext_profile():
    assert ext_profile(SplitResolution(0, 1, 0)) == ExtProfile(1, 21, 0, 0)
    assert ext_profile(IdealExtension(1)) == ExtProfile(2, 6, 0, 0)
    assert ext_profile(IdealExtension(2)) == ExtProfile(2, 14, 0, 0)


def test_dim_paut():
    assert dim_paut(SplitResolution(2, 0, 0)) == 0
    assert dim_paut(IdealExtension(1)) == 1
    assert dim_paut(IdealExtension(7)) == 1


def test_euler_check_examples():
    fam = SplitResolution(0, 0, 2)
    assert ext_profile(fam).euler_sum == -12 == 4 - 8 * 2
    assert euler_check(fam)
    assert ext_profile(IdealExtension(1)).euler_sum == -4
    assert euler_check(IdealExtension(1))
    assert ext_profile(IdealExtension(5)).euler_sum == -36
    assert euler_check(IdealExtension(5))


def test_euler_check_ranges():
    for (a, b, c) in admissible_triples(30):
        assert euler_check(SplitResolution(a, b, c))
    for m in range(1, 21):
        assert euler_check(IdealExtension(m))


def test_invalid_extension_degree():
    with pytest.raises(ValueError):
        IdealExtension(0)
