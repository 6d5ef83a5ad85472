"""Symbolic oracle for the Riemann-Roch dictionary of p3rr and for the
Chern data that families.chern_of reads off the resolution.

sympy expands the defining products itself, so no check reuses the closed
forms written out in p3rr or families.  The package's polynomials are
compared through their integer values (`hp_value`) at t = 4..7, values that
chern_of never reads; four values fix a cubic.  Test-only: the package
stays stdlib-only.
"""

from fractions import Fraction

import pytest

from powerbasis import coefficient, hp_from_chern
from sheafatlas.families import SplitResolution, chern_of
from sheafatlas.p3rr import ChernData, chi_o_p3, hp_value

sympy = pytest.importorskip("sympy")

t = sympy.Symbol("t")


def power_coefficients(expr):
    """Coefficients of t**0..t**3 of `expr`, as Fractions."""
    poly = sympy.Poly(sympy.expand(expr), t)
    return [Fraction(int(c.p), int(c.q))
            for c in (poly.coeff_monomial(t**k) for k in range(4))]


def coefficients(p):
    return [coefficient(p, k) for k in range(4)]


def is_value_form(c, expr):
    """hp_value(c, t) equals the expanded cubic `expr` at t = 4..7."""
    coeffs = power_coefficients(expr)
    return all(hp_value(c, u) == sum(q * u**k for k, q in enumerate(coeffs))
               for u in range(4, 8))


def chi_o_p3_shifted(j):
    """chi(O_P3(t + j)) = (t+j+1)(t+j+2)(t+j+3)/6, unexpanded."""
    return (t + j + 1) * (t + j + 2) * (t + j + 3) / 6


# The Hilbert polynomial of O_P3(j) is the cubic through the values that
# chi_o_p3 gives at j..j+3, which is all of each summand chern_of reads.
# The resolution shifts by -kappa - 3 .. -kappa with 2*kappa = 3a+2b+c, so
# weights up to 30 use j in -18..0, well inside -40..40.
@pytest.mark.parametrize("j", range(-40, 41))
def test_hp_o_p3_is_the_expanded_product(j):
    points = [(u, chi_o_p3(j + u)) for u in range(4)]
    assert (power_coefficients(sympy.interpolate(points, t))
            == power_coefficients(chi_o_p3_shifted(j)))


@pytest.mark.parametrize("weight", range(2, 31, 2))
def test_chern_of_is_the_expanded_resolution(weight):
    # every triple with 3a + 2b + c = weight; 545 triples in all
    kappa = weight // 2
    for a in range(weight // 3 + 1):
        for b in range((weight - 3 * a) // 2 + 1):
            c = weight - 3 * a - 2 * b
            expected = ((a + b + c + 2) * chi_o_p3_shifted(-kappa)
                        - a * chi_o_p3_shifted(-kappa - 3)
                        - b * chi_o_p3_shifted(-kappa - 2)
                        - c * chi_o_p3_shifted(-kappa - 1))
            chern = chern_of(SplitResolution(a, b, c))
            assert is_value_form(chern, expected)


@pytest.mark.parametrize("c2", range(-6, 31, 3))
def test_hp_from_chern_is_riemann_roch(c2):
    # the value form of p3rr, and the binomial oracle of the tests
    for c3 in range(-20, 61, 4):
        data = ChernData(2, 0, c2, c3)
        expected = (2 * chi_o_p3_shifted(0) - c2 * (t + 2)
                    + sympy.Rational(c3, 2))
        assert is_value_form(data, expected)
        assert coefficients(hp_from_chern(data)) == power_coefficients(expected)
