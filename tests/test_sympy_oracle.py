"""Symbolic oracle for the Riemann-Roch polynomials of p3rr.

sympy expands the defining products itself, so neither check reuses the
closed forms written out in p3rr.  Test-only: the package stays stdlib-only.
"""

from fractions import Fraction

import pytest

from powerbasis import coefficient
from sheafatlas.p3rr import ChernData, hp_from_chern, hp_o_p3

sympy = pytest.importorskip("sympy")

t = sympy.Symbol("t")


def power_coefficients(expr):
    """Coefficients of t**0..t**3 of `expr`, as Fractions."""
    poly = sympy.Poly(sympy.expand(expr), t)
    return [Fraction(int(c.p), int(c.q))
            for c in (poly.coeff_monomial(t**k) for k in range(4))]


def coefficients(p):
    return [coefficient(p, k) for k in range(4)]


def chi_o_p3_shifted(j):
    """chi(O_P3(t + j)) = (t+j+1)(t+j+2)(t+j+3)/6, unexpanded."""
    return (t + j + 1) * (t + j + 2) * (t + j + 3) / 6


# hp_of_resolution shifts by -kappa - 3 .. -kappa with 2*kappa = 3a+2b+c,
# so weights up to 30 use j in -18..0, well inside -40..40.
@pytest.mark.parametrize("j", range(-40, 41))
def test_hp_o_p3_is_the_expanded_product(j):
    assert coefficients(hp_o_p3(j)) == power_coefficients(chi_o_p3_shifted(j))


@pytest.mark.parametrize("c2", range(-6, 31, 3))
def test_hp_from_chern_is_riemann_roch(c2):
    for c3 in range(-20, 61, 4):
        expected = (2 * chi_o_p3_shifted(0) - c2 * (t + 2)
                    + sympy.Rational(c3, 2))
        assert (coefficients(hp_from_chern(ChernData(2, 0, c2, c3)))
                == power_coefficients(expected))
