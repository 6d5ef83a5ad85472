"""Property tests of the integer Riemann-Roch core against the rational
formulas it replaces.  Test-only: the package stays stdlib-only."""

from fractions import Fraction

import pytest

from sheafatlas.families import SplitResolution, chern_of
from sheafatlas.p3rr import ChernData, chern_from_values, chi_o_p3, hp_value

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

T_RANGE = range(-10, 11)


@settings(deadline=None)
@given(c2=st.integers(-500, 500), half_c3=st.integers(-500, 500))
def test_hp_from_chern_is_the_rational_riemann_roch(c2, half_c3):
    # the value form is the rational formula, and P(0), P(1) invert it
    c3 = 2 * half_c3
    data = ChernData(c2, c3)
    for t in T_RANGE:
        expected = (2 * Fraction((t + 1) * (t + 2) * (t + 3), 6)
                    - c2 * (t + 2) + Fraction(c3, 2))
        assert hp_value(data, t) == expected
    assert chern_from_values(hp_value(data, 0), hp_value(data, 1)) == data


@settings(deadline=None)
@given(a=st.integers(0, 12), b=st.integers(0, 12), j=st.integers(0, 12))
def test_hp_of_resolution_is_the_resolution_sum(a, b, j):
    c = 2 * j + a % 2  # makes 3a + 2b + c even
    assume(a + b + c > 0)
    kappa = (3 * a + 2 * b + c) // 2
    # chern_of reads the sum at t = 0..3 only; the Riemann-Roch values of
    # its (c2, c3) must match the sum everywhere else too.
    chern = chern_of(SplitResolution(a, b, c))
    for t in T_RANGE:
        assert hp_value(chern, t) == (
            (a + b + c + 2) * chi_o_p3(t - kappa)
            - a * chi_o_p3(t - kappa - 3)
            - b * chi_o_p3(t - kappa - 2)
            - c * chi_o_p3(t - kappa - 1))
