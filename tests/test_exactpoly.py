"""Exact polynomial arithmetic: evaluation, addition, integrality."""

from fractions import Fraction

import pytest

from sheafatlas.exactpoly import HilbertPolynomial


# Power-basis coefficients of C(t+i, i) = (t+1)...(t+i) / i!, i = 0..3,
# multiplied out by hand.
BINOMIAL_BASIS = [
    HilbertPolynomial([1]),
    HilbertPolynomial([1, 1]),
    HilbertPolynomial([1, Fraction(3, 2), Fraction(1, 2)]),
    HilbertPolynomial([1, Fraction(11, 6), 1, Fraction(1, 6)]),
]
CHI_P3 = BINOMIAL_BASIS[3]  # (t+1)(t+2)(t+3)/6


def brute_eval(coeffs, t):
    """Independent evaluation: sum of monomials, no Horner."""
    return sum(Fraction(a) * Fraction(t) ** k for k, a in enumerate(coeffs))


def test_eval_examples():
    assert CHI_P3.eval(0) == 1
    assert CHI_P3.eval(-4) == Fraction((-3) * (-2) * (-1), 6)
    assert CHI_P3.eval(-4) == -1
    assert HilbertPolynomial([4, 2]).eval(3) == 10


def test_eval_matches_brute_force():
    polys = [
        (0,), (5,), (1, -2), (0, 0, Fraction(1, 2)),
        (1, Fraction(11, 6), 1, Fraction(1, 6)),
        (-3, 7, Fraction(-5, 3), 2),
    ]
    for coeffs in polys:
        p = HilbertPolynomial(coeffs)
        for t in range(-8, 9):
            assert p.eval(t) == brute_eval(coeffs, t)


def test_sub_self_is_zero():
    p = HilbertPolynomial([1, -2, Fraction(3, 7), 5])
    assert p - p == HilbertPolynomial.zero()


def test_add_doubles_chi():
    assert (CHI_P3 + CHI_P3).eval(1) == 8


def test_eval_is_additive():
    ps = [HilbertPolynomial([1, 2, 3]), HilbertPolynomial([0, Fraction(1, 2)]),
          HilbertPolynomial([-4, 0, 0, 1])]
    for p in ps:
        for q in ps:
            for t in range(-5, 6):
                assert (p + q).eval(t) == p.eval(t) + q.eval(t)


def test_is_numerical():
    assert HilbertPolynomial([0, Fraction(1, 2), Fraction(1, 2)]).is_numerical()
    assert not HilbertPolynomial([0, Fraction(1, 2)]).is_numerical()
    assert CHI_P3.is_numerical()
    # all binomial basis polynomials are integer-valued
    for basis in BINOMIAL_BASIS:
        assert basis.is_numerical()


def test_binomial_coordinates_of_basis():
    for i, basis in enumerate(BINOMIAL_BASIS):
        coords = basis.binomial_coordinates()
        expected = tuple(Fraction(1 if j == i else 0) for j in range(4))
        assert coords == expected


def test_degree_cap_enforced():
    with pytest.raises(ValueError):
        HilbertPolynomial([0, 0, 0, 0, 1])
    # trailing zeros normalize away and do not trip the cap
    assert HilbertPolynomial([1, 0, 0, 0, 0]).degree == 0


def test_eval_int_rejects_fractions():
    p = HilbertPolynomial([0, Fraction(1, 2)])
    assert p.eval_int(2) == 1
    with pytest.raises(ValueError):
        p.eval_int(1)
