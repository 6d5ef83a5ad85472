"""Integer binomial coordinates: evaluation and the power-basis view."""

from fractions import Fraction

import pytest

from powerbasis import HilbertPolynomial, coefficient


# C(t+i, i) = (t+1)...(t+i) / i!, i = 0..3, and their power-basis
# coefficients multiplied out by hand.
BINOMIAL_BASIS = [HilbertPolynomial(*(int(j == i) for j in range(4)))
                  for i in range(4)]
BASIS_POWER_COEFFICIENTS = [
    [1, 0, 0, 0],
    [1, 1, 0, 0],
    [1, Fraction(3, 2), Fraction(1, 2), 0],
    [1, Fraction(11, 6), 1, Fraction(1, 6)],
]
CHI_P3 = BINOMIAL_BASIS[3]  # (t+1)(t+2)(t+3)/6


def brute_eval(coords, t):
    """Independent evaluation: the binomial products as Fractions."""
    total = Fraction(0)
    for i, n in enumerate(coords):
        term = Fraction(n)
        for j in range(1, i + 1):
            term *= Fraction(t + j, j)
        total += term
    return total


def test_eval_examples():
    assert CHI_P3.eval(0) == 1
    assert CHI_P3.eval(-4) == Fraction((-3) * (-2) * (-1), 6)
    assert CHI_P3.eval(-4) == -1
    # 4 + 2t = 2 + 2*C(t+1, 1)
    assert HilbertPolynomial(2, 2).eval(3) == 10


def test_eval_matches_brute_force():
    polys = [
        (0, 0, 0, 0), (5, 0, 0, 0), (1, -2, 0, 0), (0, 0, 1, 0),
        (0, 0, 0, 1), (-3, 7, -5, 2), (17, -40, 9, -11),
    ]
    for coords in polys:
        p = HilbertPolynomial(*coords)
        for t in range(-8, 9):
            assert p.eval(t) == brute_eval(coords, t)


def test_is_numerical():
    # Values are ints, not Fractions, on all of Z.
    p = HilbertPolynomial(-3, 7, -5, 2)
    assert all(type(p.eval(t)) is int for t in range(-10, 11))


def test_binomial_coordinates_of_basis():
    # C(t+i, i) vanishes at t = -1..-i and is (-1)**i at t = -i-1, so the
    # values at t = -1..-4 are triangular in the coordinates.
    for i, basis in enumerate(BINOMIAL_BASIS):
        assert [basis.eval(-j) for j in range(1, i + 2)] == [0] * i + [(-1) ** i]
        assert ([coefficient(basis, k) for k in range(4)]
                == BASIS_POWER_COEFFICIENTS[i])


def test_degree_cap_enforced():
    # four coordinates are all there is: no fifth, no t**4 term
    with pytest.raises(TypeError):
        HilbertPolynomial(0, 0, 0, 0, 1)
    assert coefficient(HilbertPolynomial(1, 2, 3, 4), 4) == 0

