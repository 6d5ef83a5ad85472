"""Riemann-Roch on P^3 and the Chern/Hilbert-polynomial dictionary.

The value form of `p3rr` is checked against the binomial-coordinate oracles
of `powerbasis`, which the transform tests also use as a second route.
"""

import pytest

from powerbasis import chern_from_hp, hp_from_chern
from sheafatlas.exactpoly import HilbertPolynomial
from sheafatlas.p3rr import (
    ChernData,
    chern_from_values,
    chi_o_p3,
    h0_o_p3,
    hp_value,
)


def test_chi_examples():
    assert chi_o_p3(0) == 1
    assert chi_o_p3(1) == 4
    assert chi_o_p3(-5) == -4


def test_serre_duality_on_p3():
    for j in range(-30, 31):
        assert chi_o_p3(j) == -chi_o_p3(-4 - j)


def test_h0_examples():
    assert h0_o_p3(2) == 10
    assert h0_o_p3(-1) == 0
    assert h0_o_p3(4) == 35


def test_h0_vs_chi():
    for j in range(-30, 31):
        if j >= 0:
            assert h0_o_p3(j) == chi_o_p3(j)
        else:
            assert h0_o_p3(j) == 0


def test_hp_from_chern_trivial_bundle():
    # O + O: twice chi(O(t)) = C(t+3, 3)
    assert hp_from_chern(ChernData(0, 0)) == HilbertPolynomial(0, 0, 0, 2)
    assert all(hp_value(ChernData(0, 0), t) == 2 * chi_o_p3(t)
               for t in range(-6, 7))


def test_hp_from_chern_point_values():
    # extension of the ideal of a line by O: chi = chi(O) + chi(I_line)
    assert hp_from_chern(ChernData(1, 2)).eval(0) == 1
    assert hp_from_chern(ChernData(3, 0)).eval(1) == -1
    assert hp_value(ChernData(1, 2), 0) == 1
    assert hp_value(ChernData(3, 0), 1) == -1


def test_value_form_round_trip():
    for c2 in range(-20, 61):
        for c3 in range(-100, 301, 2):
            data = ChernData(c2, c3)
            assert chern_from_values(hp_value(data, 0),
                                     hp_value(data, 1)) == data


def test_chern_round_trip():
    # the binomial oracles invert each other, and agree with the value form
    for c2 in range(-20, 61):
        for c3 in range(-100, 301, 2):
            data = ChernData(c2, c3)
            p = hp_from_chern(data)
            assert chern_from_hp(p) == data
            assert (p.eval(0), p.eval(1)) == (hp_value(data, 0),
                                              hp_value(data, 1))


def test_chern_from_hp_two_point_inversion():
    # solve P(0) = 0, P(1) = 4 by hand: c2 = 0 - 4 + 6, c3 = 2(0 - 2 + 2 c2)
    p = hp_from_chern(ChernData(2, 4))
    assert (p.eval(0), p.eval(1)) == (0, 4)
    assert chern_from_hp(p) == ChernData(2, 4)
    assert chern_from_values(0, 4) == ChernData(2, 4)


def test_chern_from_hp_shape_errors():
    with pytest.raises(ValueError, match="not a rank-2"):
        chern_from_hp(HilbertPolynomial(0, 0, 0, 1))  # chi(O(t))
    # one coordinate of a valid polynomial off by one: n3 != 2 or n2 != 0
    n0, n1, n2, n3 = hp_from_chern(ChernData(3, 4)).coords
    for coords in ((n0, n1, n2, n3 + 1), (n0, n1, n2, n3 - 1),
                   (n0, n1, n2 + 1, n3), (n0, n1, n2 - 1, n3)):
        with pytest.raises(ValueError, match="not a rank-2"):
            chern_from_hp(HilbertPolynomial(*coords))


def test_chern_from_hp_odd_c3():
    # Integer coordinates cannot carry the half-integral shift that once
    # gave an odd c3: shifting P by a constant 1 moves c3 by 2, staying even.
    n0, n1, n2, n3 = hp_from_chern(ChernData(1, 2)).coords
    p = HilbertPolynomial(n0 + 1, n1, n2, n3)
    assert chern_from_hp(p) == ChernData(1, 4)
    # the value form moves the same way: P(0) + 1, P(1) + 1
    assert chern_from_values(p.eval(0), p.eval(1)) == ChernData(1, 4)


def test_chern_data_parity_enforced():
    with pytest.raises(ValueError, match="odd c3"):
        ChernData(1, 3)
