"""The two input families of reflexive rank-2 sheaves.

`SplitResolution(a, b, c)` is the stable family presented by a length-one
resolution with split bundles: (a+b+c+2) copies of O surject onto the
(3a+2b+c)/2 twist of the sheaf, with kernel a*O(-3) + b*O(-2) + c*O(-1).
`IdealExtension(m)` is the properly mu-semistable family of extensions of
the ideal sheaf of a smooth rational curve of degree m by O.

Both families are read the same way: `presentation_value` gives the Hilbert
polynomial of the sheaf at an integer, summed from its presentation (the
resolution, or the defining extension), and `chern_of` inverts its values
at t = 0..3 through the Riemann-Roch dictionary of `p3rr`.  The split
family has a second route, the closed forms in a, b, c; the closed form
for c3 fails integrality on some mixed exponent triples, so it is returned
as an exact rational and audited, never trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .p3rr import ChernData, chern_from_values, chi_o_p3, hp_value


def _validate_exponents(a: int, b: int, c: int) -> int:
    """Check the family constraints and return kappa = (3a+2b+c)/2."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError("resolution exponents must be nonnegative")
    w = 3 * a + 2 * b + c
    if w <= 0 or w % 2 != 0:
        raise ValueError("3a+2b+c must be positive and even, got %d" % w)
    return w // 2


@dataclass(frozen=True)
class SplitResolution:
    """Stable reflexive sheaves resolved by split bundles; trivial PAut."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        _validate_exponents(self.a, self.b, self.c)

    @property
    def kappa(self) -> int:
        return (3 * self.a + 2 * self.b + self.c) // 2


@dataclass(frozen=True)
class IdealExtension:
    """Properly mu-semistable extensions 0 -> O -> F -> I_Y -> 0 with Y a
    smooth rational curve of degree m; PAut is one-dimensional."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("curve degree m must be positive")


ReflexiveFamily = SplitResolution | IdealExtension


@dataclass(frozen=True)
class ExtProfile:
    """Dimensions of Ext^i(F, F) for a general member of the family."""

    hom: int
    ext1: int
    ext2: int
    ext3: int

    @property
    def euler_sum(self) -> int:
        return self.hom - self.ext1 + self.ext2 - self.ext3


def chern_sabc_closed(a: int, b: int, c: int) -> tuple[int, Fraction]:
    """Closed-form (c2, c3) of the split family, evaluated literally.

    c2 is always an integer.  The c3 expression is returned as an exact
    rational because its cross term (3/2)(2a+c+4)ac is non-integral on
    triples such as (1, 0, 1); callers compare it against chern_of and
    surface any disagreement instead of hiding it.  The sum is taken in
    integers as 2*c3, whose terms are all integral, and halved once.
    """
    kappa = _validate_exponents(a, b, c)
    c2 = kappa * kappa + 3 * kappa - (b + c)
    twice_c3 = 3 * (2 * a + c + 4) * a * c + 2 * (
        27 * math.comb(a + 2, 3) + 8 * math.comb(b + 2, 3) + math.comb(c + 2, 3)
        + 3 * (3 * a + 2 * b + 5) * a * b + (2 * b + 3 * c + 3) * b * c
        + 6 * a * b * c)
    return c2, Fraction(twice_c3, 2)


def presentation_value(family: ReflexiveFamily, t: int) -> int:
    """chi(F(t)) for a family member F, summed from its presentation.

    Split family, from the resolution with k = (3a+2b+c)/2:
        (a+b+c+2)*chi(O(t-k)) - a*chi(O(t-k-3)) - b*chi(O(t-k-2))
        - c*chi(O(t-k-1)).
    Ideal extension 0 -> O -> F -> I_Y -> 0, Y rational of degree m, so
    chi(O_Y(t)) = m*t + 1:  2*chi(O(t)) - (m*t + 1).
    """
    if isinstance(family, IdealExtension):
        return 2 * chi_o_p3(t) - (family.m * t + 1)
    a, b, c = family.a, family.b, family.c
    u = t - family.kappa
    return ((a + b + c + 2) * chi_o_p3(u) - a * chi_o_p3(u - 3)
            - b * chi_o_p3(u - 2) - c * chi_o_p3(u - 1))


@lru_cache(maxsize=None)
def chern_of(family: ReflexiveFamily) -> ChernData:
    """Chern data of a family member, read off its presentation.

    P(0) and P(1) give (c2, c3); P(2) and P(3) must then be the Riemann-Roch
    values of that data, since four values fix a cubic and a rank-2, c1 = 0
    sheaf has no other Hilbert polynomial.  For V:m this gives c2 = m and
    c3 = 4m - 2 (Hartshorne, Stable reflexive sheaves, 1980).

    This is the authoritative oracle; the closed forms of the split family
    are audited against it by the transform module (c2 certified, c3
    flagged as a note).
    """
    values = [presentation_value(family, t) for t in range(4)]
    chern = chern_from_values(*values[:2])
    if values[2:] != [hp_value(chern, 2), hp_value(chern, 3)]:
        raise ValueError("not a rank-2 c1=0 Hilbert polynomial")
    return chern


def half_c3(family: ReflexiveFamily) -> int:
    """n = c3/2, the weight of the singular points of the sheaf."""
    c3 = chern_of(family).c3
    n = c3 // 2
    if n < 1:
        raise ValueError("expected positive c3/2, got %d" % n)
    return n


def dim_moduli(family: ReflexiveFamily) -> int:
    """Dimension of the family's moduli space.

    Split family: the expected dimension 8*c2 - 3.  Ideal extensions over a
    rational curve of degree m: h0(N_Y) + h0(omega_Y(4)) - 1 with
    h0(N_Y) = 4m and h0(omega_Y(4)) = h0(O_P1(4m-2)) = 4m - 1, so 8m - 2.
    """
    if isinstance(family, SplitResolution):
        return 8 * chern_of(family).c2 - 3
    return 8 * family.m - 2


def ext_profile(family: ReflexiveFamily) -> ExtProfile:
    """Ext^i(F, F) dimensions for a general member.

    Split family members are simple with unobstructed deformations;
    ideal extensions have a two-dimensional endomorphism algebra.  Both
    have ext1 equal to the moduli dimension, and ext2 = ext3 = 0 (for
    extensions under the rational-curve convention).
    """
    hom = 1 if isinstance(family, SplitResolution) else 2
    return ExtProfile(hom, dim_moduli(family), 0, 0)


def dim_paut(family: ReflexiveFamily) -> int:
    """Dimension of Aut(F) modulo scalars: 0 if stable, 1 for extensions."""
    return 0 if isinstance(family, SplitResolution) else 1


def euler_check(family: ReflexiveFamily) -> bool:
    """Alternating Ext sum against the Euler pairing value 4 - 8*c2."""
    return ext_profile(family).euler_sum == 4 - 8 * chern_of(family).c2
