"""Power-basis view of the package's binomial-coordinate polynomials.

The package computes with integer binomial coordinates only; tests and the
symbolic oracle compare against the coefficients of t**k, which are
rational, so the view lives here and not in the integer core.
"""

from fractions import Fraction


def coefficient(p, k: int) -> Fraction:
    """Coefficient of t**k in the HilbertPolynomial p (zero beyond degree 3)."""
    n0, n1, n2, n3 = p.coords
    if k == 0:
        return Fraction(n0 + n1 + n2 + n3)
    if k == 1:
        return n1 + Fraction(3 * n2, 2) + Fraction(11 * n3, 6)
    if k == 2:
        return Fraction(n2, 2) + n3
    return Fraction(n3, 6) if k == 3 else Fraction(0)
