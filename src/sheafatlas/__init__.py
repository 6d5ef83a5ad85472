"""Exact enumeration and certification of moduli components of rank-2
semistable sheaves on P^3 obtained by elementary transformations of
reflexive sheaves along curves and collections of points.

All arithmetic is exact and done in integers; the closed-form c3, which can
be half-integral, is carried as 2*c3.  Every Chern number is read off
integer values of a Hilbert polynomial through the Riemann-Roch dictionary
in `p3rr`; no module of the package uses `exactpoly.HilbertPolynomial`.
Closed-form formulas are compared with a second route, and disagreements
are reported rather than repaired.  The section-count and
tangent-dimension comparisons restate their first route instead; ROADMAP
item 4 lists the independent routes meant to replace them.
"""

from .atlas import (
    EnumerationOptions,
    VerificationSummary,
    curve_families_of_degree,
    iter_components,
    solve_sabc,
    verify_atlas,
)
from .curvecoh import CompleteIntersection, CurveCohomology, RationalCurve
from . import exactpoly  # perfbench/tracer.py wraps its HilbertPolynomial
from .families import ExtProfile, IdealExtension, SplitResolution
from .p3rr import CertificateError, ChernData, chi_o_p3, h0_o_p3
from .transform import (
    ComponentDescriptor,
    ComponentReport,
    ConditionStatus,
    ConditionVerdict,
    ErratumNote,
    InadmissibleDescriptor,
    SingularitySignature,
    build_report,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateError",
    "ChernData",
    "CompleteIntersection",
    "ComponentDescriptor",
    "ComponentReport",
    "ConditionStatus",
    "ConditionVerdict",
    "CurveCohomology",
    "EnumerationOptions",
    "ErratumNote",
    "ExtProfile",
    "IdealExtension",
    "InadmissibleDescriptor",
    "RationalCurve",
    "SingularitySignature",
    "SplitResolution",
    "VerificationSummary",
    "build_report",
    "chi_o_p3",
    "curve_families_of_degree",
    "h0_o_p3",
    "iter_components",
    "solve_sabc",
    "verify_atlas",
]
