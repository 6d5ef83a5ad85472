"""Bookkeeping for one elementary transformation (R, H1, s).

A descriptor picks a reflexive family R, a curve family H1 and a number s
of extra points; the one codec for its tags ("S:a,b,c" or "V:m", "R:d" or
"CI:d1,d2") lives here.  The transformed sheaf E is the kernel of a
surjection from a family member F onto L + O_W, where L is a line bundle on
the curve and W is a set of s points.  Everything derived from that datum
is computed here.

The reports over one (R, C) pair form a run, s = 0..n; what does not vary
with s is derived and certified once per run.  Chern numbers and the
stability margin are read off integer values of Hilbert polynomials
through the dictionary in `p3rr`, so no polynomial object is built here.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .curvecoh import (
    CompleteIntersection,
    CurveFamily,
    RationalCurve,
    genus,
    normal_cohomology,
)
from .families import (
    IdealExtension,
    ReflexiveFamily,
    SplitResolution,
    chern_of,
    chern_sabc_closed,
    dim_moduli,
    dim_paut,
    ext_profile,
    half_c3,
    halved,
)
from .p3rr import (CertificateError, ChernData, chern_from_values, chi_o_p3,
                   hp_value)

DEFAULT_MIN_CURVE_DEGREE = 2

# Published values for the single new component of the c2 = 3 moduli space
# (ideal extension over a line, transformed along a conic, no points).  The
# published dimension disagrees with the assembled count; reports flag the
# difference instead of asserting either number silently.
PUBLISHED_M3_DIMENSION = 21
PUBLISHED_M3_SPECTRUM = (-1, 0, 1)
# Previously published component count of the c2 = 3 moduli space; the
# enumeration here adds one more, so the total is at least 11.  Stored as a
# literature constant, never computed.
PUBLISHED_M3_PRIOR_COMPONENTS = 10


class ConditionStatus(enum.Enum):
    HOLDS = "Holds"
    HOLDS_GENERICALLY = "HoldsGenerically"
    FAILS = "Fails"


# Stable identifiers for the admissibility ledger, in report order.
CONDITION_IDS = (
    "points-bound",            # s against n = c3(R)/2
    "degree-bound",            # m < deg(C) for the extension family
    "curve-points-disjoint",   # C and W do not meet
    "sing-disjoint",           # Sing(F) away from C and W (split family)
    "section-curve-disjoint",  # Y_F away from C and W (extension family)
    "hom-h1-vanishing",        # h1(Hom(F, L)) = 0
    "surjection-exists",       # some map F -> L + O_W is onto
    "twist-sections-vanish",   # h0(omega_C(4) - 2L) = 0
)


class InadmissibleDescriptor(ValueError):
    """Raised when a descriptor violates a hard numeric constraint."""


class ComponentDescriptor(namedtuple("ComponentDescriptor",
                                      "reflexive curve s")):
    """The datum of one elementary transformation: (R, H1, s)."""

    __slots__ = ()

    def __new__(cls, reflexive: ReflexiveFamily, curve: CurveFamily, s: int):
        if s < 0:
            raise ValueError("number of points must be nonnegative")
        return tuple.__new__(cls, (reflexive, curve, s))


M3_DESCRIPTOR = ComponentDescriptor(IdealExtension(1), RationalCurve(2), 0)


def reflexive_tag(fam: ReflexiveFamily) -> str:
    if isinstance(fam, SplitResolution):
        return "S:%d,%d,%d" % (fam.a, fam.b, fam.c)
    return "V:%d" % fam.m


def curve_tag(curve: CurveFamily) -> str:
    if isinstance(curve, RationalCurve):
        return "R:%d" % curve.d
    return "CI:%d,%d" % (curve.d1, curve.d2)


def tag_kind(tag: str) -> str:
    """The family kind of a descriptor tag: "S", "V", "R" or "CI"."""
    return tag.partition(":")[0]


def canonical_int(text: str) -> int:
    """int(text) if it prints back as text: "-5", but not "05", "+5" or " 5"."""
    if str(int(text)) != text:
        raise ValueError("not a canonical integer: %r" % text)
    return int(text)


def _parse_tag(text: str, side: str, kinds: dict):
    """Split "KIND:n1,...", then build kinds[KIND] = (constructor, arity);
    "R:03", "R:+3" or "R: 3" are refused (canonical_int), not read as R:3."""
    kind, _, rest = text.partition(":")
    try:
        numbers = [canonical_int(p) for p in rest.split(",")]
    except ValueError:
        numbers = []
    constructor, arity = kinds.get(kind, (None, -1))
    if len(numbers) != arity:
        raise ValueError("cannot parse %s family %r" % (side, text))
    return constructor(*numbers)


def parse_reflexive(text: str) -> ReflexiveFamily:
    """Parse "S:a,b,c" or "V:m"; raises ValueError on anything else."""
    return _parse_tag(text, "reflexive",
                      {"S": (SplitResolution, 3), "V": (IdealExtension, 1)})


def parse_curve(text: str) -> CurveFamily:
    """Parse "R:d" or "CI:d1,d2"; raises ValueError on anything else."""
    return _parse_tag(text, "curve", {"R": (RationalCurve, 1),
                                      "CI": (CompleteIntersection, 2)})


ConditionVerdict = namedtuple("ConditionVerdict", "condition status note")


# Ledger entries fixed by the reflexive family kind, shared by every
# check_conditions call: the split family's vacuous degree bound, and
# curve-points-disjoint through surjection-exists in CONDITION_IDS order.
_SPLIT_DEGREE_BOUND = ConditionVerdict(
    "degree-bound", ConditionStatus.HOLDS, "vacuous for the split family")
_CURVE_POINTS_DISJOINT = ConditionVerdict(
    "curve-points-disjoint", ConditionStatus.HOLDS_GENERICALLY,
    "open dense: W can be placed off C")
_OPEN_DENSE_TAIL = (
    ConditionVerdict("hom-h1-vanishing", ConditionStatus.HOLDS_GENERICALLY,
                     "open dense; the section counts in this report assume it"),
    ConditionVerdict("surjection-exists", ConditionStatus.HOLDS_GENERICALLY,
                     "open dense subset of Hom(F, Q)"),
)
_FAMILY_VERDICTS = {
    SplitResolution: (
        _CURVE_POINTS_DISJOINT,
        ConditionVerdict("sing-disjoint", ConditionStatus.HOLDS_GENERICALLY,
                         "open dense: C and W can be moved off Sing(F)"),
        ConditionVerdict("section-curve-disjoint", ConditionStatus.HOLDS,
                         "vacuous for the split family"),
        *_OPEN_DENSE_TAIL,
    ),
    IdealExtension: (
        _CURVE_POINTS_DISJOINT,
        ConditionVerdict("sing-disjoint", ConditionStatus.HOLDS,
                         "vacuous for the extension family"),
        ConditionVerdict("section-curve-disjoint",
                         ConditionStatus.HOLDS_GENERICALLY,
                         "open dense: C and W can be moved off Y_F"),
        *_OPEN_DENSE_TAIL,
    ),
}


SingularitySignature = namedtuple(
    "SingularitySignature",
    "curve_parts isolated_points_from_w reflexive_sing_c3")
SingularitySignature.__doc__ = """Decomposition of Sing(E): the curve parts
(deg C, g), the points of W, and the singular points inherited from the
reflexive hull (weight c3(R))."""


ErratumNote = namedtuple("ErratumNote", "code message values",
                         defaults=((),))
ErratumNote.__doc__ = """A flagged disagreement or literature record attached
to a report; values is a tuple of (key, value) pairs."""


def dedup_notes(notes) -> tuple[ErratumNote, ...]:
    """The notes in first-seen order, one per (code, values)."""
    first: dict = {}
    for note in notes:
        first.setdefault((note.code, note.values), note)
    return tuple(first.values())


ComponentReport = namedtuple("ComponentReport", (
    "descriptor k chern_e deg_l chi_l chi_hom_fl hom_orbit_dim "
    "dim_component dim_tangent verdicts signature erratum_notes "
    "reflexive_chern reflexive_chern_closed normal_bundle_h1"))
ComponentReport.__doc__ = """Everything assemble_report derives for one
descriptor; the closed form is (c2, 2*c3) in integers, or None for the
extension family."""


ComponentRun = namedtuple("ComponentRun", (
    "reflexive curve chern_r chern_e chi_l0 genus normal_h1 dim_fixed "
    "tangent_fixed closed notes curve_parts"))
ComponentRun.__doc__ = """What component_run derives once for the reports over
(R, C): every report field that does not vary with s, chi(L) at s = 0, and
the s-free parts of the component and tangent dimensions."""


def chi_l(d: ComponentDescriptor) -> int:
    """chi(L) = 2*deg(C) + n - s, forced by c3(E) = 0."""
    return 2 * d.curve.degree + half_c3(d.reflexive) - d.s


def chern_of_e(d: ComponentDescriptor, chi: int) -> ChernData:
    """Chern data of E = ker(F -> Q), chi = chi(L), from the integer values
    P(E)(0) and P(E)(1) of P(E) = P(F) - P(Q).

    P(F) is the Riemann-Roch value of c(R) and P(Q)(t) = chi(L) + s +
    deg(C)*t.  The result must come out as (2, 0, c2(R) + deg(C), 0);
    anything else means chi(L) was overridden inconsistently.
    """
    r, deg = chern_of(d.reflexive), d.curve.degree
    chern = chern_from_values(*(hp_value(r, t) - (chi + d.s + deg * t)
                                for t in (0, 1)))
    if chern.c3 != 0:
        raise CertificateError(
            "c3 of the transformed sheaf is %d, not 0" % chern.c3)
    return chern


def chi_hom_fl(d: ComponentDescriptor, chi: int) -> int:
    """chi(Hom(F, L)) with chi = chi(L), equal to 2*chi(L) for both
    families.

    F restricts trivially to a general curve, which gives the 2*chi(L)
    route.  For the split family the resolution gives a second expression,
    (a+b+c+2)*chi(L(k)) minus the three twisted terms with
    chi(L(j)) = chi(L) + j*deg(C).  It is not an independent route: its
    difference from 2*chi(L) is deg(C)*(2k - 3a - 2b - c), which
    SplitResolution forces to 0, so the comparison restates that constraint
    (ROADMAP item 4 lists the routes meant to replace it).
    """
    value = 2 * chi
    fam = d.reflexive
    if isinstance(fam, SplitResolution):
        deg = d.curve.degree

        def chi_l_twist(j: int) -> int:
            return chi + j * deg

        kappa = fam.kappa
        via_resolution = (
            (fam.a + fam.b + fam.c + 2) * chi_l_twist(kappa)
            - fam.a * chi_l_twist(kappa + 3)
            - fam.b * chi_l_twist(kappa + 2)
            - fam.c * chi_l_twist(kappa + 1)
        )
        if via_resolution != value:
            raise CertificateError(
                "route mismatch for chi(Hom(F,L)): %d vs %d"
                % (via_resolution, value)
            )
    return value


def max_points(n: int, curve: CurveFamily) -> int:
    """The largest admissible s: n = c3(R)/2, or n - 1 on a rational curve,
    where the bound is strict."""
    return n - 1 if isinstance(curve, RationalCurve) else n


def check_conditions(d: ComponentDescriptor) -> tuple[ConditionVerdict, ...]:
    """The full admissibility ledger; runs on any raw triple.

    Numeric constraints are decided exactly.  The geometric ones hold on
    open dense subsets of the parameter space and are recorded as holding
    generically; the boundary case s = n survives only for line bundles
    whose square differs from the twisted canonical bundle, hence is also
    generic rather than certified.
    """
    fam, curve, s = d.reflexive, d.curve, d.s
    n = half_c3(fam)
    bound = max_points(n, curve)
    points = ConditionVerdict(
        "points-bound",
        ConditionStatus.HOLDS if s <= bound else ConditionStatus.FAILS,
        ("s=%d < n=%d (strict for rational curves)" if bound < n
         else "s=%d <= n=%d") % (s, n),
    )
    if isinstance(fam, IdealExtension):
        degree = ConditionVerdict(
            "degree-bound",
            ConditionStatus.HOLDS if fam.m < curve.degree
            else ConditionStatus.FAILS,
            "m=%d < deg(C)=%d" % (fam.m, curve.degree),
        )
    else:
        degree = _SPLIT_DEGREE_BOUND

    twist_deg = 2 * (s - n)
    if twist_deg < 0:
        status = ConditionStatus.HOLDS
        note = "deg(omega_C(4) - 2L) = %d < 0" % twist_deg
    elif twist_deg == 0:
        status = ConditionStatus.HOLDS_GENERICALLY
        note = "degree 0; needs the square of L to differ from omega_C(4)"
    else:
        status = ConditionStatus.FAILS
        note = "deg(omega_C(4) - 2L) = %d > 0" % twist_deg
    return (points, degree, *_FAMILY_VERDICTS[type(fam)],
            ConditionVerdict("twist-sections-vanish", status, note))


def check_curve_degree_floor(floor: int) -> int:
    """Return the curve-degree floor, rejecting floors below 1."""
    if floor < 1:
        raise ValueError("curve-degree floor must be positive")
    return floor


def stability_margin(d: ComponentDescriptor) -> tuple[int, int]:
    """Twice the slope margin of the transformed sheaf against its worst
    subsheaf, as the integer line (constant, slope) in t.

    Only the extension family needs a margin (the split family has
    h0(F) = 0 and is destabilized by nothing).  The margin is P(E)/2 -
    P(I_{C+W'}) for the worst case W' = W, with P(E) the Riemann-Roch value
    of the Chern classes of E and P(I_{C+W'})(t) = chi(O(t)) - (1 - g + s +
    deg(C)*t).  It is genuinely half-integral, so twice it is taken, at
    t = 0..3.  The cubic terms must cancel: its second differences vanish,
    or CertificateError.  The slope deg(C) - m is positive exactly when
    m < deg(C).
    """
    fam = d.reflexive
    if not isinstance(fam, IdealExtension):
        raise ValueError("stability margin applies to the extension family only")
    chern_e = chern_of_e(d, chi_l(d))
    deg, const = d.curve.degree, 1 - genus(d.curve) + d.s
    m = [hp_value(chern_e, t) - 2 * (chi_o_p3(t) - const - deg * t)
         for t in range(4)]
    if m[2] - 2 * m[1] + m[0] or m[3] - 2 * m[2] + m[1]:
        raise CertificateError(
            "stability margin with values %r at t = 0..3 is not linear" % m)
    return m[0], m[1] - m[0]


def _run_notes(
    reflexive: ReflexiveFamily, curve: CurveFamily, chern_r: ChernData,
    closed: tuple[int, int] | None,
) -> tuple[ErratumNote, ...]:
    """The erratum notes that every report of the (R, C) run carries."""
    notes = []
    oracle = chern_r.c3
    if closed is not None and closed[1] != 2 * oracle:
        tag = reflexive_tag(reflexive)
        text, den, num = halved(closed[1])
        notes.append(ErratumNote(
            code="closed-form-c3-mismatch",
            message=("closed-form c3 for %s gives %s; the resolution route "
                     "gives %d and is used" % (tag, text, oracle)),
            values=(("triple", tag),
                    ("closed_form", (("den", den), ("num", num))),
                    ("resolution_oracle", oracle)),
        ))
    if curve.degree < DEFAULT_MIN_CURVE_DEGREE:
        notes.append(ErratumNote(
            code="outside-degree-novelty",
            message=(
                "curve degree %d is below the default floor of %d; this "
                "configuration duplicates previously known component types"
                % (curve.degree, DEFAULT_MIN_CURVE_DEGREE)
            ),
            values=(("curve_degree", curve.degree),),
        ))
    return tuple(notes)


def _m3_note(dim: int) -> ErratumNote:
    """The literature note of M3_DESCRIPTOR, one descriptor of its run."""
    return ErratumNote(
        code="published-m3-values",
        message=(
            "published dimension %d for this component differs from the "
            "computed %d; published spectrum %s recorded as a literature "
            "note (the published label indexes the component by the line "
            "family, while the curve in the construction is a conic)"
            % (PUBLISHED_M3_DIMENSION, dim, str(PUBLISHED_M3_SPECTRUM))
        ),
        values=(
            ("computed_dimension", dim),
            ("published_dimension", PUBLISHED_M3_DIMENSION),
            ("published_spectrum", PUBLISHED_M3_SPECTRUM),
        ),
    )


def component_run(reflexive: ReflexiveFamily,
                  curve: CurveFamily) -> ComponentRun:
    """Derive and certify once what every report over (R, C) shares;
    assemble_report says what that is and why it holds for every s."""
    chern_r = chern_of(reflexive)
    first = ComponentDescriptor(reflexive, curve, 0)
    chi_l0 = chi_l(first)
    chern_e = chern_of_e(first, chi_l0)
    if chern_e.c2 != chern_r.c2 + curve.degree:
        raise CertificateError("c2(E) = %d is not c2(R) + deg(C)" % chern_e.c2)
    closed = None
    if isinstance(reflexive, SplitResolution):
        closed = chern_sabc_closed(reflexive.a, reflexive.b, reflexive.c)
        if closed[0] != chern_r.c2:
            raise CertificateError("closed-form c2 %d disagrees" % closed[0])
    g = genus(curve)
    normal = normal_cohomology(curve)
    profile = ext_profile(reflexive)
    return ComponentRun(
        reflexive=reflexive,
        curve=curve,
        chern_r=chern_r,
        chern_e=chern_e,
        chi_l0=chi_l0,
        genus=g,
        normal_h1=normal.h1,
        dim_fixed=(dim_moduli(reflexive) - dim_paut(reflexive)
                   + normal.h0 + g),
        tangent_fixed=normal.h0 + profile.ext1 + 1 - profile.hom + g,
        closed=closed,
        notes=_run_notes(reflexive, curve, chern_r, closed),
        curve_parts=((curve.degree, g),),
    )


def build_report(
    d: ComponentDescriptor, min_curve_degree: int = DEFAULT_MIN_CURVE_DEGREE,
    run: ComponentRun | None = None,
) -> ComponentReport:
    """Assemble the full report; rejects hard-constraint violations.  `run`
    is d's run if the caller holds it, as assemble_report takes it."""
    failures = [v.condition for v in check_conditions(d)
                if v.condition in ("points-bound", "degree-bound")
                and v.status is ConditionStatus.FAILS]
    if failures:
        raise InadmissibleDescriptor(
            "descriptor violates: %s" % ", ".join(failures)
        )
    if d.curve.degree < min_curve_degree:
        raise InadmissibleDescriptor(
            "curve degree %d below the configured floor %d"
            % (d.curve.degree, min_curve_degree)
        )
    return assemble_report(d, run)


def assemble_report(d: ComponentDescriptor,
                    run: ComponentRun | None = None) -> ComponentReport:
    """Assemble a report without enforcing the hard constraints.

    Used by build_report after validation, and by the CLI to render a
    best-effort report for inadmissible descriptors (the verdict column
    then shows the failures).  The report is the member at d.s of `run`,
    the component_run of (R, C), which is built here when none is passed.

    Derived and certified once per run, and why that holds for every s:

    - chern_e is read at s = 0.  P(E) = P(F) - P(Q) with P(Q)(t) = chi(L)
      + s + deg(C)*t, which depends on chi(L) + s = 2*deg(C) + n only, so
      P(E), its c3 = 0 and its c2(E) = c2(R) + deg(C) certificates are the
      same at every s.
    - The closed form and its c2 certificate read only a, b and c.
    - c(R), the genus, h0(N_C), h1(N_C), the Ext profile and dim R - dim
      PAut(F) read only the family or only the curve.  They enter the
      s-free parts of the two dimension routes, which are still compared
      at every s.
    - The run's notes are one shared tuple: closed-form-c3-mismatch and
      outside-degree-novelty depend on R or on C alone.

    Derived here, once per report, top-down:

    - chi(L) = 2*deg(C) + n - s (chi_l) falls by one per point, and
      deg(L) = g - 1 + chi(L) by Riemann-Roch on C.
    - The orbit space Hom(F, Q)/Aut(Q) has dimension (chi(Hom(F,L)) - 1)
      + s: h0(Hom(F, L)) equals the Euler characteristic under the
      h1-vanishing condition, giving a projective space of dimension
      chi - 1, and each point of W adds a P^1 of surjections onto its
      skyscraper.  chi < 1 raises ValueError ("empty Hom").
    - The component dimension is dim R + dim Sym^s(P^3) + (dim Hilb(C) + g)
      + orbit dim - dim PAut(F): the genus term is the Jacobian of C, each
      point contributes 3, and dim Hilb(C) is read off the tangent space
      h0(N_C) (h1(N_C) is reported alongside as the obstruction datum).
    - The tangent dimension is assembled along the local-to-global route,
      written separately: dim Ext^1(E,E) = h0(Ext^1(E,E)) + h1(Hom(E,E))
      - h2(Hom(E,E)).  h0(Ext^1(E,E)) gives the normal bundles of W and C
      plus the Ext^1(F,F) block of the Ext profile; h1(Hom(E,E)) = 1
      - h0(Hom(F,F)) + h0(Hom(F,Q)) - h0(Hom(Q,Q)) + h1(Hom(Q,Q)) with
      h0(Hom(F,Q)) = chi(Hom(F,L)) + 2s, h0(Hom(Q,Q)) = 1 + s and
      h1(Hom(Q,Q)) = g.  Its difference from the component dimension is
      dim_fixed - tangent_fixed at every s, that is hom - 1 - dim PAut(F)
      with ext1 = dim R, all fixed per family kind in `families`, so the
      comparison (a mismatch raises CertificateError) restates those
      constants rather than an independent route.
    - Sing(E) is the curve (deg C, g), the s points of W and the singular
      points of the reflexive hull, of weight c3(R).
    - The verdicts are the full ledger of d.  The published-m3-values note
      belongs to M3_DESCRIPTOR, not to its run, and is added here.
    """
    if run is None:
        run = component_run(d.reflexive, d.curve)
    elif run.reflexive != d.reflexive or run.curve != d.curve:
        raise ValueError("%r is not a member of the run over (%r, %r)"
                         % (d, run.reflexive, run.curve))
    s = d.s
    chi = run.chi_l0 - s
    chi_hom = chi_hom_fl(d, chi)
    if chi_hom < 1:
        raise ValueError("empty Hom: chi(Hom(F,L)) = %d" % chi_hom)
    orbit = (chi_hom - 1) + s
    dim = run.dim_fixed + 3 * s + orbit
    tangent = run.tangent_fixed + 3 * s + (chi_hom + 2 * s) - (1 + s)
    if dim != tangent:
        raise CertificateError("assembly mismatch: %d vs %d" % (dim, tangent))
    notes = run.notes
    if d == M3_DESCRIPTOR and dim != PUBLISHED_M3_DIMENSION:
        # the M3 run, V:1 over a conic, carries no note of its own
        notes += (_m3_note(dim),)
    return ComponentReport(
        descriptor=d,
        k=run.chern_e.c2,
        chern_e=run.chern_e,
        deg_l=chi + run.genus - 1,
        chi_l=chi,
        chi_hom_fl=chi_hom,
        hom_orbit_dim=orbit,
        dim_component=dim,
        dim_tangent=tangent,
        verdicts=check_conditions(d),
        signature=SingularitySignature(run.curve_parts, s, run.chern_r.c3),
        erratum_notes=notes,
        reflexive_chern=run.chern_r,
        reflexive_chern_closed=run.closed,
        normal_bundle_h1=run.normal_h1,
    )
