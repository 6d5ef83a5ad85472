"""Bookkeeping for one elementary transformation (R, H1, s).

A descriptor picks a reflexive family R, a curve family H1 and a number s
of extra points; the one codec for its tags ("S:a,b,c" or "V:m", "R:d" or
"CI:d1,d2") lives here.  The transformed sheaf E is the kernel of a
surjection from a family member F onto L + O_W, where L is a line bundle on
the curve and W is a set of s points.  Everything derived from that datum
is computed here.

The reports over one (R, C) pair form a run, s = 0..n; what does not vary
with s is derived and certified once per run, and each report holds its
run and stores only the numbers that vary with s.  Chern numbers and the
stability margin are read off integer values of Hilbert polynomials
through the dictionary in `p3rr`, so no polynomial object is built here.
"""

from __future__ import annotations

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


# The status of a verdict is one of three strings, written out as is.
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
    "degree-bound", HOLDS, "vacuous for the split family")
_CURVE_POINTS_DISJOINT = ConditionVerdict(
    "curve-points-disjoint", HOLDS_GENERICALLY,
    "open dense: W can be placed off C")
_OPEN_DENSE_TAIL = (
    ConditionVerdict("hom-h1-vanishing", HOLDS_GENERICALLY,
                     "open dense; the section counts in this report assume it"),
    ConditionVerdict("surjection-exists", HOLDS_GENERICALLY,
                     "open dense subset of Hom(F, Q)"),
)
_FAMILY_VERDICTS = {
    SplitResolution: (
        _CURVE_POINTS_DISJOINT,
        ConditionVerdict("sing-disjoint", HOLDS_GENERICALLY,
                         "open dense: C and W can be moved off Sing(F)"),
        ConditionVerdict("section-curve-disjoint", HOLDS,
                         "vacuous for the split family"),
        *_OPEN_DENSE_TAIL,
    ),
    IdealExtension: (
        _CURVE_POINTS_DISJOINT,
        ConditionVerdict("sing-disjoint", HOLDS,
                         "vacuous for the extension family"),
        ConditionVerdict("section-curve-disjoint", HOLDS_GENERICALLY,
                         "open dense: C and W can be moved off Y_F"),
        *_OPEN_DENSE_TAIL,
    ),
}


ErratumNote = namedtuple("ErratumNote", "code message values")
ErratumNote.__doc__ = """A flagged disagreement or literature record attached
to a report; values is a tuple of (key, value) pairs."""


def dedup_notes(notes) -> tuple[ErratumNote, ...]:
    """The notes in first-seen order, one per (code, values)."""
    first: dict = {}
    for note in notes:
        first.setdefault((note.code, note.values), note)
    return tuple(first.values())


ComponentRun = namedtuple("ComponentRun", (
    "reflexive curve chern_r chern_e chi_l0 genus normal_h1 dim0 tangent0 "
    "closed notes"))
ComponentRun.__doc__ = """What component_run derives and certifies once for
the reports over (R, C): every report number that does not vary with s,
and chi(L) and the component and tangent dimensions at s = 0.  The closed
form of c(R) is (c2, 2*c3) in integers, or None for the extension family."""


ComponentReport = namedtuple("ComponentReport", (
    "descriptor run deg_l chi_l chi_hom_fl hom_orbit_dim dim_component "
    "dim_tangent verdicts erratum_notes"))
ComponentReport.__doc__ = """The member at descriptor.s of its run: the
numbers that vary with s.  Each number shared by the run has its one name
on the run, e.g. c2(E) is report.run.chern_e.c2."""


def chi_l(d: ComponentDescriptor) -> int:
    """chi(L) = 2*deg(C) + n - s, forced by c3(E) = 0."""
    return 2 * d.curve.degree + half_c3(d.reflexive) - d.s


def chern_of_e(d: ComponentDescriptor, chi: int) -> ChernData:
    """(c2, c3) of E = ker(F -> Q), chi = chi(L), from the integer values
    P(E)(0) and P(E)(1) of P(E) = P(F) - P(Q).

    P(F) is the Riemann-Roch value of c(R) and P(Q)(t) = chi(L) + s +
    deg(C)*t.  The result must come out as c2 = c2(R) + deg(C), c3 = 0;
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
    (ROADMAP lists the independent routes meant to replace it: chi(E,E),
    Whitney and the spectrum).
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
        HOLDS if s <= bound else FAILS,
        ("s=%d < n=%d (strict for rational curves)" if bound < n
         else "s=%d <= n=%d") % (s, n),
    )
    if isinstance(fam, IdealExtension):
        degree = ConditionVerdict(
            "degree-bound",
            HOLDS if fam.m < curve.degree else FAILS,
            "m=%d < deg(C)=%d" % (fam.m, curve.degree),
        )
    else:
        degree = _SPLIT_DEGREE_BOUND

    twist_deg = 2 * (s - n)
    if twist_deg < 0:
        status = HOLDS
        note = "deg(omega_C(4) - 2L) = %d < 0" % twist_deg
    elif twist_deg == 0:
        status = HOLDS_GENERICALLY
        note = "degree 0; needs the square of L to differ from omega_C(4)"
    else:
        status = FAILS
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
    """Derive and certify once what every report over (R, C) shares.

    P(Q)(t) = chi(L) + s + deg(C)*t depends on chi(L) + s = 2*deg(C) + n
    only, so P(E), c3(E) = 0 and c2(E) = c2(R) + deg(C) hold at every s,
    and the closed form reads only a, b, c.  The two routes of chi_hom_fl,
    and the component and tangent dimensions, differ by amounts free of s,
    so both are compared at s = 0 only.  There the orbit Hom(F, Q)/Aut(Q)
    has dimension chi(Hom(F, L)) - 1 under h1-vanishing, the component
    dim R + h0(N_C) + g + orbit - dim PAut(F), and the tangent space
    h0(N_C) + ext1 + h1(Hom(E,E)), with h1(Hom(E,E)) = 1 - h0(Hom(F,F)) +
    chi(Hom(F, L)) - 1 + g.
    """
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
    orbit0 = chi_hom_fl(first, chi_l0) - 1
    dim0 = (dim_moduli(reflexive) - dim_paut(reflexive) + normal.h0 + g
            + orbit0)
    tangent0 = normal.h0 + profile.ext1 + 1 - profile.hom + g + orbit0
    if dim0 != tangent0:
        raise CertificateError(
            "assembly mismatch: %d vs %d" % (dim0, tangent0))
    return ComponentRun(
        reflexive, curve, chern_r, chern_e, chi_l0, g, normal.h1, dim0,
        tangent0, closed, _run_notes(reflexive, curve, chern_r, closed))


def build_report(
    d: ComponentDescriptor, min_curve_degree: int = DEFAULT_MIN_CURVE_DEGREE,
    run: ComponentRun | None = None,
) -> ComponentReport:
    """Assemble the full report; rejects hard-constraint violations.  `run`
    is d's run if the caller holds it, as assemble_report takes it."""
    failures = [v.condition for v in check_conditions(d)
                if v.condition in ("points-bound", "degree-bound")
                and v.status == FAILS]
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
    """Assemble the member at d.s of `run`, the component_run of (R, C)
    (built here when none is passed), without enforcing the hard
    constraints: the CLI renders inadmissible descriptors this way, with
    the failures in the verdicts.

    Per s: chi(L) = chi_l0 - s, deg(L) = g - 1 + chi(L) and
    chi(Hom(F, L)) = 2*chi(L) (an empty Hom raises ValueError); the orbit
    has dimension chi(Hom(F, L)) - 1 + s.  Each point adds 3 (its
    position), plus 1 (a P^1 of surjections onto its skyscraper), minus 2
    (chi(Hom(F, L)) falls by 2) to the component dimension, and as much to
    the tangent dimension (3, plus 2 - 1 in h1(Hom(E,E)), minus 2): both
    are their value at s = 0 plus 2s.
    """
    if run is None:
        run = component_run(d.reflexive, d.curve)
    elif run.reflexive != d.reflexive or run.curve != d.curve:
        raise ValueError("%r is not a member of the run over (%r, %r)"
                         % (d, run.reflexive, run.curve))
    s = d.s
    chi = run.chi_l0 - s
    chi_hom = 2 * chi
    if chi_hom < 1:
        raise ValueError("empty Hom: chi(Hom(F,L)) = %d" % chi_hom)
    dim = run.dim0 + 2 * s
    notes = run.notes
    if d == M3_DESCRIPTOR and dim != PUBLISHED_M3_DIMENSION:
        # the M3 run, V:1 over a conic, carries no note of its own
        notes += (_m3_note(dim),)
    return ComponentReport(
        descriptor=d,
        run=run,
        deg_l=chi + run.genus - 1,
        chi_l=chi,
        chi_hom_fl=chi_hom,
        hom_orbit_dim=chi_hom - 1 + s,
        dim_component=dim,
        dim_tangent=run.tangent0 + 2 * s,
        verdicts=check_conditions(d),
        erratum_notes=notes,
    )
