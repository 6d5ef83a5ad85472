"""Exhaustive, deterministic enumeration of components for a target c2.

For a target k, every admissible descriptor has c2(R) + deg(C) = k, the
point count bounded by n = c3(R)/2 (strictly for rational curves), and
m < deg(C) whenever the reflexive side is an ideal extension.  Enumeration
walks all of these in a canonical order so that two runs with equal options
produce identical atlases.  An `Atlas` is its options and its reports in
that order; k and the per-kind tally are read off them, not stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curvecoh import CompleteIntersection, CurveFamily, RationalCurve, genus
from .families import (
    IdealExtension,
    ReflexiveFamily,
    SplitResolution,
    chern_of,
    chern_sabc_closed,
    euler_check,
    half_c3,
    presentation_value,
)
from .p3rr import ChernData, chern_from_values, chi_o_p3, h0_o_p3, hp_value
from . import curvecoh, transform
from .transform import (
    ComponentDescriptor,
    ComponentReport,
    ErratumNote,
    build_report,
    chi_hom_fl,
    curve_tag,
    dedup_notes,
    max_points,
    reflexive_tag,
    stability_margin,
    tag_kind,
)

# Previously published component count of the c2 = 3 moduli space; the
# enumeration here adds one more, so the total is at least 11.  Stored as a
# literature constant, never computed.
PUBLISHED_M3_PRIOR_COMPONENTS = 10


@dataclass(frozen=True)
class EnumerationOptions:
    """Options for one enumeration run.

    The curve-degree floor defaults to 2: degree-1 curves reproduce
    previously known component types and are admitted only on explicit
    request.  Split triples whose closed-form c3 disagrees with the
    resolution route are always listed, with notes.
    """

    k: int
    min_curve_degree: int = transform.DEFAULT_MIN_CURVE_DEGREE

    def __post_init__(self):
        if self.k < 3:
            raise ValueError("the component series starts at c2 = 3")
        transform.check_curve_degree_floor(self.min_curve_degree)


@dataclass(frozen=True)
class Atlas:
    """One enumeration: its options and its reports in canonical order."""

    options: EnumerationOptions
    reports: tuple[ComponentReport, ...]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: int
    failed: int
    failures: tuple[str, ...] = ()


@dataclass(frozen=True)
class VerificationSummary:
    k: int
    checks: tuple[CheckResult, ...]
    erratum_notes: tuple[ErratumNote, ...]

    @property
    def ok(self) -> bool:
        return all(c.failed == 0 for c in self.checks)


def _split_triples(weight: int):
    """Exponent triples (a, b, c) >= 0 with 3a + 2b + c = weight, in
    lexicographic order."""
    for a in range(weight // 3 + 1):
        rest = weight - 3 * a
        for b in range(rest // 2 + 1):
            yield a, b, rest - 2 * b


def solve_sabc(c2_target: int) -> list[tuple[int, int, int]]:
    """All split-family exponent triples with oracle c2 equal to the target.

    With 2k = 3a+2b+c one has c2 = k^2 + 3k - (b+c) and b + c <= 2k, so
    c2 >= k^2 + k; that bounds k and makes the search finite.  Each
    candidate is accepted through the resolution-route Chern computation,
    not the closed form.  Triples are returned in lexicographic order.
    """
    if c2_target < 1:
        raise ValueError("c2 target must be positive")
    found = []
    kappa = 1
    while kappa * kappa + kappa <= c2_target:
        found += [t for t in _split_triples(2 * kappa)
                  if chern_of(SplitResolution(*t)).c2 == c2_target]
        kappa += 1
    found.sort()
    return found


def curve_families_of_degree(d: int) -> list[CurveFamily]:
    """All curve families of total degree d, rational first."""
    if d < 1:
        raise ValueError("degree must be positive")
    out: list[CurveFamily] = [RationalCurve(d)]
    for d1 in range(1, d + 1):
        if d1 * d1 > d or d % d1 != 0:
            continue
        d2 = d // d1
        if (d1, d2) in curvecoh.EXCLUDED_CI:
            continue
        out.append(CompleteIntersection(d1, d2))
    return out


def enumerate_components(opts: EnumerationOptions) -> Atlas:
    """Enumerate every admissible descriptor with c2(E) = k, in canonical
    order: curve degree, curve family (rational first, then d1 ascending),
    split triples lexicographically before the extension family, then s."""
    reports: list[ComponentReport] = []
    for d in range(opts.min_curve_degree, opts.k):
        c2 = opts.k - d
        fams: list[ReflexiveFamily] = [
            SplitResolution(*t) for t in solve_sabc(c2)]
        # V:m needs m = c2 < deg(C); otherwise it is skipped, never clamped
        if c2 < d:
            fams.append(IdealExtension(c2))
        for curve in curve_families_of_degree(d):
            for fam in fams:
                for s in range(max_points(half_c3(fam), curve) + 1):
                    reports.append(build_report(
                        ComponentDescriptor(fam, curve, s),
                        min_curve_degree=opts.min_curve_degree))
    return Atlas(opts, tuple(reports))


def _check(name: str, pairs) -> CheckResult:
    """Tally (ok, label) pairs; the first ten failing labels are kept."""
    failures = [msg for ok, msg in pairs if not ok]
    return CheckResult(
        name=name,
        passed=len(pairs) - len(failures),
        failed=len(failures),
        failures=tuple(failures[:10]),
    )


def verify_atlas(opts: EnumerationOptions) -> VerificationSummary:
    """Run the invariant suite over one atlas.

    Hard checks cover the additivity of c2, vanishing c3 of the transformed
    sheaves, the two-route section count, the tangent/component dimension
    equality, the degree identity of the twisted canonical bundle, the
    Euler pairing, parity, each family's presentation against the
    Riemann-Roch values of its Chern data, the positivity of the stability
    margin, descriptor uniqueness and rerun determinism.  Closed-form c3
    disagreements and literature discrepancies are collected as notes, not
    failures.
    """
    atlas = enumerate_components(opts)

    def label(r: ComponentReport) -> str:
        d = r.descriptor
        return "%s/%s/s=%d" % (tag_kind(reflexive_tag(d.reflexive)),
                               tag_kind(curve_tag(d.curve)), d.s)

    families_seen = sorted(
        {r.descriptor.reflexive for r in atlas.reports},
        key=lambda f: (tag_kind(reflexive_tag(f)), repr(f)),
    )
    by_key = {}
    for r in atlas.reports:
        by_key.setdefault(
            (r.descriptor.reflexive, r.descriptor.curve), []
        ).append(r)
    mono = []
    for group in by_key.values():
        group.sort(key=lambda r: r.descriptor.s)
        mono += [(hi.dim_component == lo.dim_component + 2, label(hi))
                 for lo, hi in zip(group, group[1:])]
    descriptors = [r.descriptor for r in atlas.reports]
    signatures = [
        ((tag_kind(reflexive_tag(r.descriptor.reflexive)), r.reflexive_chern),
         r.signature.curve_parts, r.descriptor.s)
        for r in atlas.reports
    ]

    checks = (
        _check("c2-additivity", [
            (r.k == opts.k
             and r.chern_e.c2 == chern_of(r.descriptor.reflexive).c2
             + r.descriptor.curve.degree,
             label(r)) for r in atlas.reports
        ]),
        _check("transformed-chern", [
            (r.chern_e.c1 == 0 and r.chern_e.c3 == 0, label(r))
            for r in atlas.reports
        ]),
        _check("two-route-section-count", [
            (chi_hom_fl(r.descriptor, r.chi_l) == 2 * r.chi_l, label(r))
            for r in atlas.reports
        ]),
        _check("tangent-equals-component", [
            (r.dim_component == r.dim_tangent, label(r))
            for r in atlas.reports
        ]),
        _check("twist-degree-identity", [
            (2 * genus(r.descriptor.curve) - 2 + 4 * r.descriptor.curve.degree
             - 2 * r.deg_l
             == 2 * (r.descriptor.s - half_c3(r.descriptor.reflexive)),
             label(r)) for r in atlas.reports
        ]),
        _check("euler-pairing", [
            (euler_check(f), repr(f)) for f in families_seen
        ]),
        _check("c3-parity", [
            (chern_of(f).c3 % 2 == 0 and half_c3(f) >= 1, repr(f))
            for f in families_seen
        ]),
        _check("closed-form-c2", [
            (chern_sabc_closed(f.a, f.b, f.c)[0] == chern_of(f).c2, repr(f))
            for f in families_seen if isinstance(f, SplitResolution)
        ] or [(True, "no split families")]),
        # chern_of reads the presentation at t = 0..3 only
        _check("sheaf-hilbert-numerical", [
            (all(presentation_value(f, t) == hp_value(chern_of(f), t)
                 for t in range(4, 8)), repr(f)) for f in families_seen
        ]),
        _check("stability-margin-positive", [
            (stability_margin(r.descriptor)[1] > 0, label(r))
            for r in atlas.reports
            if isinstance(r.descriptor.reflexive, IdealExtension)
        ] or [(True, "no extension families")]),
        _check("dimension-monotone-in-s", mono or [(True, "no neighbours")]),
        _check("descriptor-uniqueness", [
            (len(set(descriptors)) == len(descriptors), "duplicates found")
        ]),
        _check("signature-distinctness", [
            (len(set(signatures)) == len(signatures), "colliding signatures")
        ]),
        _check("rerun-determinism", [
            (enumerate_components(opts) == atlas, "atlases differ")
        ]),
    )
    return VerificationSummary(
        k=opts.k,
        checks=checks,
        erratum_notes=dedup_notes(
            n for r in atlas.reports for n in r.erratum_notes),
    )


def verify_module_invariants() -> tuple[CheckResult, ...]:
    """The module-level identity suites, independent of any atlas.

    These repeat the cross-checks that pin down the calculus itself:
    Serre duality on P^3 and on complete intersections, the h0/chi
    relation, the Riemann-Roch/Koszul agreement on curves, the Chern
    round trip, and the closed-form audits over the documented ranges.
    """
    universe = [c for d in range(1, 17) for c in curve_families_of_degree(d)]
    cis = [c for c in universe if isinstance(c, CompleteIntersection)]
    duality = []
    for ci in cis:
        e = curvecoh.canonical_twist(ci)
        for a in range(0, e + 5):
            duality.append((
                curvecoh.cohomology_oc(ci, a).h1
                == curvecoh.cohomology_oc(ci, e - a).h0,
                "%r a=%d" % (ci, a),
            ))

    curves = [c for c in universe if c.degree <= 12]
    chi_pairs = []
    koszul = []
    for curve in curves:
        for a in range(-6, 13):
            coh = curvecoh.cohomology_oc(curve, a)
            chi_pairs.append((
                coh.h0 - coh.h1 == curvecoh.chi_oc(curve, a),
                "%r a=%d" % (curve, a),
            ))
            if isinstance(curve, CompleteIntersection):
                alt = (
                    chi_o_p3(a)
                    - chi_o_p3(a - curve.d1)
                    - chi_o_p3(a - curve.d2)
                    + chi_o_p3(a - curve.d1 - curve.d2)
                )
                koszul.append((
                    alt == curvecoh.chi_oc(curve, a),
                    "%r a=%d" % (curve, a),
                ))

    triples = [t for w in range(2, 31, 2) for t in _split_triples(w)]
    fams: list[ReflexiveFamily] = [SplitResolution(*t) for t in triples]
    fams += [IdealExtension(m) for m in range(1, 21)]

    return (
        _check("p3-serre-duality", [
            (chi_o_p3(j) == -chi_o_p3(-4 - j), "j=%d" % j)
            for j in range(-30, 31)
        ]),
        _check("p3-h0-vs-chi", [
            (h0_o_p3(j) == (chi_o_p3(j) if j >= 0 else 0), "j=%d" % j)
            for j in range(-30, 31)
        ]),
        _check("chern-round-trip", [
            (chern_from_values(hp_value(c, 0), hp_value(c, 1)) == c,
             "c2=%d c3=%d" % (c.c2, c.c3))
            for c in (ChernData(2, 0, c2, c3) for c2 in range(-20, 61)
                      for c3 in range(-100, 301, 2))
        ]),
        _check("curve-serre-duality", duality),
        _check("curve-chi-consistency", chi_pairs),
        _check("curve-koszul-riemann-roch", koszul),
        _check("closed-form-c2-agreement", [
            (chern_sabc_closed(a, b, c)[0]
             == chern_of(SplitResolution(a, b, c)).c2,
             "(%d,%d,%d)" % (a, b, c))
            for (a, b, c) in triples
        ]),
        _check("closed-form-c3-single-exponent", [
            (chern_sabc_closed(a, b, c)[1]
             == chern_of(SplitResolution(a, b, c)).c3,
             "(%d,%d,%d)" % (a, b, c))
            for (a, b, c) in triples
            if a * b == 0 and a * c == 0 and b * c == 0
        ]),
        _check("euler-pairing-ranges", [
            (euler_check(f), repr(f)) for f in fams
        ]),
        _check("family-c3-parity", [
            (chern_of(f).c3 % 2 == 0, repr(f)) for f in fams
        ]),
    )
