"""Exhaustive, deterministic enumeration of components for a target c2.

For a target k, every admissible descriptor has c2(R) + deg(C) = k, the
point count bounded by n = c3(R)/2 (strictly for rational curves), and
m < deg(C) whenever the reflexive side is an ideal extension.  Enumeration
walks all of these in a canonical order so that two runs with equal options
produce identical atlases.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import chain, zip_longest

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
    build_report,
    chi_hom_fl,
    component_run,
    curve_tag,
    dedup_notes,
    max_points,
    reflexive_tag,
    stability_margin,
)

class EnumerationOptions(namedtuple("EnumerationOptions",
                                     "k min_curve_degree")):
    """Options for one enumeration run.

    The curve-degree floor defaults to 2: degree-1 curves reproduce
    previously known component types and are admitted only on explicit
    request.  Split triples whose closed-form c3 disagrees with the
    resolution route are always listed, with notes.
    """

    __slots__ = ()

    def __new__(cls, k: int,
                min_curve_degree: int = transform.DEFAULT_MIN_CURVE_DEGREE):
        if k < 3:
            raise ValueError("the component series starts at c2 = 3")
        transform.check_curve_degree_floor(min_curve_degree)
        return tuple.__new__(cls, (k, min_curve_degree))


CheckResult = namedtuple("CheckResult", "name passed failed failures")


class VerificationSummary(namedtuple("VerificationSummary",
                                     "k checks erratum_notes")):
    __slots__ = ()

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

    With 2k = 3a+2b+c one has c2 = k^2 + 3k - (b+c) and 0 <= b + c <= 2k,
    so c2 lies in [k^2 + k, k^2 + 3k].  These ranges are disjoint for
    different k, so the target fixes k, and a target between two ranges has
    no triple.  Each candidate of that k is accepted through the
    resolution-route Chern computation, not the closed form.  Triples are
    returned in lexicographic order.
    """
    if c2_target < 1:
        raise ValueError("c2 target must be positive")
    kappa = (math.isqrt(4 * c2_target + 1) - 1) // 2
    if c2_target > kappa * kappa + 3 * kappa:
        return []
    return [t for t in _split_triples(2 * kappa)
            if chern_of(SplitResolution(*t)).c2 == c2_target]


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


def iter_components(opts: EnumerationOptions) -> Iterator[ComponentReport]:
    """Yield the report of every admissible descriptor with c2(E) = k, built
    one at a time, in canonical order: curve degree, curve family (rational
    first, then d1 ascending), split triples lexicographically before the
    extension family, then s.  Each (family, curve) pair is one run: its
    transform.component_run is built once, and each s is its member."""
    for d in range(opts.min_curve_degree, opts.k):
        c2 = opts.k - d
        fams: list[ReflexiveFamily] = [
            SplitResolution(*t) for t in solve_sabc(c2)]
        # V:m needs m = c2 < deg(C); otherwise it is skipped, never clamped
        if c2 < d:
            fams.append(IdealExtension(c2))
        for curve in curve_families_of_degree(d):
            for fam in fams:
                run = component_run(fam, curve)
                for s in range(max_points(half_c3(fam), curve) + 1):
                    yield build_report(
                        ComponentDescriptor(fam, curve, s),
                        min_curve_degree=opts.min_curve_degree, run=run)


def _check(name: str, cases, holds, label) -> CheckResult:
    """Read cases once, as any iterable: count the cases for which
    holds(case) is true, and label(case) only the first ten that fail, in
    stream order.  A None case always holds: it is the one vacuous pass
    some checks report when they have no case of their own."""
    passed = failed = 0
    labels = []
    for c in cases:
        if c is None or holds(c):
            passed += 1
        else:
            failed += 1
            if failed <= 10:
                labels.append(label(c))
    return CheckResult(name, passed, failed, tuple(labels))


def _report_label(r: ComponentReport) -> str:
    """A report as `describe` arguments: "S:0,0,2 R:3 s=1"."""
    d = r.descriptor
    return "%s %s s=%d" % (reflexive_tag(d.reflexive), curve_tag(d.curve),
                           d.s)


def _twist_label(case) -> str:
    """A (curve, a) case: "CI:2,2 a=3"."""
    return "%s a=%d" % (curve_tag(case[0]), case[1])


def _distinct(items) -> bool:
    return len(set(items)) == len(items)


def _closed_c2_agrees(f: SplitResolution) -> bool:
    return chern_sabc_closed(f.a, f.b, f.c)[0] == chern_of(f).c2


# Bound once: the benchmark's tracer and tests rebind chern_of to plain
# functions, which have no cache_clear.
_clear_chern_cache = chern_of.cache_clear


def _walks_again(opts: EnumerationOptions, reports) -> bool:
    """Whether a second walk of opts, on a cold chern_of cache, yields the
    held reports, compared one at a time as it streams; a missing or extra
    report differs too."""
    _clear_chern_cache()
    missing = object()
    return all(a == b for a, b in zip_longest(
        iter_components(opts), reports, fillvalue=missing))


def verify_atlas(opts: EnumerationOptions) -> VerificationSummary:
    """Run the invariant suite over one atlas.  Closed-form c3
    disagreements and literature discrepancies are collected as notes, not
    failures."""
    reports = tuple(iter_components(opts))
    families_seen = sorted({r.descriptor.reflexive for r in reports},
                           key=reflexive_tag)
    # canonical order lists each (R, C) as one run with s ascending
    steps = [(lo, hi) for lo, hi in zip(reports, reports[1:])
             if lo.descriptor.reflexive == hi.descriptor.reflexive
             and lo.descriptor.curve == hi.descriptor.curve]

    def twist_degree_identity(r: ComponentReport) -> bool:
        d = r.descriptor
        return (2 * genus(d.curve) - 2 + 4 * d.curve.degree - 2 * r.deg_l
                == 2 * (d.s - half_c3(d.reflexive)))

    rows = (
        ("c2-additivity", reports,
         lambda r: opts.k == r.run.chern_e.c2
         == chern_of(r.descriptor.reflexive).c2 + r.descriptor.curve.degree,
         _report_label),
        ("transformed-chern", reports,
         lambda r: r.run.chern_e.c3 == 0, _report_label),
        ("two-route-section-count", reports,
         lambda r: chi_hom_fl(r.descriptor, r.chi_l) == 2 * r.chi_l,
         _report_label),
        ("tangent-equals-component", reports,
         lambda r: r.dim_component == r.dim_tangent, _report_label),
        ("twist-degree-identity", reports, twist_degree_identity,
         _report_label),
        ("euler-pairing", families_seen, euler_check, reflexive_tag),
        ("c3-parity", families_seen,
         lambda f: chern_of(f).c3 % 2 == 0 and half_c3(f) >= 1,
         reflexive_tag),
        ("closed-form-c2", [f for f in families_seen
                            if isinstance(f, SplitResolution)] or [None],
         _closed_c2_agrees, reflexive_tag),
        # chern_of reads the presentation at t = 0..3 only
        ("sheaf-hilbert-numerical", families_seen,
         lambda f: all(presentation_value(f, t) == hp_value(chern_of(f), t)
                       for t in range(4, 8)), reflexive_tag),
        ("stability-margin-positive", [
            r for r in reports
            if isinstance(r.descriptor.reflexive, IdealExtension)] or [None],
         lambda r: stability_margin(r.descriptor)[1] > 0, _report_label),
        ("dimension-monotone-in-s", steps or [None],
         lambda step: step[1].dim_component == step[0].dim_component + 2,
         lambda step: _report_label(step[1])),
        ("descriptor-uniqueness", [[r.descriptor for r in reports]],
         _distinct, lambda _: "duplicates found"),
        ("signature-distinctness", [[
            (type(r.descriptor.reflexive), r.run.chern_r,
             r.descriptor.curve.degree, r.run.genus, r.descriptor.s)
            for r in reports]],
         _distinct, lambda _: "colliding signatures"),
        ("rerun-determinism", [reports],
         lambda held: _walks_again(opts, held),
         lambda _: "atlases differ"),
    )
    return VerificationSummary(
        k=opts.k,
        checks=tuple(_check(*row) for row in rows),
        erratum_notes=dedup_notes(n for r in reports for n in r.erratum_notes),
    )


def verify_module_invariants() -> tuple[CheckResult, ...]:
    """The module-level identity suites, independent of any atlas.  Each
    suite reads a stream of its own, so no case list is ever held."""
    universe = [c for d in range(1, 17) for c in curve_families_of_degree(d)]

    def twists():
        return ((c, a) for c in universe if c.degree <= 12
                for a in range(-6, 13))

    def splits():
        return (SplitResolution(*t)
                for w in range(2, 31, 2) for t in _split_triples(w))

    def fams():
        return chain(splits(), map(IdealExtension, range(1, 21)))

    def serre_dual(case) -> bool:
        ci, a = case
        e = curvecoh.canonical_twist(ci)
        return (curvecoh.cohomology_oc(ci, a).h1
                == curvecoh.cohomology_oc(ci, e - a).h0)

    def chi_consistent(case) -> bool:
        coh = curvecoh.cohomology_oc(*case)
        return coh.h0 - coh.h1 == curvecoh.chi_oc(*case)

    def koszul(case) -> bool:
        ci, a = case
        return (chi_o_p3(a) - chi_o_p3(a - ci.d1) - chi_o_p3(a - ci.d2)
                + chi_o_p3(a - ci.d1 - ci.d2) == curvecoh.chi_oc(ci, a))

    rows = (
        ("p3-serre-duality", range(-30, 31),
         lambda j: chi_o_p3(j) == -chi_o_p3(-4 - j), lambda j: "j=%d" % j),
        ("p3-h0-vs-chi", range(-30, 31),
         lambda j: h0_o_p3(j) == (chi_o_p3(j) if j >= 0 else 0),
         lambda j: "j=%d" % j),
        ("chern-round-trip", (ChernData(c2, c3)
                              for c2 in range(-20, 61)
                              for c3 in range(-100, 301, 2)),
         lambda c: chern_from_values(hp_value(c, 0), hp_value(c, 1)) == c,
         lambda c: "c2=%d c3=%d" % c),
        ("curve-serre-duality", (
            (ci, a) for ci in universe if isinstance(ci, CompleteIntersection)
            for a in range(curvecoh.canonical_twist(ci) + 5)),
         serre_dual, _twist_label),
        ("curve-chi-consistency", twists(), chi_consistent, _twist_label),
        ("curve-koszul-riemann-roch", (
            (c, a) for c, a in twists() if isinstance(c, CompleteIntersection)),
         koszul, _twist_label),
        ("closed-form-c2-agreement", splits(), _closed_c2_agrees,
         reflexive_tag),
        ("closed-form-c3-single-exponent", (
            f for f in splits() if f.a * f.b == f.a * f.c == f.b * f.c == 0),
         lambda f: chern_sabc_closed(f.a, f.b, f.c)[1] == 2 * chern_of(f).c3,
         reflexive_tag),
        ("euler-pairing-ranges", fams(), euler_check, reflexive_tag),
        ("family-c3-parity", fams(), lambda f: chern_of(f).c3 % 2 == 0,
         reflexive_tag),
    )
    return tuple(_check(*row) for row in rows)
