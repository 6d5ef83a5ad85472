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
    clear_chern_cache,
    euler_check,
    half_c3,
    presentation_value,
)
from .p3rr import ChernData, chern_from_values, chi_o_p3, h0_o_p3, hp_value
from . import curvecoh, transform
from .transform import (
    ComponentDescriptor,
    ComponentReport,
    ComponentRun,
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


def iter_runs(opts: EnumerationOptions) -> Iterator[tuple[ComponentRun, int]]:
    """Yield (run, top) for every (family, curve) pair with c2(E) = k, in
    canonical order: curve degree, curve family (rational first, then d1
    ascending), split triples lexicographically before the extension
    family.  run is the pair's transform.component_run, and its members
    are s = 0..top."""
    for d in range(opts.min_curve_degree, opts.k):
        c2 = opts.k - d
        fams: list[ReflexiveFamily] = [
            SplitResolution(*t) for t in solve_sabc(c2)]
        # V:m needs m = c2 < deg(C); otherwise it is skipped, never clamped
        if c2 < d:
            fams.append(IdealExtension(c2))
        for curve in curve_families_of_degree(d):
            for fam in fams:
                yield (component_run(fam, curve),
                       max_points(half_c3(fam), curve))


def iter_components(opts: EnumerationOptions) -> Iterator[ComponentReport]:
    """Yield the report of every admissible descriptor with c2(E) = k, built
    one at a time, in canonical order: the runs of iter_runs, each with s
    ascending."""
    for run, top in iter_runs(opts):
        for s in range(top + 1):
            yield build_report(
                ComponentDescriptor(run.reflexive, run.curve, s),
                min_curve_degree=opts.min_curve_degree, run=run)


class _Tally:
    """A check's counts as its cases arrive, one add(case) each; see
    _check."""

    def __init__(self, name: str, holds, label):
        self.name, self.holds, self.label = name, holds, label
        self.passed, self.failed, self.failures = 0, 0, []

    def add(self, case) -> None:
        if case is None or self.holds(case):
            self.passed += 1
        else:
            self.failed += 1
            if self.failed <= 10:
                self.failures.append(self.label(case))

    def result(self) -> CheckResult:
        return CheckResult(self.name, self.passed, self.failed,
                           tuple(self.failures))


def _check(name: str, cases, holds, label) -> CheckResult:
    """Read cases once, as any iterable: count the cases for which
    holds(case) is true, and label(case) only the first ten that fail, in
    stream order.  A None case always holds: it is the one vacuous pass
    some checks report when they have no case of their own."""
    tally = _Tally(name, holds, label)
    for c in cases:
        tally.add(c)
    return tally.result()


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


def _walks_again(opts: EnumerationOptions, runs) -> bool:
    """Whether a second walk of opts's runs, on a cold chern_of cache,
    yields the held (run, first s, last s) list, compared as it streams; a
    missing or extra run differs too.  This equals comparing the reports
    only because assemble_report is a pure function of (run, s)."""
    clear_chern_cache()
    missing = object()
    return all(a == b for a, b in zip_longest(
        ((run, 0, top) for run, top in iter_runs(opts)), runs,
        fillvalue=missing))


def verify_atlas(opts: EnumerationOptions) -> VerificationSummary:
    """Run the invariant suite over one atlas, reading each report once as
    the walk streams: what is held is one (run, first s, last s) entry per
    run, and no report.  The family checks run before the second walk of
    rerun-determinism empties the chern_of cache.  Uniqueness and
    distinctness are decided per run: s ascends within each run, and no two
    runs share (R, C) or signature (each starts at s = 0).  Closed-form c3
    disagreements and literature discrepancies are collected as notes, not
    failures."""

    def twist_degree_identity(r: ComponentReport) -> bool:
        d = r.descriptor
        return (2 * genus(d.curve) - 2 + 4 * d.curve.degree - 2 * r.deg_l
                == 2 * (d.s - half_c3(d.reflexive)))

    per_report = [_Tally(*row) for row in (
        ("c2-additivity",
         lambda r: opts.k == r.run.chern_e.c2
         == chern_of(r.descriptor.reflexive).c2 + r.descriptor.curve.degree,
         _report_label),
        ("transformed-chern",
         lambda r: r.run.chern_e.c3 == 0, _report_label),
        ("two-route-section-count",
         lambda r: chi_hom_fl(r.descriptor, r.chi_l) == 2 * r.chi_l,
         _report_label),
        ("tangent-equals-component",
         lambda r: r.dim_component == r.dim_tangent, _report_label),
        ("twist-degree-identity", twist_degree_identity, _report_label),
    )]
    margin = _Tally("stability-margin-positive",
                    lambda r: stability_margin(r.descriptor)[1] > 0,
                    _report_label)
    monotone = _Tally("dimension-monotone-in-s",
                      lambda step: step[1].dim_component
                      == step[0].dim_component + 2,
                      lambda step: _report_label(step[1]))
    runs: list[tuple[ComponentRun, int, int]] = []
    ascending = True

    def streamed() -> Iterator[ComponentReport]:
        nonlocal ascending
        prev = None
        for r in iter_components(opts):
            for tally in per_report:
                tally.add(r)
            if isinstance(r.descriptor.reflexive, IdealExtension):
                margin.add(r)
            s = r.descriptor.s
            if prev is not None and r.run is prev.run:
                monotone.add((prev, r))
                ascending = ascending and s > prev.descriptor.s
                runs[-1] = (r.run, runs[-1][1], s)
            else:
                runs.append((r.run, s, s))
            prev = r
            yield r

    # dedup_notes drives the walk, so each report is read once, as it streams
    erratum_notes = dedup_notes(n for r in streamed()
                                for n in r.erratum_notes)
    for tally in (margin, monotone):
        if tally.passed + tally.failed == 0:
            tally.add(None)
    families_seen = sorted({run.reflexive for run, _, _ in runs},
                           key=reflexive_tag)
    family_rows = (
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
    )
    # run before the second walk clears chern_of
    family_checks = [_check(*row) for row in family_rows]
    run_rows = (
        ("descriptor-uniqueness", [runs],
         lambda held: ascending and _distinct(
             [(run.reflexive, run.curve) for run, _, _ in held]),
         lambda _: "duplicates found"),
        ("signature-distinctness", [runs],
         lambda held: ascending and _distinct(
             [(type(run.reflexive), run.chern_r, run.curve.degree, run.genus)
              for run, _, _ in held]),
         lambda _: "colliding signatures"),
        ("rerun-determinism", [runs],
         lambda held: _walks_again(opts, held),
         lambda _: "atlases differ"),
    )
    return VerificationSummary(
        k=opts.k,
        checks=(*(t.result() for t in per_report), *family_checks,
                margin.result(), monotone.result(),
                *(_check(*row) for row in run_rows)),
        erratum_notes=erratum_notes,
    )


def verify_module_invariants() -> tuple[CheckResult, ...]:
    """The module-level identity suites, independent of any atlas.  Each
    suite reads a stream of its own, so no case list is ever held; the
    four family suites share one pass over the families, and each
    family's Chern data leave the chern_of cache once all four have read
    them, so the cache never holds the 565 families at once."""
    universe = [c for d in range(1, 17) for c in curve_families_of_degree(d)]

    def twists():
        return ((c, a) for c in universe if c.degree <= 12
                for a in range(-6, 13))

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
    )
    checks = [_check(*row) for row in rows]
    family = [
        _Tally(name, holds, reflexive_tag) for name, holds in (
            ("closed-form-c2-agreement", _closed_c2_agrees),
            ("closed-form-c3-single-exponent",
             lambda f: chern_sabc_closed(f.a, f.b, f.c)[1]
             == 2 * chern_of(f).c3),
            ("euler-pairing-ranges", euler_check),
            ("family-c3-parity", lambda f: chern_of(f).c3 % 2 == 0),
        )]
    c2_closed, c3_closed = family[:2]
    for f in chain((SplitResolution(*t) for w in range(2, 31, 2)
                    for t in _split_triples(w)),
                   map(IdealExtension, range(1, 21))):
        if isinstance(f, SplitResolution):
            c2_closed.add(f)
            if f.a * f.b == f.a * f.c == f.b * f.c == 0:
                c3_closed.add(f)
        for tally in family[2:]:
            tally.add(f)
        clear_chern_cache()
    return (*checks, *(t.result() for t in family))
