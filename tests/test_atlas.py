"""Enumeration: Diophantine search, canonical order, verification suite."""

import io
import tracemalloc
import types

import pytest

from sheafatlas import atlas, curvecoh, families, render
from sheafatlas.atlas import (
    EnumerationOptions,
    curve_families_of_degree,
    iter_components,
    solve_sabc,
    verify_atlas,
    verify_module_invariants,
)
from sheafatlas.curvecoh import (
    CompleteIntersection,
    CurveCohomology,
    RationalCurve,
)
from sheafatlas.families import (
    IdealExtension,
    SplitResolution,
    chern_of,
    half_c3,
)
from sheafatlas.p3rr import ChernData
from sheafatlas.transform import (
    ComponentDescriptor,
    assemble_report,
    curve_tag,
    reflexive_tag,
)


def test_solve_sabc_examples():
    assert solve_sabc(2) == [(0, 0, 2)]
    assert solve_sabc(3) == [(0, 1, 0)]
    assert solve_sabc(1) == []


def test_solve_sabc_against_box_scan():
    # independent route: scan a box that provably contains every solution
    # (c2 >= kappa^2 + kappa forces 3a+2b+c <= 2*c2 comfortably)
    for target in range(1, 11):
        box = set()
        for a in range(2 * target + 1):
            for b in range(2 * target + 1):
                for c in range(2 * target + 1):
                    w = 3 * a + 2 * b + c
                    if w == 0 or w % 2 or w > 4 * target:
                        continue
                    if chern_of(SplitResolution(a, b, c)).c2 == target:
                        box.add((a, b, c))
        assert box == set(solve_sabc(target))
    # solve_sabc and the module suites share one walk of 3a + 2b + c = w;
    # it must give every triple of each weight the suites cover, in order
    for w in range(2, 31, 2):
        box = [(a, b, c) for a in range(w + 1) for b in range(w + 1)
               for c in range(w + 1) if 3 * a + 2 * b + c == w]
        assert list(atlas._split_triples(w)) == box


def test_curve_families_of_degree():
    assert curve_families_of_degree(2) == [RationalCurve(2)]
    assert curve_families_of_degree(4) == [
        RationalCurve(4), CompleteIntersection(1, 4),
        CompleteIntersection(2, 2)]
    assert curve_families_of_degree(6) == [
        RationalCurve(6), CompleteIntersection(1, 6),
        CompleteIntersection(2, 3)]


def test_enumerate_k3():
    reports = tuple(iter_components(EnumerationOptions(k=3)))
    assert len(reports) == 1
    report = reports[0]
    assert report.descriptor == ComponentDescriptor(
        IdealExtension(1), RationalCurve(2), 0)
    assert report.dim_component == 22
    assert [n.code for n in report.erratum_notes] == ["published-m3-values"]


def test_enumerate_k4():
    opts = EnumerationOptions(k=4)
    reports = tuple(iter_components(opts))
    expected = [
        ComponentDescriptor(SplitResolution(0, 0, 2), RationalCurve(2), 0),
        ComponentDescriptor(SplitResolution(0, 0, 2), RationalCurve(2), 1),
        ComponentDescriptor(IdealExtension(1), RationalCurve(3), 0),
        ComponentDescriptor(IdealExtension(1), CompleteIntersection(1, 3), 0),
        ComponentDescriptor(IdealExtension(1), CompleteIntersection(1, 3), 1),
    ]
    assert [r.descriptor for r in reports] == expected
    table = io.StringIO()
    render.write_atlas(opts, reports, "table", table)
    assert table.getvalue().endswith(
        "\n5 component(s) for c2 = 4\n"
        "  S over R: 2\n  V over CI: 2\n  V over R: 1\n")


def test_enumerate_k3_high_floor_is_empty():
    assert tuple(iter_components(
        EnumerationOptions(k=3, min_curve_degree=3))) == ()


def test_k_floor_enforced():
    with pytest.raises(ValueError):
        EnumerationOptions(k=2)


def test_k_additivity_and_uniqueness():
    for k in range(3, 13):
        reports = tuple(iter_components(EnumerationOptions(k=k)))
        descriptors = [r.descriptor for r in reports]
        assert len(set(descriptors)) == len(descriptors)
        for r in reports:
            assert (chern_of(r.descriptor.reflexive).c2
                    + r.descriptor.curve.degree == k)


def test_determinism():
    opts = EnumerationOptions(k=7)
    assert tuple(iter_components(opts)) == tuple(iter_components(opts))


@pytest.mark.parametrize("floor", [1, 2])
def test_enumerate_and_describe_take_one_route(floor):
    # The walk builds each run once and its reports as members; a report
    # built alone, as describe builds it, builds its run fresh.
    codes = set()
    for k in range(3, 23):
        for r in atlas.iter_components(EnumerationOptions(k, floor)):
            assert r == assemble_report(r.descriptor), r.descriptor
            codes.update(n.code for n in r.erratum_notes)
    assert codes == {"closed-form-c3-mismatch", "published-m3-values"} | (
        {"outside-degree-novelty"} if floor == 1 else set())


def test_brute_force_completeness():
    for k in range(3, 13):
        assert ({r.descriptor for r in iter_components(EnumerationOptions(k=k))}
                == brute_force(k))


def brute_force(k):
    """Raw constraint scan over a bounding box, independent of the
    enumerator's ordering and kappa bound."""
    out = set()
    curves = []
    for d in range(2, k + 1):
        curves.append(RationalCurve(d))
        for d1 in range(1, d + 1):
            for d2 in range(d1, d + 1):
                if d1 * d2 == d and (d1, d2) not in {(1, 1), (1, 2)}:
                    curves.append(CompleteIntersection(d1, d2))
    families = [
        SplitResolution(a, b, c)
        for a in range(2 * k + 1)
        for b in range(2 * k + 1)
        for c in range(2 * k + 1)
        if (3 * a + 2 * b + c) > 0 and (3 * a + 2 * b + c) % 2 == 0
    ]
    families += [IdealExtension(m) for m in range(1, k + 1)]
    for curve in curves:
        for fam in families:
            if chern_of(fam).c2 + curve.degree != k:
                continue
            if isinstance(fam, IdealExtension) and not fam.m < curve.degree:
                continue
            n = half_c3(fam)
            top = n - 1 if isinstance(curve, RationalCurve) else n
            for s in range(0, min(top, 4 * k) + 1):
                out.add(ComponentDescriptor(fam, curve, s))
    return out


def test_verify_atlas_k3():
    summary = verify_atlas(EnumerationOptions(k=3))
    assert summary.ok
    assert [n.code for n in summary.erratum_notes] == ["published-m3-values"]


def test_verify_atlas_k4():
    summary = verify_atlas(EnumerationOptions(k=4))
    assert summary.ok
    assert summary.erratum_notes == ()


def test_verify_atlas_k12_notes_mixed_triples_only():
    summary = verify_atlas(EnumerationOptions(k=12))
    assert summary.ok
    mismatches = {dict(n.values)["triple"] for n in summary.erratum_notes
                  if n.code == "closed-form-c3-mismatch"}
    assert mismatches == {"S:0,1,2", "S:1,0,1"}
    assert all(n.code == "closed-form-c3-mismatch"
               for n in summary.erratum_notes)


@pytest.mark.parametrize("last_root", [3, 4], ids=["n0", "n1"])
def test_sheaf_hilbert_numerical_can_fail(monkeypatch, last_root):
    # t(t-1)...(t-last_root) added to every presentation vanishes at the
    # t = 0..3 that chern_of reads, so the Chern data stay the same and only
    # the comparison at t = 4..7 sees it, once per family. With last_root = 4
    # the term also vanishes at t = 4, so only t = 5..7 can catch it.
    real = families.presentation_value

    def shifted(family, t):
        term = 1
        for root in range(last_root + 1):
            term *= t - root
        return real(family, t) + term
    for module in (families, atlas):
        monkeypatch.setattr(module, "presentation_value", shifted)
    chern_of.cache_clear()
    try:
        checks = {c.name: c
                  for c in verify_atlas(EnumerationOptions(k=4)).checks}
    finally:
        chern_of.cache_clear()
    broken = checks.pop("sheaf-hilbert-numerical")
    assert (broken.passed, broken.failed) == (0, 2)
    assert broken.failures == ("S:0,0,2", "V:1")
    assert all(c.failed == 0 for c in checks.values())


def test_empty_atlas_check_counts():
    # no report: the per-report and per-family checks have no case, three
    # checks report one vacuous pass, and the whole-atlas checks one case
    summary = verify_atlas(EnumerationOptions(5, min_curve_degree=5))
    assert summary.ok
    assert [(c.name, c.passed, c.failed) for c in summary.checks] == [
        ("c2-additivity", 0, 0),
        ("transformed-chern", 0, 0),
        ("two-route-section-count", 0, 0),
        ("tangent-equals-component", 0, 0),
        ("twist-degree-identity", 0, 0),
        ("euler-pairing", 0, 0),
        ("c3-parity", 0, 0),
        ("closed-form-c2", 1, 0),
        ("sheaf-hilbert-numerical", 0, 0),
        ("stability-margin-positive", 1, 0),
        ("dimension-monotone-in-s", 1, 0),
        ("descriptor-uniqueness", 1, 0),
        ("signature-distinctness", 1, 0),
        ("rerun-determinism", 1, 0),
    ]


@pytest.mark.parametrize("second_walk", [
    lambda runs: runs[:-1],
    lambda runs: runs[:3] + [(runs[3][0], runs[3][1] + 1)] + runs[4:],
    lambda runs: runs + runs[-1:],
], ids=["one-short", "one-differs", "one-extra"])
def test_rerun_determinism_can_fail(monkeypatch, second_walk):
    # The first walk streams the reports of its runs; the second walk reads
    # the runs alone, and one run is missing, has another s range, or is
    # extra.
    real, walks = atlas.iter_runs, []

    def walk(opts):
        walks.append(opts)
        runs = list(real(opts))
        return iter(runs if len(walks) == 1 else second_walk(runs))
    monkeypatch.setattr(atlas, "iter_runs", walk)
    checks = {c.name: c for c in verify_atlas(EnumerationOptions(k=6)).checks}
    assert len(walks) == 2
    broken = checks.pop("rerun-determinism")
    assert (broken.passed, broken.failed, broken.failures) == (
        0, 1, ("atlases differ",))
    assert all(c.failed == 0 for c in checks.values())


@pytest.mark.parametrize("walk, repeat, failing", [
    ("iter_runs", lambda runs: runs + runs[:1], set()),
    ("iter_components", lambda reports: reports[:2] + reports[1:],
     {"dimension-monotone-in-s"}),
], ids=["run-repeated", "report-repeated"])
def test_uniqueness_and_distinctness_can_fail(monkeypatch, walk, repeat,
                                             failing):
    # Decided per run: a run listed again after the others repeats its
    # (R, C) and its signature, and a report listed twice in a row repeats
    # an s of its run.  rerun-determinism still passes: both walks repeat
    # the run, and a repeated report leaves its run's s range as it was.
    real = getattr(atlas, walk)
    monkeypatch.setattr(atlas, walk,
                        lambda opts: iter(repeat(list(real(opts)))))
    checks = {c.name: c for c in verify_atlas(EnumerationOptions(k=6)).checks}
    assert checks.pop("descriptor-uniqueness")[1:] == (
        0, 1, ("duplicates found",))
    assert checks.pop("signature-distinctness")[1:] == (
        0, 1, ("colliding signatures",))
    assert {c.name for c in checks.values() if c.failed} == failing


def test_rerun_determinism_walks_on_a_cold_chern_cache(monkeypatch):
    # A family's second computation of its presentation comes out one higher
    # at the t = 0..3 chern_of reads: c3 moves by 2 and n by 1, and no
    # certificate sees it.  Only a second walk that computes the Chern data
    # again, instead of reading the first walk's cache, can catch it.
    real, computed = families.presentation_value, {}

    def drifting(family, t):
        if t == 0:
            computed[family] = computed.get(family, 0) + 1
        return real(family, t) + (t <= 3 and computed[family] > 1)
    monkeypatch.setattr(families, "presentation_value", drifting)
    chern_of.cache_clear()
    try:
        checks = {c.name: c
                  for c in verify_atlas(EnumerationOptions(6)).checks}
    finally:
        chern_of.cache_clear()
    broken = checks.pop("rerun-determinism")
    assert (broken.passed, broken.failed) == (0, 1)
    assert all(c.failed == 0 for c in checks.values())


def test_passing_cases_get_no_label(monkeypatch):
    calls = []
    real = atlas.curve_tag

    def counted(curve):
        calls.append(curve)
        return real(curve)
    monkeypatch.setattr(atlas, "curve_tag", counted)
    assert verify_atlas(EnumerationOptions(12)).ok
    assert calls == []


def test_two_route_section_count_can_fail(monkeypatch):
    # the report's own field is 2*chi(L), and its run compares the routes
    # through transform's binding, so only the check's second route sees
    # the change
    monkeypatch.setattr(atlas, "chi_hom_fl", lambda d, chi: 2 * chi + 1)
    summary = verify_atlas(EnumerationOptions(k=6))
    checks = {c.name: c for c in summary.checks}
    broken = checks.pop("two-route-section-count")
    reports = tuple(iter_components(EnumerationOptions(k=6)))
    assert len(reports) > 10
    assert (broken.passed, broken.failed) == (0, len(reports))
    assert broken.failures == tuple(
        "%s %s s=%d" % (reflexive_tag(r.descriptor.reflexive),
                        curve_tag(r.descriptor.curve), r.descriptor.s)
        for r in reports[:10])
    assert all(c.failed == 0 for c in checks.values())
    text = render.verification_text([summary], ())
    assert "    FAIL two-route-section-count: %s (and %d more)\n" % (
        "; ".join(broken.failures), len(reports) - 10) in text


def test_transformed_chern_can_fail(monkeypatch):
    # both walks build the bad run through atlas's binding, so
    # rerun-determinism still passes and only transformed-chern sees it, in
    # every report of that run
    opts = EnumerationOptions(k=6)
    reports = tuple(iter_components(opts))
    target = reports[3].run
    members = [r.descriptor for r in reports if r.run == target]
    assert len(members) == 4
    real = atlas.component_run

    def built(reflexive, curve):
        run = real(reflexive, curve)
        if run != target:
            return run
        return run._replace(chern_e=ChernData(opts.k, 2))
    monkeypatch.setattr(atlas, "component_run", built)
    checks = {c.name: c for c in verify_atlas(opts).checks}
    broken = checks.pop("transformed-chern")
    assert (broken.passed, broken.failed) == (len(reports) - 4, 4)
    assert broken.failures == tuple("%s %s s=%d" % (
        reflexive_tag(d.reflexive), curve_tag(d.curve), d.s) for d in members)
    assert all(c.failed == 0 for c in checks.values())


def test_tangent_equals_component_can_fail(monkeypatch):
    # dim_tangent is a stored number, not a read of dim_component, so
    # _replace can set it and the check compares two numbers
    opts = EnumerationOptions(k=6)
    reports = tuple(iter_components(opts))
    target = reports[3].descriptor
    real = atlas.build_report

    def built(d, **kwargs):
        r = real(d, **kwargs)
        return r._replace(dim_tangent=r.dim_tangent + 1) if d == target else r
    monkeypatch.setattr(atlas, "build_report", built)
    checks = {c.name: c for c in verify_atlas(opts).checks}
    broken = checks.pop("tangent-equals-component")
    assert (broken.passed, broken.failed) == (len(reports) - 1, 1)
    assert broken.failures == ("%s %s s=%d" % (
        reflexive_tag(target.reflexive), curve_tag(target.curve), target.s),)
    assert all(c.failed == 0 for c in checks.values())


def test_module_invariant_suites_pass():
    for check in verify_module_invariants():
        assert check.failed == 0, check


def test_chern_round_trip_can_fail(monkeypatch):
    # c2 of every inversion off by one: only the round trip sees it, since
    # chern_of reads its data through the families module's own binding.
    real = atlas.chern_from_values

    def shifted(p0, p1):
        c = real(p0, p1)
        return ChernData(c.c2 + 1, c.c3)
    monkeypatch.setattr(atlas, "chern_from_values", shifted)
    checks = {c.name: c for c in verify_module_invariants()}
    broken = checks.pop("chern-round-trip")
    assert (broken.passed, broken.failed) == (0, 16281)
    assert broken.failures == tuple(
        "c2=-20 c3=%d" % c3 for c3 in range(-100, -80, 2))
    assert all(c.failed == 0 for c in checks.values())


def test_check_reads_a_one_shot_stream_once():
    labelled = []

    def label(n):
        labelled.append(n)
        return "n=%d" % n
    stream = (n for n in range(25))
    result = atlas._check("odd", stream, lambda n: n % 2 == 1, label)
    assert (result.passed, result.failed) == (12, 13)
    assert result.failures == tuple("n=%d" % n for n in range(0, 20, 2))
    assert labelled == list(range(0, 20, 2))
    assert next(stream, None) is None


def test_module_suite_case_counts():
    assert {c.name: c.passed + c.failed
            for c in verify_module_invariants()} == {
        "p3-serre-duality": 61,
        "p3-h0-vs-chi": 61,
        "chern-round-trip": 16281,
        "curve-serre-duality": 250,
        "curve-chi-consistency": 551,
        "curve-koszul-riemann-roch": 323,
        "closed-form-c2-agreement": 545,
        "closed-form-c3-single-exponent": 35,
        "euler-pairing-ranges": 565,
        "family-c3-parity": 565,
    }


def test_verify_atlas_holds_no_report():
    # verify_atlas keeps one entry per run, not its reports: holding every
    # report, as it once did, peaked at 9.4 MB of heap at k = 42 against
    # 1.3 MB at k = 22; streaming reads about 0.2 and 0.1 MB
    def peak(k):
        chern_of.cache_clear()
        tracemalloc.start()
        try:
            verify_atlas(EnumerationOptions(k))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            chern_of.cache_clear()
    assert peak(42) < peak(22) + 500_000


def test_module_suites_hold_no_case_list():
    # the chern-round-trip cases alone take about 1.8 MB when held in a list
    chern_of.cache_clear()
    tracemalloc.start()
    try:
        verify_module_invariants()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_family_suites_keep_one_family_in_the_chern_cache(monkeypatch):
    # the four family suites read each family in one pass, and its Chern
    # data leave the cache before the next family, so the cache never
    # holds the 565 families (about 0.15 MB) at once
    sizes, real = [], atlas.euler_check

    def euler_check(family):
        sizes.append(chern_of.cache_info().currsize)
        return real(family)
    monkeypatch.setattr(atlas, "euler_check", euler_check)
    checks = verify_module_invariants()
    assert all(c.failed == 0 for c in checks)
    assert len(sizes) == 565
    assert max(sizes) <= 1


def _curvecoh_with(name, wrap):
    """atlas's view of curvecoh, with one function replaced by wrap(real)."""
    return lambda real: types.SimpleNamespace(
        **{**vars(real), name: wrap(getattr(real, name))})


@pytest.mark.parametrize("module, name, wrap, broken", [
    (atlas, "chi_o_p3", lambda real: lambda j: real(j) + 1,
     {"p3-serre-duality": (0, 61), "p3-h0-vs-chi": (30, 31)}),
    (atlas, "h0_o_p3", lambda real: lambda j: real(j) + 1,
     {"p3-h0-vs-chi": (0, 61)}),
    (atlas, "curvecoh", _curvecoh_with(
        "cohomology_oc", lambda real: lambda c, a: CurveCohomology(
            real(c, a).h0, real(c, a).h1 + 1)),
     {"curve-serre-duality": (0, 250), "curve-chi-consistency": (0, 551)}),
    (atlas, "curvecoh", _curvecoh_with(
        "chi_oc", lambda real: lambda c, a: real(c, a) + 1),
     {"curve-chi-consistency": (0, 551),
      "curve-koszul-riemann-roch": (0, 323)}),
    (atlas, "chern_sabc_closed",
     lambda real: lambda a, b, c: (real(a, b, c)[0] + 1, real(a, b, c)[1]),
     {"closed-form-c2-agreement": (0, 545)}),
    (atlas, "chern_sabc_closed",
     lambda real: lambda a, b, c: (real(a, b, c)[0], real(a, b, c)[1] + 2),
     {"closed-form-c3-single-exponent": (0, 35)}),
    # atlas binds only the predicate euler_check; its data come from families
    (families, "dim_moduli", lambda real: lambda f: real(f) + 1,
     {"euler-pairing-ranges": (0, 565)}),
    # _replace skips the parity check ChernData.__new__ makes
    (atlas, "chern_of", lambda real: lambda f: real(f)._replace(
        c3=real(f).c3 + 1),
     {"closed-form-c3-single-exponent": (0, 35),
      "family-c3-parity": (0, 565)}),
], ids=["chi-o-p3", "h0-o-p3", "curve-h1", "chi-oc", "closed-c2",
        "closed-c3", "dim-moduli", "odd-c3"])
def test_module_suites_can_fail(monkeypatch, module, name, wrap, broken):
    # every failing case reaches its suite's predicate through the stream
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    checks = {c.name: c for c in verify_module_invariants()}
    assert {n: (c.passed, c.failed)
            for n, c in checks.items() if c.failed} == broken
    assert all(len(checks[n].failures) == 10 for n in broken)
