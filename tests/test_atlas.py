"""Enumeration: Diophantine search, canonical order, verification suite."""

import pytest

from sheafatlas import atlas, families
from sheafatlas.atlas import (
    EnumerationOptions,
    curve_families_of_degree,
    enumerate_components,
    solve_sabc,
    verify_atlas,
    verify_module_invariants,
)
from sheafatlas.curvecoh import CompleteIntersection, RationalCurve
from sheafatlas.families import (
    IdealExtension,
    SplitResolution,
    chern_of,
    half_c3,
)
from sheafatlas.p3rr import ChernData
from sheafatlas.transform import ComponentDescriptor


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


def test_curve_families_of_degree():
    assert curve_families_of_degree(2) == [RationalCurve(2)]
    assert curve_families_of_degree(4) == [
        RationalCurve(4), CompleteIntersection(1, 4),
        CompleteIntersection(2, 2)]
    assert curve_families_of_degree(6) == [
        RationalCurve(6), CompleteIntersection(1, 6),
        CompleteIntersection(2, 3)]


def test_enumerate_k3():
    atlas = enumerate_components(EnumerationOptions(k=3))
    assert len(atlas.reports) == 1
    report = atlas.reports[0]
    assert report.descriptor == ComponentDescriptor(
        IdealExtension(1), RationalCurve(2), 0)
    assert report.dim_component == 22
    assert [n.code for n in report.erratum_notes] == ["published-m3-values"]


def test_enumerate_k4():
    atlas = enumerate_components(EnumerationOptions(k=4))
    expected = [
        ComponentDescriptor(SplitResolution(0, 0, 2), RationalCurve(2), 0),
        ComponentDescriptor(SplitResolution(0, 0, 2), RationalCurve(2), 1),
        ComponentDescriptor(IdealExtension(1), RationalCurve(3), 0),
        ComponentDescriptor(IdealExtension(1), CompleteIntersection(1, 3), 0),
        ComponentDescriptor(IdealExtension(1), CompleteIntersection(1, 3), 1),
    ]
    assert [r.descriptor for r in atlas.reports] == expected
    assert dict(atlas.summary) == {("S", "R"): 2, ("V", "R"): 1, ("V", "CI"): 2}


def test_enumerate_k3_high_floor_is_empty():
    atlas = enumerate_components(EnumerationOptions(k=3, min_curve_degree=3))
    assert atlas.reports == ()


def test_k_floor_enforced():
    with pytest.raises(ValueError):
        EnumerationOptions(k=2)


def test_k_additivity_and_uniqueness():
    for k in range(3, 13):
        atlas = enumerate_components(EnumerationOptions(k=k))
        descriptors = [r.descriptor for r in atlas.reports]
        assert len(set(descriptors)) == len(descriptors)
        for r in atlas.reports:
            assert (chern_of(r.descriptor.reflexive).c2
                    + r.descriptor.curve.degree == k)


def test_determinism():
    opts = EnumerationOptions(k=7)
    assert enumerate_components(opts) == enumerate_components(opts)


def test_brute_force_completeness():
    for k in range(3, 13):
        atlas = enumerate_components(EnumerationOptions(k=k))
        assert {r.descriptor for r in atlas.reports} == brute_force(k)


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
    mismatches = {n.value("triple") for n in summary.erratum_notes
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
    assert (broken.passed, broken.failed) == (0, 2)  # S:0,0,2 and V:1
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
        return ChernData(2, 0, c.c2 + 1, c.c3)
    monkeypatch.setattr(atlas, "chern_from_values", shifted)
    checks = {c.name: c for c in verify_module_invariants()}
    broken = checks.pop("chern-round-trip")
    assert (broken.passed, broken.failed) == (0, 16281)
    assert all(c.failed == 0 for c in checks.values())
