"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every comparison is exact; the only tolerances are the stated
wall-clock bounds.
"""

import functools
import io
import json
import time
from fractions import Fraction

import pytest

from sheafatlas.atlas import (
    EnumerationOptions,
    iter_components,
    solve_sabc,
)
from sheafatlas.cli import main
from sheafatlas.curvecoh import (
    CompleteIntersection,
    RationalCurve,
    canonical_twist,
    chi_oc,
    cohomology_oc,
    genus,
)
from sheafatlas.families import (
    IdealExtension,
    SplitResolution,
    chern_of,
    chern_sabc_closed,
    euler_check,
    ext_profile,
    half_c3,
)
from sheafatlas.p3rr import chi_o_p3
from sheafatlas.render import write_atlas
from sheafatlas.transform import ComponentDescriptor, chi_hom_fl, chi_l


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("criterion %2d FAIL: %s" % (number, description))
                raise
            print("criterion %2d PASS: %s" % (number, description))
        return run
    return wrap


def admissible_triples(max_weight):
    for w in range(2, max_weight + 1, 2):
        for a in range(w // 3 + 1):
            for b in range((w - 3 * a) // 2 + 1):
                yield (a, b, w - 3 * a - 2 * b)


@pytest.fixture(scope="module")
def atlases():
    return {k: tuple(iter_components(EnumerationOptions(k=k)))
            for k in range(3, 13)}


@criterion(1, "closed-form c2 equals the resolution oracle, weight <= 30")
def test_criterion_01_c2_oracle_agreement():
    start = time.perf_counter()
    count = 0
    for (a, b, c) in admissible_triples(30):
        closed_c2, _ = chern_sabc_closed(a, b, c)
        assert closed_c2 == chern_of(SplitResolution(a, b, c)).c2
        count += 1
    elapsed = time.perf_counter() - start
    assert count > 200  # several hundred triples
    assert elapsed < 1.0, "took %.3fs" % elapsed


@criterion(2, "closed-form c3 audit: single-exponent exact, (1,0,1) flagged")
def test_criterion_02_c3_audit():
    start = time.perf_counter()
    for (a, b, c) in admissible_triples(30):
        if a * b == 0 and a * c == 0 and b * c == 0:
            _, twice_c3 = chern_sabc_closed(a, b, c)
            assert twice_c3 == 2 * chern_of(SplitResolution(a, b, c)).c3
    # the documented mismatch is reproduced and reported, never swallowed
    assert chern_sabc_closed(1, 0, 1) == (9, 77)
    assert chern_of(SplitResolution(1, 0, 1)).c3 == 40
    from sheafatlas.transform import build_report
    report = build_report(
        ComponentDescriptor(SplitResolution(1, 0, 1), RationalCurve(2), 0))
    note = {n.code: n for n in report.erratum_notes}["closed-form-c3-mismatch"]
    closed = dict(dict(note.values)["closed_form"])
    assert Fraction(closed["num"], closed["den"]) == Fraction(77, 2)
    assert "gives 77/2;" in note.message
    assert dict(note.values)["resolution_oracle"] == 40
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "took %.3fs" % elapsed


@criterion(3, "transformed sheaves have c1 = 0, c3 = 0, c2 = c2(R) + deg(C)")
def test_criterion_03_transformation_bookkeeping():
    start = time.perf_counter()
    count = 0
    for k in range(3, 13):
        for report in iter_components(EnumerationOptions(k=k)):
            d = report.descriptor
            assert report.chern_e.c1 == 0
            assert report.chern_e.c3 == 0
            assert (report.chern_e.c2
                    == chern_of(d.reflexive).c2 + d.curve.degree)
            count += 1
    elapsed = time.perf_counter() - start
    assert count > 0
    assert elapsed < 5.0, "took %.3fs" % elapsed


@criterion(4, "both section-count routes agree on all split descriptors")
def test_criterion_04_two_route_equality(atlases):
    checked = 0
    for reports in atlases.values():
        for report in reports:
            d = report.descriptor
            if not isinstance(d.reflexive, SplitResolution):
                continue
            # chi_hom_fl raises on a route mismatch; also recompute route A
            fam, deg = d.reflexive, d.curve.degree
            base = chi_l(d)
            kappa = fam.kappa
            via_resolution = (
                (fam.a + fam.b + fam.c + 2) * (base + kappa * deg)
                - fam.a * (base + (kappa + 3) * deg)
                - fam.b * (base + (kappa + 2) * deg)
                - fam.c * (base + (kappa + 1) * deg)
            )
            assert via_resolution == 2 * base == chi_hom_fl(d, base)
            checked += 1
    assert checked > 0


@criterion(5, "tangent-space assembly equals the parameter count, k <= 12")
def test_criterion_05_tangent_equality(atlases):
    for reports in atlases.values():
        for report in reports:
            assert report.dim_component == report.dim_tangent


@criterion(6, "c2 = 3 reproduces the single new component with dim 22")
def test_criterion_06_m3_reproduction(capsys):
    start = time.perf_counter()
    reports = tuple(iter_components(EnumerationOptions(k=3)))
    assert len(reports) == 1
    report = reports[0]
    assert report.descriptor == ComponentDescriptor(
        IdealExtension(1), RationalCurve(2), 0)
    assert report.chern_e.c2 == 3
    assert report.dim_component == 22
    note = {n.code: n for n in report.erratum_notes}["published-m3-values"]
    assert dict(note.values)["published_dimension"] == 21
    assert dict(note.values)["computed_dimension"] == 22
    # and through the command line
    code = main(["enumerate", "--c2", "3", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 1
    assert payload["reports"][0]["dim_component"] == 22
    codes = [n["code"] for n in payload["reports"][0]["erratum_notes"]]
    assert codes == ["published-m3-values"]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "took %.3fs" % elapsed


@criterion(7, "Serre duality and Koszul/Riemann-Roch on curves, exact")
def test_criterion_07_curve_identities():
    for d1 in range(1, 17):
        for d2 in range(d1, 17):
            if d1 * d2 > 16 or (d1, d2) in {(1, 1), (1, 2)}:
                continue
            ci = CompleteIntersection(d1, d2)
            e = canonical_twist(ci)
            for a in range(0, e + 5):
                assert cohomology_oc(ci, a).h1 == cohomology_oc(ci, e - a).h0
            for a in range(-6, e + 5):
                alt = (chi_o_p3(a) - chi_o_p3(a - d1) - chi_o_p3(a - d2)
                       + chi_o_p3(a - d1 - d2))
                assert alt == chi_oc(ci, a)


@criterion(8, "alternating Ext sum equals 4 - 8*c2 on both families")
def test_criterion_08_euler_pairing():
    for (a, b, c) in admissible_triples(30):
        fam = SplitResolution(a, b, c)
        assert ext_profile(fam).euler_sum == 4 - 8 * chern_of(fam).c2
        assert euler_check(fam)
    for m in range(1, 21):
        fam = IdealExtension(m)
        assert ext_profile(fam).euler_sum == 4 - 8 * m
        assert euler_check(fam)


@criterion(9, "twisted-canonical degree identity 2g-2+4d-2degL = 2(s-n)")
def test_criterion_09_degree_identity(atlases):
    for reports in atlases.values():
        for report in reports:
            d = report.descriptor
            lhs = (2 * genus(d.curve) - 2 + 4 * d.curve.degree
                   - 2 * report.deg_l)
            assert lhs == 2 * (d.s - half_c3(d.reflexive))


@criterion(10, "enumeration equals the brute-force scan; runs are identical")
def test_criterion_10_completeness_and_determinism(atlases):
    for k, reports in atlases.items():
        enumerated = {r.descriptor for r in reports}
        assert enumerated == brute_force_descriptors(k)
    # byte-identical serialization across repeated runs
    for k in (3, 7, 12):
        opts = EnumerationOptions(k=k)
        first, second = io.StringIO(), io.StringIO()
        write_atlas(opts, iter_components(opts), "json", first)
        write_atlas(opts, iter_components(opts), "json", second)
        assert first.getvalue() == second.getvalue()


def brute_force_descriptors(k):
    """Scan the full box a,b,c <= 2k, m <= k, deg <= k, s <= 4k with the raw
    constraint predicates; independent of the enumerator's search bounds."""
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
    for fam in families:
        c2 = chern_of(fam).c2
        for curve in curves:
            if c2 + curve.degree != k:
                continue
            if isinstance(fam, IdealExtension) and not fam.m < curve.degree:
                continue
            n = half_c3(fam)
            for s in range(0, 4 * k + 1):
                if isinstance(curve, RationalCurve):
                    if not s < n:
                        continue
                elif not s <= n:
                    continue
                out.add(ComponentDescriptor(fam, curve, s))
    return out
