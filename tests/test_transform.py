"""Elementary-transformation bookkeeping and the tangent-space cross-check."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import sheafatlas
from powerbasis import HilbertPolynomial, chern_from_hp, hp_from_chern
from record_manifest import DESCRIBE
from sheafatlas import atlas, transform
from sheafatlas.atlas import EnumerationOptions, iter_components
from sheafatlas.curvecoh import CompleteIntersection, RationalCurve, genus
from sheafatlas.families import (
    ExtProfile,
    IdealExtension,
    SplitResolution,
    chern_of,
    half_c3,
)
from sheafatlas.p3rr import CertificateError, ChernData
from sheafatlas.transform import (
    CONDITION_IDS,
    FAILS,
    HOLDS,
    HOLDS_GENERICALLY,
    ComponentDescriptor,
    ConditionVerdict,
    InadmissibleDescriptor,
    assemble_report,
    build_report,
    check_conditions,
    chern_of_e,
    chi_hom_fl,
    chi_l,
    stability_margin,
)

V1_CONIC = ComponentDescriptor(IdealExtension(1), RationalCurve(2), 0)
S002_CONIC = ComponentDescriptor(SplitResolution(0, 0, 2), RationalCurve(2), 0)
S002_CONIC_1PT = ComponentDescriptor(SplitResolution(0, 0, 2), RationalCurve(2), 1)
V1_PLANE_CUBIC = ComponentDescriptor(
    IdealExtension(1), CompleteIntersection(1, 3), 1)


def all_reports(max_k=12):
    for k in range(3, max_k + 1):
        yield from iter_components(EnumerationOptions(k=k))


def verdict(d, condition):
    return {v.condition: v for v in check_conditions(d)}[condition]


def test_chi_l_examples():
    for d, expected in ((V1_CONIC, (5, 4)), (S002_CONIC_1PT, (5, 4)),
                        (V1_PLANE_CUBIC, (6, 6))):
        report = assemble_report(d)
        assert (report.chi_l, report.deg_l) == expected


def test_chern_of_e_examples():
    assert chern_of_e(V1_CONIC, 5) == ChernData(3, 0)
    assert chern_of_e(S002_CONIC, 6) == ChernData(4, 0)
    assert chern_of_e(V1_PLANE_CUBIC, 6) == ChernData(4, 0)


def _chern_of_e_by_polynomials(d, chi):
    # The polynomial route chern_of_e replaced, kept as its oracle:
    # P(E) = P(F) - P(Q) with P(Q) in binomial coordinates
    # (chi(L) + s - deg(C), deg(C), 0, 0), inverted by chern_from_hp.
    deg = d.curve.degree
    n0, n1, n2, n3 = hp_from_chern(chern_of(d.reflexive)).coords
    return chern_from_hp(HilbertPolynomial(n0 - (chi + d.s - deg), n1 - deg,
                                           n2, n3))


def test_chern_of_e_matches_the_polynomial_route():
    for report in all_reports():
        d, chi = report.descriptor, report.chi_l
        assert chern_of_e(d, chi) == _chern_of_e_by_polynomials(d, chi)
        for wrong in (chi - 1, chi + 1):
            c3 = _chern_of_e_by_polynomials(d, wrong).c3
            assert c3 != 0
            with pytest.raises(CertificateError, match="is %d, not 0" % c3):
                chern_of_e(d, wrong)


def test_chi_hom_fl_examples():
    assert chi_hom_fl(V1_CONIC, chi_l(V1_CONIC)) == 10
    assert chi_hom_fl(S002_CONIC, chi_l(S002_CONIC)) == 12
    d = ComponentDescriptor(SplitResolution(0, 1, 0), RationalCurve(3), 2)
    assert chi_hom_fl(d, chi_l(d)) == 16


def test_hom_orbit_dim_examples():
    assert assemble_report(V1_CONIC).hom_orbit_dim == 9
    assert assemble_report(S002_CONIC_1PT).hom_orbit_dim == 10
    assert assemble_report(V1_PLANE_CUBIC).hom_orbit_dim == 12


def test_dim_component_examples():
    assert assemble_report(V1_CONIC).dim_component == 22
    assert assemble_report(S002_CONIC).dim_component == 32
    assert assemble_report(V1_PLANE_CUBIC).dim_component == 33


def test_dim_tangent_examples():
    assert assemble_report(V1_CONIC).dim_tangent == 22
    assert assemble_report(S002_CONIC_1PT).dim_tangent == 34
    d = ComponentDescriptor(SplitResolution(0, 1, 0), RationalCurve(3), 0)
    assert assemble_report(d).dim_tangent == 52


def test_verdict_ids_and_order_are_stable():
    for d in (V1_CONIC, S002_CONIC, V1_PLANE_CUBIC):
        assert tuple(v.condition for v in check_conditions(d)) == CONDITION_IDS


def _describe_probes():
    """The describe descriptors of the output manifest that parse."""
    for reflexive, curve, points in DESCRIBE:
        try:
            yield ComponentDescriptor(transform.parse_reflexive(reflexive),
                                      transform.parse_curve(curve),
                                      int(points))
        except ValueError:
            pass


def test_every_verdict_is_in_the_closed_set():
    # A status is a plain string, so no type keeps it among the three; the
    # walks at floors 1 and 2 and the manifest's describe probes must.
    probes = list(_describe_probes())
    assert len(probes) == len(DESCRIBE) - 2  # two probes are usage errors
    ledgers = [check_conditions(d) for d in probes]
    for floor in (1, 2):
        for k in range(3, 23):
            ledgers += [r.verdicts for r in iter_components(
                EnumerationOptions(k=k, min_curve_degree=floor))]
    statuses = set()
    for ledger in ledgers:
        assert tuple(v.condition for v in ledger) == CONDITION_IDS
        statuses.update(v.status for v in ledger)
    assert statuses == {HOLDS, HOLDS_GENERICALLY, FAILS}


def test_conditions_admissible_case():
    assert verdict(V1_CONIC, "points-bound").status == HOLDS
    assert verdict(V1_CONIC, "degree-bound").status == HOLDS
    v16 = verdict(V1_CONIC, "twist-sections-vanish")
    assert v16.status == HOLDS
    assert "-2" in v16.note


def test_conditions_boundary_and_failure():
    bad = ComponentDescriptor(IdealExtension(1), RationalCurve(2), 1)
    assert verdict(bad, "points-bound").status == FAILS

    boundary = ComponentDescriptor(
        SplitResolution(0, 0, 2), CompleteIntersection(2, 2), 2)
    assert verdict(boundary, "points-bound").status == HOLDS
    v16 = verdict(boundary, "twist-sections-vanish")
    assert v16.status == HOLDS_GENERICALLY

    over = ComponentDescriptor(
        SplitResolution(0, 0, 2), CompleteIntersection(2, 2), 3)
    assert verdict(over, "points-bound").status == FAILS
    assert verdict(over, "twist-sections-vanish").status == FAILS


def test_degree_bound_failure():
    bad = ComponentDescriptor(IdealExtension(2), RationalCurve(2), 0)
    assert verdict(bad, "degree-bound").status == FAILS
    with pytest.raises(InadmissibleDescriptor):
        build_report(bad)


def test_generic_conditions_are_marked():
    for condition in ("curve-points-disjoint", "hom-h1-vanishing",
                      "surjection-exists"):
        assert verdict(V1_CONIC, condition).status == HOLDS_GENERICALLY
    # the variant-specific disjointness conditions swap roles
    assert (verdict(V1_CONIC, "section-curve-disjoint").status
            == HOLDS_GENERICALLY)
    assert verdict(V1_CONIC, "sing-disjoint").status == HOLDS
    assert verdict(S002_CONIC, "sing-disjoint").status == HOLDS_GENERICALLY

    # The family-fixed verdicts are shared objects: two descriptors of one
    # family kind, with different curve kinds and different s, get the very
    # same degree-bound (split only) through surjection-exists.
    split_boundary = ComponentDescriptor(
        SplitResolution(0, 1, 0), CompleteIntersection(2, 2), 4)
    for first, second, fixed in ((S002_CONIC, split_boundary, range(1, 7)),
                                 (V1_CONIC, V1_PLANE_CUBIC, range(2, 7))):
        assert first.s != second.s
        assert type(first.curve) is not type(second.curve)
        a, b = check_conditions(first), check_conditions(second)
        assert all(a[i] is b[i] for i in fixed)

    # The whole ledger, written out by hand for one descriptor of each kind.
    holds, generic = HOLDS, HOLDS_GENERICALLY
    expected = {
        V1_CONIC: (
            (holds, "s=0 < n=1 (strict for rational curves)"),
            (holds, "m=1 < deg(C)=2"),
            (generic, "open dense: W can be placed off C"),
            (holds, "vacuous for the extension family"),
            (generic, "open dense: C and W can be moved off Y_F"),
            (generic, "open dense; the section counts in this report assume it"),
            (generic, "open dense subset of Hom(F, Q)"),
            (holds, "deg(omega_C(4) - 2L) = -2 < 0"),
        ),
        split_boundary: (
            (holds, "s=4 <= n=4"),
            (holds, "vacuous for the split family"),
            (generic, "open dense: W can be placed off C"),
            (generic, "open dense: C and W can be moved off Sing(F)"),
            (holds, "vacuous for the split family"),
            (generic, "open dense; the section counts in this report assume it"),
            (generic, "open dense subset of Hom(F, Q)"),
            (generic, "degree 0; needs the square of L to differ from omega_C(4)"),
        ),
    }
    for d, rows in expected.items():
        assert check_conditions(d) == tuple(
            ConditionVerdict(condition, status, note)
            for condition, (status, note) in zip(CONDITION_IDS, rows))


def test_stability_margin():
    # twice the margin, (constant, slope) with slope deg(C) - m
    assert stability_margin(V1_CONIC) == (-4, 1)
    cubic = ComponentDescriptor(IdealExtension(1), RationalCurve(3), 0)
    assert stability_margin(cubic)[1] == 2
    with pytest.raises(ValueError):
        stability_margin(S002_CONIC)


def test_stability_margin_is_the_polynomial_difference():
    # The polynomial route as an oracle: P(E) - 2*P(I_{C+W}) with
    # P(I)(t) = chi(O(t)) - (1 - g + s + deg*t).
    for report in all_reports():
        d = report.descriptor
        if not isinstance(d.reflexive, IdealExtension):
            continue
        deg = d.curve.degree
        # P(I) in binomial coordinates: (g - 1 - s + deg, -deg, 0, 1)
        n0, n1, n2, n3 = hp_from_chern(report.run.chern_e).coords
        margin = HilbertPolynomial(n0 - 2 * (genus(d.curve) - 1 - d.s + deg),
                                   n1 + 2 * deg, n2, n3 - 2)
        assert margin.coords[2:] == (0, 0)
        assert stability_margin(d) == (margin.eval(0), margin.coords[1])


@pytest.mark.parametrize("extra", [lambda j: j ** 3, lambda j: j * j],
                         ids=["n3", "n2"])
def test_nonlinear_stability_margin_raises(monkeypatch, extra):
    # transform.chi_o_p3 reaches only P(I_{C+W}); P(E) reads p3rr's own.
    real = transform.chi_o_p3
    monkeypatch.setattr(transform, "chi_o_p3", lambda j: real(j) + extra(j))
    with pytest.raises(CertificateError, match="not linear"):
        stability_margin(V1_CONIC)


def test_signature_examples():
    # Sing(E): the curve part (deg C, g), the s points of W, and the
    # singular points inherited from R, of weight c3(R)
    for d, signature in [
            (V1_CONIC, (2, 0, 0, 2)),
            (S002_CONIC_1PT, (2, 0, 1, 4)),
            (ComponentDescriptor(SplitResolution(0, 1, 0),
                                 CompleteIntersection(2, 2), 3), (4, 1, 3, 8))]:
        run = assemble_report(d).run
        assert (d.curve.degree, run.genus, d.s, run.chern_r.c3) == signature


def test_build_report_m3_flags_published_dimension():
    report = build_report(V1_CONIC)
    assert report.run.chern_e.c2 == 3
    assert report.dim_component == 22
    codes = [n.code for n in report.erratum_notes]
    assert codes == ["published-m3-values"]
    note = report.erratum_notes[0]
    assert dict(note.values)["computed_dimension"] == 22
    assert dict(note.values)["published_dimension"] == 21
    assert dict(note.values)["published_spectrum"] == (-1, 0, 1)


def test_a_member_of_another_run_is_refused():
    run = transform.component_run(SplitResolution(0, 0, 2), RationalCurve(2))
    assert assemble_report(S002_CONIC_1PT, run) == assemble_report(
        S002_CONIC_1PT)
    # the M3 note is the M3 report's own: its run carries none
    m3 = transform.M3_DESCRIPTOR
    assert transform.component_run(m3.reflexive, m3.curve).notes == ()
    with pytest.raises(ValueError, match="is not a member of the run"):
        assemble_report(V1_CONIC, run)
    with pytest.raises(ValueError, match="is not a member of the run"):
        build_report(ComponentDescriptor(
            SplitResolution(0, 0, 2), CompleteIntersection(2, 2), 0), run=run)


def test_build_report_examples():
    report = build_report(S002_CONIC)
    assert (report.run.chern_e.c2, report.dim_component) == (4, 32)
    assert report.erratum_notes == ()

    report = build_report(
        ComponentDescriptor(IdealExtension(1), RationalCurve(3), 0))
    assert (report.run.chern_e.c2, report.dim_component) == (4, 30)
    assert report.chi_hom_fl == 14


def test_build_report_mixed_triple_notes_mismatch():
    d = ComponentDescriptor(SplitResolution(1, 0, 1), RationalCurve(2), 0)
    report = build_report(d)
    codes = [n.code for n in report.erratum_notes]
    assert codes == ["closed-form-c3-mismatch"]
    note = report.erratum_notes[0]
    assert dict(note.values)["closed_form"] == (("den", 2), ("num", 77))
    closed = dict(dict(note.values)["closed_form"])
    assert Fraction(closed["num"], closed["den"]) == Fraction(77, 2)
    assert dict(note.values)["resolution_oracle"] == 40


def test_degree_one_needs_override():
    line = ComponentDescriptor(SplitResolution(0, 0, 2), RationalCurve(1), 0)
    with pytest.raises(InadmissibleDescriptor):
        build_report(line)
    report = build_report(line, min_curve_degree=1)
    assert "outside-degree-novelty" in [n.code for n in report.erratum_notes]


def test_assemble_report_on_inadmissible_descriptor():
    bad = ComponentDescriptor(IdealExtension(2), RationalCurve(2), 0)
    report = assemble_report(bad)
    assert report.dim_component == report.dim_tangent
    statuses = {v.condition: v.status for v in report.verdicts}
    assert statuses["degree-bound"] == FAILS


def test_certificates_survive_python_O():
    # `python -O` strips assert statements; a broken assembly must still
    # be refused, and not as a ValueError the CLI fallback would swallow.
    script = textwrap.dedent("""
        import sys
        from sheafatlas import transform
        from sheafatlas.families import ExtProfile
        real = transform.ext_profile

        def broken(f):
            p = real(f)
            return ExtProfile(p.hom, p.ext1 + 1, p.ext2, p.ext3)
        transform.ext_profile = broken
        try:
            transform.build_report(transform.M3_DESCRIPTOR)
        except Exception as exc:
            print("optimize=%d raised %s" % (sys.flags.optimize,
                                             type(exc).__name__))
        else:
            print("optimize=%d accepted" % sys.flags.optimize)
    """)
    src = os.path.dirname(os.path.dirname(sheafatlas.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "optimize=1 raised CertificateError\n"


def _chi_l_off_by_one(monkeypatch):
    real = transform.chi_l
    monkeypatch.setattr(transform, "chi_l", lambda d: real(d) + 1)


def _kappa_off_by_one(monkeypatch):
    monkeypatch.setattr(SplitResolution, "kappa", property(
        lambda f: (3 * f.a + 2 * f.b + f.c) // 2 + 1))


def _closed_c2_off_by_one(monkeypatch):
    real = transform.chern_sabc_closed

    def closed(a, b, c):
        c2, c3 = real(a, b, c)
        return c2 + 1, c3
    monkeypatch.setattr(transform, "chern_sabc_closed", closed)


def _hp_value_shifted_like_c2(monkeypatch):
    # An off-by-one in any single input of chern_of_e moves c3 first.  A
    # shift of P(F)(t) by 2(t + 2) is what c2(R) - 2 would do to it, so
    # c3 stays 0 and only c2(E) is wrong.
    real = transform.hp_value
    monkeypatch.setattr(transform, "hp_value",
                        lambda c, t: real(c, t) + 2 * (t + 2))


def _paut_off_by_one(monkeypatch):
    # read by the component route only
    real = transform.dim_paut
    monkeypatch.setattr(transform, "dim_paut", lambda f: real(f) + 1)


def _ext_hom_off_by_one(monkeypatch):
    # read by the tangent route only
    real = transform.ext_profile

    def broken(f):
        p = real(f)
        return ExtProfile(p.hom + 1, p.ext1, p.ext2, p.ext3)
    monkeypatch.setattr(transform, "ext_profile", broken)


BREAKAGES = pytest.mark.parametrize("breakage, descriptor, message", [
    (_chi_l_off_by_one, V1_CONIC, "c3 of the transformed sheaf"),
    (_kappa_off_by_one, S002_CONIC, "route mismatch"),
    (_paut_off_by_one, V1_CONIC, "assembly mismatch"),
    (_ext_hom_off_by_one, S002_CONIC, "assembly mismatch"),
    (_closed_c2_off_by_one, S002_CONIC, "closed-form c2 3 disagrees"),
    (_hp_value_shifted_like_c2, V1_CONIC, r"c2\(E\) = 1 is not c2\(R\)"),
], ids=["transformed-c3", "section-count-route", "component-route",
        "tangent-route", "closed-form-c2", "transformed-c2"])


@BREAKAGES
def test_broken_certificates_raise_certificate_error(monkeypatch, breakage,
                                                     descriptor, message):
    # Not a ValueError: the CLI would report it as an inadmissible
    # descriptor instead of a broken certificate.  The unbroken report comes
    # first: it also reads chern_of into its cache, which the kappa breakage
    # would otherwise reach through the resolution in presentation_value.
    assemble_report(descriptor)
    breakage(monkeypatch)
    with pytest.raises(CertificateError, match=message):
        assemble_report(descriptor)


@BREAKAGES
def test_broken_certificates_raise_on_the_walk(monkeypatch, breakage,
                                               descriptor, message):
    # The walk builds each run's certificates once, for all its members: a
    # breakage must stop it, and also stop an s > 0 member built alone.
    opts = EnumerationOptions(assemble_report(descriptor).run.chern_e.c2)
    run = (descriptor.reflexive, descriptor.curve)
    walk = list(atlas.iter_components(opts))
    assert run in {(r.descriptor.reflexive, r.descriptor.curve) for r in walk}
    later = ComponentDescriptor(*run, 1)
    assemble_report(later)
    breakage(monkeypatch)
    with pytest.raises(CertificateError, match=message):
        list(atlas.iter_components(opts))
    with pytest.raises(CertificateError, match=message):
        assemble_report(later)


def _count_calls(monkeypatch, names, modules=(transform,)):
    """Count calls of each named function through the given modules."""
    calls = dict.fromkeys(names, 0)
    for module in modules:
        for name in names:
            if hasattr(module, name):
                real = getattr(module, name)

                def counted(*args, name=name, real=real):
                    calls[name] += 1
                    return real(*args)
                monkeypatch.setattr(module, name, counted)
    return calls


# What component_run derives once per (family, curve) run.
RUN_PARTS = ("component_run", "chern_of_e", "genus", "normal_cohomology",
             "ext_profile", "chern_sabc_closed")


@pytest.mark.parametrize("descriptor, closed_forms", [
    (transform.M3_DESCRIPTOR, 0),
    (ComponentDescriptor(SplitResolution(0, 1, 0), RationalCurve(3), 2), 1),
], ids=["m3", "S010-R3-s2"])
def test_assemble_report_derives_each_number_once(monkeypatch, descriptor,
                                                  closed_forms):
    # Built alone, a report builds its run once: chi(L) is read once, at
    # s = 0, and n = c3(R)/2 twice (chi_l and the ledger).  Only the split
    # family has a closed form.
    calls = _count_calls(monkeypatch, (
        "chi_l", "half_c3", "chi_hom_fl", "check_conditions") + RUN_PARTS)
    assemble_report(descriptor)
    assert calls == {"chi_l": 1, "half_c3": 2, "chi_hom_fl": 1,
                     "check_conditions": 1,
                     **dict.fromkeys(RUN_PARTS, 1),
                     "chern_sabc_closed": closed_forms}


def _runs(reports):
    """The (family, curve) runs of the reports, in walk order."""
    return list(dict.fromkeys(
        (r.descriptor.reflexive, r.descriptor.curve) for r in reports))


def test_enumeration_reads_chi_and_n_once_per_report(monkeypatch):
    # chi(L) is read once per run, at s = 0, and falls by one per point.
    # n is read by the two ledgers of each report (build_report's and
    # assemble_report's), and twice per run: by chi_l and by the walk for
    # the range of s.
    calls = _count_calls(monkeypatch, ("chi_l", "half_c3"),
                         modules=(transform, atlas))
    reports = tuple(iter_components(EnumerationOptions(k=22)))
    runs = _runs(reports)
    assert (len(reports), len(runs)) == (1344, 69)
    assert calls["chi_l"] == len(runs)
    assert calls["half_c3"] == 2 * len(reports) + 2 * len(runs)


def test_enumeration_derives_run_parts_once_per_run(monkeypatch):
    calls = _count_calls(monkeypatch, RUN_PARTS + ("chi_hom_fl",),
                         modules=(transform, atlas))
    reports = tuple(iter_components(EnumerationOptions(k=22)))
    runs = _runs(reports)
    split_runs = [run for run in runs if isinstance(run[0], SplitResolution)]
    assert (len(reports), len(runs), len(split_runs)) == (1344, 69, 38)
    assert calls == {**dict.fromkeys(RUN_PARTS, 69),
                     "chern_sabc_closed": 38, "chi_hom_fl": 69}


def test_transformed_chern_all_descriptors():
    for report in all_reports():
        d = report.descriptor
        assert type(report.run.chern_e) is ChernData  # rank 2, c1 = 0
        assert report.run.chern_e.c3 == 0
        assert report.run.chern_e.c2 == report.run.chern_r.c2 + d.curve.degree


def test_tangent_equals_component_all_descriptors():
    for report in all_reports():
        assert report.dim_component == report.dim_tangent


def test_degree_identity_all_descriptors():
    for report in all_reports():
        d = report.descriptor
        lhs = (2 * genus(d.curve) - 2 + 4 * d.curve.degree
               - 2 * report.deg_l)
        assert lhs == 2 * (d.s - half_c3(d.reflexive))


def test_dimension_monotone_in_s():
    groups = {}
    for report in all_reports():
        key = (report.descriptor.reflexive, report.descriptor.curve)
        groups.setdefault(key, []).append(report)
    seen_neighbours = 0
    for group in groups.values():
        group.sort(key=lambda r: r.descriptor.s)
        for lo, hi in zip(group, group[1:]):
            assert hi.descriptor.s == lo.descriptor.s + 1
            assert hi.dim_component == lo.dim_component + 2
            seen_neighbours += 1
    assert seen_neighbours > 0


def test_stability_margin_positive_for_extensions():
    for report in all_reports():
        if isinstance(report.descriptor.reflexive, IdealExtension):
            assert stability_margin(report.descriptor)[1] > 0
