"""The value types are immutable named tuples: equality is field-wise tuple
equality, construction validates exactly as documented, and nothing in the
package compares equal across family kinds."""

import pytest

from sheafatlas import atlas, curvecoh, families, p3rr, render, transform
from sheafatlas.atlas import (
    EnumerationOptions,
    curve_families_of_degree,
    verify_atlas,
)
from sheafatlas.curvecoh import CompleteIntersection, RationalCurve
from sheafatlas.families import IdealExtension, SplitResolution
from sheafatlas.p3rr import ChernData
from sheafatlas.transform import ComponentDescriptor, ErratumNote

VALUE_TYPES = [
    p3rr.ChernData,
    curvecoh.RationalCurve, curvecoh.CompleteIntersection,
    curvecoh.CurveCohomology,
    families.SplitResolution, families.IdealExtension, families.ExtProfile,
    transform.ComponentDescriptor, transform.ConditionVerdict,
    transform.ErratumNote,
    transform.ComponentReport, transform.ComponentRun,
    atlas.EnumerationOptions, atlas.CheckResult,
    atlas.VerificationSummary,
]


def _samples() -> list:
    report = transform.build_report(transform.M3_DESCRIPTOR)
    opts = EnumerationOptions(3)
    summary = verify_atlas(opts)
    return [
        report.run.chern_e,
        RationalCurve(2), CompleteIntersection(2, 2),
        curvecoh.cohomology_oc(RationalCurve(2), 1),
        SplitResolution(0, 0, 2), IdealExtension(1),
        families.ext_profile(IdealExtension(1)),
        report.descriptor, report.verdicts[0],
        report.erratum_notes[0], report,
        transform.component_run(IdealExtension(1), RationalCurve(2)),
        opts, summary.checks[0], summary,
    ]


SAMPLES = _samples()


def test_the_samples_cover_every_value_type():
    assert [type(x) for x in SAMPLES] == VALUE_TYPES


@pytest.mark.parametrize("value", SAMPLES, ids=lambda x: type(x).__name__)
def test_values_are_immutable(value):
    assert isinstance(value, tuple)
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], 0)
    with pytest.raises(AttributeError):
        value.extra = 0


def test_reflexive_kinds_never_compare_equal():
    # tuple equality ignores the type; the two kinds differ in arity
    xs = ([SplitResolution(*t) for w in range(2, 31, 2)
           for t in atlas._split_triples(w)]
          + [IdealExtension(m) for m in range(1, 21)])
    assert len(set(xs)) == len({(type(x), x) for x in xs}) == len(xs)


def test_curve_kinds_never_compare_equal():
    xs = [c for d in range(1, 17) for c in curve_families_of_degree(d)]
    assert len(set(xs)) == len({(type(x), x) for x in xs}) == len(xs)


# Each bad argument list with the exact message of its ValueError.
BAD_ARGUMENTS = [
    (ChernData, (1, 1),
     "odd c3: a rank-2 sheaf with c1 = 0 on P^3 has even c3"),
    (ChernData, (0, -3),
     "odd c3: a rank-2 sheaf with c1 = 0 on P^3 has even c3"),
    (SplitResolution, (1, 2, 0), "3a+2b+c must be positive and even, got 7"),
    (SplitResolution, (-1, 0, 2), "resolution exponents must be nonnegative"),
    (SplitResolution, (0, 0, 0), "3a+2b+c must be positive and even, got 0"),
    (IdealExtension, (0,), "curve degree m must be positive"),
    (RationalCurve, (0,), "degree must be positive"),
    (CompleteIntersection, (3, 2), "require d1 <= d2"),
    (CompleteIntersection, (1, 1), "(1, 1) is rational and excluded from "
     "the complete-intersection family"),
    (CompleteIntersection, (1, 2), "(1, 2) is rational and excluded from "
     "the complete-intersection family"),
    (CompleteIntersection, (0, 2), "surface degrees must be positive"),
    (ComponentDescriptor, (IdealExtension(1), RationalCurve(2), -1),
     "number of points must be nonnegative"),
    (EnumerationOptions, (2,), "the component series starts at c2 = 3"),
    (EnumerationOptions, (5, 0), "curve-degree floor must be positive"),
]


@pytest.mark.parametrize("cls, args, message", BAD_ARGUMENTS,
                         ids=lambda x: x.__name__ if isinstance(x, type)
                         else None)
def test_constructors_reject_bad_arguments(cls, args, message):
    with pytest.raises(ValueError) as exc:
        cls(*args)
    assert str(exc.value) == message


def test_keyword_construction_and_defaults():
    assert EnumerationOptions(k=5) == EnumerationOptions(5, 2)
    assert EnumerationOptions(5, min_curve_degree=1).min_curve_degree == 1
    with pytest.raises(ValueError):
        ChernData(c2=3, c3=1)
    assert ChernData._fields == ("c2", "c3")
    assert ErratumNote._field_defaults == {}
    assert atlas.CheckResult._field_defaults == {}


def test_a_value_type_in_a_note_still_fails_to_render():
    # json.dumps writes any tuple as a list; render refuses a named tuple
    # instead of writing a ChernData note value as a bare list.
    report = transform.build_report(transform.M3_DESCRIPTOR)
    note = ErratumNote("code", "message", (("chern", report.run.chern_e),))
    with pytest.raises(TypeError, match="ChernData is not JSON serializable"):
        render.report_json(report._replace(erratum_notes=(note,)))
    plain = ErratumNote("code", "message", (("spectrum", (-1, 0, 1)),))
    assert '"spectrum": [\n' in render.report_json(
        report._replace(erratum_notes=(plain,)))
