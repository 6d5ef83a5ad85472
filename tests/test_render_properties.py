"""Property tests of the schema-1 JSON emitter on synthetic reports: any
text, any integer size, empty and non-empty lists.  Test-only: the package
stays stdlib-only."""

import pytest

from sheafatlas.p3rr import ChernData
from sheafatlas.render import report_json
from sheafatlas.transform import (
    ComponentReport,
    ConditionStatus,
    ConditionVerdict,
    ErratumNote,
    SingularitySignature,
)
from test_render import descriptor, report_oracle_text

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

INT = st.one_of(st.integers(-10, 10), st.integers(-2 ** 80, 2 ** 80))
TEXT = st.one_of(
    st.text(),
    st.text(alphabet='"\\\n\t\x00\x1f\x7f/é \U0001d11e', max_size=12),
)
CHERN = st.builds(lambda c2, half_c3: ChernData(c2, 2 * half_c3), INT, INT)
# a non-empty tuple of (str, value) pairs is written as a JSON object
OBJECT = st.lists(st.tuples(TEXT, st.one_of(INT, TEXT)), min_size=1,
                  max_size=3).map(tuple)
VALUE = st.one_of(INT, OBJECT, TEXT, st.lists(INT, max_size=3).map(tuple))
NOTE = st.builds(ErratumNote, TEXT, TEXT,
                 st.lists(st.tuples(TEXT, VALUE), max_size=3).map(tuple))
VERDICT = st.builds(ConditionVerdict, TEXT, st.sampled_from(ConditionStatus),
                    TEXT)
DESCRIPTOR = st.builds(
    descriptor,
    st.sampled_from(["V:1", "V:7", "S:0,0,2", "S:1,0,1", "S:12,3,0"]),
    st.sampled_from(["R:1", "R:9", "CI:2,3"]),
    st.integers(0, 2 ** 70),
)


@settings(max_examples=60, deadline=None)
@given(
    d=DESCRIPTOR, ints=st.lists(INT, min_size=9, max_size=9),
    chern_e=CHERN, chern_r=CHERN,
    closed=st.one_of(st.none(), st.tuples(INT, INT)),
    verdicts=st.lists(VERDICT, max_size=3).map(tuple),
    curve_parts=st.lists(st.tuples(INT, INT), max_size=3).map(tuple),
    notes=st.lists(NOTE, max_size=2).map(tuple),
)
def test_report_json_is_the_oracle_tree(d, ints, chern_e, chern_r, closed,
                                        verdicts, curve_parts, notes):
    report = ComponentReport(
        descriptor=d, k=ints[0], chern_e=chern_e, deg_l=ints[1],
        chi_l=ints[2], chi_hom_fl=ints[3], hom_orbit_dim=ints[4],
        dim_component=ints[5], dim_tangent=ints[6], verdicts=verdicts,
        signature=SingularitySignature(curve_parts, ints[7], ints[8]),
        erratum_notes=notes, reflexive_chern=chern_r,
        reflexive_chern_closed=closed, normal_bundle_h1=ints[0] - ints[8],
    )
    assert report_json(report) == report_oracle_text(report)
