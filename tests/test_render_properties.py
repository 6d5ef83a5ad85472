"""Property tests of the schema-1 JSON emitter on synthetic reports: any
text, any integer size, empty and non-empty lists.  Test-only: the package
stays stdlib-only."""

import pytest

from sheafatlas.p3rr import ChernData
from sheafatlas.render import report_json
from sheafatlas.transform import (
    FAILS,
    HOLDS,
    HOLDS_GENERICALLY,
    ComponentReport,
    ComponentRun,
    ConditionVerdict,
    ErratumNote,
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
VERDICT = st.builds(ConditionVerdict, TEXT,
                    st.sampled_from((HOLDS, HOLDS_GENERICALLY, FAILS)), TEXT)
DESCRIPTOR = st.builds(
    descriptor,
    st.sampled_from(["V:1", "V:7", "S:0,0,2", "S:1,0,1", "S:12,3,0"]),
    st.sampled_from(["R:1", "R:9", "CI:2,3"]),
    st.integers(0, 2 ** 70),
)


@settings(max_examples=60, deadline=None)
@given(
    d=DESCRIPTOR, run_ints=st.lists(INT, min_size=5, max_size=5),
    ints=st.lists(INT, min_size=6, max_size=6),
    chern_e=CHERN, chern_r=CHERN,
    closed=st.one_of(st.none(), st.tuples(INT, INT)),
    verdicts=st.lists(VERDICT, max_size=3).map(tuple),
    notes=st.lists(NOTE, max_size=2).map(tuple),
)
def test_report_json_is_the_oracle_tree(d, run_ints, ints, chern_e, chern_r,
                                        closed, verdicts, notes):
    # the run's numbers and the report's per-s numbers are drawn apart; k
    # is chern_e.c2, and the signature reads deg C, the run's genus, d.s
    # and c3(R)
    run = ComponentRun(
        reflexive=d.reflexive, curve=d.curve, chern_r=chern_r,
        chern_e=chern_e, chi_l0=run_ints[0], genus=run_ints[1],
        normal_h1=run_ints[2], dim0=run_ints[3], tangent0=run_ints[4],
        closed=closed, notes=notes)
    report = ComponentReport(
        descriptor=d, run=run, deg_l=ints[0], chi_l=ints[1],
        chi_hom_fl=ints[2], hom_orbit_dim=ints[3], dim_component=ints[4],
        dim_tangent=ints[5], verdicts=verdicts, erratum_notes=notes)
    assert report_json(report) == report_oracle_text(report)
