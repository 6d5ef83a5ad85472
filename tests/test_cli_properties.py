"""Property tests of `atlas describe` over random argv, valid and not.
Test-only: the package stays stdlib-only."""

import contextlib
import io
import json

import pytest

from sheafatlas import transform
from sheafatlas.cli import main
from sheafatlas.transform import (
    ComponentDescriptor,
    ConditionStatus,
    InadmissibleDescriptor,
    build_report,
    canonical_int,
    check_conditions,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SMALL = st.integers(-1, 6)
JUNK = st.one_of(
    st.sampled_from(["", "S:1,2", "V:", "V:a", "X:1", "R:1,2", "CI:2",
                     "S:0,0,02", "V:+1", "R: 3", "r:3", "S:0,0,2,", "-1"]),
    st.text(alphabet="SVRCI:,0123456789+- x", max_size=8),
)
REFLEXIVE = st.one_of(
    st.builds("S:{},{},{}".format, SMALL, SMALL, SMALL),
    st.builds("V:{}".format, SMALL),
    JUNK,
)
CURVE = st.one_of(
    st.builds("R:{}".format, st.integers(-1, 9)),
    st.builds("CI:{},{}".format, SMALL, SMALL),
    JUNK,
)
NUMBER = st.one_of(st.integers(-2, 12).map(str),
                   st.sampled_from(["05", "+1", "x", "", " 1", "١"]))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def library_outcome(reflexive, curve, points, floor):
    """The descriptor and floor the CLI should read, or None if it must
    refuse the argv as a usage error."""
    try:
        d = ComponentDescriptor(transform.parse_reflexive(reflexive),
                                transform.parse_curve(curve),
                                canonical_int(points))
        return d, transform.check_curve_degree_floor(canonical_int(floor))
    except ValueError:
        return None


@settings(max_examples=200, deadline=None)
@given(reflexive=REFLEXIVE, curve=CURVE, points=NUMBER,
       floor=st.one_of(st.none(), NUMBER),
       fmt=st.sampled_from(["table", "json", "csv"]))
def test_describe_on_random_argv(reflexive, curve, points, floor, fmt):
    argv = ["describe", "--reflexive", reflexive, "--curve", curve,
            "--points", points, "--format", fmt]
    if floor is not None:
        argv += ["--min-curve-degree", floor]
    code, out, err = run(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err

    parsed = library_outcome(reflexive, curve, points,
                             "2" if floor is None else floor)
    if parsed is None:
        assert code == 2 and out == ""
        return
    d, min_degree = parsed
    failing = {v.condition for v in check_conditions(d)
               if v.status is ConditionStatus.FAILS}
    inadmissible = (bool(failing & {"points-bound", "degree-bound"})
                    or d.curve.degree < min_degree)
    try:
        build_report(d, min_curve_degree=min_degree)
        raised = False
    except InadmissibleDescriptor:
        raised = True
    assert raised == inadmissible
    assert code == (3 if inadmissible else 0)

    # An accepted tag prints back unchanged (an inadmissible descriptor
    # whose Hom space is empty prints no report).
    if out and fmt == "json":
        assert json.loads(out)["report"]["descriptor"] == {
            "reflexive": reflexive, "curve": curve, "s": d.s}
    elif out:
        assert reflexive in out and curve in out
    else:
        assert code == 3
