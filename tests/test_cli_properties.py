"""Property tests of `atlas describe`, `enumerate` and `verify` over random
argv, valid and not.  Test-only: the package stays stdlib-only."""

import contextlib
import io
import json

import pytest

from sheafatlas import transform
from sheafatlas.atlas import EnumerationOptions
from sheafatlas.cli import main
from sheafatlas.transform import (
    FAILS,
    ComponentDescriptor,
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
    failing = {v.condition for v in check_conditions(d) if v.status == FAILS}
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


MALFORMED = st.sampled_from(["05", "+3", "-1", "x", "", " 4", "3.0", "١"])
FORMAT = st.one_of(st.sampled_from(["table", "json", "csv"]),
                   st.sampled_from(["xml", "", "JSON", "2"]))


def expected_enumerate_code(c2, floor, fmt):
    """0 if the library accepts the options and the format is known, else
    the usage-error code 2."""
    if fmt is not None and fmt not in ("table", "json", "csv"):
        return 2
    try:
        EnumerationOptions(k=canonical_int(c2),
                           min_curve_degree=canonical_int(
                               "2" if floor is None else floor))
    except ValueError:
        return 2
    return 0


# k stays at most 10 so each example enumerates a few hundred reports.
@settings(max_examples=200, deadline=None)
@given(c2=st.one_of(st.integers(-1, 10).map(str), MALFORMED),
       floor=st.one_of(st.none(), st.integers(-1, 4).map(str), MALFORMED),
       fmt=st.one_of(st.none(), FORMAT))
def test_enumerate_on_random_argv(c2, floor, fmt):
    argv = ["enumerate", "--c2", c2]
    if floor is not None:
        argv += ["--min-curve-degree", floor]
    if fmt is not None:
        argv += ["--format", fmt]
    code, out, err = run(argv)
    assert code in (0, 2)
    assert "Traceback" not in err
    assert code == expected_enumerate_code(c2, floor, fmt)
    assert (out != "") == (code == 0)


# --max-k stays at most 5; verify takes no --format, so passing one is a
# usage error.
@settings(max_examples=40, deadline=None)
@given(max_k=st.one_of(st.integers(-1, 5).map(str), MALFORMED),
       fmt=st.one_of(st.none(), FORMAT))
def test_verify_on_random_argv(max_k, fmt):
    argv = ["verify", "--max-k", max_k]
    if fmt is not None:
        argv += ["--format", fmt]
    code, out, err = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    try:
        valid = fmt is None and canonical_int(max_k) >= 3
    except ValueError:
        valid = False
    assert code == (0 if valid else 2)
    assert out.endswith("overall: PASS\n") == valid
