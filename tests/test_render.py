"""Rendering: the schema-1 JSON emitter against a dict-tree oracle, the
table against a writer that holds every row, and the verification
transcript.

The oracle builds each report as a dict tree; serializing it with
json.dumps(indent=2, sort_keys=True) must reproduce the emitter's bytes
exactly.
"""

import csv
import io
import json
from collections import Counter
from fractions import Fraction

import pytest

from sheafatlas import render
from sheafatlas.atlas import (
    CheckResult,
    EnumerationOptions,
    VerificationSummary,
    iter_components,
)
from sheafatlas.render import (
    CSV_HEADER,
    SCHEMA_VERSION,
    report_json,
    report_table,
    verification_text,
    write_atlas,
)
from sheafatlas.transform import (
    M3_DESCRIPTOR,
    PUBLISHED_M3_PRIOR_COMPONENTS,
    ComponentDescriptor,
    ConditionStatus,
    assemble_report,
    build_report,
    curve_tag,
    parse_curve,
    parse_reflexive,
    reflexive_tag,
    tag_kind,
)


def _value(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, tuple):
        if value and all(isinstance(p, tuple) and len(p) == 2
                         and isinstance(p[0], str) for p in value):
            return {k: _value(v) for k, v in value}
        return [_value(v) for v in value]
    return value


def _chern(c):
    return {"rank": c.rank, "c1": c.c1, "c2": c.c2, "c3": c.c3}


def report_oracle(report):
    d = report.descriptor
    closed = report.reflexive_chern_closed
    return {
        "descriptor": {
            "reflexive": reflexive_tag(d.reflexive),
            "curve": curve_tag(d.curve),
            "s": d.s,
        },
        "k": report.k,
        "chern_E": _chern(report.chern_e),
        "chern_routes": {
            "resolution_oracle": _chern(report.reflexive_chern),
            "closed_form": None if closed is None else {
                "c2": closed[0],
                "c3": _value(Fraction(closed[1], 2)),
            },
        },
        "deg_L": report.deg_l,
        "chi_L": report.chi_l,
        "chi_hom_FL": report.chi_hom_fl,
        "hom_orbit_dim": report.hom_orbit_dim,
        "dim_component": report.dim_component,
        "dim_tangent": report.dim_tangent,
        "verdicts": [
            {"condition": v.condition, "status": v.status.value, "note": v.note}
            for v in report.verdicts
        ],
        "signature": {
            "curve_parts": [list(p) for p in report.signature.curve_parts],
            "isolated_points_from_W": report.signature.isolated_points_from_w,
            "reflexive_sing_c3": report.signature.reflexive_sing_c3,
        },
        "normal_bundle_h1": report.normal_bundle_h1,
        "erratum_notes": [
            {"code": n.code, "message": n.message,
             "values": {k: _value(v) for k, v in n.values}}
            for n in report.erratum_notes
        ],
    }


def atlas_oracle(opts, reports):
    return {
        "schema_version": SCHEMA_VERSION,
        "k": opts.k,
        "options": {
            "min_curve_degree": opts.min_curve_degree,
            "include_erratum_families": True,
        },
        "reports": [report_oracle(r) for r in reports],
    }


def oracle_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_oracle_text(report):
    return oracle_text({"schema_version": SCHEMA_VERSION,
                        "report": report_oracle(report)})


def descriptor(reflexive, curve, s):
    return ComponentDescriptor(parse_reflexive(reflexive), parse_curve(curve),
                               s)


def written(opts, reports, fmt):
    """An atlas already in memory, as write_atlas writes it."""
    out = io.StringIO()
    write_atlas(opts, reports, fmt, out)
    return out.getvalue()


def streamed(opts, fmt):
    """What `enumerate` writes: the walk's reports, one at a time."""
    out = io.StringIO()
    write_atlas(opts, iter_components(opts), fmt, out)
    return out.getvalue()


@pytest.mark.parametrize("floor", [1, 2, 3])
def test_atlas_json_is_the_oracle_tree(floor):
    for k in range(3, 17):
        opts = EnumerationOptions(k, floor)
        reports = tuple(iter_components(opts))
        text = oracle_text(atlas_oracle(opts, reports))
        assert written(opts, reports, "json") == text, k
        assert streamed(opts, "json") == text, k
    # k = 3 with floor 3 is the empty atlas
    opts = EnumerationOptions(3, 3)
    assert json.loads(written(opts, tuple(iter_components(opts)), "json"))[
        "reports"] == []


def table_oracle(opts, reports):
    """The table as a writer that holds every row's cells as strings: the
    rows are the CSV rows, padded to the widest cell of each column."""
    rows = list(csv.reader(io.StringIO(written(opts, reports, "csv"))))
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.append("\n%d component(s) for c2 = %d" % (len(rows) - 1, opts.k))
    kinds = Counter((tag_kind(r[1]), tag_kind(r[2])) for r in rows[1:])
    lines += ["  %s over %s: %d" % (*kind, count)
              for kind, count in sorted(kinds.items())]
    if any(r.descriptor == M3_DESCRIPTOR for r in reports):
        lines.append("previously published components of this moduli space: "
                     "%d; with the one above the total is at least %d"
                     % (PUBLISHED_M3_PRIOR_COMPONENTS,
                        PUBLISHED_M3_PRIOR_COMPONENTS + 1))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("floor", [1, 2, 3])
def test_atlas_table_is_the_held_rows_table(floor):
    for k in range(3, 17):
        opts = EnumerationOptions(k, floor)
        reports = tuple(iter_components(opts))
        text = table_oracle(opts, reports)
        assert written(opts, reports, "table") == text, k
        assert streamed(opts, "table") == text, k
        if k == 3:
            # M3 lies over a conic: floor 3 leaves the empty atlas, and
            # floors 1 and 2 list M3 and its footer
            assert (reports == ()) == (floor == 3)
            assert ("previously published" in text) == (floor < 3)


def test_the_empty_atlas_streams_its_header_only():
    opts = EnumerationOptions(3, 3)
    assert streamed(opts, "json") == json.dumps({
        "schema_version": SCHEMA_VERSION, "k": 3,
        "options": {"min_curve_degree": 3, "include_erratum_families": True},
        "reports": [],
    }, indent=2, sort_keys=True) + "\n"
    assert streamed(opts, "csv") == ",".join(CSV_HEADER) + "\n"


def test_atlas_json_dumps_only_the_header_and_the_notes(monkeypatch):
    # A run's reports share one notes tuple, written once; the M3 report
    # adds its own note to a run with none.
    dumps, calls = json.dumps, []
    monkeypatch.setattr(json, "dumps",
                        lambda *a, **kw: calls.append(a) or dumps(*a, **kw))
    for k, floor in ((12, 2), (3, 1), (10, 1)):
        opts = EnumerationOptions(k, floor)
        reports = tuple(iter_components(opts))
        calls.clear()
        written(opts, reports, "json")
        with_notes = [r for r in reports if r.erratum_notes]
        runs = {(r.descriptor.reflexive, r.descriptor.curve)
                for r in with_notes if r.descriptor != M3_DESCRIPTOR}
        m3 = sum(r.descriptor == M3_DESCRIPTOR for r in with_notes)
        assert 0 < len(runs) < len(with_notes)
        # k = 3 at floor 1 is the M3 report and one run of notes only
        assert m3 == (k == 3) == (len(with_notes) == len(reports))
        assert len(calls) == 1 + len(runs) + m3


def test_a_verdict_every_ledger_shares_is_written_once(monkeypatch):
    # surjection-exists is one object in every ledger, so its text is
    # written once per atlas, while points-bound is written per report
    opts = EnumerationOptions(12)
    reports = tuple(iter_components(opts))
    real, calls = render._str, []
    monkeypatch.setattr(render, "_str",
                        lambda text: calls.append(text) or real(text))
    written(opts, reports, "json")
    assert calls.count("open dense subset of Hom(F, Q)") == 1
    assert calls.count("surjection-exists") == 1
    assert calls.count("points-bound") == len(reports)


@pytest.mark.parametrize("reflexive, curve, s, code, closed_form, c3", [
    ("V:1", "R:2", 0, "published-m3-values", None, None),
    ("S:1,0,1", "R:3", 1, "closed-form-c3-mismatch",
     {"c2": 9, "c3": {"den": 2, "num": 77}}, "77/2"),
    ("S:0,1,2", "R:2", 0, "closed-form-c3-mismatch",
     {"c2": 7, "c3": {"den": 1, "num": 34}}, "34"),
], ids=["m3", "split-77/2", "split-34"])
def test_erratum_probe_report_json_is_the_oracle_tree(reflexive, curve, s,
                                                      code, closed_form, c3):
    report = build_report(descriptor(reflexive, curve, s))
    assert [n.code for n in report.erratum_notes] == [code]
    text = report_json(report)
    assert text == report_oracle_text(report)
    routes = json.loads(text)["report"]["chern_routes"]
    assert routes["closed_form"] == closed_form
    if c3 is not None:
        # the describe table and the note write the closed c3 the same way
        assert (" | closed form: c2=%d c3=%s\n" % (closed_form["c2"], c3)
                in report_table(report))
        assert ("closed-form c3 for %s gives %s;" % (reflexive, c3)
                in report.erratum_notes[0].message)


def test_inadmissible_best_effort_report_json_is_the_oracle_tree():
    report = assemble_report(descriptor("V:2", "R:2", 0))
    statuses = {v.condition: v.status for v in report.verdicts}
    assert statuses["degree-bound"] is ConditionStatus.FAILS
    assert report_json(report) == report_oracle_text(report)


@pytest.mark.parametrize("failed, suffix", [(12, " (and 2 more)"), (10, "")],
                         ids=["dropped", "complete"])
def test_failure_list_counts_the_dropped_labels(failed, suffix):
    labels = tuple("S/R/s=%d" % i for i in range(10))
    check = CheckResult("c2-additivity", passed=3, failed=failed,
                        failures=labels)
    summary = VerificationSummary(k=5, checks=(check,), erratum_notes=())
    lines = verification_text([summary], (check,)).splitlines()
    listed = "; ".join(labels) + suffix
    assert lines[1] == "    FAIL c2-additivity: " + listed
    assert lines[4] == "    failures: " + listed
