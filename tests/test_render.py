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
from itertools import groupby, zip_longest

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
    report_csv,
    report_json,
    report_table,
    verification_text,
    write_atlas,
)
from sheafatlas.transform import (
    FAILS,
    M3_DESCRIPTOR,
    PUBLISHED_M3_PRIOR_COMPONENTS,
    ComponentDescriptor,
    ErratumNote,
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
    return {"rank": 2, "c1": 0, "c2": c.c2, "c3": c.c3}


def report_oracle(report):
    d, run = report.descriptor, report.run
    closed = run.closed
    return {
        "descriptor": {
            "reflexive": reflexive_tag(d.reflexive),
            "curve": curve_tag(d.curve),
            "s": d.s,
        },
        "k": run.chern_e.c2,
        "chern_E": _chern(run.chern_e),
        "chern_routes": {
            "resolution_oracle": _chern(run.chern_r),
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
            {"condition": v.condition, "status": v.status, "note": v.note}
            for v in report.verdicts
        ],
        "signature": {
            "curve_parts": [[d.curve.degree, run.genus]],
            "isolated_points_from_W": d.s,
            "reflexive_sing_c3": run.chern_r.c3,
        },
        "normal_bundle_h1": run.normal_h1,
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


def test_an_unknown_format_raises_and_writes_nothing():
    opts, out = EnumerationOptions(3), io.StringIO()
    reports = iter_components(opts)
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        write_atlas(opts, reports, "xml", out)
    assert out.getvalue() == ""
    # nor does it start the walk
    assert next(reports) == next(iter_components(opts))


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
    # Notes go through json.dumps once per change of value: a run's reports
    # share them, and so do consecutive runs of one family whose notes are
    # equal; the M3 report adds its own note to a run with none.  Besides
    # them, the writer lays out the header and its report, closed-form and
    # verdict trees once each, however many reports it writes.
    dumps, calls, sizes = json.dumps, [], set()
    monkeypatch.setattr(json, "dumps",
                        lambda *a, **kw: calls.append(a) or dumps(*a, **kw))
    for k, floor, count in ((12, 2, 6), (3, 1, 6), (10, 1, 6)):
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
        notes = [()] + [r.erratum_notes for r in reports]
        changes = sum(1 for a, b in zip(notes, notes[1:]) if b and b != a)
        assert len(calls) == 1 + 3 + changes == count
        sizes.add(len(reports))
    assert len(sizes) == 3


def test_a_verdict_every_ledger_shares_is_written_once(monkeypatch):
    # surjection-exists is the same verdict in every ledger, so its text is
    # written once per atlas, while points-bound is written per report
    opts = EnumerationOptions(12)
    reports = tuple(iter_components(opts))
    real, calls = json.encoder.encode_basestring_ascii, []
    monkeypatch.setattr(json.encoder, "encode_basestring_ascii",
                        lambda text: calls.append(text) or real(text))
    written(opts, reports, "json")
    assert calls.count("open dense subset of Hom(F, Q)") == 1
    assert calls.count("surjection-exists") == 1
    assert calls.count("points-bound") == len(reports)


def test_atlas_json_tags_a_curve_once_per_run(monkeypatch):
    # The JSON writer fills a run's slots, the curve tag among them, once
    # per run; a writer that filled every slot per report would tag each.
    opts = EnumerationOptions(22)
    reports = tuple(iter_components(opts))
    calls = []
    monkeypatch.setattr(render, "curve_tag",
                        lambda curve: calls.append(curve) or curve_tag(curve))
    written(opts, reports, "json")
    runs = sum(1 for _ in groupby(reports, lambda r: r.run))
    assert (len(calls), runs, len(reports)) == (69, 69, 1344)


def rows_one_at_a_time(reports):
    """The CSV of reports written one at a time, under one header."""
    return ",".join(CSV_HEADER) + "\n" + "".join(
        report_csv(r).partition("\n")[2] for r in reports)


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_memos_keyed_by_value_never_change_bytes(fmt):
    # The JSON writer fills a run's slots once per run, by identity, and
    # memoizes the notes and the verdicts by value; a CSV row is a function
    # of its report alone.  Each report built on its own: equal values, but
    # no run, notes tuple or ledger shared with its neighbours, so the
    # value-keyed memos see equal values in new objects.
    for floor, top in ((2, 16), (1, 6)):
        for k in range(3, top + 1):
            opts = EnumerationOptions(k, floor)
            reports = tuple(iter_components(opts))
            rebuilt = tuple(build_report(r.descriptor, min_curve_degree=floor)
                            for r in reports)
            assert rebuilt == reports
            assert written(opts, rebuilt, fmt) == written(opts, reports, fmt)
    # The identity misses: the runs' members interleaved round-robin, so a
    # run comes back after others; and one report mid-run whose notes are
    # its run's plus one, whose notes text must not be its run's.
    opts = EnumerationOptions(12)
    reports = tuple(iter_components(opts))
    runs = [list(run) for _, run in groupby(reports, lambda r: r.run)]
    reordered = [r for members in zip_longest(*runs) for r in members
                 if r is not None]
    assert len(reordered) == len(reports)
    # more changes of run than runs: some run comes back
    assert sum(a.run is not b.run
               for a, b in zip(reordered, reordered[1:])) > len(runs)
    i, r = next((i, r) for i, r in enumerate(reports) if r.run.notes
                and 0 < r.descriptor.s and reports[i + 1].run is r.run)
    noted = r._replace(erratum_notes=r.run.notes + (ErratumNote(
        "extra-note", "one more note", (("s", r.descriptor.s),)),))
    assert report_json(noted) == report_oracle_text(noted)
    with_noted = reports[:i] + (noted,) + reports[i + 1:]
    for held in (reordered, with_noted):
        if fmt == "json":
            expected = oracle_text(atlas_oracle(opts, held))
        elif fmt == "csv":
            expected = rows_one_at_a_time(held)
        else:
            expected = table_oracle(opts, held)
        assert written(opts, held, fmt) == expected
    # the CSV and table oracles write rows with the CSV writer, so the noted
    # row's notes cell is checked against its notes here
    rows = list(csv.reader(io.StringIO(written(opts, with_noted, "csv"))))
    assert rows[i + 1][-1] == "; ".join(n.message for n in noted.erratum_notes)


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
    assert statuses["degree-bound"] == FAILS
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
