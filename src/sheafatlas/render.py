"""Serialization of atlases and reports: JSON, CSV and plain tables.

Descriptors are written with the one codec in transform: the reflexive
side is "S:a,b,c" or "V:m", the curve side "R:d" or "CI:d1,d2".  The same
strings appear in CLI flags, CSV cells and JSON, so output can be fed back
into the describe command.  JSON keeps every value exact: all
integers are JSON numbers, and the closed-form c3, which may be
half-integral, is written as a {"num": ..., "den": ...} object from the
integer 2*c3, as is the closed_form value of its erratum note.

Schema-1 JSON takes its layout from json.dumps(indent=2, sort_keys=True)
alone.  A report, its closed form and a verdict are trees whose leaves are
% slots; each JSON writer lays them out once with _layout, which unquotes
the slots, as it does the atlas header or report_json's wrapper.  Each
report's bytes are then the template with its slots filled, as json.dumps
would give for the report's own tree, without building that tree.  Erratum
notes, whose values vary in shape, go through json.dumps themselves, once
per change of value from one report to the next.

Each writer formats a run's text once per run, when a report's run is not
the one before it: JSON fills the run's slots then, which leaves a template
with the slots that vary with s.  JSON notes are kept in an lru_cache of
size 1.  Verdict texts share one lru_cache that holds two whole ledgers, so
a verdict that every ledger shares is written once per atlas.  json and csv
are imported by the writers that use them.
"""

from __future__ import annotations

import io
from collections import Counter
from collections.abc import Iterable
from functools import lru_cache

from .families import halved
from .transform import (
    CONDITION_IDS,
    M3_DESCRIPTOR,
    PUBLISHED_M3_PRIOR_COMPONENTS,
    ComponentReport,
    ConditionVerdict,
    ErratumNote,
    curve_tag,
    dedup_notes,
    reflexive_tag,
    tag_kind,
)

SCHEMA_VERSION = "1"

CSV_HEADER = (
    "k", "reflexive", "curve", "s", "degL", "chiL", "chiHomFL",
    "dim", "tangentDim", "conditions", "notes",
)


def _json_value(value):
    """A note value as JSON: a plain tuple is a list, or an object when it
    is a non-empty tuple of (str, value) pairs, as note.values is."""
    if type(value) is tuple:
        if value and all(type(p) is tuple and len(p) == 2
                         and type(p[0]) is str for p in value):
            return {k: _json_value(v) for k, v in value}
        return [_json_value(v) for v in value]
    if isinstance(value, tuple):
        # json.dumps would write a value type as a bare list
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(value).__name__)
    return value


def _note_dict(note: ErratumNote) -> dict:
    return {
        "code": note.code,
        "message": note.message,
        "values": {k: _json_value(v) for k, v in note.values},
    }


# One report as a tree whose leaves are % slots, for _layout.  The run
# fills the % slots, which leaves the %% slots as % slots for what varies
# with s.  The %s slots take strings, "null" or blocks that _report_writer
# lays out already indented.  Slots are filled in sorted key order.
_CHERN = {"c1": 0, "c2": "%d", "c3": "%d", "rank": 2}
_REPORT = {
    "chern_E": _CHERN,
    "chern_routes": {"closed_form": "%s", "resolution_oracle": _CHERN},
    "chi_L": "%%d", "chi_hom_FL": "%%d", "deg_L": "%%d",
    "descriptor": {"curve": "%s", "reflexive": "%s", "s": "%%d"},
    "dim_component": "%%d", "dim_tangent": "%%d", "erratum_notes": "%%s",
    "hom_orbit_dim": "%%d", "k": "%d", "normal_bundle_h1": "%d",
    "signature": {"curve_parts": [["%d", "%d"]],
                  "isolated_points_from_W": "%%d", "reflexive_sing_c3": "%d"},
    "verdicts": "%%s",
}
_CLOSED_FORM = {"c2": "%d", "c3": {"den": "%d", "num": "%d"}}
_VERDICT = {"condition": "%s", "note": "%s", "status": "%s"}


def _layout(tree, pad: str) -> str:
    """tree as json.dumps(indent=2, sort_keys=True) lays it out, with each
    slot leaf ("%d", "%s", "%%d" or "%%s") unquoted and every line after
    the first indented by pad.  A string equal to a slot is always taken
    for one, so notes, whose strings are data, do not go through here."""
    import json
    text = json.dumps(tree, indent=2, sort_keys=True)
    for slot in ("%d", "%s", "%%d", "%%s"):
        text = text.replace('"%s"' % slot, slot)
    return text.replace("\n", "\n" + pad)


def _list(items: list, close: str) -> str:
    """A JSON array of written items, each of which starts a new line."""
    return "[" + ",".join(items) + close if items else "[]"


def _report_writer(pad: str):
    """A function that writes one report from the _REPORT tree, every
    line after the first indented by pad.  A new run fills the run's slots
    once; each report then fills the slots that vary with s."""
    from json.encoder import encode_basestring_ascii as _str
    nl = "\n" + pad
    report = _layout(_REPORT, pad)
    closed_form = _layout(_CLOSED_FORM, pad + "    ")
    verdict = nl + "    " + _layout(_VERDICT, pad + "    ")

    @lru_cache(maxsize=1)
    def notes_text(notes) -> str:
        if not notes:
            return "[]"
        import json
        return json.dumps([_note_dict(n) for n in notes], indent=2,
                          sort_keys=True).replace("\n", nl + "  ")
    verdict_text = lru_cache(maxsize=2 * len(CONDITION_IDS))(
        lambda v: verdict % (
            _str(v.condition), _str(v.note), _str(v.status)))
    run = template = run_notes = None

    def write(r: ComponentReport) -> str:
        nonlocal run, template, run_notes
        if r.run is not run:
            run, e, o, c = r.run, r.run.chern_e, r.run.chern_r, r.run.closed
            # tags, ints and blocks of ints: the run's values hold no %
            template = report % (
                e.c2, e.c3, "null" if c is None else
                closed_form % ((c[0],) + halved(c[1])[1:]), o.c2, o.c3,
                _str(curve_tag(run.curve)), _str(reflexive_tag(run.reflexive)),
                e.c2, run.normal_h1, run.curve.degree, run.genus, o.c3)
            run_notes = notes_text(run.notes)
        s, notes = r.descriptor.s, r.erratum_notes
        return template % (
            r.chi_l, r.chi_hom_fl, r.deg_l, s, r.dim_component, r.dim_tangent,
            run_notes if notes is run.notes else notes_text(notes),
            r.hom_orbit_dim, s,
            _list([*map(verdict_text, r.verdicts)], nl + "  ]"))
    return write


def write_atlas(options: EnumerationOptions,
                reports: Iterable[ComponentReport], fmt: str, out) -> None:
    """Write the atlas of `options` in `fmt` ("json", "csv" or "table") to
    the text stream `out`, as `reports` yields its reports in canonical
    order.  JSON and CSV write each report as it arrives and keep none.  The
    table needs its column widths before its first line, so until the walk
    ends it keeps each column's distinct cells once and a 4-byte index per
    cell, never the reports or their rows."""
    if fmt == "json":
        _write_json(options, reports, out)
    elif fmt == "csv":
        _write_csv(reports, out)
    elif fmt == "table":
        _write_table(options.k, reports, out)
    else:
        raise ValueError("unknown format %r" % (fmt,))


def _write_json(options: EnumerationOptions, reports, out) -> None:
    before, _, after = _layout({
        "schema_version": SCHEMA_VERSION,
        "k": options.k,
        "options": {
            "min_curve_degree": options.min_curve_degree,
            # Flagged families are always listed; schema 1 keeps the key.
            "include_erratum_families": True,
        },
        "reports": "%s",
    }, "").partition("%s")
    write = _report_writer("    ")
    out.write(before)
    sep, close = "[\n    ", "[]"
    for r in reports:
        out.write(sep + write(r))
        sep, close = ",\n    ", "\n  ]"
    out.write(close + after + "\n")


def report_json(report: ComponentReport) -> str:
    return _layout({"report": "%s", "schema_version": SCHEMA_VERSION},
                   "") % _report_writer("  ")(report) + "\n"


def _csv_row_writer():
    """A function that gives one report's CSV cells, in CSV_HEADER order.
    A new run builds the run's cells and notes text once."""
    condition = lru_cache(maxsize=2 * len(CONDITION_IDS))(
        lambda v: "%s=%s" % (v.condition, v.status))
    run = cells = run_notes = None

    def notes_text(notes) -> str:
        return "; ".join(n.message for n in notes)

    def row(r: ComponentReport) -> list:
        nonlocal run, cells, run_notes
        if r.run is not run:
            run = r.run
            cells = [run.chern_e.c2, reflexive_tag(run.reflexive),
                     curve_tag(run.curve)]
            run_notes = notes_text(run.notes)
        notes = r.erratum_notes
        return cells + [
            r.descriptor.s, r.deg_l, r.chi_l, r.chi_hom_fl, r.dim_component,
            r.dim_tangent, "|".join(map(condition, r.verdicts)),
            run_notes if notes is run.notes else notes_text(notes)]
    return row


def _write_csv(reports, out) -> None:
    import csv
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(map(_csv_row_writer(), reports))


def report_csv(report: ComponentReport) -> str:
    out = io.StringIO()
    _write_csv((report,), out)
    return out.getvalue()


def _write_table(k: int, reports, out) -> None:
    """Each column maps its distinct cells to indices in first-seen order,
    and the rows are one array of indices.  Once the walk ends, each
    distinct cell is padded to its column's width once."""
    from array import array
    columns = [{h: 0} for h in CSV_HEADER]  # row 0 is the header
    n, listed_m3, cells = len(columns), False, _csv_row_writer()
    rows = array("I", [0] * n)
    for r in reports:
        # map takes len(column) just before it calls setdefault on it
        rows.extend(map(dict.setdefault, columns, cells(r), map(len, columns)))
        listed_m3 = listed_m3 or r.descriptor == M3_DESCRIPTOR
    padded = []
    for column in columns:
        texts = [str(c) for c in column]
        width = max(map(len, texts))
        padded.append([t.ljust(width) for t in texts])
    for row in zip(*[iter(rows)] * n):
        out.write("  ".join(map(list.__getitem__, padded, row)).rstrip()
                  + "\n")
    out.write("\n%d component(s) for c2 = %d\n" % (len(rows) // n - 1, k))
    # the tally by (reflexive kind, curve kind), read off the tag cells
    fams, curves, kinds = list(columns[1]), list(columns[2]), Counter()
    for (fam, curve), count in Counter(
            zip(rows[n + 1::n], rows[n + 2::n])).items():
        kinds[tag_kind(fams[fam]), tag_kind(curves[curve])] += count
    for (fam_kind, curve_kind), count in sorted(kinds.items()):
        out.write("  %s over %s: %d\n" % (fam_kind, curve_kind, count))
    if listed_m3:
        out.write(
            "previously published components of this moduli space: %d; "
            "with the one above the total is at least %d\n"
            % (PUBLISHED_M3_PRIOR_COMPONENTS, PUBLISHED_M3_PRIOR_COMPONENTS + 1)
        )


def verdict_line(v: ConditionVerdict) -> str:
    """One line of the admissibility ledger, as describe prints it."""
    return "  %-24s %-18s %s" % (v.condition, v.status, v.note)


def report_table(report: ComponentReport) -> str:
    """Key/value detail view for a single descriptor."""
    d, run = report.descriptor, report.run
    closed, oracle = run.closed, run.chern_r
    lines = [
        "descriptor      %s  %s  s=%d" % (
            reflexive_tag(d.reflexive), curve_tag(d.curve), d.s),
        "k               %d" % run.chern_e.c2,
        "chern(E)        rank=2 c1=0 c2=%d c3=%d" % run.chern_e,
        "chern(R)        resolution oracle: c2=%d c3=%d%s" % (
            oracle.c2, oracle.c3,
            "" if closed is None else
            " | closed form: c2=%d c3=%s" % (closed[0], halved(closed[1])[0])),
        "deg(L)          %d" % report.deg_l,
        "chi(L)          %d" % report.chi_l,
        "chi Hom(F,L)    %d" % report.chi_hom_fl,
        "orbit dim       %d" % report.hom_orbit_dim,
        "dim component   %d" % report.dim_component,
        "dim tangent     %d" % report.dim_tangent,
        "signature       curve=[(%d, %d)] points=%d reflexive_c3=%d" % (
            d.curve.degree, run.genus, d.s, oracle.c3),
        "h1(N_C)         %d" % run.normal_h1,
        "conditions:",
    ]
    lines += [verdict_line(v) for v in report.verdicts]
    if report.erratum_notes:
        lines.append("notes:")
        for note in report.erratum_notes:
            lines.append("  - [%s] %s" % (note.code, note.message))
    return "\n".join(lines) + "\n"


def _failure_list(check) -> str:
    """The kept failing labels, with a count of those that were dropped."""
    text = "; ".join(check.failures)
    dropped = check.failed - len(check.failures)
    return text + (" (and %d more)" % dropped if dropped > 0 else "")


def verification_text(summaries: list[VerificationSummary],
                      module_checks) -> str:
    """Human-readable verification transcript."""
    lines = []
    for summary in summaries:
        status = "PASS" if summary.ok else "FAIL"
        total_passed = sum(c.passed for c in summary.checks)
        total_failed = sum(c.failed for c in summary.checks)
        lines.append("c2=%-3d %s  (%d checks passed, %d failed, %d note(s))"
                     % (summary.k, status, total_passed, total_failed,
                        len(summary.erratum_notes)))
        for check in summary.checks:
            if check.failed:
                lines.append("    FAIL %s: %s" % (check.name,
                                                 _failure_list(check)))
    lines.append("module invariant suites:")
    for check in module_checks:
        status = "PASS" if check.failed == 0 else "FAIL"
        lines.append("  %-32s %s (%d cases)" % (check.name, status,
                                                check.passed + check.failed))
        if check.failed:
            lines.append("    failures: %s" % _failure_list(check))
    all_notes = dedup_notes(n for s in summaries for n in s.erratum_notes)
    if all_notes:
        lines.append("discrepancies vs published closed forms and values:")
        for note in all_notes:
            lines.append("  - [%s] %s" % (note.code, note.message))
    else:
        lines.append("no discrepancies vs published values")
    return "\n".join(lines) + "\n"
