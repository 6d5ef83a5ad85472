"""Serialization of atlases and reports: JSON, CSV and plain tables.

Descriptors are written with the one codec in transform: the reflexive
side is "S:a,b,c" or "V:m", the curve side "R:d" or "CI:d1,d2".  The same
strings appear in CLI flags, CSV cells and JSON, so output can be fed back
into the describe command.  JSON keeps every value exact: all
integers are JSON numbers, and the closed-form c3, which may be
half-integral, is written as a {"num": ..., "den": ...} object from the
integer 2*c3, as is the closed_form value of its erratum note.

Schema-1 JSON is written from one fixed per-report template whose keys are
spelled out in sorted order.  Its bytes are those json.dumps(indent=2,
sort_keys=True) gives for the same tree, without building the tree: only
erratum notes, whose values vary in shape, go through json.dumps, once for
each run of reports that share one notes tuple, as does the atlas header,
once.

Each writer formats a run's tags and notes once per run, and JSON its
closed form and curve parts too.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii as _str

from .atlas import EnumerationOptions, VerificationSummary
from .families import halved
from .transform import (
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


# One report as json.dumps(indent=2, sort_keys=True) lays it out, with its
# opening brace at column 0.  The %s slots take strings, "null" or blocks
# that _report_writer builds already indented.
_REPORT = """{
  "chern_E": {
    "c1": %d,
    "c2": %d,
    "c3": %d,
    "rank": %d
  },
  "chern_routes": {
    "closed_form": %s,
    "resolution_oracle": {
      "c1": %d,
      "c2": %d,
      "c3": %d,
      "rank": %d
    }
  },
  "chi_L": %d,
  "chi_hom_FL": %d,
  "deg_L": %d,
  "descriptor": {
    "curve": %s,
    "reflexive": %s,
    "s": %d
  },
  "dim_component": %d,
  "dim_tangent": %d,
  "erratum_notes": %s,
  "hom_orbit_dim": %d,
  "k": %d,
  "normal_bundle_h1": %d,
  "signature": {
    "curve_parts": %s,
    "isolated_points_from_W": %d,
    "reflexive_sing_c3": %d
  },
  "verdicts": %s
}"""
_CLOSED_FORM = """{
      "c2": %d,
      "c3": {
        "den": %d,
        "num": %d
      }
    }"""
_CURVE_PART = """
      [
        %d,
        %d
      ]"""
_VERDICT = """
    {
      "condition": %s,
      "note": %s,
      "status": %s
    }"""


def _list(items: list, close: str) -> str:
    """A JSON array of written items, each of which starts a new line."""
    return "[" + ",".join(items) + close if items else "[]"


def _last_text(text):
    """A function x -> text(x) that keeps the text of the last x it was
    given and returns it, without calling text, when given that very object
    again.  It holds x itself, so `is` never matches a freed object whose id
    was reused."""
    held, kept = object(), None

    def memo(x):
        nonlocal held, kept
        if x is not held:
            held, kept = x, text(x)
        return kept
    return memo


def _ledger_text(text):
    """A function verdicts -> [text(v) for v in verdicts] with a _last_text
    for each ledger position: check_conditions shares the verdicts a family
    kind fixes between all its ledgers, so only the others are written
    again."""
    slots = []

    def texts(verdicts):
        while len(slots) < len(verdicts):
            slots.append(_last_text(text))
        return [slot(v) for slot, v in zip(slots, verdicts)]
    return texts


def _report_writer(pad: str):
    """A function that writes one report from the _REPORT template, every
    line after the first indented by pad.  A run's reports share one notes
    tuple, so its notes go through json.dumps once per run."""
    nl = "\n" + pad
    report, closed_form, curve_part, verdict = (
        t.replace("\n", nl)
        for t in (_REPORT, _CLOSED_FORM, _CURVE_PART, _VERDICT))

    def notes_text(notes) -> str:
        if not notes:
            return "[]"
        return json.dumps([_note_dict(n) for n in notes], indent=2,
                          sort_keys=True).replace("\n", nl + "  ")
    notes = _last_text(notes_text)
    verdicts = _ledger_text(lambda v: verdict % (
        _str(v.condition), _str(v.note), _str(v.status.value)))
    closed_text = _last_text(lambda c: "null" if c is None else
                             closed_form % ((c[0],) + halved(c[1])[1:]))
    curve = _last_text(lambda c: _str(curve_tag(c)))
    reflexive = _last_text(lambda f: _str(reflexive_tag(f)))
    curve_parts = _last_text(lambda parts: _list(
        [curve_part % p for p in parts], nl + "    ]"))

    def write(r: ComponentReport) -> str:
        d, e, o, sig = r.descriptor, r.chern_e, r.reflexive_chern, r.signature
        return report % (
            e.c1, e.c2, e.c3, e.rank, closed_text(r.reflexive_chern_closed),
            o.c1, o.c2, o.c3, o.rank,
            r.chi_l, r.chi_hom_fl, r.deg_l,
            curve(d.curve), reflexive(d.reflexive), d.s,
            r.dim_component, r.dim_tangent, notes(r.erratum_notes),
            r.hom_orbit_dim, r.k, r.normal_bundle_h1,
            curve_parts(sig.curve_parts),
            sig.isolated_points_from_w, sig.reflexive_sing_c3,
            _list(verdicts(r.verdicts), nl + "  ]"),
        )
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
    header = json.dumps({
        "schema_version": SCHEMA_VERSION,
        "k": options.k,
        "options": {
            "min_curve_degree": options.min_curve_degree,
            # Flagged families are always listed; schema 1 keeps the key.
            "include_erratum_families": True,
        },
        "reports": [],
    }, indent=2, sort_keys=True)
    before, close, after = header.partition('"reports": []')
    write = _report_writer("    ")
    out.write(before)
    sep = '"reports": [\n    '
    for r in reports:
        out.write(sep + write(r))
        sep, close = ",\n    ", "\n  ]"
    out.write(close + after + "\n")


def report_json(report: ComponentReport) -> str:
    return '{\n  "report": %s,\n  "schema_version": %s\n}\n' % (
        _report_writer("  ")(report), _str(SCHEMA_VERSION))


def _csv_row_writer():
    """A function that gives one report's CSV cells, in CSV_HEADER order."""
    conditions = _ledger_text(
        lambda v: "%s=%s" % (v.condition, v.status.value))
    notes = _last_text(lambda notes: "; ".join(n.message for n in notes))
    reflexive, curve = _last_text(reflexive_tag), _last_text(curve_tag)

    def row(report: ComponentReport) -> list:
        d = report.descriptor
        return [
            report.k,
            reflexive(d.reflexive),
            curve(d.curve),
            d.s,
            report.deg_l,
            report.chi_l,
            report.chi_hom_fl,
            report.dim_component,
            report.dim_tangent,
            "|".join(conditions(report.verdicts)),
            notes(report.erratum_notes),
        ]
    return row


def _write_csv(reports, out) -> None:
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
    return "  %-24s %-18s %s" % (v.condition, v.status.value, v.note)


def report_table(report: ComponentReport) -> str:
    """Key/value detail view for a single descriptor."""
    d = report.descriptor
    closed = report.reflexive_chern_closed
    oracle = report.reflexive_chern
    lines = [
        "descriptor      %s  %s  s=%d" % (
            reflexive_tag(d.reflexive), curve_tag(d.curve), d.s),
        "k               %d" % report.k,
        "chern(E)        rank=%d c1=%d c2=%d c3=%d" % (
            report.chern_e.rank, report.chern_e.c1,
            report.chern_e.c2, report.chern_e.c3),
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
        "signature       curve=%s points=%d reflexive_c3=%d" % (
            list(report.signature.curve_parts),
            report.signature.isolated_points_from_w,
            report.signature.reflexive_sing_c3),
        "h1(N_C)         %d" % report.normal_bundle_h1,
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
