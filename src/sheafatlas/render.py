"""Serialization of atlases and reports: JSON, CSV and plain tables.

Descriptors are written with the one codec in transform: the reflexive
side is "S:a,b,c" or "V:m", the curve side "R:d" or "CI:d1,d2".  The same
strings appear in CLI flags, CSV cells and JSON, so output can be fed back
into the describe command.  JSON keeps every value exact: all
integers are JSON numbers and the only rationals (inside erratum notes)
are emitted as {"num": ..., "den": ...} objects.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .atlas import Atlas, VerificationSummary, PUBLISHED_M3_PRIOR_COMPONENTS
from .transform import (
    M3_DESCRIPTOR,
    ComponentReport,
    ConditionVerdict,
    ErratumNote,
    curve_tag,
    dedup_notes,
    reflexive_tag,
)

SCHEMA_VERSION = "1"

CSV_HEADER = (
    "k", "reflexive", "curve", "s", "degL", "chiL", "chiHomFL",
    "dim", "tangentDim", "conditions", "notes",
)


def _json_value(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


def _note_dict(note: ErratumNote) -> dict:
    return {
        "code": note.code,
        "message": note.message,
        "values": {k: _json_value(v) for k, v in note.values},
    }


def _chern_dict(c) -> dict:
    return {"rank": c.rank, "c1": c.c1, "c2": c.c2, "c3": c.c3}


def report_to_dict(report: ComponentReport) -> dict:
    d = report.descriptor
    closed = report.reflexive_chern_closed
    return {
        "descriptor": {
            "reflexive": reflexive_tag(d.reflexive),
            "curve": curve_tag(d.curve),
            "s": d.s,
        },
        "k": report.k,
        "chern_E": _chern_dict(report.chern_e),
        "chern_routes": {
            "resolution_oracle": _chern_dict(report.reflexive_chern),
            "closed_form": None if closed is None else {
                "c2": closed[0],
                "c3": _json_value(closed[1]),
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
        "erratum_notes": [_note_dict(n) for n in report.erratum_notes],
    }


def atlas_to_dict(atlas: Atlas) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "k": atlas.k,
        "options": {
            "min_curve_degree": atlas.options.min_curve_degree,
            # Flagged families are always listed; schema 1 keeps the key.
            "include_erratum_families": True,
        },
        "reports": [report_to_dict(r) for r in atlas.reports],
    }


def to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def atlas_json(atlas: Atlas) -> str:
    return to_json(atlas_to_dict(atlas))


def report_json(report: ComponentReport) -> str:
    return to_json({"schema_version": SCHEMA_VERSION,
                    "report": report_to_dict(report)})


def _csv_row(report: ComponentReport) -> list:
    d = report.descriptor
    return [
        report.k,
        reflexive_tag(d.reflexive),
        curve_tag(d.curve),
        d.s,
        report.deg_l,
        report.chi_l,
        report.chi_hom_fl,
        report.dim_component,
        report.dim_tangent,
        "|".join("%s=%s" % (v.condition, v.status.value)
                 for v in report.verdicts),
        "; ".join(n.message for n in report.erratum_notes),
    ]


def _csv_text(rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    return buffer.getvalue()


def atlas_csv(atlas: Atlas) -> str:
    return _csv_text([_csv_row(r) for r in atlas.reports])


def report_csv(report: ComponentReport) -> str:
    return _csv_text([_csv_row(report)])


def _table(rows: list[list[str]]) -> str:
    header = list(CSV_HEADER)
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(line.rstrip() for line in lines) + "\n"


def atlas_table(atlas: Atlas) -> str:
    rows = [[str(c) for c in _csv_row(r)] for r in atlas.reports]
    text = _table(rows)
    text += "\n%d component(s) for c2 = %d\n" % (len(atlas.reports), atlas.k)
    for (fam_tag, curve_kind), count in atlas.summary:
        text += "  %s over %s: %d\n" % (fam_tag, curve_kind, count)
    if any(r.descriptor == M3_DESCRIPTOR for r in atlas.reports):
        text += (
            "previously published components of this moduli space: %d; "
            "with the one above the total is at least %d\n"
            % (PUBLISHED_M3_PRIOR_COMPONENTS, PUBLISHED_M3_PRIOR_COMPONENTS + 1)
        )
    return text


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
            " | closed form: c2=%d c3=%s" % (closed[0], closed[1])),
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
