"""Output checks behind `failed_frac` and the `golden_drift` count.

A command *fails* when its exit code differs from the one recorded in
`golden.json`, or when its output breaks an invariant that every correct
version keeps:

* JSON parses and re-serialises (2-space indent, sorted keys) to the same
  bytes;
* every report has chern_E = (2, 0, k, 0) and dim_component == dim_tangent;
* CSV, JSON and table output agree on the report count for the same k;
* the two flagged errata are present wherever they apply: the closed-form
  c3 of S:1,0,1 (77/2 against the resolution route's 40) and the c2 = 3
  dimension (published 21, computed 22);
* output recorded as non-empty is not missing;
* nothing is printed as a traceback.

A command *drifts* when the SHA-256 of its output differs from the digest
recorded in `golden.json`.  Drift is counted, not failed, so that a change
that alters output on purpose is not scored as failing operations.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DESCRIBE_PAIRS, DESCRIBE_POINTS, FORMATS, Command

GOLDEN_PATH = Path(__file__).with_name("golden.json")
DIGEST_HEX = 16  # leading hex digits of SHA-256 kept per command

S101_NOTE = "closed-form c3 for S:1,0,1 gives 77/2; the resolution route gives 40"
M3_NOTE = "published dimension 21 for this component differs from the computed 22"
S101_MIN_K = 11  # c2(S:1,0,1) = 9 plus the smallest curve degree 2
CSV_HEADER = ["k", "reflexive", "curve", "s", "degL", "chiL", "chiHomFL",
              "dim", "tangentDim", "conditions", "notes"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:DIGEST_HEX]


EMPTY_DIGEST = digest(b"")


class Golden:
    """Exit codes, output digests and report counts recorded at one commit."""

    def __init__(self, data: dict):
        self.data = data

    @classmethod
    def load(cls, path: Path = GOLDEN_PATH) -> "Golden":
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    def entry(self, cmd: Command) -> tuple[int, str]:
        if cmd.kind == "describe":
            refl, curve, s = cmd.params
            row = self.data["describe"]["%s %s" % (refl, curve)].split(",")
            value = row[s * len(FORMATS) + FORMATS.index(cmd.fmt)]
        else:
            value = self.data[cmd.kind][cmd.key]
        code, _, dig = value.partition(":")
        return int(code), dig

    def describe_outcomes(self) -> dict[tuple, str]:
        """Recorded outcome of every describe descriptor in the box."""
        names = {0: "ok", 2: "malformed", 3: "inadmissible"}
        out = {}
        for r, c in DESCRIBE_PAIRS:
            for s in DESCRIBE_POINTS:
                code, dig = self.entry(Command("describe", (r, c, s), FORMATS[0]))
                name = names[code]
                if code == 3 and dig == EMPTY_DIGEST:
                    name = "inadmissible-silent"
                out[(r, c, s)] = name
        return out

    def atlas_reports(self, k: int) -> int:
        return self.data["atlas_reports"][str(k)]


@dataclass
class Outcome:
    ok: bool
    drift: bool
    reports: int
    problems: list[str] = field(default_factory=list)


class Checker:
    """Checks command outputs; remembers report counts per k across calls."""

    def __init__(self, golden: Golden):
        self.golden = golden
        self.counts: dict[int, dict[str, int]] = {}

    def check(self, cmd: Command, code: int, out: bytes, err: bytes) -> Outcome:
        problems = []
        want_code, want_digest = self.golden.entry(cmd)
        if code != want_code:
            problems.append("exit code %d, recorded %d" % (code, want_code))
        if b"Traceback" in err or b"Traceback" in out:
            problems.append("traceback printed")
        reports = 0
        # Output recorded as non-empty is checked whatever the exit code, and
        # must not go missing: a command that prints nothing passes no
        # invariant.
        if want_digest != EMPTY_DIGEST and not out:
            problems.append("no output")
        elif want_digest != EMPTY_DIGEST:
            try:
                reports = self._check_text(cmd, out.decode("utf-8"), problems)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append("unparsable output: %r" % exc)
        if cmd.kind == "verify":
            # verify emits no reports; it certifies every atlas k <= K.
            reports = sum(self.golden.atlas_reports(k)
                          for k in range(3, cmd.params[0] + 1))
        return Outcome(not problems, digest(out) != want_digest, reports,
                       problems)

    def _check_text(self, cmd: Command, text: str, problems: list) -> int:
        if cmd.kind == "verify":
            self._check_verify(cmd.params[0], text, problems)
            return 0
        if cmd.fmt == "json":
            rows = self._json_rows(text, problems)
        elif cmd.fmt == "csv":
            rows = self._csv_rows(text)
        else:
            rows = self._table_rows(cmd, text, problems)
        for row in rows:
            if row["chern"] != (2, 0, row["k"], 0):
                problems.append("chern_E %s at k=%d" % (row["chern"], row["k"]))
            if row["dim"] != row["tangent"]:
                problems.append("dim %d != tangent %d" % (row["dim"], row["tangent"]))
            if row["reflexive"] == "S:1,0,1" and S101_NOTE not in row["notes"]:
                problems.append("S:1,0,1 erratum missing")
            if row["descriptor"] == ("V:1", "R:2", 0) and M3_NOTE not in row["notes"]:
                problems.append("c2=3 dimension erratum missing")
        if cmd.kind == "enumerate":
            k = cmd.params[0]
            if any(row["k"] != k for row in rows):
                problems.append("report with k != %d" % k)
            if k >= S101_MIN_K and not any(r["reflexive"] == "S:1,0,1" for r in rows):
                problems.append("no S:1,0,1 report at k=%d" % k)
            seen = self.counts.setdefault(k, {})
            for fmt, n in seen.items():
                if n != len(rows):
                    problems.append("k=%d: %d reports in %s, %d in %s"
                                    % (k, len(rows), cmd.fmt, n, fmt))
            seen[cmd.fmt] = len(rows)
        elif len(rows) != 1:
            problems.append("describe printed %d reports" % len(rows))
        return len(rows)

    @staticmethod
    def _json_rows(text: str, problems: list) -> list[dict]:
        payload = json.loads(text)
        if json.dumps(payload, indent=2, sort_keys=True) + "\n" != text:
            problems.append("JSON does not re-serialise to the same bytes")
        reports = payload["reports"] if "reports" in payload else [payload["report"]]
        rows = []
        for r in reports:
            c = r["chern_E"]
            d = r["descriptor"]
            rows.append({
                "k": r["k"],
                "chern": (c["rank"], c["c1"], c["c2"], c["c3"]),
                "dim": r["dim_component"],
                "tangent": r["dim_tangent"],
                "reflexive": d["reflexive"],
                "descriptor": (d["reflexive"], d["curve"], d["s"]),
                "notes": " ".join(n["message"] for n in r["erratum_notes"]),
            })
        return rows

    @staticmethod
    def _csv_rows(text: str) -> list[dict]:
        lines = list(csv.reader(io.StringIO(text)))
        if lines[0] != CSV_HEADER:
            raise ValueError("CSV header %r" % lines[0])
        rows = []
        for cells in lines[1:]:
            k = int(cells[0])
            rows.append({
                # CSV carries c2(E) as k and no c1/c3 column; c3 = 0 is
                # checked through the JSON form of the same k.
                "k": k,
                "chern": (2, 0, k, 0),
                "dim": int(cells[7]),
                "tangent": int(cells[8]),
                "reflexive": cells[1],
                "descriptor": (cells[1], cells[2], int(cells[3])),
                "notes": cells[10],
            })
        return rows

    @staticmethod
    def _table_rows(cmd: Command, text: str, problems: list) -> list[dict]:
        if cmd.kind == "describe":
            fields = {}
            notes = []
            for line in text.splitlines():
                if line.startswith("  - ["):
                    notes.append(line)
                else:
                    fields[line[:16].strip()] = line[16:]
            chern = dict(p.split("=") for p in fields["chern(E)"].split())
            refl, curve, s = fields["descriptor"].split()
            return [{
                "k": int(fields["k"]),
                "chern": tuple(int(chern[x]) for x in ("rank", "c1", "c2", "c3")),
                "dim": int(fields["dim component"]),
                "tangent": int(fields["dim tangent"]),
                "reflexive": refl,
                "descriptor": (refl, curve, int(s.partition("=")[2])),
                "notes": " ".join(notes),
            }]
        body, _, footer = text.partition("\n\n")
        lines = body.splitlines()[1:]
        rows = []
        for line in lines:
            cells = line.split(None, 10)
            k = int(cells[0])
            rows.append({
                "k": k,
                "chern": (2, 0, k, 0),
                "dim": int(cells[7]),
                "tangent": int(cells[8]),
                "reflexive": cells[1],
                "descriptor": (cells[1], cells[2], int(cells[3])),
                "notes": cells[10] if len(cells) > 10 else "",
            })
        count = int(footer.split(None, 1)[0])
        if count != len(rows):
            problems.append("table footer says %d, %d rows" % (count, len(rows)))
        return rows

    @staticmethod
    def _check_verify(max_k: int, text: str, problems: list) -> None:
        if not text.endswith("overall: PASS\n"):
            problems.append("verify did not pass")
        if M3_NOTE not in text:
            problems.append("c2=3 dimension erratum missing")
        if max_k >= S101_MIN_K and S101_NOTE not in text:
            problems.append("S:1,0,1 erratum missing")
