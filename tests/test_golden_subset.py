"""Byte identity of CLI output against the recorded golden digests.

`perfbench/golden.json` holds, for every command of the benchmark's command
universe, `"<exit code>:<first 16 hex digits of SHA-256(stdout)>"`.  This
module replays a subset in-process through `sheafatlas.cli.main`, with
`chern_of`'s cache cleared before each command as in a fresh process:

- `enumerate` for c2 = 3..14 in every format, with the report counts;
- `enumerate` for c2 = 15..30 in every format, which covers every
  command the benchmark's enumerate sweep runs;
- every recorded `verify` command, `--max-k` 10..14;
- every describe pair at s = 0..6, in format (pair index + s) % 3.

The golden file is only read here; rewrite it with
`python3 perfbench/record_golden.py` when output changes on purpose.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from sheafatlas.cli import main
from sheafatlas.families import chern_of

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
FORMATS = ("table", "csv", "json")  # the order of golden "describe_order"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def replay(argv):
    """(recorded value, stdout) of one command run in-process."""
    chern_of.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    data = out.getvalue().encode("utf-8")
    return "%d:%s" % (code, hashlib.sha256(data).hexdigest()[:16]), data


def test_enumerate_matches_golden(golden):
    drift = []
    for k in range(3, 15):
        for fmt in FORMATS:
            argv = ["enumerate", "--c2", str(k), "--format", fmt]
            value, out = replay(argv)
            if value != golden["enumerate"][" ".join(argv)]:
                drift.append(" ".join(argv))
            if fmt == "json":
                count = len(json.loads(out)["reports"])
                if count != golden["atlas_reports"][str(k)]:
                    drift.append("report count for c2 = %d" % k)
    assert drift == []


def test_enumerate_json_matches_golden_up_to_30(golden):
    drift = []
    for k in range(15, 31):
        argv = ["enumerate", "--c2", str(k), "--format", "json"]
        if replay(argv)[0] != golden["enumerate"][" ".join(argv)]:
            drift.append(" ".join(argv))
    assert drift == []


def test_enumerate_csv_and_table_match_golden_up_to_30(golden):
    drift = []
    for k in range(15, 31):
        for fmt in ("csv", "table"):
            argv = ["enumerate", "--c2", str(k), "--format", fmt]
            if replay(argv)[0] != golden["enumerate"][" ".join(argv)]:
                drift.append(" ".join(argv))
    assert drift == []


def test_verify_matches_golden(golden):
    # the recorded verify commands are the whole verify workload
    assert sorted(golden["verify"]) == sorted(
        "verify --max-k %d" % k for k in range(10, 15))
    drift = [command for command, recorded in golden["verify"].items()
             if replay(command.split(" "))[0] != recorded]
    assert drift == []


def test_describe_matches_golden(golden):
    drift = []
    for index, (pair, values) in enumerate(golden["describe"].items()):
        reflexive, curve = pair.split(" ")
        recorded = values.split(",")
        for s in range(7):
            fmt_index = (index + s) % len(FORMATS)
            argv = ["describe", "--reflexive", reflexive, "--curve", curve,
                    "--points", str(s), "--format", FORMATS[fmt_index]]
            if replay(argv)[0] != recorded[s * len(FORMATS) + fmt_index]:
                drift.append(" ".join(argv))
    assert len(golden["describe"]) > 300
    assert drift == []
