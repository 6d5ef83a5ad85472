"""Record exit codes and output digests of the whole command universe.

Run from the repository root:

    python3 perfbench/record_golden.py

It runs every command in `workloads.universe()` in-process against `src/`
and rewrites `perfbench/golden.json`.  The file is the reference that
`golden_drift` and the exit-code check compare against, so rewrite it only
when a change alters the CLI's output on purpose.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

from outcheck import GOLDEN_PATH, digest
from tracer import import_package, run_inprocess
from workloads import DESCRIBE_PAIRS, DESCRIBE_POINTS, FORMATS, universe


def record(root: Path) -> dict:
    cli, _ = import_package(root)
    cache = sys.modules["sheafatlas.families"].chern_of
    flat: dict[str, dict[str, str]] = {"enumerate": {}, "verify": {}}
    describe: dict[tuple, str] = {}
    reports: dict[str, int] = {}
    for cmd in universe():
        code, out, _, _ = run_inprocess(cli, cache, cmd.argv())
        value = "%d:%s" % (code, digest(out))
        if cmd.kind == "describe":
            describe[cmd.params + (cmd.fmt,)] = value
        else:
            flat[cmd.kind][cmd.key] = value
        if cmd.kind == "enumerate" and cmd.fmt == "json":
            reports[str(cmd.params[0])] = len(json.loads(out)["reports"])
    return {
        "python": platform.python_version(),
        "digest": "first 16 hex digits of SHA-256 of stdout (or of the "
                  "--output file); value is '<exit code>:<digest>'",
        "describe_order": "per '<reflexive> <curve>': s = 0..6, each in "
                          "formats table, csv, json",
        "atlas_reports": reports,
        "enumerate": flat["enumerate"],
        "verify": flat["verify"],
        "describe": {
            "%s %s" % (r, c): ",".join(describe[(r, c, s, f)]
                                       for s in DESCRIBE_POINTS for f in FORMATS)
            for r, c in DESCRIBE_PAIRS
        },
    }


def main() -> int:
    data = record(Path.cwd())
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % GOLDEN_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
