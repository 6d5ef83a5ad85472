"""Record `tests/output_manifest.json`, the byte record of CLI output that
`tests/test_output_manifest.py` replays.

For each command the manifest holds `[exit code, sha256(stdout),
sha256(stderr)]`, each command run in-process through `sheafatlas.cli.main`
with `chern_of`'s cache cleared first, as in a fresh process.  It covers
what `perfbench/golden.json` does not: `--min-curve-degree` 1 and 3 at c2 =
3..20, c2 = 45 and 60 at the default floor, `verify --max-k` 22 and 30,
twelve `describe` descriptors (among them the M3 report, the flagged
errata, inadmissible triples with and without a printed report, and two
usage errors), every format, and stderr.

The manifest is regenerated only on purpose, when output changes by
design, with::

    PYTHONPATH=src python3 tests/record_manifest.py

and a change should say which entries moved and why.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from sheafatlas.cli import main as atlas_main
from sheafatlas.families import chern_of

MANIFEST_PATH = Path(__file__).resolve().parent / "output_manifest.json"
FORMATS = ("table", "csv", "json")
DESCRIBE = (
    ("V:1", "R:2", "0"),  # M3
    ("S:0,0,2", "R:2", "6"),
    ("V:1", "R:2", "99"),
    ("S:1,0,1", "CI:2,2", "0"),
    ("V:2", "R:2", "0"),
    ("S:0,1,0", "R:3", "2"),
    ("S:0,1,2", "R:2", "0"),
    ("S:1,0,1", "R:3", "1"),
    ("V:2", "CI:2,2", "1"),
    ("S:12,3,0", "R:9", "0"),
    ("X:3", "R:3", "0"),
    ("S:0,0,2", "R:0", "0"),
)


def commands():
    """Every recorded argv, in manifest order."""
    for floor in (1, 3):
        for k in range(3, 21):
            for fmt in FORMATS:
                yield ["enumerate", "--c2", str(k), "--format", fmt,
                       "--min-curve-degree", str(floor)]
    for k in (45, 60):
        for fmt in FORMATS:
            yield ["enumerate", "--c2", str(k), "--format", fmt]
    for k in (22, 30):
        yield ["verify", "--max-k", str(k)]
    for reflexive, curve, points in DESCRIBE:
        for fmt in FORMATS:
            yield ["describe", "--reflexive", reflexive, "--curve", curve,
                   "--points", points, "--format", fmt]


def replay(argv):
    """[exit code, sha256(stdout), sha256(stderr)] of one command."""
    chern_of.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = atlas_main(argv)
    return [code] + [hashlib.sha256(s.getvalue().encode("utf-8")).hexdigest()
                     for s in (out, err)]


def main():
    manifest = {" ".join(argv): replay(argv) for argv in commands()}
    MANIFEST_PATH.write_text(json.dumps(manifest, indent=1) + "\n",
                             encoding="utf-8")
    print("%d commands -> %s" % (len(manifest), MANIFEST_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
