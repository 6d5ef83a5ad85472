"""Byte identity of CLI output against `tests/output_manifest.json`.

The manifest holds, for each command, its exit code and the SHA-256 of its
stdout and of its stderr.  It covers what `perfbench/golden.json` does not
(floors 1 and 3, c2 = 45 and 60, `verify --max-k` 22 and 30, describe
errors, and stderr); `tests/record_manifest.py` lists the commands.  Each is
replayed in-process with `chern_of`'s cache cleared, as in a fresh process.

The manifest is only read here.  It is regenerated only on purpose, when
output changes by design, with `PYTHONPATH=src python3
tests/record_manifest.py`.
"""

import json

from record_manifest import MANIFEST_PATH, commands, replay


def test_every_command_matches_the_manifest():
    manifest = json.loads(MANIFEST_PATH.read_text(encoding="utf-8"))
    argvs = [" ".join(argv) for argv in commands()]
    assert argvs == list(manifest)
    fields = ("exit code", "stdout", "stderr")
    drift = []
    for command in argvs:
        now = replay(command.split(" "))
        drift += ["%s: %s" % (command, field)
                  for field, was, got in zip(fields, manifest[command], now)
                  if was != got]
    assert drift == []
