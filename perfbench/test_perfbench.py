"""Tests of the benchmark itself (not of sheafatlas).

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run
import tracer
import workloads
from outcheck import Checker, Golden, digest
from workloads import Command

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Golden.load()
OUTCOMES = GOLDEN.describe_outcomes()

# The metrics the benchmark promises, with their units.
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s",
             "reports_per_s": "1/s", "peak_rss_mb": "MB"}
LAYER_NAMES = [
    "exactpoly.polys_built", "exactpoly.twist.calls", "exactpoly.self_s",
    "p3rr.hp_o_p3.calls", "p3rr.chern_from_hp.calls",
    "p3rr.hp_from_chern.calls", "p3rr.self_s",
    "families.hp_of_family.calls_per_report", "families.chern_of.hit_ratio",
    "families.self_s", "curvecoh.cohomology_oc.calls", "curvecoh.self_s",
    "transform.build_report.us_per_report",
    "transform.check_conditions.calls_per_report",
    "transform.chi_l.calls_per_report", "transform.self_s",
    "atlas.enumerate_components.calls", "atlas.solve_sabc.accept_ratio",
    "atlas.verify_module_invariants.s", "atlas.self_s",
    "render.us_per_report.json", "render.us_per_report.csv",
    "render.us_per_report.table", "render.bytes_out", "render.self_s",
    "cli.import_s", "cli.main.self_s", "cli.exit_codes.0",
    "cli.exit_codes.2", "cli.exit_codes.3", "trace.overhead_ratio",
]


@pytest.fixture(scope="module")
def cli():
    module, _ = tracer.import_package(ROOT)
    return module


def inprocess(cli, cmd: Command):
    cache = sys.modules["sheafatlas.families"].chern_of
    code, out, err, _ = tracer.run_inprocess(cli, cache, cmd.argv())
    return code, out, err


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_argv(name):
    def argv_lists(seed):
        return [c.argv("out") for c in workloads.generate(name, seed, OUTCOMES)]

    assert argv_lists(7) == argv_lists(7)
    assert len({json.dumps(argv_lists(seed)) for seed in range(20)}) > 1


def test_generated_commands_lie_in_the_digest_universe():
    keys = {c.key for c in workloads.universe()}
    for name in workloads.WORKLOADS:
        for seed in range(40):
            for cmd in workloads.generate(name, seed, OUTCOMES):
                assert cmd.key in keys
                GOLDEN.entry(cmd)


def test_golden_covers_the_universe_exactly():
    entries = [GOLDEN.entry(c) for c in workloads.universe()]
    assert len(entries) == len(workloads.universe())
    assert len(GOLDEN.data["enumerate"]) + len(GOLDEN.data["verify"]) == (
        len(workloads.ENUMERATE_KS) * len(workloads.FORMATS)
        + len(workloads.VERIFY_KS))
    assert sum(len(row.split(",")) for row in GOLDEN.data["describe"].values()) \
        == len(workloads.DESCRIBE_PAIRS) * len(workloads.DESCRIBE_POINTS) * 3


def test_describe_mix_has_every_exit_code():
    cmds = workloads.generate("describe-mix", 3, OUTCOMES)
    codes = [GOLDEN.entry(c)[0] for c in cmds]
    assert {0, 2, 3} <= set(codes)


def test_package_comes_from_the_checkout(cli):
    assert (ROOT / "src") in Path(cli.__file__).resolve().parents


def test_subprocess_output_matches_the_inprocess_golden():
    cmd = Command("describe", ("V:1", "R:2", 0), "json")
    env = run.child_env(ROOT)
    proc = subprocess.run([sys.executable, "-m", "sheafatlas.cli", *cmd.argv()],
                          env=env, capture_output=True, check=False)
    assert (proc.returncode, digest(proc.stdout)) == GOLDEN.entry(cmd)


CASES = [
    Command("enumerate", (14,), "json"),
    Command("enumerate", (14,), "csv"),
    Command("enumerate", (14,), "table"),
    Command("describe", ("V:1", "R:2", 0), "table"),
    Command("describe", ("S:1,0,1", "R:3", 1), "json"),
    Command("describe", ("V:2", "R:2", 0), "csv"),     # inadmissible
]


@pytest.mark.parametrize("cmd", CASES, ids=lambda c: c.key)
def test_real_outputs_pass_without_drift(cli, cmd):
    code, out, err = inprocess(cli, cmd)
    outcome = Checker(GOLDEN).check(cmd, code, out, err)
    assert outcome.ok, outcome.problems
    assert not outcome.drift


def flip(out: bytes, old: bytes, new: bytes) -> bytes:
    assert old in out and len(old) == len(new)
    return out.replace(old, new, 1)


@pytest.mark.parametrize("cmd,old,new", [
    # a digit of a dimension: dim_component != dim_tangent
    (Command("enumerate", (14,), "json"), b'"dim_component": ', b'"dim_component":2'),
    # indentation: JSON no longer re-serialises to the same bytes
    (Command("enumerate", (14,), "json"), b'\n  "k"', b'\n "k" '),
    # the flagged 77/2 erratum
    (Command("enumerate", (14,), "csv"), b"gives 77/2", b"gives 77/3"),
    # the c2 = 3 dimension erratum
    (Command("describe", ("V:1", "R:2", 0), "table"), b"dimension 21", b"dimension 23"),
    # c3 of the transformed sheaf
    (Command("describe", ("S:1,0,1", "R:3", 1), "table"), b"c3=0", b"c3=2"),
])
def test_flipped_output_byte_fails(cli, cmd, old, new):
    code, out, err = inprocess(cli, cmd)
    outcome = Checker(GOLDEN).check(cmd, code, flip(out, old, new), err)
    assert not outcome.ok
    assert outcome.drift


def test_wrong_exit_code_fails(cli):
    cmd = Command("describe", ("V:2", "R:2", 0), "json")
    code, out, err = inprocess(cli, cmd)
    assert code == 3
    outcome = Checker(GOLDEN).check(cmd, 0, out, err)
    assert not outcome.ok and not outcome.drift


def test_csv_json_count_disagreement_fails(cli):
    checker = Checker(GOLDEN)
    json_cmd = Command("enumerate", (14,), "json")
    csv_cmd = Command("enumerate", (14,), "csv")
    assert checker.check(json_cmd, *inprocess(cli, json_cmd)).ok
    code, out, err = inprocess(cli, csv_cmd)
    truncated = out[:out.rindex(b"\n", 0, len(out) - 1) + 1]
    assert not checker.check(csv_cmd, code, truncated, err).ok


class CorruptingCli:
    """Delegates to the real CLI, then breaks one command's result."""

    def __init__(self, real, mode):
        self.real, self.mode, self.calls = real, mode, 0

    def main(self, argv):
        self.calls += 1
        if self.calls != 2:
            return self.real.main(argv)
        if self.mode == "no-file":
            return 0  # exits cleanly, but never writes its --output file
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = self.real.main(argv)
        text = buffer.getvalue()
        if self.mode == "byte":
            text = text.replace("c3=0", "c3=4", 1)
        elif self.mode == "empty":
            text = ""
        else:
            code = 3 - code
        sys.stdout.write(text)
        return code


@pytest.mark.parametrize("mode", ["byte", "exit", "empty", "no-file"])
def test_failures_reach_failed_frac(cli, tmp_path, mode):
    cmds = [Command("describe", ("V:1", "R:%d" % d, 0), "table")
            for d in (2, 3, 4, 5)]
    if mode == "no-file":
        cmds[1] = Command("enumerate", (5,), "csv", output=True)
    cache = sys.modules["sheafatlas.families"].chern_of
    result = tracer.replay(CorruptingCli(cli, mode), cache, cmds,
                           Checker(GOLDEN), tmp_path)
    tally = run.tally(result["outcomes"])
    assert tally["attempted"] == 4 and tally["failed"] == 1
    assert tally["failed_frac"] == 0.25
    assert tally["golden_drift"] == (0 if mode == "exit" else 1)
    if mode in ("empty", "no-file"):
        assert tally["problems"] == ["no output"]


def test_peak_rss_is_each_childs_own(tmp_path):
    ballast = bytearray(150 * 2**20)  # grow this process past any child
    ballast[::4096] = b"x" * len(ballast[::4096])
    big = "x = bytearray(80 * 2**20); x[::4096] = b'y' * len(x[::4096])"
    out, err = tmp_path / "out", tmp_path / "err"
    with run.Spawner(run.child_env(ROOT)) as spawner:
        _, _, big_mb = spawner.run([sys.executable, "-c", big], tmp_path, out, err)
        _, _, small_mb = spawner.run([sys.executable, "-c", "pass"], tmp_path, out, err)
    assert 80 < big_mb < 150
    assert small_mb < 40
    del ballast


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BENCHMARKED)
    assert set(workloads.BENCHMARKED) <= set(workloads.WORKLOADS)
    assert run.END_TO_END == E2E_UNITS
    assert set(LAYER_NAMES) <= set(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(monkeypatch, trace):
    small = [Command("enumerate", (5,), "csv", output=True),
             Command("enumerate", (5,), "json"),
             Command("describe", ("V:1", "R:2", 0), "table"),
             Command("describe", ("V:2", "R:2", 0), "json"),
             Command("describe", ("X:3", "R:3", 0), "csv")]
    monkeypatch.setattr(workloads, "generate", lambda *a: small)
    monkeypatch.chdir(ROOT)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert run.main(["--workload", "describe-mix", "--seed", "1",
                         "--seconds", "0.01", "--trace", str(trace)]) == 0
    info, last = [json.loads(line) for line in buffer.getvalue().splitlines()[-2:]]
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 5
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
    assert info["failed_frac"] == 0 and info["golden_drift"] == 0
    if trace:
        assert info["transform.reports"] > 0 and info["trace.spans"] > 0
        m = last["metrics"]
        assert m["transform.check_conditions.calls_per_report"]["value"] == 2.0
        assert m["cli.exit_codes.2"]["value"] == 1
        assert m["cli.exit_codes.3"]["value"] == 1


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "verify", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
