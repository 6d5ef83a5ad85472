"""The sheafatlas benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload enumerate-sweep --seed 1 --seconds 60 --trace 0

With `--trace 0` it runs the workload's seeded command list as `atlas`
child processes, one at a time (a closed loop with one client; spawner.py
starts them), repeating the list while each next command still fits in
`--seconds`.
Set-up (interpreter start and import) is sampled at even times through
the run.  It prints the end-to-end metrics.  With `--trace 1` it replays the same
list once in-process without spans and once with spans, and prints the
per-layer metrics; spans and the full per-layer table are written under
`perfbench/out/`.

Every output is checked (see outcheck.py).  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The line
before it carries failed_frac, golden_drift and the numbers that are not
gated, such as cmd_p90_s where a run has enough commands for it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads
from outcheck import Checker, Golden

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "reports_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "exactpoly.polys_built": "count",
    "exactpoly.twist.calls": "count",
    "exactpoly.self_s": "s",
    "p3rr.hp_o_p3.calls": "count",
    "p3rr.chern_from_hp.calls": "count",
    "p3rr.hp_from_chern.calls": "count",
    "p3rr.hp_from_chern.repeat_share": "ratio",
    "p3rr.self_s": "s",
    "families.hp_of_family.calls_per_report": "calls/report",
    "families.hp_of_family.repeat_share": "ratio",
    "families.chern_of.hit_ratio": "ratio",
    "families.self_s": "s",
    "curvecoh.cohomology_oc.calls": "count",
    "curvecoh.self_s": "s",
    "transform.build_report.us_per_report": "us",
    "transform.check_conditions.calls_per_report": "calls/report",
    "transform.chi_l.calls_per_report": "calls/report",
    "transform.self_s": "s",
    "atlas.enumerate_components.calls": "count",
    "atlas.solve_sabc.accept_ratio": "ratio",
    "atlas.verify_module_invariants.s": "s",
    "atlas.self_s": "s",
    "render.us_per_report.json": "us",
    "render.us_per_report.csv": "us",
    "render.us_per_report.table": "us",
    "render.bytes_out": "bytes",
    "render.self_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.exit_codes.0": "count",
    "cli.exit_codes.2": "count",
    "cli.exit_codes.3": "count",
    "trace.overhead_ratio": "ratio",
}

SETUP_SPAWNS = 30       # timed interpreter starts per run, after one warm-up
P90_MIN_SAMPLES = 100   # so that at least 10 samples lie beyond the p90
COMMAND_TIMEOUT_S = 120
OUT_DIR = Path(__file__).with_name("out")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # A fixed hash seed gives every child the same set and dict layouts, so
    # repeated runs of a command do the same work; the output does not
    # depend on it.
    env["PYTHONHASHSEED"] = "0"
    return env


class Spawner:
    """Runs children through spawner.py, which reports their own rusage.

    Peak RSS comes from each child's rusage via wait4, not from
    RUSAGE_CHILDREN, which is a high-water mark over every child reaped.
    """

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: Path, stdout: Path, stderr: Path):
        """Run a child to completion; returns (exit code, seconds, peak RSS MB)."""
        self.proc.stdin.write(json.dumps({
            "argv": argv, "cwd": str(cwd), "stdout": str(stdout),
            "stderr": str(stderr), "timeout": COMMAND_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["code"], reply["seconds"], reply["maxrss_kb"] / 1024

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        if exc_type is not None:
            self.proc.terminate()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def setup_sample(spawner: Spawner, root: Path) -> float:
    """Seconds to start the interpreter and import sheafatlas.cli."""
    argv = [sys.executable, "-c", "import sheafatlas.cli"]
    code, seconds, _ = spawner.run(argv, root, Path(os.devnull),
                                   Path(os.devnull))
    if code != 0:
        raise RuntimeError("importing sheafatlas.cli failed")
    return seconds


def end_to_end(root: Path, commands, checker: Checker, seconds: float) -> dict:
    work = OUT_DIR / ("run-%d" % os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    out_path, err_path, target = work / "stdout", work / "stderr", work / "output"
    base = [sys.executable, "-m", "sheafatlas.cli"]
    # per_cmd[i] and rss[i] hold command i's times and peak RSS over passes
    per_cmd = [[] for _ in commands]
    rss = [[] for _ in commands]
    outcomes = []
    passes = 0
    try:
        with Spawner(child_env(root)) as spawner:
            setup_sample(spawner, root)  # warm-up, not kept
            setup = []
            start = time.perf_counter()
            done = False
            while not done:
                for i, cmd in enumerate(commands):
                    # After the first pass, a command runs again only while
                    # its last time still fits in the run, so the run ends
                    # close to `seconds` rather than up to a pass short.
                    elapsed = time.perf_counter() - start
                    if per_cmd[i] and elapsed + per_cmd[i][-1] > seconds:
                        done = True
                        break
                    # The set-up samples are spread evenly over the run, so
                    # their median follows the machine's speed over the
                    # whole run, not over one short stretch of it.
                    due = SETUP_SPAWNS * elapsed / seconds
                    while len(setup) < min(due, SETUP_SPAWNS):
                        setup.append(setup_sample(spawner, root))
                    argv = base + cmd.argv(str(target) if cmd.output else None)
                    code, secs, mb = spawner.run(argv, work, out_path, err_path)
                    per_cmd[i].append(secs)
                    rss[i].append(mb)
                    source = target if cmd.output else out_path
                    data = source.read_bytes() if source.exists() else b""
                    target.unlink(missing_ok=True)
                    outcomes.append(
                        checker.check(cmd, code, data, err_path.read_bytes()))
                else:
                    passes += 1
            while len(setup) < SETUP_SPAWNS:
                setup.append(setup_sample(spawner, root))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # The command list's wall time is the sum of each command's median over
    # the passes: one slow stretch of the machine then moves one sample of a
    # command, not a whole pass, and the output checks stay outside it.
    # The per-command median is the median of those medians, so that the
    # commands a last, partial pass repeats do not weigh more.  Peak RSS is
    # likewise each command's median, then the largest of those.
    medians = [statistics.median(times) for times in per_cmd]
    wall_s = sum(medians)
    reports = sum(o.reports for o in outcomes[:len(commands)])
    cmd_s = [t for times in per_cmd for t in times]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "cmd_p50_s": statistics.median(medians),
        "reports_per_s": reports / wall_s,
        "peak_rss_mb": max(statistics.median(mbs) for mbs in rss),
    }
    info = {
        "passes": passes,
        "setup_samples": len(setup),
        "cmd_samples": len(cmd_s),
        "cmd_p90_s": (statistics.quantiles(cmd_s, n=10)[-1]
                      if len(cmd_s) >= P90_MIN_SAMPLES else None),
        "reports_per_pass": reports,
    }
    return {"metrics": metrics, "outcomes": outcomes, "info": info}


def traced(root: Path, workload: str, seed: int, commands,
           checker: Checker) -> dict:
    cli, import_s = tracer.import_package(root)
    package = sys.modules["sheafatlas"]
    cache = sys.modules["sheafatlas.families"].chern_of
    work = OUT_DIR / ("trace-%d" % os.getpid())
    try:
        plain = tracer.replay(cli, cache, commands, checker, work)
        spans = tracer.Tracer()
        spans.install(package)
        try:
            run = tracer.replay(cli, cache, commands, checker, work, spans)
        finally:
            spans.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    layers = tracer.layer_metrics(spans, run, plain, import_s)
    stem = OUT_DIR / ("trace-%s-%d" % (workload, seed))
    spans.write_spans(stem.with_suffix(".spans.tsv.gz"))
    with open(stem.with_suffix(".layers.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "metrics": layers,
                   "calls": dict(zip(spans.names, spans.calls)),
                   "span_s": dict(zip(spans.names, spans.span_s))},
                  handle, indent=1, sort_keys=True)
    return {
        "metrics": {name: layers[name] for name in PER_LAYER},
        "outcomes": plain["outcomes"] + run["outcomes"],
        "info": {"untraced_replay_s": plain["wall_s"],
                 "traced_replay_s": run["wall_s"],
                 "transform.reports": layers["transform.reports"],
                 "trace.spans": layers["trace.spans"],
                 "layers_file": str(stem.with_suffix(".layers.json"))},
    }


def tally(outcomes) -> dict:
    failed = [o for o in outcomes if not o.ok]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "failed_frac": len(failed) / len(outcomes),
        "golden_drift": sum(o.drift for o in outcomes),
        "problems": [p for o in failed for p in o.problems][:10],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sheafatlas" / "cli.py").is_file():
        print("error: run from a checkout root; src/sheafatlas/cli.py is "
              "missing", file=sys.stderr)
        return 2
    golden = Golden.load()
    commands = workloads.generate(args.workload, args.seed,
                                  golden.describe_outcomes())
    checker = Checker(golden)
    if args.trace:
        result = traced(root, args.workload, args.seed, commands, checker)
        units = PER_LAYER
    else:
        result = end_to_end(root, commands, checker, args.seconds)
        units = END_TO_END
    counts = tally(result["outcomes"])
    info = {"workload": args.workload, "seed": args.seed,
            "commands_per_pass": len(commands), **counts, **result["info"]}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
