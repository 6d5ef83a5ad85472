"""Command-line contract: formats, round trips, exit codes."""

import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys

import pytest

import sheafatlas
from sheafatlas import atlas
from sheafatlas.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_k3_table(capsys):
    code, out, _ = run(capsys, "enumerate", "--c2", "3")
    assert code == 0
    lines = out.splitlines()
    header, row = lines[0], lines[1]
    assert header.startswith("k  reflexive")
    assert row.startswith("3  V:1")
    assert "22" in row
    assert "published dimension 21" in row
    assert "at least 11" in out


@pytest.mark.parametrize("floor, listed", [("3", False), ("1", True)])
def test_enumerate_k3_published_footer_needs_the_component(capsys, floor,
                                                            listed):
    # the footer counts the listed c2 = 3 component, so it appears only
    # when that component is in the table
    code, out, _ = run(capsys, "enumerate", "--c2", "3",
                       "--min-curve-degree", floor)
    assert code == 0
    assert ("0 component(s) for c2 = 3" in out) is not listed
    assert ("with the one above the total is at least 11" in out) is listed


def test_enumerate_k4_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--c2", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert payload["k"] == 4
    assert len(payload["reports"]) == 5
    first = payload["reports"][0]
    assert first["descriptor"] == {"reflexive": "S:0,0,2",
                                   "curve": "R:2", "s": 0}
    assert first["chern_E"] == {"rank": 2, "c1": 0, "c2": 4, "c3": 0}


def test_enumerate_k2_usage_error(capsys):
    code, _, err = run(capsys, "enumerate", "--c2", "2")
    assert code == 2
    assert "c2 = 3" in err


def test_enumerate_unknown_format(capsys):
    code, _, _ = run(capsys, "enumerate", "--c2", "3", "--format", "yaml")
    assert code == 2


def test_json_round_trip_is_byte_identical(capsys):
    _, out, _ = run(capsys, "enumerate", "--c2", "5", "--format", "json")
    reparsed = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert reparsed == out


def test_csv_and_json_numeric_content_agree(capsys):
    _, json_out, _ = run(capsys, "enumerate", "--c2", "6", "--format", "json")
    _, csv_out, _ = run(capsys, "enumerate", "--c2", "6", "--format", "csv")
    reports = json.loads(json_out)["reports"]
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(rows) == len(reports)
    for row, report in zip(rows, reports):
        assert int(row["k"]) == report["k"]
        assert row["reflexive"] == report["descriptor"]["reflexive"]
        assert row["curve"] == report["descriptor"]["curve"]
        assert int(row["s"]) == report["descriptor"]["s"]
        assert int(row["degL"]) == report["deg_L"]
        assert int(row["chiL"]) == report["chi_L"]
        assert int(row["chiHomFL"]) == report["chi_hom_FL"]
        assert int(row["dim"]) == report["dim_component"]
        assert int(row["tangentDim"]) == report["dim_tangent"]


def test_runs_are_deterministic(capsys):
    _, first, _ = run(capsys, "enumerate", "--c2", "7", "--format", "json")
    _, second, _ = run(capsys, "enumerate", "--c2", "7", "--format", "json")
    assert first == second


def test_describe_m3(capsys):
    code, out, _ = run(capsys, "describe", "--reflexive", "V:1",
                       "--curve", "R:2", "--points", "0")
    assert code == 0
    assert "k               3" in out
    assert "dim component   22" in out
    assert "published-m3-values" in out


def test_describe_split_with_point(capsys):
    code, out, _ = run(capsys, "describe", "--reflexive", "S:0,0,2",
                       "--curve", "R:2", "--points", "1")
    assert code == 0
    assert "k               4" in out
    assert "dim component   34" in out


def test_describe_inadmissible_exit_3(capsys):
    code, out, err = run(capsys, "describe", "--reflexive", "V:2",
                         "--curve", "R:2", "--points", "0")
    assert code == 3
    assert "degree-bound" in err or "degree-bound" in out
    # the report is still rendered, with the failing verdict visible
    assert "Fails" in out


def test_describe_unassemblable_reason_printed_once(capsys):
    # s = 6 exceeds the points bound so far that no best-effort report can
    # be assembled; the verdicts go to stderr under a single reason line.
    code, out, err = run(capsys, "describe", "--reflexive", "S:0,0,2",
                         "--curve", "R:2", "--points", "6")
    assert code == 3
    assert out == ""
    assert err.count("descriptor violates: points-bound") == 1
    assert err.startswith("inadmissible descriptor: ")
    assert "twist-sections-vanish" in err


def test_describe_unparsable_exit_2(capsys):
    code, _, err = run(capsys, "describe", "--reflexive", "X:1",
                       "--curve", "R:2", "--points", "0")
    assert code == 2
    assert "cannot parse" in err
    code, _, _ = run(capsys, "describe", "--reflexive", "S:1,2",
                     "--curve", "R:2", "--points", "0")
    assert code == 2


def test_describe_json(capsys):
    code, out, _ = run(capsys, "describe", "--reflexive", "V:1",
                       "--curve", "CI:1,3", "--points", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    report = payload["report"]
    assert report["k"] == 4
    assert report["dim_component"] == 33
    assert report["chern_routes"]["closed_form"] is None


def test_describe_degree_one_override(capsys):
    code, _, _ = run(capsys, "describe", "--reflexive", "S:0,0,2",
                     "--curve", "R:1", "--points", "0")
    assert code == 3
    code, out, _ = run(capsys, "describe", "--reflexive", "S:0,0,2",
                       "--curve", "R:1", "--points", "0",
                       "--min-curve-degree", "1")
    assert code == 0
    assert "outside-degree-novelty" in out


def test_verify_small_range(capsys):
    code, out, _ = run(capsys, "verify", "--max-k", "4")
    assert code == 0
    assert "c2=3" in out and "c2=4" in out
    assert "published-m3-values" in out
    assert "overall: PASS" in out


def test_verify_failing_atlas_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(atlas, "chi_hom_fl", lambda d, chi: 2 * chi + 1)
    code, out, _ = run(capsys, "verify", "--max-k", "4")
    assert code == 1
    assert "    FAIL two-route-section-count: " in out
    assert out.endswith("overall: FAIL\n")


def test_verify_failing_module_check_exits_1(monkeypatch, capsys):
    h0 = atlas.h0_o_p3
    monkeypatch.setattr(atlas, "h0_o_p3", lambda j: h0(j) + (j == -5))
    code, out, _ = run(capsys, "verify", "--max-k", "4")
    assert code == 1
    assert re.search(r"\n  p3-h0-vs-chi +FAIL .*\n    failures: j=-5\n", out)
    assert out.endswith("overall: FAIL\n")


def test_verify_max_k_too_small(capsys):
    code, _, err = run(capsys, "verify", "--max-k", "2")
    assert code == 2
    assert "at least 3" in err


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "atlas.json"
    code, out, _ = run(capsys, "enumerate", "--c2", "4",
                       "--format", "json", "--output", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert len(payload["reports"]) == 5


@pytest.mark.parametrize("argv", [
    ("enumerate", "--c2", "4"),
    ("describe", "--reflexive", "V:1", "--curve", "R:2", "--points", "0"),
    ("describe", "--reflexive", "V:2", "--curve", "R:2", "--points", "0"),
    ("verify", "--max-k", "3"),
], ids=["enumerate", "describe", "describe-inadmissible", "verify"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == 2
    assert out == ""
    assert "error: cannot write output: " in err
    assert not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
def test_failing_stdout_is_usage_error():
    src = os.path.dirname(os.path.dirname(sheafatlas.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "sheafatlas.cli", "enumerate",
             "--c2", "18"],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write output: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["verify", "--max-k", "3"],
    ["enumerate", "--c2", "5"],
    ["describe", "--reflexive", "V:1", "--curve", "R:2", "--points", "0"],
    ["describe", "--reflexive", "V:2", "--curve", "R:2", "--points", "0"],
], ids=["verify", "enumerate", "describe", "describe-inadmissible"])
def test_closed_stdout_is_usage_error(tmp_path, argv):
    # With fd 1 closed, Python starts with sys.stdout None, not a stream.
    src = os.path.dirname(os.path.dirname(sheafatlas.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    err = tmp_path / "stderr"
    pid = os.posix_spawn(
        sys.executable, [sys.executable, "-m", "sheafatlas.cli", *argv], env,
        file_actions=[(os.POSIX_SPAWN_CLOSE, 1),
                      (os.POSIX_SPAWN_OPEN, 2, str(err),
                       os.O_WRONLY | os.O_CREAT, 0o600)])
    _, status = os.waitpid(pid, 0)
    stderr = err.read_text()
    assert os.waitstatus_to_exitcode(status) == 2
    assert stderr.startswith("error: cannot write output: ")
    assert "Traceback" not in stderr


def peak_rss_mb(*argv):
    """Peak RSS of `python -m sheafatlas.cli argv` run as a child process,
    with stdout discarded; the child must exit 0."""
    src = os.path.dirname(os.path.dirname(sheafatlas.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    pid = os.posix_spawn(
        sys.executable, [sys.executable, "-m", "sheafatlas.cli", *argv], env,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads ru_maxrss in KiB, as Linux reports it")
def test_json_peak_memory_is_near_the_table_peak():
    # The JSON text is a few MB at c2 = 22; writing it must not hold a
    # second tree of the atlas, so its peak stays near that of the table,
    # which keeps one 4-byte index per cell.
    argv = ("enumerate", "--c2", "22", "--format")
    json_mb, table_mb = peak_rss_mb(*argv, "json"), peak_rss_mb(*argv, "table")
    assert json_mb <= table_mb + 10, (json_mb, table_mb)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads ru_maxrss in KiB, as Linux reports it")
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_streamed_peak_memory_does_not_grow_with_c2(fmt):
    # c2 = 45 has 11,472 reports against 314 at c2 = 14; JSON and CSV write
    # each report as the walk builds it and keep none of them, and the
    # table keeps 44 bytes of indices per row (about 0.5 MB at c2 = 45).
    small = peak_rss_mb("enumerate", "--c2", "14", "--format", fmt)
    large = peak_rss_mb("enumerate", "--c2", "45", "--format", fmt)
    assert large <= small + 3, (small, large)


def run_limited(limit_mb, *argv):
    """`python -m sheafatlas.cli argv` as a child that may map at most
    limit_mb MB; the limit is set before the interpreter starts, or the
    child never runs.  A child that outlives the timeout is killed and the
    test fails with TimeoutExpired rather than hang.  Returns (exit code,
    stderr)."""
    resource = pytest.importorskip("resource")
    limit = limit_mb << 20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    src = os.path.dirname(os.path.dirname(sheafatlas.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "sheafatlas.cli", *argv],
        env=env, preexec_fn=limit_memory, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=120)
    return proc.returncode, proc.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs an enforced address-space limit")
def test_out_of_memory_exits_4():
    # enumerate --c2 10**30 prints nothing while its scan fills the chern_of
    # cache, so under 24 MB it runs out; the cache is emptied before the
    # message, or printing it raises MemoryError again.  verify streams each
    # atlas, so --max-k 12 and --max-k 42 both fit: the controls show that
    # the limit neither stops the interpreter from starting nor stops a
    # large verify.
    for fmt in ("table", "json", "csv"):
        # one line, no traceback
        assert run_limited(24, "enumerate", "--c2", "1" + "0" * 30,
                           "--format", fmt) == (4, "error: out of memory\n")
    assert run_limited(24, "verify", "--max-k", "12") == (0, "")
    assert run_limited(24, "verify", "--max-k", "42") == (0, "")


@pytest.mark.parametrize("argv", [
    ("enumerate", "--c2", "4"),
    ("describe", "--reflexive", "V:1", "--curve", "R:2", "--points", "0"),
], ids=["enumerate", "describe"])
def test_nonpositive_curve_degree_floor_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--min-curve-degree", "-5")
    assert code == 2
    assert out == ""
    assert err == "error: curve-degree floor must be positive\n"


@pytest.mark.parametrize("argv", [
    ("describe", "--reflexive", "S:0,0,2", "--curve", "R:2",
     "--points", "\u0660"),
    ("enumerate", "--c2", "+5"),
    ("enumerate", "--c2", "05"),
    ("verify", "--max-k", "03"),
    ("enumerate", "--c2", "4", "--min-curve-degree", "\u0662"),
], ids=["points-arabic-indic-zero", "c2-plus", "c2-leading-zero",
        "max-k-leading-zero", "floor-arabic-indic-two"])
def test_non_canonical_numeric_flag_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_keyboard_interrupt_exits_130(monkeypatch, capsys):
    def interrupted(opts):
        raise KeyboardInterrupt

    monkeypatch.setattr(sheafatlas.cli.atlas_mod, "iter_components",
                        interrupted)
    try:
        code, out, err = run(capsys, "enumerate", "--c2", "4")
    except KeyboardInterrupt:  # would otherwise stop the whole pytest run
        pytest.fail("KeyboardInterrupt escaped cli.main")
    assert code == 130
    assert out == ""
    assert err == "interrupted\n"  # one line, no traceback


@pytest.mark.parametrize("exc, code, message", [
    (KeyboardInterrupt, 130, "interrupted\n"),
    (MemoryError, 4, "error: out of memory\n"),
], ids=["interrupt", "out-of-memory"])
def test_failure_mid_stream_leaves_a_prefix(monkeypatch, capsys, exc, code,
                                            message):
    argv = ("enumerate", "--c2", "7", "--format", "json")
    _, full, _ = run(capsys, *argv)
    walk = sheafatlas.cli.atlas_mod.iter_components

    def fails_after_three(opts):
        yield from itertools.islice(walk(opts), 3)
        raise exc

    monkeypatch.setattr(sheafatlas.cli.atlas_mod, "iter_components",
                        fails_after_three)
    try:
        got, out, err = run(capsys, *argv)
    except (KeyboardInterrupt, MemoryError):
        pytest.fail("%s escaped cli.main" % exc.__name__)
    assert (got, err) == (code, message)  # one line, no traceback
    assert out.count('"descriptor"') == 3
    assert full.startswith(out) and len(out) < len(full)
