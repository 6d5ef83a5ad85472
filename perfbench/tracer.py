"""In-process replay of a command list, with and without per-layer spans.

The traced run imports `sheafatlas` from the checkout's `src/` and replays
the workload's argv lists through `sheafatlas.cli.main(argv)`.  Spans are
recorded from the benchmark's side only: every public function of every
layer module, and every public method of `HilbertPolynomial`, is wrapped
for the duration of the replay.  Modules bind names with
`from .families import chern_of` and the like, so a wrapper is installed
in every module namespace that holds the original object; otherwise calls
would escape the span.

A span is recorded at each layer boundary, that is, for each call into a
layer from a different layer; calls within a layer are only counted.  A
span holds (request, name, parent, start, end).  A layer's self time is the
duration of its spans minus the time covered by their child spans.  Spans
stay in memory and are written out when the replay ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import io
import sys
import time
import traceback
from array import array
from pathlib import Path

LAYERS = ("exactpoly", "p3rr", "families", "curvecoh", "transform", "atlas",
          "render", "cli")
RENDER_FORMATS = {
    "atlas_json": "json", "report_json": "json",
    "atlas_csv": "csv", "report_csv": "csv",
    "atlas_table": "table", "report_table": "table",
}


def import_package(root: Path):
    """Import sheafatlas.cli from `root/src`, never from an installed copy.

    Returns (cli module, seconds spent importing it).
    """
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    cli = importlib.import_module("sheafatlas.cli")
    import_s = time.perf_counter() - start
    origin = Path(cli.__file__).resolve()
    if src not in origin.parents:
        raise RuntimeError("sheafatlas imported from %s, not %s" % (origin, src))
    return cli, import_s


def run_inprocess(cli, cache, argv: list[str]):
    """Run one `atlas` command in this process.

    Returns (exit code, stdout, stderr, cache_info of `cache`).  `cache` is
    the original `families.chern_of`; it is cleared first, so every command
    starts as cold as a fresh process does.  An uncaught exception maps to
    exit code 1 with the traceback on stderr, as the interpreter reports it.
    """
    cache.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return (code, out.getvalue().encode("utf-8"),
            err.getvalue().encode("utf-8"), cache.cache_info())


class Tracer:
    """Installs span wrappers into the sheafatlas modules and aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.span_s: list[float] = []
        self.layer_self_s = [0.0] * len(LAYERS)
        # span columns, indexed by span id
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.request_first_span: list[int] = []
        self.stack: list[list] = []
        self.stats = {
            "solve_candidates": 0, "solve_accepted": 0,
            "reports_rendered": dict.fromkeys(("json", "csv", "table"), 0),
            "bytes_out": 0,
        }
        self.repeats = {"hp_of_family": [0, 0], "hp_from_chern": [0, 0]}
        self._seen = {name: set() for name in self.repeats}
        self._undo: list[tuple] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, name: str, layer: int):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.span_s.append(0.0)
        calls, span_s, layer_self = self.calls, self.span_s, self.layer_self_s
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            if stack and stack[-1][2] == layer:
                # Same-layer call: counted, and its time stays inside the
                # enclosing span of this layer.
                return fn(*args, **kwargs)
            sid = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [sid, 0.0, layer]
            stack.append(frame)
            start = clock()
            span_start.append(start)
            span_end.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_end[sid] = end
                dur = end - start
                span_s[nid] += dur
                layer_self[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
        return traced

    def _counting(self, name: str, fn):
        """Pre-wrappers that collect the ratios named in the benchmark."""
        if name == "atlas.solve_sabc":
            chern_of_calls = self.calls
            chern_id = self.names.index("families.chern_of")

            def solve(*args, **kwargs):
                before = chern_of_calls[chern_id]
                result = fn(*args, **kwargs)
                self.stats["solve_candidates"] += chern_of_calls[chern_id] - before
                self.stats["solve_accepted"] += len(result)
                return result
            return solve
        short = name.rpartition(".")[2]
        if short in self.repeats:
            counter, seen = self.repeats[short], self._seen[short]

            def repeat(arg):
                counter[0] += 1
                if arg in seen:
                    counter[1] += 1
                else:
                    seen.add(arg)
                return fn(arg)
            return repeat
        if name == "render.verification_text" or short in RENDER_FORMATS:
            fmt = RENDER_FORMATS.get(short)

            def render(*args):
                text = fn(*args)
                self.stats["bytes_out"] += len(text.encode("utf-8"))
                if fmt is not None:
                    self.stats["reports_rendered"][fmt] += (
                        len(args[0].reports) if short.startswith("atlas_") else 1)
                return text
            return render
        return fn

    def install(self, package) -> None:
        """Wrap every public function of every layer and HilbertPolynomial."""
        modules = {layer: sys.modules["%s.%s" % (package.__name__, layer)]
                   for layer in LAYERS}
        namespaces = [package] + list(modules.values())
        # families before atlas: the solve_sabc pre-wrapper needs chern_of.
        for layer_id, layer in enumerate(LAYERS):
            mod = modules[layer]
            for attr, obj in sorted(vars(mod).items()):
                if (attr.startswith("_") or not callable(obj)
                        or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = "%s.%s" % (layer, attr)
                wrapper = self._wrap(self._counting(name, obj), name, layer_id)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._undo.append((ns, key, value))
                            setattr(ns, key, wrapper)
        cls = modules["exactpoly"].HilbertPolynomial
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in (
                    "__init__", "__add__", "__sub__", "__neg__"):
                continue
            name = "exactpoly.HilbertPolynomial.%s" % attr
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, 0))
            elif callable(raw):
                wrapped = self._wrap(raw, name, 0)
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._undo):
            setattr(ns, key, value)
        self._undo.clear()

    # -- per request ----------------------------------------------------

    def begin_request(self) -> None:
        self.request_first_span.append(len(self.span_name))
        for seen in self._seen.values():
            seen.clear()

    # A name the program no longer defines reads 0 rather than failing.
    def count(self, name: str) -> int:
        return self.calls[self.names.index(name)] if name in self.names else 0

    def span_total(self, name: str) -> float:
        """Summed duration of the spans called `name` (boundary calls only)."""
        return self.span_s[self.names.index(name)] if name in self.names else 0.0

    def write_spans(self, path: Path) -> None:
        """Spans as gzipped TSV: request, span, parent, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        firsts = self.request_first_span + [len(self.span_name)]
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("request\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for req in range(len(firsts) - 1):
                for sid in range(firsts[req], firsts[req + 1]):
                    out.write("%d\t%d\t%d\t%s\t%d\t%d\n" % (
                        req, sid, self.span_parent[sid],
                        self.names[self.span_name[sid]],
                        round((self.span_start[sid] - t0) * 1e9),
                        round((self.span_end[sid] - t0) * 1e9)))


def replay(cli, cache, commands, checker, workdir: Path, tracer=None) -> dict:
    """Run `commands` in-process once; check every output.

    Returns the wall time, exit codes, Chern-cache totals and checker
    outcomes.  With a `tracer`, each command is one request of spans.
    """
    codes, outcomes = [], []
    hits = misses = 0
    workdir.mkdir(parents=True, exist_ok=True)
    target = workdir / "output"
    start = time.perf_counter()
    for cmd in commands:
        if tracer is not None:
            tracer.begin_request()
        code, out, err, info = run_inprocess(
            cli, cache, cmd.argv(str(target) if cmd.output else None))
        if cmd.output:
            out = target.read_bytes() if target.exists() else b""
            target.unlink(missing_ok=True)
        hits += info.hits
        misses += info.misses
        codes.append(code)
        outcomes.append(checker.check(cmd, code, out, err))
    return {"wall_s": time.perf_counter() - start, "codes": codes,
            "outcomes": outcomes, "hits": hits, "misses": misses}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced: dict, untraced: dict,
                  import_s: float) -> dict[str, float]:
    """Every per-layer number of the traced replay, keyed by metric name."""
    reports = tracer.count("transform.assemble_report")
    stats = tracer.stats
    selfs = dict(zip(LAYERS, tracer.layer_self_s))
    m = {
        "exactpoly.polys_built": tracer.count("exactpoly.HilbertPolynomial.__init__"),
        "exactpoly.twist.calls": tracer.count("exactpoly.HilbertPolynomial.twist"),
        "exactpoly.self_s": selfs["exactpoly"],
        "p3rr.hp_o_p3.calls": tracer.count("p3rr.hp_o_p3"),
        "p3rr.chern_from_hp.calls": tracer.count("p3rr.chern_from_hp"),
        "p3rr.hp_from_chern.calls": tracer.count("p3rr.hp_from_chern"),
        "p3rr.hp_from_chern.repeat_share": _ratio(
            tracer.repeats["hp_from_chern"][1], tracer.repeats["hp_from_chern"][0]),
        "p3rr.self_s": selfs["p3rr"],
        "families.hp_of_family.calls_per_report": _ratio(
            tracer.count("families.hp_of_family"), reports),
        "families.hp_of_family.repeat_share": _ratio(
            tracer.repeats["hp_of_family"][1], tracer.repeats["hp_of_family"][0]),
        "families.chern_of.hit_ratio": _ratio(
            traced["hits"], traced["hits"] + traced["misses"]),
        "families.self_s": selfs["families"],
        "curvecoh.cohomology_oc.calls": tracer.count("curvecoh.cohomology_oc"),
        "curvecoh.self_s": selfs["curvecoh"],
        "transform.reports": reports,
        "transform.build_report.us_per_report": 1e6 * _ratio(
            tracer.span_total("transform.build_report"),
            tracer.count("transform.build_report")),
        "transform.check_conditions.calls_per_report": _ratio(
            tracer.count("transform.check_conditions"), reports),
        "transform.chi_l.calls_per_report": _ratio(
            tracer.count("transform.chi_l"), reports),
        "transform.self_s": selfs["transform"],
        "atlas.enumerate_components.calls": tracer.count("atlas.enumerate_components"),
        "atlas.solve_sabc.accept_ratio": _ratio(
            stats["solve_accepted"], stats["solve_candidates"]),
        "atlas.verify_module_invariants.s": tracer.span_total("atlas.verify_module_invariants"),
        "atlas.self_s": selfs["atlas"],
    }
    for fmt in ("json", "csv", "table"):
        render_s = sum(tracer.span_total("render." + f)
                       for f, f_fmt in RENDER_FORMATS.items() if f_fmt == fmt)
        m["render.us_per_report.%s" % fmt] = 1e6 * _ratio(
            render_s, stats["reports_rendered"][fmt])
    m["render.bytes_out"] = stats["bytes_out"]
    m["render.self_s"] = selfs["render"]
    m["cli.import_s"] = import_s
    # main is the only public function of cli, so its self time is the layer's.
    m["cli.main.self_s"] = selfs["cli"]
    for code in (0, 2, 3):
        m["cli.exit_codes.%d" % code] = traced["codes"].count(code)
    m["trace.spans"] = len(tracer.span_name)
    m["trace.overhead_ratio"] = _ratio(traced["wall_s"], untraced["wall_s"])
    return m
