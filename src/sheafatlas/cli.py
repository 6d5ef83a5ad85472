"""Command-line front end.

Three subcommands: `enumerate` lists every component for a target c2,
`describe` prints the full report for a single descriptor, and `verify`
runs the invariant suites.  Exit codes are stable: 0 on success, 1 when
`verify` finds a failing check, 2 on a usage error (including an
unwritable --output path or stdout), 3 when a descriptor is inadmissible
(the report is still printed; stderr says why: a failing verdict or a
curve below the degree floor), 4 when the run exhausts memory, and 130 on
Ctrl-C (both with one line on stderr and no traceback).
Output is deterministic; no environment variables or randomness are
consulted.

`enumerate` writes each report as the walk builds it, to stdout or to the
--output file, which is opened before the walk starts.  So a run that ends
with exit 2 (a failed write), 4 or 130 part-way through may leave a prefix
of the output, on stdout or in the file.  `describe` and `verify` compute
their whole output before writing any of it.
"""

from __future__ import annotations

import argparse
import sys

from . import atlas as atlas_mod
from . import render, transform
from .families import clear_chern_cache
from .transform import ComponentDescriptor, canonical_int

USAGE_ERROR = 2
INADMISSIBLE = 3
OUT_OF_MEMORY = 4
INTERRUPTED = 130


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atlas",
        description="enumerate and certify moduli components of rank-2 "
                    "sheaves on P^3 built by elementary transformations",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--min-curve-degree", type=canonical_int,
                       default=transform.DEFAULT_MIN_CURVE_DEGREE, metavar="D",
                       help="curve-degree floor (default %(default)s)")
        p.add_argument("--format", choices=("table", "json", "csv"),
                       default="table", help="output format")
        p.add_argument("--output", metavar="PATH", default=None,
                       help="write output to PATH instead of stdout")

    p_enum = sub.add_parser("enumerate", help="list all components for a c2")
    p_enum.add_argument("--c2", type=canonical_int, required=True,
                        metavar="K", help="target second Chern class (k >= 3)")
    add_common(p_enum)

    p_desc = sub.add_parser("describe", help="report for one descriptor")
    p_desc.add_argument("--reflexive", required=True, metavar="S:a,b,c|V:m")
    p_desc.add_argument("--curve", required=True, metavar="R:d|CI:d1,d2")
    p_desc.add_argument("--points", type=canonical_int, required=True,
                        metavar="S")
    add_common(p_desc)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("--max-k", type=canonical_int, default=12,
                          metavar="K", help="verify atlases for 3 <= c2 <= K")
    p_verify.add_argument("--output", metavar="PATH", default=None)

    return parser


def _emit(write, path: str | None, code: int) -> int:
    """Call write(stream) on stdout, or on the file at `path`, opened
    first; returns `code`, or USAGE_ERROR if opening or writing fails,
    as when stdout is closed (sys.stdout is None)."""
    try:
        if path is None:
            if sys.stdout is None:
                raise OSError("stdout is closed")
            write(sys.stdout)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as handle:
                write(handle)
    except OSError as exc:
        print("error: cannot write output: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    return code


def _run_enumerate(args) -> int:
    try:
        opts = atlas_mod.EnumerationOptions(
            k=args.c2, min_curve_degree=args.min_curve_degree)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    return _emit(lambda out: render.write_atlas(
        opts, atlas_mod.iter_components(opts), args.format, out),
        args.output, 0)


def _emit_report(report, args, code: int) -> int:
    """Write render.report_<format>(report), e.g. render.report_json(report)."""
    text = getattr(render, "report_" + args.format)(report)
    return _emit(lambda out: out.write(text), args.output, code)


def _run_describe(args) -> int:
    try:
        reflexive = transform.parse_reflexive(args.reflexive)
        curve = transform.parse_curve(args.curve)
        descriptor = ComponentDescriptor(reflexive, curve, args.points)
        min_degree = transform.check_curve_degree_floor(args.min_curve_degree)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    try:
        report = transform.build_report(descriptor,
                                        min_curve_degree=min_degree)
    except transform.InadmissibleDescriptor as exc:
        # Best-effort report so the failing verdicts are visible.
        try:
            report = transform.assemble_report(descriptor)
        except ValueError:
            print("inadmissible descriptor: %s" % exc, file=sys.stderr)
            for v in transform.check_conditions(descriptor):
                print(render.verdict_line(v), file=sys.stderr)
            return INADMISSIBLE
        code = _emit_report(report, args, INADMISSIBLE)
        print("inadmissible: %s" % exc, file=sys.stderr)
        return code
    return _emit_report(report, args, 0)


def _run_verify(args) -> int:
    if args.max_k < 3:
        print("error: --max-k must be at least 3", file=sys.stderr)
        return USAGE_ERROR
    summaries = [
        atlas_mod.verify_atlas(atlas_mod.EnumerationOptions(k=k))
        for k in range(3, args.max_k + 1)
    ]
    module_checks = atlas_mod.verify_module_invariants()
    text = render.verification_text(summaries, module_checks)
    ok = all(s.ok for s in summaries) and all(
        c.failed == 0 for c in module_checks)
    text += "overall: %s\n" % ("PASS" if ok else "FAIL")
    return _emit(lambda out: out.write(text), args.output, 0 if ok else 1)


def main(argv=None) -> int:
    try:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return USAGE_ERROR if exc.code else 0
        if args.subcommand == "enumerate":
            return _run_enumerate(args)
        if args.subcommand == "describe":
            return _run_describe(args)
        return _run_verify(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return INTERRUPTED
    except MemoryError:
        pass
    # Reported after the handler, which would keep the failed run's frames,
    # and the data they hold, alive while printing needs memory.  The
    # chern_of cache outlives them, so it is emptied first.
    clear_chern_cache()
    print("error: out of memory", file=sys.stderr)
    return OUT_OF_MEMORY


if __name__ == "__main__":
    sys.exit(main())
