"""Seeded command lists for the three benchmark workloads.

A workload is a list of `atlas` argv lists (one "pass").  The seed decides
which commands are drawn and in which order; the program only ever sees
the generated argv.  Every command a generator can emit lies inside the
finite universe enumerated by `universe()`, for which `golden.json` holds
the exit code and output digest recorded when the benchmark was defined.

Why the passes look the way they do: the benchmark is compared across
seeds, so each pass must cost the same whatever the seed.  Enumeration
cost grows steeply with k (k=22 costs about four times k=14), so the
`enumerate-sweep` pass keeps a fixed (k, format) set and the seed only
shuffles it and picks which commands write through `--output`.  The cost of
`verify --max-k K` is close to linear in K, so the seed draws an
antithetic pair K, 22 - K.  Every `describe` command costs about one
interpreter start, so `describe-mix` draws freely from its box with a fixed
mix of exit codes.

`BENCHMARKED` names the workloads that BENCHMARK.json lists.  The time
budget for its runs admits two workloads at the longest run length, so
`describe-mix` is left out of it; run.py still runs it on request, for
changes to start-up and the CLI path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FORMATS = ("table", "csv", "json")

# enumerate: every k in 3..30 in every format belongs to the universe.
ENUMERATE_KS = range(3, 31)
# The fixed (k, format) set of one enumerate-sweep pass.  Each k runs in
# more than one format, so report counts can be compared across formats,
# and k = 22 JSON (3 MB) makes rendering a visible share.  The three k = 18
# commands sit in the middle of the cost order, so the median command time
# falls inside one group rather than on the edge between two.  A pass takes
# a few seconds, so a run holds several passes.
SWEEP = ((14, "csv"), (14, "json"), (18, "table"), (18, "csv"), (18, "json"),
         (22, "table"), (22, "json"))
SWEEP_OUTPUT_COMMANDS = 2

# verify: one pass is the pair (K, 22 - K), K drawn from 10..11.
VERIFY_KS = range(10, 15)
VERIFY_PAIR_SUM = 22

# describe: the descriptor box.
DESCRIBE_POINTS = range(0, 7)
# Descriptors per pass of each recorded outcome: exit 0, exit 3 with the
# best-effort report, exit 3 with no report, exit 2.  Fixed counts keep
# the reports per pass the same for every seed.
DESCRIBE_MIX = {"ok": 34, "inadmissible": 9, "inadmissible-silent": 1,
                "malformed": 4}
# Commands that carry the two flagged errata; one of each is in every pass.
ERRATUM_PROBES = (("V:1", "R:2", 0), ("S:1,0,1", "R:3", 1))
# Tags outside the grammar or outside the families' constraints; paired
# with a valid partner they make the usage-error (exit 2) commands.
BAD_REFLEXIVE = ("S:1,2", "S:1,1,0", "V:0", "X:3", "S:a,0,2")
BAD_CURVE = ("R:0", "CI:1,1", "CI:3,2", "R:", "Q:2")
BAD_PARTNER_CURVE = "R:3"
BAD_PARTNER_REFLEXIVE = "S:0,1,0"


def split_tags() -> list[str]:
    """S:a,b,c with kappa = (3a+2b+c)/2 in 1..3."""
    out = []
    for w in (2, 4, 6):
        for a in range(w // 3 + 1):
            for b in range((w - 3 * a) // 2 + 1):
                out.append("S:%d,%d,%d" % (a, b, w - 3 * a - 2 * b))
    return out


REFLEXIVE_TAGS = tuple(split_tags() + ["V:%d" % m for m in range(1, 7)])
CURVE_TAGS = tuple(
    ["R:%d" % d for d in range(1, 9)]
    + ["CI:%d,%d" % (d1, d2)
       for d1 in range(1, 9) for d2 in range(d1, 9)
       if d1 * d2 <= 8 and (d1, d2) not in {(1, 1), (1, 2)}]
)
DESCRIBE_PAIRS = tuple(
    [(r, c) for r in REFLEXIVE_TAGS for c in CURVE_TAGS]
    + [(r, BAD_PARTNER_CURVE) for r in BAD_REFLEXIVE]
    + [(BAD_PARTNER_REFLEXIVE, c) for c in BAD_CURVE]
)


@dataclass(frozen=True)
class Command:
    """One `atlas` invocation.  `output` asks for `--output PATH`."""

    kind: str            # "enumerate" | "verify" | "describe"
    params: tuple        # (k,) | (max_k,) | (reflexive, curve, s)
    fmt: str | None = None
    output: bool = False

    def argv(self, output_path: str | None = None) -> list[str]:
        if self.kind == "enumerate":
            args = ["enumerate", "--c2", str(self.params[0])]
        elif self.kind == "verify":
            args = ["verify", "--max-k", str(self.params[0])]
        else:
            refl, curve, s = self.params
            args = ["describe", "--reflexive", refl, "--curve", curve,
                    "--points", str(s)]
        if self.fmt is not None:
            args += ["--format", self.fmt]
        if self.output:
            if output_path is None:
                raise ValueError("command writes through --output; give a path")
            args += ["--output", output_path]
        return args

    @property
    def key(self) -> str:
        """Identity for golden lookup: the argv without the output path."""
        return " ".join(Command(self.kind, self.params, self.fmt).argv())


def universe() -> list[Command]:
    """Every command any generator can emit, with output to stdout."""
    out = [Command("enumerate", (k,), f) for k in ENUMERATE_KS for f in FORMATS]
    out += [Command("verify", (k,)) for k in VERIFY_KS]
    out += [Command("describe", (r, c, s), f)
            for r, c in DESCRIBE_PAIRS for s in DESCRIBE_POINTS for f in FORMATS]
    return out


def enumerate_sweep(rng: random.Random, outcomes) -> list[Command]:
    cmds = [Command("enumerate", (k,), f) for k, f in SWEEP]
    rng.shuffle(cmds)
    for i in rng.sample(range(len(cmds)), SWEEP_OUTPUT_COMMANDS):
        cmds[i] = Command("enumerate", cmds[i].params, cmds[i].fmt, True)
    return cmds


def verify(rng: random.Random, outcomes) -> list[Command]:
    k = rng.choice(range(min(VERIFY_KS), VERIFY_PAIR_SUM // 2 + 1))
    pair = [k, VERIFY_PAIR_SUM - k]
    rng.shuffle(pair)
    return [Command("verify", (K,)) for K in pair]


def describe_mix(rng: random.Random, outcomes) -> list[Command]:
    """Fixed counts of each recorded outcome, drawn from the box.

    `outcomes` maps (reflexive, curve, s) to its recorded outcome, one of
    the DESCRIBE_MIX keys; it is how the box is split.
    """
    pools = {name: [] for name in DESCRIBE_MIX}
    for params in sorted(outcomes):
        pools[outcomes[params]].append(params)
    picks = list(ERRATUM_PROBES)
    for name, count in DESCRIBE_MIX.items():
        picks += rng.sample(pools[name], count)
    formats = [FORMATS[i % len(FORMATS)] for i in range(len(picks))]
    rng.shuffle(formats)
    cmds = [Command("describe", p, f) for p, f in zip(picks, formats)]
    rng.shuffle(cmds)
    return cmds


WORKLOADS = {
    "enumerate-sweep": enumerate_sweep,
    "verify": verify,
    "describe-mix": describe_mix,
}
BENCHMARKED = ("enumerate-sweep", "verify")


def generate(workload: str, seed: int, outcomes) -> list[Command]:
    """The command list of one pass of `workload` for `seed`.

    `outcomes` is `Golden.describe_outcomes()`, the recorded outcome of
    every describe descriptor.
    """
    rng = random.Random("%s/%d" % (workload, seed))
    return WORKLOADS[workload](rng, outcomes)
