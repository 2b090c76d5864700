"""Benchmark of the `ftdesigns` command on three workloads.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Each run is one process and one workload: a closed loop with a
single caller that calls `ftdesigns.cli.main(argv)` in-process and sends the
next command only when the previous one has returned.

A run is a number of passes fixed by the workload and `--seconds` (about
`--seconds` of work on the reference machine), so every version of the code
does the same work.  Each pass runs the workload's command list on inputs of
its own, generated from the seed.  After each command, outside the timed
region, its output is hashed and checked; a failed check counts against the
run, it does not stop it.  Times are scaled to a reference machine speed
sampled between commands (harness.SpeedProbe).

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs every pass
twice, untraced and then traced, and reports the per-layer metrics from the
traced copies (see tracing.py).  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import harness
import tracing
import workloads
from harness import Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 5


def _no_check(rc, chunks):
    return []


@dataclass(frozen=True)
class Workload:
    # (seed, passes, directory for files, src) -> the commands of each pass
    make_plan: Callable
    # Seconds one pass takes on the reference machine; sets the pass count.
    nominal_pass_s: float
    # Fewest passes: enough commands (40) that the tail lies above p50.
    min_passes: int
    warmup: list


WORKLOADS = {
    "certify": Workload(workloads.certify_plan, 3.0, 2,
                        ["construct", "--name", "line1_psl25"]),
    "eliminate": Workload(workloads.eliminate_plan, 8.5, 4,
                          ["eliminate", "--family", "suzuki",
                           "--q-min", "8", "--q-max", "8"]),
    "feasible": Workload(workloads.feasible_plan, 0.8, 2,
                         ["feasible", "--v", "1000"]),
}

END_TO_END = {
    "wall_s": "s", "cmd_s_p50": "s", "cmd_s_tail": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "ratio",
}

# Per-layer metrics: name -> unit.  Times are seconds per pass, counts are
# per pass, so runs of different length compare.
PER_LAYER = {
    "perm.build_s": "s", "perm.build_calls": "count",
    "perm.base_len": "count", "perm.strong_gens": "count",
    "perm.primitivity_s": "s", "perm.primitivity_calls": "count",
    "incidence.load_s": "s", "incidence.verify_s": "s",
    "incidence.pairs_checked": "count", "incidence.aut_s": "s",
    "incidence.flag_s": "s", "incidence.flags": "count",
    "incidence.write_s": "s",
    "constructions.catalog_s": "s", "constructions.orbit_design_s": "s",
    "constructions.blocks_built": "count",
    "elimination.sweep_s": "s", "elimination.cases": "count",
    "elimination.branches": "count", "elimination.facts": "count",
    "elimination.to_text_s": "s", "elimination.to_dict_s": "s",
    "arith.prime_powers_s": "s", "arith.prime_powers_calls": "count",
    "arith.cyclotomic_s": "s", "arith.cyclotomic_calls": "count",
    "arith.factorize_s": "s", "arith.factorize_calls": "count",
    "arith.factorize_max_bits": "bits", "arith.divisors_s": "s",
    "arith.divisors_returned": "count",
    "design.enumerate_s": "s", "design.candidates": "count",
    "design.yield": "ratio",
    "cli.out_bytes": "bytes", "cli.commands": "count",
    "cli.exit_nonzero": "count",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "trace.wall_s": "s", "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}

def import_package() -> dict:
    """Import every `ftdesigns` module afresh; returns them by layer name."""
    for name in [m for m in sys.modules
                 if m == "ftdesigns" or m.startswith("ftdesigns.")]:
        del sys.modules[name]
    return {layer: importlib.import_module(f"ftdesigns.{layer}")
            for layer in tracing.LAYERS}


def call_main(mods):
    # Looked up on every call, so a traced pass reaches the wrapped main.
    return lambda argv: mods["cli"].main(argv)


def set_up(workload: Workload, seed: int, passes: int, root: Path):
    """Import the package, generate every pass's inputs, run one warm-up
    command.  Returns (modules, passes)."""
    mods = import_package()
    root.mkdir(parents=True)
    plan = workload.make_plan(seed, passes, root, SRC)
    argv = list(workload.warmup)
    if argv[0] == "construct":
        argv += ["--out", str(root / "warmup.json")]
    harness.run_command(call_main(mods),
                        Command(argv, _no_check, "warmup", plan[0][0].env))
    return mods, plan


def end_to_end(name, seed, plan, results, setup_times, rss, failed):
    """Metrics of an untraced run, plus the human-readable report."""
    cmd_times = [t for r in results for t in r.seconds()]
    attempted = len(cmd_times)
    pct, tail_s = harness.tail_percentile(cmd_times)
    commands = [cmd for cmds in plan for cmd in cmds]
    raw_wall = sum(o.seconds for r in results for o in r.outcomes)
    speeds = [s for r in results for s in r.speeds]
    values = {
        "wall_s": sum(cmd_times),
        "cmd_s_p50": harness.median_by_kind(commands, cmd_times),
        "cmd_s_tail": tail_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
        "ok_frac": 1 - failed / attempted,
    }
    notes = {
        "wall_s": f"all {len(plan)} passes of {len(plan[0])} commands; "
                  f"{raw_wall:.4g} s unscaled",
        "cmd_s_p50": f"median over {len(plan[0])} kinds of command of each "
                     f"one's median over {len(plan)} passes",
        "cmd_s_tail": f"p{pct:.4g} of {attempted} commands "
                      f"({harness.TAIL_MIN_BEYOND} beyond)",
        "setup_s": f"median of {len(setup_times)} set-ups",
        "peak_rss_mb": "ru_maxrss at the end of the timed phase",
        "ok_frac": f"fail_frac = {failed}/{attempted} commands",
    }
    print(f"workload {name}, seed {seed}: closed loop, 1 caller; times scaled "
          f"by machine speed {min(speeds):.3f}..{max(speeds):.3f}")
    for key, value in values.items():
        print(f"  {key:<12} {value:>12.6g} {END_TO_END[key]:<6} {notes[key]}")
    return values


def per_layer(rec, untraced, traced):
    """Per-layer metrics of a traced run, per traced pass."""
    n = len(traced)
    speed = statistics.median(s for r in traced for s in r.speeds)
    self_time, inclusive, calls = rec.reduce()
    # Span "x.f" gives "x.f_s" (outermost calls) and "x.f_calls", where
    # those are metrics; a layer absent from the workload reads 0.
    values = dict.fromkeys(PER_LAYER, 0.0)
    for key, total in ([(f"{s}_s", t / speed) for s, t in inclusive.items()]
                       + [(f"{s}_calls", c) for s, c in calls.items()]
                       + [(f"{k}.self_s", t / speed) for k, t in self_time.items()]
                       + list(rec.counts.items())):
        if key in values:
            values[key] = total / n
    values["cli.commands"] = calls.get("cli.main", 0) / n
    values["arith.factorize_max_bits"] = rec.maxima["arith.factorize_max_bits"]
    tried = rec.counts.get("design.divisors_tried", 0)
    values["design.yield"] = rec.counts["design.candidates"] / tried if tried else 0.0
    values["cli.out_bytes"] = sum(o.out_bytes for r in traced for o in r.outcomes) / n
    traced_s = statistics.median(sum(r.seconds()) for r in traced)
    values["trace.wall_s"] = traced_s
    values["trace.overhead_frac"] = (
        traced_s / statistics.median(sum(r.seconds()) for r in untraced) - 1)
    values["trace.coverage_frac"] = sum(self_time.values()) / sum(
        o.seconds for r in traced for o in r.outcomes)
    split = sorted(((v, k) for k, v in values.items() if k.endswith(".self_s")),
                   reverse=True)
    total = sum(v for v, _ in split)
    print(f"  traced {n} passes; self time by layer "
          f"(share of {total:.4f} s per pass):")
    for v, k in split:
        print(f"    {k:<22} {v:>10.6f} s  {v / total:6.1%}")
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Terminated(BaseException):
    """SIGTERM arrived.  Not an Exception or SystemExit, so the harness does
    not count it as one command's failure, and the work directory is still
    removed on the way out."""


def _terminate(signum, frame):
    raise Terminated


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "ftdesigns" / "cli.py").is_file():
        print(f"bench: no ftdesigns sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    passes = max(workload.min_passes,
                 round(args.seconds / workload.nominal_pass_s))

    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        work = Path(tmp)
        setup_times = []
        for rep in range(SETUPS):
            root = work / f"setup{rep}"
            probe = harness.SpeedProbe()
            probe.sample()
            t0 = time.perf_counter()
            mods, plan = set_up(workload, args.seed, passes, root)
            elapsed = time.perf_counter() - t0
            probe.sample()
            setup_times.append(elapsed / statistics.mean(probe.samples))
            if rep + 1 < SETUPS:
                shutil.rmtree(root)
        main_fn = call_main(mods)
        # Failed commands, as (phase, pass index, command index).
        failed = set()

        def note(phase, j, outs):
            failed.update((phase, j, i) for i, o in enumerate(outs) if o.problems)

        if args.trace == 0:
            results = [harness.run_pass(main_fn, commands) for commands in plan]
            rss = harness.peak_rss_mb()
            for j, r in enumerate(results):
                note("run", j, r.outcomes)
            # Determinism: the faster half of the first pass again, untimed.
            # A traced run repeats every command.
            first = results[0].outcomes
            fast = sorted(range(len(first)), key=lambda i: first[i].seconds)
            fast = fast[:len(fast) // 2]
            bad = harness.digest_mismatches(
                [plan[0][i] for i in fast], [first[i] for i in fast],
                [harness.run_command(main_fn, plan[0][i]) for i in fast])
            failed.update(("run", 0, fast[b]) for b in bad)
            attempted = sum(len(r.outcomes) for r in results)
            metrics = end_to_end(args.workload, args.seed, plan, results,
                                 setup_times, rss, len(failed))
            units = END_TO_END
        else:
            rec = tracing.Recorder()
            untraced, traced = [], []
            for j in range(max(1, math.ceil(len(plan) / 2))):
                untraced.append(harness.run_pass(main_fn, plan[j]))
                patches = tracing.install(rec, mods)
                try:
                    traced.append(harness.run_pass(main_fn, plan[j]))
                finally:
                    patches.undo()
                note("untraced", j, untraced[-1].outcomes)
                note("traced", j, traced[-1].outcomes)
                bad = harness.digest_mismatches(
                    plan[j], untraced[-1].outcomes, traced[-1].outcomes)
                failed.update(("traced", j, i) for i in bad)
            attempted = sum(len(r.outcomes) for r in untraced + traced)
            print(f"workload {args.workload}, seed {args.seed}: traced run")
            metrics = per_layer(rec, untraced, traced)
            units = PER_LAYER

    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)
