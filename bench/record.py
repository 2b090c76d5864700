"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/record.py --seeds 1-10 --trace 0 1 --out bench/results/x.json

Every run is its own process (`run.py`), one after another, with the
`run_seconds` of BENCHMARK.json.  For each workload and metric it prints
the median, the quartiles (`statistics.quantiles(values, n=4)`) and the
spread (q3 - q1) / median, next to the metric's bound for end-to-end
metrics.  `--out` also writes the runs and the summary as JSON, with the
Python version, the CPU count and the git commit they were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, trace=trace,
                  process_s=elapsed)
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 7")
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--trace", nargs="+", type=int, default=[0],
                        choices=(0, 1))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs, summary = [], {}
    for trace in args.trace:
        for workload in args.workloads:
            batch = []
            for seed in seed_list(args.seeds):
                batch.append(one_run(workload, seed, args.seconds, trace))
                print(f"{workload} trace={trace} seed={seed}: "
                      f"{batch[-1]['process_s']:.1f} s, "
                      f"failed {batch[-1]['failed']}/{batch[-1]['attempted']}",
                      file=sys.stderr, flush=True)
            runs += batch
            table = {}
            print(f"\n{workload} (trace {trace}, {len(batch)} seeds)")
            for metric in batch[0]["metrics"]:
                values = [r["metrics"][metric]["value"] for r in batch]
                stats = summarise(values)
                stats["unit"] = batch[0]["metrics"][metric]["unit"]
                table[metric] = stats
                bound = bounds.get(metric) if trace == 0 else None
                mark = ""
                if bound is not None:
                    mark = (f"bound {bound:.2f} "
                            f"{'ok' if stats['spread'] < bound / 3 else 'WIDE'}")
                print(f"  {metric:<28} {stats['median']:>12.6g} "
                      f"[{stats['q1']:.6g}, {stats['q3']:.6g}] "
                      f"{stats['unit']:<6} spread {stats['spread']:6.1%} {mark}")
            summary[f"{workload}/trace{trace}"] = table

    if args.out:
        doc = {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "run_seconds": args.seconds,
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "summary": summary,
            "runs": runs,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
