"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root)::

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/results/baseline.json

For every workload in BENCHMARK.json and every seed it runs
``perfbench/run.py`` as its own process, as on the command line, then
prints each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median) beside the
metric's bound.  One traced run per workload (the first seed) adds the
per-layer metrics.  Seeds run interleaved across workloads, so a slow
spell of the machine does not land on one workload only.  Exits 1 if a
run fails, reports a wrong output, or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    """``1-10``: the seeds 1 to 10."""
    lo, hi = text.split("-", 1)
    return list(range(int(lo), int(hi) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark process; returns its result line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported wrong output")
    return result


def summarise(values: list[float]) -> dict:
    """Median, quartiles and relative interquartile spread."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--out", type=pathlib.Path,
                        help="write the summary as JSON here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            runs[name].append(run_once(name, seed, seconds, 0))
            print(f"{name} seed {seed} done", file=sys.stderr, flush=True)

    ok = True
    summary: dict[str, dict] = {}
    for name in names:
        metrics = {}
        print(f"\n{name}  ({len(args.seeds)} seeds, {seconds} s each)")
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for metric, bound in bounds.items():
            stats = summarise([r["metrics"][metric]["value"]
                               for r in runs[name]])
            stats["unit"] = runs[name][0]["metrics"][metric]["unit"]
            stats["bound"] = bound
            metrics[metric] = stats
            flag = ""
            if stats["spread"] > bound:
                flag, ok = "  OVER BOUND", False
            elif stats["spread"] > bound / 3:
                flag = "  over a third of bound"
            print(f"  {metric:22s} {stats['median']:12.6g} "
                  f"{stats['q1']:12.6g} {stats['q3']:12.6g} "
                  f"{stats['spread']:8.4f} {bound:6.2f}{flag}")
        summary[name] = {"end_to_end": metrics}
        traced = run_once(name, args.seeds[0], seconds, 1)
        summary[name]["per_layer"] = {
            k: v["value"] for k, v in traced["metrics"].items()}
        summary[name]["per_layer_seed"] = args.seeds[0]

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "recorded": datetime.date.today().isoformat(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "run_seconds": seconds,
            "seeds": args.seeds,
            "workloads": summary,
        }, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
