"""Interleaved A/B of the repository benchmark: a git revision against
the working tree.

Usage (from anywhere inside the repository)::

    python tools/ab.py REV --workload campaign_table1 --metric trials_per_s \
        --metric setup_s --seed 2 --seconds 30 --pairs 10

REV (a commit, branch or tag; usually the parent) is checked out into a
temporary ``git worktree``, and the working tree's files (tracked and
untracked, minus ignored ones) are copied beside it.  A run's peak RSS
and set-up time shift measurably with the directory path it runs from,
so each side is renamed to one shared path for the length of its runs.
Each pair then runs::

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once on each side, alternating which side goes first, so a slow spell
of the machine lands on both sides alike.  For each ``--metric`` the
tool prints each pair's values and change/base ratio, each side's
median and quartiles, how many pairs the working tree won, and whether
the medians differ by more than the base side's interquartile range --
the bar a performance claim has to clear (docs/performance.md).  It
exits 1 if any run reports a wrong output, and removes both trees
whatever happens.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _better(metric: str) -> str:
    """``"higher"`` or ``"lower"``: the metric's direction in
    BENCHMARK.json (rates are better higher, everything else lower)."""
    try:
        spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        for entry in spec.get("end_to_end", []):
            if entry["name"] == metric:
                return entry["better"]
    except (OSError, ValueError, KeyError):
        pass
    return "higher" if metric.endswith("_per_s") else "lower"


def run_once(tree: pathlib.Path, run_dir: pathlib.Path, args) -> dict:
    """One untraced benchmark run on ``tree``, moved to ``run_dir`` for
    the run; returns its metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    tree.rename(run_dir)
    try:
        proc = subprocess.run(cmd, cwd=run_dir, capture_output=True,
                              text=True)
    finally:
        run_dir.rename(tree)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{tree}: no result line (exit {proc.returncode})"
                         f"\n{proc.stderr}")
    if not result.get("correct"):
        raise SystemExit(f"{tree}: wrong output (exit {proc.returncode})"
                         f"\n{proc.stderr}")
    return {name: result["metrics"][name]["value"] for name in args.metric}


def copy_working_tree(dest: pathlib.Path) -> None:
    """Copy the working tree's tracked and untracked files to ``dest``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], cwd=REPO_ROOT, check=True,
        capture_output=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        source = REPO_ROOT / name
        if source.is_file():   # skips tracked files deleted from the tree
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="the base revision, e.g. HEAD~1")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", required=True, action="append",
                        help="an end-to-end metric, e.g. trials_per_s "
                             "(repeatable)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    root = pathlib.Path(tempfile.mkdtemp(prefix="ab-"))
    base_dir, change_dir, run_dir = root / "base", root / "work", root / "run"
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    try:
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet",
                        str(base_dir), args.rev], cwd=REPO_ROOT, check=True)
        copy_working_tree(change_dir)
        print(f"A/B {args.workload}, seed {args.seed}, {args.seconds:g} s "
              f"per run: base {args.rev} vs working tree")
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(
                    base_dir if side == "base" else change_dir, run_dir, args))
            print(f"pair {pair + 1:>2} ({order[0]} first): " + ", ".join(
                f"{name} {runs['base'][-1][name]:.6g} -> "
                f"{runs['change'][-1][name]:.6g}" for name in args.metric),
                flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force",
                        str(base_dir)], cwd=REPO_ROOT)
        shutil.rmtree(root, ignore_errors=True)
    for name in args.metric:
        summarize(name, [run[name] for run in runs["base"]],
                  [run[name] for run in runs["change"]])
    return 0


def summarize(name: str, base: list[float], change: list[float]) -> None:
    """Print one metric's paired comparison."""
    better = _better(name)
    print(f"\n{name} ({better} is better)")
    print(f"{'pair':>4}  {'base':>12}  {'change':>12}  {'ratio':>6}")
    ratios = [c / b for b, c in zip(base, change)]
    for pair, (b, c, ratio) in enumerate(zip(base, change, ratios), 1):
        print(f"{pair:>4}  {b:>12.6g}  {c:>12.6g}  {ratio:>6.3f}")
    wins = sum((c > b) if better == "higher" else (c < b)
               for b, c in zip(base, change))
    b1, b_med, b3 = quartiles(base)
    c1, c_med, c3 = quartiles(change)
    iqr = b3 - b1
    print(f"base:   median {b_med:.6g}  quartiles [{b1:.6g}, {b3:.6g}]  "
          f"IQR {iqr:.6g}")
    print(f"change: median {c_med:.6g}  quartiles [{c1:.6g}, {c3:.6g}]")
    print(f"ratio:  median {statistics.median(ratios):.3f}  "
          f"range [{min(ratios):.3f}, {max(ratios):.3f}]")
    print(f"wins:   {wins} of {len(ratios)} pairs")
    print(f"medians differ by {abs(c_med - b_med):.6g}: "
          + ("more" if abs(c_med - b_med) > iqr else "NOT more")
          + " than the base IQR")


if __name__ == "__main__":
    sys.exit(main())
