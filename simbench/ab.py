#!/usr/bin/env python3
"""Same-host A/B comparison of two commits with the simbench benchmark.

    python3 simbench/ab.py --base HEAD~1 --change HEAD --work /tmp/ab \\
        [--workloads paper_grid,nmp16] [--pairs 10] [--seed 1]

Exports each commit with `git archive` into its own tree under --work
(which must lie outside the repository), overlays this checkout's
simbench/ directory on both so they run identical benchmark code, and
runs alternating pairs of `simbench/run.py` (base first in even pairs,
change first in odd ones). Each tree builds its own driver on its first
run. For every workload x end-to-end metric it reports both sides'
median and quartiles, the fraction of pairs the change won (ties count
for neither) and a verdict with the metric's bound from BENCHMARK.json:

  better      the change won >= 90% of pairs and the medians differ by
              more than the base's interquartile range
  worse       the change's median is worse than the base's by more than
              the bound
  unresolved  either side's spread (IQR / median) exceeds the bound and
              not every change run beats every base run
  same        none of the above

The last line of stdout is the whole table as one JSON object.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "simbench"


def export_tree(commit, dest):
    """`git archive` @p commit into @p dest, with this simbench/ on top."""
    if not dest.exists():
        dest.mkdir(parents=True)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive,
                       check=True)
    shutil.rmtree(dest / "simbench", ignore_errors=True)
    shutil.copytree(BENCH, dest / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def run_once(tree, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(tree / "simbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"ab: run failed in {tree}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"ab: {tree.name} {workload}: {result['failed']} failed points",
              file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def verdict(base, change, lower_is_better, bound):
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    mb, mc = statistics.median(base), statistics.median(change)
    q1b, q3b, sb = spread(base)
    _, _, sc = spread(change)
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    if wins >= 0.9 * len(base) and abs(mc - mb) > q3b - q1b:
        word = "better"
    elif (sb > bound or sc > bound) and not all_better:
        word = "unresolved"
    elif sign * (mc - mb) > bound * abs(mb):
        word = "worse"
    else:
        word = "same"
    return wins, word


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--work", required=True, type=Path,
                    help="directory outside the repository for both trees")
    ap.add_argument("--workloads", default=None,
                    help="comma list (default: every BENCHMARK.json workload)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = args.work.resolve()
    if work == ROOT or ROOT in work.parents:
        ap.error("--work must lie outside the repository")
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    trees = {"base": work / "base", "change": work / "change"}
    export_tree(args.base, trees["base"])
    export_tree(args.change, trees["change"])

    report = {}
    for workload in workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(trees[side], workload, args.seed,
                                           spec["run_seconds"]))
        print(f"{workload} ({args.pairs} pairs, seed {args.seed}):")
        print(f"  {'metric':<18} {'base median [q1,q3]':>34} "
              f"{'change median [q1,q3]':>34} {'won':>6}  verdict")
        report[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [r[name] for r in runs["base"]]
            change = [r[name] for r in runs["change"]]
            wins, word = verdict(base, change, metric["better"] == "lower",
                                 metric["bound"])
            qb, qc = spread(base), spread(change)
            report[workload][name] = {
                "base_median": statistics.median(base),
                "base_q1": qb[0], "base_q3": qb[1],
                "change_median": statistics.median(change),
                "change_q1": qc[0], "change_q3": qc[1],
                "pairs_won": wins / args.pairs, "verdict": word}
            cell = "{:.5g} [{:.5g},{:.5g}]"
            print(f"  {name:<18} "
                  f"{cell.format(statistics.median(base), qb[0], qb[1]):>34} "
                  f"{cell.format(statistics.median(change), qc[0], qc[1]):>34} "
                  f"{wins:>3}/{args.pairs:<2}  {word}")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
