"""Interleaved parent/change benchmark pairs, summarised as ``BENCH_<pr>.json``.

Usage (from the repository root):

    mkdir /tmp/parent /tmp/change
    git archive HEAD~1 | tar -x -C /tmp/parent     # the parent tree
    git archive HEAD | tar -x -C /tmp/change       # the change tree
    python3 tools/bench_pairs.py --parent /tmp/parent --change /tmp/change \\
        --seed 11 --out BENCH_6.json

For each workload of the parent's ``BENCHMARK.json``, each of ten pairs runs

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0

once in each tree, in fresh processes, and alternates which tree goes first
(the parent in even pairs, the change in odd ones).  S is ``run_seconds``
of the parent's ``BENCHMARK.json``.  Both trees must hold the same
``benchmarks/`` and ``BENCHMARK.json``, so only the program differs.  The
output holds, per workload and side, every run's end-to-end metrics with
their median and quartiles, ops attempted and failed and the digest status;
per workload, the number of pairs the change won on each metric (ties count
for neither side); and the environment the runs reported.  It reads what
``benchmarks/run.py`` prints and the result file it writes, and imports
nothing from either tree.

The pairs of one workload take the better part of twenty minutes, and the
speed of a shared host can drift within that.  So each side and metric also
records ``first5_median`` and ``last5_median``, the medians of its first and
of its last five successful runs.  Drift moves both sides' halves the same
way; a change moves the change's halves away from the parent's in both.
Per workload, ``change_ratio`` gives each metric's change/parent ratio in
every pair where both runs exited 0, with their median and quartiles; a
drift slower than one pair cancels in the ratio.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its metrics, ops and digests."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return {"exit": proc.returncode}
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((tree / "benchmarks" / "results" / f"{workload}.json").read_text())
    return {"exit": 0, "correct": summary["correct"],
            "attempted": summary["attempted"], "failed": summary["failed"],
            "digests": result["digest_status"], "environment": result["environment"],
            "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
            "units": {k: v["unit"] for k, v in summary["metrics"].items()}}


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    half = PAIRS // 2
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "first5_median": statistics.median(values[:half]),
            "last5_median": statistics.median(values[-half:]), "runs": values}


def summarise(runs: list) -> dict:
    ok = [r for r in runs if r["exit"] == 0]
    side = {"runs": len(runs), "exits": sorted({r["exit"] for r in runs}),
            "attempted": sum(r["attempted"] for r in ok),
            "failed": sum(r["failed"] for r in ok),
            "all_correct": len(ok) == len(runs) and all(r["correct"] for r in ok),
            "digests": sorted({r["digests"] for r in ok}),
            "metrics": {}}
    if len(ok) >= 2:
        for name, unit in ok[0]["units"].items():
            side["metrics"][name] = {"unit": unit,
                                     **spread([r["metrics"][name] for r in ok])}
    return side


def completed_pairs(parent: list, change: list) -> list:
    """The (parent, change) pairs in which both runs exited 0."""
    return [(p, c) for p, c in zip(parent, change) if p["exit"] == c["exit"] == 0]


def change_wins(parent: list, change: list) -> dict:
    """Pairs in which the change's metric is lower (every end-to-end metric
    is lower-is-better); pairs with a failed run count for neither."""
    pairs = completed_pairs(parent, change)
    if not pairs:
        return {}
    return {name: sum(c["metrics"][name] < p["metrics"][name] for p, c in pairs)
            for name in pairs[0][0]["metrics"]}


def change_ratio(parent: list, change: list) -> dict:
    """Median and quartiles of the change/parent ratio of each metric over
    the completed pairs; host drift moves both runs of a pair alike."""
    pairs = completed_pairs(parent, change)
    if len(pairs) < 2:
        return {}
    out = {}
    for name in pairs[0][0]["metrics"]:
        ratios = [c["metrics"][name] / p["metrics"][name] for p, c in pairs]
        q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        out[name] = {"median": median, "q1": q1, "q3": q3, "ratios": ratios}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]

    report = {"seed": args.seed, "seconds": seconds, "pairs": PAIRS,
              "command": "python3 benchmarks/run.py --workload W --seed N "
                         "--seconds S --trace 0",
              "order": "parent first in even pairs, change first in odd pairs",
              "environment": None, "workloads": {}}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(trees[side], workload, args.seed, seconds)
                runs[side].append(run)
                shown = {k: round(v, 4) for k, v in run.get("metrics", {}).items()}
                print(f"{workload} pair {i} {side}: exit {run['exit']} {shown}",
                      flush=True)
                if run["exit"] == 0 and report["environment"] is None:
                    report["environment"] = run["environment"]
        report["workloads"][workload] = {
            "parent": summarise(runs["parent"]),
            "change": summarise(runs["change"]),
            "change_wins": change_wins(runs["parent"], runs["change"]),
            "change_ratio": change_ratio(runs["parent"], runs["change"]),
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
