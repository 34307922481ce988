"""Regenerate benchmarks/reference.json: output digests and exact counts.

    python3 benchmarks/record_reference.py [--seeds 0-31]

Runs one iteration of every workload for each seed, refuses to record if
any output check fails, and stores the sha256 digest of every op's outputs
together with the environment the digests depend on.  For seeds 0 and 1 it
also runs a traced iteration and stores the exact per-layer counts, after
checking that the seed-independent ones agree between the two seeds.  Run
it only when outputs are meant to change; the benchmark then compares
every later run against these digests.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import worker  # noqa: E402
from tracing import EXACT_COUNTS, SEEDED_COUNTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-31"))
    args = parser.parse_args(argv)
    worker._import_package()
    env = worker.environment()
    reference = {"environment": env, "digests": {}, "counts": {}}
    (BENCH_DIR / "_work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=BENCH_DIR / "_work"))
    try:
        for workload in WORKLOADS:
            entry = {"fixed": {}, "seeds": {}}
            counts = {}
            for seed in args.seeds:
                traced = seed in args.seeds[:2]
                result = worker.measure(workload, seed, 0.0, traced, work_dir,
                                        ({}, {}, "recording"))
                if result["failed"] or result["count_mismatches"]:
                    print(f"{workload} seed {seed}: {result['failures']} "
                          f"{result['count_mismatches']}", file=sys.stderr)
                    return 1
                fixed = set(result["fixed_ops"])
                entry["seeds"][str(seed)] = {
                    name: d for name, d in result["digests"].items() if name not in fixed}
                entry["fixed"].update(
                    {name: d for name, d in result["digests"].items() if name in fixed})
                if traced:
                    counts[seed] = {k: result["layers"][k] for k in EXACT_COUNTS}
                print(f"{workload} seed {seed}: {result['attempted']} ops checked",
                      flush=True)
            first, second = (counts[s] for s in args.seeds[:2])
            moved = [k for k in EXACT_COUNTS
                     if k not in SEEDED_COUNTS and first[k] != second[k]]
            if moved:
                print(f"{workload}: counts depend on the seed: {moved}", file=sys.stderr)
                return 1
            reference["digests"][workload] = entry
            reference["counts"][workload] = first
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    worker.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
