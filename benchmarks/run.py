"""wavelab1d benchmark: one command for every workload and metric.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  Workloads: concentration-default and
validation (see benchmarks/README.md for why each).

The command times ``setup_s`` over several fresh interpreters (one
discarded warm-up, then the median of five), then runs the workload in one
fresh single-threaded child process for ``--seconds``, prints one line per
metric and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The full result,
with the environment the digests depend on, is written to
``benchmarks/results/<workload>.json``.  Exit status: 0 with a result,
2 on bad arguments or a missing source tree, 3 when the child fails.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOADS = ("concentration-default", "validation")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0   # the whole command must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _timed_probe(cmd, env) -> tuple[float, int]:
    """Spawn-to-exit seconds of one set-up process, and its exit code.

    ``Popen.wait`` with a timeout polls in steps of up to 50 ms, which would
    quantize the time; a blocking wait plus a kill timer keeps it exact.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    timer = threading.Timer(60.0, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    return time.perf_counter() - start, code


def _moved_counts(workload: str, metrics: dict) -> str:
    """The seed-independent exact counts that differ from reference.json."""
    from tracing import SEEDED_COUNTS
    reference = BENCH_DIR / "reference.json"
    if not reference.exists():
        return "no reference file"
    counts = json.loads(reference.read_text())["counts"].get(workload, {})
    moved = [f"{k} {v:g} -> {metrics[k]:g}" for k, v in counts.items()
             if k not in SEEDED_COUNTS and metrics[k] != v]
    return ", ".join(moved) or "unchanged"


def _fail(message: str, code: int) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wavelab1d" / "__init__.py").is_file():
        return _fail(f"no wavelab1d source tree under {ROOT / 'src'}", 2)
    if not args.seconds > 0:
        return _fail("--seconds must be positive", 2)

    began = time.perf_counter()
    env = _child_env()
    base = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed)]

    setup = []
    for i in range(SETUP_SAMPLES + 1):
        elapsed, code = _timed_probe(base + ["--setup-only"], env)
        if code != 0:
            return _fail(f"set-up probe exited {code}", 3)
        if i:   # the first probe also writes bytecode caches
            setup.append(elapsed)

    (BENCH_DIR / "_work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=BENCH_DIR / "_work"))
    try:
        budget = DEADLINE_S - (time.perf_counter() - began)
        child = subprocess.run(
            base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--work-dir", str(work_dir)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        return _fail("workload did not finish in time", 3)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if child.returncode != 0 or not child.stdout.strip():
        return _fail(f"workload process exited {child.returncode}", 3)
    result = json.loads(child.stdout.strip().splitlines()[-1])
    result["setup_samples"] = setup

    walls = result["walls"]
    q1, q3 = _quartiles(walls)
    end_to_end = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
    env_line = " ".join(f"{k}={v}" for k, v in result["environment"].items())
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"environment {env_line}")
    print(f"wall_s median {end_to_end['wall_s']:.4f} s, quartiles {q1:.4f} "
          f"{q3:.4f}, samples {len(walls)}")
    print(f"setup_s median {end_to_end['setup_s']:.4f} s, samples {len(setup)}")
    print(f"peak_rss_mb {end_to_end['peak_rss_mb']:.1f} MB")
    print(f"ops {result['attempted']} ops_failed {result['failed']}")
    print(f"digests {result['digest_status']}")
    for failure in result["failures"]:
        print(f"failed {failure}")

    correct = result["failed"] == 0
    if args.trace:
        from tracing import PER_LAYER_UNITS, SELF_TIME_METRIC
        metrics = result["layers"]
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {PER_LAYER_UNITS[name]}")
        if result["count_mismatches"]:
            correct = False
            print(f"counts that did not repeat: {result['count_mismatches']}")
        print(f"exact counts against the reference: {_moved_counts(args.workload, metrics)}")
        self_sum = sum(metrics[m] for m in set(SELF_TIME_METRIC.values()))
        print(f"self times add up to {self_sum:.4f} s of traced wall_s "
              f"{metrics['trace.wall_s']:.4f} s; untraced wall_s "
              f"{metrics['trace.untraced_wall_s']:.4f} s")
        out = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in metrics.items()}
    else:
        out = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}

    result["metrics"] = out
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
