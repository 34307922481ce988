"""One workload in one single-threaded process, as a closed loop of one caller.

    python3 benchmarks/worker.py --workload NAME --seed N --setup-only
    python3 benchmarks/worker.py --workload NAME --seed N --seconds S
                                 --trace 0|1 --work-dir DIR

``--setup-only`` imports the package, resolves the workload's config and
exits: ``run.py`` times that process from spawn to exit as ``setup_s``.
Otherwise the worker repeats iterations of the workload (one CLI run, or
one pass of the validation suite) back to back for about ``--seconds``,
checks every op's outputs, and prints one JSON line with the
timings, op counts, digests and, with ``--trace 1``, the per-layer
metrics.  With tracing on, iterations alternate traced and untraced,
starting traced, so the run measures its own tracing overhead.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
# environment fields the stored digests are only valid under; numpy picks its
# SIMD kernels (exp, power) from the CPU features it detects at run time
DIGEST_ENVIRONMENT = ("python", "numpy", "machine", "cpu_model", "numpy_simd")


def environment() -> dict:
    import numpy as np
    try:
        from numpy._core._multiarray_umath import __cpu_features__
        simd = " ".join(sorted(k for k, on in __cpu_features__.items() if on))
    except ImportError:
        simd = ""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "machine": platform.machine(),
            "cpu_model": cpu or platform.processor(), "nproc": os.cpu_count(),
            "numpy_simd": simd}


def load_reference(workload: str, seed: int, env: dict):
    """(fixed, seeded, status): the stored digests that apply to this run."""
    if not REFERENCE.exists():
        return {}, {}, "no reference file"
    ref = json.loads(REFERENCE.read_text())
    if any(ref["environment"].get(k) != env[k] for k in DIGEST_ENVIRONMENT):
        return {}, {}, "not checked: environment differs from the reference's"
    entry = ref["digests"].get(workload, {})
    seeded = entry.get("seeds", {}).get(str(seed))
    status = "checked" if seeded is not None else f"fixed ops only: seed {seed} not stored"
    return entry.get("fixed", {}), seeded or {}, status


def _import_package():
    import wavelab1d
    src = (ROOT / "src").resolve()
    if src not in Path(wavelab1d.__file__).resolve().parents:
        raise SystemExit(f"wavelab1d imported from {wavelab1d.__file__}, not {src}")


def _release_free_heap():
    """Hand freed heap pages back to the OS between iterations.

    glibc keeps freed heap memory mapped, so without this an iteration's peak
    RSS would include whatever the previous one left behind (up to ~35 MB on
    ``validation``, differing from run to run), which a user's fresh process
    never sees.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):   # not glibc: nothing to trim
        pass


def _run_op(op, tracer):
    """(seconds, ok, detail, digest) of one op; the check is not timed."""
    start = time.perf_counter()
    try:
        value = tracer.run_op(op.call) if tracer is not None else op.call()
    except Exception as exc:  # an op that raises is a failed op, the loop goes on
        elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return elapsed, False, f"raised {type(exc).__name__}: {exc}", None
    elapsed = time.perf_counter() - start
    try:
        ok, detail, digest = op.check(value)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return elapsed, False, f"check raised {type(exc).__name__}: {exc}", None
    return elapsed, ok, detail, digest


def measure(workload, seed, seconds, trace, work_dir: Path, reference) -> dict:
    """Run the closed loop; ``reference`` is ``load_reference``'s triple."""
    import workloads
    from tracing import EXACT_COUNTS, Tracer

    inputs = workloads.prepare(workload, seed)
    fixed_ref, seeded_ref, digest_status = reference
    tracer = Tracer() if trace else None
    walls = {False: [], True: []}
    digests: dict[str, str] = {}
    fixed_ops: set[str] = set()
    attempted = failed = 0
    failures: list[str] = []
    min_rounds = 2 if trace else 1
    costs: list[float] = []   # per iteration, checks and clean-up included
    start = time.perf_counter()
    rnd = 0
    # start another iteration only if a typical one still fits in the budget,
    # so a run lasts about ``seconds`` however slow the machine is that day
    while rnd < min_rounds or (time.perf_counter() - start
                               + statistics.median(costs) <= seconds):
        began = time.perf_counter()
        traced = trace and rnd % 2 == 0
        if traced:
            tracer.round_id = rnd
            tracer.install()
        ctx: dict = {}
        wall = 0.0
        try:
            for op in workloads.ops(workload, inputs, ctx, work_dir / f"round{rnd}"):
                elapsed, ok, detail, digest = _run_op(op, tracer if traced else None)
                wall += elapsed
                if not op.seeded:
                    fixed_ops.add(op.name)
                expected = (seeded_ref if op.seeded else fixed_ref).get(op.name)
                if ok and digest != digests.setdefault(op.name, digest):
                    ok, detail = False, "digest differs from an earlier iteration"
                if ok and expected is not None and digest != expected:
                    ok, detail = False, "digest differs from the stored reference"
                attempted += 1
                if not ok:
                    failed += 1
                    if len(failures) < 10:
                        failures.append(f"round {rnd} {op.name}: {detail}")
        finally:
            ctx.clear()   # free this iteration's results before the next one starts
            _release_free_heap()
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        costs.append(time.perf_counter() - began)
        rnd += 1

    result = {
        "walls": walls[False], "traced_walls": walls[True],
        "attempted": attempted, "failed": failed, "failures": failures,
        "digest_status": digest_status, "digests": digests,
        "fixed_ops": sorted(fixed_ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(), "layers": None, "count_mismatches": [],
    }
    if trace:
        per_round = [tracer.round_metrics(r) for r in range(0, rnd, 2)]
        # means, so the self times still add up to trace.wall_s exactly
        layers = {k: statistics.fmean(m[k] for m in per_round) for k in per_round[0]}
        layers["trace.untraced_wall_s"] = statistics.fmean(walls[False])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        result["layers"] = layers
        result["count_mismatches"] = [
            name for name in EXACT_COUNTS
            if len({m[name] for m in per_round}) > 1]
        spans_path = BENCH_DIR / "results" / f"{workload}.spans.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write_spans(spans_path, f"{workload}-seed{seed}-pid{os.getpid()}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path)
    args = parser.parse_args(argv)
    _import_package()
    import workloads
    if args.setup_only:
        workloads.prepare(args.workload, args.seed)
        return 0
    reference = load_reference(args.workload, args.seed, environment())
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.work_dir, reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
