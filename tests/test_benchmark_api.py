"""The package names that the benchmark under ``benchmarks/`` patches and calls.

A refactor that renames or removes one of them fails here instead of in the
benchmark's ops.  The benchmark's modules are loaded from their files and
nothing is written next to them.
"""
import importlib.util
import sys
from pathlib import Path

from wavelab1d import GridSpec, InitialData, Nonlinearity, cli, solver  # noqa: F401

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}",
                                                  BENCH_DIR / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _bindings():
    """Every module-level and patched class-level binding of the package
    (``cli`` is imported above, so installing the tracer imports nothing new)."""
    out = {(name, attr): value for name, module in list(sys.modules.items())
           if name == "wavelab1d" or name.startswith("wavelab1d.")
           for attr, value in vars(module).items()}
    out["Trajectory.record"] = vars(solver.Trajectory)["record"]
    out["InitialData.sample"] = vars(InitialData)["sample"]
    return out


def test_tracer_installs_and_restores_every_patch():
    before = _bindings()
    tracer = _load("tracing").Tracer()
    tracer.install()
    try:
        # a traced evolve binds its arguments by name
        seen = []
        tracer.run_op(lambda: solver.evolve(
            InitialData.gaussian(), GridSpec(-8.0, 8.0, 160), Nonlinearity(p=3.0), 0.2,
            observers=[solver.Observer((0.0, 0.2), seen.append)]))
        assert len(seen) == 2
        assert tracer.counts[tracer.round_id]["solver.evolve_calls"] == 1
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_workloads_prepare():
    workloads = _load("workloads")
    for name in workloads.WORKLOADS:
        assert workloads.prepare(name, 0)
