"""Outside-in tracing of wavelab1d, installed from the benchmark.

The tracer replaces the package's public functions with wrappers, in every
wavelab1d module that holds them by name (``cli`` and ``experiments``
import ``evolve``, ``compute_densities``, ``interaction_q`` and
``write_csv`` by name, so patching only the defining module would miss
those calls).  Each call made inside a traced op records one span
``(span_id, name, parent_id, start, end, round_id)`` in memory; the spans
are written out when the run ends.  Calls made outside a traced op pass
straight through.

A span's self time is its duration minus the durations of its direct
children.  Every span name maps to one per-layer time metric, and the root
span of each op is itself a span, so the self times of one op add up
exactly to the op's traced wall time.  Counting done by the tracer (rows
written, nonzero nodes) runs inside ``trace.bookkeeping`` spans, so it is
kept out of the layer it measures and shows up as tracing overhead.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> per-layer self-time metric
SELF_TIME_METRIC = {
    "op": "experiments.runner_self_s",
    "experiments.observer": "experiments.runner_self_s",
    "solver.evolve": "solver.step_s",
    "solver.record": "solver.record_s",
    "solver.level_sink": "solver.record_s",
    "energy.compute_densities": "energy.s",
    "energy.interval_energy": "energy.s",
    "energy.conserved_pair": "energy.s",
    "energy.cone_energy": "energy.s",
    "energy.light_cone_energy": "energy.s",
    "energy.norms": "energy.s",
    "energy.morawetz_accumulator": "energy.s",
    "interaction.q_prefix_sum": "interaction.q_s",
    "interaction.q_brute_force": "interaction.brute_s",
    "interaction.virial_check": "interaction.virial_s",
    "flux.flux_loop": "flux.loop_s",
    "flux.trapezoid_check": "flux.trapezoid_s",
    "dalembert.picard_fixed_point": "dalembert.picard_s",
    "selfsimilar.integrate_profile": "selfsimilar.integrate_s",
    "selfsimilar.semi_energy": "selfsimilar.post_s",
    "selfsimilar.ray_energy_decay": "selfsimilar.post_s",
    "csvio.write_csv": "csvio.write_s",
    "csvio.write_json": "csvio.write_s",
    "manifest.sha256_file": "manifest.hash_s",
    "manifest.sha256_bytes": "manifest.hash_s",
    "config.resolve": "config.resolve_s",
    "grid.sample": "grid.sample_s",
    "trace.bookkeeping": "trace.bookkeeping_s",
}

# counts per traced op that must repeat exactly from op to op
EXACT_COUNTS = (
    "solver.node_steps", "solver.evolve_calls", "solver.trajectory_bytes",
    "energy.calls", "flux.loop_calls", "dalembert.iterations",
    "dalembert.levels_bytes", "selfsimilar.accepted_steps",
    "selfsimilar.rejected_steps", "csvio.rows", "csvio.bytes",
    "manifest.bytes_hashed", "trace.spans",
)
# byte counts follow the shortest-repr length of each float written, so they
# move with the seeded input values; every other exact count must not
SEEDED_COUNTS = ("csvio.bytes", "manifest.bytes_hashed")

# every per-layer metric with its unit, in report order
PER_LAYER_UNITS = {
    "solver.node_steps": "count",
    "solver.evolve_calls": "count",
    "solver.step_s": "s",
    "solver.node_steps_per_s": "1/s",
    "solver.active_fraction": "ratio",
    "solver.record_s": "s",
    "solver.trajectory_bytes": "B",
    "energy.calls": "count",
    "energy.s": "s",
    "interaction.q_s": "s",
    "interaction.brute_s": "s",
    "interaction.virial_s": "s",
    "flux.loop_calls": "count",
    "flux.loop_s": "s",
    "flux.trapezoid_s": "s",
    "dalembert.picard_s": "s",
    "dalembert.iterations": "count",
    "dalembert.levels_bytes": "B",
    "selfsimilar.integrate_s": "s",
    "selfsimilar.accept_ratio": "ratio",
    "selfsimilar.accepted_steps": "count",
    "selfsimilar.rejected_steps": "count",
    "selfsimilar.post_s": "s",
    "csvio.write_s": "s",
    "csvio.rows": "count",
    "csvio.bytes": "B",
    "manifest.hash_s": "s",
    "manifest.bytes_hashed": "B",
    "experiments.runner_self_s": "s",
    "config.resolve_s": "s",
    "grid.sample_s": "s",
    "trace.bookkeeping_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.round_id = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []
        # per round: name -> value, for counts the spans cannot give
        self.counts: dict[int, dict] = defaultdict(lambda: defaultdict(float))
        # per round: list of (node_steps, active fraction) per evolve call
        self.activity: dict[int, list] = defaultdict(list)

    # -- spans ---------------------------------------------------------

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _exit(self, name, sid, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, parent, start, end, self.round_id))

    def run_op(self, fn):
        """Run one op as a root span; returns fn()."""
        sid, parent, start = self._enter()
        try:
            return fn()
        finally:
            self._exit("op", sid, parent, start)

    def call(self, name, fn, *args, **kwargs):
        if not self._stack:
            return fn(*args, **kwargs)
        sid, parent, start = self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, sid, parent, start)

    def count(self, name, value=1.0):
        self.counts[self.round_id][name] += value

    def bookkeeping(self, fn, *args):
        """Run tracer-side counting in its own span."""
        return self.call("trace.bookkeeping", fn, *args)

    # -- patching ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement):
        """Rebind ``original`` in every wavelab1d module that holds it by name."""
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "wavelab1d" and not name.startswith("wavelab1d."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def _traced(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None and self._stack:
                self.bookkeeping(after, result, args, kwargs)
            return result
        return wrapper

    def install(self):
        """Patch the package; ``uninstall`` restores every original."""
        # cli imports experiments; both must be loaded before patching, or
        # their by-name imports would keep the wrappers after uninstall
        from wavelab1d import (cli, csvio, dalembert, energy, flux, grid,  # noqa: F401
                               interaction, manifest, selfsimilar, solver)
        from wavelab1d import config as config_mod

        plain = [
            (energy, "compute_densities", None),
            (energy, "interval_energy", None),
            (energy, "conserved_pair", None),
            (energy, "cone_energy", None),
            (energy, "light_cone_energy", None),
            (energy, "norms", None),
            (energy, "morawetz_accumulator", None),
            (interaction, "virial_check", None),
            (flux, "flux_loop", None),
            (flux, "trapezoid_check", None),
            (dalembert, "picard_fixed_point", self._after_picard),
            (selfsimilar, "integrate_profile", self._after_integrate),
            (selfsimilar, "semi_energy", None),
            (selfsimilar, "ray_energy_decay", None),
            (csvio, "write_csv", self._after_write_csv),
            (csvio, "write_json", self._after_write),
            (manifest, "sha256_file", None),
            (manifest, "sha256_bytes", self._after_sha256_bytes),
            (config_mod, "resolve", None),
        ]
        for module, attr, after in plain:
            original = getattr(module, attr)
            layer = module.__name__.rsplit(".", 1)[1]
            self._replace_everywhere(
                original, self._traced(f"{layer}.{attr}", original, after))

        for attr in ("interaction_q", "pairwise_weighted_distance"):
            original = getattr(interaction, attr)
            self._replace_everywhere(original, self._by_method(original))

        original_evolve = solver.evolve
        self._replace_everywhere(original_evolve, self._evolve(original_evolve))

        record = solver.Trajectory.__dict__["record"].__func__
        self._set(solver.Trajectory, "record",
                  classmethod(self._traced("solver.record", record, self._after_record)))
        sample = grid.InitialData.__dict__["sample"]
        self._set(grid.InitialData, "sample", self._traced("grid.sample", sample))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- wrappers that need their arguments ----------------------------

    def _by_method(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            method = signature.bind(*args, **kwargs).arguments.get("method", "prefix_sum")
            return self.call(f"interaction.q_{method}", fn, *args, **kwargs)
        return wrapper

    def _evolve(self, fn):
        from wavelab1d.solver import Observer, steps_for
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            grid = bound.arguments["grid"]
            n_steps = steps_for(bound.arguments["t_end"], grid.dt)
            seen: dict[float, float] = {}

            def note(state):
                seen[state.t] = np.count_nonzero(state.u) / state.u.size

            def traced_fn(span_name, inner):
                def call(*a):
                    self.bookkeeping(note, a[-1])
                    return self.call(span_name, inner, *a)
                return call

            bound.arguments["observers"] = [
                Observer(obs.times, traced_fn("experiments.observer", obs.fn))
                for obs in bound.arguments.get("observers", ())]
            sink = bound.arguments.get("_level_sink")
            if sink is not None:
                bound.arguments["_level_sink"] = traced_fn("solver.level_sink", sink)
            final = self.call("solver.evolve", fn, *bound.args, **bound.kwargs)
            if not seen and final is not None:
                self.bookkeeping(note, final)
            node_steps = grid.n_nodes * n_steps
            self.count("solver.node_steps", node_steps)
            self.count("solver.evolve_calls")
            if seen:
                self.activity[self.round_id].append(
                    (node_steps, sum(seen.values()) / len(seen)))
            return final
        return wrapper

    # -- counters ------------------------------------------------------

    def _after_record(self, traj, args, kwargs):
        self.count("solver.trajectory_bytes", traj.u_levels.nbytes + traj.v_levels.nbytes)

    def _after_picard(self, result, args, kwargs):
        self.count("dalembert.iterations", result.iterations)
        self.count("dalembert.levels_bytes", result.levels.nbytes)

    def _after_integrate(self, sol, args, kwargs):
        self.count("selfsimilar.accepted_steps", sol.accepted_steps)
        self.count("selfsimilar.rejected_steps", sol.rejected_steps)

    def _after_write(self, path, args, kwargs):
        self.count("csvio.bytes", os.path.getsize(path))

    def _after_write_csv(self, path, args, kwargs):
        self._after_write(path, args, kwargs)
        with open(path, "rb") as fh:
            # fields are numbers, so every line ends a row; the first is the header
            self.count("csvio.rows", fh.read().count(b"\n") - 1)

    def _after_sha256_bytes(self, digest, args, kwargs):
        self.count("manifest.bytes_hashed", len(args[0]))

    # -- reduction -----------------------------------------------------

    def round_metrics(self, round_id) -> dict:
        """Per-layer metrics of one traced op (or validation round)."""
        spans = [s for s in self.spans if s[5] == round_id]
        child_time: dict[int, float] = defaultdict(float)
        for sid, name, parent, start, end, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {name: 0.0 for name in PER_LAYER_UNITS}
        for sid, name, parent, start, end, _ in spans:
            out[SELF_TIME_METRIC[name]] += (end - start) - child_time[sid]
            if name.startswith("energy."):
                out["energy.calls"] += 1
            elif name == "flux.flux_loop":
                out["flux.loop_calls"] += 1
            if parent is None:
                out["trace.wall_s"] += end - start
        out["trace.spans"] = float(len(spans))
        out.update(self.counts[round_id])
        if out["solver.step_s"] > 0.0:
            out["solver.node_steps_per_s"] = out["solver.node_steps"] / out["solver.step_s"]
        activity = self.activity[round_id]
        if activity:
            total = sum(n for n, _ in activity)
            out["solver.active_fraction"] = sum(n * f for n, f in activity) / total
        attempts = out["selfsimilar.accepted_steps"] + out["selfsimilar.rejected_steps"]
        if attempts:
            out["selfsimilar.accept_ratio"] = out["selfsimilar.accepted_steps"] / attempts
        return out

    def write_spans(self, path, run_id):
        with open(path, "w") as fh:
            for sid, name, parent, start, end, round_id in self.spans:
                fh.write(json.dumps({"run": run_id, "round": round_id, "id": sid,
                                     "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")
