"""Flat ``key = value`` configuration with dotted sections.

Grammar: one ``key = value`` pair per line; ``#`` starts a comment; keys are
dotted lowercase identifiers (``grid.dx``); values are numbers, bare words,
``true``/``false`` or comma-separated number lists.  Unknown keys are
rejected per subcommand, and every physical parameter is validated against
its type invariants.  A resolved ``Config`` holds its values in one
read-only mapping; ``emit`` writes them in canonical sorted order, so
``resolve(sub, parse_text(cfg.emit())) == cfg``.

``resolve`` checks and derives in one fixed order, so a config with several
bad values reports the first fault of the first step:

1. the ranges of single scalar keys (``grid.cfl``, ``grid.dx``, the
   positive and the nonnegative keys, ``run.c`` and ``ode.samples``), then
   the ordering of the flux hexagon and of the trapezoid window, which the
   horizon is read from;
2. the derived domain (``grid.x_min``, ``grid.x_max``) and the sample times;
3. the domain objects (nonlinearity, grid, initial data, profile ODE) and
   the checks that compare several keys or fit one scenario.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import MappingProxyType

from .errors import ParseError, ValidationError
from .flux import check_which
from .grid import GridSpec, InitialData, Nonlinearity
from .selfsimilar import OdeParams, cp_constant
from .solver import DEFAULT_BLOWUP_GUARD

# Each key's default states its type: float, int, bool, str or a tuple of
# floats.  A bare type marks a value computed during resolution.
_NL = {"nl.p": 3.0, "nl.sign": "defocusing"}

_GRID = {"grid.x_min": float, "grid.x_max": float, "grid.dx": 2e-3, "grid.cfl": 1.0}

# InitialData's scalar fields and their defaults; a config file builds only
# the analytic kinds, gaussian unless it says otherwise
_INIT = {"init.kind": "gaussian", **{f"init.{f.name}": f.default for f in fields(InitialData)
                                    if isinstance(f.default, (int, float))}}

# the tolerance of ``_run_scenario``'s conservation gate
_TOL = {"thresholds.conservation_tol": 0.01}


def _run(t_end, sample_every, extra):
    return {"run.t_end": t_end, "run.sample_every": sample_every, "run.t_samples": tuple,
            "run.guard": DEFAULT_BLOWUP_GUARD, **extra}


SCHEMAS: dict[str, dict[str, object]] = {
    # no gate reads the tolerance: the benchmark bounds diagnostics.csv's drift by it
    "simulate": {**_NL, **_GRID, **_INIT, **_TOL, **_run(5.0, 1.0, {"run.eta": 1.0})},
    "decay": {**_NL, **_GRID, **_INIT, **_TOL, **_run(60.0, 5.0, {
        "run.c": 0.5,
        "thresholds.energy_ratio": 0.1,
        "thresholds.norm_ratio": 0.2,
    })},
    "tail": {**_NL, **_GRID, **_INIT, **_TOL, **_run(30.0, 5.0, {
        "run.R": 0.0,
        "run.margin_cells": 3,
    })},
    "retraction": {**_NL, **_GRID, **_INIT, **_TOL, **_run(40.0, 2.0, {
        "run.eta": 2.0,
        "thresholds.retraction_floor": 0.01,
        "thresholds.monotonicity_tol": 1e-8,
    })},
    "conjecture": {**_NL, **_GRID, **_INIT, **_TOL, **_run(40.0, 5.0, {
        "run.eta": 1.0,
        "probe.offset": 0.5,
        "probe.length": 2.0,
        "thresholds.retraction_ratio": 0.1,
        "thresholds.weak_probe_ratio": 0.2,
        "thresholds.strong_probe_ratio": 0.2,
        "thresholds.monotonicity_tol": 1e-8,
    })},
    "focusing": {**_NL, "nl.sign": "focusing", **_GRID,
                 **_INIT, "init.kind": "polynomial_bump", "init.amplitude": 6.0,
                 **_run(20.0, 0.05, {"thresholds.norm_blowup": 1e6})},
    "concentration": {**_NL, **_GRID, **_TOL,
                      **_INIT, "init.kind": "polynomial_bump", "init.center": 3.0,
                      "init.mirror": True,
                      **_run(50.0, 5.0, {
                          "run.q_baseline_time": 5.0,
                          "thresholds.q_floor_ratio": 0.2,
                          "thresholds.evenness_tol": 1e-10,
                      })},
    "flux-check": {
        **_NL, **_GRID, **_INIT,
        "flux.a": -1.0,
        "flux.b": 1.0,
        "flux.h": 0.5,
        "flux.t0": 0.0,
        "flux.which": "plus",
        "thresholds.flux_residual": 1e-4,
        "run.guard": DEFAULT_BLOWUP_GUARD,
    },
    "trapezoid": {
        **_NL, **_GRID, **_INIT,
        "trapezoid.eta": 0.0,
        "trapezoid.t1": 0.0,
        "trapezoid.t2": 1.0,
        "trapezoid.which": "plus",
        "thresholds.trapezoid_residual": 1e-4,
        "run.guard": DEFAULT_BLOWUP_GUARD,
    },
    "selfsimilar": {
        "ode.p": 3.0,
        "ode.a": 1.0,
        "ode.b": 0.0,
        "ode.delta": 1e-4,
        "ode.tol": 1e-10,
        "ode.samples": 4001,
        "ray.R": 1.0,
        "ray.R1": 2.0,
        "ray.t_list": (10.0, 20.0, 40.0, 80.0),
        "thresholds.semi_energy_mono": 1e-8,
    },
    "cp-table": {"cp.p_values": (2.0, 3.0, 5.0)},
}

SUBCOMMANDS = tuple(SCHEMAS)

# the single-key range checks, wherever a schema has the key; every
# thresholds.* key is nonnegative as well
_POSITIVE = ("flux.h", "run.sample_every", "run.guard", "probe.length",
             "thresholds.norm_blowup")
_NONNEGATIVE = ("run.t_end", "flux.t0", "trapezoid.t1", "run.R", "run.margin_cells")


def parse_text(text: str) -> dict[str, str]:
    """Raw key -> value strings; rejects malformed lines and duplicates."""
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParseError(line_no, "expected 'key = value'")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ParseError(line_no, "empty key or value")
        if key in raw:
            raise ParseError(line_no, f"duplicate key {key!r}")
        raw[key] = value
    return raw


def _finite(key: str, value: float) -> float:
    # inf and nan parse as floats, but no key can size or sample with them
    if not math.isfinite(value):
        raise ValidationError(key, "must be finite")
    return value


def _convert(key: str, default, text: str):
    vtype = default if isinstance(default, type) else type(default)
    try:
        if vtype is float:
            return _finite(key, float(text))
        if vtype is int:
            return int(text)
        if vtype is bool:
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(text)
        if vtype is tuple:
            return tuple(_finite(key, float(tok)) for tok in text.split(",") if tok.strip())
        return text
    except ValueError:
        raise ValidationError(key, f"cannot parse {text!r} as {vtype.__name__}")


@dataclass(frozen=True)
class Config:
    """Fully resolved configuration for one subcommand."""

    subcommand: str
    values: MappingProxyType

    def __getitem__(self, key):
        return self.values[key]

    def emit(self) -> str:
        lines = []
        for key, value in sorted(self.values.items()):
            if isinstance(value, tuple):
                rendered = ",".join(repr(float(v)) for v in value)
            elif isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, float):
                rendered = repr(value)
            else:
                rendered = str(value)
            lines.append(f"{key} = {rendered}")
        return "\n".join(lines) + "\n"

    # -- domain object builders ---------------------------------------

    def nonlinearity(self) -> Nonlinearity:
        return Nonlinearity(p=self["nl.p"], sign=self["nl.sign"])

    def initial_data(self) -> InitialData:
        """The ``init.*`` keys as the ``InitialData`` fields of the same names."""
        kind = self["init.kind"]
        if kind not in ("gaussian", "polynomial_bump"):
            raise ValidationError("init.kind",
                                  f"{kind!r} cannot be built from a config file")
        return InitialData(**{k[len("init."):]: v for k, v in self.values.items()
                              if k.startswith("init.")})

    def grid(self) -> GridSpec:
        x_min, x_max, dx = self["grid.x_min"], self["grid.x_max"], self["grid.dx"]
        span = x_max - x_min
        n_cells = round(span / dx)
        if n_cells < 2 or abs(n_cells * dx - span) > 1e-6 * span:
            raise ValidationError("grid.dx", "dx does not divide the domain span")
        return GridSpec(x_min=x_min, x_max=x_max, n_cells=n_cells, cfl=self["grid.cfl"])

    def ode_params(self) -> OdeParams:
        return OdeParams(p=self["ode.p"], a=self["ode.a"], b=self["ode.b"],
                         delta=self["ode.delta"], tol=self["ode.tol"])

    def horizon(self) -> float:
        """The time a run steps to: the flux hexagon's top, trapezoid.t2 or run.t_end."""
        if "flux.t0" in self.values:
            return self["flux.t0"] + 2.0 * self["flux.h"]
        if "trapezoid.t2" in self.values:
            return self["trapezoid.t2"]
        return self["run.t_end"]

    def thresholds(self) -> dict:
        return {k.split(".", 1)[1]: v for k, v in self.values.items()
                if k.startswith("thresholds.")}


def resolve(subcommand: str, raw: dict[str, str] | None = None,
            overrides: dict[str, str] | None = None) -> Config:
    """Fill defaults and convert types, then check and derive in the module's order."""
    if subcommand not in SCHEMAS:
        raise ValidationError("subcommand", f"unknown subcommand {subcommand!r}")
    schema = SCHEMAS[subcommand]
    merged: dict[str, str] = {**(raw or {}), **(overrides or {})}

    d: dict[str, object] = {}
    for key, text in merged.items():
        if key == "scenario":
            if text != subcommand:
                raise ValidationError("scenario", f"config says {text!r}, running "
                                      f"{subcommand!r}")
            continue
        if key not in schema:
            raise ValidationError(key, f"unknown key for {subcommand!r}")
        d[key] = _convert(key, schema[key], text)
    for key, default in schema.items():
        d.setdefault(key, None if isinstance(default, type) else default)
    # the proxy shows the derived values written into ``d`` below, so the
    # derivation can already call the Config's builders
    cfg = Config(subcommand=subcommand, values=MappingProxyType(d))

    # 1. single-key ranges, then the flux hexagon and the trapezoid window
    if "grid.cfl" in d and not 0.0 < d["grid.cfl"] <= 1.0:
        raise ValidationError("grid.cfl", "cfl in (0,1]")
    if "grid.dx" in d and not d["grid.dx"] > 0.0:
        raise ValidationError("grid.dx", "dx must be a positive number")
    for key in _POSITIVE:
        if key in d and not d[key] > 0.0:
            raise ValidationError(key, "must be positive")
    for key in (*_NONNEGATIVE, *(k for k in schema if k.startswith("thresholds."))):
        if key in d and d[key] < 0:
            raise ValidationError(key, "must be nonnegative")
    if "run.c" in d and not 0.0 < d["run.c"] < 1.0:
        raise ValidationError("run.c", "speed fraction in (0,1)")
    if "ode.samples" in d and d["ode.samples"] < 2:
        raise ValidationError("ode.samples", "need at least two samples")
    if "flux.a" in d and not d["flux.a"] < d["flux.b"]:
        raise ValidationError("flux.b", "must exceed flux.a")
    if "trapezoid.t1" in d and not d["trapezoid.t1"] < d["trapezoid.t2"]:
        raise ValidationError("trapezoid.t2", "must exceed trapezoid.t1")

    # 2. the derived domain and sample times
    if "grid.dx" in d:
        unset = [k for k in ("grid.x_min", "grid.x_max") if d[k] is None]
        if len(unset) == 1:
            raise ValidationError(unset[0], "set grid.x_min and grid.x_max together")
        if unset:
            support = cfg.initial_data().support_interval()
            radius = max(abs(support[0]), abs(support[1])) if support else 1.0
            # the lattice support cone spreads one cell per step, i.e. at
            # speed 1/cfl, so undersize domains would trip DomainTooSmall
            half = radius + cfg.horizon() / d["grid.cfl"] + 2.0
            n_half = int(math.ceil(half / d["grid.dx"] - 1e-9))
            d["grid.x_min"] = -n_half * d["grid.dx"]
            d["grid.x_max"] = n_half * d["grid.dx"]
    if "run.t_end" in d:
        if d["run.t_samples"] is None:
            t_end, every = d["run.t_end"], d["run.sample_every"]
            n = int(math.floor(t_end / every + 1e-9))
            samples = [round(i * every, 12) for i in range(n + 1)]
            if samples[-1] < t_end - 1e-9:
                samples.append(t_end)
            d["run.t_samples"] = tuple(samples)
        if not d["run.t_samples"] or min(d["run.t_samples"]) < 0.0:
            raise ValidationError("run.t_samples",
                                  "need at least one sample time, none negative")

    # 3. the domain objects, and the checks across keys
    if "nl.p" in d:
        cfg.nonlinearity()
    if "grid.dx" in d:
        cfg.grid()
        cfg.initial_data()
    if subcommand == "concentration":
        if not d["init.mirror"]:
            raise ValidationError("init.mirror",
                                  "concentration needs even (mirrored) data")
        if d["init.velocity_fraction"] != 0.0:
            raise ValidationError("init.velocity_fraction",
                                  "nonzero velocity breaks evenness")
    if subcommand == "focusing" and d["nl.sign"] != "focusing":
        raise ValidationError("nl.sign", "focusing scenario needs nl.sign = focusing")
    if subcommand in ("decay", "retraction", "conjecture", "concentration", "tail",
                      "flux-check", "trapezoid") and d["nl.sign"] == "focusing":
        raise ValidationError("nl.sign", "directional energy scenarios are defocusing")
    for key in ("flux.which", "trapezoid.which"):
        if key in d:
            check_which(d[key], key)
    if "ode.p" in d:
        # OdeParams names ode.p if p <= 1; C_p must not overflow a float
        cp_constant(cfg.ode_params().p, "ode.p")
    if "ray.R" in d and not 0.0 < d["ray.R"] < d["ray.R1"]:
        raise ValidationError("ray.R", "need 0 < R < R1")
    if "ray.t_list" in d:
        ts = d["ray.t_list"]
        if not ts or ts[0] < 0.0 or any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValidationError("ray.t_list", "need one or more increasing times >= 0")
        # the ray x = t + R starts at y = t / (t + R), where the profile must reach
        y_max = cfg.ode_params().y_max
        if any(t / (t + d["ray.R"]) > y_max + 1e-12 for t in ts):
            raise ValidationError("ray.t_list",
                                  f"t / (t + ray.R) must not exceed 1 - ode.delta = {y_max:g}")
    if "cp.p_values" in d:
        if not d["cp.p_values"]:
            raise ValidationError("cp.p_values", "need at least one p")
        for p in d["cp.p_values"]:
            cp_constant(p, "cp.p_values")
    return cfg
