"""Tracing of mfglab's layer boundaries from outside the package.

`Tracer.install` replaces the public functions of each mfglab module with
wrappers, in every mfglab module that bound them, so `src/` stays unchanged.
A wrapper records a span (name, layer, start, end, parent).  Point-level
boundaries that run hundreds of thousands of times per scenario
(`corrected_gradient` and the built potentials' callables) keep a call count
and, for `corrected_gradient`, a total time instead of a span per call.
Spans stay in memory until `write`; a span's self time is its duration less
its child spans and the point-level time spent directly under it.
"""

from __future__ import annotations

import copy
import importlib
import inspect
import json
import time

LAYERS = ("cli", "experiments", "control", "field", "potentials", "numerics")
POINT_FUNCTIONS = ("corrected_gradient", "corrected_cost", "reminder", "grad_FN", "grad_GN")
POTENTIAL_CALLABLES = ("value", "gradient", "hessian")
CONFIG_METHODS = ("from_file", "from_text", "validate")
BUILDERS = ("potentials.from_name", "potentials.make_zero", "potentials.make_quadratic",
            "potentials.make_logcosh_terminal", "potentials.make_delarue_terminal",
            "potentials.make_radial_terminal", "potentials.make_radial_logcosh")
# Closed-form helpers of control.py's static reduction.  E2, E4 and E5 call
# symmetric_minimizer_root for their target atoms; tracing these as their own
# layer keeps control.* at 0 on workloads that solve no control problem.
STATIC_FUNCTIONS = ("symmetric_minimizer_root", "static_U", "static_U_minimize")
IO_FUNCTIONS = ("field.save_field_binary", "field.load_field_binary",
                "field.export_field_csv_slice", "field.export_ensemble_csv")

# name -> unit of every per-layer metric the tracer computes
UNITS = {
    "control.s": "s", "control.enumerations": "count", "control.shoot_s": "s",
    "control.shoots": "count", "control.shoot_failed": "count",
    "control.useful_ratio": "ratio",
    "field.time_grid_s": "s", "field.solve_s": "s", "field.solves": "count",
    "field.node_steps": "count", "field.node_steps_per_s": "1/s", "field.values_mb": "MB",
    "field.simulate_s": "s", "field.path_steps": "count", "field.path_steps_per_s": "1/s",
    "field.exit_fraction_max": "ratio", "field.oracle_s": "s", "field.io_s": "s",
    "potentials.build_s": "s", "potentials.builds": "count",
    "potentials.corrected_gradient_s": "s", "potentials.corrected_gradient_calls": "count",
    "potentials.evals": "count",
    "numerics.s": "s", "numerics.calls": "count",
    "experiments.config_s": "s", "experiments.build_spec_s": "s", "experiments.self_s": "s",
    "cli.self_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, layer, start, end, parent index, point seconds]
        self.stack = []
        self.point_depth = 0
        self.points = {}     # name -> [calls, seconds]
        self.installed = set()
        self.evals = 0
        self.shoot_failed = 0
        self.stationary = 0
        self.starts = 0
        self.node_steps = 0
        self.values_bytes = 0
        self.path_steps = 0
        self.exit_fraction_max = 0.0

    # --- wrappers ---------------------------------------------------------------

    def _span(self, name, layer, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            return out if after is None else after(args, kwargs, out)

        wrapper.__wrapped__ = fn
        return wrapper

    def _point(self, name, fn):
        cell = self.points.setdefault(name, [0, 0.0])
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            self.point_depth += 1
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t
                self.point_depth -= 1
                cell[0] += 1
                cell[1] += dt
                if self.point_depth == 0 and stack:
                    spans[stack[-1]][5] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn):
        def call(*args, **kwargs):
            self.evals += 1
            return fn(*args, **kwargs)
        return call

    # --- result hooks -----------------------------------------------------------

    def _after_build_spec(self, args, kwargs, spec):
        """Count calls into the built spec's potentials (a copy; the potentials
        keep their other attributes, such as the Delarue r_delta)."""
        spec = copy.copy(spec)
        for which in ("f", "g"):
            pot = copy.copy(getattr(spec, which))
            for attr in POTENTIAL_CALLABLES:
                object.__setattr__(pot, attr, self._counted(getattr(pot, attr)))
            object.__setattr__(spec, which, pot)
        return spec

    def _after_shoot(self, args, kwargs, sol):
        if sol is None:
            self.shoot_failed += 1
        return sol

    def _after_enumerate(self, args, kwargs, sset):
        bound = self._enumerate_sig.bind(*args, **kwargs)
        grid = bound.arguments.get("start_grid")
        if grid is None:
            grid = self._default_start_grid(bound.arguments["spec"], bound.arguments["nu0"])
        self.starts += len(grid)
        self.stationary += len(sset.solutions)
        return sset

    def _after_solve(self, args, kwargs, fld):
        nodes = 1
        for n in fld.grid.shape:
            nodes *= n
        self.node_steps += fld.tgrid.steps * nodes
        self.values_bytes += fld.values.nbytes
        return fld

    def _after_simulate(self, args, kwargs, ens):
        self.path_steps += ens.paths.shape[0] * (ens.paths.shape[1] - 1)
        self.exit_fraction_max = max(self.exit_fraction_max, ens.exit_fraction)
        return ens

    # --- installation -----------------------------------------------------------

    def install(self):
        """Wrap every public function of every mfglab layer module."""
        modules = {layer: importlib.import_module(f"mfglab.{layer}") for layer in LAYERS}
        targets = [importlib.import_module("mfglab")] + list(modules.values())
        control = modules["control"]
        self._enumerate_sig = inspect.signature(control.enumerate_stationary)
        self._default_start_grid = control.default_start_grid
        hooks = {"experiments.build_spec": self._after_build_spec,
                 "control.shoot": self._after_shoot,
                 "control.enumerate_stationary": self._after_enumerate,
                 "field.solve_field": self._after_solve,
                 "field.simulate_ensemble": self._after_simulate}
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                qual = f"{layer}.{name}"
                if layer == "potentials" and name in POINT_FUNCTIONS:
                    wrapped = self._point(qual, fn)
                elif layer == "control" and name in STATIC_FUNCTIONS:
                    wrapped = self._span(qual, "static", fn)
                else:
                    wrapped = self._span(qual, layer, fn, hooks.get(qual))
                for target in targets:
                    if getattr(target, name, None) is fn:
                        setattr(target, name, wrapped)
                self.installed.add(qual)
        cfg_cls = modules["experiments"].ScenarioConfig
        for name in CONFIG_METHODS:
            raw = inspect.getattr_static(cfg_cls, name)
            qual = f"experiments.ScenarioConfig.{name}"
            if isinstance(raw, staticmethod):
                setattr(cfg_cls, name, staticmethod(self._span(qual, "experiments", raw.__func__)))
            else:
                setattr(cfg_cls, name, self._span(qual, "experiments", raw))
            self.installed.add(qual)

    # --- analysis -----------------------------------------------------------------

    def _analyse(self):
        n = len(self.spans)
        dur = [s[3] - s[2] for s in self.spans]
        child = [0.0] * n
        for s, d in zip(self.spans, dur):
            if s[4] >= 0:
                child[s[4]] += d
        selft = [dur[i] - child[i] - self.spans[i][5] for i in range(n)]
        return dur, selft

    def _outermost(self, names):
        """Indices of spans named in `names` with no ancestor also in `names`."""
        out = []
        for i, s in enumerate(self.spans):
            if s[0] not in names:
                continue
            p = s[4]
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][4]
            if p < 0:
                out.append(i)
        return out

    def metrics(self) -> dict:
        """Per-layer metrics; a boundary that no longer exists reads None."""
        dur, selft = self._analyse()
        spans = self.spans

        def has(*names):
            return all(n in self.installed for n in names)

        def count(name):
            return sum(1 for s in spans if s[0] == name) if has(name) else None

        def inclusive(*names):
            return sum(dur[i] for i in self._outermost(set(names))) if has(*names) else None

        def self_of(pred):
            return sum(t for s, t in zip(spans, selft) if pred(s))

        def rate(work, secs):
            return work / secs if secs else 0.0

        cg = self.points.get("potentials.corrected_gradient", [0, 0.0])
        solve_s = self_of(lambda s: s[0] == "field.solve_field")
        simulate_s = inclusive("field.simulate_ensemble")
        configs = {f"experiments.ScenarioConfig.{m}" for m in CONFIG_METHODS}
        return {
            "control.s": self_of(lambda s: s[1] == "control"),
            "control.enumerations": count("control.enumerate_stationary"),
            "control.shoot_s": inclusive("control.shoot"),
            "control.shoots": count("control.shoot"),
            "control.shoot_failed": self.shoot_failed if has("control.shoot") else None,
            "control.useful_ratio": rate(self.stationary, self.starts),
            "field.time_grid_s": inclusive("field.stable_time_grid"),
            "field.solve_s": solve_s,
            "field.solves": count("field.solve_field"),
            "field.node_steps": self.node_steps,
            "field.node_steps_per_s": rate(self.node_steps, solve_s),
            "field.values_mb": self.values_bytes / 1e6,
            "field.simulate_s": simulate_s,
            "field.path_steps": self.path_steps,
            "field.path_steps_per_s": rate(self.path_steps, simulate_s),
            "field.exit_fraction_max": self.exit_fraction_max,
            "field.oracle_s": inclusive("field.riccati_field_oracle"),
            "field.io_s": sum(dur[i] for i in self._outermost(set(IO_FUNCTIONS))),
            "potentials.build_s": sum(dur[i] for i in self._outermost(set(BUILDERS))),
            "potentials.builds": len(self._outermost(set(BUILDERS))),
            "potentials.corrected_gradient_s": cg[1],
            "potentials.corrected_gradient_calls": cg[0],
            "potentials.evals": self.evals,
            "numerics.s": self_of(lambda s: s[1] == "numerics"),
            "numerics.calls": sum(1 for s in spans if s[1] == "numerics"),
            "experiments.config_s": sum(dur[i] for i in self._outermost(configs)),
            "experiments.build_spec_s": inclusive("experiments.build_spec"),
            "experiments.self_s": self_of(lambda s: s[1] == "experiments"),
            "cli.self_s": self_of(lambda s: s[1] == "cli"),
        }

    def write(self, path: str, request: str):
        """Write the spans, point counters and result counts as JSON."""
        _, selft = self._analyse()
        doc = {
            "request": request,
            "spans": [{"name": s[0], "layer": s[1], "start": s[2], "end": s[3],
                       "parent": s[4], "self_s": t} for s, t in zip(self.spans, selft)],
            "points": {k: {"calls": c, "s": t} for k, (c, t) in self.points.items()},
            "potential_evals": self.evals,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
