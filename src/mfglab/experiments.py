"""Config-driven batch scenarios tying the solvers into reportable experiments.

Each scenario produces a ScenarioReport: one CSV row per N (or per epsilon)
carrying its seed and the config hash for replay, plus a list of named
verdicts checked against fixed thresholds.  Verdict logic is pure: the same
report always yields the same pass/fail outcome, read back from its columns.

E1, E2, E4 and E5 run one sweep (`_sweep`): per N or eps it solves the
field with `field_for`, which `mfglab field solve` uses too, runs the
Euler-Maruyama ensemble on it and measures the terminal law; only E1, which
measures the mean path, keeps every node of the paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .control import differentiability_probe, enumerate_stationary, symmetric_minimizer_root
from .errors import ConfigError, InvalidParameter
from .field import (
    _path_normals,
    _sim_steps,
    riccati_field_oracle,
    simulate_ensemble,
    solve_field,
    stable_time_grid,
)
from .numerics import SpaceGrid, TimeGrid, kuiper_uniformity, wasserstein1_1d
from .potentials import ModelSpec, from_name, make_quadratic


# --- configuration ----------------------------------------------------------


@dataclass(frozen=True)
class ConfigKey:
    """kind: "int", "float", "strictly increasing int list", "strictly
    decreasing float list" or a tuple of choices; bound: ">= k" or "> k" on
    the value or on each entry of a list.
    defaults: {"E1 E3": value} for the scenarios that read the key, None where
    the reader works it out.  A potential's parameter is read only where a
    key of `via` names one of `potentials`."""
    kind: object
    defaults: dict
    bound: str = ""
    via: tuple = ()
    potentials: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "defaults", {s: v for group, v in self.defaults.items()
                                              for s in group.split()})

    def describe(self) -> str:
        """Kind and bound, as errors and the README's key table print them."""
        if isinstance(self.kind, tuple):
            return "one of " + ", ".join(map(str, self.kind))
        return ", ".join(filter(None, (self.kind, self.bound)))


SCENARIOS = ("E1", "E2", "E3", "E4", "E5", "E6")
_ALL = " ".join(SCENARIOS)
_LOGCOSH = ("logcosh", "radial_logcosh")
_CATALOGUE = ("zero", "quadratic", *_LOGCOSH, "delarue")
# every key but `scenario`, in the order validate() parses them (model.g, model.f first)
CONFIG_SCHEMA = {
    "run.seed": ConfigKey("int", {_ALL: 1234}, ">= 0"),
    "run.M": ConfigKey("int", {"E1 E3": 500, "E2 E4 E5": 2000}, ">= 1"),
    "run.N": ConfigKey("strictly increasing int list",
                       {"E1": [10, 100, 1000], "E2": [25, 100, 200, 400], "E4": [200, 400],
                        "E6": [25, 100, 400]}, ">= 1"),
    "run.N_select": ConfigKey("int", {"E3": 100}, ">= 1"),
    "run.eps": ConfigKey("strictly decreasing float list", {"E5": [0.5, 0.25, 0.1, 0.05]}, "> 0"),
    "run.selection": ConfigKey(("on", "off"), {"E3": "on"}),
    "model.dim": ConfigKey((1, 2), {"E1 E2 E3 E5 E6": 1, "E4": 2}),
    "model.T": ConfigKey("float", {_ALL: 1.0}, "> 0"),
    "model.b": ConfigKey("float", {_ALL: 0.0}),
    "model.sigma": ConfigKey("float", {_ALL: 1.0}, ">= 0"),
    "model.nu0": ConfigKey("float", {_ALL: 0.0}),
    "model.g": ConfigKey(_CATALOGUE, {"E1": "quadratic", "E2 E5 E6": "logcosh",
                                      "E3": "delarue", "E4": "radial_logcosh"}),
    "model.f": ConfigKey((*_CATALOGUE, "cancel"), {"E1 E3": "zero", "E2 E4 E5 E6": "cancel"}),
    "model.kappa": ConfigKey("float", {_ALL: 4.0}, via=("model.g", "model.f"), potentials=_LOGCOSH),
    "model.delta": ConfigKey("float", {_ALL: 0.1}, via=("model.g", "model.f"),
                             potentials=("delarue",)),
    "model.c": ConfigKey("float", {_ALL: 1.0}, via=("model.g",), potentials=("quadratic",)),
    "model.linear": ConfigKey("float", {_ALL: 0.0}, via=("model.g",), potentials=("quadratic",)),
    "model.f_c": ConfigKey("float", {_ALL: -1.0}, via=("model.f",), potentials=("quadratic",)),
    "grid.L": ConfigKey("float", {"E1 E2 E4 E5 E6": None, "E3": 2.0}, "> 0"),
    "grid.nodes": ConfigKey("int", {"E1 E2 E4 E5 E6": 201, "E3": 1601}, ">= 3"),
    "grid.safety": ConfigKey("float", {_ALL: 0.9}, "> 0"),
    "verdict.band": ConfigKey("float", {"E2 E3 E5": None}, "> 0"),
    "verdict.tol": ConfigKey("float", {"E1 E6": 5e-2}, "> 0"),
    "probe.nu0": ConfigKey("float", {"E6": 0.5}),
    "probe.h": ConfigKey("float", {"E6": 1e-3}, "> 0"),
}


def parse_config_text(text: str) -> dict:
    """Flat `key = value` lines with dotted sections; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val.strip()
    return out


def read_text(path: str, what: str) -> str:
    """Text of a file; a file that cannot be read is a ConfigError naming `what`."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}")


def canonical_text(cfg: dict) -> str:
    return "".join(f"{k}={cfg[k]}\n" for k in sorted(cfg))


def fnv1a64(text: str) -> str:
    h = 0xCBF29CE484222325
    for byte in text.encode():
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def _parse(key: str, val: str, spec: ConfigKey):
    """The value of `key = val`: one of the key's choices, or a finite number
    or list of numbers of its kind, within its bound, a list in its order."""
    if isinstance(spec.kind, tuple):
        for choice in spec.kind:
            if str(choice) == val:
                return choice
        raise ConfigError(f"unknown {key} {val!r}; it must be {spec.describe()}")
    listed = spec.kind.endswith("list")
    try:
        nums = [(int if "int" in spec.kind else float)(x) for x in val.replace(",", " ").split()]
        ok = all(map(math.isfinite, nums)) and (len(nums) == 1 or listed and nums)
    except (ValueError, OverflowError):   # unparsable, or an integer too large for a float
        ok = False
    if ok and spec.bound:
        op, edge = spec.bound.split()
        ok = all(x > float(edge) or op == ">=" and x == float(edge) for x in nums)
    if ok and listed:
        ok = nums == sorted(set(nums), reverse="decreasing" in spec.kind)
    if not ok:
        raise ConfigError(f"{key} must be {spec.describe()}, got {val!r}")
    return nums if listed else nums[0]


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    raw: dict
    config_hash: str
    # filled in by validate(): every key the scenario reads, parsed or defaulted,
    # and the model, built once
    values: dict = field(default=None, compare=False, repr=False)
    spec: ModelSpec = field(default=None, compare=False, repr=False)

    @staticmethod
    def from_text(text: str) -> "ScenarioConfig":
        raw = parse_config_text(text)
        scenario = raw.get("scenario")
        if scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
        cfg = ScenarioConfig(scenario, raw, fnv1a64(canonical_text(raw)))
        cfg.validate()
        return cfg

    @staticmethod
    def from_file(path: str) -> "ScenarioConfig":
        return ScenarioConfig.from_text(read_text(path, "config"))

    def __getitem__(self, key: str):
        return self.values[key]

    def validate(self):
        """Parse each key of CONFIG_SCHEMA the scenario reads, or take its
        default; refuse a key that no scenario or not this one reads."""
        unknown = sorted(set(self.raw) - set(CONFIG_SCHEMA) - {"scenario"})
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        values = {}
        for key, spec in CONFIG_SCHEMA.items():
            reads = self.scenario in spec.defaults
            if key not in self.raw:
                if reads:
                    values[key] = spec.defaults[self.scenario]
            elif reads and (not spec.via or any(values[v] in spec.potentials for v in spec.via)):
                values[key] = _parse(key, self.raw[key], spec)
            else:
                model = " and ".join(f"{v} = {values[v]}" for v in spec.via)
                raise ConfigError(f"scenario {self.scenario} does not read {key}"
                                  + (f" with {model}" if model else ""))
        if self.scenario in ("E2", "E4", "E5") and values["run.M"] < 100:
            raise ConfigError("statistical scenarios need run.M >= 100")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "spec", build_spec(self))


def build_spec(cfg: ScenarioConfig) -> ModelSpec:
    """Model of the run: terminal g from the catalogue, running f from the
    catalogue or the canceller -|m|^2/2 (which turns off the running state
    cost entirely), linear drift coefficient b, horizon T.  An invalid model
    raises ConfigError with its cause."""
    dim, T, bcoef = cfg["model.dim"], cfg["model.T"], cfg["model.b"]
    params = {"kappa": cfg["model.kappa"], "T": T, "b": bcoef, "delta": cfg["model.delta"]}
    try:
        g = from_name(cfg["model.g"], dim, c=cfg["model.c"],
                      linear=np.full(dim, cfg["model.linear"]), **params)
        f = (make_quadratic(-1.0, dim) if cfg["model.f"] == "cancel" else
             from_name(cfg["model.f"], dim, c=cfg["model.f_c"], **params))
        return ModelSpec(dim=dim, b=bcoef * np.eye(dim), sigma=cfg["model.sigma"], T=T,
                         f=f, g=g, nu0=np.full(dim, cfg["model.nu0"]))
    except InvalidParameter as exc:
        raise ConfigError(f"model.g = {cfg['model.g']}, model.f = {cfg['model.f']}: {exc}")


def build_grid(cfg: ScenarioConfig, spec: ModelSpec) -> SpaceGrid:
    """Symmetric grid of grid.L and grid.nodes; grid.L is worked out by
    default_domain_halfwidth where it has no default (every scenario but E3)."""
    L = cfg["grid.L"] or default_domain_halfwidth(spec)   # None, never 0
    return SpaceGrid.symmetric(L, cfg["grid.nodes"], spec.dim)


def default_domain_halfwidth(spec: ModelSpec) -> float:
    """Twice the a-priori trajectory radius (drift growth times gradient sup)."""
    gsup = spec.g.grad_sup
    bnorm = float(np.linalg.norm(spec.b, 2))
    R = (float(np.linalg.norm(spec.nu0)) + spec.T * (gsup + 1.0)) * np.exp(bnorm * spec.T)
    return 2.0 * max(R, 1.0)


# --- reports ----------------------------------------------------------------


@dataclass
class ScenarioReport:
    scenario: str
    config_hash: str
    seed: int
    columns: list
    rows: list = field(default_factory=list)      # list of dicts
    verdicts: list = field(default_factory=list)  # (name, passed, detail)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.verdicts)

    def add_row(self, **kw):
        kw = {"seed": self.seed, "config": self.config_hash, **kw}
        self.rows.append({c: kw.get(c, "") for c in self.columns})

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]

    def verdict(self, name: str, ok: bool, detail: str):
        self.verdicts.append((name, bool(ok), detail))

    def write_csv(self, path: str):
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(row[c]) for c in self.columns) + "\n")

    def summary(self) -> str:
        lines = [f"scenario {self.scenario}  config {self.config_hash}"]
        for name, ok, detail in self.verdicts:
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


def _fmt(v) -> str:
    return f"{v:.10g}" if isinstance(v, float) else str(v)


SIGN_BAND = 0.034          # 3 binomial sigmas at M = 2000 around 1/2


def _sign_stats(mT: np.ndarray):
    pos = float(np.mean(mT > 0))
    se = float(np.sqrt(0.25 / mT.size))
    return pos, se


def _sign_band(cfg: ScenarioConfig) -> float:
    """Half-width of the band around 1/2 that a terminal-sign frequency must
    stay in: verdict.band if set, else 3 binomial sigmas of an ensemble of
    run.M paths, never below SIGN_BAND."""
    return cfg["verdict.band"] or max(SIGN_BAND, 3.0 * math.sqrt(0.25 / cfg["run.M"]))


def _target_atom(cfg: ScenarioConfig):
    """Radius a-hat T of the selected minimizers, 2 a-hat = kappa tanh a-hat, or None
    outside the log-cosh family (the potentials that carry kappa) under the
    static reduction (b = 0, no running cost)."""
    spec = cfg.spec
    kappa = getattr(spec.g, "kappa", None)
    if kappa is None or np.any(spec.b != 0.0) or not spec.running_state_cost_vanishes:
        return None
    return symmetric_minimizer_root(kappa) * spec.T


def _check_domain(grid: SpaceGrid, atom: float):
    """Refuse, before any solve, a domain too narrow to hold the target atom."""
    if grid.axes[0][1] <= atom:
        raise ConfigError(f"grid.L = {grid.axes[0][1]:g} must exceed the target atom {atom:.6f}")


# --- scenarios --------------------------------------------------------------


def field_for(cfg: ScenarioConfig, grid: SpaceGrid, N: int = None, eps: float = None):
    """Decoupling field of the config's model on `grid`, N-player (N) or
    common-noise (eps), time-stepped at the stability bound times grid.safety."""
    tgrid = stable_time_grid(cfg.spec, grid, N=N, eps=eps, safety=cfg["grid.safety"])
    return solve_field(cfg.spec, grid, tgrid, N=N, eps=eps)


def _report(cfg: ScenarioConfig, columns: list) -> ScenarioReport:
    return ScenarioReport(cfg.scenario, cfg.config_hash, cfg["run.seed"], columns)


def _note_exits(rep: ScenarioReport, ens, label: str):
    """Note an ensemble that simulate_ensemble flags as domain_too_small."""
    if ens.metadata["domain_too_small"]:
        rep.notes.append(f"domain too small at {label}: exit fraction {ens.exit_fraction:.3g}")


def _trend(rep: ScenarioReport, name: str, values: list, ok: bool, detail: str):
    """A verdict that compares a sweep's values with each other; with one value
    there is nothing to compare, so it is skipped with a note."""
    if len(values) > 1:
        rep.verdict(name, ok, detail)
    else:
        rep.notes.append(f"one sweep value: verdict '{name}' skipped")


def _sweep(rep: ScenarioReport, cfg: ScenarioConfig, grid: SpaceGrid, M: int, key: str,
           values: list, measure, history: bool = False) -> np.ndarray:
    """One report row per value of `key` ("N" or "eps"): solve its field, run
    the M-path ensemble and add its exit fraction and the scalars of
    measure(ensemble).  The ensembles keep their terminal states only, unless
    `history` asks for every node.  Every ensemble reads one draw of normals,
    sized for the largest N, which is returned; each is dropped before the
    next solve."""
    spec = cfg.spec
    rows = (max(values) if key == "N" else 0) + _sim_steps(spec.T)
    normals = _path_normals(rep.seed, M, rows, spec.dim)
    for v in values:
        ens = simulate_ensemble(field_for(cfg, grid, **{key: v}), spec, M=M, seed=rep.seed,
                                normals=normals, history=history)
        _note_exits(rep, ens, f"{key}={v}")
        rep.add_row(**{key: v}, exit_fraction=ens.exit_fraction, **measure(ens))
        del ens
    return normals


def run_E1_unique(cfg: ScenarioConfig) -> ScenarioReport:
    """Convergence of the ensemble-mean trajectory to the unique minimizer."""
    spec = cfg.spec
    if spec.g.quad_coeffs is None:
        raise ConfigError("E1 needs a convex quadratic terminal potential")
    rep = _report(cfg, ["N", "seed", "config", "sup_mean_error", "mean_T", "var_T",
                        "exit_fraction"])
    grid = build_grid(cfg, spec)

    # reference: deterministic limit flow driven by the reminder-free field
    ref_t = TimeGrid(0.0, spec.T, 4000)
    _, _, u_lim = riccati_field_oracle(spec, ref_t, eps=1.0)

    def limit_flow(nodes):
        m = spec.nu0.copy()
        out = [m.copy()]
        for k in range(len(nodes) - 1):
            h = nodes[k + 1] - nodes[k]
            f1 = spec.b @ m - u_lim(nodes[k], m)
            mid = m + 0.5 * h * f1
            f2 = spec.b @ mid - u_lim(nodes[k] + 0.5 * h, mid)
            m = m + h * f2
            out.append(m.copy())
        return np.array(out)

    ref = limit_flow(TimeGrid(0.0, spec.T, _sim_steps(spec.T)).nodes)   # the ensembles' grid

    def measure(ens):
        # summed path after path, in the order of a path-major array's mean over
        # axis 0; the time-major paths' own mean would sum in another order
        total = ens.paths[0].copy()
        for path in ens.paths[1:]:
            total += path
        return {"sup_mean_error": float(np.max(np.abs(total / len(ens.paths) - ref))),
                "mean_T": float(ens.terminal.mean()), "var_T": float(ens.terminal.var())}

    normals = _sweep(rep, cfg, grid, cfg["run.M"], "N", cfg["run.N"], measure, history=True)
    errors = rep.column("sup_mean_error")

    # noise-off deterministic run, the N -> infinity analogue: a common-noise
    # path starts at nu0, and zero normals drive it without noise
    ens_inf = simulate_ensemble(field_for(cfg, grid, eps=1e-3), spec, M=1, seed=rep.seed,
                                normals=np.zeros_like(normals[:1]))
    _note_exits(rep, ens_inf, "N=inf")
    err_inf = float(np.max(np.abs(ens_inf.paths[0] - ref)))
    rep.add_row(N="inf", sup_mean_error=err_inf, mean_T=float(ens_inf.terminal.mean()),
                var_T=0.0, exit_fraction=ens_inf.exit_fraction)

    tol = cfg["verdict.tol"]
    _trend(rep, "mean-error decreasing in N", errors, errors == sorted(errors, reverse=True),
           f"errors {['%.3g' % e for e in errors]}")
    rep.verdict("mean-error below tolerance at largest N", errors[-1] < tol,
                f"{errors[-1]:.3g} < {tol}")
    rep.verdict("noise-off run matches deterministic flow", err_inf < 2e-2,
                f"{err_inf:.3g} < 2e-2")
    return rep


def run_E2_symmetric(cfg: ScenarioConfig) -> ScenarioReport:
    """Half-half selection between the two symmetric minimizers."""
    spec = cfg.spec
    if not spec.even_data or np.any(spec.nu0 != 0.0):
        raise ConfigError("E2 needs even potentials and nu0 = 0")
    atom = _target_atom(cfg)
    if atom is None:
        raise ConfigError("E2 needs the log-cosh terminal with b = 0 and model.f = cancel")
    rep = _report(cfg, ["N", "seed", "config", "freq_pos", "freq_se", "w1", "mean_T",
                        "var_T", "exit_fraction"])
    grid = build_grid(cfg, spec)
    _check_domain(grid, atom)

    def measure(ens):
        mT = ens.terminal[:, 0]
        pos, se = _sign_stats(mT)
        w1 = wasserstein1_1d(mT, [-atom, atom], [0.5, 0.5])
        return {"freq_pos": pos, "freq_se": se, "w1": w1, "mean_T": float(mT.mean()),
                "var_T": float(mT.var())}

    _sweep(rep, cfg, grid, cfg["run.M"], "N", cfg["run.N"], measure)
    freqs, w1s = rep.column("freq_pos"), rep.column("w1")
    band = _sign_band(cfg)
    rep.verdict("sign frequency in 0.5 band at every N",
                all(abs(p - 0.5) <= band for p in freqs),
                f"freqs {['%.3f' % p for p in freqs]} band ±{band:.3f}")
    _trend(rep, "W1 to two-atom target smaller at largest N than smallest", w1s,
           w1s[-1] < w1s[0], f"W1 {w1s[0]:.4g} -> {w1s[-1]:.4g}")
    rep.notes.append(f"target atoms ±{atom:.6f} (root of 2a = kappa tanh a times T)")
    return rep


def run_E3_delarue(cfg: ScenarioConfig) -> ScenarioReport:
    """Two selected trajectories plus the non-selected middle equilibrium."""
    spec = cfg.spec
    if not spec.g.name.startswith("delarue") or spec.f.name != "zero" or np.any(spec.nu0 != 0):
        raise ConfigError("E3's closed form needs model.g = delarue, model.f = zero, model.nu0 = 0")
    rep = _report(cfg, ["branch", "seed", "config", "max_traj_error", "m_T", "cost",
                        "classification"])

    sset = enumerate_stationary(spec, spec.nu0)
    # closed form m^+_t = w_t * int_0^t w_s^{-2} ds on the Riccati grid of g
    rt, w = spec.g.riccati_grid, spec.g.w
    winv2 = w ** (-2.0)
    seg = 0.5 * (winv2[1:] + winv2[:-1]) * rt.dt
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    m_plus_ref = w * cum

    max_errs = {}
    zero_sol = None
    for sol in sset.solutions:
        mT = float(sol.m[-1, 0])
        sgn = "+" if mT > 0.05 else ("-" if mT < -0.05 else "0")
        if sgn == "0":
            zero_sol = sol
            err = float(np.max(np.abs(sol.m[:, 0])))
        else:
            ref = np.interp(sol.grid.nodes, rt.nodes, m_plus_ref)
            err = float(np.max(np.abs(sol.m[:, 0] - np.copysign(ref, mT))))
            max_errs[sgn] = err
        rep.add_row(branch=sgn, max_traj_error=err, m_T=mT, cost=float(sol.cost),
                    classification=sol.classification)

    both = "+" in max_errs and "-" in max_errs
    worst = max(max_errs.values()) if max_errs else np.inf
    rep.verdict("shooting matches closed-form trajectories",
                both and worst < 1e-3, f"max error {worst:.3g} < 1e-3")
    ok_zero = (zero_sol is not None and zero_sol.classification == "stationary-only"
               and zero_sol.cost > sset.min_cost)
    rep.verdict("(0,0) present and stationary-only with larger cost", ok_zero,
                "zero branch " + ("found" if zero_sol is not None else "missing"))

    if cfg["run.selection"] == "on":
        N, M = cfg["run.N_select"], cfg["run.M"]
        ens = simulate_ensemble(field_for(cfg, build_grid(cfg, spec), N=N), spec, M=M,
                                seed=rep.seed, history=False)
        _note_exits(rep, ens, f"N={N}")
        pos, _ = _sign_stats(ens.terminal[:, 0])
        band = _sign_band(cfg)
        rep.verdict("terminal-sign frequency in 0.5 band",
                    abs(pos - 0.5) <= band, f"freq {pos:.3f} band ±{band:.3f}")
        rep.notes.append(f"selection run N={N} M={M} exit={ens.exit_fraction:.3g}")
    rep.notes.append(f"r_delta={spec.g.r_delta:.8f}, mollification rho={spec.g.rho:.3g}")
    return rep


def _median(x: np.ndarray) -> float:
    """np.median of a finite 1-d sample, bit for bit, without the NaN check
    through which np.median imports numpy.ma."""
    k = x.size // 2
    p = np.partition(x, (k - 1, k))
    return float(p[k] if x.size % 2 else (p[k - 1] + p[k]) / 2)


def run_E4_sphere(cfg: ScenarioConfig) -> ScenarioReport:
    """Uniform-on-the-sphere selection of the terminal direction in d = 2."""
    spec = cfg.spec
    if spec.dim != 2 or np.any(spec.nu0 != 0.0):
        raise ConfigError("E4 needs the two-dimensional radial model at nu0 = 0")
    target = _target_atom(cfg)
    if target is None:
        raise ConfigError("E4 needs the radial log-cosh terminal with b = 0 and model.f = cancel")
    rep = _report(cfg, ["N", "seed", "config", "kuiper_V", "kuiper_p", "median_radius",
                        "exit_fraction"])
    grid = build_grid(cfg, spec)
    _check_domain(grid, target)

    def measure(ens):
        mT = ens.terminal
        V, p = kuiper_uniformity(np.arctan2(mT[:, 1], mT[:, 0]))
        return {"kuiper_V": V, "kuiper_p": p,
                "median_radius": _median(np.linalg.norm(mT, axis=1))}

    _sweep(rep, cfg, grid, cfg["run.M"], "N", cfg["run.N"], measure)
    ps, medians = rep.column("kuiper_p"), rep.column("median_radius")
    rep.verdict("terminal angle uniform (Kuiper, 1% level) at every N",
                all(p > 0.01 for p in ps), f"p-values {['%.3g' % p for p in ps]}")
    rep.verdict("median terminal radius near the selected ring",
                abs(medians[-1] - target) <= 0.1,
                f"median {medians[-1]:.4f} vs {target:.4f} ± 0.1")
    rep.notes.append("non-selected equilibrium: the zero trajectory (stationary-only)")
    return rep


def run_E5_common_noise(cfg: ScenarioConfig) -> ScenarioReport:
    """Vanishing common noise: selection band at nu0 = 0, variance collapse else."""
    spec = cfg.spec
    symmetric = spec.even_data and not np.any(spec.nu0 != 0.0)
    rep = _report(cfg, ["eps", "seed", "config", "freq_pos", "w1", "mean_T", "var_T",
                        "exit_fraction"])
    grid = build_grid(cfg, spec)
    atom = _target_atom(cfg) if symmetric else None
    if atom is not None:
        _check_domain(grid, atom)

    def measure(ens):
        mT = ens.terminal[:, 0]
        w1 = "" if atom is None else wasserstein1_1d(mT, [-atom, atom], [0.5, 0.5])
        return {"freq_pos": _sign_stats(mT)[0], "w1": w1, "mean_T": float(mT.mean()),
                "var_T": float(mT.var())}

    _sweep(rep, cfg, grid, cfg["run.M"], "eps", cfg["run.eps"], measure)
    if symmetric:
        freqs, band = rep.column("freq_pos"), _sign_band(cfg)
        rep.verdict("sign frequency in 0.5 band at every eps",
                    all(abs(p - 0.5) <= band for p in freqs),
                    f"freqs {['%.3f' % p for p in freqs]} band ±{band:.3f}")
    else:
        variances = rep.column("var_T")
        _trend(rep, "terminal variance strictly decreasing in eps", variances,
               all(b < a for a, b in zip(variances, variances[1:])),
               f"variances {['%.3g' % v for v in variances]}")
    return rep


def run_E6_field_convergence(cfg: ScenarioConfig) -> ScenarioReport:
    """Field values converge to the value-function gradient where it exists."""
    spec = cfg.spec
    rep = _report(cfg, ["N", "seed", "config", "probe", "field_value", "gradient_estimate",
                        "gap"])
    grid = build_grid(cfg, spec)
    nu0 = cfg["probe.nu0"]

    # the field's first component is compared with the central slope of the
    # value function along the first axis, at the point the probe checks
    point = np.array([nu0] + [0.0] * (spec.dim - 1))
    probe = differentiability_probe(spec, point, h=cfg["probe.h"])
    if probe["verdict"] != "differentiable":
        rep.notes.append(f"probe at {point} is a kink; convergence verdict skipped")
        rep.verdict("probe point differentiable", False, f"verdict {probe['verdict']}")
        return rep
    D = float(probe["central"][0])

    for N in cfg["run.N"]:
        fld = field_for(cfg, grid, N=N)
        uval = float(fld.evaluate(0.0, point)[0])
        rep.add_row(N=N, probe=nu0, field_value=uval, gradient_estimate=D, gap=abs(uval - D))
    gaps = rep.column("gap")

    tol = cfg["verdict.tol"]
    _trend(rep, "gap decreasing in N", gaps, gaps == sorted(gaps, reverse=True),
           f"gaps {['%.3g' % g for g in gaps]}")
    rep.verdict("gap below tolerance at largest N", gaps[-1] < tol,
                f"{gaps[-1]:.3g} < {tol}")

    if spec.even_data:
        # fld and N are the loop's last: the field of the largest N
        center = float(np.max(np.abs(fld.evaluate(0.0, np.zeros(spec.dim)))))
        rep.add_row(N=N, probe=0.0, field_value=center)
        rep.verdict("field vanishes exactly at the symmetric kink", center == 0.0,
                    f"u(0,0) = {center}")
        rep.notes.append("at 0 the one-sided slopes are ±a-hat; the field sits at 0")
    return rep


_RUNNERS = {"E1": run_E1_unique, "E2": run_E2_symmetric, "E3": run_E3_delarue,
            "E4": run_E4_sphere, "E5": run_E5_common_noise,
            "E6": run_E6_field_convergence}


def run_scenario(cfg: ScenarioConfig) -> ScenarioReport:
    return _RUNNERS[cfg.scenario](cfg)


def replay_row(cfg: ScenarioConfig, report_csv: str, row_index: int) -> bool:
    """Re-run the scenario and compare the requested CSV row field-by-field."""
    lines = [ln for ln in read_text(report_csv, "report").split("\n") if ln.strip()]
    header = lines[0].split(",")
    if not (1 <= row_index + 1 < len(lines)):
        raise ConfigError(f"report has no row {row_index}")
    old = dict(zip(header, lines[row_index + 1].split(",")))
    if old.get("config", "") not in ("", cfg.config_hash):
        raise ConfigError("config hash mismatch: report row came from a different config")
    rep = run_scenario(cfg)
    if rep.columns != header:
        return False
    new = {c: _fmt(rep.rows[row_index][c]) for c in header}
    return new == old
