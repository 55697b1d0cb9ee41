"""Config-driven batch scenarios tying the solvers into reportable experiments.

Each scenario produces a ScenarioReport: one CSV row per N (or per epsilon)
carrying its seed and the config hash for replay, plus a list of named
verdicts checked against fixed thresholds.  Verdict logic is pure: the same
report always yields the same pass/fail outcome, read back from its columns.

E1, E2, E4 and E5 run one sweep (`_sweep`): per N or eps it solves the
field with `field_for`, which `mfglab field solve` uses too, runs the
Euler-Maruyama ensemble on it and measures the terminal law.
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
from .potentials import (
    ModelSpec,
    from_name,
    make_quadratic,
)

SCENARIOS = ("E1", "E2", "E3", "E4", "E5", "E6")
# every key that some scenario reads; validate() rejects any other
CONFIG_KEYS = frozenset((
    "scenario run.seed run.M run.N run.N_select run.eps run.selection model.dim model.T "
    "model.b model.sigma model.nu0 model.g model.f model.kappa model.delta model.c "
    "model.linear model.f_c grid.L grid.nodes grid.safety verdict.band verdict.tol "
    "probe.nu0 probe.h").split())


# --- configuration ----------------------------------------------------------


def parse_config_text(text: str) -> dict:
    """Flat `key = value` lines with dotted sections; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        key, val = key.strip(), val.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val
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


def _numbers(key: str, val: str, kind, what: str) -> list:
    try:
        nums = [kind(x) for x in val.replace(",", " ").split()]
        if all(map(math.isfinite, nums)):
            return nums
    except (ValueError, OverflowError):   # unparsable, or an integer too large for a float
        pass
    raise ConfigError(f"{key} must be {what}, got {val!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    raw: dict
    config_hash: str
    # the model, built once by validate()
    spec: ModelSpec = field(default=None, compare=False, repr=False)

    @staticmethod
    def from_text(text: str) -> "ScenarioConfig":
        raw = parse_config_text(text)
        scenario = raw.get("scenario")
        if scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
        cfg = ScenarioConfig(scenario=scenario, raw=raw,
                             config_hash=fnv1a64(canonical_text(raw)))
        cfg.validate()
        return cfg

    @staticmethod
    def from_file(path: str) -> "ScenarioConfig":
        return ScenarioConfig.from_text(read_text(path, "config"))

    def get(self, key: str, default=None) -> str:
        return self.raw.get(key, default)

    def getfloat(self, key: str, default: float) -> float:
        v = self.raw.get(key)
        nums = [default] if v is None else _numbers(key, v, float, "a finite number")
        if len(nums) != 1:
            raise ConfigError(f"{key} must be a finite number, got {v!r}")
        return nums[0]

    def getint(self, key: str, default: int) -> int:
        v = self.raw.get(key)
        try:
            return default if v is None else int(v)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {v!r}")

    def getlist_int(self, key: str, default: list) -> list:
        v = self.raw.get(key)
        return list(default) if v is None else _numbers(key, v, int, "a list of integers")

    def getlist_float(self, key: str, default: list) -> list:
        v = self.raw.get(key)
        return list(default) if v is None else _numbers(key, v, float, "a list of finite numbers")

    def validate(self):
        unknown = sorted(set(self.raw) - CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        for key in ("run.N", "run.eps"):
            if key in self.raw and not self.getlist_float(key, []):
                raise ConfigError(f"{key} must list at least one value")
        Ns = self.getlist_int("run.N", [25, 100, 400])
        if any(b <= a for a, b in zip(Ns, Ns[1:])):
            raise ConfigError("run.N must be strictly increasing")
        if Ns[0] < 1:
            raise ConfigError(f"run.N entries must be at least 1, got {Ns[0]}")
        if min(self.getlist_float("run.eps", [1.0])) <= 0:
            raise ConfigError("run.eps entries must be positive")
        M = self.getint("run.M", 2000)
        if self.scenario in ("E2", "E4", "E5") and M < 100:
            raise ConfigError("statistical scenarios need run.M >= 100")
        # keys the runners read only late, parsed here so a bad one fails before any solve
        self.getfloat("probe.nu0", 0.0)
        for key in ("verdict.band", "verdict.tol", "grid.safety", "probe.h", "grid.L"):
            if self.getfloat(key, 1.0) <= 0:
                raise ConfigError(f"{key} must be positive, got {self.get(key)!r}")
        for key, least in (("run.M", 1), ("run.N_select", 1), ("grid.nodes", 3), ("run.seed", 0)):
            if self.getint(key, least) < least:
                raise ConfigError(f"{key} must be at least {least}, got {self.get(key)!r}")
        if self.get("run.selection", "on") not in ("on", "off"):
            raise ConfigError(f"run.selection must be on or off, got {self.get('run.selection')!r}")
        object.__setattr__(self, "spec", build_spec(self))


_DEFAULT_G = {"E1": "quadratic", "E2": "logcosh", "E3": "delarue",
              "E4": "radial_logcosh", "E5": "logcosh", "E6": "logcosh"}


def _catalogue(key: str, name: str, dim: int, **params):
    try:
        return from_name(name, dim, **params)
    except InvalidParameter as exc:
        raise ConfigError(f"{key} = {name}: {exc}")


def build_spec(cfg: ScenarioConfig) -> ModelSpec:
    """Model of the run: terminal g from the catalogue, running f either the
    zero potential or the canceller -|m|^2/2 (which turns off the running
    state cost entirely), linear drift coefficient b, horizon T.  An invalid
    model raises ConfigError with its cause."""
    dim = cfg.getint("model.dim", 2 if cfg.scenario == "E4" else 1)
    if dim not in (1, 2):
        raise ConfigError(f"model.dim must be 1 or 2, got {dim}")
    T = cfg.getfloat("model.T", 1.0)
    bcoef = cfg.getfloat("model.b", 0.0)
    params = {"kappa": cfg.getfloat("model.kappa", 4.0), "T": T, "b": bcoef,
              "delta": cfg.getfloat("model.delta", 0.1)}
    gname = cfg.get("model.g", _DEFAULT_G[cfg.scenario])
    g = _catalogue("model.g", gname, dim, c=cfg.getfloat("model.c", 1.0),
                   linear=np.full(dim, cfg.getfloat("model.linear", 0.0)), **params)
    fname = cfg.get("model.f", "zero" if cfg.scenario in ("E1", "E3") else "cancel")
    if fname == "cancel":
        f = make_quadratic(-1.0, dim)
    else:
        f = _catalogue("model.f", fname, dim, c=cfg.getfloat("model.f_c", -1.0), **params)
    nu0 = np.full(dim, cfg.getfloat("model.nu0", 0.0))
    try:
        return ModelSpec(dim=dim, b=bcoef * np.eye(dim),
                         sigma=cfg.getfloat("model.sigma", 1.0), T=T, f=f, g=g, nu0=nu0)
    except InvalidParameter as exc:
        raise ConfigError(str(exc))


def build_grid(cfg: ScenarioConfig, spec: ModelSpec) -> SpaceGrid:
    """Symmetric grid of grid.L and grid.nodes, by default [-2, 2] at 1601
    nodes for E3's selection run and default_domain_halfwidth at 201 else."""
    e3 = cfg.scenario == "E3"
    L = cfg.getfloat("grid.L", 2.0 if e3 else default_domain_halfwidth(spec))
    n = cfg.getint("grid.nodes", 1601 if e3 else 201)
    return SpaceGrid.symmetric(L, n, spec.dim)


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


def _sign_band(cfg: ScenarioConfig, M: int) -> float:
    """Half-width of the band around 1/2 that a terminal-sign frequency must
    stay in: verdict.band if set, else 3 binomial sigmas of an ensemble of M
    paths, never below SIGN_BAND."""
    return cfg.getfloat("verdict.band", max(SIGN_BAND, 3.0 * math.sqrt(0.25 / M)))


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
    tgrid = stable_time_grid(cfg.spec, grid, N=N, eps=eps,
                             safety=cfg.getfloat("grid.safety", 0.9))
    return solve_field(cfg.spec, grid, tgrid, N=N, eps=eps)


def _report(cfg: ScenarioConfig, columns: list) -> ScenarioReport:
    return ScenarioReport(cfg.scenario, cfg.config_hash, cfg.getint("run.seed", 1234), columns)


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
           values: list, measure) -> np.ndarray:
    """One report row per value of `key` ("N" or "eps"): solve its field, run
    the M-path ensemble and add its exit fraction and the scalars of
    measure(ensemble).  Every ensemble reads one draw of normals, sized for
    the largest N, which is returned; each is dropped before the next solve."""
    spec = cfg.spec
    rows = (max(values) if key == "N" else 0) + _sim_steps(spec.T)
    normals = _path_normals(rep.seed, M, rows, spec.dim)
    for v in values:
        ens = simulate_ensemble(field_for(cfg, grid, **{key: v}), spec, M=M, seed=rep.seed,
                                normals=normals)
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

    normals = _sweep(rep, cfg, grid, cfg.getint("run.M", 500), "N",
                     cfg.getlist_int("run.N", [10, 100, 1000]), measure)
    errors = rep.column("sup_mean_error")

    # noise-off deterministic run, the N -> infinity analogue: a common-noise
    # path starts at nu0, and zero normals drive it without noise
    ens_inf = simulate_ensemble(field_for(cfg, grid, eps=1e-3), spec, M=1, seed=rep.seed,
                                normals=np.zeros_like(normals[:1]))
    _note_exits(rep, ens_inf, "N=inf")
    err_inf = float(np.max(np.abs(ens_inf.paths[0] - ref)))
    rep.add_row(N="inf", sup_mean_error=err_inf, mean_T=float(ens_inf.terminal.mean()),
                var_T=0.0, exit_fraction=ens_inf.exit_fraction)

    tol = cfg.getfloat("verdict.tol", 5e-2)
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
    M = cfg.getint("run.M", 2000)
    grid = build_grid(cfg, spec)
    _check_domain(grid, atom)

    def measure(ens):
        mT = ens.terminal[:, 0]
        pos, se = _sign_stats(mT)
        w1 = wasserstein1_1d(mT, [-atom, atom], [0.5, 0.5])
        return {"freq_pos": pos, "freq_se": se, "w1": w1, "mean_T": float(mT.mean()),
                "var_T": float(mT.var())}

    _sweep(rep, cfg, grid, M, "N", cfg.getlist_int("run.N", [25, 100, 200, 400]), measure)
    freqs, w1s = rep.column("freq_pos"), rep.column("w1")
    band = _sign_band(cfg, M)
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

    if cfg.get("run.selection", "on") != "off":
        N = cfg.getint("run.N_select", 100)
        M = cfg.getint("run.M", 500)
        ens = simulate_ensemble(field_for(cfg, build_grid(cfg, spec), N=N), spec, M=M,
                                seed=rep.seed)
        _note_exits(rep, ens, f"N={N}")
        pos, _ = _sign_stats(ens.terminal[:, 0])
        band = _sign_band(cfg, M)
        rep.verdict("terminal-sign frequency in 0.5 band",
                    abs(pos - 0.5) <= band, f"freq {pos:.3f} band ±{band:.3f}")
        rep.notes.append(f"selection run N={N} M={M} exit={ens.exit_fraction:.3g}")
    rep.notes.append(f"r_delta={spec.g.r_delta:.8f}, mollification rho={spec.g.rho:.3g}")
    return rep


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
                "median_radius": float(np.median(np.linalg.norm(mT, axis=1)))}

    _sweep(rep, cfg, grid, cfg.getint("run.M", 2000), "N", cfg.getlist_int("run.N", [200, 400]),
           measure)
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
    eps_list = cfg.getlist_float("run.eps", [0.5, 0.25, 0.1, 0.05])
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("run.eps must be strictly decreasing")
    spec = cfg.spec
    symmetric = spec.even_data and not np.any(spec.nu0 != 0.0)
    rep = _report(cfg, ["eps", "seed", "config", "freq_pos", "w1", "mean_T", "var_T",
                        "exit_fraction"])
    M = cfg.getint("run.M", 2000)
    grid = build_grid(cfg, spec)
    atom = _target_atom(cfg)
    if symmetric and atom is not None:
        _check_domain(grid, atom)

    def measure(ens):
        mT = ens.terminal[:, 0]
        w1 = (wasserstein1_1d(mT, [-atom, atom], [0.5, 0.5])
              if (symmetric and atom is not None) else "")
        return {"freq_pos": _sign_stats(mT)[0], "w1": w1, "mean_T": float(mT.mean()),
                "var_T": float(mT.var())}

    _sweep(rep, cfg, grid, M, "eps", eps_list, measure)
    if symmetric:
        freqs, band = rep.column("freq_pos"), _sign_band(cfg, M)
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
    Ns = cfg.getlist_int("run.N", [25, 100, 400])
    grid = build_grid(cfg, spec)
    nu0 = cfg.getfloat("probe.nu0", 0.5)
    h = cfg.getfloat("probe.h", 1e-3)

    # the field's first component is compared with the central slope of the
    # value function along the first axis, at the point the probe checks
    point = np.array([nu0] + [0.0] * (spec.dim - 1))
    probe = differentiability_probe(spec, point, h=h)
    if probe["verdict"] != "differentiable":
        rep.notes.append(f"probe at {point} is a kink; convergence verdict skipped")
        rep.verdict("probe point differentiable", False, f"verdict {probe['verdict']}")
        return rep
    D = float(probe["central"][0])

    for N in Ns:
        fld = field_for(cfg, grid, N=N)
        uval = float(fld.evaluate(0.0, point)[0])
        rep.add_row(N=N, probe=nu0, field_value=uval, gradient_estimate=D, gap=abs(uval - D))
    gaps = rep.column("gap")

    tol = cfg.getfloat("verdict.tol", 5e-2)
    _trend(rep, "gap decreasing in N", gaps, gaps == sorted(gaps, reverse=True),
           f"gaps {['%.3g' % g for g in gaps]}")
    rep.verdict("gap below tolerance at largest N", gaps[-1] < tol,
                f"{gaps[-1]:.3g} < {tol}")

    if spec.even_data:
        # fld is the field of the largest N
        center = float(np.max(np.abs(fld.evaluate(0.0, np.zeros(spec.dim)))))
        rep.add_row(N=Ns[-1], probe=0.0, field_value=center)
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
