"""Deterministic limit control problem: shooting, enumeration, value function.

The first-order system is
    mdot   = b m - eta
    etadot = -(b^T eta + m + grad f(m))
with terminal condition eta_T = m_T + grad g(m_T).  Stationary points are
found by batched multi-start shooting on the unknown initial adjoint;
minimizers are the stationary points whose cost ties the minimum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import IntegrationDiverged, InvalidParameter, InvalidReduction, NoStationaryPoint
from .numerics import TimeGrid, integrate_ode
from .potentials import ModelSpec

# Newton shooting: residual tolerance, iteration cap, Jacobian difference step
NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 60
FD_STEP = 1e-6
# enumeration: starts per axis, eta0 distance of one solution, relative cost tie
START_POINTS_PER_AXIS = 21
DEDUP_TOL = 1e-5
COST_TIE_REL = 1e-7
# the descent cross-check of value_function
DESCENT_MAX_ITER = 600
DESCENT_GRAD_TOL = 1e-9
CHECK_CONTROL_STEPS = 200
CHECK_STARTS = 5
CHECK_REL_TOL = 1e-4
CHECK_SEED = 20240
KINK_GAP_FACTOR = 10.0   # differentiability probe: slope gap of a kink, in units of h
SCAN_POINTS = 801        # static reduction: points of the line scan


@dataclass
class OCSolution:
    grid: TimeGrid
    m: np.ndarray        # (steps+1, d)
    eta: np.ndarray      # (steps+1, d)
    cost: float
    terminal_residual: float
    classification: str = "stationary-only"

    @property
    def beta(self) -> np.ndarray:
        return -self.eta

    @property
    def eta0(self) -> np.ndarray:
        return self.eta[0]


@dataclass
class StationarySet:
    solutions: list                 # sorted by cost
    min_cost: float
    multiplicity: int               # count of cost-tied minimizers
    starts: int                     # start guesses shot
    failed: int                     # starts whose Newton failed

    def minimizers(self):
        return [s for s in self.solutions if s.classification == "minimizer"]


def trajectory_cost(spec: ModelSpec, grid: TimeGrid, m, beta) -> float:
    """Trapezoid quadrature of the running cost plus the terminal cost."""
    running = 0.5 * np.sum(beta**2, axis=1) + 0.5 * np.sum(m**2, axis=1)
    running = running + spec.f.value(m)
    terminal = 0.5 * float(m[-1] @ m[-1]) + spec.g.value(m[-1])
    return float(np.trapezoid(running, grid.nodes) + terminal)


def _solve_each(jac, rhs):
    """Solution of each system jac[i] x = rhs[i]; NaN where jac[i] is singular."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(rhs) == 1:
            return np.full_like(rhs, np.nan)
        h = len(rhs) // 2
        return np.concatenate([_solve_each(jac[:h], rhs[:h]), _solve_each(jac[h:], rhs[h:])])


def _newton(spec: ModelSpec, t0, nu0, starts, steps_per_unit):
    """Damped Newton shooting on the initial adjoint from each row of `starts`.

    The starts, and the forward-difference probes of their Jacobians, advance
    together as one (S, 2d) RK4 state.  Each start keeps its own residual,
    trajectory and step length, halved until its residual decreases, so its
    result does not depend on the other starts.  Returns per start an
    OCSolution, or None when Newton stagnates or the integration diverges.
    """
    nu0 = np.atleast_1d(np.asarray(nu0, dtype=float))
    S, d = starts.shape
    b = spec.b
    grid = TimeGrid(t0, spec.T, max(int(round(steps_per_unit * (spec.T - t0))), 16))

    def rhs(t, z):
        m, eta = z[:, :d], z[:, d:]
        return np.concatenate([m @ b.T - eta, -(eta @ b + m + spec.f.gradient(m))], axis=1)

    def residual(e0):
        """Terminal residuals, trajectories and finite-integration flags of the rows of e0."""
        n = len(e0)
        try:
            traj = integrate_ode(rhs, np.concatenate([np.broadcast_to(nu0, (n, d)), e0], axis=1),
                                 grid)
        except IntegrationDiverged:
            if n == 1:
                return (np.full((1, d), np.nan), np.full((grid.steps + 1, 1, 2 * d), np.nan),
                        np.array([False]))
            # integrate each half again to keep the rows that stay finite
            lo, hi = residual(e0[:n // 2]), residual(e0[n // 2:])
            return tuple(np.concatenate(p, axis=ax) for p, ax in zip(zip(lo, hi), (0, 1, 0)))
        mT, etaT = traj[-1, :, :d], traj[-1, :, d:]
        return etaT - (mT + spec.g.gradient(mT)), traj, np.ones(n, dtype=bool)

    eta0 = starts.copy()
    res, traj, alive = residual(eta0)
    converged = np.zeros(S, dtype=bool)
    for _ in range(NEWTON_MAX_ITER):
        nrm = np.linalg.norm(res, axis=1)
        converged |= alive & (nrm < NEWTON_TOL)
        act = np.flatnonzero(alive & ~converged)
        if act.size == 0:
            break
        # probe j of a start moves component j of its eta0 by FD_STEP
        res_p, _, ok = residual((eta0[act, None] + FD_STEP * np.eye(d)).reshape(-1, d))
        jac = np.swapaxes(res_p.reshape(-1, d, d) - res[act, None], 1, 2) / FD_STEP
        step = _solve_each(jac, -res[act])
        # a diverged probe or a singular Jacobian fails the start, and so does
        # a non-finite step, which leaves every candidate non-finite
        ok = ok.reshape(-1, d).all(axis=1) & np.all(np.isfinite(step), axis=1)
        alive[act[~ok]] = False
        act, step = act[ok], step[ok]
        lam, todo = np.ones(act.size), np.arange(act.size)
        while todo.size:
            s = act[todo]
            cand = eta0[s] + lam[todo, None] * step[todo]
            res_c, traj_c, ok = residual(cand)
            ok &= np.linalg.norm(res_c, axis=1) < nrm[s]
            eta0[s[ok]], res[s[ok]], traj[:, s[ok]] = cand[ok], res_c[ok], traj_c[:, ok]
            lam[todo] *= 0.5
            todo = todo[~ok]
            spent = lam[todo] <= 1e-6
            alive[act[todo[spent]]] = False
            todo = todo[~spent]

    sols = [None] * S
    for k in np.flatnonzero(converged):
        path = traj[:, k].copy()
        m, eta = path[:, :d], path[:, d:]
        sols[k] = OCSolution(grid=grid, m=m, eta=eta, cost=trajectory_cost(spec, grid, m, -eta),
                             terminal_residual=float(np.linalg.norm(res[k])))
    return sols


def shoot(spec: ModelSpec, t0, nu0, eta0_guess, steps_per_unit: int = 1000):
    """Newton shooting on the initial adjoint from one guess.

    Returns an OCSolution on success, None when Newton stagnates or the
    integration diverges.  It is the one-start case of the Newton that
    enumerate_stationary runs on all of its starts at once.
    """
    guess = np.atleast_1d(np.asarray(eta0_guess, dtype=float))
    return _newton(spec, t0, nu0, guess[None, :], steps_per_unit)[0]


def default_start_grid(spec: ModelSpec, nu0):
    """Lattice of initial-adjoint guesses sized by the a-priori bounds."""
    nu0 = np.atleast_1d(np.asarray(nu0, dtype=float))
    R = (float(np.linalg.norm(nu0)) + spec.g.bounds["grad_sup"] + spec.T)
    R *= float(np.exp(np.linalg.norm(spec.b, 2) * spec.T))
    axes = [np.linspace(-R, R, START_POINTS_PER_AXIS) for _ in range(spec.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.ravel() for g in mesh])


def enumerate_stationary(spec: ModelSpec, t0, nu0, start_grid=None,
                         steps_per_unit: int = 1000) -> StationarySet:
    """Batched multi-start shooting, deduplicated by initial adjoint and sorted by cost."""
    nu0 = np.atleast_1d(np.asarray(nu0, dtype=float))
    if start_grid is None:
        start_grid = default_start_grid(spec, nu0)
    start_grid = np.atleast_2d(np.asarray(start_grid, dtype=float))
    if start_grid.size == 0:
        raise InvalidParameter("start grid must be nonempty")
    # each cluster keeps its first converged start; shooting the guesses in
    # lexicographic order (that of default_start_grid) makes the kept eta0
    # independent of the order the guesses came in
    start_grid = start_grid[np.lexsort(start_grid.T[::-1])]

    sols = _newton(spec, t0, nu0, start_grid, steps_per_unit)
    found = []
    for sol in filter(None, sols):
        if not any(np.linalg.norm(sol.eta0 - s.eta0) < DEDUP_TOL for s in found):
            found.append(sol)
    if not found:
        raise NoStationaryPoint(f"all {len(sols)} starts of the multi-start shooting failed")

    found.sort(key=lambda s: s.cost)
    min_cost = found[0].cost
    tie = COST_TIE_REL * max(1.0, abs(min_cost))
    for s in found:
        s.classification = "minimizer" if s.cost - min_cost <= tie else "stationary-only"
    minimizers = sum(s.classification == "minimizer" for s in found)
    return StationarySet(solutions=found, min_cost=min_cost, multiplicity=minimizers,
                         starts=len(sols), failed=sum(sol is None for sol in sols))


# --- discretized-control descent (independent cross-check) ------------------


def discrete_cost_and_gradient(spec: ModelSpec, t0, nu0, beta):
    """Cost and exact gradient of the Euler-discretized control functional.

    beta is piecewise constant on K uniform steps; the gradient is the exact
    adjoint gradient of the discrete functional, so descent on it is free of
    inner discretization mismatch.
    """
    nu0 = np.atleast_1d(np.asarray(nu0, dtype=float))
    K, d = beta.shape
    dt = (spec.T - t0) / K
    b = spec.b
    m = np.empty((K + 1, d))
    m[0] = nu0
    for k in range(K):
        m[k + 1] = m[k] + dt * (b @ m[k] + beta[k])
    grad_f_vals = spec.f.gradient(m[:-1])
    run = dt * (0.5 * np.sum(beta**2, axis=1) + 0.5 * np.sum(m[:-1]**2, axis=1)
                + spec.f.value(m[:-1]))
    cost = float(np.sum(run)) + 0.5 * float(m[-1] @ m[-1]) + spec.g.value(m[-1])

    lam = m[-1] + spec.g.gradient(m[-1])
    grad = np.empty_like(beta)
    A = np.eye(d) + dt * b
    for k in range(K - 1, -1, -1):
        grad[k] = dt * (beta[k] + lam)
        lam = dt * (m[k] + grad_f_vals[k]) + A.T @ lam
    return cost, grad


def descend_discrete(spec: ModelSpec, t0, nu0, beta0):
    """Backtracking gradient descent on the discretized functional."""
    beta = np.array(beta0, dtype=float)
    cost, grad = discrete_cost_and_gradient(spec, t0, nu0, beta)
    step = 1.0
    for _ in range(DESCENT_MAX_ITER):
        gnorm = float(np.linalg.norm(grad))
        if gnorm < DESCENT_GRAD_TOL:
            break
        while step > 1e-12:
            cand = beta - step * grad
            c_new, g_new = discrete_cost_and_gradient(spec, t0, nu0, cand)
            if c_new < cost - 0.25 * step * gnorm**2:
                beta, cost, grad = cand, c_new, g_new
                step = min(step * 2.0, 1e3)
                break
            step *= 0.5
        else:
            break
    return beta, cost, grad


def value_function(spec: ModelSpec, t0, nu0, cross_check: bool = True,
                   steps_per_unit: int = 1000, start_grid=None) -> float:
    """Minimal cost over the stationary enumeration.

    Cross-checked against gradient descent on a discretized control from
    CHECK_STARTS random starts; disagreement beyond CHECK_REL_TOL raises a
    warning, which guards against basins missed by the start lattice.
    """
    nu0 = np.atleast_1d(np.asarray(nu0, dtype=float))
    if t0 >= spec.T:
        # empty horizon: nothing to control, only the terminal cost remains
        return float(0.5 * nu0 @ nu0 + spec.g.value(nu0))
    sset = enumerate_stationary(spec, t0, nu0, steps_per_unit=steps_per_unit,
                                start_grid=start_grid)
    v = sset.min_cost
    if cross_check:
        gen = np.random.default_rng(CHECK_SEED)
        scale = float(np.linalg.norm(np.atleast_1d(nu0))) + spec.g.bounds["grad_sup"] + 1.0
        best = np.inf
        for _ in range(CHECK_STARTS):
            beta0 = gen.uniform(-scale, scale, size=(1, spec.dim)) * np.ones(
                (CHECK_CONTROL_STEPS, spec.dim))
            beta0 += 0.1 * gen.normal(size=beta0.shape)
            _, c, _ = descend_discrete(spec, t0, nu0, beta0)
            best = min(best, c)
        if abs(best - v) > CHECK_REL_TOL * max(1.0, abs(v)) and best < v:
            warnings.warn(
                f"value cross-check disagreement: shooting {v:.6g} vs descent {best:.6g}",
                stacklevel=2)
    return v


def differentiability_probe(spec: ModelSpec, t0, nu0, h: float = 1e-3, **vf_kwargs):
    """One-sided and central difference quotients of the value function per axis.

    Verdict "kink" when any axis's one-sided quotients differ by more than a
    heuristic threshold (KINK_GAP_FACTOR * h, scaled by a local curvature
    estimate); this is a heuristic, not a certificate.  The central quotients
    are the gradient estimate where the verdict is "differentiable".
    """
    nu0 = np.atleast_1d(np.asarray(nu0, dtype=float))
    vf_kwargs.setdefault("cross_check", False)
    v0 = value_function(spec, t0, nu0, **vf_kwargs)
    lefts, rights, centrals = [], [], []
    verdict = "differentiable"
    for k in range(spec.dim):
        e = np.zeros(spec.dim)
        e[k] = h
        v_p = value_function(spec, t0, nu0 + e, **vf_kwargs)
        v_m = value_function(spec, t0, nu0 - e, **vf_kwargs)
        v_pp = value_function(spec, t0, nu0 + 2 * e, **vf_kwargs)
        right = (v_p - v0) / h
        left = (v0 - v_m) / h
        rights.append(right)
        lefts.append(left)
        centrals.append((v_p - v_m) / (2.0 * h))
        # curvature estimate from the smooth side
        curv = abs(v_pp - 2 * v_p + v0) / h**2
        threshold = KINK_GAP_FACTOR * h * max(1.0, 0.3 * curv)
        if abs(right - left) > threshold:
            verdict = "kink"
    return {"left": np.array(lefts), "right": np.array(rights),
            "central": np.array(centrals), "verdict": verdict}


# --- static reduction for terminal-cost-only models --------------------------


def _require_static(spec: ModelSpec):
    if np.any(spec.b != 0.0) or not spec.running_state_cost_vanishes:
        raise InvalidReduction(
            "static reduction needs b = 0 and a vanishing running state cost "
            "(running potential quadratic(c=-1))")


def static_U(spec: ModelSpec, t0, nu0, a):
    """U(t0, nu0, a) = (T-t0)|a|^2/2 + G(nu0 + (T-t0) a), G(y) = |y|^2/2 + g(y).

    a is one control of shape (d,) or a batch of shape (..., d).
    """
    _require_static(spec)
    nu0 = np.atleast_1d(np.asarray(nu0, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    tau = spec.T - t0
    y = nu0 + tau * a
    return (np.sum(0.5 * tau * a * a, axis=-1) + np.sum(0.5 * y * y, axis=-1)
            + spec.g.value(y))


def static_U_minimize(spec: ModelSpec, t0, nu0):
    """All local minimizers of a -> U(t0, nu0, a), exploiting symmetry.

    In dimension 1 the line is scanned and each bracket is polished.  In
    higher dimension the minimizer set lies on the ray through nu0 (or is a
    full sphere when nu0 = 0 and g is radial); the scalar reduction is used.
    Returns (minimizers, min_value, is_sphere).
    """
    _require_static(spec)
    nu0 = np.atleast_1d(np.asarray(nu0, dtype=float))
    tau = spec.T - t0
    scan_radius = (float(np.linalg.norm(nu0)) + spec.g.bounds["grad_sup"] + 2.0) / max(tau, 1e-9)

    on_sphere = spec.dim > 1 and np.all(nu0 == 0.0)
    if np.all(nu0 == 0.0):
        direction = np.eye(spec.dim)[0]
    else:
        direction = nu0 / np.linalg.norm(nu0)

    def U1(s):
        return static_U(spec, t0, nu0, s * direction)

    ss = np.linspace(-scan_radius, scan_radius, SCAN_POINTS)
    vals = static_U(spec, t0, nu0, ss[:, None] * direction)
    minima = []
    for i in range(1, len(ss) - 1):
        if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]:
            res = minimize_scalar(U1, bounds=(ss[i - 1], ss[i + 1]), method="bounded",
                                  options={"xatol": 1e-12})
            s_opt = float(res.x)
            if not any(abs(s_opt - s) < 1e-7 for s, _ in minima):
                minima.append((s_opt, float(res.fun)))
    if not minima:
        raise NoStationaryPoint("static scan found no local minimum")
    best = min(v for _, v in minima)
    keep = [(s, v) for s, v in minima if v - best <= 1e-9 * max(1.0, abs(best))]
    if on_sphere:
        # drop sign duplicates; the full minimizer set is the sphere |a| = s
        keep = [(abs(s), v) for s, v in keep]
        keep = sorted(set(keep))
    minimizers = [s * direction for s, v in keep]
    return minimizers, best, on_sphere


def symmetric_minimizer_root(kappa: float) -> float:
    """Positive root a of 2 a = kappa tanh(a), the nonzero static minimizer."""
    if kappa <= 2:
        raise InvalidParameter("needs kappa > 2")
    return float(brentq(lambda a: 2.0 * a - kappa * np.tanh(a), 1e-8, 5.0 + kappa))
