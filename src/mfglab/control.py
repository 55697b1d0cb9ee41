"""Deterministic limit control problem: shooting, enumeration, value function.

Every problem starts from its initial mean nu0 at time 0 and runs to T.
The first-order system is
    mdot   = b m - eta
    etadot = -(b^T eta + m + grad f(m))
with terminal condition eta_T = m_T + grad g(m_T).  Stationary points are
found by batched multi-start shooting on the unknown initial adjoint, all
starts one component-major RK4 state (2d, rows), each with its own Newton
line search; minimizers are the stationary points whose cost ties the minimum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, NoStationaryPoint
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


@dataclass
class OCSolution:
    grid: TimeGrid
    m: np.ndarray        # (steps+1, d)
    eta: np.ndarray      # (steps+1, d)
    cost: float
    terminal_residual: float
    classification: str = "stationary-only"

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


def trajectory_cost(spec: ModelSpec, grid: TimeGrid, m, beta) -> float:
    """Trapezoid quadrature of the running cost plus the terminal cost."""
    running = 0.5 * np.sum(beta**2, axis=1) + 0.5 * np.sum(m**2, axis=1)
    running = running + spec.f.value(m)
    terminal = 0.5 * float(m[-1] @ m[-1]) + spec.g.value(m[-1])
    return float(np.trapezoid(running, grid.nodes) + terminal)


def _solve_each(jac, rhs):
    """Solution of each system jac[i] x = rhs[i]; NaN where jac[i] is singular.

    slogdet's sign is 0 exactly where the LU factorization that solve runs
    meets a zero pivot, so those systems solve the identity and read NaN.
    """
    singular = np.linalg.slogdet(jac)[0] == 0
    x = np.linalg.solve(np.where(singular[:, None, None], np.eye(jac.shape[-1]), jac),
                        rhs[..., None])[..., 0]
    x[singular] = np.nan
    return x


def _newton(spec: ModelSpec, nu0, starts, steps_per_unit):
    """Damped Newton shooting on the initial adjoint from each row of `starts`.

    The starts, each from its row of nu0 (S, d) or all from one nu0 (d,),
    advance together as one component-major RK4 state (2d, rows), and each
    evaluation carries the d forward-difference probes of its Jacobian as d
    more rows, so the accepted candidate's probe residuals give the next
    Jacobian with no integration of their own.  Each integration carries
    every live start's next evaluation, a fresh Newton candidate or a halving
    of its step, and each start keeps its own residual, trajectory, step
    count and step length, halved until its residual decreases, so its
    result does not depend on the other starts.  Returns per start an
    OCSolution, or None when Newton stagnates or the integration diverges.
    """
    S, d = starts.shape
    nu0 = np.broadcast_to(np.asarray(nu0, dtype=float), (S, d))
    b = spec.b
    drift = bool(np.any(b != 0.0))
    grid = TimeGrid(0.0, spec.T, max(int(round(steps_per_unit * spec.T)), 16))

    def rhs(t, z, out):
        """(b m - eta, -(b^T eta + m + grad f(m))) of the component-major state
        z = (m, eta), written into the views of out; ufunc outs are positional,
        the cheapest call."""
        m, eta, dm, deta = z[:d], z[d:], out[:d], out[d:]
        grad_f = spec.f.gradient(m.T).T
        if drift:   # product-sums in the order of j round alike at any batch size, unlike BLAS
            np.multiply(m[0], b[:, :1], dm)
            np.multiply(eta[0], b.T[:, :1], deta)
            for j in range(1, d):
                dm += m[j] * b[:, j:j + 1]
                deta += eta[j] * b.T[:, j:j + 1]
            dm -= eta
            deta += m
            deta += grad_f
        else:
            np.negative(eta, dm)
            np.add(m, grad_f, deta)
        np.negative(deta, deta)
        return out

    def residual(rows, e0):
        """Terminal residuals (n, d), probe residuals (n, d, d) and trajectories
        (steps+1, 2d, n) of the n starts `rows` from e0, where probe j of a start
        moves component j of its e0 by FD_STEP; a row whose integration overflows
        has a residual that is not finite."""
        n = len(rows)
        e = np.concatenate([e0, (e0[:, None] + FD_STEP * np.eye(d)).reshape(-1, d)])
        traj = integrate_ode(rhs, np.concatenate([nu0[np.r_[rows, np.repeat(rows, d)]], e],
                                                 axis=1).T, grid)
        zT = traj[-1].T.copy()
        mT, etaT = zT[:, :d], zT[:, d:]
        with np.errstate(invalid="ignore"):     # inf - inf in g's gradient of such a row
            r = etaT - (mT + spec.g.gradient(mT))
        return r[:n], r[n:].reshape(n, d, d), traj[:, :, :n]

    # per start: the accepted adjoint and its residuals, the Newton step and its
    # length, the steps taken, and the next adjoint to evaluate
    eta0, cand = starts.copy(), starts.copy()
    res, res_p, nrm = np.empty((S, d)), np.empty((S, d, d)), np.full(S, np.inf)
    traj = np.empty((grid.steps + 1, 2 * d, S))
    step, lam, taken = np.empty((S, d)), np.zeros(S), np.zeros(S, dtype=int)
    converged = np.zeros(S, dtype=bool)
    live = np.arange(S)
    while live.size:
        res_c, res_pc, traj_c = residual(live, cand[live])
        fresh = lam[live] == 0.0        # a start's own adjoint, not yet evaluated
        with np.errstate(over="ignore"):    # a norm past 1e308 is inf, and that start fails
            nrm_c = np.linalg.norm(res_c, axis=1)
        # a start's own residual must be finite; a candidate's norm must fall
        # below the start's, which a non-finite norm never does
        ok = np.where(fresh, np.isfinite(res_c).all(axis=1), nrm_c < nrm[live])
        s = live[ok]
        eta0[s], res[s], res_p[s], nrm[s] = cand[s], res_c[ok], res_pc[ok], nrm_c[ok]
        traj[:, :, s] = traj_c[:, :, ok]
        taken[s] += ~fresh[ok]
        # a rejected candidate halves its step, until the step is spent
        halve = live[~ok & ~fresh]
        lam[halve] *= 0.5
        halve = halve[lam[halve] > 1e-6]
        # an accepted adjoint converges, runs out of steps or takes a new step
        converged[s] = nrm[s] < NEWTON_TOL
        s = s[~converged[s] & (taken[s] < NEWTON_MAX_ITER)]
        jac = np.swapaxes(res_p[s] - res[s, None], 1, 2) / FD_STEP
        new = _solve_each(jac, -res[s])
        # a non-finite probe or a singular Jacobian fails the start, and so does
        # a non-finite step, which leaves every candidate non-finite
        good = np.isfinite(res_p[s]).all(axis=(1, 2)) & np.isfinite(new).all(axis=1)
        s = s[good]
        step[s], lam[s] = new[good], 1.0
        live = np.sort(np.concatenate([halve, s]))
        cand[live] = eta0[live] + lam[live, None] * step[live]

    sols = [None] * S
    for k in np.flatnonzero(converged):
        path = traj[:, :, k].copy()
        m, eta = path[:, :d], path[:, d:]
        sols[k] = OCSolution(grid=grid, m=m, eta=eta, cost=trajectory_cost(spec, grid, m, -eta),
                             terminal_residual=float(np.linalg.norm(res[k])))
    return sols


def shoot(spec: ModelSpec, nu0, eta0_guess, steps_per_unit: int = 1000):
    """Newton shooting on the initial adjoint from one guess.

    Returns an OCSolution on success, None when Newton stagnates or the
    integration diverges.  It is the one-start case of the Newton that
    enumerate_stationary runs on all of its starts at once.
    """
    guess = np.atleast_1d(np.asarray(eta0_guess, dtype=float))
    return _newton(spec, nu0, guess[None, :], steps_per_unit)[0]


def default_start_grid(spec: ModelSpec, nu0):
    """Lattice of initial-adjoint guesses sized by the a-priori bounds."""
    nu0 = np.atleast_1d(np.asarray(nu0, dtype=float))
    R = (float(np.linalg.norm(nu0)) + spec.g.grad_sup + spec.T)
    R *= float(np.exp(np.linalg.norm(spec.b, 2) * spec.T))
    axes = [np.linspace(-R, R, START_POINTS_PER_AXIS) for _ in range(spec.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.ravel() for g in mesh])


def _initial_means(spec: ModelSpec, nu0):
    """nu0 as finite float points of shape (..., d)."""
    nu0 = np.atleast_1d(np.asarray(nu0, dtype=float))
    if nu0.shape[-1] != spec.dim or not np.all(np.isfinite(nu0)):
        raise InvalidParameter(f"nu0 must be finite, of dimension {spec.dim}: {nu0.tolist()}")
    return nu0


def _stationary_sets(spec: ModelSpec, points, start_grid, steps_per_unit) -> list:
    """The StationarySet of each row of `points`, all shot as one Newton."""
    grids = []
    for p in points:
        starts = default_start_grid(spec, p) if start_grid is None else start_grid
        starts = np.atleast_2d(np.asarray(starts, dtype=float))
        if starts.size == 0:
            raise InvalidParameter("start grid must be nonempty")
        # each cluster keeps its first converged start; shooting the guesses in
        # lexicographic order (that of default_start_grid) makes the kept eta0
        # independent of the order the guesses came in
        grids.append(starts[np.lexsort(starts.T[::-1])])
    sizes = [len(g) for g in grids]
    sols = _newton(spec, np.repeat(points, sizes, axis=0), np.concatenate(grids), steps_per_unit)

    ssets = []
    for lo, n in zip(np.cumsum([0] + sizes), sizes):
        own = sols[lo:lo + n]
        found = []
        for sol in filter(None, own):
            if not any(np.linalg.norm(sol.eta0 - s.eta0) < DEDUP_TOL for s in found):
                found.append(sol)
        if not found:
            raise NoStationaryPoint(f"all {n} starts of the multi-start shooting failed")
        found.sort(key=lambda s: s.cost)
        min_cost = found[0].cost
        tie = COST_TIE_REL * max(1.0, abs(min_cost))
        for s in found:
            s.classification = "minimizer" if s.cost - min_cost <= tie else "stationary-only"
        minimizers = sum(s.classification == "minimizer" for s in found)
        ssets.append(StationarySet(solutions=found, min_cost=min_cost, multiplicity=minimizers,
                                   starts=n, failed=sum(sol is None for sol in own)))
    return ssets


def enumerate_stationary(spec: ModelSpec, nu0, start_grid=None,
                         steps_per_unit: int = 1000) -> StationarySet:
    """Batched multi-start shooting, deduplicated by initial adjoint and sorted by cost."""
    nu0 = _initial_means(spec, nu0)
    return _stationary_sets(spec, nu0[None], start_grid, steps_per_unit)[0]


# --- discretized-control descent (independent cross-check) ------------------


def discrete_cost_and_gradient(spec: ModelSpec, nu0, beta):
    """Cost and exact gradient of the Euler-discretized control functional.

    beta is piecewise constant on K uniform steps; the gradient is the exact
    adjoint gradient of the discrete functional, so descent on it is free of
    inner discretization mismatch.
    """
    nu0 = np.atleast_1d(np.asarray(nu0, dtype=float))
    K, d = beta.shape
    dt = spec.T / K
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


def descend_discrete(spec: ModelSpec, nu0, beta0):
    """Backtracking gradient descent on the discretized functional."""
    beta = np.array(beta0, dtype=float)
    cost, grad = discrete_cost_and_gradient(spec, nu0, beta)
    step = 1.0
    for _ in range(DESCENT_MAX_ITER):
        gnorm = float(np.linalg.norm(grad))
        if gnorm < DESCENT_GRAD_TOL:
            break
        while step > 1e-12:
            cand = beta - step * grad
            c_new, g_new = discrete_cost_and_gradient(spec, nu0, cand)
            if c_new < cost - 0.25 * step * gnorm**2:
                beta, cost, grad = cand, c_new, g_new
                step = min(step * 2.0, 1e3)
                break
            step *= 0.5
        else:
            break
    return beta, cost, grad


def _cross_check(spec: ModelSpec, point, v):
    """Warn when gradient descent on a discretized control beats the value v."""
    gen = np.random.default_rng(CHECK_SEED)
    scale = float(np.linalg.norm(point)) + spec.g.grad_sup + 1.0
    best = np.inf
    for _ in range(CHECK_STARTS):
        beta0 = gen.uniform(-scale, scale, size=(1, spec.dim)) * np.ones(
            (CHECK_CONTROL_STEPS, spec.dim))
        beta0 += 0.1 * gen.normal(size=beta0.shape)
        _, c, _ = descend_discrete(spec, point, beta0)
        best = min(best, c)
    if abs(best - v) > CHECK_REL_TOL * max(1.0, abs(v)) and best < v:
        warnings.warn(
            f"value cross-check disagreement: shooting {v:.6g} vs descent {best:.6g}",
            stacklevel=3)


def value_function(spec: ModelSpec, nu0, cross_check: bool = True,
                   steps_per_unit: int = 1000, start_grid=None):
    """Minimal cost over the stationary enumeration at each point of nu0.

    Points of shape (..., d), all shot as one Newton, give values of shape
    (...), a float for one point (d,).  Each value is cross-checked against
    gradient descent on a discretized control from CHECK_STARTS random starts;
    a gap beyond CHECK_REL_TOL warns, which guards against missed basins.
    """
    nu0 = _initial_means(spec, nu0)
    points = nu0.reshape(-1, spec.dim)
    ssets = _stationary_sets(spec, points, start_grid, steps_per_unit)
    v = np.array([sset.min_cost for sset in ssets])
    if cross_check:
        for point, vp in zip(points, v):
            _cross_check(spec, point, vp)
    v = v.reshape(nu0.shape[:-1])
    return float(v) if v.ndim == 0 else v


def differentiability_probe(spec: ModelSpec, nu0, h: float = 1e-3, **vf_kwargs):
    """One-sided and central difference quotients of the value function per axis.

    Verdict "kink" when any axis's one-sided quotients differ by more than a
    heuristic threshold (KINK_GAP_FACTOR * h, scaled by a local curvature
    estimate); this is a heuristic, not a certificate.  The central quotients
    are the gradient estimate where the verdict is "differentiable".  nu0 and,
    per axis, nu0 + h e_k, nu0 - h e_k, nu0 + 2h e_k are valued in one call.
    """
    if not h > 0:
        raise InvalidParameter(f"probe step h must be positive, got {h}")
    nu0 = _initial_means(spec, nu0)
    vf_kwargs.setdefault("cross_check", False)
    d = spec.dim
    steps = h * np.eye(d)[:, None, :] * np.array([1.0, -1.0, 2.0])[:, None]
    v = value_function(spec, np.concatenate([nu0[None], (nu0 + steps).reshape(-1, d)]), **vf_kwargs)
    v0, (v_p, v_m, v_pp) = v[0], v[1:].reshape(d, 3).T
    right = (v_p - v0) / h
    left = (v0 - v_m) / h
    # curvature estimate from the smooth side
    curv = np.abs(v_pp - 2 * v_p + v0) / h**2
    threshold = KINK_GAP_FACTOR * h * np.maximum(1.0, 0.3 * curv)
    verdict = "kink" if np.any(np.abs(right - left) > threshold) else "differentiable"
    return {"left": left, "right": right, "central": (v_p - v_m) / (2.0 * h), "verdict": verdict}


def symmetric_minimizer_root(kappa: float) -> float:
    """Positive root a of 2 a = kappa tanh(a), the nonzero static minimizer.

    f(a) = 2 a - kappa tanh(a) is convex on a > 0 and positive at kappa / 2,
    so Newton's iterates from there decrease onto the root; stop at the
    first one that does not.
    """
    if not 2 < kappa < math.inf:
        raise InvalidParameter(f"needs finite kappa > 2, got {kappa}")
    a = float(kappa) / 2.0
    while True:
        t = math.tanh(a)
        nxt = a - (2.0 * a - kappa * t) / (2.0 - kappa * (1.0 - t * t))
        if not nxt < a:
            return a
        a = nxt
