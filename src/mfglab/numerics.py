"""Grids, shooting's RK4 stepper, closed-form Riccati solves, seeded sampling and statistics.

Everything here is a pure function of its inputs.  Randomness is addressed by
(master seed, stream index) pairs so that ensembles are reproducible no matter
how work is scheduled: stream (seed, p) is numpy's PCG64 over
SeedSequence((seed, p)).  numpy.random is imported at the first draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, InvalidParameter, RiccatiEscape

# mirrored grid nodes may differ by this much relative to the axis extent
SYMMETRY_REL_TOL = 1e-12
# a Riccati solution beyond this magnitude has escaped to infinity
RICCATI_ESCAPE = 1e12


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t0, T] with `steps` intervals."""

    t0: float
    T: float
    steps: int

    def __post_init__(self):
        if not self.t0 < self.T:
            raise InvalidParameter(f"need t0 < T, got [{self.t0}, {self.T}]")
        if self.steps < 1:
            raise InvalidParameter("TimeGrid needs at least one step")

    @property
    def dt(self) -> float:
        return (self.T - self.t0) / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.t0, self.T, self.steps + 1)


@dataclass(frozen=True)
class SpaceGrid:
    """Tensor grid in dimension 1 or 2.

    `axes` is a tuple of (lower, upper, node count) per axis.  Symmetric
    experiments require each axis to be symmetric about 0 with 0 as a node;
    `is_symmetric` checks that.
    """

    axes: tuple

    def __post_init__(self):
        if len(self.axes) not in (1, 2):
            raise InvalidParameter("SpaceGrid supports dim 1 or 2 only")
        for lo, hi, n in self.axes:
            if not lo < hi:
                raise InvalidParameter("axis lower bound must be below upper bound")
            if n < 3:
                raise InvalidParameter("axis needs at least 3 nodes")

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def spacings(self) -> tuple:
        return tuple((hi - lo) / (n - 1) for lo, hi, n in self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(n for _, _, n in self.axes)

    def axis_nodes(self, k: int) -> np.ndarray:
        lo, hi, n = self.axes[k]
        return np.linspace(lo, hi, n)

    def meshgrid(self):
        """Coordinate arrays of shape `self.shape`, indexed axis-by-axis."""
        return np.meshgrid(*(self.axis_nodes(k) for k in range(self.dim)), indexing="ij")

    def is_symmetric(self) -> bool:
        for k in range(self.dim):
            nodes = self.axis_nodes(k)
            # linspace nodes mirror only up to an ulp; compare at that scale
            cut = SYMMETRY_REL_TOL * max(abs(self.axes[k][0]), abs(self.axes[k][1]), 1.0)
            if nodes.size % 2 == 0 or not np.all(np.abs(nodes + nodes[::-1]) <= cut):
                return False
        return True

    @staticmethod
    def symmetric(L: float, n: int, dim: int = 1) -> "SpaceGrid":
        if n % 2 == 0:
            n += 1
        return SpaceGrid(tuple((-L, L, n) for _ in range(dim)))


def stream_generators(seed: int, indices):
    """Yield np.random.default_rng(SeedSequence((seed, index))), numpy's PCG64
    over that SeedSequence, for each index in turn.  A seed other than an
    integer, a bool seed, and whatever SeedSequence refuses raise
    InvalidParameter."""
    from numpy.random import PCG64, Generator, SeedSequence

    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise InvalidParameter(f"a seed must be a non-negative integer, got {seed!r}")
    for index in indices:
        try:
            seq = SeedSequence((seed, index))
        except (TypeError, ValueError) as exc:
            raise InvalidParameter(f"no stream ({seed!r}, {index!r}): {exc}") from None
        yield Generator(PCG64(seq))


def integrate_ode(rhs, x0, grid: TimeGrid) -> np.ndarray:
    """Classical RK4 on a uniform grid, forward from x0 at t0; shooting's stepper.

    The state x0 may be an array of any shape; rhs(t, x, out) writes the
    slope at x into `out`, an array of that shape, and returns it.  The stage
    and slope buffers are allocated once per call.  Returns the state at every
    grid node.  An entry that overflows runs on silently: a non-finite value
    stays non-finite under the RK4 update, so the last state shows every
    divergence.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    h = grid.dt
    out = np.empty((grid.steps + 1,) + x0.shape)
    out[0] = x0
    # in out's C order whatever x0's layout: ufuncs on mixed layouts run slower
    stage, k1, k2, k3, k4 = (np.empty(x0.shape) for _ in range(5))
    # the ufuncs below take their out positionally, the cheapest call
    with np.errstate(over="ignore", invalid="ignore"):
        for k, t in enumerate(grid.nodes[:-1].tolist()):
            x = out[k]
            rhs(t, x, k1)
            rhs(t + h / 2, np.add(x, np.multiply(h / 2, k1, stage), stage), k2)
            rhs(t + h / 2, np.add(x, np.multiply(h / 2, k2, stage), stage), k3)
            rhs(t + h, np.add(x, np.multiply(h, k3, stage), stage), k4)
            np.add(x, np.multiply(h / 6, k1 + 2 * k2 + 2 * k3 + k4, stage), out[k + 1])
    return out


# the 1-norm up to which the degree-13 Pade approximant of exp is accurate to
# double precision (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
_THETA13 = 5.371920351148152


# the largest d |H|_1 (T - t) of one Riccati span: the entries of exp(H (t - T))
# and det X then stay below e^_EXP_SPAN, far from overflow at e^709
_EXP_SPAN = 300.0


def _expm(A: np.ndarray) -> np.ndarray:
    """exp of each matrix of a stack (..., n, n), none assumed diagonalizable:
    scaled by its own 2^-s into the 1-norm ball _THETA13, Pade, squared s times."""
    s = np.maximum(np.frexp(np.abs(A).sum(axis=-2).max(axis=-1) / _THETA13)[1], 0)
    A = np.ldexp(A, -s[..., None, None])
    # Pade numerator sum c_k A^k = V + U, V its even and U its odd part
    c = [math.factorial(26 - k) / (math.factorial(k) * math.factorial(13 - k)) for k in range(14)]
    A2, power, U, V = A @ A, np.eye(A.shape[-1]), 0.0, 0.0
    for k in range(0, 14, 2):
        V, U, power = V + c[k] * power, U + c[k + 1] * power, power @ A2
    U = A @ U
    E = np.linalg.solve(V - U, V + U)
    for i in range(int(s.max(initial=0))):
        sq = s > i
        E[sq] = E[sq] @ E[sq]
    return E


def riccati_backward(b, Q_run, Q_term, grid: TimeGrid, R=None) -> np.ndarray:
    """Backward solve of  phidot = phi R phi - phi b - b^T phi - Q_run,  phi(T) = Q_term.

    R, the control weight, defaults to I.  The coefficients are constant, so the
    solve is closed-form (Radon's lemma; Reid, Riccati Differential Equations,
    1972, ch. 2): phi = Y X^-1 with [X; Y](t) = exp(H (t - T)) [I; Q_term] and
    H = [[b, -R], [-Q_run, -b^T]], one batched exponential for all nodes.  Over a
    horizon with d |H|_1 (T - t0) > _EXP_SPAN, where the exponential could
    overflow, it restarts from the last solved phi in spans that stay below
    that bound.  phi is symmetrized, shape (steps+1, d, d) in forward time order.
    RiccatiEscape is raised at the latest node before which X turns singular or
    |phi| > RICCATI_ESCAPE.
    """
    b = np.atleast_2d(np.asarray(b, dtype=float))
    Q_run = np.atleast_2d(np.asarray(Q_run, dtype=float))
    Q_term = np.atleast_2d(np.asarray(Q_term, dtype=float))
    for name, M in (("Q_run", Q_run), ("Q_term", Q_term)):
        if not np.allclose(M, M.T):
            raise InvalidParameter(f"{name} must be symmetric")
    d = len(b)
    R = np.eye(d) if R is None else np.atleast_2d(np.asarray(R, dtype=float))
    H = np.block([[b, -R], [-0.5 * (Q_run + Q_run.T), -b.T]])
    span = d * np.abs(H).sum(axis=0).max() * (grid.T - grid.t0)
    nodes, steps = grid.nodes, grid.steps
    # steps per span; a NaN in H makes one span, which reports the escape
    chunk = max(1, int(steps * _EXP_SPAN / span)) if span > _EXP_SPAN else steps
    phi = np.empty((steps + 1, d, d))
    hi, phi_hi = steps, 0.5 * (Q_term + Q_term.T)
    while hi > 0:       # spans of nodes lo..hi, latest first, each from phi at hi
        lo = max(hi - chunk, 0)
        phi[lo:hi + 1], escaped = _riccati_span(H, phi_hi, nodes[lo:hi + 1] - nodes[hi])
        if escaped.any():
            raise RiccatiEscape(nodes[lo + np.nonzero(escaped)[0][-1]])
        hi, phi_hi = lo, phi[lo]
    return phi


def _riccati_span(H: np.ndarray, phi_T: np.ndarray, tau: np.ndarray):
    """phi = Y X^-1 at the offsets tau <= 0 from the end of a span where phi = phi_T,
    and the mask of the nodes at which the solve has escaped."""
    d = len(phi_T)
    with np.errstate(all="ignore"):     # an overflow is an escape, not a warning
        XY = _expm(H * tau[:, None, None]) @ np.vstack([np.eye(d), phi_T])
        # transposed, so that phi^T = X^-T Y^T is a batched solve
        Xt, Yt = XY[:, :d].swapaxes(1, 2), XY[:, d:].swapaxes(1, 2)
        det = np.linalg.det(Xt)
        escaped = ~((det > 0) & (det < np.inf))
        Xt[escaped] = np.eye(d)         # only so that the solves stay defined
        phi = np.linalg.solve(Xt, Yt)
        phi = 0.5 * (phi + phi.swapaxes(1, 2))
        escaped |= ~(np.abs(phi).max(axis=(1, 2)) <= RICCATI_ESCAPE)
        # X_k X_{k+1}^-1 = I + dt R phi_{k+1} + O(dt b) has a nearly real spectrum; real
        # parts <= 0 mark a step through a singular X, even where det X stays positive
        step = np.linalg.eigvals(np.linalg.solve(Xt[1:], Xt[:-1]))
        escaped[:-1] |= (step.real <= 0).any(axis=1)
    return phi, escaped


def delarue_riccati(b: float, grid: TimeGrid, delta: float):
    """Scalar Riccati data of the two-trajectory terminal-coupling example.

    Solves etadot = eta^2 - 2 b eta - 1 backward from eta(T) = 1, builds
    w_t = exp(int_t^T (-b + eta_s) ds) and r_delta = int_delta^T w_s^{-2} ds
    by trapezoid quadrature on the same grid.  Returns (eta, w, r_delta) with
    eta, w sampled at the grid nodes.
    """
    if not (grid.t0 < delta < grid.T):
        raise InvalidParameter(f"delta must lie in ({grid.t0}, {grid.T}), got {delta}")
    eta = riccati_backward([[b]], [[1.0]], [[1.0]], grid)[:, 0, 0]
    integrand = -b + eta
    nodes = grid.nodes
    # I(t) = int_t^T integrand ds, via cumulative trapezoid from the right
    seg = 0.5 * (integrand[1:] + integrand[:-1]) * grid.dt
    tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    w = np.exp(tail)
    winv2 = w ** (-2.0)
    first = np.argmax(nodes >= delta)
    r = float(np.trapezoid(winv2[first:], nodes[first:]))
    if first > 0 and nodes[first] > delta:
        # partial cell [delta, nodes[first]] by linear interpolation
        t_lo, t_hi = nodes[first - 1], nodes[first]
        f_lo, f_hi = winv2[first - 1], winv2[first]
        f_delta = f_lo + (f_hi - f_lo) * (delta - t_lo) / (t_hi - t_lo)
        r += 0.5 * (f_delta + f_hi) * (t_hi - delta)
    return eta, w, r


def wasserstein1_1d(sample_a, sample_b, weights_b=None) -> float:
    """W1 distance between two one-dimensional laws, the integral of |F_a - F_b|.

    `sample_b` is a plain sample (unit weights) or the atom locations of a
    discrete law with `weights_b` (non-negative, with a positive finite sum).
    Merge-sort all values, read both CDFs at each merged value, and weight
    |F_a - F_b| by the gaps between them.  The tests compare it bit for bit with a
    reference W1 implementation.
    """
    sample_a = np.asarray(sample_a, dtype=float).ravel()
    sample_b = np.asarray(sample_b, dtype=float).ravel()
    if sample_a.size == 0 or sample_b.size == 0:
        raise InvalidInput("wasserstein1_1d needs nonempty samples")
    if not (np.isfinite(sample_a).all() and np.isfinite(sample_b).all()):
        raise InvalidInput("wasserstein1_1d needs finite samples")
    merged = np.concatenate((sample_a, sample_b))
    merged.sort(kind="mergesort")
    deltas = np.diff(merged)
    merged = merged[:-1]
    cdf_a = np.sort(sample_a).searchsorted(merged, "right") / sample_a.size
    if weights_b is None:   # unit weights: cum[idx] / cum[-1] below is then idx / n
        weights_b = np.ones(sample_b.size)
    weights_b = np.asarray(weights_b, dtype=float).ravel()
    if weights_b.size != sample_b.size or not (
            np.all(weights_b >= 0) and 0 < np.sum(weights_b) < np.inf):
        raise InvalidInput(f"wasserstein1_1d needs {sample_b.size} non-negative "
                           "weights with a positive finite sum")
    order = np.argsort(sample_b)
    cum = np.concatenate(([0], np.cumsum(weights_b[order])))
    cdf_b = cum[sample_b[order].searchsorted(merged, "right")] / cum[-1]
    return float(np.dot(np.abs(cdf_a - cdf_b), deltas))


def kuiper_uniformity(angles) -> tuple:
    """Kuiper one-sample test of angles in [0, 2pi) against the uniform law.

    Returns (V, p) with the asymptotic p-value of Stephens' approximation.
    Kuiper's statistic is rotation invariant, which is what a test of a
    rotation-invariant limit law needs.
    """
    angles = np.asarray(angles, dtype=float).ravel()
    n = angles.size
    if n < 30:
        raise InvalidInput(f"Kuiper test needs at least 30 angles, got {n}")
    if not np.isfinite(angles).all():
        raise InvalidInput("Kuiper test needs finite angles")
    u = np.sort(np.mod(angles, 2.0 * np.pi)) / (2.0 * np.pi)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - u)
    d_minus = np.max(u - (i - 1) / n)
    V = float(d_plus + d_minus)
    lam = (math.sqrt(n) + 0.155 + 0.24 / math.sqrt(n)) * V
    if lam < 0.4:
        return V, 1.0
    j = np.arange(1, 121)
    terms = (4.0 * j**2 * lam**2 - 1.0) * np.exp(-2.0 * j**2 * lam**2)
    p = float(np.clip(2.0 * np.sum(terms), 0.0, 1.0))
    return V, p
