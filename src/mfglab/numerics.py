"""Dense linear algebra, ODE/Riccati integration, seeded sampling and statistics.

Everything here is a pure function of its inputs.  Randomness is addressed by
(master seed, stream index) pairs so that ensembles are reproducible no matter
how work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import wasserstein_distance

from .errors import (
    IntegrationDiverged,
    InvalidInput,
    InvalidParameter,
    RiccatiEscape,
)

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


@dataclass(frozen=True)
class RngStream:
    """Counter-addressed Gaussian stream: (seed, index) fixes the sequence."""

    seed: int
    index: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.seed, self.index)))


def integrate_ode(rhs, x0, grid: TimeGrid, direction: str = "forward") -> np.ndarray:
    """Classical RK4 on a uniform grid; the package's only ODE stepper.

    The state x0 may be an array of any shape; rhs(t, x) returns the same
    shape.  Returns the state at every grid node, indexed in forward time
    order regardless of direction.  For direction="backward", x0 is the
    terminal condition at T.  A non-finite state raises IntegrationDiverged
    at the first node where it appears, tested once after the loop: a
    non-finite value stays non-finite under the RK4 update.
    """
    if direction not in ("forward", "backward"):
        raise InvalidParameter(f"unknown direction {direction!r}")
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    nodes = grid.nodes
    out = np.empty((grid.steps + 1,) + x.shape)
    h, step, k = (grid.dt, 1, 0) if direction == "forward" else (-grid.dt, -1, grid.steps)
    out[k] = x
    # past an overflow the loop runs on, silently, with non-finite values
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(grid.steps):
            t = nodes[k]
            k1 = np.asarray(rhs(t, x))
            k2 = np.asarray(rhs(t + h / 2, x + h / 2 * k1))
            k3 = np.asarray(rhs(t + h / 2, x + h / 2 * k2))
            k4 = np.asarray(rhs(t + h, x + h * k3))
            x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            k += step
            out[k] = x
    # the steps in integration order; the start value is not one
    finite = np.isfinite(out[::step]).all(axis=tuple(range(1, out.ndim)))[1:]
    if not finite.all():
        raise IntegrationDiverged(nodes[::step][1 + np.argmin(finite)])
    return out


def riccati_backward(b, Q_run, Q_term, grid: TimeGrid) -> np.ndarray:
    """Backward matrix Riccati solve of  phidot = phi^2 - phi b - b^T phi - Q_run.

    Terminal condition phi(T) = Q_term.  The right-hand side is symmetrized,
    so RK4, which combines stages elementwise, keeps phi exactly symmetric.
    Output is indexed in forward time order, shape (steps+1, d, d).  A
    solution that grows beyond RICCATI_ESCAPE or overflows raises
    RiccatiEscape.
    """
    b = np.atleast_2d(np.asarray(b, dtype=float))
    Q_run = np.atleast_2d(np.asarray(Q_run, dtype=float))
    Q_term = np.atleast_2d(np.asarray(Q_term, dtype=float))
    for name, M in (("Q_run", Q_run), ("Q_term", Q_term)):
        if not np.allclose(M, M.T):
            raise InvalidParameter(f"{name} must be symmetric")

    def rhs(t, phi):
        R = phi @ phi - phi @ b - b.T @ phi - Q_run
        return 0.5 * (R + R.T)

    try:
        phi = integrate_ode(rhs, 0.5 * (Q_term + Q_term.T), grid, direction="backward")
    except IntegrationDiverged as exc:
        raise RiccatiEscape(exc.t) from None
    escaped = np.nonzero(np.max(np.abs(phi), axis=(1, 2)) > RICCATI_ESCAPE)[0]
    if escaped.size:
        raise RiccatiEscape(grid.nodes[escaped[-1]])
    return phi


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
    """Order-statistics W1 distance between two one-dimensional laws.

    `sample_b` may be a plain sample or the atom locations of a discrete law
    with `weights_b`.
    """
    sample_a = np.asarray(sample_a, dtype=float).ravel()
    sample_b = np.asarray(sample_b, dtype=float).ravel()
    if sample_a.size == 0 or sample_b.size == 0:
        raise InvalidInput("wasserstein1_1d needs nonempty samples")
    return float(wasserstein_distance(sample_a, sample_b, v_weights=weights_b))


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
