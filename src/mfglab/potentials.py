"""Catalogue of potential pairs, their N-corrected cost gradients, and model assembly.

A potential is a scalar function of the mean together with its gradient and
Hessian.  All three take points as an array of shape (..., d) and return
arrays of shape (...), (..., d) and (..., d, d); a single point of shape (d,)
is the case with no batch axis, and a last axis of another length raises
InvalidParameter.  The corrected cost of the N-player mean problem is
F_N(m) = |m|^2/2 + f(m) + R_f(m)/N  with the reminder
R_f(m) = |grad f|^2/2 + m . grad f - f.  The solvers need only its gradient,
which factorises as (I + hess f / N)(m + grad f); corrected_gradient computes
it under the same (..., d) contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameter
from .numerics import TimeGrid, delarue_riccati


@dataclass(frozen=True)
class Potential:
    name: str
    dim: int
    value: Callable          # (..., d) -> (...)
    gradient: Callable       # (..., d) -> (..., d)
    hessian: Callable        # (..., d) -> (..., d, d)
    grad_sup: float          # a-priori bound on |grad| over the probe box
    probe_radius: float
    # unchanged when any one coordinate changes sign, m_i -> -m_i (in 1-d,
    # p(-m) = p(m)); with a diagonal b the field then keeps each mirror symmetry
    even: bool = False
    # (C, k) when value(m) = m.C m / 2 + k.m; enables the Riccati oracle
    quad_coeffs: Optional[tuple] = None


def _points(m, dim):
    """m as float points of shape (..., dim)."""
    m = np.asarray(m, dtype=float)
    if m.shape[-1:] != (dim,):
        raise InvalidParameter(f"expected points of dimension {dim}, got shape {m.shape}")
    return m


def _dot(a, b):
    """Inner product over the last axis."""
    return np.einsum("...i,...i->...", a, b)


def _scan_grad_sup(dim, gradient, radius, n=4001):
    """Sup of |grad| on a dense probe of [-radius, radius]^dim, padded by 5%."""
    if dim == 1:
        pts = np.linspace(-radius, radius, n)[:, None]
    else:
        side = int(math.sqrt(n)) + 1
        ax = np.linspace(-radius, radius, side)
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
    return 1.05 * float(np.max(np.linalg.norm(gradient(pts), axis=1)))


def _build(name, dim, value, gradient, hessian, probe_radius, even, quad_coeffs=None):
    """Potential from array functions of (..., dim) points, with its gradient bound."""
    def on_points(fn):
        return lambda m: fn(_points(m, dim))

    value, gradient, hessian = on_points(value), on_points(gradient), on_points(hessian)
    return Potential(
        name=name,
        dim=dim,
        value=value,
        gradient=gradient,
        hessian=hessian,
        grad_sup=_scan_grad_sup(dim, gradient, probe_radius),
        probe_radius=probe_radius,
        even=even,
        quad_coeffs=quad_coeffs,
    )


def _with(p: Potential, **data) -> Potential:
    """p with reference data of its construction attached as attributes, so
    scenarios read it from the built potential instead of recomputing it."""
    for key, val in data.items():
        object.__setattr__(p, key, val)
    return p


def corrected_gradient(p: Potential, N: int, m) -> np.ndarray:
    """(I + hess p / N)(m + grad p), the gradient of the corrected cost of p."""
    if N < 1:
        raise InvalidParameter("N must be at least 1")
    m = _points(m, p.dim)
    return np.einsum("...ij,...j->...i", np.eye(p.dim) + p.hessian(m) / N, m + p.gradient(m))


# --- catalogue -------------------------------------------------------------


def make_zero(dim: int = 1) -> Potential:
    z = np.zeros(dim)
    Z = np.zeros((dim, dim))
    return _build(
        "zero", dim,
        value=lambda m: np.zeros(m.shape[:-1])[()],
        gradient=lambda m: np.zeros(m.shape),
        hessian=lambda m: np.zeros(m.shape + (dim,)),
        probe_radius=10.0, even=True, quad_coeffs=(Z, z),
    )


def make_quadratic(c: float, dim: int = 1, kappa=None) -> Potential:
    """p(m) = c |m|^2 / 2 + kappa . m.

    With c = -1 and kappa = 0 this cancels the |m|^2/2 running state cost,
    which reduces the control problem to a pure control-energy problem with
    constant optimal controls.
    """
    C = c * np.eye(dim)
    k = np.zeros(dim) if kappa is None else np.atleast_1d(np.asarray(kappa, dtype=float))
    if k.shape != (dim,):
        raise InvalidParameter("kappa must have the model dimension")
    even = bool(np.all(k == 0.0))
    name = f"quadratic(c={c})" if even else f"quadratic(c={c},kappa={k.tolist()})"
    return _build(
        name, dim,
        value=lambda m: _dot(0.5 * c * m, m) + _dot(k, m),
        gradient=lambda m: c * m + k,
        hessian=lambda m: np.broadcast_to(C, m.shape + (dim,)).copy(),
        probe_radius=10.0, even=even, quad_coeffs=(C, k),
    )


def _logcosh_profile(kappa):
    """x -> -kappa log cosh x and its first two derivatives, elementwise."""
    def value(x):
        # log cosh x = |x| + log((1 + exp(-2|x|)) / 2), overflow-safe
        ax = np.abs(x)
        return -kappa * (ax + np.log1p(np.exp(-2 * ax)) - math.log(2.0))

    def first(x):
        return -kappa * np.tanh(x)

    def second(x):
        # cosh^2 overflows near |x| = 355, where sech^2 is 0 in double precision
        ax = np.abs(x)
        return np.where(ax < 350, -kappa / np.cosh(np.minimum(ax, 350.0)) ** 2, 0.0)

    return value, first, second


def make_logcosh_terminal(kappa: float) -> Potential:
    """g(m) = -kappa log cosh m in dimension 1, kappa > 2, carrying kappa.

    Even and concave with two symmetric cost minimizers; for kappa <= 2 the
    associated static problem has a single minimizer, so reject.
    """
    if not 2 < kappa < math.inf:
        raise InvalidParameter(f"logcosh needs finite kappa > 2, got {kappa}")
    value, first, second = _logcosh_profile(kappa)
    return _with(_build(f"logcosh(kappa={kappa})", 1,
                        value=lambda m: value(m[..., 0]),
                        gradient=first,
                        hessian=lambda m: second(m)[..., None],
                        probe_radius=8.0, even=True), kappa=kappa)


def _bump_cdf(s):
    """Integral of the quartic bump (15/16)(1 - s^2)^2 from -1 to s."""
    return 0.5 + (15.0 / 16.0) * (s - 2.0 * s**3 / 3.0 + s**5 / 5.0)


def _relu_smooth(x, rho):
    """Quartic-bump mollification of max(x, 0) over width rho (vectorized)."""
    s = np.clip(x / rho, -1.0, 1.0)
    inside = x * _bump_cdf(s) + (rho * 15.0 / 96.0) * (1.0 - s**2) ** 3
    return np.where(x >= rho, x, np.where(x > -rho, inside, 0.0))


def _relu_smooth_deriv(x, rho):
    inside = _bump_cdf(np.clip(x / rho, -1.0, 1.0))
    return np.where(x >= rho, 1.0, np.where(x > -rho, inside, 0.0))


# time steps of the scalar Riccati solve that gives r_delta
DELARUE_RICCATI_STEPS = 4000
# Gauss-Legendre rule with 4 nodes: exact for polynomials of degree <= 7
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)


def make_delarue_terminal(b: float, T: float, delta: float,
                          rho: Optional[float] = None) -> Potential:
    """Terminal potential whose gradient is the saturated-linear coupling.

    grad g(m) = -m/r on |m| <= r and -sign(m) outside, with r = r_delta from
    the scalar Riccati data on DELARUE_RICCATI_STEPS steps; the kinks at +-r
    are mollified by convolution with a quartic bump of width rho, with
    0 < rho < r (default r/50), so g is C^2.  The displayed coupling is odd,
    so g itself is even.  The potential carries r_delta, rho and the Riccati
    data: riccati_grid and w.
    """
    grid = TimeGrid(0.0, T, DELARUE_RICCATI_STEPS)
    _, w, r = delarue_riccati(b, grid, delta)
    if rho is None:
        rho = r / 50.0
    if not rho > 0:
        raise InvalidParameter(f"mollification width must be positive, got {rho}")
    if rho >= r:
        raise InvalidParameter("mollification width must be below r_delta")

    def gradient(m):
        return -m / r + (_relu_smooth(m - r, rho) - _relu_smooth(-m - r, rho)) / r

    def hessian(m):
        h = (-1.0 + _relu_smooth_deriv(m - r, rho) + _relu_smooth_deriv(-m - r, rho)) / r
        return h[..., None]

    def gauss(lo, hi):
        # mollified minus exact gradient, integrated over [lo, hi] on one side of r
        half = 0.5 * (hi - lo)
        y = (lo + half)[..., None] + half[..., None] * _GL_NODES
        return half * ((gradient(y) + np.where(y > r, 1.0, y / r)) @ _GL_WEIGHTS)

    def value(m):
        x = np.abs(m[..., 0])
        # exact antiderivative of the unmollified gradient from 0
        exact = np.where(x <= r, -x * x / (2.0 * r), -r / 2.0 - (x - r))[()]
        # the mollified and exact gradients differ only on [r - rho, r + rho],
        # by a polynomial of degree 6 on each side of r; the clip makes the
        # correction 0 below the band and the full-band integral above it
        y = np.clip(x, r - rho, r + rho)
        return exact + gauss(r - rho, np.minimum(y, r)) + gauss(r, np.maximum(y, r))

    p = _build(f"delarue(delta={delta},rho={rho:.6g})", 1, value, gradient, hessian,
               probe_radius=4.0, even=True)
    return _with(p, r_delta=r, rho=rho, riccati_grid=grid, w=w)


def make_radial_logcosh(kappa: float, dim: int) -> Potential:
    """g(m) = -kappa log cosh |m|, the log-cosh terminal as a radial potential.

    The gradient -kappa tanh(|m|) m/|m| has a removable singularity at the
    origin, where tanh 0 = 0 makes it continuous; the Hessian limit there is
    -kappa I.
    """
    if not 2 < kappa < math.inf:
        raise InvalidParameter(f"radial logcosh needs finite kappa > 2, got {kappa}")
    gt, gt_p, gt_pp = _logcosh_profile(kappa)
    I = np.eye(dim)

    def norm(m):
        return np.sqrt(_dot(m, m))

    def value(m):
        return gt(norm(m))

    def gradient(m):
        rr = norm(m)[..., None]
        origin = rr == 0.0
        return np.where(origin, 0.0, gt_p(rr) * m / np.where(origin, 1.0, rr))

    def hessian(m):
        rr = norm(m)[..., None, None]
        near = rr < 1e-9
        rr = np.where(near, 1.0, rr)
        e = m[..., None] / rr
        P = e * np.swapaxes(e, -1, -2)
        H = gt_pp(rr) * P + (gt_p(rr) / rr) * (I - P)
        return np.where(near, gt_pp(0.0) * I, H)

    return _with(_build(f"radial_logcosh(kappa={kappa},d={dim})", dim, value, gradient,
                        hessian, probe_radius=6.0, even=True), kappa=kappa)


def from_name(name: str, dim: int = 1, **params) -> Potential:
    """Catalogue lookup used by the CLI configuration."""
    table = {
        "zero": lambda: make_zero(dim),
        "quadratic": lambda: make_quadratic(params["c"], dim, params.get("linear")),
        "logcosh": lambda: make_logcosh_terminal(params["kappa"]),
        "delarue": lambda: make_delarue_terminal(params["b"], params["T"], params["delta"]),
        "radial_logcosh": lambda: make_radial_logcosh(params["kappa"], dim),
    }
    if name not in table:
        raise InvalidParameter(f"unknown potential {name!r}; known: {sorted(table)}")
    return table[name]()


# --- model assembly --------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Full model: dynamics (b, sigma, T), potentials (f, g), initial mean nu0.

    Each player starts at nu0 + clip(z, ±6) with z standard normal; see
    field.simulate_ensemble.
    """

    dim: int
    b: np.ndarray
    sigma: float
    T: float
    f: Potential
    g: Potential
    nu0: np.ndarray

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        object.__setattr__(self, "b", b)
        nu0 = np.atleast_1d(np.asarray(self.nu0, dtype=float))
        object.__setattr__(self, "nu0", nu0)
        if b.shape != (self.dim, self.dim):
            raise InvalidParameter("drift matrix shape must match the dimension")
        if nu0.shape != (self.dim,):
            raise InvalidParameter("nu0 shape must match the dimension")
        if self.f.dim != self.dim or self.g.dim != self.dim:
            raise InvalidParameter("potential dimensions must match the model")
        if not 0 <= self.sigma < np.inf:
            raise InvalidParameter(f"volatility must be finite and nonnegative, got {self.sigma}")
        if not 0 < self.T < np.inf:
            raise InvalidParameter(f"horizon must be finite and positive, got {self.T}")

    @property
    def even_data(self) -> bool:
        return self.f.even and self.g.even

    @property
    def running_state_cost_vanishes(self) -> bool:
        """True when |m|^2/2 + f(m) = 0 to the bit: f = quadratic(c=-1), C = -I, k = 0."""
        qc = self.f.quad_coeffs
        if qc is None:
            return False
        C, k = qc
        return bool(np.array_equal(C, -np.eye(self.dim)) and not np.any(k))
