"""References the tests check the package against.

The N-corrected cost of the mean problem, the reference for corrected_gradient
and the N-player path costs:
F_N(m) = |m|^2/2 + p(m) + R_p(m)/N with the reminder
R_p(m) = |grad p(m)|^2/2 + m . grad p(m) - p(m), for points m of shape (..., d).

The constant-control (static) reduction of the limit control problem, an
oracle for shooting: with b = 0 and a vanishing running state cost, optimal
controls are constant in time, so the problem is the minimization over a of
U(t0, nu0, a) below.
"""

import math

import numpy as np

from mfglab.errors import NoStationaryPoint

SCAN_POINTS = 801        # static reduction: points of the line scan
POLISH_XATOL = 1e-12     # static reduction: final bracket width of each polish


def reminder(p, m):
    """R_p(m) = |grad p(m)|^2 / 2 + m . grad p(m) - p(m)."""
    m = np.asarray(m, dtype=float)
    g = p.gradient(m)
    return np.sum(0.5 * g * g, axis=-1) + np.sum(m * g, axis=-1) - p.value(m)


def corrected_cost(p, N, m):
    """F_N(m) = |m|^2/2 + p(m) + R_p(m)/N, whose gradient corrected_gradient is."""
    m = np.asarray(m, dtype=float)
    return np.sum(0.5 * m * m, axis=-1) + p.value(m) + reminder(p, m) / N


def _require_static(spec):
    if np.any(spec.b != 0.0) or not spec.running_state_cost_vanishes:
        raise ValueError(
            "static reduction needs b = 0 and a vanishing running state cost "
            "(running potential quadratic(c=-1))")


def static_U(spec, t0, nu0, a):
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


def _golden_section(f, lo: np.ndarray, hi: np.ndarray):
    """Golden-section search of f on each bracket [lo, hi] at once, to width POLISH_XATOL.

    f maps an array of points to their values.  Each round keeps the part of
    every bracket that holds its smaller interior value and evaluates f at one
    new point per bracket.  Returns the final midpoints and their values.
    """
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = f(c), f(d)
    while np.max(hi - lo) > POLISH_XATOL:
        left = fc <= fd                     # a minimum lies in [lo, d]
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        new = np.where(left, hi - shrink * (hi - lo), lo + shrink * (hi - lo))
        fnew = f(new)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, fnew, fd), np.where(left, fc, fnew)
    s = 0.5 * (lo + hi)
    return s, f(s)


def static_U_minimize(spec, t0, nu0):
    """All local minimizers of a -> U(t0, nu0, a), exploiting symmetry.

    In dimension 1 the line is scanned and each bracket is polished by
    golden-section search.  In higher dimension the minimizer set lies on the
    ray through nu0 (or is a full sphere when nu0 = 0 and g is radial); the
    scalar reduction is used.  Returns (minimizers, min_value, is_sphere).
    """
    _require_static(spec)
    nu0 = np.atleast_1d(np.asarray(nu0, dtype=float))
    tau = spec.T - t0
    scan_radius = (float(np.linalg.norm(nu0)) + spec.g.grad_sup + 2.0) / max(tau, 1e-9)

    on_sphere = spec.dim > 1 and np.all(nu0 == 0.0)
    if np.all(nu0 == 0.0):
        direction = np.eye(spec.dim)[0]
    else:
        direction = nu0 / np.linalg.norm(nu0)

    def U1(s):
        return static_U(spec, t0, nu0, s[..., None] * direction)

    ss = np.linspace(-scan_radius, scan_radius, SCAN_POINTS)
    vals = U1(ss)
    i = 1 + np.flatnonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]))
    if not i.size:
        raise NoStationaryPoint("static scan found no local minimum")
    polished = zip(*_golden_section(U1, ss[i - 1], ss[i + 1]))
    if on_sphere:   # minimizers form the sphere |a| = s: fold signs, lower values first
        polished = sorted(((abs(s), v) for s, v in polished), key=lambda sv: sv[1])
    minima = []
    for s_opt, v_opt in polished:
        if not any(abs(s_opt - s) < 1e-7 for s, _ in minima):
            minima.append((float(s_opt), float(v_opt)))
    best = min(v for _, v in minima)
    keep = sorted((s, v) for s, v in minima if v - best <= 1e-9 * max(1.0, abs(best)))
    minimizers = [s * direction for s, v in keep]
    return minimizers, best, on_sphere
