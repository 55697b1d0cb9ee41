"""Decoupling field of the empirical-mean system and path simulation.

The vector field u(t, m) with eta_t = u(t, m_t) solves a backward quasilinear
system: for the N-player mean,

    -du_i/dt - nu Lap u_i - (b m - u) . grad u_i - (b^T u)_i = source_i(m)

with nu = sigma^2 / (2N), source = grad F_N and terminal layer grad G_N; the
common-noise variant has nu = eps^2 / 2 and the reminder-free source m +
grad f with terminal m + grad g.  The scheme is explicit (Heun in time)
on a truncated tensor grid with linear-extrapolation ghost nodes: one stencil
per axis, two coefficient products of one raw difference, gives upwinded
transport and centered diffusion, and every step writes into buffers
allocated once per solve.  One implicit-in-diffusion step at the first
backward level damps terminal-layer roughness; it is solved directly: a
Thomas sweep in 1-d; in 2-d, 1-d sweeps on the edge lines and fast
diagonalization of the interior.  An odd field (even data, symmetric grid)
steps only the first axis's rows up to its center, plus a reflected ghost row;
2-d evaluation gathers each point's corners.  numpy is the only dependency.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CflViolation, InvalidInput, InvalidOracle, InvalidParameter, PdeDiverged
from .numerics import RngStream, SpaceGrid, TimeGrid, riccati_backward
from .potentials import ModelSpec, corrected_gradient

# stability bounds of the explicit scheme: nu dt / dx^2 and |c| dt / dx
CFL_DIFF = 0.25
CFL_ADV = 0.5
VELOCITY_MARGIN = 2.0    # stable_time_grid's factor on the terminal advection speed


@dataclass
class DecouplingField:
    grid: SpaceGrid
    tgrid: TimeGrid
    values: np.ndarray            # (steps+1, *grid.shape, d)
    metadata: dict = field(default_factory=dict)

    def evaluate_batch(self, t: float, points: np.ndarray) -> np.ndarray:
        """Multilinear in space, linear in time, at query points (n, d)."""
        tg = self.tgrid
        # times outside [t0, T] take the nearest end level, never extrapolate
        s = min(max((t - tg.t0) / tg.dt, 0.0), tg.steps)
        k = min(int(s), tg.steps - 1)
        w = s - k
        idx, frac = _cells(self.grid, points)
        if self.grid.dim == 1:      # a 1-d level is small: blend it whole
            (i,), (wx,) = idx, frac
            level = (1.0 - w) * self.values[k] + w * self.values[k + 1]
            return (1.0 - wx) * level[i] + wx * level[i + 1]
        # 2-d: blend in time only each point's corners (i, j), (i+1, j), (i, j+1)
        # and (i+1, j+1), rows i n1 + j + (0, n1, 1, n1 + 1) of the flat levels
        (i, j), (wx, wy), n1 = idx, frac, self.grid.shape[1]
        rows = i * n1 + j + np.array([[0], [n1], [1], [n1 + 1]])      # (4, n)
        flat = self.values.reshape(tg.steps + 1, -1, self.grid.dim)
        c = (1.0 - w) * flat[k].take(rows, axis=0) + w * flat[k + 1].take(rows, axis=0)
        return ((1.0 - wx) * (1.0 - wy) * c[0] + wx * (1.0 - wy) * c[1]
                + (1.0 - wx) * wy * c[2] + wx * wy * c[3])

    def evaluate(self, t: float, m) -> np.ndarray:
        return self.evaluate_batch(t, np.atleast_2d(np.asarray(m, dtype=float)))[0]


def _cells(grid: SpaceGrid, points: np.ndarray):
    """Per axis, the lower node index of each point's cell and the fraction (n, 1) into it."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    idx, frac = [], []
    for ax in range(grid.dim):
        lo, hi, n = grid.axes[ax]
        dx = (hi - lo) / (n - 1)
        s = np.minimum(np.maximum((pts[:, ax] - lo) / dx, 0.0), n - 1 - 1e-12)
        i = s.astype(np.intp)       # s >= 0, so truncation is the floor
        idx.append(i)
        frac.append((s - i)[:, None])
    return idx, frac


def _stencil(u: np.ndarray, c: np.ndarray, nu: float, spacings, out: np.ndarray, bufs: list):
    """out = sum_ax (c_ax D_ax u + nu D2_ax u) for component-major u and c, (d, *shape).

    Per axis one raw difference D = v[1:] - v[:-1] gives upwinded transport
    (forward where c > 0, backward where c < 0) plus centered diffusion as
    (c+/dx + nu/dx^2) D_i + (c-/dx - nu/dx^2) D_{i-1} at interior nodes and the
    one-sided c/dx D at the ends, whose extrapolation ghosts add no diffusion.
    The first call fills `bufs` with per-axis buffers laid out as u; later calls reuse them.
    """
    for ax, dx in enumerate(spacings, start=1):
        if len(bufs) < ax:
            s = u.shape[:ax] + (u.shape[ax] - 1,) + u.shape[ax + 1:]
            bufs.append([np.empty(lead + s[1:]) for lead in (s[:1], s[:1], (1,), (1,))])
        # views with the difference axis first; the speed c[ax - 1:ax] broadcasts
        # over the component axis; cp scales D_i at nodes 0..n-2, cm D_{i-1} at 1..n-1
        diff, prod, cp, cm = (b.swapaxes(0, ax) for b in bufs[ax - 1])
        v, o, s = u.swapaxes(0, ax), out.swapaxes(0, ax), c[ax - 1:ax].swapaxes(0, ax)
        np.subtract(v[1:], v[:-1], out=diff)
        np.divide(np.maximum(s[:-1], 0.0, out=cp), dx, out=cp)
        np.divide(np.minimum(s[1:], 0.0, out=cm), dx, out=cm)
        cp[1:] += nu / dx**2
        cm[:-1] -= nu / dx**2
        cp[0], cm[-1] = s[0] / dx, s[-1] / dx     # the one-sided end nodes
        if ax == 1:         # the first axis writes out, later axes add to it
            np.multiply(cp, diff, out=o[:-1])
            o[-1] = 0.0
        else:
            o[:-1] += np.multiply(cp, diff, out=prod)
        o[1:] += np.multiply(cm, diff, out=prod)


def _thomas(rhs: np.ndarray, r: float) -> np.ndarray:
    """Solve (I - r T) x = rhs along axis 0, T = tridiag(1, -2, 1) with zero end rows.

    The end rows are identity rows, so the interior is a constant-coefficient,
    diagonally dominant system with the end values on its right-hand side: one
    Thomas sweep per lane (the other axes), its pivots computed once.  The
    sweeps run on Python floats, as numpy calls on rows of a few lanes cost
    twenty times more.
    """
    n = len(rhs)
    w = [0.0, 1.0 / (1.0 + 2.0 * r)]        # w[i]: inverse pivot of row i
    for i in range(2, n - 1):
        w.append(1.0 / (1.0 + 2.0 * r - r * r * w[i - 1]))
    rw = [r * wi for wi in w]
    lanes = np.reshape(rhs, (n, -1)).T.tolist()
    for x in lanes:
        x[1] += r * x[0]
        x[-2] += r * x[-1]
        x[1] *= w[1]
        for i in range(2, n - 1):
            x[i] = (x[i] + r * x[i - 1]) * w[i]
        for i in range(n - 3, 0, -1):
            x[i] += rw[i] * x[i + 1]
    return np.array(lanes).T.reshape(np.shape(rhs))


def _sine_transform(x: np.ndarray) -> np.ndarray:
    """Q x along both grid axes of a (d, m0, m1) x, Q the sine basis of each axis.

    Q[j, k] = sqrt(2 / (m + 1)) sin(pi (j + 1) (k + 1) / (m + 1)) is
    orthonormal and symmetric, and diagonalizes the m-node Dirichlet second
    difference; Q x is the type-I discrete sine transform, one real FFT of
    the odd extension of x (no BLAS call, so no BLAS threads left spinning).
    """
    for axis in (1, 2):
        x = np.moveaxis(x, axis, -1)
        m = x.shape[-1]
        zero = np.zeros(x.shape[:-1] + (1,))
        y = np.fft.rfft(np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1))
        x = np.moveaxis(y[..., 1:m + 1].imag * -np.sqrt(0.5 / (m + 1)), -1, axis)
    return x


def _implicit_solve(b: np.ndarray, coef: float, spacings) -> np.ndarray:
    """Solve (I - coef L) x = b for a (d, *shape) b, L the Laplacian of `_stencil`.

    In 1-d this is one Thomas sweep.  In 2-d L's rows are zero at the ends of
    their own axis only: the corners are identity rows, each edge line is a
    1-d solve along its axis, and the interior is the Dirichlet system with
    the edge values on its right-hand side, solved by fast diagonalization in
    each axis's sine basis (Lynch, Rice and Thomas, Numer. Math. 6, 1964).
    """
    if len(spacings) == 1:
        return _thomas(b.T, coef / spacings[0] ** 2).T
    r0, r1 = (coef / dx**2 for dx in spacings)
    x = np.empty_like(b)
    x[:, [0, -1]] = np.moveaxis(_thomas(np.moveaxis(b[:, [0, -1]], 2, 0), r1), 0, 2)
    x[:, :, [0, -1]] = np.moveaxis(_thomas(np.moveaxis(b[:, :, [0, -1]], 1, 0), r0), 0, 1)
    rhs = b[:, 1:-1, 1:-1].copy()
    rhs[:, 0] += r0 * x[:, 0, 1:-1]
    rhs[:, -1] += r0 * x[:, -1, 1:-1]
    rhs[:, :, 0] += r1 * x[:, 1:-1, 0]
    rhs[:, :, -1] += r1 * x[:, 1:-1, -1]
    # eigenvalues -4 / dx^2 sin^2(pi k / (2 (m + 1))), k = 1..m, of each axis's
    # Dirichlet second difference, in the order of the sine basis
    lam0, lam1 = (-4.0 / dx**2 * np.sin(0.5 * np.pi * np.arange(1, n - 1) / (n - 1)) ** 2
                  for n, dx in zip(b.shape[1:], spacings))
    x[:, 1:-1, 1:-1] = _sine_transform(_sine_transform(rhs) / (1.0 - coef * (lam0[:, None] + lam1)))
    return x


def _variant(spec: ModelSpec, N, eps):
    """Diffusion, cost gradient and metadata of the N-player or common-noise field.

    The cost gradient maps a potential p and points m of shape (..., d) to the
    corrected gradient (I + hess p / N)(m + grad p) for N players and to the
    reminder-free m + grad p for common noise; the field's source is its value
    for f and its terminal layer the value for g.
    """
    if (N is None) == (eps is None):
        raise InvalidParameter("pass exactly one of N or eps")
    if N is not None:
        if N < 1:
            raise InvalidParameter(f"N must be at least 1, got {N}")
        if not 0 < spec.sigma < np.inf:
            raise InvalidParameter(f"the N-player field needs 0 < sigma < inf, got {spec.sigma}")
        nu = spec.sigma**2 / (2.0 * N)
        cost_gradient = lambda p, m: corrected_gradient(p, N, m)
        meta = {"kind": "nplayer", "N": N, "noise_scale": spec.sigma / np.sqrt(N)}
    else:
        if not 0 < eps < np.inf:
            raise InvalidParameter(f"eps must be positive and finite, got {eps}")
        nu = eps**2 / 2.0
        cost_gradient = lambda p, m: m + p.gradient(m)
        meta = {"kind": "common-noise", "eps": eps, "noise_scale": eps}
    meta.update({"diffusion": nu, "model": f"f={spec.f.name}, g={spec.g.name}"})
    return nu, cost_gradient, meta


def _mirror(x: np.ndarray, rows) -> np.ndarray:
    """The view x[:, rows] of a (d, *shape) x with its later space axes reversed."""
    return x[(slice(None), rows) + (slice(None, None, -1),) * (x.ndim - 2)]


def _unfold(half: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Fill odd full (d, 2h + 1, ...) with half's rows 0..h, then the reflection -rows h-1..0."""
    h = full.shape[1] // 2
    full[:, :h + 1] = half[:, :h + 1]
    np.negative(_mirror(full, slice(h - 1, None, -1)), out=full[:, h + 1:])
    return full


def solve_field(spec: ModelSpec, grid: SpaceGrid, tgrid: TimeGrid,
                N: int = None, eps: float = None) -> DecouplingField:
    """Backward finite-difference solve of the decoupling-field system.

    Exactly one of N (players) or eps (common-noise intensity) selects the
    variant.  Stability of the explicit scheme (CFL_DIFF, CFL_ADV) is checked
    before and during stepping; violations raise CflViolation.

    With even data on a symmetric grid the field is odd: rows 0..h of the first
    axis are stepped, h the center row, with a ghost row h + 1 reflecting row
    h - 1; row h is projected onto odd rows (u(t, 0) = 0) and levels unfolded.
    """
    nu, cost_gradient, meta = _variant(spec, N, eps)
    if grid.dim != spec.dim:
        raise InvalidParameter("space grid dimension must match the model")

    spacings, dt = grid.spacings, tgrid.dt
    for dx in spacings:
        ratio = nu * dt / dx**2
        if ratio > CFL_DIFF + 1e-12:
            raise CflViolation("diffusion", ratio, CFL_DIFF)

    # the stepping state is component-major, (d, *shape), so each component
    # is contiguous and each advection component c[i] broadcasts over all d
    mgrid = np.stack(grid.meshgrid(), axis=-1)              # (*shape, d)
    bm = np.moveaxis(np.einsum("ij,...j->...i", spec.b, mgrid), -1, 0).copy()
    source = np.moveaxis(cost_gradient(spec.f, mgrid), -1, 0).copy()
    symmetric = spec.even_data and grid.is_symmetric()
    drift = bool(np.any(spec.b))    # with b == 0 the b^T u term adds exact zeros

    steps = tgrid.steps
    values = np.empty((steps + 1,) + grid.shape + (spec.dim,))
    # the terminal layer stays exactly the corrected gradient at the nodes
    values[steps] = cost_gradient(spec.g, mgrid)
    levels = np.moveaxis(values, -1, 1)     # (steps+1, d, *shape) views of the levels
    u = levels[steps].copy()
    if symmetric:       # the slab of rows 0..h + 1; is_symmetric means an odd row count
        h = grid.shape[0] // 2
        u, bm, source = (x[:, :h + 2].copy() for x in (u, bm, source))

    # stepping buffers, allocated once: per-step temporaries cost page faults
    c, k1, k2, stage, unext = (np.empty_like(u) for _ in range(5))
    bufs = []

    def rhs(u, diffusion, out):
        """((transport + diffusion Lap u) + b^T u) + source, into out; sets u's ghost row."""
        if symmetric:
            np.negative(_mirror(u, h - 1), out=u[:, h + 1])
        np.subtract(bm, u, out=c)
        cmax = max(float(c.max()), -float(c.min()))
        for dx in spacings:
            if cmax * dt / dx > CFL_ADV + 1e-12:
                raise CflViolation("advection", cmax * dt / dx, CFL_ADV)
        _stencil(u, c, diffusion, spacings, out, bufs)
        if drift:
            out += np.einsum("ji,j...->i...", spec.b, u)
        out += source
        return out

    for k in range(steps - 1, -1, -1):
        # explicit Euler stage; the first level then solves diffusion implicitly, the rest Heun
        first = k == steps - 1
        np.add(u, np.multiply(dt, rhs(u, 0.0 if first else nu, k1), out=stage), out=stage)
        if first:   # the implicit solve couples all rows, so a slab's stage is unfolded
            full = _unfold(stage, np.empty((spec.dim,) + grid.shape)) if symmetric else stage
            unext[...] = _implicit_solve(full, nu * dt, spacings)[:, :u.shape[1]]
        else:       # u + 0.5 dt (k1 + k2), k2 the slope at the stage
            k1 += rhs(stage, nu, k2)
            k1 *= 0.5 * dt
            np.add(u, k1, out=unext)
        u, unext = unext, u
        if symmetric:       # row h is its own mirror image: project it, 0.5 (x - flip x)
            u[:, h] = 0.5 * (u[:, h] - _mirror(u, h))
        if not np.all(np.isfinite(u)):
            raise PdeDiverged(tgrid.nodes[k])
        if symmetric:
            _unfold(u, levels[k])
        else:
            levels[k] = u

    return DecouplingField(grid=grid, tgrid=tgrid, values=values, metadata=meta)


def stable_time_grid(spec: ModelSpec, grid: SpaceGrid, N: int = None, eps: float = None,
                     safety: float = 0.9) -> TimeGrid:
    """Time grid satisfying the explicit-scheme bounds with a safety factor.

    The advection speed is estimated from the terminal layer, inflated by
    VELOCITY_MARGIN because the field can steepen backward in time.
    """
    if not safety > 0:
        raise InvalidParameter(f"safety factor must be positive, got {safety}")
    nu, cost_gradient, _ = _variant(spec, N, eps)
    mgrid = np.stack(grid.meshgrid(), axis=-1)
    uT = cost_gradient(spec.g, mgrid)
    bm = np.einsum("ij,...j->...i", spec.b, mgrid)
    cmax = VELOCITY_MARGIN * float(np.max(np.abs(bm - uT))) + 1e-12
    dt_bound = np.inf
    for dx in grid.spacings:
        dt_bound = min(dt_bound, CFL_DIFF * dx**2 / max(nu, 1e-300), CFL_ADV * dx / cmax)
    steps = int(np.ceil(spec.T / (safety * dt_bound)))
    return TimeGrid(0.0, spec.T, max(steps, 8))


def riccati_field_oracle(spec: ModelSpec, tgrid: TimeGrid, N: int = None, eps: float = None):
    """Closed-form affine field u(t, m) = P_t m + r_t for quadratic data.

    P solves Pdot = P^2 - P b - b^T P - A_f backward from A_g, r the linear
    backward ODE rdot = (P - b^T) r - a_f from a_g, where A, a are the affine
    coefficients of the corrected (or, for eps, plain) cost gradients: one
    closed-form riccati_backward in homogeneous coordinates (m, 1), control
    weight diag(I, 0), with r the solution's last column.
    """
    if spec.f.quad_coeffs is None or spec.g.quad_coeffs is None:
        raise InvalidOracle("Riccati oracle needs quadratic f and g")
    _, cost_gradient, _ = _variant(spec, N, eps)
    d = spec.dim
    basis = np.vstack([np.eye(d), np.zeros(d)])        # the unit vectors, then the origin

    def weight(p):
        """The affine cost gradient A m + a of p as [[A, a], [a^T, 0]] on (m, 1)."""
        v = cost_gradient(p, basis)
        return np.block([[(v[:d] - v[d]).T, v[d, :, None]], [v[d], 0.0]])

    b, R = np.zeros((d + 1, d + 1)), np.eye(d + 1)
    b[:d, :d], R[d, d] = spec.b, 0.0
    Pr = riccati_backward(b, weight(spec.f), weight(spec.g), tgrid, R=R)
    P, r = Pr[:, :d, :d], Pr[:, :d, d]

    def u(t, m):
        s = np.clip((t - tgrid.t0) / tgrid.dt, 0.0, tgrid.steps - 1e-12)
        k = int(np.floor(s))
        w = s - k
        Prt = (1 - w) * Pr[k] + w * Pr[k + 1]
        return Prt[:d, :d] @ np.atleast_1d(np.asarray(m, dtype=float)) + Prt[:d, d]

    return P, r, u


# --- path simulation --------------------------------------------------------


@dataclass
class PathEnsemble:
    tgrid: TimeGrid
    paths: np.ndarray        # (M, steps+1, d)
    seed: int
    exit_fraction: float
    metadata: dict = field(default_factory=dict)

    @property
    def terminal(self) -> np.ndarray:
        return self.paths[:, -1, :]


def _sim_steps(duration: float) -> int:
    """Euler-Maruyama steps of an ensemble over a horizon of this length."""
    return max(int(round(1000 * duration)), 16)


def _path_normals(seed: int, M: int, rows: int, d: int) -> np.ndarray:
    """(M, rows, d) standard normals, row p the first of RngStream(seed, p).

    A stream's numbers do not depend on how its draws are split, so an array
    with more rows serves every ensemble that reads fewer.
    """
    z = np.empty((M, rows, d))
    for p in range(M):
        z[p] = RngStream(seed, p).generator().normal(size=(rows, d))
    return z


def simulate_ensemble(fld: DecouplingField, spec: ModelSpec, M: int, seed: int,
                      noise_off: bool = False, m0_override=None,
                      normals: np.ndarray = None) -> PathEnsemble:
    """Euler-Maruyama ensemble of the mean process driven by the field.

    Path p reads row p of `normals` (M, rows, d), drawn from the stream
    RngStream(seed, p): for the N-player variant its first N rows are the
    initial states nu0 + clip(z, ±6), whose mean is m_0, the next its increments;
    common noise and m0_override read increments only.  A scenario draws the
    normals once, sized for its largest N, and passes them to each ensemble;
    without them the call draws the rows it needs.  So a path depends on
    (seed, p) alone, not on scheduling.  States are clamped to the field's
    domain; the fraction of paths that ever exited is reported (> 1% earns a
    domain-too-small flag).
    """
    if M < 1:
        raise InvalidParameter("need at least one path")
    meta = fld.metadata
    noise_scale = 0.0 if noise_off else meta.get("noise_scale")
    if noise_scale is None:
        raise InvalidInput("the field carries no noise scale (a field loaded from a "
                           "version 1 binary file does not); only a noise_off ensemble can use it")
    d = spec.dim
    tg = TimeGrid(fld.tgrid.t0, fld.tgrid.T, _sim_steps(fld.tgrid.T - fld.tgrid.t0))
    dt, sq = tg.dt, np.sqrt(tg.dt)
    n0 = meta["N"] if m0_override is None and meta.get("kind", "nplayer") == "nplayer" else 0
    z = _path_normals(seed, M, n0 + tg.steps, d) if normals is None else normals
    if z.ndim != 3 or z.shape[::2] != (M, d) or z.shape[1] < n0 + tg.steps:
        raise InvalidParameter(f"normals must be ({M}, >= {n0 + tg.steps}, {d}), got {z.shape}")
    m0 = np.empty((M, d))
    m0[:] = spec.nu0 if m0_override is None else m0_override
    if n0:      # in chunks of paths, which bound the temporary; z is never written
        for lo in range(0, M, 256):
            m0[lo:lo + 256] = (spec.nu0 + np.clip(z[lo:lo + 256, :n0], -6.0, 6.0)).mean(axis=1)

    lows, highs = np.array([ax[:2] for ax in fld.grid.axes]).T
    paths = np.empty((M, tg.steps + 1, d))
    outside = (m0 < lows) | (m0 > highs)
    m = paths[:, 0] = np.minimum(np.maximum(m0, lows), highs)
    nodes = tg.nodes
    drift = bool(np.any(spec.b))    # with b == 0, m + dt (0 - eta) is m - dt eta
    for k in range(tg.steps):
        eta = fld.evaluate_batch(nodes[k], m)
        m += dt * (m @ spec.b.T - eta) if drift else -dt * eta
        m += noise_scale * (sq * z[:, n0 + k])
        outside |= (m < lows) | (m > highs)
        paths[:, k + 1] = np.minimum(np.maximum(m, lows, out=m), highs, out=m)

    exit_fraction = float(np.mean(np.any(outside, axis=1)))
    meta_out = dict(meta)
    meta_out["domain_too_small"] = exit_fraction > 0.01
    return PathEnsemble(tgrid=tg, paths=paths, seed=seed,
                        exit_fraction=exit_fraction, metadata=meta_out)


# --- export -----------------------------------------------------------------

_MAGIC_V1, _MAGIC = b"MFGF\x01", b"MFGF\x02"


def save_field_binary(fld: DecouplingField, path: str):
    """Binary layout: header (dims, bounds, counts, variant, noise scale and
    diffusion, NaN where unknown) + float64 payload."""
    meta = fld.metadata
    kind = meta.get("kind", "nplayer")
    param = float(meta.get("N", meta.get("eps", 0.0)))
    model = meta.get("model", "").encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<i", fld.grid.dim))
        for lo, hi, n in fld.grid.axes:
            fh.write(struct.pack("<ddi", lo, hi, n))
        fh.write(struct.pack("<ddi", fld.tgrid.t0, fld.tgrid.T, fld.tgrid.steps))
        fh.write(struct.pack("<bd", 0 if kind == "nplayer" else 1, param))
        fh.write(struct.pack("<dd", meta.get("noise_scale", np.nan), meta.get("diffusion", np.nan)))
        fh.write(struct.pack("<i", len(model)))
        fh.write(model)
        fh.write(np.ascontiguousarray(fld.values, dtype="<f8").tobytes())


def load_field_binary(path: str) -> DecouplingField:
    """Read an MFGF v2 file, or a v1 file (no noise scale or diffusion stored)."""
    with open(path, "rb") as fh:
        def read(n):
            buf = fh.read(n)
            if len(buf) != n:
                raise InvalidInput(f"{path} is truncated: expected {n} more bytes, got {len(buf)}")
            return buf

        magic = fh.read(5)
        if magic not in (_MAGIC_V1, _MAGIC):
            raise InvalidInput(f"{path} is not a field file")
        (dim,) = struct.unpack("<i", read(4))
        axes = tuple(struct.unpack("<ddi", read(20)) for _ in range(dim))
        t0, T, steps = struct.unpack("<ddi", read(20))
        kind_flag, param = struct.unpack("<bd", read(9))
        noise = struct.unpack("<dd", read(16)) if magic == _MAGIC else (np.nan, np.nan)
        (mlen,) = struct.unpack("<i", read(4))
        model = read(mlen).decode()
        grid = SpaceGrid(axes)
        tgrid = TimeGrid(t0, T, steps)
        shape = (steps + 1,) + grid.shape + (dim,)
        values = np.frombuffer(read(8 * int(np.prod(shape))), dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise InvalidInput(f"{path} has bytes past its {int(np.prod(shape))} field values")
    meta = {"kind": "nplayer" if kind_flag == 0 else "common-noise", "model": model}
    if kind_flag == 0:
        meta["N"] = int(param)
    else:
        meta["eps"] = param
    if not all(np.isnan(v) or 0 <= v < np.inf for v in noise):
        raise InvalidInput(f"{path} stores a noise scale or diffusion outside [0, inf)")
    meta.update((k, v) for k, v in zip(("noise_scale", "diffusion"), noise) if not np.isnan(v))
    return DecouplingField(grid=grid, tgrid=tgrid, values=values, metadata=meta)


def export_field_csv_slice(fld: DecouplingField, path: str, time_index: int = 0):
    if not 0 <= time_index <= fld.tgrid.steps:
        raise InvalidInput(f"time index {time_index} outside 0..{fld.tgrid.steps}")
    d = fld.grid.dim
    coords = fld.grid.meshgrid()
    pts = np.stack([c.ravel() for c in coords], axis=-1)
    level = fld.values[time_index].reshape(-1, d)
    header = ",".join([f"m{i+1}" for i in range(d)] + [f"u{i+1}" for i in range(d)])
    np.savetxt(path, np.hstack([pts, level]), delimiter=",", header=header, comments="")
