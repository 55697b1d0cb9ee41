"""Decoupling field of the empirical-mean system and path simulation.

The vector field u(t, m) with eta_t = u(t, m_t) solves a backward quasilinear
system: for the N-player mean,

    -du_i/dt - nu Lap u_i - (b m - u) . grad u_i - (b^T u)_i = source_i(m)

with nu = sigma^2 / (2N), source = grad F_N and terminal layer grad G_N; the
common-noise variant has nu = eps^2 / 2 and the reminder-free source m +
grad f with terminal m + grad g.  The scheme is explicit (Heun in time,
centered diffusion, upwinded transport) on a truncated tensor grid with
linear-extrapolation ghost nodes, plus one implicit-in-diffusion step at the
first backward level to damp terminal-layer roughness.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import CflViolation, InvalidInput, InvalidOracle, InvalidParameter, PdeDiverged
from .numerics import RngStream, SpaceGrid, TimeGrid, integrate_ode
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
        level = (1.0 - w) * self.values[k] + w * self.values[k + 1]
        return _interp_space(self.grid, level, points)

    def evaluate(self, t: float, m) -> np.ndarray:
        return self.evaluate_batch(t, np.atleast_2d(np.asarray(m, dtype=float)))[0]


def _interp_space(grid: SpaceGrid, level: np.ndarray, points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    idx, frac = [], []
    for ax in range(grid.dim):
        lo, hi, n = grid.axes[ax]
        dx = (hi - lo) / (n - 1)
        s = np.minimum(np.maximum((pts[:, ax] - lo) / dx, 0.0), n - 1 - 1e-12)
        i = s.astype(np.intp)       # s >= 0, so truncation is the floor
        idx.append(i)
        frac.append(s - i)
    if grid.dim == 1:
        i, w = idx[0], frac[0][:, None]
        return (1.0 - w) * level[i] + w * level[i + 1]
    i, j = idx
    wx, wy = frac[0][:, None], frac[1][:, None]
    return ((1.0 - wx) * (1.0 - wy) * level[i, j]
            + wx * (1.0 - wy) * level[i + 1, j]
            + (1.0 - wx) * wy * level[i, j + 1]
            + wx * wy * level[i + 1, j + 1])


def _laplacian(u: np.ndarray, spacings) -> np.ndarray:
    """Laplacian of a (d, *shape) field; extrapolation ghosts zero the boundary rows."""
    out = np.zeros_like(u)
    for ax, dx in enumerate(spacings, start=1):
        # views with the difference axis first; writes go through to out
        v, o = u.swapaxes(0, ax), out.swapaxes(0, ax)
        o[1:-1] += (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dx**2
    return out


def _upwind_transport(u: np.ndarray, c: np.ndarray, spacings) -> np.ndarray:
    """sum_ax c_ax * D_ax u for component-major u and c, both (d, *shape).

    Forward differences where c > 0, backward where c < 0; where c == 0 both
    terms vanish.  The mirrored choice keeps odd symmetry of the update exact
    on symmetric grids.  One-sided differences at the truncation boundary.
    """
    out = np.zeros_like(u)
    for ax, dx in enumerate(spacings, start=1):
        fwd = np.empty_like(u)
        bwd = np.empty_like(u)
        v, f, b = u.swapaxes(0, ax), fwd.swapaxes(0, ax), bwd.swapaxes(0, ax)
        diff = (v[1:] - v[:-1]) / dx
        f[:-1] = diff
        f[-1] = diff[-1]
        b[1:] = diff
        b[0] = diff[0]

        # c[ax - 1] is (*shape) and broadcasts over the component axis
        out += np.maximum(c[ax - 1], 0) * fwd + np.minimum(c[ax - 1], 0) * bwd
    return out


def _odd_project(u: np.ndarray, dim: int) -> np.ndarray:
    """Project a (d, *shape) field onto fields odd under m -> -m (node reversal)."""
    flipped = np.flip(u, axis=tuple(range(1, dim + 1)))
    return 0.5 * (u - flipped)


def _implicit_diffusion_matrix(grid: SpaceGrid, coef: float):
    """I - coef * L with the boundary rows of L zeroed (extrapolation ghosts)."""
    mats = []
    for n, dx in zip(grid.shape, grid.spacings):
        main = np.full(n, -2.0 / dx**2)
        off = np.full(n - 1, 1.0 / dx**2)
        L = sp.diags([off, main, off], [-1, 0, 1], format="lil")
        L[0, :] = 0.0
        L[-1, :] = 0.0
        mats.append(sp.csr_matrix(L))
    if grid.dim == 1:
        L_full = mats[0]
    else:
        n0, n1 = grid.shape
        L_full = sp.kron(mats[0], sp.identity(n1)) + sp.kron(sp.identity(n0), mats[1])
    n_total = int(np.prod(grid.shape))
    return sp.csc_matrix(sp.identity(n_total) - coef * L_full)


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


def solve_field(spec: ModelSpec, grid: SpaceGrid, tgrid: TimeGrid,
                N: int = None, eps: float = None) -> DecouplingField:
    """Backward finite-difference solve of the decoupling-field system.

    Exactly one of N (players) or eps (common-noise intensity) selects the
    variant.  Stability of the explicit scheme (CFL_DIFF, CFL_ADV) is checked
    before and during stepping; violations raise CflViolation.
    """
    nu, cost_gradient, meta = _variant(spec, N, eps)
    if grid.dim != spec.dim:
        raise InvalidParameter("space grid dimension must match the model")
    d = spec.dim

    spacings = grid.spacings
    dt = tgrid.dt
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

    def rhs(u, diffuse):
        """((nu Lap u + transport) + b^T u) + source; the implicit step has no Lap u."""
        c = bm - u
        cmax = float(np.max(np.abs(c)))
        for dx in spacings:
            if cmax * dt / dx > CFL_ADV + 1e-12:
                raise CflViolation("advection", cmax * dt / dx, CFL_ADV)
        out = _upwind_transport(u, c, spacings)
        if diffuse:
            out += nu * _laplacian(u, spacings)
        if drift:
            out += np.einsum("ji,j...->i...", spec.b, u)
        out += source
        return out

    steps = tgrid.steps
    values = np.empty((steps + 1,) + grid.shape + (d,))
    # the terminal layer stays exactly the corrected gradient at the nodes;
    # the odd projection (which could move it by an ulp) starts one level in
    values[steps] = cost_gradient(spec.g, mgrid)
    u = np.moveaxis(values[steps], -1, 0).copy()

    lu = spla.splu(_implicit_diffusion_matrix(grid, nu * dt), permc_spec="MMD_AT_PLUS_A")
    for k in range(steps - 1, -1, -1):
        if k == steps - 1:
            # first backward level: implicit diffusion, explicit transport and source
            expl = u + dt * rhs(u, False)
            u = np.stack([lu.solve(expl[i].ravel()).reshape(grid.shape) for i in range(d)])
        else:
            k1 = rhs(u, True)
            k2 = rhs(u + dt * k1, True)
            u = u + 0.5 * dt * (k1 + k2)
        if symmetric:
            u = _odd_project(u, grid.dim)
        if not np.all(np.isfinite(u)):
            raise PdeDiverged(tgrid.nodes[k])
        values[k] = np.moveaxis(u, 0, -1)

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
    coefficients of the corrected (or, for eps, plain) cost gradients.
    """
    if spec.f.quad_coeffs is None or spec.g.quad_coeffs is None:
        raise InvalidOracle("Riccati oracle needs quadratic f and g")
    if (N is None) == (eps is None):
        raise InvalidParameter("pass exactly one of N or eps")
    d = spec.dim
    I = np.eye(d)
    Cf, kf = spec.f.quad_coeffs
    Cg, kg = spec.g.quad_coeffs
    if N is not None:
        A_f, a_f = (I + Cf / N) @ (I + Cf), (I + Cf / N) @ kf
        A_g, a_g = (I + Cg / N) @ (I + Cg), (I + Cg / N) @ kg
    else:
        A_f, a_f = I + Cf, kf
        A_g, a_g = I + Cg, kg

    # the state packs [P | r] as one (d, d+1) array; the symmetrized P
    # right-hand side keeps P exactly symmetric
    b = spec.b

    def rhs(t, state):
        Pm, rm = state[:, :d], state[:, d]
        dP = Pm @ Pm - Pm @ b - b.T @ Pm - A_f
        return np.column_stack([0.5 * (dP + dP.T), (Pm - b.T) @ rm - a_f])

    state = integrate_ode(rhs, np.column_stack([0.5 * (A_g + A_g.T), a_g]), tgrid,
                          direction="backward")
    P, r = state[:, :, :d], state[:, :, d]

    def u(t, m):
        s = np.clip((t - tgrid.t0) / tgrid.dt, 0.0, tgrid.steps - 1e-12)
        k = int(np.floor(s))
        w = s - k
        Pt = (1 - w) * P[k] + w * P[k + 1]
        rt = (1 - w) * r[k] + w * r[k + 1]
        return Pt @ np.atleast_1d(np.asarray(m, dtype=float)) + rt

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
