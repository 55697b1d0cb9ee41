"""Decoupling field of the empirical-mean system and path simulation.

The vector field u(t, m) with eta_t = u(t, m_t) solves a backward quasilinear
system: for the N-player mean,

    -du_i/dt - nu Lap u_i - (b m - u) . grad u_i - (b^T u)_i = source_i(m)

with nu = sigma^2 / (2N), source = grad F_N and terminal layer grad G_N; the
common-noise variant has nu = eps^2 / 2 and the reminder-free source m +
grad f with terminal m + grad g.  The scheme is explicit (Heun in time)
on a truncated tensor grid with linear-extrapolation ghost nodes: one stencil
per axis, two coefficient products of one raw difference, gives upwinded
transport and centered diffusion, every axis on flattened (d, L) views
shifted by its stride, so each ufunc is one long loop.  Every step writes into
buffers allocated once per solve, updates the state in place and writes each
level per component, so the stencil, ghost and right-hand-side views of its
two (input, output) pairs are built once per solve too.  One
implicit-in-diffusion step at the first backward level damps terminal-layer
roughness; it is solved directly, in every dimension, by fast diagonalization
of the interior in the sine basis, the end faces of each axis solved first by
the same recursion.  Lookups run through a plan built once for n points and a
list of times (`DecouplingField.lookup_plan`): its buffers, each axis's
constants and each time's (level, weight) pair.  A 1-d plan blends the
levels of 8 consecutive times in one pass and gathers from one time's blended
row; a 2-d lookup gathers each point's corners.  With even data (unchanged
under each coordinate sign flip), a diagonal b and a symmetric grid, flipping one
coordinate maps the field to itself with that coordinate's component
negated.  Such a field is mirror-folded: it steps and stores only indices
0..h of each axis, h the center (half of a 1-d grid, a quarter of a 2-d one),
stepping with one reflected ghost per axis.  Evaluation maps each corner
index into the stored part, axis by axis, and folds the reflected components'
signs into the weights, which is exact, so it agrees bit for bit with the
full field; `DecouplingField.level` unfolds one level on demand.  numpy is
the only dependency.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CflViolation, InvalidInput, InvalidOracle, InvalidParameter, PdeDiverged
from .numerics import SpaceGrid, TimeGrid, riccati_backward, stream_generators
from .potentials import ModelSpec, corrected_gradient

# stability bounds of the explicit scheme: nu dt / dx^2 and |c| dt / dx
CFL_DIFF = 0.25
CFL_ADV = 0.5
VELOCITY_MARGIN = 2.0    # stable_time_grid's factor on the terminal advection speed
_BLOCK = 8      # a 1-d lookup plan blends the levels of this many times in one pass


@dataclass
class DecouplingField:
    grid: SpaceGrid
    tgrid: TimeGrid
    # (steps+1, *grid.shape, d); a mirror-folded field stores indices 0..h of
    # each axis only, h its center: (steps+1, h0+1[, h1+1], d)
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def _folded(self) -> bool:
        return self.values.shape[1:-1] != self.grid.shape

    @cached_property
    def _corners(self):
        """Per axis, for each cell i, the stored indices of nodes i and i + 1 and the
        signs of that axis's component there, each (2, nodes - 1).

        Past its center h an axis reads its mirror image, index n - 1 - i, with
        the axis's own component negated.  The first axis's indices are scaled
        by the stored row length, so a corner's flat index is their sum.
        """
        stored = self.values.shape[1:-1]
        pairs = []
        for n, s, pitch in zip(self.grid.shape, stored, stored[1:] + (1,)):
            i = np.arange(n)
            index, sign = np.where(i < s, i, n - 1 - i) * pitch, np.where(i < s, 1.0, -1.0)
            pairs.append((np.stack([index[:-1], index[1:]]), np.stack([sign[:-1], sign[1:]])))
        return pairs

    def level(self, k: int) -> np.ndarray:
        """Level k on the whole grid, (*grid.shape, d): a folded field's is unfolded."""
        return _unfold(self.values[k], self.grid.shape) if self._folded else self.values[k]

    def lookup_plan(self, n: int, times):
        """run(j, points, out): the field at times[j] and points (n, d), multilinear
        in space and linear in time, written into out (n, d) and returned.

        Built once for n points and the list of times: the scratch buffers,
        each axis's constants and each time's (level, weight) pair.  Times
        outside [t0, T] take the nearest end level, never extrapolate.  A 1-d
        plan blends and unfolds the levels of _BLOCK consecutive times in one
        pass, and each call gathers from its row; a 2-d call gathers each
        point's corners from its two levels and blends only those.
        """
        tg, grid, d = self.tgrid, self.grid, self.grid.dim
        ws = np.subtract(times, tg.t0, dtype=float)
        ws /= tg.dt
        if np.isnan(ws).any():
            raise InvalidParameter("a lookup time is NaN")
        np.minimum(np.maximum(ws, 0.0, out=ws), tg.steps, out=ws)
        ks = ws.astype(np.intp)
        np.minimum(ks, tg.steps - 1, out=ks)
        ws -= ks
        # per axis a cell index and the weights of its nodes i, i + 1; 2^d corners
        idx, wts, c = np.empty((d, n), np.intp), np.empty((d, 2, n, 1)), np.empty((2**d, n, d))
        cells = [(ax, lo, (hi - lo) / (nodes - 1), nodes - 1 - 1e-12, idx[ax], wts[ax, 1, :, 0],
                  wts[ax, 0, :, 0]) for ax, (lo, hi, nodes) in enumerate(grid.axes)]

        def locate(points):
            for ax, lo, dx, top, i, f, g in cells:
                np.subtract(points[:, ax], lo, out=f)
                f /= dx
                np.minimum(np.maximum(f, 0.0, out=f), top, out=f)
                i[...] = f      # f >= 0, so truncation is the floor
                f -= i
                np.subtract(1.0, f, out=g)

        # every index is in range but a NaN point's, whose weights are NaN; so
        # take's "clip" mode, which writes straight into its buffer, clips nothing
        if d == 1:      # a table of up to _BLOCK blended levels, each unfolded whole
            size, rows, nodes = min(_BLOCK, len(ks)), self.values.shape[1], grid.shape[0]
            part, table = np.empty((size, rows, 1)), np.empty((size, nodes, 1))
            pairs = [(level, level[1:]) for level in table]     # rows i and i + 1
            block, (i,), (c0, c1), (w0, w1) = -1, idx, c, wts[0]

            def run(j, points, out):
                nonlocal block
                if j // size != block:      # blend the levels of this time's block
                    block = j // size
                    sel = slice(block * size, (block + 1) * size)
                    k = ks[sel]
                    level, buf = table[:len(k)], part[:len(k)]     # levels k, then k + 1
                    np.multiply(self.values.take(k, axis=0, out=buf, mode="clip"),
                                1.0 - ws[sel, None, None], out=level[:, :rows])
                    level[:, :rows] += np.multiply(
                        self.values[1:].take(k, axis=0, out=buf, mode="clip"), ws[sel, None, None],
                        out=buf)
                    if rows < nodes:    # folded: rows h + 1.. are minus rows h - 1..0
                        np.negative(level[:, rows - 2::-1], out=level[:, rows:])
                locate(points)
                level, shifted = pairs[j % size]
                level.take(i, axis=0, out=c0, mode="clip")
                shifted.take(i, axis=0, out=c1, mode="clip")
                np.multiply(c0, w0, out=c0)
                np.multiply(c1, w1, out=c1)
                return np.add(c0, c1, out=out)

            return run
        # 2-d: blend in time only each point's corners (i, j), (i+1, j), (i, j+1)
        # and (i+1, j+1).  Corner a + 2 b is stored at flat index ends[0][a] +
        # ends[1][b], and its weight is w[0][a] w[1][b]; a negated corner value
        # is a negated weight, exactly, so each component's weight takes the
        # sign of the axis that reflects that component
        (ends, rows), (sign, prod) = np.empty((2, 2, 2, n), np.intp), np.empty((2, 2, 2, n))
        weight, blend = np.empty((2, 2, n, d)), np.empty((4, n, d))
        flat_rows, flat_weight = rows.reshape(4, n), weight.reshape(4, n, d)
        gathers = [(index, signs, idx[ax], ends[ax], sign[ax])
                   for ax, (index, signs) in enumerate(self._corners)]
        flat = self.values.reshape(tg.steps + 1, -1, d)

        def run(j, points, out):
            k, w = ks[j], ws[j]
            locate(points)
            for index, signs, i, e, sg in gathers:
                index.take(i, axis=1, out=e, mode="clip")
                signs.take(i, axis=1, out=sg, mode="clip")
            np.add(ends[0], ends[1][:, None], out=rows)
            np.multiply(wts[0, ..., 0], wts[1, :, None, :, 0], out=prod)
            np.multiply(prod, sign[0], out=weight[..., 0])
            np.multiply(prod, sign[1][:, None], out=weight[..., 1])
            corner = flat[k].take(flat_rows, axis=0, out=c, mode="clip")
            corner *= 1.0 - w
            corner += np.multiply(flat[k + 1].take(flat_rows, axis=0, out=blend, mode="clip"), w,
                                  out=blend)
            corner *= flat_weight
            np.add(c[0], c[1], out=out)
            out += c[2]
            out += c[3]
            return out

        return run

    def evaluate_batch(self, t: float, points: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """The field at time t and query points (n, d), into `out` if given."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.grid.dim:
            raise InvalidParameter(f"points must be (n, {self.grid.dim}), got {pts.shape}")
        return self.lookup_plan(len(pts), [t])(0, pts, np.empty(pts.shape) if out is None else out)

    def evaluate(self, t: float, m) -> np.ndarray:
        return self.evaluate_batch(t, m)[0]


def _unfold(part: np.ndarray, shape) -> np.ndarray:
    """The whole-grid (*shape, d) array of a mirror-folded `part`, which holds
    indices 0..h of each space axis, h its center, and maybe a ghost h + 1:
    along each axis, indices h + 1.. are h - 1..0 with that axis's component
    negated."""
    for ax, n in enumerate(shape):
        h, lead = n // 2, (slice(None),) * ax
        mirror = part[lead + (slice(h - 1, None, -1),)].copy()
        np.negative(mirror[..., ax], out=mirror[..., ax])
        part = np.concatenate([part[lead + (slice(h + 1),)], mirror], axis=ax)
    return part


def _stencil(u: np.ndarray, c: np.ndarray, spacings, out: np.ndarray, bufs: list):
    """The plan of out = sum_ax (c_ax D_ax u + nu D2_ax u) for component-major,
    C-contiguous u, c and out, (d, *shape): a function of nu that reruns it on
    views built here, once.

    Per axis one raw difference D_i = v_{i+s} - v_i, s the axis's stride in the
    flattened (d, L) views, gives upwinded transport (forward where c > 0,
    backward where c < 0) plus centered diffusion as (c+/dx + nu/dx^2) D_i +
    (c-/dx - nu/dx^2) D_{i-s} at interior nodes and the one-sided c/dx D at the
    ends, whose extrapolation ghosts add no diffusion; each ufunc is one long
    loop.  On an inner axis the shift also pairs each line's last node with the
    next line's first, terms that land on the axis's end faces only, so each
    face is kept before its sum and restored after.  The first plan fills
    `bufs` with one scratch set for all axes; plans of that shape share it.
    """
    d, L, shape = len(u), u[0].size, u.shape[1:]
    if not bufs:    # D, the products, the two coefficients and a kept face
        bufs += [np.empty((k, L)) for k in (d, d, 1, 1)] + [np.empty(d * L // min(shape))]
    diff, prod, cp, cm, kept = bufs
    v, o, plan = u.reshape(d, L), out.reshape(d, L), []
    for ax, dx in enumerate(spacings):
        s = math.prod(shape[ax + 1:])      # the axis's stride
        speed = c[ax:ax + 1].reshape(1, L)     # broadcasts over the component axis
        (s_0, s_n), (cp_0, _), (_, cm_n), (o_0, o_n) = (     # each array's end faces
            (x[:, :, 0].squeeze(), x[:, :, -1].squeeze())
            for x in (a.reshape(len(a), -1, shape[ax], s) for a in (speed, cp, cm, o)))
        # cp scales D_i at nodes i, cm D_{i-s} at nodes i + s; on an inner axis the
        # wrap-around terms of each sum land on one face, kept in a buffer
        sums = [(o_x, coef, f, kept[:f.size].reshape(f.shape)) for o_x, coef, f in
                ((o[:, :L - s], cp[:, :L - s], o_n), (o[:, s:], cm[:, s:], o_0))]
        plan.append((dx, dx**2, v[:, s:], v[:, :-s], diff[:, :L - s], prod[:, :L - s], speed,
                     s_0, cp_0, s_n, cm_n, ax > 0, sums))

    def apply(nu: float) -> np.ndarray:
        for dx, dx2, v_hi, v_lo, d_ax, p_ax, speed, s_0, cp_0, s_n, cm_n, inner, sums in plan:
            np.subtract(v_hi, v_lo, out=d_ax)
            np.divide(np.maximum(speed, 0.0, out=cp), dx, out=cp)
            np.divide(np.minimum(speed, 0.0, out=cm), dx, out=cm)
            np.add(cp, nu / dx2, out=cp)
            np.subtract(cm, nu / dx2, out=cm)
            np.divide(s_0, dx, out=cp_0)    # the one-sided end nodes
            np.divide(s_n, dx, out=cm_n)
            if inner:   # later axes add to out, each wrap-around face kept and restored
                for o_x, coef, face, keep in sums:
                    np.copyto(keep, face)
                    np.add(o_x, np.multiply(coef, d_ax, out=p_ax), out=o_x)
                    np.copyto(face, keep)
                continue
            (o_lo, cp_lo, o_n, _), (o_hi, cm_hi, _, _) = sums   # the first axis writes out
            np.multiply(cp_lo, d_ax, out=o_lo)
            o_n.fill(0.0)
            np.add(o_hi, np.multiply(cm_hi, d_ax, out=p_ax), out=o_hi)
        return out

    return apply


def _sine_transform(x: np.ndarray, axes) -> np.ndarray:
    """Q x along each of `axes`, Q the sine basis of that axis.

    Q[j, k] = sqrt(2 / (m + 1)) sin(pi (j + 1) (k + 1) / (m + 1)) is
    orthonormal and symmetric, and diagonalizes the m-node Dirichlet second
    difference; Q x is the type-I discrete sine transform, one real FFT of
    the odd extension of x (no BLAS call, so no BLAS threads left spinning).
    """
    for axis in axes:
        x = np.moveaxis(x, axis, -1)
        m = x.shape[-1]
        zero = np.zeros(x.shape[:-1] + (1,))
        y = np.fft.rfft(np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1))
        x = np.moveaxis(y[..., 1:m + 1].imag * -np.sqrt(0.5 / (m + 1)), -1, axis)
    return x


def _implicit_solve(b: np.ndarray, coef: float, spacings) -> np.ndarray:
    """Solve (I - coef L) x = b over the last len(spacings) axes of b, L the
    Laplacian of `_stencil`; any leading axes are independent lanes.

    L's rows are zero at the ends of their own axis only, so the two end faces
    of each axis solve the same problem over the other axes (a face with no
    axes left is the identity), and the interior is the Dirichlet system with
    the face values on its right-hand side, solved by fast diagonalization in
    each axis's sine basis (Lynch, Rice and Thomas, Numer. Math. 6, 1964).
    """
    x = b.copy()
    if not spacings:
        return x
    axes = range(b.ndim - len(spacings), b.ndim)
    inner = (Ellipsis,) + (slice(1, -1),) * len(spacings)      # the interior nodes
    rhs, lam = b[inner].copy(), 0.0
    for i, (ax, dx) in enumerate(zip(axes, spacings)):
        # the faces as lanes, (2, *lanes, *other axes); each adds coef / dx^2
        # times its values to the interior next to it
        faces = _implicit_solve(np.moveaxis(b, ax, 0)[[0, -1]], coef,
                                spacings[:i] + spacings[i + 1:])
        np.moveaxis(x, ax, 0)[[0, -1]] = faces
        near = np.moveaxis(rhs, ax, 0)
        near[0] += coef / dx**2 * faces[0][inner[:-1]]
        near[-1] += coef / dx**2 * faces[1][inner[:-1]]
        # eigenvalues -4 / dx^2 sin^2(pi k / (2 (m + 1))), k = 1..m, of the axis's
        # Dirichlet second difference, in the order of the sine basis
        n = b.shape[ax]
        ev = -4.0 / dx**2 * np.sin(0.5 * np.pi * np.arange(1, n - 1) / (n - 1)) ** 2
        lam = lam + ev.reshape((-1,) + (1,) * (b.ndim - 1 - ax))
    x[inner] = _sine_transform(_sine_transform(rhs, axes) / (1.0 - coef * lam), axes)
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


def solve_field(spec: ModelSpec, grid: SpaceGrid, tgrid: TimeGrid,
                N: int = None, eps: float = None) -> DecouplingField:
    """Backward finite-difference solve of the decoupling-field system.

    Exactly one of N (players) or eps (common-noise intensity) selects the
    variant.  Stability of the explicit scheme (CFL_DIFF, CFL_ADV) is checked
    before and during stepping; violations raise CflViolation.

    With even data (unchanged under each coordinate sign flip), a diagonal b
    and a symmetric grid, each coordinate reflection maps the field to itself
    with that coordinate's component negated.  Then only indices 0..h of each
    axis are stepped, h its center, with a ghost h + 1 that is index h - 1
    with the axis's component negated; on each center line the component that
    flips there is projected to zero, and each level keeps indices 0..h only:
    one half of a 1-d grid, one quarter of a 2-d one.
    """
    nu, cost_gradient, meta = _variant(spec, N, eps)
    if grid.dim != spec.dim:
        raise InvalidParameter("space grid dimension must match the model")

    spacings, dt, d = grid.spacings, tgrid.dt, spec.dim
    for dx in spacings:
        ratio = nu * dt / dx**2
        if ratio > CFL_DIFF + 1e-12:
            raise CflViolation("diffusion", ratio, CFL_DIFF)

    folded = (spec.even_data and grid.is_symmetric()
              and np.array_equal(spec.b, np.diag(np.diag(spec.b))))
    h = tuple(n // 2 for n in grid.shape)   # the centers; is_symmetric means odd counts
    # the stepped block: indices 0..h + 1 of each axis when folded, else the grid
    coords = [grid.axis_nodes(ax)[:h[ax] + 2 if folded else None] for ax in range(d)]
    # the stepping state is component-major, (d, *shape), so each component
    # is contiguous and each advection component c[i] broadcasts over all d
    mgrid = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)     # (*block, d)
    bm = np.moveaxis(np.einsum("ij,...j->...i", spec.b, mgrid), -1, 0).copy()
    source = np.moveaxis(cost_gradient(spec.f, mgrid), -1, 0).copy()
    drift = bool(np.any(spec.b))    # with b == 0 the b^T u term adds exact zeros

    # the terminal layer stays exactly the corrected gradient at the nodes
    u = np.moveaxis(cost_gradient(spec.g, mgrid), -1, 0).copy()
    stored = tuple(x + 1 for x in h) if folded else grid.shape
    steps, stored_u = tgrid.steps, u[tuple(map(slice, (d,) + stored))]
    values = np.empty((steps + 1,) + stored + (d,))
    values[steps] = np.moveaxis(stored_u, 0, -1)
    writes = [(values[..., j], stored_u[j]) for j in range(d)]     # per component: long loops

    # stepping buffers, allocated once: per-step temporaries cost page faults;
    # u is updated in place, so its slope goes to k1 and the stage's to k2
    c, speed, k1, k2, stage = (np.empty_like(u) for _ in range(5))
    bufs = []

    def at(ax, i, comp=None):
        """Index i of space axis ax in a (d, *block) array, of component comp or
        all, as slices, so that indexing gives a view even in 1-d."""
        comp = slice(None) if comp is None else slice(comp, comp + 1)
        return (comp,) + (slice(None),) * ax + (slice(i, i + 1),)

    # per axis its ghost h + 1 and the source h - 1, all components and the
    # axis's own (the last axis's ghost first, so the corner ghost reflects
    # through both), and the center line of the axis's own component
    ghosts = [(at(ax, h[ax] + 1), at(ax, h[ax] - 1), at(ax, h[ax] + 1, ax), at(ax, h[ax] - 1, ax))
              for ax in reversed(range(d))] if folded else []
    centers = [u[at(ax, h[ax], ax)] for ax in range(d)] if folded else []

    def slope(x, out):
        """The function of the diffusion that writes ((transport + diffusion Lap x)
        + b^T x) + source into out and sets x's ghosts, on views built here, once."""
        reflect = [tuple(x[i] for i in ghost) for ghost in ghosts]
        stencil = _stencil(x, c, spacings, out, bufs)

        def rhs(diffusion):
            for ghost, src, ghost_own, src_own in reflect:  # index h - 1, own component negated
                np.copyto(ghost, src)
                np.negative(src_own, out=ghost_own)
            np.subtract(bm, x, out=c)
            cmax = float(np.maximum.reduce(np.abs(c, out=speed), None))  # max(max c, -min c)
            for dx in spacings:
                if cmax * dt / dx > CFL_ADV + 1e-12:
                    raise CflViolation("advection", cmax * dt / dx, CFL_ADV)
            stencil(diffusion)
            if drift:
                np.add(out, np.einsum("ji,j...->i...", spec.b, x), out=out)
            return np.add(out, source, out=out)

        return rhs

    slope_u, slope_stage = slope(u, k1), slope(stage, k2)
    for k in range(steps - 1, -1, -1):
        # explicit Euler stage; the first level then solves diffusion implicitly, the rest Heun
        first = k == steps - 1
        np.add(u, np.multiply(dt, slope_u(0.0 if first else nu), out=stage), out=stage)
        if first:   # the implicit solve couples all nodes, so a folded stage is unfolded
            full = (np.moveaxis(_unfold(np.moveaxis(stage, 0, -1), grid.shape), -1, 0)
                    if folded else stage)
            u[...] = _implicit_solve(full, nu * dt, spacings)[tuple(map(slice, u.shape))]
        else:       # u + 0.5 dt (k1 + k2), k2 the slope at the stage
            k1 += slope_stage(nu)
            k1 *= 0.5 * dt
            np.add(u, k1, out=u)
        for line in centers:    # there the component is its own negative: x - x, +0 or NaN
            np.subtract(line, line, out=line)
        if not np.isfinite(u).all():
            raise PdeDiverged(tgrid.nodes[k])
        for level, comp in writes:
            level[k] = comp

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
    """M paths on `tgrid`: `paths` is (M, steps+1, d) with history and (M, 1, d),
    the terminal states alone, without; `terminal` is (M, d) either way."""
    tgrid: TimeGrid
    paths: np.ndarray
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
    """(M, rows, d) standard normals, row p the first of stream (seed, p)
    (`stream_generators`).

    The memory is time-major, (rows, M, d), so an ensemble step reads one
    contiguous slice.  Each block of 64 paths is drawn path by path into one
    C-order buffer and copied in by one transposed assignment, which moves
    each row's d normals as one void element.  A stream's numbers do not
    depend on how its draws are split, so an array with more rows serves
    every ensemble that reads fewer.
    """
    z = np.empty((rows, M, d))
    block = np.empty((min(M, 64), rows, d))
    zv, bv = (a.view(f"V{8 * d}")[..., 0] for a in (z, block))
    gens = stream_generators(seed, range(M))
    for lo in range(0, M, 64):
        x = block[:min(M - lo, 64)]
        for row, gen in zip(x, gens):
            gen.standard_normal(out=row)
        zv[:, lo:lo + 64] = bv[:len(x)].T
    return z.transpose(1, 0, 2)


def simulate_ensemble(fld: DecouplingField, spec: ModelSpec, M: int, seed: int,
                      normals: np.ndarray = None, history: bool = True) -> PathEnsemble:
    """Euler-Maruyama ensemble of the mean process driven by the field.

    Path p reads row p of `normals` (M, rows, d), drawn from the stream
    (seed, p) of `stream_generators`: for the N-player variant its first N
    rows are the initial states nu0 + clip(z, ±6), whose mean is m_0, the next
    its increments; a common-noise path starts at nu0 and reads increments
    only.  Zero normals give the deterministic path.  A scenario draws the
    normals once, sized for its largest N, and passes them to each ensemble;
    without them the call draws the rows it needs.  So a path depends on
    (seed, p) alone, not on scheduling.  States are clamped to the field's
    domain; the fraction of paths that ever exited is reported (> 1% earns a
    domain-too-small flag).

    The states are stepped time-major in `slots` rows of (M, d), step k reading
    row k % slots and writing the next, so each step writes one contiguous
    slice: with history, slots = steps + 1 and `paths` is their (M, steps+1, d)
    view; without it, two rows, and `paths` is the terminal row, (M, 1, d).
    Both do the same arithmetic, so their terminal states agree bit for bit.
    The field lookups of all steps run through one plan over the step times
    (`DecouplingField.lookup_plan`), built once per ensemble.
    """
    if M < 1:
        raise InvalidParameter("need at least one path")
    meta = fld.metadata
    d = spec.dim
    need = ("kind", "noise_scale") + (("N",) if meta.get("kind") == "nplayer" else ())
    if fld.grid.dim != d or not all(key in meta for key in need):
        raise InvalidParameter(f"a {d}-d model needs a {d}-d field with metadata {need}, "
                               f"got a {fld.grid.dim}-d field with {sorted(meta)}")
    tg = TimeGrid(fld.tgrid.t0, fld.tgrid.T, _sim_steps(fld.tgrid.T - fld.tgrid.t0))
    dt, sq = tg.dt, np.sqrt(tg.dt)
    n0 = meta["N"] if meta["kind"] == "nplayer" else 0
    z = _path_normals(seed, M, n0 + tg.steps, d) if normals is None else normals
    if z.ndim != 3 or z.shape[::2] != (M, d) or z.shape[1] < n0 + tg.steps:
        raise InvalidParameter(f"normals must be ({M}, >= {n0 + tg.steps}, {d}), got {z.shape}")
    m0 = np.empty((M, d))
    m0[:] = spec.nu0
    if n0:      # in blocks of paths, copied to one C-order buffer; z is never written
        block = np.empty((min(M, 256), n0, d))
        for lo in range(0, M, 256):
            x = block[:min(M - lo, 256)]
            # the C order sums each mean in the same order whatever the layout of z
            np.clip(z[lo:lo + 256, :n0], -6.0, 6.0, out=x)
            x += spec.nu0
            m0[lo:lo + 256] = x.mean(axis=1)
        del block, x    # freed before the paths are allocated

    lows, highs = np.array([ax[:2] for ax in fld.grid.axes]).T
    low, high = np.empty((M, d)), np.empty((M, d))     # (M, d) bounds: one long loop each
    low[:], high[:] = lows, highs
    slots = tg.steps + 1 if history else 2
    state = np.empty((slots, M, d))
    # each path's extremes before clamping: it exited iff they leave the domain
    smallest, largest = m0.copy(), m0.copy()
    np.minimum(np.maximum(m0, low, out=m0), high, out=state[0])
    zt = z.transpose(1, 0, 2)
    nodes, scale = tg.nodes, meta["noise_scale"]
    eta, step, lookup = np.empty((M, d)), np.empty((M, d)), fld.lookup_plan(M, nodes[:-1])
    drift = bool(np.any(spec.b))    # with b == 0, m + dt (0 - eta) is m - dt eta
    for k in range(tg.steps):
        m, new = state[k % slots], state[(k + 1) % slots]
        lookup(k, m, eta)
        if drift:
            np.subtract(np.matmul(m, spec.b.T, out=step), eta, out=step)
            step *= dt
        else:
            np.multiply(eta, -dt, out=step)
        np.add(m, step, out=new)
        np.multiply(zt[n0 + k], sq, out=step)
        step *= scale
        new += step
        np.fmin(smallest, new, out=smallest)       # fmin and fmax pass over NaN, as
        np.fmax(largest, new, out=largest)         # the comparisons below do
        np.minimum(np.maximum(new, low, out=new), high, out=new)

    outside = (smallest < lows) | (largest > highs)
    exit_fraction = float(np.mean(np.any(outside, axis=1)))
    meta_out = dict(meta)
    meta_out["domain_too_small"] = exit_fraction > 0.01
    kept = state if history else state[tg.steps % slots][None]
    return PathEnsemble(tgrid=tg, paths=kept.transpose(1, 0, 2), seed=seed,
                        exit_fraction=exit_fraction, metadata=meta_out)


# --- export -----------------------------------------------------------------

_MAGIC = b"MFGF\x02"


def save_field_binary(fld: DecouplingField, path: str):
    """Binary layout: header (dims, bounds, counts, variant, noise scale and
    diffusion) + float64 payload of the whole-grid levels, written one level
    at a time."""
    meta = fld.metadata
    nplayer = meta["kind"] == "nplayer"
    param = float(meta["N"] if nplayer else meta["eps"])
    model = meta.get("model", "").encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<i", fld.grid.dim))
        for lo, hi, n in fld.grid.axes:
            fh.write(struct.pack("<ddi", lo, hi, n))
        fh.write(struct.pack("<ddi", fld.tgrid.t0, fld.tgrid.T, fld.tgrid.steps))
        fh.write(struct.pack("<bd", 0 if nplayer else 1, param))
        fh.write(struct.pack("<dd", meta["noise_scale"], meta["diffusion"]))
        fh.write(struct.pack("<i", len(model)))
        fh.write(model)
        for k in range(fld.tgrid.steps + 1):
            fh.write(np.ascontiguousarray(fld.level(k), dtype="<f8").tobytes())


def load_field_binary(path: str) -> DecouplingField:
    """Read an MFGF version 2 file."""
    with open(path, "rb") as fh:
        def read(n):
            buf = fh.read(n)
            if len(buf) != n:
                raise InvalidInput(f"{path} is truncated: expected {n} more bytes, got {len(buf)}")
            return buf

        magic = fh.read(5)
        if magic == b"MFGF\x01":
            raise InvalidInput(f"{path} is an MFGF version 1 field file, which stores no noise "
                               "scale; solve the field again to write version 2")
        if magic != _MAGIC:
            raise InvalidInput(f"{path} is not a field file")
        (dim,) = struct.unpack("<i", read(4))
        axes = tuple(struct.unpack("<ddi", read(20)) for _ in range(dim))
        t0, T, steps = struct.unpack("<ddi", read(20))
        kind_flag, param = struct.unpack("<bd", read(9))
        noise = struct.unpack("<dd", read(16))
        (mlen,) = struct.unpack("<i", read(4))
        model = read(mlen).decode()
        grid = SpaceGrid(axes)
        tgrid = TimeGrid(t0, T, steps)
        shape = (steps + 1,) + grid.shape + (dim,)
        # checked before reading: a header may count more values than memory holds
        size, left = 8 * math.prod(shape), os.fstat(fh.fileno()).st_size - fh.tell()
        if size != left:
            raise InvalidInput(f"{path} holds {left} bytes of field values, "
                               f"its header counts {size}")
        values = np.frombuffer(fh.read(size), dtype="<f8").reshape(shape).copy()
    meta = {"kind": "nplayer" if kind_flag == 0 else "common-noise", "model": model}
    if kind_flag == 0:
        meta["N"] = int(param)
    else:
        meta["eps"] = param
    if not all(0 <= v < np.inf for v in noise):
        raise InvalidInput(f"{path} stores a noise scale or diffusion outside [0, inf)")
    meta["noise_scale"], meta["diffusion"] = noise
    return DecouplingField(grid=grid, tgrid=tgrid, values=values, metadata=meta)


def export_field_csv_slice(fld: DecouplingField, path: str, time_index: int = 0):
    if not 0 <= time_index <= fld.tgrid.steps:
        raise InvalidInput(f"time index {time_index} outside 0..{fld.tgrid.steps}")
    d = fld.grid.dim
    coords = fld.grid.meshgrid()
    pts = np.stack([c.ravel() for c in coords], axis=-1)
    level = fld.level(time_index).reshape(-1, d)
    header = ",".join([f"m{i+1}" for i in range(d)] + [f"u{i+1}" for i in range(d)])
    np.savetxt(path, np.hstack([pts, level]), delimiter=",", header=header, comments="")
