import dataclasses
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from mfglab.cli import main as cli_main
from mfglab.control import shoot
from mfglab.errors import CflViolation, InvalidInput, InvalidOracle, InvalidParameter
from mfglab.experiments import ScenarioConfig, build_grid, field_for
from mfglab.field import (
    CFL_DIFF,
    DecouplingField,
    _implicit_solve,
    _path_normals,
    _sim_steps,
    _stencil,
    export_field_csv_slice,
    load_field_binary,
    riccati_field_oracle,
    save_field_binary,
    simulate_ensemble,
    solve_field,
    stable_time_grid,
)
from mfglab.numerics import SpaceGrid, TimeGrid, integrate_ode
from mfglab.potentials import (
    ModelSpec,
    corrected_gradient,
    make_logcosh_terminal,
    make_quadratic,
    make_radial_logcosh,
    make_zero,
)
from reference_costs import reminder


def model(f, g, dim=1, b=0.0, nu0=0.0, sigma=1.0):
    return ModelSpec(dim=dim, b=b * np.eye(dim), sigma=sigma, T=1.0, f=f, g=g,
                     nu0=np.full(dim, float(nu0)))


def lq_spec(c=1.0, nu0=0.0, b=0.0):
    return model(make_zero(1), make_quadratic(c, 1), b=b, nu0=nu0)


def logcosh_spec(nu0=0.0):
    return model(make_quadratic(-1.0, 1), make_logcosh_terminal(4.0), nu0=nu0)


def drift_spec_2d():
    return ModelSpec(dim=2, b=np.array([[0.1, 0.3], [-0.2, 0.4]]), sigma=1.0, T=1.0,
                     f=make_quadratic(0.5, 2), g=make_quadratic(1.0, 2, kappa=[0.2, -0.1]),
                     nu0=np.zeros(2))


GRID = SpaceGrid.symmetric(4.0, 201, 1)


def noise_offset(dim: int) -> int:
    """Bytes before the noise scale in a v2 field file: magic, dim, axes, time grid, variant."""
    return 5 + 4 + 20 * dim + 20 + 9


def as_v1(data: bytes, dim: int) -> bytes:
    """The MFGF version 1 file of a version 2 file: no noise scale or diffusion."""
    at = noise_offset(dim)
    return b"MFGF\x01" + data[5:at] + data[at + 16:]


def solve(spec, grid=GRID, N=None, eps=None):
    tg = stable_time_grid(spec, grid, N=N, eps=eps)
    return solve_field(spec, grid, tg, N=N, eps=eps)


def zero_normals(fld, M=1):
    """Normals that drive M paths of fld without noise, each from nu0."""
    n0 = fld.metadata["N"] if fld.metadata["kind"] == "nplayer" else 0
    return np.zeros((M, n0 + _sim_steps(fld.tgrid.T - fld.tgrid.t0), fld.grid.dim))


def oracle_error(spec, fld, N):
    """Worst relative error against `riccati_field_oracle` on |m| <= 2, at t0 and a third in."""
    P, r, _ = riccati_field_oracle(spec, fld.tgrid, N=N)
    m = np.stack(fld.grid.meshgrid(), axis=-1)
    inner = np.all(np.abs(m) <= 2.0, axis=-1)
    worst = 0.0
    for k in (0, fld.tgrid.steps // 3):
        exact = m[inner] @ P[k].T + r[k]
        got = fld.level(k)[inner]
        worst = max(worst, np.max(np.abs(got - exact) / np.maximum(np.abs(exact), 1e-8)))
    return worst


def full_values(fld):
    """The field's levels on the whole grid, stacked: (steps+1, *grid.shape, d)."""
    return np.stack([fld.level(k) for k in range(fld.tgrid.steps + 1)])


class TestSolveField:
    def test_terminal_layer_exact(self):
        N = 50
        spec = logcosh_spec()
        fld = solve(spec, N=N)
        x = GRID.axis_nodes(0)
        expect = np.array([corrected_gradient(spec.g, N, [xx]) for xx in x])
        # a folded 1-d field stores rows 0..h, the exact corrected gradient; the rows
        # past the center are their exact negated mirror, which the corrected
        # gradient at the mirrored nodes matches to rounding only
        h = GRID.shape[0] // 2
        terminal = fld.level(fld.tgrid.steps)
        assert np.array_equal(terminal[:h + 1], expect[:h + 1])
        assert np.array_equal(terminal[h + 1:], -expect[h - 1::-1])

    def test_trivial_lq_field_is_identity(self):
        fld = solve(model(make_zero(1), make_zero(1)), N=100)
        x = GRID.axis_nodes(0)
        inner = np.abs(x) <= 2.0
        for k in (0, len(fld.tgrid.nodes) // 2):
            assert np.max(np.abs(fld.level(k)[inner, 0] - x[inner])) < 1e-6

    def test_quadratic_oracle_agreement(self):
        N = 10
        spec = lq_spec(c=1.0)
        fld = solve(spec, N=N)
        P, r, u = riccati_field_oracle(spec, fld.tgrid, N=N)
        x = GRID.axis_nodes(0)
        inner = np.abs(x) <= 2.0
        worst = 0.0
        for k in (0, fld.tgrid.steps // 3):
            exact = P[k][0, 0] * x[inner] + r[k][0]
            got = fld.level(k)[inner, 0]
            worst = max(worst, np.max(np.abs(got - exact) / np.maximum(np.abs(exact), 1e-8)))
        assert worst < 1e-2

    @pytest.mark.parametrize("dim, nodes, b", [(1, 201, 0.3), (2, 81, 0.3), (2, 81, -0.4)])
    def test_drift_oracle_agreement(self, dim, nodes, b):
        # no default config has b != 0, so this is the test of the b^T u term;
        # without it the worst relative error is 0.12-0.19
        spec = model(make_zero(dim), make_quadratic(1.0, dim), dim=dim, b=b)
        fld = solve(spec, grid=SpaceGrid.symmetric(4.0, nodes, dim), N=10)
        assert oracle_error(spec, fld, N=10) < 1e-4

    def test_odd_symmetry_even_data(self):
        fld = solve(logcosh_spec(), N=100)
        v = full_values(fld)
        assert np.max(np.abs(v + v[:, ::-1, :])) < 1e-10
        mid = GRID.shape[0] // 2
        assert np.all(v[:-1, mid, 0] == 0.0)  # interior levels exactly zero
        assert v[-1, mid, 0] == 0.0           # grad at 0 of even data

    def test_odd_symmetry_even_data_2d(self):
        spec = model(make_quadratic(-1.0, 2), make_radial_logcosh(4.0, 2), dim=2)
        fld = solve(spec, grid=SpaceGrid.symmetric(3.0, 61, 2), N=50)
        v = full_values(fld)
        # the two mirror symmetries compose to the point reflection, exactly
        assert np.array_equal(v[:-1], -v[:-1, ::-1, ::-1])
        assert np.all(v[:-1, 30, 30] == 0.0)

    def test_eps_matches_N_for_plain_lq(self):
        spec = model(make_zero(1), make_zero(1), sigma=1.0)
        N = 25
        tg = stable_time_grid(spec, GRID, N=N)
        a = solve_field(spec, GRID, tg, N=N)
        b = solve_field(spec, GRID, tg, eps=spec.sigma / math.sqrt(N))
        # sigma^2/(2N) and eps^2/2 differ by one ulp, so demand machine
        # precision rather than bitwise equality
        assert np.max(np.abs(full_values(a) - full_values(b))) < 1e-13

    def test_rotation_equivariance_2d(self):
        spec = model(make_quadratic(-1.0, 2), make_radial_logcosh(4.0, 2), dim=2)
        grid = SpaceGrid.symmetric(3.0, 61, 2)
        fld = solve(spec, grid=grid, N=50)
        v = full_values(fld)  # (K, n, n, 2)
        # 90-degree rotation R(x,y) = (-y, x) maps node (i,j) to (n-1-j, i)
        rotated_pointwise = np.stack([-v[..., 1], v[..., 0]], axis=-1)
        v_at_rotated = np.transpose(v[:, ::-1, :, :], (0, 2, 1, 3))
        assert np.max(np.abs(v_at_rotated - rotated_pointwise)) < 1e-12

    def test_cfl_violation_raises(self):
        spec = logcosh_spec()
        with pytest.raises(CflViolation):
            solve_field(spec, GRID, TimeGrid(0.0, 1.0, 30), N=100)

    def test_parameter_validation(self):
        spec = logcosh_spec()
        tg = TimeGrid(0.0, 1.0, 100)
        with pytest.raises(InvalidParameter):
            solve_field(spec, GRID, tg)
        with pytest.raises(InvalidParameter):
            solve_field(spec, GRID, tg, N=10, eps=0.1)
        with pytest.raises(InvalidParameter):
            solve_field(spec, GRID, tg, eps=-0.5)

    def test_interpolation_linear_exact(self):
        # multilinear interpolation reproduces an affine field exactly
        spec = lq_spec(c=1.0)
        fld = solve(spec, N=10)
        _, _, u = riccati_field_oracle(spec, fld.tgrid, N=10)
        for t in (0.0, 0.37, 0.81):
            for x in (-1.23, 0.4567, 1.99):
                got = fld.evaluate(t, [x])[0]
                assert got == pytest.approx(u(t, [x])[0], abs=2e-3)

    def test_evaluate_clamps_time(self):
        fld = solve(logcosh_spec(), N=50)
        t0, T = fld.tgrid.t0, fld.tgrid.T
        for x in ([0.7], [-1.3]):
            assert np.array_equal(fld.evaluate(T + 0.5, x), fld.evaluate(T, x))
            assert np.array_equal(fld.evaluate(t0 - 0.5, x), fld.evaluate(t0, x))


def upwind_reference(u, c, spacings):
    """The upwind transport from whole forward and backward difference arrays."""
    out = np.zeros_like(u)
    for ax, dx in enumerate(spacings, start=1):
        fwd, bwd = np.empty_like(u), np.empty_like(u)
        v, f, b = u.swapaxes(0, ax), fwd.swapaxes(0, ax), bwd.swapaxes(0, ax)
        diff = (v[1:] - v[:-1]) / dx
        f[:-1], f[-1] = diff, diff[-1]
        b[1:], b[0] = diff, diff[0]
        out += np.maximum(c[ax - 1], 0) * fwd + np.minimum(c[ax - 1], 0) * bwd
    return out


def laplacian_reference(u, spacings):
    """The Laplacian from whole second-difference arrays; each axis's end rows are zero."""
    out = np.zeros_like(u)
    for ax, dx in enumerate(spacings, start=1):
        v, o = u.swapaxes(0, ax), out.swapaxes(0, ax)
        o[1:-1] += (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dx**2
    return out


def per_line_stencil(u, c, spacings, out):
    """The stencil of `_stencil` as a per-axis plan on swapped-axis views, each
    ufunc one short loop per grid line: the reference the flattened plan must
    equal bit for bit.  Scratch is per axis, laid out as u."""
    plan = []
    for ax, dx in enumerate(spacings, start=1):
        s = u.shape[:ax] + (u.shape[ax] - 1,) + u.shape[ax + 1:]
        bufs = [np.empty(lead + s[1:]) for lead in (s[:1], s[:1], (1,), (1,))]
        diff, prod, cp, cm = (b.swapaxes(0, ax) for b in bufs)
        v, o, sp = u.swapaxes(0, ax), out.swapaxes(0, ax), c[ax - 1:ax].swapaxes(0, ax)
        plan.append((dx, v, o, sp, diff, prod, cp, cm))

    def apply(nu):
        for ax, (dx, v, o, sp, diff, prod, cp, cm) in enumerate(plan):
            np.subtract(v[1:], v[:-1], out=diff)
            np.divide(np.maximum(sp[:-1], 0.0, out=cp), dx, out=cp)
            np.divide(np.minimum(sp[1:], 0.0, out=cm), dx, out=cm)
            np.add(cp[1:], nu / dx**2, out=cp[1:])
            np.subtract(cm[:-1], nu / dx**2, out=cm[:-1])
            np.divide(sp[0], dx, out=cp[0])
            np.divide(sp[-1], dx, out=cm[-1])
            if ax == 0:
                np.multiply(cp, diff, out=o[:-1])
                o[-1].fill(0.0)
            else:
                np.add(o[:-1], np.multiply(cp, diff, out=prod), out=o[:-1])
            np.add(o[1:], np.multiply(cm, diff, out=prod), out=o[1:])
        return out

    return apply


def signed_zero_speeds(gen, shape):
    """Normal speeds with every 5th node +0.0 and every 7th from the second -0.0."""
    c = gen.normal(size=shape)
    flat = c.reshape(shape[0], -1)
    flat[:, ::5] = 0.0
    flat[:, 1::7] = -0.0
    return c


class TestTransport:
    @pytest.mark.parametrize("shape, spacings", [((1, 101), (0.05,)), ((2, 41, 37), (0.1, 0.07))],
                             ids=["1d", "2d"])
    def test_equals_whole_array_reference(self, shape, spacings):
        # the one-stencil transport and diffusion against whole-array upwinding
        # plus nu times a whole-array Laplacian, with rows of zero speed of both signs
        gen = np.random.default_rng(11)
        u, c = gen.normal(size=shape), gen.normal(size=shape)
        c[:, ::5] = 0.0
        c[:, 1::7] = -0.0
        got = np.empty_like(u)
        plan = _stencil(u, c, spacings, got, [])    # one plan, run for both nu
        for nu in (0.0, 0.37):
            ref = upwind_reference(u, c, spacings) + nu * laplacian_reference(u, spacings)
            got.fill(np.nan)        # a node the stencil skips shows as NaN
            assert plan(nu) is got
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("shape, spacings", [
        ((1, 2), (0.3,)),
        ((1, 101), (0.05,)),
        ((2, 7, 5), (0.1, 0.2)),
        ((2, 41, 37), (0.1, 0.07)),
        ((2, 12, 12), (0.3, 0.3)),      # a folded 21x21 solve's block: indices 0..h + 1
    ], ids=["1d-2", "1d-101", "2d-7x5", "2d-41x37", "2d-folded-12x12"])
    def test_equals_per_line_plan_bit_for_bit(self, shape, spacings):
        # the flattened plan only reorders memory traversal, so every node sees
        # the same float operations: equal to the bit, ±0 included, for two
        # plans that share one scratch set
        gen = np.random.default_rng(17)
        u, c = gen.normal(size=shape), signed_zero_speeds(gen, shape)
        x, cx = gen.normal(size=shape), signed_zero_speeds(gen, shape)
        bufs, got, got_x = [], np.empty_like(u), np.empty_like(u)
        plans = [(_stencil(u, c, spacings, got, bufs), per_line_stencil(u, c, spacings,
                                                                          np.empty_like(u))),
                 (_stencil(x, cx, spacings, got_x, bufs), per_line_stencil(x, cx, spacings,
                                                                            np.empty_like(x)))]
        for nu in (0.0, 0.37):
            for plan, ref in plans:
                out = plan(nu)
                assert np.array_equal(out.view(np.int64), ref(nu).view(np.int64))

    def test_wrap_around_terms_do_not_leak(self):
        # the flattened shift of the second axis pairs each line's last node
        # with the next line's first; an inf at line 5's last node makes both
        # of those terms non-finite, so a face left unrestored shows in line 6
        gen = np.random.default_rng(29)
        shape, spacings = (2, 41, 37), (0.1, 0.07)
        u, c = gen.normal(size=shape), signed_zero_speeds(gen, shape)
        u[:, 5, -1] = np.inf
        got = np.empty_like(u)
        plan, ref = _stencil(u, c, spacings, got, []), per_line_stencil(u, c, spacings,
                                                                        np.empty_like(u))
        other = np.arange(shape[1]) != 5
        with np.errstate(invalid="ignore"):
            for nu in (0.0, 0.37):
                want = ref(nu)
                assert np.isfinite(want[:, 6, 0]).all()
                assert np.array_equal(plan(nu)[:, other].view(np.int64),
                                      want[:, other].view(np.int64))


def implicit_operator(shape, spacings, coef):
    """Dense I - coef L, L the stencil's Laplacian: each axis's end rows zeroed."""
    mats = []
    for n, dx in zip(shape, spacings):
        L = (np.eye(n, k=1) - 2.0 * np.eye(n) + np.eye(n, k=-1)) / dx**2
        L[[0, -1]] = 0.0
        mats.append(L)
    if len(mats) == 2:
        L = np.kron(mats[0], np.eye(shape[1])) + np.kron(np.eye(shape[0]), mats[1])
    return np.eye(len(L)) - coef * L


class TestImplicitSolve:
    # the first backward level solves (I - nu dt L) x = b directly; a dense
    # solve of the assembled operator is the reference
    @pytest.mark.parametrize("shape, spacings, d", [
        ((41,), (0.2,), 1),
        ((1601,), (0.005,), 1),
        ((23, 31), (0.3, 0.17), 2),
        ((3, 5), (0.3, 0.17), 2),     # one interior row next to both edges
        ((3,), (0.2,), 1),            # one interior node
        ((3, 3), (0.3, 0.17), 2),
    ], ids=["1d-41", "1d-1601", "2d-23x31", "2d-3x5", "1d-3", "2d-3x3"])
    @pytest.mark.parametrize("ratio", [0.05, CFL_DIFF, 3.0])
    def test_matches_dense_solve(self, shape, spacings, d, ratio):
        coef = ratio * min(spacings) ** 2
        b = np.random.default_rng(3).normal(size=(d,) + shape)
        A = implicit_operator(shape, spacings, coef)
        ref = np.linalg.solve(A, b.reshape(d, -1).T).T.reshape(b.shape)
        x = _implicit_solve(b, coef, spacings)
        assert x.shape == b.shape
        assert np.max(np.abs(x - ref)) <= 1e-12
        # the operator is the explicit steps' Laplacian: the stencil at zero speed
        lap = _stencil(x, np.zeros_like(x), spacings, np.empty_like(x), [])(1.0)
        assert np.max(np.abs(x - coef * lap - b)) <= 1e-12

    def test_leading_axes_are_lanes(self):
        # the solve runs over the last len(spacings) axes; each lane of the
        # leading ones is solved exactly as it would be alone
        spacings, coef = (0.3, 0.17), CFL_DIFF * 0.17**2
        b = np.random.default_rng(5).normal(size=(3, 2, 23, 31))
        x = _implicit_solve(b, coef, spacings)
        for lane in np.ndindex(b.shape[:2]):
            assert np.array_equal(x[lane], _implicit_solve(b[lane], coef, spacings))


def two_function_solve(spec, grid, tgrid, N):
    """`solve_field` for b = 0 and even data on a symmetric grid, stepped by two
    functions: whole-array upwinding plus a separate Laplacian, fresh arrays
    every step."""
    nu, dt, spacings = spec.sigma**2 / (2.0 * N), tgrid.dt, grid.spacings
    mgrid = np.stack(grid.meshgrid(), axis=-1)
    source = np.moveaxis(corrected_gradient(spec.f, N, mgrid), -1, 0)
    u = np.moveaxis(corrected_gradient(spec.g, N, mgrid), -1, 0)
    flip = tuple(range(1, grid.dim + 1))

    def rhs(u, diffuse):
        out = upwind_reference(u, -u, spacings)
        if diffuse:
            out += nu * laplacian_reference(u, spacings)
        return out + source

    levels = [u]
    for k in range(tgrid.steps - 1, -1, -1):
        if k == tgrid.steps - 1:
            u = _implicit_solve(u + dt * rhs(u, False), nu * dt, spacings)
        else:
            k1 = rhs(u, True)
            k2 = rhs(u + dt * k1, True)
            u = u + 0.5 * dt * (k1 + k2)
        u = 0.5 * (u - np.flip(u, axis=flip))
        levels.append(u)
    return np.moveaxis(np.array(levels[::-1]), 1, -1)


class TestStencilSolve:
    # with even data on a symmetric grid solve_field steps only indices 0..h of
    # each axis and stores only those; level(k) unfolds them axis by axis
    @pytest.mark.parametrize("grid", [
        SpaceGrid.symmetric(4.0, 201, 1),
        SpaceGrid.symmetric(3.0, 41, 2),
        SpaceGrid(((-3.0, 3.0, 41), (-2.0, 2.0, 31))),
    ], ids=["1d-201", "2d-41x41", "2d-41x31"])
    def test_matches_two_function_stepping(self, grid):
        dim = grid.dim
        g = make_logcosh_terminal(4.0) if dim == 1 else make_radial_logcosh(4.0, 2)
        spec = model(make_quadratic(-1.0, dim), g, dim=dim)
        tg = stable_time_grid(spec, grid, N=50)
        fld = solve_field(spec, grid, tg, N=50)
        ref = two_function_solve(spec, grid, tg, N=50)
        v = full_values(fld)
        assert np.max(np.abs(v - ref)) <= 1e-12
        center = (slice(None),) + tuple(n // 2 for n in grid.shape)
        assert np.all(v[center] == 0.0)
        assert np.array_equal(v[:-1], -np.flip(v[:-1], axis=tuple(range(1, dim + 1))))

    def test_asymmetric_grid_steps_whole_grid(self):
        # even data, but a grid not symmetric about 0: no reflection applies
        spec = model(make_zero(1), make_quadratic(1.0, 1))
        grid = SpaceGrid(((-3.0, 2.0, 41),))
        assert spec.even_data and not grid.is_symmetric()
        fld = solve(spec, grid=grid, N=10)
        P, r, _ = riccati_field_oracle(spec, fld.tgrid, N=10)
        x = grid.axis_nodes(0)
        inner = (x >= -2.0) & (x <= 1.0)
        for k in (0, fld.tgrid.steps // 3):
            exact = P[k][0, 0] * x[inner] + r[k][0]
            got = fld.values[k][inner, 0]
            assert np.max(np.abs(got - exact) / np.maximum(np.abs(exact), 1e-8)) < 1e-4


def blend_then_interpolate(fld, t, points):
    """A 2-d field's value from whole levels blended in time, then interpolated in space."""
    tg = fld.tgrid
    s = min(max((t - tg.t0) / tg.dt, 0.0), tg.steps)
    k = min(int(s), tg.steps - 1)
    w = s - k
    level = (1.0 - w) * fld.values[k] + w * fld.values[k + 1]
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    idx, frac = [], []
    for ax in range(2):
        lo, hi, n = fld.grid.axes[ax]
        dx = (hi - lo) / (n - 1)
        s = np.minimum(np.maximum((pts[:, ax] - lo) / dx, 0.0), n - 1 - 1e-12)
        i = s.astype(np.intp)
        idx.append(i)
        frac.append(s - i)
    i, j = idx
    wx, wy = frac[0][:, None], frac[1][:, None]
    return ((1.0 - wx) * (1.0 - wy) * level[i, j]
            + wx * (1.0 - wy) * level[i + 1, j]
            + (1.0 - wx) * wy * level[i, j + 1]
            + wx * wy * level[i + 1, j + 1])


class TestEvaluate:
    def test_2d_corner_gather_equals_whole_level_blend(self):
        # a non-square, off-center grid and random values, so a swapped axis or
        # corner shows; the gather must reproduce the old arithmetic bit for bit
        gen = np.random.default_rng(5)
        grid = SpaceGrid(((-3.0, 2.0, 23), (-1.0, 4.0, 17)))
        tg = TimeGrid(0.5, 1.5, 9)
        fld = DecouplingField(grid, tg, gen.normal(size=(10, 23, 17, 2)))
        inside = np.column_stack([gen.uniform(-3, 2, 300), gen.uniform(-1, 4, 300)])
        outside = np.array([[-7.0, 0.5], [3.5, 2.0], [0.0, -9.0], [1.0, 6.0], [9.0, 9.0],
                            [-9.0, -9.0]])
        edges = np.array([[2.0, 0.3], [-1.2, 4.0], [2.0, 4.0], [-3.0, -1.0], [-3.0, 4.0]])
        pts = np.vstack([inside, outside, edges])
        times = (0.2, 0.5, 0.5 + 3 * tg.dt, 0.917, 1.5, 1.9)
        out, run = np.empty_like(pts), fld.lookup_plan(len(pts), times)
        for j, t in enumerate(times):
            ref = blend_then_interpolate(fld, t, pts)
            assert np.array_equal(fld.evaluate_batch(t, pts), ref)
            assert np.array_equal(run(j, pts, out), ref)
        for t, m in ((0.73, [0.4, 1.1]), (1.5, [2.0, 4.0]), (0.1, [-5.0, 0.0])):
            assert np.array_equal(fld.evaluate(t, m), blend_then_interpolate(fld, t, m)[0])

    @pytest.mark.parametrize("dim, cols", [(1, 2), (2, 1), (2, 3)])
    def test_points_of_the_wrong_dimension_refused(self, dim, cols):
        # a 1-d field used to read [[0.5, 3.0]] as 0.5 twice; a 2-d field raised
        # IndexError or a broadcast ValueError
        grid = SpaceGrid(((-1.0, 1.0, 5),) * dim)
        fld = DecouplingField(grid, TimeGrid(0.0, 1.0, 8), np.zeros((9,) + grid.shape + (dim,)))
        with pytest.raises(InvalidParameter, match=f"points must be \\(n, {dim}\\)"):
            fld.evaluate_batch(0.0, np.full((4, cols), 0.5))
        with pytest.raises(InvalidParameter):
            fld.evaluate(0.0, [0.5] * cols)
        assert np.array_equal(fld.evaluate_batch(0.0, np.full((4, dim), 0.5)), np.zeros((4, dim)))

    @pytest.mark.parametrize("grid", [SpaceGrid.symmetric(3.0, 41, 1),
                                      SpaceGrid(((-3.0, 2.0, 41),))], ids=["folded", "unfolded"])
    def test_1d_plan_across_blend_blocks(self, grid):
        # a 1-d plan blends the levels of 8 times at once: 8 * 3 + 5 times, the
        # first and last outside [t0, T], cross its blocks' boundaries, in order
        # and then jumping back and forth between blocks
        fld = odd_field(grid)
        assert fld._folded == grid.is_symmetric()
        tg, gen = fld.tgrid, np.random.default_rng(23)
        times = np.linspace(tg.t0 - 0.1, tg.T + 0.1, 8 * 3 + 5)
        pts = np.vstack([gen.uniform(-4.0, 3.0, size=(60, 1)), [[np.nan]]])
        out, run = np.empty_like(pts), fld.lookup_plan(len(pts), times)
        with np.errstate(invalid="ignore"):     # the NaN point's cell index is a NaN cast
            for j in list(range(len(times))) + [28, 3, 17, 8, 7, 24, 0]:
                ref = fld.evaluate_batch(times[j], pts)
                assert run(j, pts, out) is out
                assert np.array_equal(out, ref, equal_nan=True)
                assert np.isnan(out[-1, 0]) and np.isfinite(out[:-1]).all()
        with pytest.raises(InvalidParameter):
            fld.lookup_plan(len(pts), [tg.t0, np.nan])


def rebuilt_full(fld):
    """The same field with every level stored on the whole grid."""
    return DecouplingField(fld.grid, fld.tgrid, full_values(fld), fld.metadata)


ODD_GRIDS = [
    SpaceGrid.symmetric(3.0, 41, 1),
    SpaceGrid.symmetric(3.0, 41, 2),
    SpaceGrid(((-3.0, 3.0, 41), (-2.0, 2.0, 31))),
]
ODD_IDS = ["1d-41", "2d-41x41", "2d-41x31"]


def odd_field(grid):
    dim = grid.dim
    g = make_logcosh_terminal(4.0) if dim == 1 else make_radial_logcosh(4.0, 2)
    return solve(model(make_quadratic(-1.0, dim), g, dim=dim), grid=grid, N=50)


class TestFoldedStorage:
    # a mirror-folded field stores indices 0..h of each axis; its lookups map
    # corner indices into that part and negate the component of each axis
    # reflected, which must equal the full field's bit for bit
    @pytest.mark.parametrize("grid", ODD_GRIDS, ids=ODD_IDS)
    def test_stores_half_rows(self, grid):
        # half the rows of a 1-d grid, (h0 + 1, h1 + 1) of a 2-d one
        fld = odd_field(grid)
        stored = tuple(n // 2 + 1 for n in grid.shape)
        assert fld.values.shape == (fld.tgrid.steps + 1,) + stored + (grid.dim,)
        assert (fld.values.nbytes * math.prod(grid.shape)
                == rebuilt_full(fld).values.nbytes * math.prod(stored))

    @pytest.mark.parametrize("grid", ODD_GRIDS[1:], ids=ODD_IDS[1:])
    def test_e4_levels_mirror_each_axis(self, grid):
        # each coordinate flip negates its own component and keeps the other, exactly
        spec = ScenarioConfig.from_text("scenario = E4\n").spec
        v = full_values(solve(spec, grid=grid, N=50))
        h0, h1 = (n // 2 for n in grid.shape)
        assert np.array_equal(v[:, ::-1, :, 0], -v[..., 0])
        assert np.array_equal(v[:, ::-1, :, 1], v[..., 1])
        assert np.array_equal(v[:, :, ::-1, 0], v[..., 0])
        assert np.array_equal(v[:, :, ::-1, 1], -v[..., 1])
        assert np.all(v[:, h0, :, 0] == 0.0)      # u1 on the center row
        assert np.all(v[:, :, h1, 1] == 0.0)      # u2 on the center column

    @pytest.mark.parametrize("grid", ODD_GRIDS, ids=ODD_IDS)
    def test_lookup_equals_full_field(self, grid):
        fld = odd_field(grid)
        full = rebuilt_full(fld)
        gen = np.random.default_rng(17)
        (lo, hi), dim = np.array([ax[:2] for ax in grid.axes]).T, grid.dim
        random = gen.uniform(lo, hi, size=(400, dim))
        nodes = np.stack([c.ravel() for c in grid.meshgrid()], axis=-1)
        axis0 = gen.uniform(lo, hi, size=(60, dim))
        axis0[:, 0] = 0.0                   # the center row
        lines = [axis0, np.zeros((1, dim))]
        if dim == 2:
            axis1 = gen.uniform(lo, hi, size=(60, dim))
            axis1[:, 1] = 0.0               # the center column
            lines.append(axis1)
        outside = np.vstack([gen.uniform(lo - 5.0, lo - 0.1, size=(20, dim)),
                             gen.uniform(hi + 0.1, hi + 5.0, size=(20, dim)),
                             np.where(gen.uniform(size=(20, dim)) < 0.5, lo - 1.0, hi + 1.0)])
        pts = np.vstack([random, nodes] + lines + [outside])
        tg = fld.tgrid
        times = (tg.t0 + 0.3 * tg.dt, tg.T - 0.4 * tg.dt, tg.T, tg.t0 - 0.5, tg.T + 0.5)
        out, run = np.empty_like(pts), fld.lookup_plan(len(pts), times)    # as an ensemble has
        for j, t in enumerate(times):
            ref = full.evaluate_batch(t, pts)
            assert np.array_equal(fld.evaluate_batch(t, pts), ref)
            assert run(j, pts, out) is out
            assert np.array_equal(out, ref)

    @pytest.mark.parametrize("grid, f, g, b", [
        (SpaceGrid(((-3.0, 2.0, 41),)), make_zero(1), make_quadratic(1.0, 1), None),
        (SpaceGrid.symmetric(3.0, 41, 1), make_zero(1), make_quadratic(1.0, 1, kappa=[0.3]), None),
        (SpaceGrid(((-3.0, 3.0, 41), (-2.0, 1.0, 31))), make_zero(2), make_quadratic(1.0, 2), None),
        (SpaceGrid.symmetric(3.0, 41, 2), make_zero(2), make_quadratic(1.0, 2, kappa=[0.2, -0.1]),
         None),
        (SpaceGrid.symmetric(4.0, 81, 2), make_zero(2), make_quadratic(1.0, 2),
         [[0.1, 0.3], [-0.2, 0.4]]),
    ], ids=["1d-asymmetric-grid", "1d-uneven-data", "2d-asymmetric-grid", "2d-uneven-data",
            "2d-nondiagonal-drift"])
    def test_keeps_full_rows(self, grid, f, g, b):
        spec = model(f, g, dim=grid.dim)
        if b is not None:   # b m keeps the point symmetry of even data, not the mirror ones
            spec = dataclasses.replace(spec, b=np.array(b))
        fld = solve(spec, grid=grid, N=10)
        assert fld.values.shape == (fld.tgrid.steps + 1,) + grid.shape + (grid.dim,)
        assert np.array_equal(fld.level(3), fld.values[3])
        if b is not None:
            assert oracle_error(spec, fld, N=10) < 1e-4

    @pytest.mark.parametrize("grid", ODD_GRIDS, ids=ODD_IDS)
    def test_saved_bytes_equal_full_field(self, grid, tmp_path):
        fld = odd_field(grid)
        full = rebuilt_full(fld)
        for name, f in (("odd", fld), ("full", full)):
            save_field_binary(f, str(tmp_path / f"{name}.bin"))
            for k in (0, fld.tgrid.steps):
                export_field_csv_slice(f, str(tmp_path / f"{name}{k}.csv"), time_index=k)
        for name in ["{}.bin"] + [f"{{}}{k}.csv" for k in (0, fld.tgrid.steps)]:
            odd, whole = ((tmp_path / name.format(n)).read_bytes() for n in ("odd", "full"))
            assert odd == whole
        assert np.array_equal(load_field_binary(str(tmp_path / "odd.bin")).values, full.values)


class TestOracle:
    def test_stationary(self):
        spec = model(make_zero(1), make_zero(1))
        P, r, u = riccati_field_oracle(spec, TimeGrid(0, 1, 200), N=10)
        assert np.max(np.abs(P - 1.0)) < 1e-12
        assert np.max(np.abs(r)) == 0.0

    def test_terminal_coefficient(self):
        spec = lq_spec(c=1.0)
        P, r, _ = riccati_field_oracle(spec, TimeGrid(0, 1, 200), N=10)
        assert P[-1][0, 0] == pytest.approx(2.2)  # (1 + c)(1 + c/N)
        fine = riccati_field_oracle(spec, TimeGrid(0, 1, 4000), N=10)[0]
        assert abs(P[0, 0, 0] - fine[0, 0, 0]) < 1e-10

    def test_linear_terminal_term(self):
        kap = 3.0
        spec = model(make_zero(1), make_quadratic(0.0, 1, kappa=[kap]))
        P, r, _ = riccati_field_oracle(spec, TimeGrid(0, 1, 100), N=10)
        assert r[-1][0] == pytest.approx(kap)
        assert corrected_gradient(spec.g, 10, [0.7])[0] == pytest.approx(0.7 + kap)

    def test_eps_variant_drops_reminder_factor(self):
        spec = lq_spec(c=1.0)
        P_eps, _, _ = riccati_field_oracle(spec, TimeGrid(0, 1, 100), eps=0.3)
        assert P_eps[-1][0, 0] == pytest.approx(2.0)  # (1 + c), no 1/N factor

    def test_exactly_symmetric_2d(self):
        spec = drift_spec_2d()
        P, r, u = riccati_field_oracle(spec, TimeGrid(0, 1, 200), N=10)
        assert np.array_equal(P, np.swapaxes(P, 1, 2))
        assert np.array_equal(u(0.0, [0.3, -0.2]), P[0] @ [0.3, -0.2] + r[0])

    def test_matches_rk4_of_packed_state(self):
        # RK4 of the [P | r] system, forward in reversed time s = T - t
        spec, N, d = drift_spec_2d(), 10, 2
        b, I = spec.b, np.eye(d)
        (Cf, kf), (Cg, kg) = spec.f.quad_coeffs, spec.g.quad_coeffs
        A_f, a_f = (I + Cf / N) @ (I + Cf), (I + Cf / N) @ kf
        A_g, a_g = (I + Cg / N) @ (I + Cg), (I + Cg / N) @ kg

        def rhs(s, state, out):
            Pm, rm = state[:, :d], state[:, d]
            dP = Pm @ Pm - Pm @ b - b.T @ Pm - A_f
            return np.negative(np.column_stack([0.5 * (dP + dP.T), (Pm - b.T) @ rm - a_f]),
                               out=out)

        tgrid = TimeGrid(0, 1, 4000)
        ref = integrate_ode(rhs, np.column_stack([0.5 * (A_g + A_g.T), a_g]), tgrid)[::-1]
        P, r, _ = riccati_field_oracle(spec, tgrid, N=N)
        assert np.max(np.abs(P - ref[:, :, :d])) < 1e-12
        assert np.max(np.abs(r - ref[:, :, d])) < 1e-12

    @pytest.mark.parametrize("variant", [{"N": 0}, {"eps": -1.0}, {"eps": math.nan}])
    def test_invalid_variant_rejected(self, variant):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter):
                riccati_field_oracle(lq_spec(), TimeGrid(0, 1, 100), **variant)

    def test_non_quadratic_rejected(self):
        with pytest.raises(InvalidOracle):
            riccati_field_oracle(logcosh_spec(), TimeGrid(0, 1, 100), N=10)


# an odd, a common-noise, a drifting (b != 0, the matmul branch) and a 2-d field
FOUR_FIELDS = [
    (logcosh_spec(), SpaceGrid.symmetric(3.0, 41, 1), {"N": 20}),
    (logcosh_spec(), SpaceGrid.symmetric(3.0, 41, 1), {"eps": 0.5}),
    (lq_spec(b=0.3, nu0=0.2), SpaceGrid(((-3.0, 2.0, 41),)), {"N": 20}),
    (model(make_quadratic(-1.0, 2), make_radial_logcosh(4.0, 2), dim=2),
     SpaceGrid.symmetric(3.0, 41, 2), {"N": 20}),
]
FOUR_FIELD_IDS = ["1d-odd", "1d-common-noise", "1d-drift", "2d-odd"]


class TestSimulate:
    def test_determinism_and_thread_independence(self):
        fld = solve(logcosh_spec(), N=50)
        spec = logcosh_spec()
        a = simulate_ensemble(fld, spec, M=8, seed=99)
        b = simulate_ensemble(fld, spec, M=8, seed=99)
        assert np.array_equal(a.terminal, b.terminal)
        # path index addresses the stream: the first 8 paths of a larger
        # ensemble coincide with the small ensemble regardless of scheduling
        c = simulate_ensemble(fld, spec, M=16, seed=99)
        assert np.array_equal(c.paths[:8], a.paths)

    @pytest.mark.parametrize("seed", [11, 2**70 + 3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_path_normals_are_seed_sequence_streams(self, seed, d):
        # path p reads numpy's own Generator over SeedSequence((seed, p)); the
        # paths are drawn in blocks of 64, so M = 64, 65 and 130 put paths on
        # both sides of a block edge
        rows = 40
        for M in (1, 7, 64, 65, 130):
            z = _path_normals(seed, M, rows, d)
            assert z.shape == (M, rows, d)
            for p in range(M):
                gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, p))))
                assert np.array_equal(z[p], gen.normal(size=(rows, d)))

    def test_shared_normals_match_fresh_draws(self):
        # normals drawn once for a larger N serve every smaller N and every
        # eps of a scenario bit for bit, and are never written
        spec = logcosh_spec()
        grid = SpaceGrid.symmetric(4.0, 41, 1)
        M, seed = 6, 7
        shared = _path_normals(seed, M, 60 + _sim_steps(spec.T), 1)
        before = shared.copy()
        for kw in ({"N": 20}, {"N": 50}, {"eps": 0.5}, {"eps": 0.1}):
            fld = solve(spec, grid=grid, **kw)
            fresh = simulate_ensemble(fld, spec, M=M, seed=seed)
            sliced = simulate_ensemble(fld, spec, M=M, seed=seed, normals=shared)
            assert np.array_equal(sliced.paths, fresh.paths)
            assert sliced.exit_fraction == fresh.exit_fraction
        assert np.array_equal(shared, before)

    @pytest.mark.parametrize("spec, grid, variant", FOUR_FIELDS, ids=FOUR_FIELD_IDS)
    def test_normals_layout_does_not_matter(self, spec, grid, variant):
        # the drawn normals are time-major; a C-order copy, read path by path,
        # must step the same paths bit for bit.  M > 256 spans two blocks of m_0
        fld = solve(spec, grid=grid, **variant)
        M, rows = 300, variant.get("N", 0) + _sim_steps(spec.T)
        drawn = _path_normals(3, M, rows, spec.dim)
        copy = np.ascontiguousarray(drawn)
        assert not drawn.flags.c_contiguous and drawn.transpose(1, 0, 2).flags.c_contiguous
        a = simulate_ensemble(fld, spec, M=M, seed=3, normals=drawn)
        b = simulate_ensemble(fld, spec, M=M, seed=3, normals=copy)
        assert a.paths.shape == (M, _sim_steps(spec.T) + 1, spec.dim)
        assert np.array_equal(a.paths, b.paths)
        assert a.exit_fraction == b.exit_fraction
        assert np.array_equal(drawn, copy)

    @pytest.mark.parametrize("T", [1.0, 0.017], ids=["1000-steps", "17-steps"])
    @pytest.mark.parametrize("spec, grid, variant", FOUR_FIELDS, ids=FOUR_FIELD_IDS)
    def test_terminal_only_equals_history(self, spec, grid, variant, T):
        # two rows stepped in turn give the terminal states of the full history
        # bit for bit; the terminal row depends on the parity of the step count
        spec = dataclasses.replace(spec, T=T)
        fld = solve(spec, grid=grid, **variant)
        for M in (1, 300):      # 300 paths span two blocks of m_0
            z = _path_normals(8, M, variant.get("N", 0) + _sim_steps(T), spec.dim)
            for normals in (None, z):
                full = simulate_ensemble(fld, spec, M=M, seed=8, normals=normals)
                last = simulate_ensemble(fld, spec, M=M, seed=8, normals=normals,
                                         history=False)
                assert full.paths.shape == (M, _sim_steps(T) + 1, spec.dim)
                assert last.paths.shape == (M, 1, spec.dim)
                assert np.array_equal(last.terminal.view(np.int64),
                                      full.terminal.view(np.int64))
                assert last.exit_fraction == full.exit_fraction
                assert last.metadata == full.metadata

    @pytest.mark.parametrize("history, bound", [(True, 32e6), (False, 4e6)])
    def test_terminal_only_memory(self, history, bound):
        # a default-E4 ensemble over caller normals (41 x 41 grid): its history
        # is (1001, 2000, 2) floats, 32 MB; two rows are 64 kB
        cfg = ScenarioConfig.from_text("scenario = E4\ngrid.nodes = 41\n")
        spec = cfg.spec
        fld = field_for(cfg, build_grid(cfg, spec), N=50)
        M = 2000
        z = _path_normals(1, M, 50 + _sim_steps(spec.T), 2)
        tracemalloc.start()
        try:
            simulate_ensemble(fld, spec, M=M, seed=1, normals=z, history=history)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak > bound) if history else (peak < bound)

    def test_field_must_fit_the_model(self):
        # a field of another dimension, or without the metadata that sets the
        # noise, is refused before the normals or the paths are allocated
        spec2, grid2, _ = FOUR_FIELDS[3]
        one, fld2 = solve(logcosh_spec(), N=20), solve(spec2, grid=grid2, N=20)
        cases = [(one, spec2), (fld2, logcosh_spec())]
        for meta in ({}, {"kind": "common-noise"}, {"kind": "nplayer", "noise_scale": 0.1},
                     {"noise_scale": 0.1}):
            cases.append((dataclasses.replace(one, metadata=meta), logcosh_spec()))
        for fld, spec in cases:
            tracemalloc.start()
            try:
                with pytest.raises(InvalidParameter, match="needs a"):
                    simulate_ensemble(fld, spec, M=2000, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6

    def test_normals_shape_checked(self):
        spec = logcosh_spec()
        grid = SpaceGrid.symmetric(4.0, 41, 1)
        fld = solve(spec, grid=grid, N=20)
        rows = 20 + _sim_steps(spec.T)
        for shape in ((4, rows - 1, 1), (4, rows, 2), (5, rows, 1), (4, rows)):
            with pytest.raises(InvalidParameter):
                simulate_ensemble(fld, spec, M=4, seed=0, normals=np.zeros(shape))
        # increments only: a common-noise field reads no initial rows
        steps = np.zeros((4, rows - 20, 1))
        simulate_ensemble(solve(spec, grid=grid, eps=0.5), spec, M=4, seed=0, normals=steps)
        with pytest.raises(InvalidParameter):
            simulate_ensemble(fld, spec, M=4, seed=0, normals=steps)

    def test_initial_law_is_clipped_normal(self):
        # each player starts at nu0 + clip(z, ±6); with N = 1 a path's first
        # state is one player's draw
        nu0 = np.array([1.0, -2.0])
        spec = ModelSpec(dim=2, b=np.zeros((2, 2)), sigma=1.0, T=0.01, f=make_zero(2),
                         g=make_zero(2), nu0=nu0)
        grid = SpaceGrid.symmetric(10.0, 5, 2)
        fld = DecouplingField(grid, TimeGrid(0.0, 0.01, 1), np.zeros((2, 5, 5, 2)),
                              {"kind": "nplayer", "N": 1, "noise_scale": 0.1})
        draws = simulate_ensemble(fld, spec, M=5000, seed=0).paths[:, 0]
        assert np.allclose(draws.mean(axis=0), nu0, atol=0.05)
        assert np.all(np.abs(draws - nu0) <= 6.0)
        # a tail draw is clipped to 6 from nu0; three players average to it
        fld.metadata["N"] = 3
        far = np.full((2, 3 + _sim_steps(0.01), 2), -9.0)
        start = simulate_ensemble(fld, spec, M=2, seed=0, normals=far).paths[:, 0]
        assert np.array_equal(start, np.tile(nu0 - 6.0, (2, 1)))

    def test_noise_off_matches_shooting(self):
        spec = logcosh_spec(nu0=0.5)
        fld = solve(spec, N=400)
        ens = simulate_ensemble(fld, spec, M=1, seed=0, normals=zero_normals(fld))
        sol = shoot(spec, [0.5], [[-2.0]])[0]
        ref = np.interp(ens.tgrid.nodes, sol.grid.nodes, sol.m[:, 0])
        assert np.max(np.abs(ens.paths[0, :, 0] - ref)) < 2e-2

    def test_variance_matches_lyapunov_oracle(self):
        # f = g = 0, b = 0: P == 1, V' = -2V + s^2 with V0 = 1/N
        spec = model(make_zero(1), make_zero(1))
        N, M = 100, 4000
        fld = solve(spec, N=N)
        ens = simulate_ensemble(fld, spec, M=M, seed=5)
        s2 = spec.sigma**2 / N
        vref = math.exp(-2.0) / N + s2 * (1 - math.exp(-2.0)) / 2
        var = ens.terminal[:, 0].var()
        se = vref * math.sqrt(2.0 / M)
        assert abs(var - vref) < 4 * se
        assert abs(ens.terminal[:, 0].mean()) < 4 * math.sqrt(vref / M)

    def test_exit_counting(self):
        # terminal mass sits near ±1.915, so a domain ending at 2 gets exits
        spec = logcosh_spec()
        small = SpaceGrid.symmetric(2.0, 101, 1)
        fld = solve(spec, grid=small, N=50)
        ens = simulate_ensemble(fld, spec, M=200, seed=3)
        assert ens.exit_fraction > 0.01
        assert ens.metadata["domain_too_small"]
        assert np.all(np.abs(ens.paths) <= 2.0)

    def test_initial_exit_counted(self):
        fld = solve(logcosh_spec(), N=50)
        ens = simulate_ensemble(fld, logcosh_spec(nu0=4.5), M=4, seed=0,
                                normals=zero_normals(fld, M=4))
        assert ens.exit_fraction == 1.0
        assert np.all(ens.paths[:, 0, 0] == 4.0)  # clamped to the boundary

    def test_clamp_per_axis_on_asymmetric_domain(self):
        # a zero field on [-1, 2] x [-3, 0.5] with unequal node counts: paths are
        # clamped random walks, each coordinate to its own axis's bounds, and a
        # path has exited iff its unclamped walk left the domain (until its
        # first exit the clamp changes nothing)
        grid = SpaceGrid(((-1.0, 2.0, 13), (-3.0, 0.5, 9)))
        tg = TimeGrid(0.0, 1.0, 8)
        fld = DecouplingField(grid, tg, np.zeros((9, 13, 9, 2)),
                              {"kind": "common-noise", "eps": 1.2, "noise_scale": 1.2,
                               "diffusion": 0.72})
        spec = model(make_zero(2), make_zero(2), dim=2)
        spec = dataclasses.replace(spec, nu0=np.array([0.5, -1.25]))
        M, steps = 300, _sim_steps(1.0)
        z = np.random.default_rng(41).normal(size=(M, steps, 2))
        ens = simulate_ensemble(fld, spec, M=M, seed=0, normals=z)
        lows, highs = np.array([-1.0, -3.0]), np.array([2.0, 0.5])
        inc = z * np.sqrt(1.0 / steps) * 1.2
        m = walk = spec.nu0 + np.zeros((M, 2))
        ref, exited = [m], np.zeros(M, bool)
        for k in range(steps):
            m, walk = np.clip(m + inc[:, k], lows, highs), walk + inc[:, k]
            ref.append(m)
            exited |= np.any((walk < lows) | (walk > highs), axis=1)
        assert np.array_equal(ens.paths, np.stack(ref, axis=1))
        for ax in range(2):     # each coordinate reaches both of its own bounds
            assert ens.paths[..., ax].min() == lows[ax] and ens.paths[..., ax].max() == highs[ax]
        assert 0 < exited.sum() < M
        assert ens.exit_fraction == exited.mean()

    def test_m_needs_paths(self):
        fld = solve(logcosh_spec(), N=50)
        with pytest.raises(InvalidParameter):
            simulate_ensemble(fld, logcosh_spec(), M=0, seed=0)


def path_costs(fld, ens, spec):
    """Per-path cost of the mean control problem along an ensemble's paths.

    The control eta = u(t, m) is re-evaluated from the field that drove the
    paths; the 1/N reminder corrections enter for the N-player variant only.
    """
    m = ens.paths
    eta = np.stack([fld.evaluate_batch(t, m[:, k]) for k, t in enumerate(ens.tgrid.nodes)],
                   axis=1)
    nplayer = ens.metadata.get("kind", "nplayer") == "nplayer"
    N = ens.metadata.get("N")
    run = 0.5 * np.sum(eta**2, axis=-1) + 0.5 * np.sum(m**2, axis=-1)
    run = run + spec.f.value(m)
    if nplayer:
        run = run + reminder(spec.f, m) / N
    mT = m[:, -1]
    costs = np.trapezoid(run, ens.tgrid.nodes, axis=-1)
    costs += 0.5 * np.sum(mT**2, axis=-1) + spec.g.value(mT)
    if nplayer:
        costs += reminder(spec.g, mT) / N
    return costs


class TestCost:
    def test_zero_everything(self):
        spec = model(make_zero(1), make_zero(1))
        fld = solve(spec, N=10)
        ens = simulate_ensemble(fld, spec, M=2, seed=0, normals=zero_normals(fld, M=2))
        costs = path_costs(fld, ens, spec)
        assert np.allclose(costs, 0.0, atol=1e-12)

    def test_optimal_beats_zero_control(self):
        spec = logcosh_spec()
        N, M = 100, 400
        fld = solve(spec, N=N)
        zero = DecouplingField(grid=fld.grid, tgrid=fld.tgrid, values=np.zeros_like(fld.values),
                               metadata=fld.metadata)
        opt = simulate_ensemble(fld, spec, M=M, seed=21)
        null = simulate_ensemble(zero, spec, M=M, seed=21)
        c_opt = path_costs(fld, opt, spec)
        c_null = path_costs(zero, null, spec)
        diff = c_null - c_opt           # paired: same increments per path
        margin = diff.mean() / (diff.std(ddof=1) / math.sqrt(M))
        assert margin > 3.0

    def test_large_N_cost_approaches_limit_value(self):
        from mfglab.control import value_function
        spec = logcosh_spec(nu0=0.5)
        fld = solve(spec, N=4000)
        ens = simulate_ensemble(fld, spec, M=1, seed=0, normals=zero_normals(fld))
        cost = path_costs(fld, ens, spec)[0]
        v = value_function(spec, [0.5], cross_check=False)
        assert abs(cost - v) < 5e-2


class TestExport:
    def test_binary_roundtrip(self, tmp_path):
        fld = solve(logcosh_spec(), N=50)
        path = str(tmp_path / "field.bin")
        save_field_binary(fld, path)
        assert open(path, "rb").read(5) == b"MFGF\x02"
        back = load_field_binary(path)
        assert np.array_equal(back.values, full_values(fld))
        assert back.grid.axes == fld.grid.axes
        assert back.tgrid == fld.tgrid
        assert back.metadata["kind"] == "nplayer"
        assert back.metadata["N"] == 50
        assert back.metadata["noise_scale"] == fld.metadata["noise_scale"]
        assert back.metadata["diffusion"] == fld.metadata["diffusion"]

    @pytest.mark.parametrize("kw", [{"N": 50}, {"eps": 0.25}])
    def test_loaded_v2_field_drives_noisy_ensemble(self, tmp_path, kw):
        spec = logcosh_spec()
        fld = solve(spec, **kw)
        path = str(tmp_path / "field.bin")
        save_field_binary(fld, path)
        back = simulate_ensemble(load_field_binary(path), spec, M=6, seed=4)
        assert np.array_equal(back.paths, simulate_ensemble(fld, spec, M=6, seed=4).paths)

    def test_loaded_field_refuses_noisy_ensemble(self, tmp_path, capsys):
        # a version 1 file does not store the noise scale, so no field is
        # loaded from one: it would drive an ensemble without its noise
        fld = solve(logcosh_spec(), N=50)
        path = tmp_path / "field.bin"
        save_field_binary(fld, str(path))
        path.write_bytes(as_v1(path.read_bytes(), dim=1))
        with pytest.raises(InvalidInput, match="version 1"):
            load_field_binary(str(path))
        assert cli_main(["field", "export", str(path), "--out", str(tmp_path / "v1.csv")]) == 1
        assert "version 1" in capsys.readouterr().err
        assert not (tmp_path / "v1.csv").exists()

    def test_binary_rejects_long_file_and_bad_noise(self, tmp_path):
        fld = solve(logcosh_spec(), N=50)
        path = tmp_path / "field.bin"
        save_field_binary(fld, str(path))
        data, at = path.read_bytes(), noise_offset(1)
        for bad in (data + b"\0", as_v1(data, dim=1),
                    data[:at] + struct.pack("<d", -1.0) + data[at + 8:],
                    data[:at] + struct.pack("<d", np.nan) + data[at + 8:],
                    data[:at + 8] + struct.pack("<d", np.nan) + data[at + 16:]):
            path.write_bytes(bad)
            with pytest.raises(InvalidInput):
                load_field_binary(str(path))

    def test_binary_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a field")
        with pytest.raises(InvalidInput):
            load_field_binary(str(path))

    def test_binary_rejects_truncated(self, tmp_path):
        fld = solve(logcosh_spec(), N=50)
        path = tmp_path / "field.bin"
        save_field_binary(fld, str(path))
        data = path.read_bytes()
        # cut inside the header, the axis record and the payload
        for cut in (7, 20, len(data) - 8):
            path.write_bytes(data[:cut])
            with pytest.raises(InvalidInput):
                load_field_binary(str(path))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_binary_rejects_header_past_file(self, tmp_path, dim):
        # 2e9 nodes per axis: the size check comes before any read, so the
        # values the header counts are never allocated
        grid = SpaceGrid.symmetric(1.0, 3, dim)
        fld = DecouplingField(grid, TimeGrid(0.0, 1.0, 2), np.zeros((3,) + grid.shape + (dim,)),
                              {"kind": "nplayer", "N": 10, "noise_scale": 0.1, "diffusion": 0.005})
        path = tmp_path / "field.bin"
        save_field_binary(fld, str(path))
        data = bytearray(path.read_bytes())
        for k in range(dim):    # the node count closes axis record k
            struct.pack_into("<i", data, 9 + 20 * k + 16, 2_000_000_000)
        path.write_bytes(bytes(data))
        with pytest.raises(InvalidInput, match="header counts"):
            load_field_binary(str(path))

    def test_csv_slice(self, tmp_path):
        fld = solve(logcosh_spec(), N=50)
        path = str(tmp_path / "slice.csv")
        export_field_csv_slice(fld, path, time_index=0)
        rows = open(path).read().splitlines()
        assert rows[0] == "m1,u1"
        assert len(rows) == 1 + 201
