import math

import numpy as np
import pytest

from mfglab import control
from mfglab.control import (
    DEDUP_TOL,
    default_start_grid,
    descend_discrete,
    differentiability_probe,
    discrete_cost_and_gradient,
    enumerate_stationary,
    shoot,
    symmetric_minimizer_root,
    value_function,
)
from mfglab.errors import InvalidParameter, NoStationaryPoint
from mfglab.numerics import integrate_ode
from mfglab.potentials import (
    ModelSpec,
    make_delarue_terminal,
    make_logcosh_terminal,
    make_quadratic,
    make_radial_logcosh,
    make_zero,
)
from reference_costs import static_U, static_U_minimize


def model(f, g, dim=1, b=0.0, nu0=0.0, T=1.0):
    return ModelSpec(dim=dim, b=b * np.eye(dim), sigma=1.0, T=T, f=f, g=g,
                     nu0=np.full(dim, float(nu0)))


def logcosh_model(kappa=4.0, nu0=0.0):
    # the running potential -|m|^2/2 cancels the state cost, so optimal
    # controls are constant in time
    return model(make_quadratic(-1.0, 1), make_logcosh_terminal(kappa), nu0=nu0)


AHAT = symmetric_minimizer_root(4.0)

# a lean start lattice and step count keep the multi-start probes fast while
# still reaching all three basins of the kappa = 4 model
FAST = {"steps_per_unit": 250, "start_grid": np.linspace(-5.0, 5.0, 9)[:, None]}


class TestShoot:
    def test_null_system(self):
        spec = model(make_zero(1), make_zero(1))
        sol = shoot(spec, [0.0], [[0.0]])[0]
        assert sol is not None
        assert np.all(sol.m == 0.0) and np.all(sol.eta == 0.0)
        assert sol.terminal_residual == 0.0

    def test_logcosh_constant_adjoint(self):
        sol = shoot(logcosh_model(), [0.0], [[-2.0]])[0]
        assert sol is not None
        assert sol.eta0[0] == pytest.approx(-AHAT, abs=1e-8)
        assert np.max(np.abs(sol.eta - sol.eta0)) < 1e-8
        assert sol.m[-1, 0] == pytest.approx(AHAT, abs=1e-6)  # T = 1

    def test_root_value(self):
        assert AHAT == pytest.approx(1.9150, abs=1e-4)
        assert 2 * AHAT == pytest.approx(4.0 * math.tanh(AHAT), abs=1e-10)

    def test_root_matches_brentq(self):
        from scipy.optimize import brentq

        for kappa in np.linspace(2.0, 40.0, 400)[1:]:
            ref = brentq(lambda a: 2.0 * a - kappa * np.tanh(a), 1e-8, 5.0 + kappa)
            assert abs(symmetric_minimizer_root(kappa) - ref) <= 1e-12
        assert 2.0 * AHAT - 4.0 * np.tanh(AHAT) == 0.0

    @pytest.mark.parametrize("kappa", [2.0, 1.5, math.nan, math.inf])
    def test_root_needs_finite_kappa_above_two(self, kappa):
        with pytest.raises(InvalidParameter):
            symmetric_minimizer_root(kappa)

    def test_dynamics_residual(self):
        sol = shoot(logcosh_model(nu0=0.5), [0.5], [[-2.0]])[0]
        dt = sol.grid.dt
        mdot = np.diff(sol.m, axis=0) / dt
        beta_mid = -0.5 * (sol.eta[1:] + sol.eta[:-1])
        assert np.max(np.abs(mdot - beta_mid)) < 1e-6  # b = 0

    def test_delarue_closed_form(self):
        g = make_delarue_terminal(0.0, 1.0, 0.1)
        spec = model(make_zero(1), g)
        sol = shoot(spec, [0.0], [[-0.5]])[0]
        ref = math.exp(-1.0) * np.sinh(sol.grid.nodes)  # w_t int_0^t w^-2, b=0
        assert sol is not None
        assert np.max(np.abs(sol.m[:, 0] - ref)) < 1e-3
        assert sol.m[-1, 0] == pytest.approx((1 - math.exp(-2)) / 2, abs=1e-3)

    @pytest.mark.parametrize("nu0, starts", [
        ([0.0, 1.0], [0.0]),
        ([0.0, 1.0], [[0.0]]),
        ([math.nan], [[0.0]]),
        ([math.inf], [[0.0]]),
        ([[0.0], [0.5]], [[0.0], [1.0], [2.0]]),
        (np.zeros((1, 1, 1)), [[0.0]]),
        (np.zeros((0, 1)), np.zeros((0, 1))),
        ([0.0], [0.0]),
        ([0.0], np.zeros((0, 1))),
        ([0.0], [[0.0, 1.0]]),
        ([0.0], np.zeros((1, 1, 1))),
    ], ids=["both-malformed", "nu0-wrong-dim", "nu0-nan", "nu0-inf", "nu0-rows-mismatch",
            "nu0-3d", "empty-batch", "starts-1d", "starts-empty", "starts-wide", "starts-3d"])
    def test_malformed_input_fails_before_shooting(self, nu0, starts, integrations):
        with pytest.raises(InvalidParameter, match="nu0|starts"):
            shoot(logcosh_model(), nu0, starts)
        assert integrations == []

    def test_non_finite_start_fails_its_own_row(self):
        # the input checks look at the starts' shape only: a non-finite start is
        # shot, and fails alone inside the Newton
        spec, kwargs = logcosh_model(nu0=0.5), {"steps_per_unit": 250}
        alone = shoot(spec, [0.5], [[-2.0]], **kwargs)
        sols = shoot(spec, [0.5], [[math.nan], [-2.0], [math.inf]], **kwargs)
        assert sols[0] is None and sols[2] is None
        assert_same_solutions(sols[1:2], alone)


class TestEnumerate:
    def test_convex_unique(self):
        spec = model(make_zero(1), make_quadratic(1.0, 1), nu0=1.0)
        sset = enumerate_stationary(spec, [1.0])
        assert len(sset.solutions) == 1
        assert sset.multiplicity == 1
        assert sset.solutions[0].classification == "minimizer"

    def test_logcosh_three_points(self):
        sset = enumerate_stationary(logcosh_model(), [0.0])
        assert len(sset.solutions) == 3
        assert sset.multiplicity == 2
        etas = sorted(float(s.eta0[0]) for s in sset.solutions)
        assert etas == pytest.approx([-AHAT, 0.0, AHAT], abs=1e-6)
        classes = [s.classification for s in sset.solutions]
        assert classes.count("minimizer") == 2
        assert classes.count("stationary-only") == 1
        # the stationary-only point is the zero equilibrium
        zero = [s for s in sset.solutions if s.classification == "stationary-only"][0]
        assert abs(zero.eta0[0]) < 1e-6

    def test_negation_symmetry_of_set(self):
        sset = enumerate_stationary(logcosh_model(), [0.0])
        etas = sorted(float(s.eta0[0]) for s in sset.solutions)
        assert etas == pytest.approx([-e for e in etas[::-1]], abs=1e-8)

    def test_tilted_start_unique_minimizer(self):
        sset = enumerate_stationary(logcosh_model(nu0=0.5), [0.5])
        mins = [s for s in sset.solutions if s.classification == "minimizer"]
        assert len(mins) == 1
        assert mins[0].m[-1, 0] > 0
        others = [s for s in sset.solutions if s.classification != "minimizer"]
        assert all(s.cost > sset.min_cost for s in others)

    def test_sorted_by_cost(self):
        sset = enumerate_stationary(logcosh_model(), [0.0])
        costs = [s.cost for s in sset.solutions]
        assert costs == sorted(costs)

    def test_start_order_irrelevant(self):
        spec = logcosh_model()
        grid = default_start_grid(spec, [0.0])
        shuffled = grid[np.random.default_rng(4).permutation(len(grid))]
        etas = [sorted(float(s.eta0[0]) for s in enumerate_stationary(
                    spec, [0.0], start_grid=g, steps_per_unit=250).solutions)
                for g in (grid, grid[::-1], shuffled)]
        assert etas[1] == pytest.approx(etas[0], abs=1e-12)
        assert etas[2] == pytest.approx(etas[0], abs=1e-12)


def delarue_model():
    # the E3 model: Delarue terminal coupling, no running potential
    return model(make_zero(1), make_delarue_terminal(0.0, 1.0, 0.1))


def drift_model():
    # a 2-d model with drift b != 0, whose shooting right-hand side takes
    # products with b; the short horizon keeps every start converging fast
    return ModelSpec(dim=2, b=np.array([[0.3, 0.1], [-0.2, 0.25]]), sigma=1.0, T=0.25,
                     f=make_quadratic(0.5, 2), g=make_radial_logcosh(4.0, 2),
                     nu0=np.array([0.3, -0.2]))


def shoot_each(spec, nu0, starts, steps_per_unit):
    """The stationary set rebuilt from one shoot per start, deduplicated in
    lexicographic start order and sorted by cost, as enumerate_stationary does."""
    found = []
    for guess in starts[np.lexsort(starts.T[::-1])]:
        sol = shoot(spec, nu0, [guess], steps_per_unit=steps_per_unit)[0]
        if sol is not None and not any(
                np.linalg.norm(sol.eta0 - s.eta0) < DEDUP_TOL for s in found):
            found.append(sol)
    return sorted(found, key=lambda s: s.cost)


def assert_same_solutions(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.eta0, y.eta0)
        assert x.cost == y.cost
        assert np.array_equal(x.m, y.m)


@pytest.fixture
def integrations(monkeypatch):
    """(rows, diverged, steps) of each integrate_ode call that control makes; the
    state is component-major, (2d, rows), a call diverged when its last state is
    not finite, and a static model's call takes one step."""
    calls = []
    inner = control.integrate_ode

    def integrate(rhs, x0, grid, *args, **kwargs):
        out = inner(rhs, x0, grid, *args, **kwargs)
        calls.append((x0.shape[-1], not np.isfinite(out[-1]).all(), grid.steps))
        return out

    monkeypatch.setattr(control, "integrate_ode", integrate)
    return calls


class TestBatchedShooting:
    # enumerate_stationary shoots all its starts as one batched state; the
    # batch must neither mix the starts nor let one start's failure spread

    @pytest.mark.parametrize("spec, nu0", [(logcosh_model(nu0=0.5), 0.5), (delarue_model(), 0.0),
                                           pytest.param(drift_model(), (0.3, -0.2), id="drift-2d")])
    def test_batch_equals_single_starts(self, spec, nu0):
        # the 2-d case shoots every 7th start of its lattice at 100 steps per unit
        every, steps = (1, 250) if spec.dim == 1 else (7, 100)
        nu0 = np.atleast_1d(nu0)
        starts = default_start_grid(spec, nu0)[::every]
        sset = enumerate_stationary(spec, nu0, start_grid=starts, steps_per_unit=steps)
        assert_same_solutions(sset.solutions, shoot_each(spec, nu0, starts, steps))
        assert (sset.starts, sset.failed) == (len(starts), 0)

    # the residual norm of the 1e300 start overflows to inf, without a warning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec, nu0, steps", [
        pytest.param(logcosh_model(nu0=0.5), 0.5, 1, id="spec0-0.5"),
        pytest.param(delarue_model(), 0.0, 250, id="spec1-0.0")])
    def test_diverging_start_changes_nothing(self, spec, nu0, steps, integrations):
        starts = default_start_grid(spec, [nu0])
        base = enumerate_stationary(spec, [nu0], start_grid=starts, steps_per_unit=250)
        assert not any(diverged for _, diverged, _ in integrations)
        # at 1e300 a probe's FD_STEP vanishes, so the Jacobian is singular;
        # at 1e308 the RK4 update overflows in its first step
        grown = np.vstack([starts, [[1e300], [1e308]]])
        integrations.clear()
        sset = enumerate_stationary(spec, [nu0], start_grid=grown, steps_per_unit=250)
        # each start carries its d Jacobian probes
        assert integrations[0] == ((spec.dim + 1) * len(grown), True, steps)
        assert_same_solutions(sset.solutions, base.solutions)
        assert (sset.starts, sset.failed) == (base.starts + 2, base.failed + 2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec, nu0", [(logcosh_model(nu0=0.5), 0.5), (delarue_model(), 0.0)])
    def test_diverging_start_costs_no_integration(self, spec, nu0, integrations):
        # a start that overflows fails inside the batch's own integrations
        starts = default_start_grid(spec, [nu0])
        base = enumerate_stationary(spec, [nu0], start_grid=starts, steps_per_unit=250)
        calls = len(integrations)
        integrations.clear()
        sset = enumerate_stationary(spec, [nu0], start_grid=np.vstack(
            [starts, [[1e300], [1e308]]]), steps_per_unit=250)
        assert len(integrations) == calls
        assert_same_solutions(sset.solutions, base.solutions)
        assert (sset.starts, sset.failed) == (base.starts + 2, base.failed + 2)

    def test_fewer_integrations_than_starts(self, integrations):
        sset = enumerate_stationary(logcosh_model(nu0=0.5), [0.5])
        # one start per integration would take 21 integrations before any Newton step
        assert sset.starts == 21
        assert len(integrations) < sset.starts

    def test_one_integration_per_newton_round(self, integrations):
        # the candidates carry their Jacobian probes, so an evaluation costs no
        # integration for its Jacobian, and each integration carries every live
        # start's next evaluation: E6's default probe and E3's enumeration. E6's
        # static model takes one RK4 step per integration, E3's every step
        differentiability_probe(logcosh_model(nu0=0.5), [0.5], h=1e-3, steps_per_unit=1000)
        assert [steps for *_, steps in integrations] == [1] * 7
        integrations.clear()
        enumerate_stationary(delarue_model(), [0.0])
        assert [steps for *_, steps in integrations] == [1000] * 3

    def test_line_search_does_not_wait_across_starts(self, integrations):
        # each integration carries every live start's next evaluation, so a
        # batch takes as many integrations as its slowest start alone, and
        # each start's solution is the one it finds alone
        spec, nu0 = logcosh_model(nu0=0.5), [0.5]
        starts = default_start_grid(spec, nu0)
        sset = enumerate_stationary(spec, nu0, start_grid=starts, steps_per_unit=250)
        batch = len(integrations)
        alone = []
        for start in starts:
            integrations.clear()
            enumerate_stationary(spec, nu0, start_grid=[start], steps_per_unit=250)
            alone.append(len(integrations))
        assert (sset.starts, len(alone)) == (21, 21)
        assert batch == max(alone)
        assert_same_solutions(sset.solutions, shoot_each(spec, nu0, starts, 250))

    def test_convergence_on_the_last_allowed_step(self, monkeypatch):
        # this start converges on its third Newton step: a cap of 3 steps must
        # find it, a cap of 2 must not
        spec, kwargs = logcosh_model(nu0=0.5), {"steps_per_unit": 250}
        full = shoot(spec, [0.5], [[-2.0]], **kwargs)[0]
        monkeypatch.setattr(control, "NEWTON_MAX_ITER", 3)
        capped = shoot(spec, [0.5], [[-2.0]], **kwargs)[0]
        assert capped is not None
        assert_same_solutions([capped], [full])
        monkeypatch.setattr(control, "NEWTON_MAX_ITER", 2)
        assert shoot(spec, [0.5], [[-2.0]], **kwargs)[0] is None


def static_rhs(spec):
    """(-eta, -(m + grad f(m))) of a component-major state (2d, n): the shooting
    system at b = 0, written apart from control's."""
    d = spec.dim

    def rhs(t, z, out):
        np.negative(z[d:], out[:d])
        np.negative(z[:d] + spec.f.gradient(z[:d].T).T, out[d:])
        return out

    return rhs


def radial_model(nu0=0.0):
    # the E4 model: radial log-cosh terminal, the running potential cancels
    return model(make_quadratic(-1.0, 2), make_radial_logcosh(4.0, 2), dim=2, nu0=nu0)


class TestStaticShooting:
    # with f = -|m|^2/2 and b = 0 the adjoint is constant, so shooting takes one
    # RK4 step per integration and accumulates it; the trajectories must be those
    # of the full RK4 loop, bit for bit

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("steps_per_unit", [1000, 250])
    @pytest.mark.parametrize("spec, starts", [
        (logcosh_model(nu0=0.5), np.linspace(-5.0, 5.0, 9)[:, None]),
        # from nu0 = -0.0 the start eta0 = +0.0 converges at once, and the full
        # loop keeps m at -0.0: -0.0 + -0.0 is -0.0, where -0.0 + +0.0 is +0.0
        (logcosh_model(nu0=-0.0), np.linspace(-5.0, 5.0, 9)[:, None]),
        (radial_model(nu0=0.3), np.stack(np.meshgrid(*[np.linspace(-3.0, 3.0, 4)] * 2,
                                                     indexing="ij"), -1).reshape(-1, 2)),
    ], ids=["1d", "1d-signed-zero", "2d"])
    def test_trajectories_equal_full_rk4(self, spec, starts, steps_per_unit):
        base = enumerate_stationary(spec, spec.nu0, start_grid=starts,
                                    steps_per_unit=steps_per_unit)
        assert base.solutions
        for sol in base.solutions:
            ref = integrate_ode(static_rhs(spec), np.concatenate([spec.nu0, sol.eta0])[:, None],
                                sol.grid)[..., 0]
            assert np.array_equal(sol.m.view(np.int64), ref[:, :spec.dim].view(np.int64))
            assert np.array_equal(sol.eta.view(np.int64), ref[:, spec.dim:].view(np.int64))
        # at 1e300 a probe's FD_STEP vanishes and at 1e308 the first step overflows:
        # both starts fail and change nothing else
        grown = np.vstack([starts, np.full((1, spec.dim), 1e300), np.full((1, spec.dim), 1e308)])
        sset = enumerate_stationary(spec, spec.nu0, start_grid=grown, steps_per_unit=steps_per_unit)
        assert_same_solutions(sset.solutions, base.solutions)
        assert (sset.starts, sset.failed) == (base.starts + 2, base.failed + 2)

    @pytest.mark.filterwarnings("error")
    def test_overflow_in_the_accumulation_is_silent(self):
        # over T = 10 the increments of a start at 2e307 are finite but sum past
        # the largest float, as the full RK4 loop's states do: the start fails quietly
        spec = model(make_quadratic(-1.0, 1), make_logcosh_terminal(4.0), T=10.0)
        starts = np.linspace(-5.0, 5.0, 9)[:, None]
        base = enumerate_stationary(spec, [0.0], start_grid=starts, steps_per_unit=2)
        sset = enumerate_stationary(spec, [0.0], start_grid=np.vstack([starts, [[2e307]]]),
                                    steps_per_unit=2)
        assert_same_solutions(sset.solutions, base.solutions)
        assert sset.failed == base.failed + 1

    @pytest.mark.parametrize("spec, static", [
        (logcosh_model(nu0=0.5), True), (radial_model(nu0=0.3), True),
        (delarue_model(), False), (drift_model(), False),
    ], ids=["static-1d", "static-2d", "rk4-1d", "rk4-2d"])
    def test_solutions_own_their_paths(self, spec, static):
        # each converged start's path is copied out of its Newton round, so no
        # solution keeps a round's arrays alive; a static model's eta is eta0
        starts = default_start_grid(spec, spec.nu0)[::1 if spec.dim == 1 else 7]
        sset = enumerate_stationary(spec, spec.nu0, start_grid=starts, steps_per_unit=100)
        assert sset.solutions
        for sol in sset.solutions:
            assert sol.m.base is None and sol.eta.base is None
            assert sol.m.shape == sol.eta.shape == (sol.grid.steps + 1, spec.dim)
            if static:
                assert (sol.eta.view(np.int64) == sol.eta0.view(np.int64)).all()

    @pytest.mark.parametrize("spec, steps", [
        (logcosh_model(nu0=0.5), 1),
        (radial_model(nu0=0.3), 1),
        (drift_model(), 25),
        (model(make_quadratic(-1.0, 1), make_logcosh_terminal(4.0), b=0.5, nu0=0.5), 100),
        (model(make_quadratic(-(1.0 + 2.0**-52), 1), make_logcosh_terminal(4.0), nu0=0.5), 100),
    ], ids=["cancel-1d", "cancel-2d", "drift-2d", "cancel-drift", "near-cancel"])
    def test_one_step_only_under_exact_cancellation(self, spec, steps, integrations):
        # a drift, or an f one ulp away from -|m|^2/2, keeps the full RK4 loop
        enumerate_stationary(spec, spec.nu0, start_grid=np.ones((1, spec.dim)), steps_per_unit=100)
        assert integrations
        assert {n for *_, n in integrations} == {steps}


class TestSolveEach:
    @pytest.mark.parametrize("d", [1, 2])
    def test_singular_systems_read_nan(self, d):
        # zero, rank-1 and regular systems in one stack, against one
        # np.linalg.solve per system (NaN where it refuses the system)
        rng = np.random.default_rng(7)
        rank1 = np.array([[1.0, 2.0], [2.0, 4.0]]) if d == 2 else np.zeros((1, 1))
        singular = [np.zeros((d, d)), rank1]
        jac = np.stack(singular + list(rng.normal(size=(5, d, d))) + singular[::-1])
        rhs = rng.normal(size=(len(jac), d))
        got = control._solve_each(jac, rhs)
        for j, r, x in zip(jac, rhs, got):
            try:
                want = np.linalg.solve(j, r)
            except np.linalg.LinAlgError:
                want = np.full(d, np.nan)
            assert np.array_equal(x, want, equal_nan=True)
        assert np.isnan(got[[0, 1, -2, -1]]).all() and np.isfinite(got[2:-2]).all()


class TestValueFunction:
    def test_pure_lq(self):
        spec = model(make_zero(1), make_zero(1), nu0=0.7)
        # P == 1 is the stationary Riccati point, so v = |nu0|^2 / 2
        assert value_function(spec, [0.7], cross_check=False) == pytest.approx(
            0.5 * 0.49, abs=1e-6)

    def test_logcosh_value_at_zero(self):
        v = value_function(logcosh_model(), [0.0], cross_check=False)
        expect = AHAT**2 - 4.0 * math.log(math.cosh(AHAT))
        assert v == pytest.approx(expect, abs=1e-6)

    def test_even_in_nu0(self):
        spec = logcosh_model()
        for x in (0.3, 0.9):
            vp = value_function(spec, [x], cross_check=False, **FAST)
            vm = value_function(spec, [-x], cross_check=False, **FAST)
            assert vp == pytest.approx(vm, abs=1e-8)

    @pytest.mark.parametrize("kwargs", [FAST, {"steps_per_unit": 250}],
                             ids=["fast", "default-grid"])
    @pytest.mark.parametrize("spec", [logcosh_model(nu0=0.5), delarue_model()],
                             ids=["logcosh", "delarue"])
    def test_batch_equals_single_points(self, spec, kwargs):
        # the points are shot as one Newton, but never mix: each value is the
        # one its point gets alone, bit for bit
        points = np.array([[-1.0], [0.0], [0.3], [1.0]])
        v = value_function(spec, points, cross_check=False, **kwargs)
        assert v.shape == (4,)
        single = [value_function(spec, p, cross_check=False, **kwargs) for p in points]
        assert all(isinstance(x, float) for x in single)
        assert v.tolist() == single

    def test_empty_batch_fails_before_shooting(self, integrations):
        with pytest.raises(InvalidParameter, match="nu0"):
            value_function(logcosh_model(), np.zeros((0, 1)))
        assert integrations == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan-horizon", "inf-horizon"])
    def test_non_finite_nu0_fails_before_shooting(self, bad, integrations):
        with pytest.raises(InvalidParameter, match="nu0"):
            value_function(logcosh_model(), [[0.5], [bad]])
        with pytest.raises(InvalidParameter, match="nu0"):
            enumerate_stationary(logcosh_model(), [bad])
        assert integrations == []

    def test_cross_check_agrees(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value_function(logcosh_model(nu0=0.5), [0.5])


class TestDiscreteDescent:
    def test_gradient_matches_fd(self):
        spec = logcosh_model(nu0=0.4)
        gen = np.random.default_rng(0)
        beta = gen.normal(size=(40, 1))
        _, grad = discrete_cost_and_gradient(spec, [0.4], beta)
        h = 1e-6
        for idx in [(0, 0), (17, 0), (39, 0)]:
            bp = beta.copy(); bp[idx] += h
            bm = beta.copy(); bm[idx] -= h
            cp, _ = discrete_cost_and_gradient(spec, [0.4], bp)
            cm, _ = discrete_cost_and_gradient(spec, [0.4], bm)
            assert grad[idx] == pytest.approx((cp - cm) / (2 * h), abs=1e-8)

    def test_descent_from_shooting_control_has_tiny_gradient(self):
        # the discrete functional's own optimum sits within a short polish of
        # the sampled continuous optimum
        spec = logcosh_model(nu0=0.5)
        sol = shoot(spec, [0.5], [[-2.0]], steps_per_unit=200)[0]
        beta0 = -sol.eta[:-1]
        _, cost, grad = descend_discrete(spec, [0.5], beta0)
        assert float(np.linalg.norm(grad)) < 1e-6
        assert cost == pytest.approx(sol.cost, abs=1e-3)


class TestDifferentiability:
    def test_quadratic_differentiable(self):
        spec = model(make_zero(1), make_quadratic(1.0, 1), nu0=0.4)
        for x in (-0.5, 0.0, 0.8):
            assert differentiability_probe(spec, [x], **FAST)["verdict"] == "differentiable"

    def test_logcosh_kink_at_zero(self):
        probe = differentiability_probe(logcosh_model(), [0.0], **FAST)
        assert probe["verdict"] == "kink"
        # two distinct one-sided slopes near ±a-hat
        assert probe["right"][0] == pytest.approx(-AHAT, abs=0.05)
        assert probe["left"][0] == pytest.approx(AHAT, abs=0.05)

    def test_logcosh_smooth_off_zero(self):
        probe = differentiability_probe(logcosh_model(nu0=0.5), [0.5], **FAST)
        assert probe["verdict"] == "differentiable"

    def test_probe_equals_separate_calls_2d(self):
        # the 7 points of a 2-d probe, shot as one Newton, give the difference
        # quotients of separate value_function calls, bit for bit
        spec = model(make_quadratic(-1.0, 2), make_radial_logcosh(4.0, 2), dim=2, T=0.25)
        axis = np.linspace(-3.0, 3.0, 3)
        starts = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
        kwargs = {"steps_per_unit": 100, "cross_check": False, "start_grid": starts}
        x, h = np.array([0.3, -0.2]), 1e-3
        probe = differentiability_probe(spec, x, h=h, **kwargs)
        v0 = value_function(spec, x, **kwargs)
        for k, e in enumerate(h * np.eye(2)):
            v_p, v_m = (value_function(spec, p, **kwargs) for p in (x + e, x - e))
            assert probe["right"][k] == (v_p - v0) / h
            assert probe["left"][k] == (v0 - v_m) / h
            assert probe["central"][k] == (v_p - v_m) / (2.0 * h)

    @pytest.mark.parametrize("x", [0.5, 0.0])
    def test_probe_shoots_as_one_newton(self, x, integrations):
        # the probe's Newton takes as many integrations as its slowest point
        # alone, not the sum over its 4 points
        h = 1e-3
        differentiability_probe(logcosh_model(nu0=x), [x], h=h, **FAST)
        probe_calls = len(integrations)
        alone = []
        for p in (x, x + h, x - h, x + 2 * h):
            integrations.clear()
            value_function(logcosh_model(nu0=x), [p], cross_check=False, **FAST)
            alone.append(len(integrations))
        assert probe_calls <= max(alone)

    def test_central_slope_is_the_direct_difference(self):
        # the probe's central slope is the gradient estimate of E6: it must be
        # the central difference of two direct value_function calls, bit for bit
        spec, x, h = logcosh_model(nu0=0.5), 0.5, 1e-3
        probe = differentiability_probe(spec, [x], h=h, **FAST)
        v_p = value_function(spec, [x + h], cross_check=False, **FAST)
        v_m = value_function(spec, [x - h], cross_check=False, **FAST)
        assert probe["central"].shape == (1,)
        assert probe["central"][0] == (v_p - v_m) / (2.0 * h)


class TestStaticReduction:
    def test_pure_quadratic(self):
        spec = model(make_quadratic(-1.0, 1), make_zero(1))
        assert static_U(spec, 0.0, [0.0], [1.5]) == pytest.approx(1.5**2)
        mins, best, on_sphere = static_U_minimize(spec, 0.0, [0.0])
        assert best == pytest.approx(0.0, abs=1e-10)
        assert all(abs(a[0]) < 1e-5 for a in mins)

    def test_logcosh_two_minimizers(self):
        spec = logcosh_model()
        mins, best, on_sphere = static_U_minimize(spec, 0.0, [0.0])
        vals = sorted(float(a[0]) for a in mins)
        assert vals == pytest.approx([-AHAT, AHAT], abs=1e-6)
        assert best == pytest.approx(AHAT**2 - 4 * math.log(math.cosh(AHAT)), abs=1e-9)

    def test_radial_sphere_of_minimizers(self):
        spec = model(make_quadratic(-1.0, 2), make_radial_logcosh(4.0, 2), dim=2)
        mins, best, on_sphere = static_U_minimize(spec, 0.0, np.zeros(2))
        assert on_sphere
        assert len(mins) == 1       # the radii at -s and +s are one sphere
        for a in mins:
            assert np.linalg.norm(a) == pytest.approx(AHAT, abs=1e-6)
            assert static_U(spec, 0.0, np.zeros(2), a) == pytest.approx(best, abs=1e-9)

    def test_invalid_reduction(self):
        with pytest.raises(ValueError):
            static_U(model(make_zero(1), make_zero(1), b=0.5), 0.0, [0.0], [0.0])
        with pytest.raises(ValueError):
            # f = 0 leaves the |m|^2/2 running cost in place
            static_U(model(make_zero(1), make_logcosh_terminal(4.0)), 0.0, [0.0], [0.0])

    def test_matches_shooting_minimum(self):
        for nu0 in (0.0, 0.5):
            spec = logcosh_model(nu0=nu0)
            sset = enumerate_stationary(spec, [nu0])
            _, best, _ = static_U_minimize(spec, 0.0, [nu0])
            assert abs(best - sset.min_cost) < 1e-6

    @pytest.mark.parametrize("dim, nu0", [(1, 0.0), (1, 0.5), (2, 0.0), (2, 0.3)],
                             ids=["logcosh-1d", "logcosh-1d-tilted", "radial-2d",
                                  "radial-2d-tilted"])
    def test_polish_matches_scipy(self, dim, nu0):
        # scipy's bounded Brent search on the same scan brackets is the oracle.
        # Minimum values agree to 1e-10; minimizers to 1e-7, because U is flat
        # to rounding within about 1e-8 of a minimizer, where comparing values
        # cannot tell points apart (scipy's own is 3e-10 off the exact root)
        from scipy.optimize import minimize_scalar

        if dim == 1:
            spec = logcosh_model(nu0=nu0)
        else:
            spec = model(make_quadratic(-1.0, 2), make_radial_logcosh(4.0, 2), dim=2, nu0=nu0)
        x0 = spec.nu0
        mins, best, on_sphere = static_U_minimize(spec, 0.0, x0)

        direction = np.eye(dim)[0] if nu0 == 0.0 else x0 / np.linalg.norm(x0)
        radius = (np.linalg.norm(x0) + spec.g.grad_sup + 2.0) / spec.T
        ss = np.linspace(-radius, radius, 801)
        vals = static_U(spec, 0.0, x0, ss[:, None] * direction)
        oracle = [minimize_scalar(lambda s: float(static_U(spec, 0.0, x0, s * direction)),
                                  bounds=(ss[i - 1], ss[i + 1]), method="bounded",
                                  options={"xatol": 1e-12})
                  for i in range(1, 800) if vals[i] <= min(vals[i - 1], vals[i + 1])]
        oracle_best = min(res.fun for res in oracle)
        assert abs(best - oracle_best) <= 1e-10
        kept = [res.x for res in oracle if res.fun - oracle_best <= 1e-9]
        if not on_sphere:
            assert len(mins) == (1 if nu0 else 2)
        for a in mins:
            gaps = [np.linalg.norm(a - (abs(s) if on_sphere else s) * direction) for s in kept]
            assert min(gaps) <= 1e-7
