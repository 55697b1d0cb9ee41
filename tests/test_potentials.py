import math

import numpy as np
import pytest

from mfglab.errors import InvalidParameter
from mfglab.potentials import (
    ModelSpec,
    corrected_gradient,
    from_name,
    make_delarue_terminal,
    make_logcosh_terminal,
    make_quadratic,
    make_radial_logcosh,
    make_zero,
)
from reference_costs import corrected_cost, reminder


def fd_gradient(p, m, h=1e-4):
    g = np.empty(p.dim)
    for k in range(p.dim):
        e = np.zeros(p.dim)
        e[k] = h
        g[k] = (p.value(m + e) - p.value(m - e)) / (2 * h)
    return g


def fd_hessian(p, m, h=1e-4):
    H = np.empty((p.dim, p.dim))
    for k in range(p.dim):
        e = np.zeros(p.dim)
        e[k] = h
        H[:, k] = (p.gradient(m + e) - p.gradient(m - e)) / (2 * h)
    return H


def probe_points(p, n, seed=0, avoid=None, margin=0.0):
    gen = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        m = gen.uniform(-p.probe_radius / 2, p.probe_radius / 2, size=p.dim)
        if avoid and any(abs(abs(m[0]) - a) < margin for a in avoid):
            continue
        pts.append(m)
    return pts


CATALOGUE = [
    make_zero(1),
    make_zero(2),
    make_quadratic(1.0, 1),
    make_quadratic(-1.0, 2),
    make_quadratic(0.5, 1, kappa=[0.7]),
    make_logcosh_terminal(4.0),
    make_radial_logcosh(4.0, 2),
    # widened mollification so the quartic bump is resolvable by the FD step
    make_delarue_terminal(0.0, 1.0, 0.1, rho=0.05),
]


class TestDerivativeChecks:
    @pytest.mark.parametrize("p", CATALOGUE, ids=lambda p: p.name)
    def test_gradient_matches_finite_differences(self, p):
        avoid = None
        if p.name.startswith("delarue"):
            avoid, margin = [p.r_delta], 3 * p.rho
        else:
            margin = 0.0
        for m in probe_points(p, 100, avoid=avoid, margin=margin):
            exact = p.gradient(m)
            fd = fd_gradient(p, m)
            scale = max(1.0, float(np.linalg.norm(exact)))
            assert np.linalg.norm(fd - exact) / scale < 1e-5

    @pytest.mark.parametrize("p", CATALOGUE, ids=lambda p: p.name)
    def test_hessian_matches_finite_differences(self, p):
        avoid = None
        if p.name.startswith("delarue"):
            avoid, margin = [p.r_delta], 3 * p.rho
        else:
            margin = 0.0
        for m in probe_points(p, 100, seed=1, avoid=avoid, margin=margin):
            exact = p.hessian(m)
            fd = fd_hessian(p, m)
            scale = max(1.0, float(np.linalg.norm(exact)))
            assert np.linalg.norm(fd - exact) / scale < 1e-5

    @pytest.mark.parametrize("p", CATALOGUE, ids=lambda p: p.name)
    def test_declared_bounds_hold(self, p):
        gen = np.random.default_rng(7)
        pts = gen.uniform(-p.probe_radius, p.probe_radius, size=(10**4, p.dim))
        assert np.all(np.linalg.norm(p.gradient(pts), axis=1) <= p.grad_sup + 1e-9)


class TestReminder:
    def test_zero_potential(self):
        assert reminder(make_zero(1), [0.7]) == 0.0

    def test_quadratic(self):
        c = 0.8
        p = make_quadratic(c, 1)
        for m in (-1.3, 0.0, 2.1):
            assert reminder(p, [m]) == pytest.approx(0.5 * c**2 * m**2 + 0.5 * c * m**2)

    def test_linear(self):
        kap = 1.7
        p = make_quadratic(0.0, 1, kappa=[kap])
        for m in (-2.0, 0.5):
            assert reminder(p, [m]) == pytest.approx(0.5 * kap**2)

    def test_even_potential_gives_even_reminder(self):
        p = make_logcosh_terminal(4.0)
        for m in (0.3, 1.1, 2.7):
            assert reminder(p, [m]) == pytest.approx(reminder(p, [-m]))

    def test_cancelling_quadratic_gives_zero_corrected_cost(self):
        p = make_quadratic(-1.0, 1)
        for m in (-2.0, 0.0, 1.3):
            assert corrected_cost(p, 10, [m]) + 0.0 == pytest.approx(0.0)
            # f = -|m|^2/2 cancels |m|^2/2, and with grad f = -m its reminder
            # |m|^2/2 - |m|^2 + |m|^2/2 vanishes
            assert reminder(p, [m]) == pytest.approx(0.0)


class TestCorrectedGradient:
    def test_zero_running_identity(self):
        p = make_zero(1)
        for N in (1, 10, 1000):
            assert corrected_gradient(p, N, [1.7])[0] == pytest.approx(1.7)

    def test_quadratic_factorization(self):
        c, N, m = 1.0, 10, 0.9
        p = make_quadratic(c, 1)
        expect = (1 + c / N) * (1 + c) * m
        assert corrected_gradient(p, N, [m])[0] == pytest.approx(expect)

    def test_large_N_limit(self):
        p = make_logcosh_terminal(4.0)
        m = np.array([0.6])
        big = corrected_gradient(p, 10**9, m)
        assert np.allclose(big, m + p.gradient(m), atol=1e-7)

    def test_odd_for_even_potential(self):
        p = make_logcosh_terminal(4.0)
        gen = np.random.default_rng(3)
        for m in gen.uniform(-3, 3, size=(50, 1)):
            lhs = corrected_gradient(p, 25, m)
            rhs = -corrected_gradient(p, 25, -m)
            assert np.allclose(lhs, rhs, atol=1e-13)

    def test_matches_fd_of_corrected_cost(self):
        p = make_logcosh_terminal(4.0)
        N, h = 7, 1e-5
        for m in (-1.2, 0.4, 2.0):
            fd = (corrected_cost(p, N, [m + h]) - corrected_cost(p, N, [m - h])) / (2 * h)
            assert corrected_gradient(p, N, [m])[0] == pytest.approx(fd, rel=1e-5)

    def test_invalid_N(self):
        with pytest.raises(InvalidParameter):
            corrected_gradient(make_zero(1), 0, [0.0])


class TestLogCosh:
    def test_origin_derivatives(self):
        p = make_logcosh_terminal(4.0)
        assert p.gradient([0.0])[0] == 0.0
        assert p.hessian([0.0])[0, 0] == -4.0

    def test_threshold(self):
        # largest C with kappa sech^2(m) > 2 on [0, C): kappa sech^2(C) = 2
        C = math.acosh(math.sqrt(4.0 / 2.0))
        p = make_logcosh_terminal(4.0)
        assert p.hessian([0.99 * C])[0, 0] + 2 < 0
        assert p.hessian([1.01 * C])[0, 0] + 2 > 0

    def test_kappa_validation(self):
        with pytest.raises(InvalidParameter):
            make_logcosh_terminal(2.0)

    def test_even(self):
        p = make_logcosh_terminal(4.0)
        assert p.even
        for m in np.linspace(0.1, 5, 20):
            assert p.value([m]) == pytest.approx(p.value([-m]))

    def test_overflow_safe(self):
        p = make_logcosh_terminal(4.0)
        assert np.isfinite(p.value([500.0]))
        assert p.gradient([500.0])[0] == pytest.approx(-4.0)


class TestDelarue:
    def setup_method(self):
        self.p = make_delarue_terminal(0.0, 1.0, 0.1)
        self.r = self.p.r_delta

    def test_r_delta(self):
        assert self.r == pytest.approx((1 - math.exp(-1.8)) / 2, abs=1e-6)

    def test_gradient_examples(self):
        assert self.p.gradient([0.0])[0] == 0.0
        assert self.p.gradient([self.r / 2])[0] == pytest.approx(-0.5, abs=1e-9)
        # the mollification leaves the gradient exact beyond r + rho
        assert self.p.gradient([2 * self.r])[0] == -1.0

    def test_gradient_odd_and_bounded(self):
        for m in np.linspace(0.01, 2, 100):
            gp = self.p.gradient([m])[0]
            gm = self.p.gradient([-m])[0]
            assert gp == pytest.approx(-gm, abs=1e-12)
            assert abs(gp) <= 1.0 + 1e-12

    def test_hessian_bounded(self):
        for m in np.linspace(-2, 2, 401):
            assert abs(self.p.hessian([m])[0, 0]) <= 1.0 / self.r + 1e-9

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.nan])
    def test_mollification_width_must_be_positive(self, rho):
        with pytest.raises(InvalidParameter, match="positive"):
            make_delarue_terminal(0.0, 1.0, 0.1, rho=rho)

    def test_even_value(self):
        for m in (0.2, self.r, 1.5):
            assert self.p.value([m]) == pytest.approx(self.p.value([-m]), abs=1e-12)


class TestRadial:
    def setup_method(self):
        self.p = make_radial_logcosh(4.0, 2)
        self.line = make_logcosh_terminal(4.0)

    def test_gradient_at_origin(self):
        assert np.all(self.p.gradient(np.zeros(2)) == 0.0)

    def test_rotation_equivariance(self):
        theta = 0.77
        R = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        gen = np.random.default_rng(11)
        for m in gen.uniform(-3, 3, size=(30, 2)):
            assert np.allclose(self.p.gradient(R @ m), R @ self.p.gradient(m),
                               atol=1e-12)

    def test_ray_restriction(self):
        for r in (0.3, 1.0, 2.4):
            assert self.p.value(np.array([r, 0.0])) == pytest.approx(
                self.line.value([r]))

    def test_hessian_origin_limit(self):
        H0 = self.p.hessian(np.zeros(2))
        assert np.allclose(H0, -4.0 * np.eye(2))
        Hnear = self.p.hessian(np.array([1e-8, 1e-8]))
        assert np.allclose(Hnear, H0, atol=1e-6)


def zero_model(sigma=1.0, T=1.0):
    return ModelSpec(dim=1, b=np.zeros((1, 1)), sigma=sigma, T=T, f=make_zero(1), g=make_zero(1),
                     nu0=np.zeros(1))


class TestCatalogueAndModelSpec:
    def test_from_name(self):
        assert from_name("zero", 1).name == "zero"
        assert from_name("quadratic", 2, c=1.0).dim == 2
        assert from_name("logcosh", 1, kappa=4.0).even
        assert from_name("delarue", 1, delta=0.1, T=1.0, b=0.0).dim == 1
        assert from_name("radial_logcosh", 2, kappa=4.0).dim == 2
        with pytest.raises(InvalidParameter):
            from_name("nope", 1)

    def test_model_spec_validation(self):
        f, g = make_zero(1), make_zero(1)
        with pytest.raises(InvalidParameter):
            ModelSpec(dim=1, b=np.zeros((2, 2)), sigma=1.0, T=1.0, f=f, g=g,
                      nu0=np.zeros(1))
        with pytest.raises(InvalidParameter):
            ModelSpec(dim=1, b=np.zeros((1, 1)), sigma=-1.0, T=1.0, f=f, g=g,
                      nu0=np.zeros(1))
        with pytest.raises(InvalidParameter):
            ModelSpec(dim=1, b=np.zeros((1, 1)), sigma=1.0, T=0.0, f=f, g=g,
                      nu0=np.zeros(1))
        with pytest.raises(InvalidParameter):
            ModelSpec(dim=2, b=np.zeros((2, 2)), sigma=1.0, T=1.0,
                      f=make_zero(1), g=make_zero(2), nu0=np.zeros(2))

    @pytest.mark.parametrize("build", [
        lambda: make_logcosh_terminal(math.nan),
        lambda: make_radial_logcosh(math.nan, 2),
        lambda: make_logcosh_terminal(math.inf),
        lambda: make_radial_logcosh(math.inf, 2),
        lambda: zero_model(sigma=math.nan),
        lambda: zero_model(sigma=math.inf),
        lambda: zero_model(T=math.nan),
    ], ids=["kappa-nan", "radial-kappa-nan", "kappa-inf", "radial-kappa-inf",
            "sigma-nan", "sigma-inf", "T-nan"])
    def test_non_finite_parameters_rejected(self, build):
        # NaN fails every comparison, so each guard must be written to reject it
        with pytest.raises(InvalidParameter):
            build()

    def test_even_data_and_cancellation_flags(self):
        spec = ModelSpec(dim=1, b=np.zeros((1, 1)), sigma=1.0, T=1.0,
                         f=make_quadratic(-1.0, 1), g=make_logcosh_terminal(4.0),
                         nu0=np.zeros(1))
        assert spec.even_data
        assert spec.running_state_cost_vanishes
        spec2 = ModelSpec(dim=1, b=np.zeros((1, 1)), sigma=1.0, T=1.0,
                          f=make_zero(1), g=make_zero(1), nu0=np.zeros(1))
        assert not spec2.running_state_cost_vanishes

    @pytest.mark.parametrize("c", [-1.0 + 1e-12, -(1.0 + 2.0**-52)])
    def test_cancellation_is_exact(self, c):
        # an f within rounding of -|m|^2/2 leaves m + grad f(m) nonzero, so it
        # does not cancel the running state cost
        for dim in (1, 2):
            spec = ModelSpec(dim=dim, b=np.zeros((dim, dim)), sigma=1.0, T=1.0,
                             f=make_quadratic(c, dim), g=make_zero(dim), nu0=np.zeros(dim))
            assert not spec.running_state_cost_vanishes
        tilted = ModelSpec(dim=1, b=np.zeros((1, 1)), sigma=1.0, T=1.0,
                           f=make_quadratic(-1.0, 1, kappa=[1e-300]), g=make_zero(1),
                           nu0=np.zeros(1))
        assert not tilted.running_state_cost_vanishes
