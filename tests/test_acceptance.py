"""Acceptance criteria: one timed, self-contained check per numbered item.

Each test prints a single PASS/FAIL line with the measured quantities so the
verbose run reads as a scorecard.
"""

import math
import time

import numpy as np
import pytest

from mfglab.control import (
    enumerate_stationary,
    symmetric_minimizer_root,
    value_function,
)
from mfglab.experiments import ScenarioConfig, run_scenario
from mfglab.field import (
    riccati_field_oracle,
    simulate_ensemble,
    solve_field,
    stable_time_grid,
)
from mfglab.numerics import (
    RngStream,
    SpaceGrid,
    TimeGrid,
    kuiper_uniformity,
    riccati_backward,
    wasserstein1_1d,
)
from mfglab.potentials import (
    ModelSpec,
    corrected_gradient,
    make_delarue_terminal,
    make_logcosh_terminal,
    make_quadratic,
    make_radial_logcosh,
    make_zero,
)
from reference_costs import reminder, static_U_minimize

AHAT = symmetric_minimizer_root(4.0)


def model(f, g, dim=1, b=0.0, nu0=0.0, sigma=1.0, T=1.0):
    return ModelSpec(dim=dim, b=b * np.eye(dim), sigma=sigma, T=T, f=f, g=g,
                     nu0=np.full(dim, float(nu0)))


def logcosh_spec(nu0=0.0, dim=1):
    g = make_logcosh_terminal(4.0) if dim == 1 else make_radial_logcosh(4.0, dim)
    return model(make_quadratic(-1.0, dim), g, dim=dim, nu0=nu0)


def report(k, ok, detail):
    line = f"[acceptance {k}] {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


def field_and_ensemble(spec, grid, N, M, seed):
    tg = stable_time_grid(spec, grid, N=N)
    fld = solve_field(spec, grid, tg, N=N)
    return simulate_ensemble(fld, spec, M=M, seed=seed)


def test_acceptance_1_riccati_oracle_agreement():
    start = time.time()
    spec = model(make_zero(1), make_quadratic(1.0, 1))
    N, L = 10, 3.0

    def interior_error(nodes):
        grid = SpaceGrid.symmetric(L, nodes, 1)
        tg = stable_time_grid(spec, grid, N=N)
        fld = solve_field(spec, grid, tg, N=N)
        P, r, _ = riccati_field_oracle(spec, tg, N=N)
        x = grid.axis_nodes(0)
        inner = np.abs(x) <= 2.0
        worst = 0.0
        for k in (0, tg.steps // 3, (2 * tg.steps) // 3):
            exact = P[k][0, 0] * x[inner] + r[k][0]
            got = fld.level(k)[inner, 0]
            worst = max(worst, float(np.max(
                np.abs(got - exact) / np.maximum(np.abs(exact), 1e-8))))
        return worst

    err_coarse = interior_error(301)   # dx = 0.02
    err_fine = interior_error(601)     # dx = 0.01
    elapsed = time.time() - start
    ratio = err_coarse / err_fine
    ok = err_coarse < 1e-2 and ratio >= 2.0 and elapsed < 30.0
    line = report(1, ok, f"interior rel err {err_coarse:.3g} (< 1e-2), "
                         f"refinement ratio {ratio:.2f} (>= 2), {elapsed:.1f}s")
    assert ok, line


def test_acceptance_2_symmetric_selection():
    start = time.time()
    spec = logcosh_spec()
    grid = SpaceGrid.symmetric(4.0, 201, 1)
    atom = AHAT * spec.T
    stats = {}
    for N in (25, 200, 400):
        ens = field_and_ensemble(spec, grid, N, M=2000, seed=1234)
        mT = ens.terminal[:, 0]
        stats[N] = (float(np.mean(mT > 0)),
                    wasserstein1_1d(mT, [-atom, atom], [0.5, 0.5]))
    elapsed = time.time() - start
    freq = stats[200][0]
    ok = abs(freq - 0.5) <= 0.034 and stats[400][1] < stats[25][1] and elapsed < 300
    line = report(2, ok, f"sign freq(N=200) {freq:.3f} in 0.5±0.034, "
                         f"W1 {stats[25][1]:.3g} (N=25) -> {stats[400][1]:.3g} "
                         f"(N=400), {elapsed:.0f}s")
    assert ok, line


def test_acceptance_3_delarue_example():
    start = time.time()
    cfg = ScenarioConfig.from_text("scenario = E3\nrun.selection = off\n")
    rep = run_scenario(cfg)
    elapsed = time.time() - start
    branch_err = max(float(r["max_traj_error"]) for r in rep.rows
                     if r["branch"] in "+-")
    zero_rows = [r for r in rep.rows if r["branch"] == "0"]
    min_cost = min(float(r["cost"]) for r in rep.rows)
    ok = (rep.passed and branch_err < 1e-3 and len(zero_rows) == 1
          and zero_rows[0]["classification"] == "stationary-only"
          and float(zero_rows[0]["cost"]) > min_cost and elapsed < 10.0)
    line = report(3, ok, f"trajectory err {branch_err:.2g} (< 1e-3), zero branch "
                         f"stationary-only with cost {float(zero_rows[0]['cost']):.2g} "
                         f"> min {min_cost:.4g}, {elapsed:.1f}s")
    assert ok, line


def test_acceptance_4_constant_control_reduction():
    worst_drift, worst_gap = 0.0, 0.0
    for nu0 in (0.0, 0.5):
        spec = logcosh_spec(nu0=nu0)
        sset = enumerate_stationary(spec, 0.0, [nu0])
        for sol in sset.solutions:
            worst_drift = max(worst_drift, float(np.max(np.abs(sol.eta - sol.eta0))))
        _, best, _ = static_U_minimize(spec, 0.0, [nu0])
        worst_gap = max(worst_gap, abs(best - sset.min_cost))
    # two-dimensional radial instance, coarse start lattice
    spec2 = logcosh_spec(dim=2)
    ax = np.linspace(-4.0, 4.0, 7)
    starts = np.column_stack([g.ravel() for g in np.meshgrid(ax, ax, indexing="ij")])
    sset2 = enumerate_stationary(spec2, 0.0, np.zeros(2), start_grid=starts,
                                 steps_per_unit=250)
    for sol in sset2.solutions:
        worst_drift = max(worst_drift, float(np.max(np.abs(sol.eta - sol.eta0))))
    _, best2, _ = static_U_minimize(spec2, 0.0, np.zeros(2))
    worst_gap = max(worst_gap, abs(best2 - sset2.min_cost))
    ok = worst_drift < 1e-8 and worst_gap < 1e-6
    line = report(4, ok, f"max |eta_t - eta_0| {worst_drift:.2g} (< 1e-8), "
                         f"|static min - shooting min| {worst_gap:.2g} (< 1e-6)")
    assert ok, line


def test_acceptance_5_sphere_selection():
    start = time.time()
    spec = logcosh_spec(dim=2)
    grid = SpaceGrid.symmetric(4.0, 201, 2)
    results = {}
    for N in (200, 400):
        ens = field_and_ensemble(spec, grid, N, M=2000, seed=1234)
        mT = ens.terminal
        _, p = kuiper_uniformity(np.arctan2(mT[:, 1], mT[:, 0]))
        results[N] = (p, float(np.median(np.linalg.norm(mT, axis=1))))
    elapsed = time.time() - start
    med = results[400][1]
    ok = (all(p > 0.01 for p, _ in results.values())
          and abs(med - AHAT * spec.T) <= 0.1 and elapsed < 900)
    line = report(5, ok, f"Kuiper p {results[200][0]:.3g}/{results[400][0]:.3g} "
                         f"(> 0.01), median |m_T| {med:.4f} vs "
                         f"{AHAT:.4f}±0.1, {elapsed:.0f}s")
    assert ok, line


def test_acceptance_6_vanishing_common_noise():
    eps_list = [0.5, 0.25, 0.1, 0.05]
    grid = SpaceGrid.symmetric(4.0, 201, 1)
    freqs, variances = [], []
    for eps in eps_list:
        spec0 = logcosh_spec(nu0=0.0)
        tg = stable_time_grid(spec0, grid, eps=eps)
        fld = solve_field(spec0, grid, tg, eps=eps)
        ens = simulate_ensemble(fld, spec0, M=2000, seed=1234)
        freqs.append(float(np.mean(ens.terminal[:, 0] > 0)))

        spec5 = logcosh_spec(nu0=0.5)
        tg = stable_time_grid(spec5, grid, eps=eps)
        fld = solve_field(spec5, grid, tg, eps=eps)
        ens = simulate_ensemble(fld, spec5, M=2000, seed=1234)
        variances.append(float(ens.terminal[:, 0].var()))
    band_ok = all(abs(f - 0.5) <= 0.034 for f in freqs)
    var_ok = all(b < a for a, b in zip(variances, variances[1:]))
    ok = band_ok and var_ok
    line = report(6, ok, f"sign freqs {[f'{f:.3f}' for f in freqs]} in 0.5±0.034, "
                         f"variances {[f'{v:.3g}' for v in variances]} decreasing")
    assert ok, line


def test_acceptance_7_field_convergence():
    spec = logcosh_spec(nu0=0.5)
    h = 1e-3
    vp = value_function(spec, 0.0, [0.5 + h], cross_check=False)
    vm = value_function(spec, 0.0, [0.5 - h], cross_check=False)
    D = (vp - vm) / (2 * h)
    grid = SpaceGrid.symmetric(4.0, 201, 1)
    gaps, center = [], None
    for N in (25, 100, 400):
        tg = stable_time_grid(spec, grid, N=N)
        fld = solve_field(spec, grid, tg, N=N)
        gaps.append(abs(float(fld.evaluate(0.0, [0.5])[0]) - D))
        center = float(fld.evaluate(0.0, [0.0])[0])
    ok = (gaps == sorted(gaps, reverse=True) and gaps[-1] < 5e-2
          and center == 0.0)
    line = report(7, ok, f"gaps {[f'{g:.3g}' for g in gaps]} decreasing, "
                         f"last < 5e-2, u(0,0) = {center} (exact zero)")
    assert ok, line


def test_acceptance_8_invariant_battery():
    start = time.time()
    failures = []

    def check(name, cond):
        if not cond:
            failures.append(name)

    # gradient/Hessian finite differences across the catalogue
    pots = [make_zero(1), make_quadratic(1.0, 1), make_quadratic(-1.0, 2),
            make_logcosh_terminal(4.0), make_radial_logcosh(4.0, 2),
            make_delarue_terminal(0.0, 1.0, 0.1, rho=0.05)]
    gen = np.random.default_rng(8)
    for p in pots:
        for _ in range(20):
            m = gen.uniform(-2, 2, size=p.dim)
            if p.name.startswith("delarue") and abs(abs(m[0]) - p.r_delta) < 0.2:
                continue
            hstep = 1e-4
            fd = np.array([(p.value(m + hstep * e) - p.value(m - hstep * e)) / (2 * hstep)
                           for e in np.eye(p.dim)])
            scale = max(1.0, float(np.linalg.norm(p.gradient(m))))
            check(f"grad {p.name}",
                  np.linalg.norm(fd - p.gradient(m)) / scale < 1e-5)
            fdh = np.column_stack(
                [(p.gradient(m + hstep * e) - p.gradient(m - hstep * e)) / (2 * hstep)
                 for e in np.eye(p.dim)])
            hscale = max(1.0, float(np.linalg.norm(p.hessian(m))))
            check(f"hess {p.name}",
                  np.linalg.norm(fdh - p.hessian(m)) / hscale < 1e-5)

    # reminder identities
    check("reminder zero", reminder(make_zero(1), [1.0]) == 0.0)
    q = make_quadratic(0.8, 1)
    check("reminder quadratic", abs(reminder(q, [1.3]) -
                                    (0.5 * 0.8**2 + 0.5 * 0.8) * 1.69) < 1e-12)
    lc = make_logcosh_terminal(4.0)
    check("reminder even", all(abs(reminder(lc, [x]) - reminder(lc, [-x])) < 1e-12
                               for x in (0.4, 1.7)))
    check("grad_FN odd", all(np.allclose(corrected_gradient(lc, 25, [x]),
                                         -corrected_gradient(lc, 25, [-x]), atol=1e-13)
                             for x in (0.3, 2.2)))

    # Riccati symmetry and stationarity
    phi = riccati_backward(np.zeros((2, 2)), np.eye(2), np.eye(2), TimeGrid(0, 1, 100))
    check("riccati symmetric", np.max(np.abs(phi - np.transpose(phi, (0, 2, 1)))) == 0.0)
    check("riccati stationary", np.max(np.abs(phi - np.eye(2))) < 1e-10)

    # odd field symmetry and rotation equivariance on small grids
    spec1 = logcosh_spec()
    g1 = SpaceGrid.symmetric(4.0, 101, 1)
    f1 = solve_field(spec1, g1, stable_time_grid(spec1, g1, N=50), N=50)
    v = np.stack([f1.level(k) for k in range(f1.tgrid.steps + 1)])
    check("field odd symmetry", np.max(np.abs(v + v[:, ::-1, :])) < 1e-10)
    spec2 = logcosh_spec(dim=2)
    g2 = SpaceGrid.symmetric(3.0, 41, 2)
    f2 = solve_field(spec2, g2, stable_time_grid(spec2, g2, N=50), N=50)
    v = np.stack([f2.level(k) for k in range(f2.tgrid.steps + 1)])
    rotated = np.stack([-v[..., 1], v[..., 0]], axis=-1)
    check("field rotation equivariance",
          np.max(np.abs(np.transpose(v[:, ::-1, :, :], (0, 2, 1, 3)) - rotated)) < 1e-12)

    # seeded determinism
    a = RngStream(3, 1).generator().normal(size=16)
    b = RngStream(3, 1).generator().normal(size=16)
    check("rng determinism", np.array_equal(a, b))
    e1 = simulate_ensemble(f1, spec1, M=8, seed=42)
    e2 = simulate_ensemble(f1, spec1, M=8, seed=42)
    check("ensemble determinism", np.array_equal(e1.paths, e2.paths))
    e3 = simulate_ensemble(f1, spec1, M=16, seed=42)
    check("ensemble scheduling independence", np.array_equal(e3.paths[:8], e1.paths))

    elapsed = time.time() - start
    ok = not failures and elapsed < 120.0
    line = report(8, ok, f"{'all checks pass' if not failures else failures}, "
                         f"{elapsed:.1f}s (< 120s)")
    assert ok, line
