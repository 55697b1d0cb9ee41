import ast
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import mfglab
from mfglab import numerics
from mfglab.errors import InvalidInput, InvalidParameter, RiccatiEscape
from mfglab.experiments import ScenarioConfig
from mfglab.field import riccati_field_oracle
from mfglab.numerics import (
    SpaceGrid,
    TimeGrid,
    delarue_riccati,
    integrate_ode,
    kuiper_uniformity,
    riccati_backward,
    stream_generators,
    wasserstein1_1d,
)


class TestGrids:
    def test_time_grid_basics(self):
        g = TimeGrid(0.0, 2.0, 8)
        assert g.dt == 0.25
        assert np.allclose(g.nodes, np.linspace(0, 2, 9))

    def test_time_grid_validation(self):
        with pytest.raises(InvalidParameter):
            TimeGrid(1.0, 1.0, 10)
        with pytest.raises(InvalidParameter):
            TimeGrid(0.0, 1.0, 0)

    def test_space_grid_symmetric(self):
        g = SpaceGrid.symmetric(3.0, 151, 1)
        assert g.is_symmetric()
        assert g.shape == (151,)
        assert g.spacings[0] == pytest.approx(0.04)
        # even node count gets bumped so 0 is a node
        g2 = SpaceGrid.symmetric(1.0, 10, 2)
        assert g2.shape == (11, 11)
        assert g2.is_symmetric()

    def test_space_grid_asymmetric_detected(self):
        assert not SpaceGrid(((-1.0, 2.0, 31),)).is_symmetric()
        assert not SpaceGrid(((-1.0, 1.0, 10),)).is_symmetric()  # no 0 node

    def test_space_grid_validation(self):
        with pytest.raises(InvalidParameter):
            SpaceGrid(((-1.0, 1.0, 5), (-1.0, 1.0, 5), (-1.0, 1.0, 5)))
        with pytest.raises(InvalidParameter):
            SpaceGrid(((1.0, -1.0, 5),))
        with pytest.raises(InvalidParameter):
            SpaceGrid(((-1.0, 1.0, 2),))


def cube(t, x, dx):
    """x' = x^3, written into dx."""
    return np.power(x, 3, out=dx)


class TestIntegrateOde:
    def test_zero_field_constant(self):
        out = integrate_ode(lambda t, x, dx: np.multiply(0.0, x, out=dx), [5.0],
                            TimeGrid(0, 1, 50))
        assert np.all(out == 5.0)

    def test_exponential_forward(self):
        out = integrate_ode(lambda t, x, dx: np.positive(x, out=dx), [1.0],
                            TimeGrid(0, 1, 100))
        assert abs(out[-1, 0] - math.e) < 1e-8

    def test_matrix_exponential_fourth_order(self):
        A = np.array([[0.0, 1.0], [-1.0, -0.5]])
        x0 = np.array([1.0, 0.3])
        errs = []
        for steps in (25, 50):
            out = integrate_ode(lambda t, x, dx: np.matmul(A, x, out=dx), x0,
                                TimeGrid(0, 1, steps))
            from scipy.linalg import expm
            errs.append(np.linalg.norm(out[-1] - expm(A) @ x0))
        assert errs[0] / errs[1] > 12  # ~16x for a 4th-order method

    def test_divergence_spares_other_rows(self):
        # x' = x^3 from 5 blows up at t = 0.02; that row ends non-finite and
        # the rows beside it equal their separate integrations
        grid = TimeGrid(0, 2, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = integrate_ode(cube, [[5.0], [0.3], [-0.2]], grid)
        assert not np.isfinite(out[-1, 0]).any()
        for row, x0 in ((1, 0.3), (2, -0.2)):
            assert np.array_equal(out[:, row], integrate_ode(cube, [x0], grid))

    def test_divergence_node(self):
        # non-finite from the first node past the blow-up on, with no overflow warning
        grid = TimeGrid(0, 2, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = integrate_ode(cube, [5.0], grid)
        finite = np.isfinite(out[:, 0])
        assert finite[:4].all() and not finite[4:].any()
        assert grid.nodes[4] == 0.04


class TestSingleStepper:
    def test_one_rk4_update_in_package(self):
        # integrate_ode is the package's only RK4 loop, shooting's stepper; the
        # Riccati solves and the field oracle are closed-form
        term = r"\w+(?:\[\d+\])?"
        update = re.compile(rf"{term} \+ 2 \* {term} \+ 2 \* {term} \+ {term}")
        text = "".join(p.read_text() for p in sorted(Path(mfglab.__file__).parent.glob("*.py")))
        assert [m.group(0) for m in update.finditer(text)] == ["k1 + 2 * k2 + 2 * k3 + k4"]

    @staticmethod
    def package_trees():
        """The parsed module of each package file but __init__.py, by module name."""
        return {p.stem: ast.parse(p.read_text())
                for p in sorted(Path(mfglab.__file__).parent.glob("*.py"))
                if p.name != "__init__.py"}

    def test_public_functions_have_src_callers(self):
        # a public top-level function or class that nothing in the package
        # uses is dead weight; the exceptions are used from outside the package
        allowed = {
            "control.shoot": "perfbench/spans.py counts control.shoots through it, and "
                             "without it the benchmark self-test raises TypeError on None > 0",
        }
        trees = self.package_trees()
        public = {(mod, node.name): node for mod, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")}

        def referenced(name, own):
            inside = {id(n) for n in ast.walk(own)}
            return any(id(n) not in inside
                       and (isinstance(n, ast.Name) and n.id == name
                            or isinstance(n, ast.Attribute) and n.attr == name)
                       for tree in trees.values() for n in ast.walk(tree))

        unused = sorted(f"{mod}.{name}" for (mod, name), node in public.items()
                        if not referenced(name, node))
        assert unused == sorted(allowed)

    def test_imports_are_used(self):
        # a name a module imports and never reads is dead weight; __init__.py's
        # re-exports and `from __future__` imports bind names nothing reads
        unused = []
        for mod, tree in self.package_trees().items():
            read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    unused += [f"{mod}: {alias.name}" for alias in node.names
                               if (alias.asname or alias.name.split(".")[0]) not in read]
        assert unused == []

    def test_error_types_are_raised_in_src(self):
        # an error type that no package code raises is dead weight, like one
        # left behind when the code that raised it moved out of the package
        trees = self.package_trees()
        kinds = {node.name for node in trees["errors"].body if isinstance(node, ast.ClassDef)}
        raised = set()
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
        assert sorted(kinds - raised) == ["MfgLabError"]     # the base is only caught


class TestRiccati:
    def test_scalar_stationary(self):
        phi = riccati_backward([[0.0]], [[1.0]], [[1.0]], TimeGrid(0, 1, 100))
        assert np.max(np.abs(phi - 1.0)) < 1e-12

    def test_scalar_against_fine_reference(self):
        coarse = riccati_backward([[0.0]], [[1.0]], [[2.0]], TimeGrid(0, 1, 200))
        fine = riccati_backward([[0.0]], [[1.0]], [[2.0]], TimeGrid(0, 1, 2000))
        assert abs(coarse[0, 0, 0] - fine[0, 0, 0]) < 1e-10
        # and against the scalar closed form phi = coth(t - T - artanh(1/2))
        c = np.arctanh(0.5)
        exact = 1.0 / np.tanh(1.0 + c)  # at t = 0, T = 1
        assert abs(fine[0, 0, 0] - exact) < 1e-10

    def test_identity_2d(self):
        I = np.eye(2)
        phi = riccati_backward(np.zeros((2, 2)), I, I, TimeGrid(0, 1, 100))
        assert np.max(np.abs(phi - I)) < 1e-10

    def test_symmetry_exact(self):
        b = np.array([[0.1, 0.3], [-0.2, 0.4]])
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        phi = riccati_backward(b, Q, np.eye(2), TimeGrid(0, 1, 200))
        assert np.max(np.abs(phi - np.transpose(phi, (0, 2, 1)))) == 0.0

    def test_escape_raises(self):
        with pytest.raises(RiccatiEscape):
            riccati_backward([[0.0]], [[1.0]], [[-3.0]], TimeGrid(0, 5, 5000))

    def test_escape_without_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RiccatiEscape):
                riccati_backward(np.zeros((2, 2)), np.eye(2), -3.0 * np.eye(2),
                                 TimeGrid(0, 5, 500))

    def test_escape_time(self):
        # b = 0, Q_run = 1, Q_term = -3: X = cosh(T - t) - 3 sinh(T - t) vanishes at
        # T - artanh(1/3); in 2-d, X = c(t) I touches det X = 0 without a sign change
        grid = TimeGrid(0, 5, 500)
        for d in (1, 2):
            with pytest.raises(RiccatiEscape) as exc:
                riccati_backward(np.zeros((d, d)), np.eye(d), -3.0 * np.eye(d), grid)
            assert abs(exc.value.t - (5.0 - math.atanh(1.0 / 3.0))) <= grid.dt

    def test_long_horizon_restarts(self):
        # exp(H (t - T)) would overflow past |t - T| of about 700 here; the solve
        # restarts from phi in shorter spans and tends to the stationary root 1
        phi = riccati_backward([[0.0]], [[1.0]], [[2.0]], TimeGrid(0, 800, 4000))
        assert abs(phi[0, 0, 0] - 1.0) < 1e-12
        c = np.arctanh(0.5)     # phi = coth(T - t + artanh(1/2)) over the last span
        tail = TimeGrid(0, 800, 4000).nodes[-10:]
        assert np.max(np.abs(phi[-10:, 0, 0] - 1.0 / np.tanh(800.0 - tail + c))) < 1e-12

    def test_long_horizon_2d_tends_to_care(self):
        # the stabilizing root of P P - P b - b^T P - Q = 0, the algebraic Riccati equation
        from scipy.linalg import solve_continuous_are
        b = np.array([[0.1, 0.3], [-0.2, 0.4]])
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        phi = riccati_backward(b, Q, np.eye(2), TimeGrid(0, 800, 4000))
        ref = solve_continuous_are(b, np.eye(2), Q, np.eye(2))
        assert np.max(np.abs(phi[:3000] - ref)) < 1e-12

    def test_escape_after_restarts(self):
        # phi' = (phi - b)^2 + 1 from phi(T) = b: phi = b + tan(t - T) escapes at
        # T - pi/2, dozens of spans before T because |H|_1 is about 1e4
        grid = TimeGrid(0, 10, 10000)
        with pytest.raises(RiccatiEscape) as exc:
            riccati_backward([[100.0]], [[-10001.0]], [[100.0]], grid)
        assert abs(exc.value.t - (10.0 - math.pi / 2)) <= grid.dt
        for d in (1, 2):
            with pytest.raises(RiccatiEscape) as exc:
                riccati_backward(np.zeros((d, d)), np.eye(d), -3.0 * np.eye(d),
                                 TimeGrid(0, 800, 4000))
            assert abs(exc.value.t - (800.0 - math.atanh(1.0 / 3.0))) <= 0.2

    def test_nonsymmetric_data_rejected(self):
        with pytest.raises(InvalidParameter):
            riccati_backward(np.zeros((2, 2)), np.array([[1.0, 1.0], [0.0, 1.0]]),
                             np.eye(2), TimeGrid(0, 1, 10))


class TestExpm:
    @staticmethod
    def assert_close(A, ref):
        """numerics._expm of the stack A within 1e-12 of ref, relative, matrix by matrix."""
        err = np.linalg.norm(numerics._expm(A) - ref, axis=(-2, -1))
        assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=(-2, -1)))

    def test_random_stacks(self):
        # the reference is scipy.sparse.linalg.expm (Al-Mohy and Higham, 2009):
        # against 40-digit arithmetic, scipy.linalg.expm strays by up to 2.3e-12
        # on five of these matrices, where both of the others stay within 3e-14
        from scipy.sparse.linalg import expm
        rng = np.random.default_rng(7)
        for n in range(2, 7):
            A = rng.normal(size=(40, n, n))
            A *= (rng.uniform(0.0, 20.0, 40) / np.linalg.norm(A, 2, axis=(1, 2)))[:, None, None]
            self.assert_close(A, np.array([expm(a) for a in A]))

    def test_jordan_block(self):
        from scipy.linalg import expm
        J = -0.7 * np.eye(5) + np.eye(5, k=1)
        for scale in (0.1, 1.0, 5.0, 15.0):
            self.assert_close(scale * J, expm(scale * J))

    def test_e1_hamiltonian(self, monkeypatch):
        # E1's reference field exponentiates its augmented H (t - T) at 4001 nodes;
        # that H is singular
        from scipy.linalg import expm
        inner, seen = numerics._expm, []
        monkeypatch.setattr(numerics, "_expm", lambda A: seen.append(A) or inner(A))
        spec = ScenarioConfig.from_text("scenario = E1\n").spec
        riccati_field_oracle(spec, TimeGrid(0.0, spec.T, 4000), eps=1.0)
        (A,) = seen
        assert A.shape == (4001, 4, 4) and np.linalg.matrix_rank(A[0]) < 4
        self.assert_close(A, expm(A))


class TestDelarueRiccati:
    def test_b_zero_closed_form(self):
        grid = TimeGrid(0.0, 1.0, 4000)
        eta, w, r = delarue_riccati(0.0, grid, 0.1)
        assert np.max(np.abs(eta - 1.0)) < 1e-12         # stationary point
        assert np.max(np.abs(w - np.exp(1.0 - grid.nodes))) < 1e-10
        assert abs(r - (1.0 - math.exp(-1.8)) / 2.0) < 1e-7

    def test_delta_to_zero_limit(self):
        grid = TimeGrid(0.0, 1.0, 8000)
        _, _, r = delarue_riccati(0.0, grid, 1e-4)
        assert abs(r - (1.0 - math.exp(-2.0)) / 2.0) < 1e-3

    def test_w_terminal_is_one(self):
        for b in (0.0, 0.3, -0.7):
            _, w, _ = delarue_riccati(b, TimeGrid(0.0, 1.0, 500), 0.25)
            assert w[-1] == 1.0

    def test_delta_out_of_range(self):
        with pytest.raises(InvalidParameter):
            delarue_riccati(0.0, TimeGrid(0, 1, 100), 1.5)
        with pytest.raises(InvalidParameter):
            delarue_riccati(0.0, TimeGrid(0, 1, 100), 0.0)


def stream(seed, index):
    """The generator of stream (seed, index)."""
    return next(stream_generators(seed, [index]))


class TestRng:
    def test_reproducible(self):
        a = stream(42, 3).normal(size=(50, 2))
        b = stream(42, 3).normal(size=(50, 2))
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = stream(42, 3).normal(size=50)
        b = stream(42, 4).normal(size=50)
        c = stream(43, 3).normal(size=50)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed, index", [
        (1, 0), (1, 10**6), (42, 3), (0, 0), (2**40, 17),
        # multi-word seeds and indices; 2**130 + 11 and a two-word index make
        # more than the 4 words of SeedSequence's pool
        *(pytest.param(seed, 2**32 + 5, id=f"{name}-2**32+5") for seed, name in [
            (0, "0"), (1, "1"), (2**32 + 7, "2**32+7"), (2**70 + 3, "2**70+3"),
            (2**130 + 11, "2**130+11")]),
    ])
    def test_stream_is_default_rng_of_seed_sequence(self, seed, index):
        # the addressing that every recorded ensemble was drawn with
        a = stream(seed, index).normal(size=50)
        b = np.random.default_rng(np.random.SeedSequence((seed, index))).normal(size=50)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed, index", [(-1, 0), (1.5, 0), (0, -1), (0, 2.0), (None, 0)])
    def test_refused_seeds_are_typed(self, seed, index):
        # SeedSequence refuses each of these with a ValueError or a TypeError
        with pytest.raises((ValueError, TypeError)):
            np.random.SeedSequence((seed, index))
        with pytest.raises(InvalidParameter):
            stream(seed, index)

    @pytest.mark.parametrize("seed", [True, "0x10", np.float64(3.0)])
    def test_non_integer_seeds_are_refused(self, seed):
        # SeedSequence would take the first two; a seed is an integer, not a bool
        with pytest.raises(InvalidParameter):
            stream(seed, 0)


class TestWasserstein:
    def test_identical(self):
        assert wasserstein1_1d([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_translation(self):
        assert wasserstein1_1d([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_two_atom_law(self):
        assert wasserstein1_1d([-1.0, 1.0], [-1.0, 1.0], [0.5, 0.5]) == 0.0

    def test_symmetry_and_triangle(self):
        gen = np.random.default_rng(5)
        for _ in range(20):
            a, b, c = (gen.normal(size=40) for _ in range(3))
            dab = wasserstein1_1d(a, b)
            assert dab == pytest.approx(wasserstein1_1d(b, a))
            assert dab <= wasserstein1_1d(a, c) + wasserstein1_1d(c, b) + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            wasserstein1_1d([], [1.0])

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_equals_scipy_to_the_bit(self, weighted):
        from scipy.stats import wasserstein_distance

        gen = np.random.default_rng(17)
        for k in range(200):
            a = gen.normal(size=gen.integers(1, 300)) * gen.uniform(0.1, 10.0)
            b = gen.normal(size=gen.integers(1, 40))
            if k % 4 == 0:
                # ties inside and across the two samples
                a, b = np.round(a, 1), np.round(b, 1)
            w = None
            if weighted:
                w = gen.uniform(0.0, 3.0, size=b.size)
                w[gen.integers(b.size)] = 0.0
                w[0] += 1.0
            assert wasserstein1_1d(a, b, w) == wasserstein_distance(a, b, v_weights=w)

    @pytest.mark.parametrize("a, b, w", [
        ([0.0, 1.0], [-1.0, 1.0], [0.5, 0.25, 0.25]),
        ([0.0, 1.0], [-1.0, 1.0], [1.5, -0.5]),
        ([0.0, 1.0], [-1.0, 1.0], [0.5, math.nan]),
        ([0.0, 1.0], [-1.0, 1.0], [0.5, math.inf]),
        ([0.0, 1.0], [-1.0, 1.0], [0.0, 0.0]),
        ([0.0, math.nan], [-1.0, 1.0], None),
        ([0.0, 1.0], [-math.inf, 1.0], [0.5, 0.5]),
    ], ids=["weights-length", "weight-negative", "weight-nan", "weight-inf",
            "weights-zero-sum", "sample-nan", "atom-inf"])
    def test_bad_input_rejected(self, a, b, w):
        with pytest.raises(InvalidInput):
            wasserstein1_1d(a, b, w)


class TestKuiper:
    def test_equally_spaced_near_one(self):
        angles = np.arange(2000) * 2 * np.pi / 2000
        V, p = kuiper_uniformity(angles)
        assert p > 0.99

    def test_degenerate_rejected(self):
        V, p = kuiper_uniformity(np.full(100, 1.3))
        assert p < 1e-6

    def test_calibration_at_one_percent(self):
        gen = np.random.default_rng(99)
        rejections = sum(
            kuiper_uniformity(gen.uniform(0, 2 * np.pi, 2000))[1] < 0.01
            for _ in range(500))
        # binomial(500, 0.01): mean 5, sd 2.2; allow a generous 4-sigma band
        assert rejections <= 14

    def test_small_sample_rejected(self):
        with pytest.raises(InvalidInput):
            kuiper_uniformity(np.linspace(0, 1, 10))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        angles = np.linspace(0.0, 6.0, 100)
        angles[7] = bad
        with pytest.raises(InvalidInput):
            kuiper_uniformity(angles)
