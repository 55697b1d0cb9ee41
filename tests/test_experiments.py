import os
import re
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

from mfglab import control, experiments, field, numerics, potentials
from mfglab.cli import build_parser, main as cli_main
from mfglab.errors import ConfigError
from mfglab.experiments import (
    CONFIG_SCHEMA,
    ScenarioConfig,
    build_grid,
    build_spec,
    canonical_text,
    fnv1a64,
    parse_config_text,
    replay_row,
    run_scenario,
)
from mfglab.field import DecouplingField, load_field_binary, save_field_binary, stable_time_grid
from mfglab.numerics import SpaceGrid, TimeGrid

E2_SMALL = """
scenario = E2
model.kappa = 4.0
run.N = 25, 100
run.M = 400
run.seed = 11
grid.L = 4.0
grid.nodes = 201
"""
GOLDEN = Path(__file__).parent / "data"


def golden_config(scenario: str) -> str:
    """Config of the golden reports; E6 reads no run.M."""
    return (f"scenario = {scenario}\nrun.seed = 5\ngrid.nodes = 61\n"
            + ("" if scenario == "E6" else "run.M = 100\n"))


class TestConfig:
    def test_parse_basics(self):
        cfg = parse_config_text("a = 1\n# comment\nb.c = hello  # tail\n\n")
        assert cfg == {"a": "1", "b.c": "hello"}

    def test_parse_errors(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words\n")
        with pytest.raises(ConfigError):
            parse_config_text("a = 1\na = 2\n")
        with pytest.raises(ConfigError):
            parse_config_text("= 3\n")

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_text("scenario = E9\n")

    def test_n_must_increase(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_text("scenario = E2\nrun.N = 100, 100\n")

    def test_statistical_m_minimum(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_text("scenario = E2\nrun.M = 50\n")

    def test_fnv1a64_reference_values(self):
        # standard FNV-1a 64-bit test vectors
        assert fnv1a64("") == "cbf29ce484222325"
        assert fnv1a64("a") == "af63dc4c8601ec8c"
        assert fnv1a64("foobar") == "85944171f73967e8"

    def test_hash_canonicalization(self):
        a = ScenarioConfig.from_text("scenario = E2\nrun.M = 400\nrun.seed = 1\n")
        b = ScenarioConfig.from_text("run.seed = 1\n# noise\nscenario = E2\nrun.M=400\n")
        assert a.config_hash == b.config_hash
        c = ScenarioConfig.from_text("scenario = E2\nrun.M = 400\nrun.seed = 2\n")
        assert a.config_hash != c.config_hash

    def test_build_spec_defaults(self):
        cfg = ScenarioConfig.from_text("scenario = E2\n")
        spec = build_spec(cfg)
        assert spec.dim == 1
        assert spec.g.name.startswith("logcosh")
        assert spec.running_state_cost_vanishes
        cfg4 = ScenarioConfig.from_text("scenario = E4\n")
        assert build_spec(cfg4).dim == 2
        # validation builds the spec once and keeps it out of comparisons
        assert cfg.spec.g.name == spec.g.name
        assert cfg == ScenarioConfig.from_text("scenario = E2\n")

    def test_linear_spread_over_axes(self):
        # a scalar model.linear is the same coefficient on every axis, as
        # model.nu0 is; in 2-d it used to fail the dimension check
        spec = ScenarioConfig.from_text("scenario = E1\nmodel.dim = 2\nmodel.linear = 0.5\n").spec
        assert spec.g.quad_coeffs[1].tolist() == [0.5, 0.5]
        spec1 = ScenarioConfig.from_text("scenario = E1\nmodel.linear = 0.5\n").spec
        assert spec1.g.name == "quadratic(c=1.0,kappa=[0.5])"
        assert ScenarioConfig.from_text("scenario = E1\n").spec.g.name == "quadratic(c=1.0)"

    def test_build_grid_symmetric(self):
        cfg = ScenarioConfig.from_text(E2_SMALL)
        grid = build_grid(cfg, build_spec(cfg))
        assert grid.is_symmetric()
        assert grid.shape == (201,)

    def test_invalid_model_parameter_reports_cause(self):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_text("scenario = E2\nmodel.kappa = 1.5\n")
        assert "unknown" not in str(exc.value)
        assert "kappa > 2" in str(exc.value)

    def test_unknown_potential_rejected_at_parse(self):
        for key in ("model.g", "model.f"):
            with pytest.raises(ConfigError, match="unknown"):
                ScenarioConfig.from_text(f"scenario = E2\n{key} = nope\n")

    def test_dim_three_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_text("scenario = E2\nmodel.dim = 3\n")

    def test_unknown_key_rejected(self):
        # a misspelt or unread key used to validate and run on the default
        # (run.m left M at 2000; model.rho never reached the Delarue terminal)
        for scenario, key in (("E2", "run.m = 100"), ("E3", "model.rho = 0.01")):
            with pytest.raises(ConfigError, match=re.escape(key.split()[0])):
                ScenarioConfig.from_text(f"scenario = {scenario}\n{key}\n")

    @pytest.mark.parametrize("scenario, key, value", [
        ("E2", "verdict.band", "abc"), ("E6", "verdict.tol", "x"), ("E3", "run.N_select", "1.5"),
        ("E2", "grid.safety", "0.5 0.9"), ("E6", "probe.nu0", "nan"), ("E6", "probe.h", "small"),
        ("E3", "run.selection", "no"),
        ("E2", "verdict.band", "-1"), ("E6", "verdict.tol", "0"), ("E3", "run.N_select", "0"),
        ("E2", "grid.safety", "-0.5"), ("E6", "probe.h", "0"), ("E1", "run.M", "0"),
        ("E1", "run.N", "0 10"), ("E5", "run.eps", "0.5 0"), ("E5", "run.eps", "0.1 0.5"),
        ("E3", "grid.nodes", "abc"), ("E3", "grid.L", "nan"), ("E3", "grid.L", "-1"),
        ("E3", "grid.nodes", "2"), ("E2", "run.seed", "-1")])
    def test_late_key_rejected_at_parse(self, monkeypatch, scenario, key, value):
        # these keys used to be parsed only when a runner reached them, after
        # its solves (E5's eps order too), or (run.selection) never checked at
        # all; the values out of range used to validate, and a negative band ran
        # E2's whole sweep before failing its verdict; E3 read grid.L and
        # grid.nodes only after its shooting, and ran grid.nodes = 2 silently
        # on a 3-node grid
        calls = []
        monkeypatch.setattr(control, "integrate_ode", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match=re.escape(key)):
            ScenarioConfig.from_text(f"scenario = {scenario}\n{key} = {value}\n")
        assert calls == []

    def test_empty_list_rejected(self):
        for scenario, key in (("E2", "run.N"), ("E5", "run.eps")):
            with pytest.raises(ConfigError, match=re.escape(key)):
                ScenarioConfig.from_text(f"scenario = {scenario}\n{key} =\n")

    def test_config_keys_are_the_keys_read(self):
        # CONFIG_SCHEMA declares exactly the keys that src/ reads from a config,
        # and a validated config holds a value for each key its scenario reads
        src = "".join(p.read_text() for p in Path(experiments.__file__).parent.glob("*.py"))
        assert set(re.findall(r"\bcfg\[\"([^\"]+)\"\]", src)) == set(CONFIG_SCHEMA)
        for scenario in experiments.SCENARIOS:
            cfg = ScenarioConfig.from_text(f"scenario = {scenario}\n")
            assert list(cfg.values) == [key for key, spec in CONFIG_SCHEMA.items()
                                        if scenario in spec.defaults]

    @pytest.mark.parametrize("scenario, key, value", [
        ("E6", "run.M", "7"), ("E3", "run.N", "5 10"), ("E2", "probe.h", "0.5"),
        ("E4", "verdict.band", "0.2"), ("E1", "run.eps", "0.3"), ("E2", "model.delta", "7"),
        ("E3", "model.kappa", "9"), ("E2", "model.c", "2"), ("E1", "model.kappa", "9")])
    def test_unread_key_rejected(self, tmp_path, capsys, monkeypatch, scenario, key, value):
        # a key the scenario never reads used to validate and run unread: E6
        # with run.M = 7, E2 with probe.h or model.delta, E1 with model.kappa
        calls = []
        monkeypatch.setattr(control, "integrate_ode", lambda *args: calls.append(args))
        text = f"scenario = {scenario}\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=f"scenario {scenario} does not read {key}"):
            ScenarioConfig.from_text(text)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        assert cli_main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and "Traceback" not in err
        assert calls == []

    def test_readme_key_table_is_the_schema(self):
        # the README's key table and CONFIG_SCHEMA cannot drift apart
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme[readme.index("| key | kind and bound |"):].split("\n\n")[0]
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in table.splitlines()[2:]]

        def scenarios(names):
            names = sorted(names)
            return "all" if names == list(experiments.SCENARIOS) else " ".join(names)

        def text(value):   # as a config writes it; None is worked out by the reader
            if value is None:
                return "worked out"
            return " ".join(map(str, value)) if isinstance(value, list) else str(value)

        expected = []
        for key, spec in CONFIG_SCHEMA.items():
            groups = {}
            for scenario, default in spec.defaults.items():
                groups.setdefault(text(default), []).append(scenario)
            defaults = "; ".join(f"{scenarios(names)}: {value}" for value, names in groups.items())
            readers = (" or ".join(f"`{v}`" for v in spec.via) + " = "
                       + ", ".join(spec.potentials)) if spec.via else scenarios(spec.defaults)
            expected.append([f"`{key}`", spec.describe(), defaults, readers])
        assert rows == expected


class TestReports:
    def test_e2_report_shape_and_verdicts(self):
        rep = run_scenario(ScenarioConfig.from_text(E2_SMALL))
        assert rep.passed
        assert [r["N"] for r in rep.rows] == [25, 100]
        assert all(r["seed"] == 11 for r in rep.rows)
        assert all(r["config"] == rep.config_hash for r in rep.rows)
        assert rep.columns[0] == "N"

    def test_replay_row(self, tmp_path):
        cfg = ScenarioConfig.from_text(E2_SMALL)
        rep = run_scenario(cfg)
        csv = str(tmp_path / "e2.csv")
        rep.write_csv(csv)
        assert replay_row(cfg, csv, 0)
        assert replay_row(cfg, csv, 1)
        with pytest.raises(ConfigError):
            replay_row(cfg, csv, 5)

    def test_seed_changes_statistics(self):
        rep1 = run_scenario(ScenarioConfig.from_text(E2_SMALL))
        rep2 = run_scenario(ScenarioConfig.from_text(
            E2_SMALL.replace("run.seed = 11", "run.seed = 12")))
        assert rep1.rows[0]["mean_T"] != rep2.rows[0]["mean_T"]

    def test_verdict_logic_pure(self):
        rep1 = run_scenario(ScenarioConfig.from_text(E2_SMALL))
        rep2 = run_scenario(ScenarioConfig.from_text(E2_SMALL))
        assert rep1.verdicts == rep2.verdicts
        assert [tuple(r.items()) for r in rep1.rows] == [tuple(r.items()) for r in rep2.rows]

    def test_e1_requires_convex_terminal(self):
        with pytest.raises(ConfigError):
            run_scenario(ScenarioConfig.from_text(
                "scenario = E1\nmodel.g = logcosh\n"))

    def test_e3_requires_delarue_terminal(self):
        # the closed-form trajectories exist only for the Delarue terminal;
        # refuse before the enumeration runs
        with pytest.raises(ConfigError):
            run_scenario(ScenarioConfig.from_text(
                "scenario = E3\nmodel.g = logcosh\nrun.selection = off\n"))

    def test_e3_requires_nu0_zero(self, monkeypatch):
        # E3 used to shoot from 0 whatever model.nu0 said, then run its
        # selection ensemble from nu0 and report its frequency
        calls = []
        monkeypatch.setattr(control, "integrate_ode", lambda *args: calls.append(args))
        cfg = ScenarioConfig.from_text(
            "scenario = E3\nmodel.nu0 = 0.5\nrun.M = 200\ngrid.nodes = 401\n")
        with pytest.raises(ConfigError, match="model.nu0"):
            run_scenario(cfg)
        assert calls == []

    def test_e2_requires_logcosh_target(self):
        # the two-atom target a-hat T belongs to the log-cosh terminal only
        with pytest.raises(ConfigError):
            run_scenario(ScenarioConfig.from_text(
                "scenario = E2\nmodel.g = quadratic\nrun.M = 100\nrun.N = 25\n"
                "grid.nodes = 41\n"))

    def test_sign_band_calibrated_to_m(self):
        # at M = 100 three binomial sigmas are 0.15, far wider than the
        # 0.034 that is 3 sigma only at M = 2000
        rep = run_scenario(ScenarioConfig.from_text(
            E2_SMALL.replace("run.M = 400", "run.M = 100")))
        name, _, detail = rep.verdicts[0]
        assert name.startswith("sign frequency")
        assert detail.endswith("band ±0.150")

    @pytest.mark.parametrize("text, label", [
        ("scenario = E2\nrun.N = 25\n", "N=25"),
        ("scenario = E5\nrun.eps = 0.5\n", "eps=0.5"),
    ], ids=["E2", "E5"])
    def test_domain_too_small_noted(self, text, label):
        # grid.L = 2 sits barely past the atoms at ±1.915, so many paths exit
        small = text + "run.M = 100\ngrid.L = 2.0\ngrid.nodes = 41\n"
        rep = run_scenario(ScenarioConfig.from_text(small))
        exits = rep.rows[0]["exit_fraction"]
        assert exits > 0.01
        assert f"domain too small at {label}: exit fraction {exits:.3g}" in rep.notes
        wide = run_scenario(ScenarioConfig.from_text(small.replace("grid.L = 2.0", "grid.L = 4.0")))
        assert not any(n.startswith("domain too small") for n in wide.notes)

    @pytest.mark.parametrize("scenario", ["E1", "E2", "E3", "E4", "E5", "E6"])
    def test_seeded_report_bytes_unchanged(self, tmp_path, scenario):
        # E1, E2 and E5 recorded while every ensemble still drew its own
        # per-path streams, E3, E4 and E6 before the scenarios shared one
        # sweep; the current code must reproduce them byte for byte
        out = tmp_path / "report.csv"
        run_scenario(ScenarioConfig.from_text(golden_config(scenario))).write_csv(str(out))
        assert out.read_bytes() == (GOLDEN / f"{scenario}_seed5.csv").read_bytes()

    def test_single_n_skips_cross_n_verdicts(self):
        # with one N the W1 verdict compared that N's W1 with itself and always failed
        rep = run_scenario(ScenarioConfig.from_text(
            "scenario = E2\nrun.M = 100\nrun.N = 25\ngrid.nodes = 61\n"))
        name = "W1 to two-atom target smaller at largest N than smallest"
        assert rep.passed
        assert name not in [v[0] for v in rep.verdicts]
        assert f"one sweep value: verdict '{name}' skipped" in rep.notes

    def test_median_is_numpy_median(self):
        # E4's median radius: np.partition's middle value, or the mean of the
        # middle pair, equals np.median bit for bit at odd and even sizes
        gen = np.random.default_rng(23)
        for k in range(1000):
            x = np.abs(gen.normal(size=gen.integers(1, 400))) * gen.uniform(0.1, 10.0)
            if k % 4 == 0:
                x = np.round(x, 1)      # ties
            assert experiments._median(x) == np.median(x)

    def test_e5_eps_must_decrease(self):
        with pytest.raises(ConfigError):
            run_scenario(ScenarioConfig.from_text(
                "scenario = E5\nrun.eps = 0.1, 0.5\n"))


def count_calls(monkeypatch, name, *modules):
    """Count calls of modules[0].<name> made through any of the modules."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in modules:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


class TestComputedOnce:
    def test_e6_reuses_probe_and_last_field(self, monkeypatch):
        values = count_calls(monkeypatch, "value_function", control, experiments)
        solves = count_calls(monkeypatch, "solve_field", experiments)
        rep = run_scenario(ScenarioConfig.from_text(
            "scenario = E6\nmodel.T = 0.25\nrun.N = 25 100\ngrid.nodes = 61\n"))
        # one value_function call on x, x + h, x - h and x + 2h; one field per
        # N, the u(0, 0) row included
        (args,) = values
        x, h = 0.5, 1e-3
        assert np.array_equal(args[1], [[x], [x + h], [x - h], [x + 2 * h]])
        assert len(solves) == 2
        assert [r["probe"] for r in rep.rows] == [0.5, 0.5, 0.0]

    def test_e6_probes_where_it_estimates(self, monkeypatch):
        seen = []

        def kink(spec, nu0, h=1e-3, **kwargs):
            seen.append((np.array(nu0, dtype=float), h))
            return {"verdict": "kink"}

        monkeypatch.setattr(experiments, "differentiability_probe", kink)
        rep = run_scenario(ScenarioConfig.from_text(
            "scenario = E6\nmodel.dim = 2\nmodel.g = radial_logcosh\nprobe.h = 0.01\n"))
        assert not rep.passed
        # the field is read at (nu0, 0), so the probe runs there, with probe.h
        (point, h), = seen
        assert point.tolist() == [0.5, 0.0]
        assert h == 0.01

    @pytest.mark.parametrize("scenario", ["E1", "E2", "E5"])
    def test_normals_drawn_once_per_scenario(self, monkeypatch, scenario):
        draws = count_calls(monkeypatch, "_path_normals", field, experiments)
        text = golden_config(scenario) + {"E1": "run.N = 10 40\n", "E2": "run.N = 25 100\n",
                                          "E5": "run.eps = 0.5 0.25\n"}[scenario]
        run_scenario(ScenarioConfig.from_text(text))
        ((seed, M, rows, d),) = draws
        assert (seed, M, d) == (5, 100, 1)
        assert rows == {"E1": 40, "E2": 100, "E5": 0}[scenario] + 1000

    @pytest.mark.parametrize("scenario, calls", [("E1", 4), ("E2", 4), ("E4", 2), ("E5", 4)])
    def test_one_ensemble_alive_at_a_time(self, monkeypatch, scenario, calls):
        # an E4 ensemble's paths are 32 MB at the defaults: each is dropped
        # before the next field is solved
        ensembles, seen = [], []

        def entered(name):
            original = getattr(experiments, name)

            def wrapper(*args, **kwargs):
                seen.append((name, [ref() is not None for ref in ensembles]))
                out = original(*args, **kwargs)
                if name == "simulate_ensemble":
                    ensembles.append(weakref.ref(out))
                return out
            monkeypatch.setattr(experiments, name, wrapper)

        entered("solve_field")
        entered("simulate_ensemble")
        run_scenario(ScenarioConfig.from_text(golden_config(scenario)))
        assert [name for name, _ in seen] == ["solve_field", "simulate_ensemble"] * calls
        assert not any(any(alive) for _, alive in seen)

    def test_only_e1_keeps_every_node(self, monkeypatch):
        # E2-E5 measure the terminal law, so their ensembles store one node;
        # E1 measures the mean path, so each of its ensembles stores all
        stored = []
        original = experiments.simulate_ensemble

        def recorded(*args, **kwargs):
            ens = original(*args, **kwargs)
            stored.append((ens.paths.shape[1], ens.tgrid.steps))
            return ens

        monkeypatch.setattr(experiments, "simulate_ensemble", recorded)
        for scenario, ensembles in (("E1", 4), ("E2", 4), ("E3", 1), ("E4", 2), ("E5", 4)):
            stored.clear()
            run_scenario(ScenarioConfig.from_text(golden_config(scenario)))
            assert len(stored) == ensembles
            for nodes, steps in stored:
                assert nodes == (steps + 1 if scenario == "E1" else 1)

    def test_e3_solves_riccati_once(self, monkeypatch):
        solves = count_calls(monkeypatch, "delarue_riccati", numerics, potentials, experiments)
        run_scenario(ScenarioConfig.from_text("scenario = E3\nrun.selection = off\n"))
        assert len(solves) == 1


class TestImportCost:
    def fresh_interpreter(self, code: str) -> str:
        """stdout of `code` run in a new interpreter that imports this checkout's mfglab."""
        src = str(Path(experiments.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout

    def test_cli_import_leaves_out_stats_and_optimize(self):
        # numpy is the only runtime dependency: `import mfglab.cli` loads no
        # scipy module at all (scipy.sparse alone took 0.38 s to import)
        probe = ("import sys, mfglab.cli; "
                 "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert self.fresh_interpreter(probe).strip() == "[]"

    def test_solvers_load_no_scipy(self):
        # nor does a solver import one lazily: a 1-d and a 2-d field solve and
        # the closed-form Riccati solves (the field oracle and the Delarue
        # terminal) leave sys.modules free of scipy
        probe = textwrap.dedent("""
            import sys
            import numpy as np
            from mfglab.field import riccati_field_oracle, solve_field, stable_time_grid
            from mfglab.numerics import SpaceGrid, TimeGrid
            from mfglab.potentials import (ModelSpec, make_delarue_terminal,
                                           make_logcosh_terminal, make_quadratic,
                                           make_radial_logcosh)
            for dim, g in ((1, make_logcosh_terminal(4.0)), (2, make_radial_logcosh(4.0, 2))):
                spec = ModelSpec(dim=dim, b=np.zeros((dim, dim)), sigma=1.0, T=1.0,
                                 f=make_quadratic(-1.0, dim), g=g, nu0=np.zeros(dim))
                grid = SpaceGrid.symmetric(3.0, 21, dim)
                solve_field(spec, grid, stable_time_grid(spec, grid, N=25), N=25)
            riccati_field_oracle(ModelSpec(dim=1, b=np.zeros((1, 1)), sigma=1.0, T=1.0,
                                           f=make_quadratic(-1.0, 1), g=make_quadratic(1.0, 1),
                                           nu0=np.zeros(1)), TimeGrid(0.0, 1.0, 100), eps=1.0)
            make_delarue_terminal(0.0, 1.0, 0.1)
            print(sorted(m for m in sys.modules if m.startswith("scipy")))
        """)
        assert self.fresh_interpreter(probe).strip() == "[]"

    def test_e4_loads_no_masked_arrays(self):
        # np.median's NaN check imports numpy.ma (10.7 ms); E4 takes its
        # median radius without it
        probe = textwrap.dedent("""
            import sys
            from mfglab.experiments import ScenarioConfig, run_scenario
            run_scenario(ScenarioConfig.from_text(
                "scenario = E4\\nrun.M = 100\\nrun.N = 25\\ngrid.L = 3\\ngrid.nodes = 41\\n"))
            print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
        """)
        assert self.fresh_interpreter(probe).strip() == "[]"

    def test_setup_loads_no_rng(self):
        # numpy.random is imported at the first draw: importing the CLI and
        # parsing and validating a default E2 config leave sys.modules free of it
        probe = textwrap.dedent("""
            import sys
            import mfglab.cli
            from mfglab.experiments import ScenarioConfig
            ScenarioConfig.from_text("scenario = E2\\n")
            print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
        """)
        assert self.fresh_interpreter(probe).strip() == "[]"


def save_tiny_field(path):
    """A valid field file on a 3-node grid with 2 time steps."""
    save_field_binary(DecouplingField(SpaceGrid.symmetric(1.0, 3, 1), TimeGrid(0.0, 1.0, 2),
                                      np.zeros((3, 3, 1)),
                                      {"kind": "nplayer", "N": 10, "noise_scale": 0.1,
                                       "diffusion": 0.005}),
                      path)


class TestCli:
    def write(self, tmp_path, text, name="cfg.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_run_pass_exit_zero(self, tmp_path, capsys):
        cfg = self.write(tmp_path, E2_SMALL)
        code = cli_main(["run", cfg, "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert list(tmp_path.glob("E2_*.csv"))

    def test_run_verdict_failure_exit_two(self, tmp_path):
        cfg = self.write(tmp_path, E2_SMALL + "verdict.band = 0.00001\n")
        assert cli_main(["run", cfg, "--out-dir", str(tmp_path)]) == 2

    def test_bad_config_exit_one(self, tmp_path):
        cfg = self.write(tmp_path, "scenario = E2\nrun.N = oops\n")
        assert cli_main(["run", cfg, "--out-dir", str(tmp_path)]) == 1

    def test_empty_list_exit_one(self, tmp_path, capsys):
        # an empty run.N / run.eps used to end in an UnboundLocalError or IndexError
        for scenario, key in (("E2", "run.N"), ("E5", "run.eps"), ("E6", "run.N")):
            cfg = self.write(tmp_path, f"scenario = {scenario}\n{key} =\n")
            assert cli_main(["run", cfg, "--out-dir", str(tmp_path)]) == 1
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        *(f"scenario = E2\ngrid.L = {L}\ngrid.nodes = {n}\nrun.N = 25\nrun.M = 100\n"
          for L in (1.0, 0.5) for n in (41, 81)),
        "scenario = E4\ngrid.L = 1.5\ngrid.nodes = 21\nrun.M = 100\n",
        "scenario = E5\ngrid.L = 1.0\ngrid.nodes = 41\nrun.M = 100\n",
    ], ids=["E2-L1-41", "E2-L1-81", "E2-L0.5-41", "E2-L0.5-81", "E4", "E5"])
    def test_domain_inside_target_atom_exit_one(self, tmp_path, capsys, config):
        # the selected atoms at ±1.915 (the ring in E4) lie outside [-L, L]: a typed
        # error before any solve, not a CFL violation of the end nodes
        cfg = self.write(tmp_path, config)
        assert cli_main(["run", cfg, "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "grid.L" in err and "1.915" in err

    def test_missing_config_exit_one(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.cfg")
        for argv in (["run", missing], ["oc-value", missing]):
            assert cli_main(argv) == 1
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["field", "export", "{dir}/missing.bin", "--out", "{dir}/f.csv"],
        ["field", "export", "{bin}", "--out", "{dir}/missing/f.csv"],
        ["replay", "{cfg}", "{dir}/missing.csv"],
        ["field", "solve", "{cfg}", "--N", "25", "--out", "{dir}/missing/f.bin"],
        ["run", "{cfg}", "--out-dir", "{cfg}/out"],
    ], ids=["export-missing-binary", "export-no-out-dir", "replay-missing-report",
            "solve-no-out-dir", "run-uncreatable-out-dir"])
    def test_file_errors_exit_one(self, tmp_path, capsys, monkeypatch, argv):
        # each used to end in an OSError traceback, field solve and run only
        # after the whole solve or scenario
        binp = str(tmp_path / "tiny.bin")
        save_tiny_field(binp)
        cfg = self.write(tmp_path, E2_SMALL)
        solves = count_calls(monkeypatch, "solve_field", experiments)
        assert cli_main([a.format(cfg=cfg, dir=tmp_path, bin=binp) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot ") and "Traceback" not in err
        assert solves == []

    def test_seed_flag_overrides(self, tmp_path, capsys):
        cfg = self.write(tmp_path, E2_SMALL)
        cli_main(["run", cfg, "--out-dir", str(tmp_path), "--seed", "77"])
        produced = list(tmp_path.glob("E2_*.csv"))
        assert produced
        text = max(produced, key=lambda p: p.stat().st_mtime).read_text()
        assert ",77," in text.splitlines()[1]

    def test_oc_enumerate(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "scenario = E2\n")
        assert cli_main(["oc-enumerate", cfg]) == 0
        out = capsys.readouterr().out
        assert "minimizer" in out and "stationary-only" in out
        assert "21 start(s), 0 failed, 3 distinct stationary solution(s)" in out

    def test_oc_value(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "scenario = E2\n")
        assert cli_main(["oc-value", cfg, "--nu0", "0.5"]) == 0
        assert "v(0," in capsys.readouterr().out

    def test_field_solve_and_export(self, tmp_path):
        cfg = self.write(tmp_path, E2_SMALL)
        binp = str(tmp_path / "f.bin")
        assert cli_main(["field", "solve", cfg, "--N", "50", "--out", binp]) == 0
        csvp = str(tmp_path / "f.csv")
        assert cli_main(["field", "export", binp, "--out", csvp]) == 0
        assert open(csvp).readline().strip() == "m1,u1"

    def test_field_solve_reads_safety(self, tmp_path, capsys):
        # field solve used to step at the default safety whatever grid.safety said
        text = "scenario = E2\ngrid.nodes = 41\ngrid.safety = 0.3\n"
        cfg = ScenarioConfig.from_text(text)
        grid = build_grid(cfg, cfg.spec)
        steps = stable_time_grid(cfg.spec, grid, N=25, safety=0.3).steps
        assert steps != stable_time_grid(cfg.spec, grid, N=25).steps
        binp = str(tmp_path / "f.bin")
        assert cli_main(["field", "solve", self.write(tmp_path, text), "--N", "25",
                         "--out", binp]) == 0
        # a field of `steps` time steps holds steps + 1 levels
        assert f"({steps + 1} levels" in capsys.readouterr().out
        assert load_field_binary(binp).tgrid.steps == steps

    def test_field_solve_writes_the_run_field(self, tmp_path, capsys, monkeypatch):
        # E3's selection run solves on [-2, 2] at 1601 nodes; field solve used
        # to write E3's field on the 201-node grid of the other scenarios
        text = "scenario = E3\nrun.M = 100\nrun.N_select = 400\n"
        ensembles = count_calls(monkeypatch, "simulate_ensemble", experiments)
        run_scenario(ScenarioConfig.from_text(text))
        (args,) = ensembles
        assert args[0].grid.shape == (1601,)
        ref, binp = str(tmp_path / "run.bin"), str(tmp_path / "f.bin")
        save_field_binary(args[0], ref)
        assert cli_main(["field", "solve", self.write(tmp_path, text), "--N", "400",
                         "--out", binp]) == 0
        assert "grid (1601,)" in capsys.readouterr().out
        assert Path(binp).read_bytes() == Path(ref).read_bytes()

    def test_field_export_truncated_exit_one(self, tmp_path, capsys):
        cfg = self.write(tmp_path, E2_SMALL)
        binp = tmp_path / "f.bin"
        assert cli_main(["field", "solve", cfg, "--N", "50", "--out", str(binp)]) == 0
        binp.write_bytes(binp.read_bytes()[:-8])
        capsys.readouterr()
        assert cli_main(["field", "export", str(binp), "--out", str(tmp_path / "f.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("config, argv", [
        ("scenario = E2\nrun.N = 0 25\n", ["run", "{cfg}", "--out-dir", "{dir}"]),
        ("scenario = E2\n", ["field", "solve", "{cfg}", "--N", "0", "--out", "{dir}/f.bin"]),
        ("scenario = E6\nprobe.h = 0\n", ["run", "{cfg}", "--out-dir", "{dir}"]),
        ("scenario = E2\ngrid.safety = 0\n", ["run", "{cfg}", "--out-dir", "{dir}"]),
        ("scenario = E2\ngrid.safety = 0\n", ["field", "solve", "{cfg}", "--N", "25",
                                               "--out", "{dir}/f.bin"]),
        ("scenario = E2\n", ["field", "export", "{bin}", "--time-index", "100000",
                             "--out", "{dir}/f.csv"]),
        ("scenario = E2\n", ["field", "export", "{bin}", "--time-index", "-1",
                             "--out", "{dir}/f.csv"]),
        # non-finite numbers used to end in a traceback from splu or brentq
        ("scenario = E2\nmodel.sigma = nan\n", ["run", "{cfg}", "--out-dir", "{dir}"]),
        ("scenario = E2\nmodel.sigma = inf\n", ["run", "{cfg}", "--out-dir", "{dir}"]),
        ("scenario = E2\nmodel.kappa = nan\n", ["run", "{cfg}", "--out-dir", "{dir}"]),
        ("scenario = E5\nrun.eps = 0.5 nan\n", ["run", "{cfg}", "--out-dir", "{dir}"]),
        ("scenario = E2\n", ["field", "solve", "{cfg}", "--eps", "nan", "--out", "{dir}/f.bin"]),
        ("scenario = E2\n", ["field", "solve", "{cfg}", "--eps", "inf", "--out", "{dir}/f.bin"]),
        # a non-finite --nu0 used to run a whole failing enumeration first
        ("scenario = E2\n", ["oc-value", "{cfg}", "--nu0", "nan"]),
        ("scenario = E2\n", ["oc-value", "{cfg}", "--nu0", "inf"]),
        # a negative seed used to reach numpy's SeedSequence and end in a traceback
        ("scenario = E2\n", ["run", "{cfg}", "--out-dir", "{dir}", "--seed", "-2"]),
    ], ids=["run-N-0", "solve-N-0", "probe-h-0", "safety-0", "solve-safety-0",
            "index-past-end", "index-negative", "sigma-nan", "sigma-inf", "kappa-nan",
            "eps-list-nan", "solve-eps-nan", "solve-eps-inf", "oc-value-nu0-nan",
            "oc-value-nu0-inf", "seed-negative"])
    def test_bad_numbers_exit_one(self, tmp_path, capsys, config, argv):
        binp = str(tmp_path / "tiny.bin")
        save_tiny_field(binp)
        cfg = self.write(tmp_path, config)
        args = [a.format(cfg=cfg, dir=tmp_path, bin=binp) for a in argv]
        assert cli_main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        if "--nu0" in argv:
            assert "nu0" in err

    def test_flags_only_where_read(self, tmp_path):
        cfg = self.write(tmp_path, "scenario = E2\n")
        for argv in (["run", cfg, "--threads", "2"],
                     ["run", cfg, "--plots"],
                     ["oc-enumerate", cfg, "--out-dir", "x"],
                     ["field", "export", "f.bin", "--out", "x", "--seed", "1"],
                     ["oc-enumerate", cfg, "--seed", "1"],
                     ["oc-value", cfg, "--seed", "1"],
                     ["field", "solve", cfg, "--N", "10", "--out", "x", "--seed", "1"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_field_solve_needs_one_variant(self, tmp_path):
        cfg = self.write(tmp_path, E2_SMALL)
        out = str(tmp_path / "f.bin")
        assert cli_main(["field", "solve", cfg, "--out", out]) == 1
        assert cli_main(["field", "solve", cfg, "--N", "10", "--eps", "0.1",
                         "--out", out]) == 1

    def test_replay_command(self, tmp_path):
        cfg = self.write(tmp_path, E2_SMALL)
        assert cli_main(["run", cfg, "--out-dir", str(tmp_path)]) == 0
        report = str(next(tmp_path.glob("E2_*.csv")))
        assert cli_main(["replay", cfg, report, "--row", "0"]) == 0
