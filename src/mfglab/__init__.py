"""Numerical laboratory for empirical-mean equilibria of linear-quadratic
potential games: deterministic limit control, decoupling-field PDE solves,
path ensembles, and selection-principle experiments."""

from .control import (
    OCSolution,
    StationarySet,
    differentiability_probe,
    enumerate_stationary,
    shoot,
    symmetric_minimizer_root,
    value_function,
)
from .errors import (
    CflViolation,
    ConfigError,
    InvalidInput,
    InvalidOracle,
    InvalidParameter,
    KinkQuery,
    MfgLabError,
    NoStationaryPoint,
    PdeDiverged,
    RiccatiEscape,
)
from .experiments import ScenarioConfig, ScenarioReport, run_scenario
from .field import (
    DecouplingField,
    PathEnsemble,
    load_field_binary,
    riccati_field_oracle,
    save_field_binary,
    simulate_ensemble,
    solve_field,
    stable_time_grid,
)
from .numerics import (
    RngStream,
    SpaceGrid,
    TimeGrid,
    delarue_riccati,
    integrate_ode,
    kuiper_uniformity,
    riccati_backward,
    wasserstein1_1d,
)
from .potentials import (
    ModelSpec,
    Potential,
    corrected_gradient,
    from_name,
    make_delarue_terminal,
    make_logcosh_terminal,
    make_quadratic,
    make_radial_logcosh,
    make_zero,
)

__version__ = "0.1.0"
