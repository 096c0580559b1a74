"""Desk-scale toolkit for controlled jump-diffusions under volatility
ambiguity: scenario-family sublinear expectations, strict and relaxed
controls, forward simulation, variational systems, adjoint processes and
maximum-principle checks.
"""

# defined before the submodule imports: experiments reads it back out
# of the partially initialized package
__version__ = "0.1.0"

from .adjoint import (
    AdjointTriple,
    BSDERepresentation,
    MPCheckReport,
    NearOptimalReport,
    StabilityReport,
    bsde_stability_report,
    driver_lipschitz_audit,
    hamiltonian,
    mp_check_near,
    mp_check_relaxed,
    mp_check_strict,
    solve_adjoint,
)
from .controls import (
    ActionGrid,
    RelaxedControl,
    SpikeSpec,
    StrictControl,
    chattering,
    constant_strict,
    ekeland_distance,
    embed_strict,
    spike,
    uniform_relaxed,
)
from .costs import (
    ChatteringReport,
    CostReport,
    chattering_report,
    evaluate_cost,
    value_bruteforce,
)
from .experiments import (
    build_experiment,
    load_config,
    run_document,
    validate_document,
)
from .jumps import Drivers, MarkSpace, sample_drivers
from .models import MODEL_BUILDERS, MODEL_PARAM_DOCS, ModelSpec, build_model
from .scenarios import (
    ScenarioFamily,
    TimeGrid,
    UpperMean,
    VolatilityBounds,
    VolatilityScenario,
    build_scenario_family,
    generator_G,
    upper_expectation,
)
from .sde import StateEnsemble, simulate, simulate_batch, sup_distance
from .variational import (
    DerivativeReport,
    FundamentalPair,
    difference_quotient_gap,
    gateaux_derivative,
    solve_fundamental,
    solve_variational,
)

__all__ = [
    "ActionGrid",
    "AdjointTriple",
    "BSDERepresentation",
    "ChatteringReport",
    "CostReport",
    "DerivativeReport",
    "Drivers",
    "FundamentalPair",
    "MarkSpace",
    "ModelSpec",
    "MODEL_BUILDERS",
    "MODEL_PARAM_DOCS",
    "MPCheckReport",
    "NearOptimalReport",
    "RelaxedControl",
    "ScenarioFamily",
    "SpikeSpec",
    "StabilityReport",
    "StateEnsemble",
    "StrictControl",
    "TimeGrid",
    "UpperMean",
    "VolatilityBounds",
    "VolatilityScenario",
    "bsde_stability_report",
    "build_experiment",
    "build_model",
    "build_scenario_family",
    "chattering",
    "chattering_report",
    "constant_strict",
    "driver_lipschitz_audit",
    "ekeland_distance",
    "embed_strict",
    "evaluate_cost",
    "gateaux_derivative",
    "generator_G",
    "difference_quotient_gap",
    "hamiltonian",
    "load_config",
    "mp_check_near",
    "mp_check_relaxed",
    "mp_check_strict",
    "run_document",
    "sample_drivers",
    "simulate",
    "simulate_batch",
    "solve_adjoint",
    "solve_fundamental",
    "solve_variational",
    "spike",
    "sup_distance",
    "uniform_relaxed",
    "upper_expectation",
    "validate_document",
    "value_bruteforce",
    "__version__",
]
