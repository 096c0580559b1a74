"""Desk-scale toolkit for controlled jump-diffusions under volatility
ambiguity: scenario-family sublinear expectations, strict and relaxed
controls, forward simulation, variational systems, adjoint processes and
maximum-principle checks.
"""

# defined before the submodule imports: experiments reads it back out
# of the partially initialized package
__version__ = "0.1.0"

from .adjoint import (
    MPCheckReport,
    NearOptimalReport,
    StabilityReport,
    bsde_stability_report,
    hamiltonian,
    mp_check_near,
    mp_check_relaxed,
)
from .controls import (
    ActionGrid,
    RelaxedControl,
    StrictControl,
    chattering,
    constant_strict,
    ekeland_distance,
    embed_strict,
    spike,
    spike_window,
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
    build_scenario_family,
    generator_G,
    upper_expectation,
)
from .sde import StateEnsemble, simulate
from .variational import (
    DerivativeReport,
    fundamental_steps,
    spike_report,
)

__all__ = [
    "ActionGrid",
    "ChatteringReport",
    "CostReport",
    "DerivativeReport",
    "Drivers",
    "MarkSpace",
    "ModelSpec",
    "MODEL_BUILDERS",
    "MODEL_PARAM_DOCS",
    "MPCheckReport",
    "NearOptimalReport",
    "RelaxedControl",
    "ScenarioFamily",
    "StabilityReport",
    "StateEnsemble",
    "StrictControl",
    "TimeGrid",
    "UpperMean",
    "VolatilityBounds",
    "bsde_stability_report",
    "build_experiment",
    "build_model",
    "build_scenario_family",
    "chattering",
    "chattering_report",
    "constant_strict",
    "ekeland_distance",
    "embed_strict",
    "evaluate_cost",
    "fundamental_steps",
    "generator_G",
    "hamiltonian",
    "load_config",
    "mp_check_near",
    "mp_check_relaxed",
    "run_document",
    "sample_drivers",
    "simulate",
    "spike",
    "spike_report",
    "spike_window",
    "uniform_relaxed",
    "upper_expectation",
    "validate_document",
    "value_bruteforce",
    "__version__",
]
