"""Distributed bundle-based task allocation via submodular maximization.

The library is organized in layers: ``core`` (utility oracles, marginal
gains, curvature, performance-bound certificates), ``constraints``
(hereditary independence systems), ``solvers`` (the distributed bundle
protocol, centralized greedy, exact search, flooding-auction baseline),
``scenario`` (the satellite active-observation simulation) and ``harness``
(Monte Carlo experiments, bound verification, scaling measurement).
"""

from .constraints import (
    BudgetConstraint,
    CompositeConstraint,
    ConflictFreeConstraint,
    IndependenceSystem,
    MatchingConstraint,
    PartitionConstraint,
    estimate_q,
    verify_q_property,
)
from .core import (
    BoundCertificate,
    ContractViolation,
    DegenerateOracleError,
    GroundElement,
    ModularOracle,
    Policy,
    SizeLimitExceeded,
    TableOracle,
    UtilityOracle,
    bound_certificate,
    estimate_elemental_curvature,
    make_policy,
    marginal_gain,
    xi_factor,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    RunMetrics,
    measure_scaling,
    run_experiment,
    verify_bound_suite,
    write_outputs,
)
from .scenario import SatelliteScenario, ScenarioConfig, sample_scenario
from .solvers import (
    AllocationScenario,
    BundleState,
    SolverResult,
    StaticScenario,
    auction_baseline,
    check_allocation_trace,
    dgba_run,
    exact_oracle,
    sequential_greedy,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationScenario",
    "BoundCertificate",
    "BudgetConstraint",
    "BundleState",
    "CompositeConstraint",
    "ConfigError",
    "ConflictFreeConstraint",
    "ContractViolation",
    "DegenerateOracleError",
    "ExperimentConfig",
    "ExperimentResult",
    "GroundElement",
    "IndependenceSystem",
    "MatchingConstraint",
    "ModularOracle",
    "PartitionConstraint",
    "Policy",
    "RunMetrics",
    "SatelliteScenario",
    "ScenarioConfig",
    "SizeLimitExceeded",
    "SolverResult",
    "StaticScenario",
    "TableOracle",
    "UtilityOracle",
    "auction_baseline",
    "bound_certificate",
    "check_allocation_trace",
    "dgba_run",
    "estimate_elemental_curvature",
    "estimate_q",
    "exact_oracle",
    "make_policy",
    "marginal_gain",
    "measure_scaling",
    "run_experiment",
    "sample_scenario",
    "sequential_greedy",
    "verify_bound_suite",
    "verify_q_property",
    "write_outputs",
    "xi_factor",
]
