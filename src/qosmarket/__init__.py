"""Subscription markets where service quality degrades with load.

Users hold private valuations for quality; a provider posts a price and
the subscriber share settles where the marginal user is indifferent.
The package covers the single-provider fixed-point dynamics and its
variants, revenue-optimal pricing with distribution-free bounds,
price-taking competition against a fixed-quality incumbent, quantity
competition between two providers, technology selection under entry
costs, and affine fits of measured quality curves.  The ``qosmarket``
console script drives everything from JSON scenario files.
"""

from . import (
    cli,
    competition,
    duopoly,
    monopoly,
    qos,
    revenue,
    scenario,
    selection,
    valuation,
)
from .competition import (
    CournotGame,
    NashOutcome,
    SupermodularityReport,
    best_response,
    best_response_closed,
    nash_solve,
    nash_solve_multi,
    supermodularity_check,
)
from .duopoly import (
    DuopolyEquilibrium,
    DuopolyMarket,
    Regime,
    convergence_condition_duopoly,
    equilibrium_duopoly,
    simulate_duopoly,
)
from .errors import (
    DomainError,
    FitError,
    MarketError,
    ModelError,
    NonConvergenceError,
    ScenarioError,
)
from .monopoly import (
    ConditionReport,
    DynamicsTrace,
    MonopolyMarket,
    MonopolyVariant,
    Partial,
    PositiveExternality,
    SwitchingCost,
    Synchronous,
    convergence_condition,
    convergence_condition_partial,
    convergence_condition_positive_ext,
    equilibrium,
    equilibrium_closed_form,
    simulate,
    switching_cost_equilibrium_band,
)
from .qos import AffineFit, QoSModel, Technology, fit_affine
from .revenue import (
    OptimumBounds,
    RevenueOptimum,
    optimize,
    optimum_bounds,
    optimum_closed_form,
)
from .scenario import DynamicsSpec, Scenario, load_scenario
from .selection import DecisionMap, SelectionProblem, SelectionResult, decision_map, select
from .valuation import ValuationDistribution

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "MarketError",
    "DomainError",
    "ModelError",
    "FitError",
    "NonConvergenceError",
    "ScenarioError",
    # valuations and QoS
    "ValuationDistribution",
    "QoSModel",
    "Technology",
    "AffineFit",
    "fit_affine",
    # single provider
    "MonopolyMarket",
    "Synchronous",
    "Partial",
    "SwitchingCost",
    "PositiveExternality",
    "MonopolyVariant",
    "DynamicsTrace",
    "ConditionReport",
    "simulate",
    "equilibrium",
    "equilibrium_closed_form",
    "convergence_condition",
    "convergence_condition_partial",
    "convergence_condition_positive_ext",
    "switching_cost_equilibrium_band",
    # pricing
    "RevenueOptimum",
    "OptimumBounds",
    "optimize",
    "optimum_closed_form",
    "optimum_bounds",
    # fixed-price duopoly
    "DuopolyMarket",
    "Regime",
    "DuopolyEquilibrium",
    "simulate_duopoly",
    "equilibrium_duopoly",
    "convergence_condition_duopoly",
    # quantity competition
    "CournotGame",
    "NashOutcome",
    "SupermodularityReport",
    "best_response",
    "best_response_closed",
    "supermodularity_check",
    "nash_solve",
    "nash_solve_multi",
    # technology choice
    "SelectionProblem",
    "SelectionResult",
    "DecisionMap",
    "select",
    "decision_map",
    # scenarios
    "DynamicsSpec",
    "Scenario",
    "load_scenario",
    # submodules
    "valuation",
    "qos",
    "monopoly",
    "revenue",
    "duopoly",
    "competition",
    "selection",
    "scenario",
    "cli",
]
