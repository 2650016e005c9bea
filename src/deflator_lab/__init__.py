"""Exact arbitrage diagnostics on finite event trees, supermartingale
deflators, dominating measures on the death-time extension, initial
filtration enlargements, and a seeded Monte Carlo engine for the
continuous-time counterparts."""

from .arbitrage import (ArbitrageReport, UtilityCurve, WealthProblem,
                        build_utility, check_both, check_na, check_na1,
                        finite_utility_check)
from .deflator import (Deflator, Na1FailsOnAtom, construct_deflator,
                       one_period_density, verify_deflation)
from .enlargement import (EnlargementSpec, generalized_jacod_check,
                          insider_example, jacod_check, log_utility_identity,
                          na1_in_enlargement, universal_density)
from .filtered_space import (AdaptedProcess, EventTree, ProbMeasure,
                             StoppingTime, Strategy, conditional_expectation,
                             doob_decomposition, martingale_closure,
                             stochastic_integral)
from .kunita_yoeurp import (DominatingMeasure, EnlargedSpace,
                            build_dominating_measure, check_stopped_price,
                            verify_ky, yoeurp_expectation)

__version__ = "0.1.0"

# The Monte Carlo engine needs numpy; it loads on first use of one of these
# names (PEP 562), so the exact tree-side API imports without it.
_MONTECARLO = (
    "DiffusionScenario", "InsiderDriftScenario", "LevyScenario",
    "MartingaleTest", "PathBatch", "information_drift_deflator",
    "simulate_deflated_wealth", "simulate_levy_counterexample",
    "simulate_survival_measure",
)


def __getattr__(name: str):
    if name in _MONTECARLO:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdaptedProcess", "ArbitrageReport", "Deflator", "DiffusionScenario",
    "DominatingMeasure", "EnlargedSpace", "EnlargementSpec", "EventTree",
    "InsiderDriftScenario", "LevyScenario", "MartingaleTest",
    "Na1FailsOnAtom", "PathBatch", "ProbMeasure", "StoppingTime", "Strategy",
    "UtilityCurve", "WealthProblem", "build_dominating_measure",
    "build_utility", "check_both", "check_na", "check_na1",
    "check_stopped_price", "conditional_expectation", "construct_deflator",
    "doob_decomposition", "finite_utility_check", "generalized_jacod_check",
    "information_drift_deflator", "insider_example", "jacod_check",
    "log_utility_identity", "martingale_closure", "na1_in_enlargement",
    "one_period_density", "simulate_deflated_wealth",
    "simulate_levy_counterexample", "simulate_survival_measure",
    "stochastic_integral", "universal_density", "verify_deflation",
    "verify_ky", "yoeurp_expectation",
]
