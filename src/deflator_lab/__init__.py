"""Exact arbitrage diagnostics on finite event trees, supermartingale
deflators, dominating measures on the death-time extension, initial
filtration enlargements, and a seeded Monte Carlo engine for the
continuous-time counterparts."""

__version__ = "0.1.0"

# Every name loads its module on first use (PEP 562): importing the package,
# or one command of the CLI, compiles only the modules that are needed, and
# the exact tree-side API never imports numpy.
_EXPORTS = {
    "arbitrage": ("ArbitrageReport", "WealthProblem", "check_na1",
                  "one_step_program"),
    "deflator": ("Deflator", "Na1FailsOnAtom", "construct_deflator",
                 "verify_deflation"),
    "enlargement": ("EnlargementSpec", "insider_example", "jacod_check",
                    "log_utility_identity", "universal_density"),
    "filtered_space": ("AdaptedProcess", "EventTree", "ProbMeasure",
                       "StoppingTime", "Strategy", "stochastic_integral"),
    "kunita_yoeurp": ("DominatingMeasure", "EnlargedSpace",
                      "build_dominating_measure", "check_stopped_price",
                      "verify_ky", "yoeurp_expectation"),
    "martingale": ("conditional_expectation", "doob_decomposition",
                   "martingale_closure"),
    "montecarlo": ("DiffusionScenario", "InsiderDriftScenario", "LevyScenario",
                   "MartingaleTest", "PathBatch", "information_drift_deflator",
                   "simulate_deflated_wealth", "simulate_levy_counterexample",
                   "simulate_survival_measure"),
    "utility": ("UtilityCurve", "build_utility", "finite_utility_check"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))


__all__ = sorted(_MODULE_OF)
