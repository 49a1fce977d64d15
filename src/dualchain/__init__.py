"""Two-coin proof-of-work mining game toolkit.

Analytic payoffs and Nash-equilibrium sets, zone-flow dynamics,
a block-level twin-chain simulator, and hash-rate series reconstruction.

The public names below resolve on first use (PEP 562), so importing the
package, or one of its modules, loads only what the caller touches.
"""

import importlib
import sys
import types

# public name -> module that defines it
_EXPORTS = {
    **dict.fromkeys(("GameConfig", "MiningState", "Schedule", "Strategy", "Zone", "c_max",
                     "coexist_rb", "config_from_json", "validate_config"), "core"),
    **dict.fromkeys(("PayoffTriple", "ap_fickle", "payoff", "payoff_triple"), "payoff"),
    **dict.fromkeys(("DeviationReport", "EquilibriumSet", "Segment", "boundary13_rb",
                     "boundary23_rb", "equilibria", "finite_deviation", "solve_alpha",
                     "solve_beta", "x_threshold", "zone_of"), "equilibrium"),
    **dict.fromkeys(("FlowConfig", "Outcome", "Trajectory", "automatic_threshold",
                     "simulate_flow", "step_best_response"), "dynamics"),
    **dict.fromkeys(("ChainWorld", "EpochFixed", "EpochWithEda", "MinerAgent", "PerBlockWindow",
                     "SimReport", "eda_expected_nde", "empirical_payoffs", "run",
                     "sample_series"), "chainsim"),
    **dict.fromkeys(("FicklePeriod", "detect_fickle_periods", "estimate_state_path",
                     "load_series", "zone_path"), "ingest"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Loading the submodule `payoff` binds it as a package attribute,
        # which would hide the exported function of that name.
        if not (name in _EXPORTS and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
