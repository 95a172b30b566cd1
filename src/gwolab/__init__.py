"""Critical branching processes with overlapping generations.

Exact extinction/joint-distribution recursions, conditioned Monte Carlo,
and the one-parameter pure-death limit laws, plus verification harnesses
tying the three routes together.

`import gwolab` loads no submodule.  Each name below is imported from its
home submodule on first use (PEP 562), so loading and summarizing a
model loads only `errors`, `lifelaw` and `modelio`.  The submodules
themselves (`gwolab.verify`, ...) are served the same way; and since the
package does not import `gwolab.cli`, `python -m gwolab.cli` runs
without runpy's RuntimeWarning.
"""

from __future__ import annotations

import importlib

# home submodule -> the public names it exports
_EXPORTS = {
    "cli": (),
    "errors": (
        "GwolabError", "ConfigError", "CapTooLarge", "BudgetExhausted",
    ),
    "lifelaw": (
        "OffspringPMF", "FiniteLife", "QuadraticTailLife", "Tabulated", "BellmanHarris",
        "Sevastyanov", "Scheduled", "DelayedDeath", "ModelSummary", "compound_params", "summarize",
    ),
    "exact_engine": (
        "FddSpec", "ExtinctionTable", "extinction_seq", "fdd_pgf", "conditional_pgf",
        "ConditionalPmf", "conditional_pmf", "ConvergenceRow", "convergence_table",
        "convergence_csv",
    ),
    "limitlaw": (
        "LimitParams", "FddQuery", "prob_finite", "eta_marginal_pgf", "eta_fdd_pgf",
        "MarginalPmf", "eta_marginal_pmf", "FddPmf", "eta_fdd_pmf", "LawT", "LawT0",
        "law_T", "dichotomy_fraction", "figure1_data",
    ),
    "modelio": (
        "life_from_dict", "life_to_dict", "model_from_dict", "model_to_dict", "load_model",
    ),
    "philox": (),
    "series": (),
    "simulator": (
        "SimConfig", "SimResult", "simulate", "conditional_sample", "DichotomyStats",
        "default_cutoff", "dichotomy_stats",
    ),
    "verify": (
        "CheckRow", "RunReport", "report_json", "enumerate_joint", "tree_pgf",
        "oracle_equivalence", "richardson", "limit_convergence", "tv_to_limit",
        "fdd_limit_check", "run_battery",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a submodule, or the home submodule of a public name, on
    first use, and keep the value in the package namespace."""
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
