"""Critical branching processes with overlapping generations.

Exact extinction/joint-distribution recursions, conditioned Monte Carlo,
and the one-parameter pure-death limit laws, plus verification harnesses
tying the three routes together.
"""

from __future__ import annotations

from . import cli, errors, exact_engine, lifelaw, limitlaw, modelio, philox, series, simulator, verify
from .errors import (
    BudgetExhausted,
    CapTooLarge,
    ConfigError,
    DivergentMoment,
    GwolabError,
    NonpositiveConstantTerm,
    OracleBlowup,
    ShapeMismatch,
    UnsupportedModel,
    ZeroConditioningEvent,
)
from .exact_engine import (
    ConditionalPmf,
    ConvergenceRow,
    ExtinctionTable,
    FddSpec,
    conditional_pgf,
    conditional_pmf,
    convergence_csv,
    convergence_table,
    extinction_seq,
    fdd_pgf,
)
from .lifelaw import (
    BellmanHarris,
    DelayedDeath,
    FiniteLife,
    ModelSummary,
    OffspringPMF,
    QuadraticTailLife,
    Sevastyanov,
    Tabulated,
    compound_params,
    phi,
    summarize,
)
from .limitlaw import (
    FddPmf,
    FddQuery,
    LawT,
    LawT0,
    LimitParams,
    MarginalPmf,
    dichotomy_fraction,
    eta_fdd_pgf,
    eta_fdd_pmf,
    eta_marginal_pgf,
    eta_marginal_pmf,
    figure1_data,
    increment_pgf,
    law_T,
    law_T0,
    prob_finite,
    prob_zero,
)
from .modelio import dump_model, life_from_dict, life_to_dict, load_model, model_from_dict, model_to_dict
from .simulator import (
    DichotomyStats,
    SimConfig,
    SimResult,
    conditional_sample,
    default_cutoff,
    dichotomy_stats,
    simulate,
)
from .verify import (
    CheckRow,
    RunReport,
    enumerate_joint,
    fdd_limit_check,
    limit_convergence,
    oracle_equivalence,
    report_json,
    richardson,
    run_battery,
    tree_pgf,
    tv_to_limit,
)

__all__ = [
    # submodules
    "cli", "errors", "exact_engine", "lifelaw", "limitlaw", "modelio", "philox", "series",
    "simulator", "verify",
    # errors
    "GwolabError", "ConfigError", "DivergentMoment", "ShapeMismatch",
    "NonpositiveConstantTerm", "UnsupportedModel", "ZeroConditioningEvent",
    "CapTooLarge", "BudgetExhausted", "OracleBlowup",
    # model building blocks
    "OffspringPMF", "phi", "FiniteLife", "QuadraticTailLife", "Tabulated",
    "BellmanHarris", "Sevastyanov", "DelayedDeath", "ModelSummary",
    "compound_params", "summarize",
    # exact recursions
    "FddSpec", "ExtinctionTable", "extinction_seq", "fdd_pgf", "conditional_pgf",
    "ConditionalPmf", "conditional_pmf", "ConvergenceRow", "convergence_table",
    "convergence_csv",
    # limit laws
    "LimitParams", "FddQuery", "prob_finite", "prob_zero", "eta_marginal_pgf",
    "eta_fdd_pgf", "MarginalPmf", "eta_marginal_pmf", "FddPmf", "eta_fdd_pmf",
    "increment_pgf", "LawT", "LawT0", "law_T", "law_T0", "dichotomy_fraction",
    "figure1_data",
    # model file I/O
    "life_from_dict", "life_to_dict", "model_from_dict", "model_to_dict",
    "load_model", "dump_model",
    # simulation
    "SimConfig", "SimResult", "simulate", "conditional_sample", "DichotomyStats",
    "default_cutoff", "dichotomy_stats",
    # verification
    "CheckRow", "RunReport", "report_json", "enumerate_joint", "tree_pgf",
    "oracle_equivalence", "richardson", "limit_convergence", "tv_to_limit",
    "fdd_limit_check", "run_battery",
]
__version__ = "0.1.0"
