"""The one integer rule (`errors._integer`) at every time, size, life and
birth age the API takes, the one number rule (`errors._number`) at every
mass, probability, weight, time fraction and parameter, the type of each
law a law holds, and one exit code per error class."""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import astuple

import numpy as np
import pytest

from gwolab import cli, errors
from gwolab.errors import ConfigError, GwolabError, _integer, _number
from gwolab.exact_engine import FddSpec, convergence_table
from gwolab.lifelaw import (
    BellmanHarris,
    DelayedDeath,
    FiniteLife,
    OffspringPMF,
    QuadraticTailLife,
    Sevastyanov,
    Tabulated,
    summarize,
)
from gwolab.limitlaw import (
    FddQuery,
    LawT,
    LimitParams,
    law_T,
    dichotomy_fraction,
    eta_fdd_pgf,
    eta_marginal_pgf,
    eta_marginal_pmf,
    figure1_data,
)
from gwolab.modelio import model_from_dict, model_to_dict
from gwolab.series import TruncatedSeries
from gwolab.simulator import SimConfig
from gwolab.verify import enumerate_joint, fdd_limit_check, limit_convergence, oracle_equivalence, tv_to_limit

BINARY = OffspringPMF([0.5, 0.0, 0.5])


def gw_binary():
    return BellmanHarris(FiniteLife({1: 1.0}), BINARY)


def delayed_c1():
    return DelayedDeath([(0.5, (1, 2)), (0.5, ())], QuadraticTailLife(d=1.125, t_min=2))


# (field named by the error, build from an integer value v); each builds
# cheaply at v = 2
INPUTS = {
    "finite_life": ("life length", lambda v: FiniteLife({v: 1.0})),
    "t_min": ("t_min", lambda v: QuadraticTailLife(1.0, v)),
    "tabulated_age": ("birth ages:", lambda v: Tabulated([(1.0, (v,), 3)])),
    "tabulated_life": ("life length", lambda v: Tabulated([(1.0, (1,), v)])),
    "delayed_age": ("birth ages:", lambda v: DelayedDeath([(1.0, (v,))], FiniteLife({1: 1.0}))),
    "sevastyanov_life": ("offspring_by_life: life", lambda v: Sevastyanov(FiniteLife({2: 1.0}), {v: BINARY}, BINARY)),
    "fdd_time": ("time", lambda v: FddSpec((v,), (0.5,))),
    "fdd_t_obs": ("t_obs", lambda v: FddSpec((3,), (0.5,), t_obs=v)),
    "convergence_grid": ("grid point", lambda v: convergence_table(gw_binary(), (1.0,), (0.5,), (v, 8))),
    "dyadic_grid": ("grid point", lambda v: limit_convergence(gw_binary(), (1.0,), (0.5,), (v, 4, 8))),
    "fdd_limit_grid": ("grid point", lambda v: fdd_limit_check(delayed_c1(), (1.0,), (v, 4), K=2, replicates=20)),
    "t_small": ("t_small", lambda v: oracle_equivalence(gw_binary(), v)),
    "oracle_budget": ("budget", lambda v: oracle_equivalence(gw_binary(), 1, budget=v)),
    "joint_budget": ("budget", lambda v: enumerate_joint(gw_binary(), (1,), budget=v)),
    "saturate": ("saturate", lambda v: enumerate_joint(gw_binary(), (1, 2), saturate=v)),
    "seed": ("seed", lambda v: SimConfig(gw_binary(), 5, (), 1, seed=v)),
    "query_time": ("query time", lambda v: SimConfig(gw_binary(), 5, (v,), 1, 1)),
    "series_nvars": ("nvars", lambda v: TruncatedSeries(v, 2, np.ones((3, 3)))),
    "series_cap": ("cap", lambda v: TruncatedSeries(2, v, np.ones((3, 3)))),
    "sample_size": ("size", lambda v: law_T(LimitParams(1.0)).sample(np.random.default_rng(0), v)),
}


@pytest.mark.parametrize("field, build", INPUTS.values(), ids=INPUTS)
@pytest.mark.parametrize("value", [1.7, 2.0, True], ids=["fraction", "float", "bool"])
def test_refused_naming_the_field(field, build, value):
    # never truncated: 1.7 is not 1, and True is not 1
    with pytest.raises(ConfigError, match=re.escape(f"{field} {value!r} must be an integer")):
        build(value)


@pytest.mark.parametrize("field, build", INPUTS.values(), ids=INPUTS)
@pytest.mark.parametrize("value", [np.int64(2), np.uint8(2)], ids=["int64", "uint8"])
def test_numpy_integers_accepted(field, build, value):
    build(value)


@pytest.mark.parametrize("value", [np.int64(2), np.uint8(2)], ids=["int64", "uint8"])
def test_numpy_integers_stored_as_int(value):
    life = FiniteLife({1: 0.5, value: 0.5})
    model = Sevastyanov(life, {np.int64(2): BINARY}, BINARY)
    assert [type(l) for l in life.support] == [int, int] and [type(l) for l in model.table] == [int]
    assert type(QuadraticTailLife(1.0, value).t_min) is int
    _, ages, life = Tabulated([(1.0, (value,), value)]).atoms[0]
    assert [type(x) for x in (*ages, life)] == [int, int]
    # ints go through JSON, so a model built from numpy integers round-trips
    raw = json.loads(json.dumps(model_to_dict(model)))
    assert model_to_dict(model_from_dict(raw)) == raw


def test_negative_sample_size_refused():
    with pytest.raises(ConfigError, match=re.escape("size -1 must be an integer >= 0")):
        law_T(LimitParams(1.0)).sample(np.random.default_rng(0), -1)


def test_mixed_keys_refused_before_sorting():
    # the key is checked before the pmf is sorted, so "2" is named, not compared
    with pytest.raises(ConfigError, match=re.escape("life length '2'")):
        FiniteLife({1: 0.5, "2": 0.5})


@pytest.mark.parametrize(
    "check, args, message",
    [
        (_integer, (5, "x"), None),
        (_integer, (5, "x", 1, 5), None),
        (_integer, (0, "x", 1), "x 0 must be an integer >= 1"),
        (_integer, (7, "x", 1, 6), "x 7 must be an integer in [1, 6]"),
        (_integer, (2**64, "seed", 0, 2**64 - 1), f"seed {2**64} must be an integer in [0, {2**64 - 1}]"),
        (_integer, (False, "x"), "x False must be an integer"),
        (_number, (0.5, "x"), None),
        (_number, (np.float32(0.5), "x", 0, 1), None),
        (_number, (1, "x", 0, 1), None),
        (_number, (-0.5, "x", 0), "x -0.5 must be a finite number >= 0"),
        (_number, (1.5, "w", 0, 1), "w 1.5 must be a finite number in [0, 1]"),
        (_number, (math.nan, "x", 0), "x nan must be a finite number >= 0"),
        (_number, (-math.inf, "x"), "x -inf must be a finite number"),
        (_number, (10**400, "x"), f"x {10**400} must be a finite number"),
        (_number, (True, "x"), "x True must be a finite number"),
        (_number, (np.bool_(True), "x"), "x np.True_ must be a finite number"),
        (_number, ("0.5", "x"), "x '0.5' must be a finite number"),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_bounds_and_message(check, args, message):
    if message is None:
        got = check(*args)
        assert got == args[0] and type(got) is (int if check is _integer else float)
    else:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            check(*args)


def rest(v):
    """1 - v where v is a number, so that v and rest(v) can be the masses
    of a law; the refusal of v comes first either way."""
    return 1 - v if isinstance(v, numbers.Number) else 0.5


# (field named by the error, build from a number v, the Python floats the
# build stores or returns, or for a figure its first row); each builds at
# v = 0.5 and at v = 1
FLOATS = {
    "offspring_mass": ("offspring pmf: mass", lambda v: OffspringPMF([v, rest(v)]), lambda o: o._masses.probs),
    "finite_life_mass": ("life length pmf: mass", lambda v: FiniteLife({1: v, 2: rest(v)}), lambda o: o.probs),
    "tabulated_prob": (
        "atom probabilities: mass",
        lambda v: Tabulated([(v, (1,), 2), (rest(v), (), 1)]),
        lambda o: [p for p, _, _ in o.atoms],
    ),
    "delayed_prob": (
        "schedule probabilities: mass",
        lambda v: DelayedDeath([(v, (1,)), (rest(v), ())], FiniteLife({1: 1.0})),
        lambda o: [p for p, _ in o.schedules] + [p for p, _, _ in o.atoms],
    ),
    "tail_d": ("tail coefficient d", lambda v: QuadraticTailLife(v, 2), lambda o: (o.d, o.mean)),
    "limit_c": ("c", lambda v: LimitParams(v), lambda o: (o.c, o.scale)),
    "spec_weight": ("weights:", lambda v: FddSpec((3, 4), (v, 0.5)), lambda o: o.z),
    "query_weight": ("weights:", lambda v: FddQuery((1.0, 2.0), (v, 0.5)), lambda o: o.z),
    "query_point": ("query points:", lambda v: FddQuery((v,), (0.5,)), lambda o: o.y),
    "marginal_pgf_y": ("y", lambda v: eta_marginal_pgf(LimitParams(1.0), v, 0.5), lambda r: (r,)),
    "marginal_pgf_z": ("z", lambda v: eta_marginal_pgf(LimitParams(1.0), 1.0, v), lambda r: (r,)),
    "marginal_pmf_y": (
        "y",
        lambda v: eta_marginal_pmf(LimitParams(1.0), v, 3),
        lambda r: (r.y, r.finite_remainder, r.infinite_mass),
    ),
    "dichotomy_c": ("c", dichotomy_fraction, lambda r: (r,)),
    "figure_c": ("c", lambda v: figure1_data(v, step=0.5, y_max=2.0), lambda t: t[0].tolist()),
    "figure_step": ("step", lambda v: figure1_data(1.0, step=v, y_max=2.0), lambda t: t[0].tolist()),
    "figure_y_max": ("y_max", lambda v: figure1_data(1.0, step=0.25, y_max=v), lambda t: t[0].tolist()),
    "model_prob": (
        "prob: value",
        lambda v: model_from_dict({"variant": "tabulated", "atoms": [
            {"prob": v, "birth_ages": [1], "life": 2}, {"prob": rest(v), "birth_ages": [], "life": 1}]}),
        lambda o: [p for p, _, _ in o.atoms],
    ),
}


@pytest.mark.parametrize("field, build, _", FLOATS.values(), ids=FLOATS)
@pytest.mark.parametrize(
    "value", [True, "2", math.nan, math.inf, 10**400], ids=["bool", "text", "nan", "inf", "too_large"]
)
def test_float_refused_naming_the_field(field, build, _, value):
    with pytest.raises(ConfigError, match=re.escape(f"{field} {value!r} must be a finite number")):
        build(value)


@pytest.mark.parametrize("_, build, stored", FLOATS.values(), ids=FLOATS)
@pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5), 1], ids=["float32", "float64", "int"])
def test_numbers_stored_as_float(_, build, stored, value):
    kept = stored(build(value))
    assert kept and [type(x) for x in kept] == [float] * len(kept)


# each result of a float32 input is that of its float-built twin, bit for
# bit: every derived field is computed from the stored float
TWINS = {
    "tail_mean": (np.float32(1.5), lambda v: QuadraticTailLife(v, 2).mean),
    "tail_summary": (np.float32(1.5), lambda v: astuple(summarize(BellmanHarris(QuadraticTailLife(v, 2), BINARY)))),
    "life_summary": (
        np.float32(0.3),
        lambda v: astuple(summarize(BellmanHarris(FiniteLife({1: v, 2: 1 - float(v)}), BINARY))),
    ),
    "limit_scale": (np.float32(0.3), lambda v: LimitParams(v).scale),
    "fdd_pgf": (np.float32(0.3), lambda v: eta_fdd_pgf(LimitParams(v), FddQuery((1, 2), (0.3, 0.5)))),
    "law_T_pdf": (np.float32(0.3), lambda v: LawT(LimitParams(v)).pdf(np.array([0.0, 0.5, 2.0]))),
    "marginal_pmf_c": (np.float32(0.3), lambda v: eta_marginal_pmf(LimitParams(v), 0.5, 4).probs),
    "marginal_pmf_y": (np.float32(0.3), lambda v: eta_marginal_pmf(LimitParams(1.0), v, 4).probs),
    "marginal_pgf_z": (np.float32(0.3), lambda v: eta_marginal_pgf(LimitParams(1.0), 0.5, v)),
    "dichotomy": (np.float32(0.3), dichotomy_fraction),
    "figure": (np.float32(0.3), lambda v: figure1_data(v, step=0.25, y_max=2.0)),
}


@pytest.mark.parametrize("value, build", TWINS.values(), ids=TWINS)
def test_float32_results_match_their_float_twins(value, build):
    got, want = build(value), build(float(value))
    assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()



def test_tv_to_limit_c_follows_the_number_rule():
    # True == 1.0, the model's c, so only the rule refuses it
    for value in (True, "1", math.nan):
        with pytest.raises(ConfigError, match=re.escape(f"c {value!r} must be a finite number")):
            tv_to_limit(delayed_c1(), (1.0,), 16, 6, value)


# (field named by the error, a build that puts something else where a
# law holds a law)
NESTED = {
    "sevastyanov_table": ("offspring_by_life: 1", lambda: Sevastyanov(FiniteLife({1: 1.0}), {1: [0.5, 0.0, 0.5]})),
    "sevastyanov_default": ("offspring_default", lambda: Sevastyanov(FiniteLife({1: 1.0}), {}, [0.5, 0.0, 0.5])),
    "sevastyanov_life": ("life", lambda: Sevastyanov(BINARY, {}, BINARY)),
    "bellman_harris_offspring": ("offspring", lambda: BellmanHarris(FiniteLife({1: 1.0}), [0.5, 0.0, 0.5])),
    "bellman_harris_life": ("life", lambda: BellmanHarris([1.0], BINARY)),
    "delayed_residual": ("residual", lambda: DelayedDeath([(1.0, (1,))], [1.0])),
    "delayed_no_residual": ("residual", lambda: DelayedDeath([(1.0, (1,))], None)),  # Tabulated has none
}


@pytest.mark.parametrize("field, build", NESTED.values(), ids=NESTED)
def test_nested_law_refused_naming_the_field(field, build):
    with pytest.raises(ConfigError, match=f"^{re.escape(field)} must be of type "):
        build()


def test_every_error_class_has_its_own_exit_code():
    classes = {v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, GwolabError)}
    assert set(cli.EXIT_CODES) == classes - {GwolabError}
    codes = list(cli.EXIT_CODES.values())
    # 0 is success, 1 an uncaught exception, and 9 was the code of a class without one
    assert len(set(codes)) == len(codes) and not {0, 1, 9} & set(codes)
