"""The one integer rule (`errors._integer`) at every time, size, life and
birth age the API takes."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from gwolab.errors import ConfigError, _integer
from gwolab.exact_engine import FddSpec, convergence_table
from gwolab.lifelaw import (
    BellmanHarris,
    DelayedDeath,
    FiniteLife,
    OffspringPMF,
    QuadraticTailLife,
    Sevastyanov,
    Tabulated,
)
from gwolab.modelio import model_from_dict, model_to_dict
from gwolab.simulator import SimConfig
from gwolab.verify import enumerate_joint, fdd_limit_check, limit_convergence, oracle_equivalence

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


def test_mixed_keys_refused_before_sorting():
    # the key is checked before the pmf is sorted, so "2" is named, not compared
    with pytest.raises(ConfigError, match=re.escape("life length '2'")):
        FiniteLife({1: 0.5, "2": 0.5})


@pytest.mark.parametrize(
    "args, message",
    [
        ((5, "x"), None),
        ((5, "x", 1, 5), None),
        ((0, "x", 1), "x 0 must be an integer >= 1"),
        ((7, "x", 1, 6), "x 7 must be an integer in [1, 6]"),
        ((2**64, "seed", 0, 2**64 - 1), f"seed {2**64} must be an integer in [0, {2**64 - 1}]"),
        ((False, "x"), "x False must be an integer"),
    ],
)
def test_bounds_and_message(args, message):
    if message is None:
        assert _integer(*args) == args[0]
    else:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            _integer(*args)
