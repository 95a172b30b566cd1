"""Pinned outputs of the scalar DP.

`extinction_seq`, `convergence_table` and `conditional_pgf` run the DP on
floats, through the birth-at-death kernel (Bellman-Harris, Sevastyanov)
or the scheduled one (Tabulated, DelayedDeath, and the short finite
lives of binary_splitting and age_dependent_offspring as atoms).  The values in
`pinned_scalar.json` were computed before the step loops were cut down to
the work that depends on earlier steps, and are frozen.  They are gated at
1e-9 relative, not bit for bit: a dot summed in another order, as BLAS
may on another CPU or with another thread count, moves the last bits
(by 8.7e-13 relative on the heavy-tail `convergence_table` row at
t = 2^14 when OpenBLAS splits the long dots over two threads).  Running
this file as a script rewrites the JSON from the code it imports, so do
that only against the reference implementation, never to make a failing
pin pass.

`pinned_scheduled.json` holds, bit for bit, the sha256 of the whole
survival column at 2^16 of each model the scheduled kernel runs.  Those
columns use only Python float and elementwise numpy arithmetic, which
IEEE rounds the same way on every host, so they do not depend on the
BLAS or its threads.  The script leaves that file alone.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from gwolab import FddSpec, conditional_pgf, convergence_table, extinction_seq, load_model

HERE = Path(__file__).resolve().parent
MODEL_DIR = HERE.parent / "docs" / "models"
PINS = HERE / "pinned_scalar.json"
SCHEDULED_PINS = json.loads((HERE / "pinned_scheduled.json").read_text())
RTOL = 1e-9

MODELS = ["age_dependent_offspring", "binary_splitting", "delayed_death", "early_births", "heavy_tail_life"]
T_MAX = 1 << 14
CHECKPOINTS = [1 << j for j in range(15)]  # Q(t) read at t = 2^j <= T_MAX
CONVERGENCE_MODELS = ["heavy_tail_life", "delayed_death"]
GRID = [1 << j for j in range(10, 13)]
CONDITIONAL_SPEC = ((1024, 2048), (0.3, 0.5), 1024)  # (times, z, t_obs)


def _model(name: str):
    return load_model(str(MODEL_DIR / f"{name}.json"))


def _survival(name: str) -> list:
    return extinction_seq(_model(name), T_MAX).q[CHECKPOINTS].tolist()


def _convergence(name: str) -> list:
    return [row.q_k for row in convergence_table(_model(name), (1.0, 2.0), (0.0, 0.5), GRID)]


def _conditional(name: str) -> float:
    times, z, t_obs = CONDITIONAL_SPEC
    return conditional_pgf(_model(name), FddSpec(times, z, t_obs=t_obs))


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("name", MODELS)
def test_survival_is_pinned(pins, name):
    np.testing.assert_allclose(_survival(name), pins["extinction_seq"][name], rtol=RTOL, atol=0)


@pytest.mark.parametrize("name", CONVERGENCE_MODELS)
def test_convergence_table_is_pinned(pins, name):
    np.testing.assert_allclose(_convergence(name), pins["convergence_table"][name], rtol=RTOL, atol=0)


@pytest.mark.parametrize("name", MODELS)
def test_conditional_pgf_is_pinned(pins, name):
    assert _conditional(name) == pytest.approx(pins["conditional_pgf"][name], rel=RTOL, abs=0)


@pytest.mark.parametrize("name", sorted(SCHEDULED_PINS["sha256"]))
def test_scheduled_survival_is_pinned_bit_for_bit(name):
    q = extinction_seq(_model(name), SCHEDULED_PINS["t_max"]).q
    assert hashlib.sha256(q.tobytes()).hexdigest() == SCHEDULED_PINS["sha256"][name]


if __name__ == "__main__":
    PINS.write_text(
        json.dumps(
            {
                "extinction_seq": {name: _survival(name) for name in MODELS},
                "convergence_table": {name: _convergence(name) for name in CONVERGENCE_MODELS},
                "conditional_pgf": {name: _conditional(name) for name in MODELS},
            },
            indent=0,
        )
        + "\n"
    )
