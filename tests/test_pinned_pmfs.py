"""Pinned outputs of the truncated-series ring.

`conditional_pmf` (the series DP) and `eta_fdd_pmf` (the Newton square
roots) run every product through `series.dense_mul`.  The values in
`pinned_pmfs.json` were computed when that product was
`scipy.signal.convolve` followed by the total-degree mask, and are frozen:
a new product may sum in another order, but it must give the same
numbers to 1e-14 relative.  Arrays are stored flat over the exponents of
total degree <= K; every entry past K must be exactly 0.  Running this
file as a script rewrites the JSON from the code it imports, so do that
only against the reference implementation, never to make a failing pin
pass.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from gwolab import FddQuery, FddSpec, LimitParams, conditional_pmf, eta_fdd_pmf, load_model
from gwolab.series import total_degree_mask

HERE = Path(__file__).resolve().parent
MODEL_DIR = HERE.parent / "docs" / "models"
PINS = HERE / "pinned_pmfs.json"
RTOL = 1e-14

MODELS = ["age_dependent_offspring", "binary_splitting", "delayed_death", "early_births", "heavy_tail_life"]
# (times, K), conditioned on survival to the first time
SPECS = {"k1": ((32,), 10), "k2": ((16, 32), 8), "k3": ((8, 12, 16), 5)}
CONDITIONAL_CASES = {f"{name}-{k}": (name, k) for name in MODELS for k in SPECS}
# (c, y, K)
LIMIT_CASES = {
    "c1-k1": (1.0, (1.5,), 40),
    "c1-k2": (1.0, (0.5, 1.5), 20),
    "c1-k3": (1.0, (0.5, 1.0, 2.0), 12),
    "c0.5-k2-right": (0.5, (1.0, 2.0), 12),
    "c15-k3-left": (15.0, (0.25, 0.5, 0.75), 8),
    "c1-k3-fft": (1.0, (0.5, 1.0, 2.0), 20),  # past the pair budget
}


def _kept(arr: np.ndarray, K: int) -> list:
    mask = total_degree_mask(arr.ndim, K)
    assert not arr[~mask].any()
    return arr[mask].tolist()


def _conditional(case: str) -> dict:
    name, k = CONDITIONAL_CASES[case]
    times, K = SPECS[k]
    model = load_model(str(MODEL_DIR / f"{name}.json"))
    pm = conditional_pmf(model, FddSpec(times, (0.0,) * len(times), t_obs=times[0]), K)
    return {"probs": _kept(pm.probs, K), "overflow": pm.overflow}


def _limit(case: str) -> dict:
    c, y, K = LIMIT_CASES[case]
    pm = eta_fdd_pmf(LimitParams(c), FddQuery(y, (0.0,) * len(y)), K)
    return {"coeffs": _kept(pm.coeffs, K), "finite_remainder": pm.finite_remainder, "clamped": pm.clamped}


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


def _assert_pinned(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key, value in want.items():
        np.testing.assert_allclose(np.asarray(got[key]), np.asarray(value), rtol=RTOL, atol=0, err_msg=key)


@pytest.mark.parametrize("case", CONDITIONAL_CASES)
def test_conditional_pmf_is_pinned(pins, case):
    _assert_pinned(_conditional(case), pins["conditional_pmf"][case])


@pytest.mark.parametrize("case", LIMIT_CASES)
def test_eta_fdd_pmf_is_pinned(pins, case):
    _assert_pinned(_limit(case), pins["eta_fdd_pmf"][case])


if __name__ == "__main__":
    PINS.write_text(
        json.dumps(
            {
                "conditional_pmf": {case: _conditional(case) for case in CONDITIONAL_CASES},
                "eta_fdd_pmf": {case: _limit(case) for case in LIMIT_CASES},
            },
            indent=0,
        )
        + "\n"
    )
