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

One pin was re-recorded: `c1-k3-fft`, k = 3 at K = 20, froze the FFT
route's round-off, about 1e-17 on cells whose exact value is 0 or small.
Since the pair table reaches cap 20 in three variables, it holds the pair
route's values, which a long-double run of the same pgf backs
(`test_c1_k3_fft_pin_is_backed_by_long_double`).  Only that entry was
written: a whole rewrite would also move the heavy_tail_life pins, frozen
from an earlier product, by up to 2.3e-15 relative.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from gwolab import FddQuery, FddSpec, LimitParams, conditional_pmf, eta_fdd_pmf, load_model
from gwolab.limitlaw import _fdd_pgf
from gwolab.series import ring, total_degree_mask

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
    "c1-k3-fft": (1.0, (0.5, 1.0, 2.0), 20),  # on the FFT route until the pair table reached cap 20
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


class _LongDouble:
    """`series.ring(nvars, cap)`'s protocol as `_fdd_pgf` calls it, on
    np.longdouble rows: each product sums its pair list target by target
    (`np.add.reduceat`, not the ring's order), and the square root runs
    the ring's Newton iteration with two extra passes."""

    def __init__(self, nvars: int, cap: int):
        self.base, self.cap = ring(nvars, cap), cap
        degree = np.indices(self.base.shape).sum(axis=0).ravel()
        flat = np.flatnonzero(degree <= cap)
        ii, jj = np.nonzero(degree[flat][:, None] + degree[flat][None, :] <= cap)
        target = flat[ii] + flat[jj]
        order = np.argsort(target, kind="stable")
        self.i, self.j, target = flat[ii][order], flat[jj][order], target[order]
        self.starts = np.flatnonzero(np.r_[True, target[1:] != target[:-1]])
        self.targets, self.size = target[self.starts], degree.size

    def monomial(self, scal, var_idx=()):
        return self.base.monomial(scal, var_idx).astype(np.longdouble)

    def mul(self, a, b):
        out = np.zeros(self.size, np.longdouble)
        out[self.targets] = np.add.reduceat(a[self.i] * b[self.j], self.starts)
        return out

    def sqrt(self, s):
        x, three = self.monomial(1.0) / np.sqrt(s[0]), self.monomial(3.0)
        for _ in range(math.ceil(math.log2(self.cap + 1)) + 3):
            x = self.mul(x, (three - self.mul(self.mul(s, x), x)) * np.longdouble(0.5))
        return self.mul(s, x)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant, reason="long double is a double here")
def test_c1_k3_fft_pin_is_backed_by_long_double(pins):
    # an independent route, not the code that wrote the pin: the FFT's old
    # pin was 5.5e-17 off in absolute terms and 6.1e-8 relative on cells
    # above 1e-12; the pair route's values are within 7e-18 and 5.6e-15
    c, y, K = LIMIT_CASES["c1-k3-fft"]
    lring = _LongDouble(len(y), K)
    zvars = [lring.monomial(1.0, (i,)) for i in range(len(y))]
    ref = _fdd_pgf(LimitParams(c), y, zvars, lring)[total_degree_mask(len(y), K).ravel()]
    assert ref.min() >= 0.0
    big = np.abs(ref) > 1e-12
    for got in (np.asarray(pins["eta_fdd_pmf"]["c1-k3-fft"]["coeffs"]), np.asarray(_limit("c1-k3-fft")["coeffs"])):
        err = np.abs(got - ref).astype(float)
        assert err.max() <= 2e-17
        assert (err[big] / ref[big].astype(float)).max() <= 1e-13


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
