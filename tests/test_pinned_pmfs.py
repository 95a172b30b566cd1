"""Pinned outputs of the truncated-series ring.

`conditional_pmf` (the series DP) and `eta_fdd_pmf` (the Newton square
roots) run every product through the rows of `series.ring(k, K)`, by its
`mul` and `product`.  The values in
`pinned_pmfs.json` were computed when that product was
`scipy.signal.convolve` followed by the total-degree mask, and are frozen:
a new product may sum in another order, but it must give the same
numbers to 1e-14 relative.  Arrays are stored flat over the exponents of
total degree <= K; every entry past K must be exactly 0.

Running this file as a script with pin names, e.g.
`python tests/test_pinned_pmfs.py eta_fdd_pmf/c1-k1`, rewrites those
entries from the code it imports and leaves every other entry's bytes as
they are (`shipped.rerecord`); without names it prints the names and
writes nothing.  Re-record a pin only when a change of the code moves it on
purpose and a long-double run backs the new values, never to hide a fault.

Re-recorded `eta_fdd_pmf` pins, each backed by a long-double run of the
same pgf (`test_eta_fdd_pmf_pin_is_backed_by_long_double`):
- `c1-k3-fft`, k = 3 at K = 20, froze the FFT route's round-off, about
  1e-17 on cells whose exact value is 0 or small; it was re-recorded when
  the pair table reached cap 20 in three variables.
- `c1-k1`, `c1-k2`, `c1-k3` and `c1-k3-fft` were re-recorded when
  `Ring.sqrt` took its passes below the full cap to smaller rings (4 of
  `c1-k1`'s 41 cells moved by up to 1.6e-14 relative) and `prob_finite`
  lost its cancellation left of 1 (the `finite_remainder` of the three
  with y_1 < 1 moved by up to 2.3e-9 relative; `c15-k3-left`'s moved by
  1e-15 and was kept).
The `conditional_pmf` pins were frozen from an earlier product; a rewrite
of them would move `heavy_tail_life`'s by up to 2.3e-15 relative.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from gwolab import FddQuery, FddSpec, LimitParams, conditional_pmf, eta_fdd_pmf
from gwolab.limitlaw import _fdd_pgf
from gwolab.series import ring, total_degree_mask

import shipped
import test_pinned_scalar

PINS = Path(__file__).resolve().parent / "pinned_pmfs.json"
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
# the long-double reference's least cell where it falls below 0, by case:
# the pgf's constants, such as 1/(A y_1), are doubles on both routes, and at
# c0.5-k2-right (y_1 = 1) its cell P(eta(1) = 0), exactly 0, reads -1.15e-17
REFERENCE_FLOOR = {"c0.5-k2-right": -2e-17}


def _kept(arr: np.ndarray, K: int) -> list:
    mask = total_degree_mask(arr.ndim, K)
    assert not arr[~mask].any()
    return arr[mask].tolist()


def _conditional(case: str) -> dict:
    name, k = CONDITIONAL_CASES[case]
    times, K = SPECS[k]
    pm = conditional_pmf(shipped.model(name), FddSpec(times, (0.0,) * len(times), t_obs=times[0]), K)
    return {"probs": _kept(pm.probs, K), "overflow": pm.overflow}


def _limit(case: str) -> dict:
    c, y, K = LIMIT_CASES[case]
    pm = eta_fdd_pmf(LimitParams(c), FddQuery(y, (0.0,) * len(y)), K)
    return {"coeffs": _kept(pm.coeffs, K), "finite_remainder": pm.finite_remainder, "clamped": pm.clamped}


RECORDERS = {"conditional_pmf": (_conditional, CONDITIONAL_CASES), "eta_fdd_pmf": (_limit, LIMIT_CASES)}


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
@pytest.mark.parametrize("case", LIMIT_CASES)
def test_eta_fdd_pmf_pin_is_backed_by_long_double(pins, case):
    # an independent route, not the code that wrote the pin: the FFT's old
    # `c1-k3-fft` pin was 5.5e-17 off in absolute terms and 6.1e-8 relative
    # on cells above 1e-12
    c, y, K = LIMIT_CASES[case]
    lring = _LongDouble(len(y), K)
    zvars = [lring.monomial(1.0, (i,)) for i in range(len(y))]
    ref = _fdd_pgf(LimitParams(c), y, zvars, lring)[total_degree_mask(len(y), K).ravel()]
    assert ref.min() >= REFERENCE_FLOOR.get(case, 0.0)
    big = np.abs(ref) > 1e-12
    for got in (np.asarray(pins["eta_fdd_pmf"][case]["coeffs"]), np.asarray(_limit(case)["coeffs"])):
        err = np.abs(got - ref).astype(float)
        assert err.max() <= 2e-17
        assert (err[big] / ref[big].astype(float)).max() <= 1e-13


@pytest.mark.parametrize(
    "pins_file, recorders, name",
    [
        (PINS, RECORDERS, "eta_fdd_pmf/c15-k3-left"),
        (test_pinned_scalar.PINS, test_pinned_scalar.RECORDERS, "conditional_pgf/delayed_death"),
    ],
    ids=["pmfs", "scalar"],
)
def test_rerecord_rewrites_only_the_named_pins(pins_file, recorders, name, tmp_path):
    group, case = name.split("/")
    path = tmp_path / "pins.json"
    path.write_text(pins_file.read_text())
    with pytest.raises(SystemExit, match="usage"):
        shipped.rerecord([], path, recorders)
    with pytest.raises(SystemExit, match="usage"):
        shipped.rerecord([f"{group}/no-such-case"], path, recorders)
    assert path.read_text() == pins_file.read_text()
    shipped.rerecord([name], path, recorders)
    old, new = pins_file.read_text(), path.read_text()
    # the groups before the named one keep their bytes, the other pins their values
    assert new[: new.index(f'"{group}"')] == old[: old.index(f'"{group}"')]
    old, new = json.loads(old), json.loads(new)
    assert new.keys() == old.keys() and all(new[g] == old[g] for g in old if g != group)
    assert new[group].keys() == old[group].keys()
    assert all(new[group][c] == old[group][c] for c in old[group] if c != case)
    assert new[group][case] == recorders[group][0](case)


if __name__ == "__main__":
    import sys

    shipped.rerecord(sys.argv[1:], PINS, RECORDERS)
