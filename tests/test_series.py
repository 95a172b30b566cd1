"""Truncated-series ring: arithmetic, truncation semantics, Newton sqrt.

The sqrt oracle is the closed-form binomial expansion
sqrt(alpha - beta*z) = sqrt(alpha) * sum_k C(1/2, k) (-beta/alpha)^k z^k,
with C(1/2, k) computed by the exact recurrence.
"""

from __future__ import annotations

import doctest
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwolab.series
from gwolab.errors import NonpositiveConstantTerm, ShapeMismatch
from gwolab.series import TruncatedSeries, dense_mul


def binomial_sqrt_coeffs(alpha: float, beta: float, cap: int) -> list[float]:
    """Taylor coefficients of sqrt(alpha - beta*z) around z = 0."""
    out = []
    bc = 1.0  # C(1/2, k) via bc_k = bc_{k-1} * (1.5 - k) / k
    for k in range(cap + 1):
        if k > 0:
            bc *= (1.5 - k) / k
        out.append(math.sqrt(alpha) * bc * (-beta / alpha) ** k)
    return out


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.5), (2.0, 1.0), (16.0, 15.0), (1.3, -0.7)])
def test_sqrt_matches_binomial_series(alpha, beta):
    cap = 20
    s = TruncatedSeries.from_terms({(0,): alpha, (1,): -beta}, nvars=1, cap=cap)
    r = s.sqrt()
    expected = binomial_sqrt_coeffs(alpha, beta, cap)
    for k in range(cap + 1):
        assert r.coefficient((k,)) == pytest.approx(expected[k], abs=1e-12)


def test_sqrt_matches_binomial_series_bivariate():
    # sqrt(alpha - beta*z1*z2): coefficient of (z1 z2)^k is the univariate one
    cap = 12
    s = TruncatedSeries.from_terms({(0, 0): 4.0, (1, 1): -3.0}, nvars=2, cap=cap)
    r = s.sqrt()
    expected = binomial_sqrt_coeffs(4.0, 3.0, cap // 2)
    for k in range(cap // 2 + 1):
        assert r.coefficient((k, k)) == pytest.approx(expected[k], abs=1e-12)
    # off-diagonal exponents never appear
    assert r.coefficient((1, 0)) == 0.0
    assert r.coefficient((2, 1)) == 0.0


def _random_series(draw, nvars, cap):
    n_terms = draw(st.integers(0, 8))
    terms = {}
    for _ in range(n_terms):
        idx = tuple(draw(st.integers(0, cap)) for _ in range(nvars))
        if sum(idx) <= cap:
            terms[idx] = draw(st.floats(-0.5, 0.5, allow_nan=False))
    return TruncatedSeries.from_terms(terms, nvars=nvars, cap=cap)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mul_commutative_associative(data):
    nvars = data.draw(st.integers(1, 3))
    cap = data.draw(st.integers(0, 6))
    a = _random_series(data.draw, nvars, cap)
    b = _random_series(data.draw, nvars, cap)
    c = _random_series(data.draw, nvars, cap)
    ab = (a * b).to_dense_array()
    ba = (b * a).to_dense_array()
    assert np.max(np.abs(ab - ba)) <= 1e-14
    abc1 = ((a * b) * c).to_dense_array()
    abc2 = (a * (b * c)).to_dense_array()
    assert np.max(np.abs(abc1 - abc2)) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sqrt_defining_property(data):
    nvars = data.draw(st.integers(1, 3))
    cap = data.draw(st.integers(0, 8))
    s = _random_series(data.draw, nvars, cap)
    # coefficients lie in [-0.5, 0.5], so this keeps the constant term >= 0.25
    s = s + data.draw(st.floats(0.75, 4.0))
    r = s.sqrt()
    diff = (r * r - s).to_dense_array()
    assert np.max(np.abs(diff)) <= 1e-12


def test_sqrt_rejects_nonpositive_constant():
    s = TruncatedSeries.from_terms({(1,): 1.0}, nvars=1, cap=4)
    with pytest.raises(NonpositiveConstantTerm):
        s.sqrt()
    with pytest.raises(NonpositiveConstantTerm):
        (s - 2.0).sqrt()


def test_shape_mismatch_rejected():
    a = TruncatedSeries.constant(1.0, nvars=2, cap=4)
    b = TruncatedSeries.constant(1.0, nvars=2, cap=5)
    c = TruncatedSeries.constant(1.0, nvars=3, cap=4)
    with pytest.raises(ShapeMismatch):
        a + b
    with pytest.raises(ShapeMismatch):
        a * c


def test_truncation_drops_high_degree():
    z0 = TruncatedSeries.variable(0, nvars=2, cap=2)
    z1 = TruncatedSeries.variable(1, nvars=2, cap=2)
    prod = z0 * z0 * z1  # total degree 3 > cap
    assert not list(prod.terms())
    kept = z0 * z1
    assert kept.coefficient((1, 1)) == 1.0


def test_evaluate():
    s = TruncatedSeries.from_terms({(0, 0): 1.0, (1, 0): 2.0, (1, 1): -3.0}, nvars=2, cap=3)
    assert s.evaluate((0.5, 0.25)) == pytest.approx(1.0 + 1.0 - 3 * 0.125, abs=1e-14)


def test_module_doctest():
    result = doctest.testmod(gwolab.series)
    assert result.attempted > 0 and result.failed == 0


def test_negative_exponents_rejected():
    with pytest.raises(ShapeMismatch):
        TruncatedSeries.from_terms({(-1, 0): 1.0}, nvars=2, cap=3)
    s = TruncatedSeries.from_terms({(3, 0): 5.0}, nvars=2, cap=3)
    with pytest.raises(ShapeMismatch):
        s.coefficient((-1, 0))


@pytest.mark.parametrize("scalar", [np.int64(2), np.float32(2.0), np.float64(2.0), 2, 2.0])
def test_real_scalar_operands(scalar):
    s = TruncatedSeries.from_terms({(0, 0): 1.0, (1, 2): 3.0}, nvars=2, cap=3)
    data = s.to_dense_array()
    two = TruncatedSeries.constant(2.0, 2, 3).to_dense_array()
    for got, want in [
        (s * scalar, 2.0 * data),
        (scalar * s, 2.0 * data),
        (s + scalar, data + two),
        (scalar + s, data + two),
        (s - scalar, data - two),
        (scalar - s, two - data),
    ]:
        assert isinstance(got, TruncatedSeries)
        np.testing.assert_array_equal(got.to_dense_array(), want)


def _naive_product(a, b, cap):
    """Truncated product and the same sum over |a| and |b|, by a double
    loop over exponent tuples; terms past the cap in a or b never enter."""
    def terms(arr):
        return [(idx, float(arr[idx]), sum(idx)) for idx in np.ndindex(arr.shape) if sum(idx) <= cap]

    out = np.zeros_like(a)
    size = np.zeros_like(a)
    b_terms = terms(b)
    for i, x, di in terms(a):
        for j, y, dj in b_terms:
            if di + dj <= cap:
                k = tuple(p + q for p, q in zip(i, j))
                out[k] += x * y
                size[k] += abs(x * y)
    return out, size


# (nvars, cap) on both sides of each route switch: np.convolve in one
# variable up to cap 511, the pair table in more up to C(cap + 2n, 2n)
# = _PAIR_BUDGET (cap 32 in two, 15 in three), the FFT past either
@pytest.mark.parametrize(
    "nvars, cap",
    [(1, 0), (2, 0), (3, 0), (1, 7), (2, 5), (3, 4), (1, 360), (1, 361),
     (1, 511), (1, 512), (2, 32), (2, 33), (3, 15), (3, 16)],
)
def test_dense_mul_matches_naive_product(nvars, cap):
    rng = np.random.default_rng(1000 * nvars + cap)
    # every entry of the (cap+1)^n box is set, also those past the cap
    a, b = (rng.uniform(-1.0, 1.0, (cap + 1,) * nvars) for _ in range(2))
    want, size = _naive_product(a, b, cap)
    got = dense_mul(a, b, cap)
    assert got.shape == a.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * size.max()


@pytest.mark.parametrize("nvars, cap", [(1, 0), (1, 6), (2, 1), (2, 5), (2, 33), (3, 4), (3, 16)])
def test_ring_ops_match_naive_product(nvars, cap):
    # shift and monomial against the product with a monomial, poly and
    # powers against repeated products; every route, var_idx past the cap
    ring = gwolab.series.ring(nvars, cap)
    rng = np.random.default_rng(7 * nvars + cap)
    x = rng.uniform(-1.0, 1.0, ring.shape)  # entries past the cap too
    mask = gwolab.series.total_degree_mask(nvars, cap).ravel()
    for var_idx in [(), (0,), (nvars - 1,), (0, 0), tuple(range(nvars)) * 2, (0,) * (cap + 1)]:
        mono = ring.monomial(1.5, var_idx)
        exps = np.zeros(nvars, int)
        np.add.at(exps, list(var_idx), 1)
        want = np.zeros(ring.shape)
        if exps.sum() <= cap:
            want[tuple(exps)] = 1.5
        np.testing.assert_array_equal(mono, want.ravel())
        want, _ = _naive_product(x, mono.reshape(ring.shape) / 1.5, cap)
        np.testing.assert_array_equal(ring.shift(x.ravel(), var_idx), want.ravel())
    x = np.where(mask, x.ravel(), 0.0)
    pw = ring.powers(x, 4)
    np.testing.assert_array_equal(pw[0], ring.monomial(1.0))
    np.testing.assert_array_equal(pw[1], x)
    for a, b in zip(pw[1:], pw[2:]):
        np.testing.assert_array_equal(b, ring.mul(a, x))
    coef = [0.5, -1.0, 0.25, 2.0]
    horner = ring.poly(coef, x)
    direct = sum(c * v for c, v in zip(coef, pw))
    assert np.max(np.abs(horner - direct)) <= 1e-12 * np.max(np.abs(direct))
    assert gwolab.series.ring(nvars, cap) is ring


def test_route_switches_sit_at_the_tested_caps():
    assert 512**2 <= gwolab.series._DIRECT_PRODUCTS < 513**2
    assert math.comb(36, 4) <= gwolab.series._PAIR_BUDGET < math.comb(37, 4)
    assert math.comb(21, 6) <= gwolab.series._PAIR_BUDGET < math.comb(22, 6)


def test_import_does_not_load_scipy_signal():
    # scipy.signal costs about a second of import time, paid by every CLI command
    src = str(Path(gwolab.series.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, gwolab, gwolab.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
