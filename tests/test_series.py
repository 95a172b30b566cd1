"""Truncated-series ring: arithmetic, truncation semantics, Newton sqrt.

The sqrt oracle is the closed-form binomial expansion
sqrt(alpha - beta*z) = sqrt(alpha) * sum_k C(1/2, k) (-beta/alpha)^k z^k,
with C(1/2, k) computed by the exact recurrence.
"""

from __future__ import annotations

import doctest
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwolab.series
from gwolab.errors import NonpositiveConstantTerm, ShapeMismatch
from gwolab.series import TruncatedSeries


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
