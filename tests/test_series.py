"""Truncated-series ring: arithmetic, truncation semantics, Newton sqrt.

The sqrt oracle is the closed-form binomial expansion
sqrt(alpha - beta*z) = sqrt(alpha) * sum_k C(1/2, k) (-beta/alpha)^k z^k,
with C(1/2, k) computed by the exact recurrence.
"""

from __future__ import annotations

import doctest
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import gwolab.series
from gwolab.errors import ConfigError
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
    ring = gwolab.series.ring(1, cap)
    r = ring.sqrt(ring.monomial(alpha) + ring.monomial(-beta, (0,)))
    assert r.tolist() == pytest.approx(binomial_sqrt_coeffs(alpha, beta, cap), abs=1e-12)


def test_sqrt_matches_binomial_series_bivariate():
    # sqrt(alpha - beta*z1*z2): coefficient of (z1 z2)^k is the univariate one
    cap = 12
    ring = gwolab.series.ring(2, cap)
    r = ring.sqrt(ring.monomial(4.0) + ring.monomial(-3.0, (0, 1))).reshape(ring.shape)
    expected = binomial_sqrt_coeffs(4.0, 3.0, cap // 2)
    for k in range(cap // 2 + 1):
        assert r[k, k] == pytest.approx(expected[k], abs=1e-12)
    # off-diagonal exponents never appear
    assert r[1, 0] == 0.0
    assert r[2, 1] == 0.0


def _random_row(draw, ring):
    box = np.zeros(ring.shape)
    for _ in range(draw(st.integers(0, 8))):
        idx = tuple(draw(st.integers(0, ring.cap)) for _ in range(ring.nvars))
        if sum(idx) <= ring.cap:
            box[idx] = draw(st.floats(-0.5, 0.5, allow_nan=False))
    return box.ravel()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mul_commutative_associative(data):
    ring = gwolab.series.ring(data.draw(st.integers(1, 3)), data.draw(st.integers(0, 6)))
    a, b, c = (_random_row(data.draw, ring) for _ in range(3))
    assert np.max(np.abs(ring.mul(a, b) - ring.mul(b, a))) <= 1e-14
    assert np.max(np.abs(ring.mul(ring.mul(a, b), c) - ring.mul(a, ring.mul(b, c)))) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sqrt_defining_property(data):
    ring = gwolab.series.ring(data.draw(st.integers(1, 3)), data.draw(st.integers(0, 8)))
    # coefficients lie in [-0.5, 0.5], so this keeps the constant term >= 0.25
    s = _random_row(data.draw, ring) + ring.monomial(data.draw(st.floats(0.75, 4.0)))
    r = ring.sqrt(s)
    assert np.max(np.abs(ring.mul(r, r) - s)) <= 1e-12


def test_sqrt_rejects_nonpositive_constant():
    ring = gwolab.series.ring(1, 4)
    s = ring.monomial(1.0, (0,))
    with pytest.raises(ConfigError, match="constant term 0.0 is not positive"):
        ring.sqrt(s)
    with pytest.raises(ConfigError, match="constant term -2.0 is not positive"):
        ring.sqrt(s - ring.monomial(2.0))


def test_shape_mismatch_rejected():
    a = TruncatedSeries(2, 4, np.ones((5, 5)))
    b = TruncatedSeries(2, 5, np.ones((6, 6)))
    c = TruncatedSeries(3, 4, np.ones((5, 5, 5)))
    with pytest.raises(ConfigError, match=re.escape("operands disagree: (nvars, cap) (2, 4) vs (2, 5)")):
        a * b
    with pytest.raises(ConfigError, match=re.escape("operands disagree: (nvars, cap) (2, 4) vs (3, 4)")):
        a * c


def test_truncation_drops_high_degree():
    ring = gwolab.series.ring(2, 2)
    z0, z1 = ring.monomial(1.0, (0,)), ring.monomial(1.0, (1,))
    assert not ring.mul(ring.mul(z0, z0), z1).any()  # total degree 3 > cap
    assert ring.mul(z0, z1).reshape(ring.shape)[1, 1] == 1.0


def _polynomial(ring, z):
    """1 + 2 z0 - 3 z0 z1 + z1 (1/2 + z1/4), written once over the ring
    protocol, the way `limitlaw._fdd_pgf` is."""
    return ring.monomial(1.0) + z[0] * 2.0 - ring.mul(z[0], z[1]) * 3.0 + z[1] * 0.5 + ring.mul(z[1], z[1]) * 0.25


def test_evaluate():
    # Floats is the ring evaluated at a point: on monomial weights the
    # expression is a row, on float weights that row's value at the floats
    point = (0.5, 0.25)
    ring = gwolab.series.ring(2, 3)
    row = _polynomial(ring, [ring.monomial(1.0, (i,)) for i in range(2)]).reshape(ring.shape)
    e0, e1 = np.indices(ring.shape)
    at_point = float(np.sum(row * point[0] ** e0 * point[1] ** e1))
    want = 1.0 + 1.0 - 3 * 0.125 + 0.25 * (0.5 + 0.0625)
    assert at_point == pytest.approx(want, abs=1e-14)
    assert _polynomial(gwolab.series.Floats, point) == pytest.approx(want, abs=1e-14)


def test_module_doctest():
    result = doctest.testmod(gwolab.series)
    assert result.attempted > 0 and result.failed == 0


def test_negative_exponents_rejected():
    # a negative cap leaves no exponent, and no variable no box; the data
    # match the box in both cases, so only these checks catch them
    with pytest.raises(ConfigError, match="cap -1 must be an integer >= 0"):
        TruncatedSeries(2, -1, np.ones((0, 0)))
    with pytest.raises(ConfigError, match="nvars 0 must be an integer >= 1"):
        TruncatedSeries(0, 3, np.ones(()))


@pytest.mark.parametrize(
    "nvars, cap, data, message",
    [
        (2, 4.0, np.ones((5, 5)), "cap 4.0 must be an integer"),
        (True, 4, np.ones(5), "nvars True must be an integer"),
        (2.0, 4, np.ones((5, 5)), "nvars 2.0 must be an integer"),
    ],
)
def test_shape_must_be_integers(nvars, cap, data, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        TruncatedSeries(nvars, cap, data)


@pytest.mark.parametrize("scalar", [np.int64(2), np.float32(2.0), np.float64(2.0), 2, 2.0])
def test_real_scalar_operands(scalar):
    # the protocol's scalar side: a row scales by any real scalar, and a
    # constant enters through ring.monomial, at the constant term alone
    ring = gwolab.series.ring(2, 3)
    box = np.zeros(ring.shape)
    box[0, 0], box[1, 2] = 1.0, 3.0
    row, two = box.ravel(), ring.monomial(2.0)
    np.testing.assert_array_equal(ring.monomial(scalar), two)
    for got, want in [
        (row * scalar, 2.0 * row),
        (scalar * row, 2.0 * row),
        (row + ring.monomial(scalar), row + two),
        (row - ring.monomial(scalar), row - two),
        (ring.monomial(scalar) - row, two - row),
    ]:
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)


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
# pairs = _PAIR_BUDGET (cap 32 in two) or, in three, _PAIR_BUDGET_3
# (cap 20), the FFT past either
@pytest.mark.parametrize(
    "nvars, cap",
    [(1, 0), (2, 0), (3, 0), (1, 7), (2, 5), (3, 4), (1, 360), (1, 361),
     (1, 511), (1, 512), (2, 32), (2, 33), (3, 20), (3, 21)],
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
        block = np.stack([x.ravel(), -2.0 * x.ravel()])  # a block of rows shifts row by row
        np.testing.assert_array_equal(ring.shift(block, var_idx), np.stack([want.ravel(), -2.0 * want.ravel()]))
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
    assert math.comb(26, 6) <= gwolab.series._PAIR_BUDGET_3 < math.comb(27, 6)
    assert math.comb(18, 8) <= gwolab.series._PAIR_BUDGET < math.comb(19, 8)
    assert [gwolab.series.ring(3, cap)._fft_len is None for cap in (20, 21)] == [True, False]


@pytest.mark.parametrize("cap", [0, 1, 10, 511])
def test_one_variable_product_is_np_convolve_bit_for_bit(cap):
    # the product calls the C loop under np.convolve, without its wrapper:
    # the same sums in the same order, down to signed zeros and subnormals
    ring = gwolab.series.ring(1, cap)
    assert ring._fft_len is None and ring._pairs is None
    rng = np.random.default_rng(cap)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]
    for _ in range(20):
        a, b = (rng.uniform(-1.0, 1.0, cap + 1) for _ in range(2))
        for row in (a, b):
            hits = rng.integers(0, cap + 1, size=min(cap + 1, 4))
            row[hits] = rng.choice(special, size=hits.size)
        assert ring.mul(a, b).tobytes() == np.convolve(a, b)[: cap + 1].tobytes()
    zeros = np.array([-0.0] * (cap + 1))
    assert ring.mul(zeros, -zeros).tobytes() == np.convolve(zeros, -zeros)[: cap + 1].tobytes()


@pytest.mark.parametrize(
    "nvars,cap", [(1, 512), (1, 600), (2, 33), (2, 40), (2, 100), (3, 21), (3, 25), (3, 30), (4, 11)]
)
def test_fft_product_matches_scipy_bits(nvars, cap):
    # the pins of tests/pinned_pmfs.json hold scipy.fft's round-off bits; a
    # numpy or scipy release whose transforms part ways shows up here first
    ring = gwolab.series.ring(nvars, cap)
    assert ring._fft_len is not None
    mask = gwolab.series.total_degree_mask(nvars, cap)
    rng = np.random.default_rng(nvars * 1000 + cap)
    a, b = (np.where(mask, rng.uniform(-1.0, 1.0, ring.shape), 0.0) for _ in range(2))
    box = (scipy.fft.next_fast_len(2 * cap + 1, real=True),) * nvars
    full = scipy.fft.irfftn(scipy.fft.rfftn(a, box) * scipy.fft.rfftn(b, box), box)
    want = np.where(mask, full[(slice(0, cap + 1),) * nvars], 0.0)
    np.testing.assert_array_equal(ring.mul(a.ravel(), b.ravel()), want.ravel())


# (nvars, cap) on both sides of each block boundary: one block up to
# _PAIR_BLOCK = 2^15 pairs ((2, 27), (3, 13), (4, 9)), then 2 blocks ((2, 28),
# (3, 14)), 3 ((3, 16)) and 8 ((3, 20)); (4, 10) is blocked too
@pytest.mark.parametrize(
    "nvars, cap", [(2, 5), (2, 27), (2, 28), (2, 32), (3, 6), (3, 13), (3, 14), (3, 15), (3, 16), (3, 20), (4, 9), (4, 10)]
)
def test_pair_product_is_bincount_over_the_square_bit_for_bit(nvars, cap):
    # the table lists the pairs in np.nonzero's order over the square of
    # monomials, and a blocked sum adds each target in that order from 0.0,
    # as one np.bincount does: the same bytes, down to signed zeros
    ring = gwolab.series.ring(nvars, cap)
    assert ring._fft_len is None
    degree = np.indices(ring.shape).sum(axis=0).ravel()
    flat = np.flatnonzero(degree <= cap)
    ii, jj = np.nonzero(degree[flat][:, None] + degree[flat][None, :] <= cap)
    i, j = flat[ii], flat[jj]
    if ring._blocks is None:
        assert i.size <= gwolab.series._PAIR_BLOCK
        listed = ring._pairs
    else:
        assert i.size > gwolab.series._PAIR_BLOCK and len(ring._blocks) > 1
        assert max(block[2].size for block in ring._blocks) <= gwolab.series._PAIR_BLOCK
        listed = [np.concatenate([np.repeat(rows, counts) for rows, counts, _ in ring._blocks]),
                  np.concatenate([block[2] for block in ring._blocks])]
    np.testing.assert_array_equal(listed[0], i)
    np.testing.assert_array_equal(listed[1], j)
    rng = np.random.default_rng(100 * nvars + cap)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e100, -1e100]
    mask = degree <= cap
    for trial in range(6):
        a, b = (np.where(mask, rng.uniform(-1.0, 1.0, degree.size), 0.0) for _ in range(2))
        for row in (a, b):
            hits = rng.integers(0, degree.size, size=trial * degree.size // 8)
            row[hits] = rng.choice(special, size=hits.size)
        if trial == 5:
            a[mask], b[mask] = -0.0, rng.choice([0.0, -0.0], size=mask.sum())
        want = np.bincount(i + j, a[i] * b[j], minlength=degree.size)
        assert ring.mul(a, b).tobytes() == want.tobytes()


def test_fft_len_is_scipys_fast_real_length():
    assert [gwolab.series._fft_len(n) for n in range(1, 5001)] == [
        scipy.fft.next_fast_len(n, real=True) for n in range(1, 5001)
    ]


def test_import_does_not_load_scipy_signal():
    # scipy costs most of every CLI command's start-up; the runtime needs numpy only
    src = str(Path(gwolab.series.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, gwolab, gwolab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _scipy_fft_product(a, b, nvars, cap):
    """scipy's rfftn/irfftn product at the fast real length, sliced and masked."""
    box = (scipy.fft.next_fast_len(2 * cap + 1, real=True),) * nvars
    full = scipy.fft.irfftn(scipy.fft.rfftn(a, box) * scipy.fft.rfftn(b, box), box)
    return np.where(gwolab.series.total_degree_mask(nvars, cap), full[(slice(0, cap + 1),) * nvars], 0.0)


@pytest.mark.parametrize(
    "nvars,cap",
    [(1, 512), (1, 600), (2, 33), (2, 40), (2, 100), (3, 21), (3, 25), (3, 30), (4, 11), (1, 100), (2, 10)],
)
def test_product_of_spectra_is_the_product(nvars, cap):
    # mul = product(spectrum, spectrum): scipy's bits on the FFT route; on
    # the convolve (1, 100) and pair-table (2, 10) routes the spectrum is
    # the row itself
    ring = gwolab.series.ring(nvars, cap)
    mask = gwolab.series.total_degree_mask(nvars, cap)
    rng = np.random.default_rng(nvars * 1000 + cap + 1)
    a, b = (np.where(mask, rng.uniform(-1.0, 1.0, ring.shape), 0.0).ravel() for _ in range(2))
    got = ring.product(ring.spectrum(a), ring.spectrum(b))
    if ring._fft_len is None:
        assert ring.spectrum(a) is a
        want = ring.mul(a, b)
    else:
        want = _scipy_fft_product(a.reshape(ring.shape), b.reshape(ring.shape), nvars, cap)
    np.testing.assert_array_equal(got, want.ravel())


@pytest.mark.parametrize("nvars,cap", [(1, 100), (1, 600), (2, 10), (2, 40), (3, 6), (3, 21)])
def test_poly_is_horner_through_mul_bit_for_bit(nvars, cap):
    ring = gwolab.series.ring(nvars, cap)
    rng = np.random.default_rng(3 * nvars + cap)
    x = 0.3 * np.where(gwolab.series.total_degree_mask(nvars, cap), rng.uniform(-1.0, 1.0, ring.shape), 0.0).ravel()
    coef = [0.5, -1.0, 0.25, 2.0, 0.125]
    want = ring.monomial(coef[-1])
    for c in coef[-2::-1]:
        want = ring.mul(want, x)
        want[0] += c
    np.testing.assert_array_equal(ring.poly(coef, x), want)


@pytest.mark.parametrize("nvars,cap", [(1, 40), (1, 600), (2, 40), (3, 20), (3, 21), (3, 24)])
def test_sqrt_is_the_newton_loop_bit_for_bit(nvars, cap):
    # the precision-doubling Newton iteration written out on rows: pass i
    # restricts s and x to the monomials of degree <= min(2^(i+1) - 1, cap),
    # takes three ring(nvars, c).mul there and extends the result by zeros.
    # (1, 40) takes the direct product throughout; (1, 600), (2, 40), (3, 21)
    # and (3, 24) the FFT at their cap and the direct product or the pair
    # table below it; (3, 20) the pair table throughout
    ring = gwolab.series.ring(nvars, cap)
    rng = np.random.default_rng(11 * nvars + cap)
    mask = gwolab.series.total_degree_mask(nvars, cap)
    data = np.where(mask, 0.5 ** np.indices(mask.shape).sum(axis=0) * rng.random(mask.shape), 0.0)
    data[(0,) * nvars] = 1.5
    s = data.ravel()
    x = ring.monomial(1.0 / math.sqrt(1.5))
    exponents = np.indices(ring.shape).reshape(nvars, -1)
    for i in range(max(1, math.ceil(math.log2(cap + 1))) + 1):
        c = min(2 ** (i + 1) - 1, cap)
        sub, kept = gwolab.series.ring(nvars, c), exponents.sum(axis=0) <= c
        at = np.ravel_multi_index(exponents[:, kept], sub.shape)
        xs, ss = np.zeros((2,) + sub.row)
        xs[at], ss[at] = x[kept], s[kept]
        sxx = sub.mul(sub.mul(ss, xs), xs)
        xs = sub.mul(xs, (-sxx + sub.monomial(3.0)) * 0.5)
        x = np.zeros(ring.row)
        x[kept] = xs[at]
    r = ring.sqrt(s)
    np.testing.assert_array_equal(r, ring.mul(s, x))
    assert np.abs(ring.mul(r, r) - s).max() <= 1e-12


def test_data_must_be_the_cap_box():
    with pytest.raises(ConfigError, match=re.escape("data of shape (6, 6) is not the (cap+1,)*nvars box (6, 6, 6)")):
        TruncatedSeries(3, 5, np.ones((6, 6)))  # two variables' box
    with pytest.raises(ConfigError, match=re.escape("data of shape (4, 4) is not the (cap+1,)*nvars box (6, 6)")):
        TruncatedSeries(2, 5, np.ones((4, 4)))  # a box smaller than the cap's
