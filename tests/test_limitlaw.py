"""Tests for the limit process laws.

Coefficient extraction is checked against an independent oracle: Cauchy
integrals of the (literally transcribed) pgf displays, computed by FFT
on a circle of radius < 1.  Samplers are checked against closed-form
inverse CDFs by feeding fixed uniforms.
"""

import functools
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from gwolab import exact_engine, limitlaw, series, simulator
from gwolab.errors import CapTooLarge, ConfigError
from gwolab.lifelaw import BellmanHarris, FiniteLife, OffspringPMF, summarize
from gwolab.limitlaw import (
    FddQuery,
    LimitParams,
    dichotomy_fraction,
    eta_fdd_pgf,
    eta_fdd_pmf,
    eta_marginal_pgf,
    eta_marginal_pmf,
    LawT0,
    figure1_data,
    law_T,
    limit_of,
    prob_finite,
)
from gwolab.modelio import load_model
from gwolab.verify import fdd_limit_check, limit_convergence, richardson, tv_to_limit

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def marginal_pgf_complex(c, y, z):
    """The two marginal pgf displays, transcribed for complex z."""
    A = 1.0 + math.sqrt(1.0 + c)
    if y < 1.0:
        return (np.sqrt(1 + c * (1 - z) + c * z * y * y) - np.sqrt(1 + c * (1 - z))) / (A * y)
    return 1.0 - (1.0 + np.sqrt(1 + c * (1 - z))) / (A * y)


def cauchy_coeffs(f, K, radius=0.8, npoints=256):
    """Taylor coefficients of f via FFT over a circle; f vectorized."""
    theta = 2.0 * np.pi * np.arange(npoints) / npoints
    vals = f(radius * np.exp(1j * theta))
    coeffs = np.fft.fft(vals) / npoints
    return (coeffs[: K + 1] / radius ** np.arange(K + 1)).real


def fdd_pgf_complex(c, y, z1, z2):
    """k=2 fdd pgf display for complex weights (y strictly increasing)."""
    A = 1.0 + math.sqrt(1.0 + c)
    y1, y2 = y
    g1, g2 = c, c * (y1 / y2) ** 2
    s_all = (1 - z1) * g1 + z1 * (1 - z2) * g2
    j = sum(1 for v in y if v < 1.0)
    if j == 0:
        return 1.0 - (1.0 + np.sqrt(1 + s_all)) / (A * y1)
    s_left = (1 - z1) * g1 if j == 1 else s_all
    zprod = z1 if j == 1 else z1 * z2
    return (np.sqrt(1 + s_left + c * zprod * y1 * y1) - np.sqrt(1 + s_all)) / (A * y1)


class FixedUniforms:
    """Stand-in rng that returns a prescribed block of uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------


class TestMarginal:
    def test_frozen_values_c1_y1(self):
        p = LimitParams(1.0)
        res = eta_marginal_pmf(p, 1.0, 12)
        assert res.probs[0] == pytest.approx(0.0, abs=1e-15)
        assert res.probs[1] == pytest.approx(SQRT2 / (4 * (1 + SQRT2)), abs=1e-14)
        pfin = (SQRT2 - 1) / (SQRT2 + 1)
        assert prob_finite(p, 1.0) == pytest.approx(pfin, abs=1e-14)
        assert res.infinite_mass == pytest.approx(1 - pfin, abs=1e-14)

    @pytest.mark.parametrize("c", [0.5, 1.0, 15.0])
    @pytest.mark.parametrize("y", [1.0, 1.5, 3.0])
    def test_mass_at_zero_right_of_one(self, c, y):
        res = eta_marginal_pmf(LimitParams(c), y, 5)
        assert res.probs[0] == pytest.approx((y - 1) / y, abs=1e-14)

    def test_no_mass_at_zero_left_of_one(self):
        res = eta_marginal_pmf(LimitParams(2.0), 0.6, 5)
        assert res.probs[0] == 0.0

    @pytest.mark.parametrize("c,y", [(1.0, 1.0), (1.0, 0.5), (5.0, 2.0), (15.0, 0.9)])
    def test_against_cauchy_oracle(self, c, y):
        K = 16
        res = eta_marginal_pmf(LimitParams(c), y, K)
        oracle = cauchy_coeffs(lambda z: marginal_pgf_complex(c, y, z), K)
        np.testing.assert_allclose(res.probs, oracle, atol=1e-11)

    @pytest.mark.parametrize("c,y", [(1.0, 1.0), (1.0, 0.4), (15.0, 2.5)])
    def test_mass_accounting(self, c, y):
        res = eta_marginal_pmf(LimitParams(c), y, 60)
        assert np.all(res.probs >= 0.0)
        # successive coefficient ratios stay below r = c/(1+c), so the
        # un-extracted finite mass is at most a geometric tail
        r = c / (1.0 + c)
        assert -1e-12 <= res.finite_remainder <= 2.0 * res.probs[-1] * r / (1 - r) + 1e-15
        total = res.probs.sum() + res.finite_remainder + res.infinite_mass
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_prob_finite_of_an_array_is_the_scalar_calls(self):
        p = LimitParams(2.0)
        grid = np.concatenate([np.linspace(0.05, 4.0, 80), [1.0]])
        got = prob_finite(p, grid)
        assert got.shape == grid.shape
        np.testing.assert_array_equal(got, [prob_finite(p, float(v)) for v in grid])
        with pytest.raises(ConfigError):
            prob_finite(p, np.array([0.5, 0.0]))

    @pytest.mark.parametrize("y, z", [(0.0, 0.5), (-1.0, 0.5), (1.0, 2.0), (1.0, math.nan), (0.5, -0.1)])
    def test_pgf_rejects_bad_input(self, y, z):
        with pytest.raises(ConfigError):
            eta_marginal_pgf(LimitParams(1.0), y, z)

    @pytest.mark.parametrize("K", [-1, -3, 2.5])
    def test_pmfs_reject_bad_K(self, K):
        p = LimitParams(1.0)
        with pytest.raises(ConfigError):
            eta_marginal_pmf(p, 1.0, K)
        for y in ((1.5,), (0.5, 1.5)):
            with pytest.raises(ConfigError):
                eta_fdd_pmf(p, FddQuery(y, (0.0,) * len(y)), K)

    def test_pmfs_accept_K_zero(self):
        p = LimitParams(1.0)
        assert eta_marginal_pmf(p, 1.5, np.int64(0)).probs.shape == (1,)
        assert eta_fdd_pmf(p, FddQuery((0.5, 1.5), (0.0, 0.0)), 0).coeffs.shape == (1, 1)

    def test_pgf_matches_series_sum(self):
        p = LimitParams(3.0)
        for y in (0.7, 1.8):
            res = eta_marginal_pmf(p, y, 200)
            for z in (0.0, 0.3, 0.9):
                direct = eta_marginal_pgf(p, y, z)
                summed = float(np.polynomial.polynomial.polyval(z, res.probs))
                assert direct == pytest.approx(summed, abs=1e-12)
        # a weight of 1 keeps its coordinate: the pgf is the finite mass
        for y in (0.3, 1.0, 2.5):
            assert eta_marginal_pgf(p, y, 1.0) == pytest.approx(prob_finite(p, y), abs=1e-15)

    @pytest.mark.parametrize("K", [2**23, 10**15])
    def test_pmf_budget(self, K):
        # the k = 1 budget of eta_fdd_pmf, (2K + 1) entries, raised before any allocation
        with pytest.raises(CapTooLarge):
            eta_marginal_pmf(LimitParams(1.0), 0.5, K)


# ---------------------------------------------------------------------------
# fdd pgf
# ---------------------------------------------------------------------------


class TestFddPgf:
    def test_frozen_no_particles_third(self):
        val = eta_fdd_pgf(LimitParams(1.0), FddQuery([1.5], [0.0]))
        assert val == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_degenerate_c0_splits_mass(self):
        for z in (0.0, 0.4, 0.9):
            val = eta_fdd_pgf(LimitParams(0.0), FddQuery([2.0], [z]))
            assert val == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("y", [0.3, 0.7, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("z", [0.0, 0.25, 0.7, 0.99])
    def test_k1_equals_marginal(self, y, z):
        p = LimitParams(2.5)
        assert eta_fdd_pgf(p, FddQuery([y], [z])) == pytest.approx(
            eta_marginal_pgf(p, y, z), abs=1e-14
        )

    def test_weight_one_coordinates_dropped(self):
        p = LimitParams(1.7)
        full = FddQuery([0.5, 1.0, 2.0], [0.3, 1.0, 0.6])
        reduced = FddQuery([0.5, 2.0], [0.3, 0.6])
        assert full.k == 2 and full.y == (0.5, 2.0)
        assert eta_fdd_pgf(p, full) == eta_fdd_pgf(p, reduced)

    def test_all_weights_one_gives_unit(self):
        q = FddQuery([1.0, 2.0], [1.0, 1.0])
        assert q.k == 0
        assert eta_fdd_pgf(LimitParams(4.0), q) == 1.0

    @pytest.mark.parametrize("y", [(0.5,), (0.5, 1.5), (1.2, 2.0, 3.0)])
    def test_weights_to_one_limit_is_finiteness_prob(self, y):
        p = LimitParams(3.0)
        z = [1.0 - 1e-8] * len(y)
        val = eta_fdd_pgf(p, FddQuery(y, z))
        assert val == pytest.approx(prob_finite(p, y[0]), abs=1e-6)

    @given(
        c=st.floats(0.0, 20.0),
        y1=st.floats(0.1, 3.0),
        gap=st.floats(0.05, 2.0),
        z1=st.floats(0.0, 0.999),
        z2=st.floats(0.0, 0.999),
    )
    @settings(max_examples=150, deadline=None)
    def test_pgf_bounds_and_monotone(self, c, y1, gap, z1, z2):
        p = LimitParams(c)
        lo, hi = sorted((z1, z2))
        a = eta_fdd_pgf(p, FddQuery([y1, y1 + gap], [lo, 0.5]))
        b = eta_fdd_pgf(p, FddQuery([y1, y1 + gap], [hi, 0.5]))
        assert -1e-12 <= a <= 1.0 + 1e-12
        assert a <= b + 1e-12

    def test_validation(self):
        with pytest.raises(ConfigError):
            FddQuery([2.0, 1.0], [0.5, 0.5])
        with pytest.raises(ConfigError):
            FddQuery([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ConfigError):
            FddQuery([1.0], [1.5])
        with pytest.raises(ConfigError):
            FddQuery([1.0, 2.0], [0.5])
        with pytest.raises(ConfigError):
            LimitParams(-0.5)
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                FddQuery([bad], [0.3])


# ---------------------------------------------------------------------------
# joint pmf
# ---------------------------------------------------------------------------


class TestFddPmf:
    def test_k1_matches_marginal_extraction(self):
        p = LimitParams(1.0)
        for y in (0.8, 2.0):
            joint = eta_fdd_pmf(p, FddQuery([y], [0.0]), 20)
            marg = eta_marginal_pmf(p, y, 20)
            np.testing.assert_allclose(joint.coeffs, marg.probs, atol=1e-12)
            assert joint.finite_remainder == pytest.approx(marg.finite_remainder, abs=1e-12)

    @pytest.mark.parametrize("y", [(1.0, 2.0), (0.5, 0.8), (0.6, 1.7)])
    def test_k2_against_cauchy_oracle(self, y):
        c, K = 2.0, 10
        res = eta_fdd_pmf(LimitParams(c), FddQuery(y, [0.0, 0.0]), K)
        radius, m = 0.7, 128
        w = radius * np.exp(2j * np.pi * np.arange(m) / m)
        grid = fdd_pgf_complex(c, y, w[:, None], w[None, :])
        coeffs = np.fft.fft2(grid) / m**2
        scale = radius ** (np.arange(K + 1)[:, None] + np.arange(K + 1)[None, :])
        oracle = coeffs[: K + 1, : K + 1].real / scale
        mask = np.add.outer(np.arange(K + 1), np.arange(K + 1)) <= K
        np.testing.assert_allclose(res.coeffs[mask], oracle[mask], atol=1e-9)

    @pytest.mark.parametrize("c", [1.0, 5.0, 15.0])
    def test_counts_never_increase(self, c):
        K = 12
        res = eta_fdd_pmf(LimitParams(c), FddQuery([1.0, 2.0], [0.0, 0.0]), K)
        i1, i2 = np.indices(res.coeffs.shape)
        assert np.abs(res.coeffs[i2 > i1]).max() <= 1e-10

    def test_marginalization_consistency(self):
        p = LimitParams(4.0)
        K = 16
        joint = eta_fdd_pmf(p, FddQuery([0.9, 1.4], [0.0, 0.0]), K)
        marg = eta_marginal_pmf(p, 0.9, K)
        # row i1 is complete once i1 + i1 <= K (no mass above the diagonal)
        for i1 in range(K // 2 + 1):
            assert joint.coeffs[i1].sum() == pytest.approx(marg.probs[i1], abs=1e-10)

    @pytest.mark.parametrize("c", [1.0, 15.0])
    @pytest.mark.parametrize(
        "y", [(0.5,), (1.5,), (0.5, 1.5), (0.25, 0.5, 0.75), (0.5, 1.0, 2.0)]
    )
    def test_series_route_matches_float_route(self, c, y):
        # both evaluate _fdd_pgf; k = 3 at K = 20 takes the blocked pair product
        p, K, z = LimitParams(c), 20, 0.2
        res = eta_fdd_pmf(p, FddQuery(y, (0.0,) * len(y)), K)
        val = res.coeffs
        for _ in y:
            val = val @ z ** np.arange(K + 1)
        assert float(val) == pytest.approx(eta_fdd_pgf(p, FddQuery(y, (z,) * len(y))), abs=1e-10)

    def test_three_point_query_runs(self):
        res = eta_fdd_pmf(LimitParams(1.0), FddQuery([0.5, 1.0, 2.0], [0.0, 0.0, 0.0]), 8)
        assert res.coeffs.shape == (9, 9, 9)
        assert res.clamped <= res.coeffs.size
        total = res.coeffs.sum() + res.finite_remainder + res.infinite_mass
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_clamp_warning(self, monkeypatch, caplog):
        # (2, 33) is past the pair table, so its products take the FFT; its
        # clamped coefficients are round-off, above -_CLAMP_TOL, so the
        # warning shows only with the tolerance at 0
        args = (LimitParams(1.0), FddQuery((0.5, 1.5), (0.0, 0.0)), 33)
        assert series.ring(2, 33)._fft_len is not None
        want = eta_fdd_pmf(*args)
        assert not caplog.records
        monkeypatch.setattr(limitlaw, "_CLAMP_TOL", 0.0)
        with caplog.at_level("WARNING", logger="gwolab.limitlaw"):
            got = eta_fdd_pmf(*args)
        [record] = caplog.records
        assert (record.name, record.levelname) == ("gwolab.limitlaw", "WARNING")
        assert record.getMessage().startswith("clamped 165 joint pmf coefficients, worst -")
        assert got.clamped == want.clamped == 165
        np.testing.assert_array_equal(got.coeffs, want.coeffs)

    def test_exact_zeros_of_a_pure_death_process(self):
        # eta never increases, so P(eta(y_1) = i_1, eta(y_2) = i_2, ...) is 0
        # whenever i_2 > i_1 or i_3 > i_2; the pair table sums only exact
        # zeros there (the FFT left round-off in 707 of these 1,413 cells and
        # clamped 715 negatives)
        res = eta_fdd_pmf(LimitParams(1.0), FddQuery((0.5, 1.0, 2.0), (0.0, 0.0, 0.0)), 20)
        i1, i2, i3 = np.indices(res.coeffs.shape)
        cells = ((i2 > i1) | (i3 > i2)) & (i1 + i2 + i3 <= 20)
        assert cells.sum() == 1413
        assert res.clamped == 0
        assert res.coeffs[cells].tobytes() == np.zeros(1413).tobytes()

    def test_pair_table_memory(self):
        # building ring(3, 20) (the table is listed row by row, never as the
        # 1,771 x 1,771 square) and one pmf there peak below the 4.7 MB the
        # FFT route took (the square alone was 27 MB)
        args = (LimitParams(1.0), FddQuery((0.5, 1.0, 2.0), (0.0, 0.0, 0.0)), 20)
        eta_fdd_pmf(*args)
        series.ring.cache_clear()
        tracemalloc.start()
        try:
            eta_fdd_pmf(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series.ring(3, 20)._blocks is not None
        assert peak < 4.7e6

    def test_roots_leave_the_ring_cache_alone(self):
        # the smaller rings of Ring.sqrt's passes live on the ring at K, not
        # in `ring`'s cache of 16: a pmf fills one entry, and a second pmf
        # there misses it nowhere
        args = (LimitParams(1.0), FddQuery((0.5, 1.0, 2.0), (0.0, 0.0, 0.0)), 20)
        series.ring.cache_clear()
        eta_fdd_pmf(*args)
        assert series.ring.cache_info().currsize == 1
        misses = series.ring.cache_info().misses
        eta_fdd_pmf(*args)
        assert series.ring.cache_info().misses == misses

    def test_limits_enforced(self):
        p = LimitParams(1.0)
        with pytest.raises(ConfigError):
            eta_fdd_pmf(p, FddQuery([1.0, 2.0, 3.0, 4.0], [0.0] * 4), 5)
        with pytest.raises(CapTooLarge):
            eta_fdd_pmf(p, FddQuery([1.0, 2.0, 3.0], [0.0] * 3), 1000)
        with pytest.raises(ConfigError):
            eta_fdd_pmf(p, FddQuery([1.0], [1.0]), 5)

    @pytest.mark.parametrize("y, K", [((1.0, 2.0, 3.0), 128), ((1.0, 2.0), 2048)])
    def test_budget_covers_the_product_box(self, y, K):
        # (K+1)^k is within the budget, but a product transforms a (2K+1)^k
        # box; the raise comes before any ring is built
        assert (K + 1) ** len(y) <= 1 << 24 < (2 * K + 1) ** len(y)
        calls = series.ring.cache_info()[:2]
        with pytest.raises(CapTooLarge):
            eta_fdd_pmf(LimitParams(1.0), FddQuery(y, (0.0,) * len(y)), K)
        assert series.ring.cache_info()[:2] == calls


# ---------------------------------------------------------------------------
# laws of T and T0
# ---------------------------------------------------------------------------


class TestHittingTimes:
    @pytest.mark.parametrize("c", [0.0, 1.0, 5.0, 15.0])
    def test_cdf_continuous_at_one(self, c):
        A = 1.0 + math.sqrt(1.0 + c)
        left = (math.sqrt(1.0 + c) - 1.0) / A
        right = 1.0 - 2.0 / A
        assert left == pytest.approx(right, abs=1e-12)
        law = law_T(LimitParams(c))
        assert law.cdf(1.0 - 1e-12) == pytest.approx(law.cdf(1.0), abs=1e-9)

    def test_cdf_is_prob_finite(self, monkeypatch):
        p = LimitParams(2.0)
        grid = np.concatenate([np.linspace(-1.0, 4.0, 101), [0.0, 1.0, math.nan]])
        calls = []
        monkeypatch.setattr(limitlaw, "prob_finite", lambda *a: calls.append(a) or prob_finite(*a))
        cdf = law_T(p).cdf(grid)
        monkeypatch.undo()
        assert len(calls) == 1  # one whole-array call
        pos = grid > 0.0
        np.testing.assert_array_equal(cdf[pos], prob_finite(p, grid[pos]))
        np.testing.assert_array_equal(cdf[~pos], 0.0)
        assert law_T(p).cdf(0.5) == prob_finite(p, 0.5)

    @pytest.mark.parametrize("c", [0.0, 1.0, 15.0])
    def test_cdf_at_infinity_is_one_without_warning(self, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert law_T(LimitParams(c)).cdf(math.inf) == 1.0
            np.testing.assert_array_equal(prob_finite(LimitParams(c), np.array([0.5, math.inf]))[1:], [1.0])

    def test_density_jump_frozen(self):
        assert law_T(LimitParams(15.0)).density_jump() == pytest.approx(0.25, abs=1e-12)
        for c in (1.0, 5.0):
            assert law_T(LimitParams(c)).density_jump() == pytest.approx(
                1.0 / math.sqrt(1.0 + c), abs=1e-12
            )

    @pytest.mark.parametrize("c", [0.3, 1.0, 15.0])
    def test_density_near_zero_keeps_its_digits(self, c):
        # against c/A (1/2 - 3x/8 + 5x^2/16), x = c y^2, the density's
        # series at 0; (1 - 1/r)/(A y^2) was 2e-7 off at y = 1e-5 and 11%
        # off at 1e-8 (c = 15), the digits lost to cancellation
        law = law_T(LimitParams(c))
        for y in (1e-8, 1e-5):
            x = c * y * y
            series = c / law.scale * (0.5 - 0.375 * x + 0.3125 * x * x)
            assert law.pdf(y) == pytest.approx(series, rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("c", [1.0, 15.0])
    def test_cdf_near_zero_keeps_its_digits(self, c):
        # against expm1(log1p(c y^2)/2)/(A y), a form without cancellation;
        # (sqrt(1 + c y^2) - 1)/(A y) read cdf(1e-8) = 1.3323e-8 at c = 15
        # (about 1.5e-8) and 0 at c = 1 (about 2.07e-9)
        p = LimitParams(c)
        for y in (1e-8, 1e-5):
            want = math.expm1(math.log1p(c * y * y) / 2.0) / (p.scale * y)
            assert prob_finite(p, y) == pytest.approx(want, rel=4e-16, abs=0.0)
            assert law_T(p).cdf(y) == prob_finite(p, y)

    @pytest.mark.parametrize("c", [0.0, 1.0, 5.0, 15.0])
    def test_density_integrates_to_one(self, c):
        law = law_T(LimitParams(c))
        head, _ = integrate.quad(law.pdf, 0.0, 1.0)
        tail, _ = integrate.quad(law.pdf, 1.0, np.inf)
        assert head + tail == pytest.approx(1.0, abs=1e-8)

    def test_density_matches_cdf(self):
        law = law_T(LimitParams(4.0))
        area, _ = integrate.quad(law.pdf, 0.0, 0.5)
        assert area == pytest.approx(law.cdf(0.5), abs=1e-10)
        head, _ = integrate.quad(law.pdf, 0.0, 1.0)
        rest, _ = integrate.quad(law.pdf, 1.0, 1.7)
        assert head + rest == pytest.approx(law.cdf(1.7), abs=1e-10)

    def test_sampler_matches_closed_form_inverse(self):
        c = 3.0
        law = law_T(LimitParams(c))
        A = law.scale
        split = law.cdf(1.0)
        # near 0 the cdf's left branch loses digits to cancellation
        u = np.array([1e-6, 1e-4, 0.02, 0.11, split * 0.99, split, 0.7, 0.95, 0.999])
        got = law.sample(FixedUniforms(u), u.size)
        low = u < split
        # inverting (sqrt(1+cy^2)-1)/(Ay) = u gives y = 2Au/(c - A^2 u^2)
        expect_low = 2 * A * u[low] / (c - (A * u[low]) ** 2)
        np.testing.assert_allclose(got[low], expect_low, rtol=1e-13)
        np.testing.assert_allclose(got[~low], 2.0 / (A * (1.0 - u[~low])), rtol=1e-15)

    def test_emptying_time_law(self):
        law = LawT0()
        assert law.pdf(2.0) == pytest.approx(0.25)
        assert law.pdf(0.5) == 0.0

    def test_degenerate_c0_laws_coincide(self):
        # at c = 0, T and T0 share the law P(T0 <= y) = (y - 1)/y from 1 on
        grid = np.linspace(0.05, 4.0, 80)
        np.testing.assert_allclose(law_T(LimitParams(0.0)).cdf(grid), ref_t0_cdf(grid), atol=1e-14)

    @pytest.mark.parametrize("c", [1.0, 15.0])
    def test_sampler_ks_smoke(self, c):
        law = law_T(LimitParams(c))
        rng = np.random.default_rng(20240815)
        draws = law.sample(rng, 100_000)
        stat = stats.kstest(draws, law.cdf).statistic
        assert stat <= stats.kstwobign.ppf(0.999) / math.sqrt(draws.size)


# ---------------------------------------------------------------------------
# in-place evaluation against whole-array references
# ---------------------------------------------------------------------------

# Whole-array references: every branch on every point, picked by np.where.
# The in-place sampler and densities do per point the same operations in
# the same order, so they must give the same bits.


def ref_t_pdf(p, y):
    y = np.asarray(y, dtype=float)
    c, A = p.c, p.scale
    safe = np.where(y > 0.0, y, 1.0)
    r = np.sqrt(1.0 + c * y**2)
    left = c / (A * r * (r + 1.0))
    right = 2.0 / (A * safe**2)
    out = np.where(y >= 1.0, right, left)
    return np.where(y < 0.0, 0.0, out)


def ref_t_sample(p, rng, size):
    u = rng.random(size)
    A = p.scale
    left = u < prob_finite(p, 1.0)
    out = np.empty(size)
    out[~left] = 2.0 / (A * (1.0 - u[~left]))
    au = A * u[left]
    out[left] = 2.0 * au / (p.c - au * au)
    return out


def ref_t0_pdf(y):
    y = np.asarray(y, dtype=float)
    return np.where(y > 1.0, 1.0 / np.where(y != 0.0, y, 1.0) ** 2, 0.0)


def ref_t0_cdf(y):
    """P(T0 <= y) = (y - 1)/y from 1 on, 0 below it."""
    y = np.asarray(y, dtype=float)
    return np.where(y >= 1.0, (y - 1.0) / np.where(y != 0.0, y, 1.0), 0.0)


# below, at and above 1, with 0, negatives, nan and the ends of the floats
EDGE_Y = np.concatenate([
    np.linspace(-1.0, 4.0, 501),
    [-math.inf, -0.0, 0.0, 5e-324, 1e-300, 1e-8, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1e150],
    [math.nan, math.inf],
])
SCALAR_Y = (-1.0, 0.0, 0.5, 1.0, 2.5, math.inf)


def same_bits(got, want):
    """Equal values and signs, nan where the reference has nan."""
    want = np.asarray(want)
    assert np.asarray(got).shape == want.shape
    return np.array_equal(got, want, equal_nan=True) and np.array_equal(np.signbit(got), np.signbit(want))


def peak_ratio(fn):
    """tracemalloc's peak during fn() over the bytes of what it returns;
    one call first keeps one-time allocations out."""
    fn()
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / out.nbytes


@pytest.mark.parametrize("c", [0.0, 0.3, 1.0, 15.0])
class TestInPlaceLawT:
    def test_pdf_is_the_reference(self, c):
        p = LimitParams(c)
        law = law_T(p)
        with np.errstate(all="ignore"):
            assert same_bits(law.pdf(EDGE_Y), ref_t_pdf(p, EDGE_Y))
            for v in SCALAR_Y:
                assert type(law.pdf(v)) is float and law.pdf(v) == float(ref_t_pdf(p, v))

    def test_sampler_is_the_reference(self, c):
        p = LimitParams(c)
        split = law_T(p).cdf(1.0)
        u = np.array([0.0, 1e-6, 0.02, split * 0.99, split, np.nextafter(split, 1.0), 0.7, 0.999])
        assert same_bits(law_T(p).sample(FixedUniforms(u), u.size), ref_t_sample(p, FixedUniforms(u), u.size))
        for size in (0, 1, 50_000):
            got = law_T(p).sample(np.random.default_rng(size), size)
            assert same_bits(got, ref_t_sample(p, np.random.default_rng(size), size))


def test_t0_pdf_is_the_reference():
    law = LawT0()
    with np.errstate(all="ignore"):
        assert same_bits(law.pdf(EDGE_Y), ref_t0_pdf(EDGE_Y))
        for v in SCALAR_Y:
            assert type(law.pdf(v)) is float and law.pdf(v) == float(ref_t0_pdf(v))


def test_c0_cdf_is_the_t0_reference_and_one_at_infinity():
    # at c = 0 the law of T is that of T0: P(T0 <= y) = (y - 1)/y from 1 on,
    # 1 at y = inf, and no numpy warning at the ends of the floats
    law = law_T(LimitParams(0.0))
    with np.errstate(all="ignore"):
        want = ref_t0_cdf(EDGE_Y)
    want[EDGE_Y == math.inf] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_allclose(law.cdf(EDGE_Y), want, rtol=0.0, atol=1e-15)
        for v in SCALAR_Y:
            expect = 1.0 if v == math.inf else float(ref_t0_cdf(v))
            assert type(law.cdf(v)) is float and law.cdf(v) == pytest.approx(expect, abs=1e-15)


class TestInPlaceMemory:
    def test_sampler_holds_its_output_and_the_draws_left_of_one(self):
        # 1 + 1/8 + 2 * 0.17: the output, the mask and two arrays of the draws left of 1
        law = law_T(LimitParams(1.0))
        assert peak_ratio(lambda: law.sample(np.random.default_rng(5), 100_000)) <= 1.7

    def test_pdf_holds_its_output_and_the_points_left_of_one(self):
        # a quarter of the points lie left of 1
        pdf = law_T(LimitParams(1.0)).pdf
        y = np.linspace(4.0 / 2**20, 4.0, 2**20)
        assert peak_ratio(lambda: pdf(y)) <= 2.5


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


class TestHelpers:
    def test_dichotomy_fraction_frozen(self):
        assert dichotomy_fraction(1.0) == pytest.approx(3.0 - 2.0 * SQRT2, abs=1e-14)
        assert dichotomy_fraction(15.0) == pytest.approx(0.6, abs=1e-14)
        assert dichotomy_fraction(0.0) == 0.0

    @pytest.mark.parametrize("c", [5.0, 15.0])
    def test_figure_grid(self, c):
        data = figure1_data(c, step=0.01, y_max=4.0)
        assert data.shape == (400, 3)
        i_one = 99
        assert data[i_one, 0] == pytest.approx(1.0, abs=1e-12)
        law = law_T(LimitParams(c))
        np.testing.assert_allclose(data[:, 1], law.pdf(data[:, 0]), rtol=1e-14)
        np.testing.assert_allclose(data[:, 2], LawT0().pdf(data[:, 0]), rtol=1e-14)
        # the jump at 1 is visible on the grid
        assert data[i_one, 1] - data[i_one - 1, 1] > 0.9 / math.sqrt(1.0 + c)

    @pytest.mark.parametrize("c", [0.0, 1.0, 15.0])
    def test_figure_table_is_the_stacked_columns(self, c):
        data = figure1_data(c, step=0.0005, y_max=4.0)
        y = np.arange(1, 8001) * 0.0005
        want = np.column_stack([y, ref_t_pdf(LimitParams(c), y), ref_t0_pdf(y)])
        assert same_bits(data, want)

    def test_figure_table_is_filled_in_place(self):
        # the table, then one density's output and left-of-1 points on top
        assert peak_ratio(lambda: figure1_data(15.0, step=4.0 / 2**20, y_max=4.0)) <= 1.8

    def test_figure_grid_ends_within_y_max(self):
        # 4 / 1.5 rounds to 3, but the grid ends at its last multiple within 4
        np.testing.assert_array_equal(figure1_data(1.0, step=1.5, y_max=4.0)[:, 0], [1.5, 3.0])
        # 1 / 0.03 is no whole number: 1 is off the grid, whose last row is 3.99
        y = figure1_data(1.0, step=0.03, y_max=4.0)[:, 0]
        assert y.tobytes() == (np.arange(1, 134) * 0.03).tobytes()
        assert y[-1] <= 4.0 and 1.0 not in y

    @pytest.mark.parametrize("step", [0.01, 0.0005, 4.0 / 2**20, 1e-5])
    def test_figure_grids_in_use_keep_their_rows(self, step):
        # y_max / step within a few ulps of a whole number counts as that number
        y = figure1_data(1.0, step=step, y_max=4.0)[:, 0]
        assert y.tobytes() == (np.arange(1, round(4.0 / step) + 1) * step).tobytes()

    def test_figure_validation(self):
        with pytest.raises(ConfigError):
            figure1_data(5.0, step=0.0)
        with pytest.raises(ConfigError):
            figure1_data(5.0, step=math.nan)
        with pytest.raises(CapTooLarge):
            figure1_data(15.0, step=1e-12)


# ---------------------------------------------------------------------------
# the models the limit theorem covers
# ---------------------------------------------------------------------------


MODEL_DIR = Path(__file__).resolve().parents[1] / "docs" / "models"

# lives {1: 0.5, 2: 0.5}: E N = 0.9, E N = 1.3, and E N = 1 with b = 0
UNCOVERED = {"subcritical": [0.4, 0.3, 0.3], "supercritical": [0.2, 0.3, 0.5], "one_child": [0.0, 1.0]}

# limit_of and each entry point of the limit route, called with valid arguments
ENTRY_POINTS = {
    "limit_of": limit_of,
    "convergence_table": lambda m: exact_engine.convergence_table(m, (1.0, 2.0), (0.5, 0.5), (8, 16)),
    "limit_convergence": lambda m: limit_convergence(m, (1.0,), (0.5,), (64, 128, 256)),
    "fdd_limit_check": lambda m: fdd_limit_check(m, (1.0,), (16, 32)),
    "tv_to_limit": lambda m: tv_to_limit(m, (1.0,), 32, 8, 1.0),
    "dichotomy_stats": lambda m: simulator.dichotomy_stats(simulator.SimConfig(m, 16, (16,), 100, 1)),
}


def uncovered(offspring):
    return BellmanHarris(FiniteLife({1: 0.5, 2: 0.5}), OffspringPMF(offspring))


class TestLimitOf:
    @pytest.mark.parametrize("path", sorted(MODEL_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_example_models_are_covered(self, path):
        model = load_model(str(path))
        s = summarize(model)
        p, h = limit_of(model)
        assert (p, h) == (LimitParams(s.c), s.h)
        assert s.a >= 1.0 and math.isfinite(p.c)

    @pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
    @pytest.mark.parametrize("offspring", UNCOVERED.values(), ids=UNCOVERED)
    def test_refuses_before_any_work(self, entry, offspring, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the DP or the simulator ran")

        monkeypatch.setattr(exact_engine, "_dp", no_work)
        monkeypatch.setattr(simulator, "_run_all", no_work)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="critical"):
                entry(uncovered(offspring))

    def test_tv_to_limit_takes_only_the_models_c(self):
        model = load_model(str(MODEL_DIR / "delayed_death.json"))
        c = limit_of(model)[0].c
        assert 0.0 <= tv_to_limit(model, (1.0,), 16, 6, c) <= 1.0
        with pytest.raises(ConfigError, match="model's c"):
            tv_to_limit(model, (1.0,), 16, 6, c + 0.5)
        with pytest.raises(ConfigError, match="query points"):  # a bad y fails first, whatever c is
            tv_to_limit(model, (1.0, math.nan), 16, 6, c + 0.5)


@functools.lru_cache(maxsize=None)
def survival_column(path):
    """Q(t) = P(Z(t) > 0) for t <= 4 * 4096, one column per model file."""
    return exact_engine.extinction_seq(load_model(str(path)), 4 * 4096).q


@pytest.mark.parametrize("y", [1.5, 2.0, 4.0])
@pytest.mark.parametrize("path", sorted(MODEL_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_dp_mass_at_zero_tends_to_the_limit(path, y):
    # P(eta(y) = 0) = 1 - 1/y for y >= 1, read off one survival column as
    # P(Z(ty) = 0 | Z(t) > 0) = 1 - Q(ty)/Q(t), extrapolated over t = 1024,
    # 2048, 4096; the heavy tails' log t / t term leaves up to 3e-4
    q = survival_column(path)
    reads = [1.0 - q[int(y * t)] / q[t] for t in (1024, 2048, 4096)]
    assert richardson(*reads) == pytest.approx(1.0 - 1.0 / y, abs=5e-4)
