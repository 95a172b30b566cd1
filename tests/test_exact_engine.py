"""Tests for the exact DP engine.

The main oracle is an independent reference implementation: a memoized
recursion over explicit (probability, birth ages, life) atoms, indexed
by the whole vector of remaining query times instead of the engine's
single shift.  Models with unbounded life get their tail lumped into one
"outlives the horizon" atom, which is exact for queries inside the
horizon.  Coefficients are cross-checked by Cauchy/FFT extraction from
the reference pgf.
"""

import io
import math
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from gwolab.errors import (
    CapTooLarge,
    ConfigError,
    UnsupportedModel,
    ZeroConditioningEvent,
)
from gwolab.exact_engine import (
    FddSpec,
    conditional_pgf,
    conditional_pmf,
    convergence_csv,
    convergence_table,
    extinction_seq,
    fdd_pgf,
    g_factor,
    weighted_survival_limit,
)
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
from gwolab.modelio import load_model
from gwolab.verify import tree_pgf

BIG = 10**9  # stands for "outlives any query time"
MODEL_DIR = Path(__file__).resolve().parents[1] / "docs" / "models"


def gw_binary():
    return BellmanHarris(FiniteLife({1: 1.0}), OffspringPMF([0.5, 0.0, 0.5]))


def bh_heavy():
    return BellmanHarris(QuadraticTailLife(d=1.0, t_min=2), OffspringPMF([0.75, 0.0, 0.0, 0.0, 0.25]))


def tabulated_mix():
    return Tabulated([(0.5, (1, 2), 3), (0.5, (), 2)])


def delayed_mix():
    return DelayedDeath([(0.6, (1, 2)), (0.4, ())], FiniteLife({1: 0.7, 3: 0.3}))


def sevastyanov_mix():
    laws = {1: OffspringPMF([0.5, 0.0, 0.5]), 2: OffspringPMF([0.25, 0.5, 0.25])}
    return Sevastyanov(FiniteLife({1: 0.5, 2: 0.5}), laws.__getitem__)


# ---------------------------------------------------------------------------
# reference implementation
# ---------------------------------------------------------------------------


def expand_atoms(model, horizon):
    """Explicit (prob, ages, life) atoms, exact for query times <= horizon."""
    if isinstance(model, Tabulated):
        return list(model.atoms)
    if isinstance(model, DelayedDeath):
        out = []
        for p, ages in model.schedules:
            last = ages[-1] if ages else 0
            for r in range(1, horizon + 1):
                pr = model.residual.survival(r - 1) - model.residual.survival(r)
                if pr > 0.0:
                    out.append((p * pr, ages, last + r))
            tail = model.residual.survival(horizon)
            if tail > 0.0:
                out.append((p * tail, ages, BIG))
        return out
    if isinstance(model, (BellmanHarris, Sevastyanov)):
        out = []
        for l in range(1, horizon + 1):
            pl = model.life.survival(l - 1) - model.life.survival(l)
            if pl <= 0.0:
                continue
            law = model.offspring if isinstance(model, BellmanHarris) else model.offspring_by_life(l)
            for n, pn in enumerate(law.probs):
                if pn > 0.0:
                    out.append((pl * pn, (l,) * n, l))
        tail = model.life.survival(horizon)
        if tail > 0.0:
            out.append((tail, (), BIG))
        return out
    raise AssertionError(f"no expansion for {model}")


def reference_pgf(atoms, times, z):
    """E(prod z_i^{Z(t_i)}) by recursion over the vector of times."""
    atoms = tuple(atoms)

    @lru_cache(maxsize=None)
    def rec(ts):
        if not ts:
            return 1.0
        val = 0.0
        for p, ages, life in atoms:
            factor = 1.0
            for t, w in ts:
                if life > t:
                    factor *= w
            for a in ages:
                sub = tuple((t - a, w) for t, w in ts if t >= a)
                factor *= rec(sub)
            val += p * factor
        return val

    return rec(tuple(zip(times, z)))


ALL_MODELS = [gw_binary, bh_heavy, tabulated_mix, delayed_mix, sevastyanov_mix]


# ---------------------------------------------------------------------------
# extinction
# ---------------------------------------------------------------------------


class TestExtinction:
    def test_frozen_binary_values(self):
        table = extinction_seq(gw_binary(), 3)
        np.testing.assert_allclose(table.q, [1.0, 0.5, 0.375, 0.3046875], atol=1e-15)

    @pytest.mark.parametrize("make", ALL_MODELS)
    def test_bounds_and_monotone(self, make):
        q = extinction_seq(make(), 64).q
        assert q[0] == 1.0
        assert np.all((q >= 0.0) & (q <= 1.0))
        assert np.all(np.diff(q) <= 1e-15)

    def test_binary_survival_scales_like_two_over_t(self):
        table = extinction_seq(gw_binary(), 4096)
        assert abs(table.tq[-1] - 2.0) < 0.02

    @pytest.mark.parametrize("make", ALL_MODELS)
    def test_against_reference(self, make):
        model = make()
        table = extinction_seq(model, 6)
        atoms = expand_atoms(model, 6)
        for t in range(7):
            ref = 1.0 - reference_pgf(atoms, (t,), (0.0,))
            assert table.q[t] == pytest.approx(ref, abs=1e-12)

    def test_csv_roundtrip(self):
        fh = io.StringIO()
        extinction_seq(gw_binary(), 4).to_csv(fh)
        lines = fh.getvalue().strip().splitlines()
        assert lines[0] == "t,Q,tQ,h,abs_error"
        assert len(lines) == 6
        row = lines[2].split(",")
        assert float(row[1]) == 0.5
        assert float(row[3]) == 2.0  # limit of t*Q for the binary model

    def test_rejects_unknown_model(self):
        with pytest.raises(UnsupportedModel):
            extinction_seq(object(), 4)

    def test_rejects_negative_horizon(self):
        with pytest.raises(ConfigError):
            extinction_seq(gw_binary(), -1)


class TestFiniteLifeClip:
    """Finite-support lives end every segment at max_life; the DP must
    agree with references that know nothing of segments far past it."""

    def test_binary_splitting_matches_generation_iteration(self):
        model = load_model(str(MODEL_DIR / "binary_splitting.json"))
        t_max = 4096
        f = model.offspring.probs
        ref = [1.0]  # Q(t+1) = 1 - f(1 - Q(t)) when every life is 1
        for _ in range(t_max):
            s = 1.0 - ref[-1]
            ref.append(1.0 - sum(p * s**n for n, p in enumerate(f)))
        np.testing.assert_allclose(extinction_seq(model, t_max).q, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "times,z",
        [((10,), (0.0,)), ((10, 13), (0.3, 0.0)), ((10, 13, 16), (0.3, 0.5, 0.7))],
    )
    def test_age_dependent_offspring_matches_tree(self, times, z):
        model = load_model(str(MODEL_DIR / "age_dependent_offspring.json"))
        assert times[0] > 3 * model.life.max_life
        got = fdd_pgf(model, FddSpec(times, z))
        assert got == pytest.approx(tree_pgf(model, times, z), abs=1e-12)


# ---------------------------------------------------------------------------
# fdd pgf
# ---------------------------------------------------------------------------


class TestFddPgf:
    @pytest.mark.parametrize("make", ALL_MODELS)
    def test_against_reference(self, make):
        model = make()
        atoms = expand_atoms(model, 6)
        for times, z in [
            ((1, 2), (0.5, 0.5)),
            ((1, 3, 4), (0.3, 0.7, 0.9)),
            ((2,), (0.15,)),
            ((0, 2), (0.5, 0.5)),
            ((3, 6), (0.0, 0.8)),
        ]:
            got = fdd_pgf(model, FddSpec(times, z))
            ref = reference_pgf(atoms, times, z)
            assert got == pytest.approx(ref, abs=1e-12), (times, z)

    @pytest.mark.parametrize("make", ALL_MODELS)
    def test_matches_extinction_at_zero(self, make):
        model = make()
        table = extinction_seq(model, 12)
        for t in (1, 5, 12):
            assert fdd_pgf(model, FddSpec((t,), (0.0,))) == pytest.approx(1.0 - table.q[t], abs=1e-14)

    def test_weight_one_dropped(self):
        spec = FddSpec((1, 2, 5), (0.5, 1.0, 0.25))
        assert spec.k == 2
        model = gw_binary()
        assert fdd_pgf(model, spec) == fdd_pgf(model, FddSpec((1, 5), (0.5, 0.25)))
        assert fdd_pgf(model, FddSpec((3, 7), (1.0, 1.0))) == 1.0

    def test_time_zero_factor_is_exact(self):
        # Z(0) = 1 always, so a query at 0 multiplies by its weight
        model = tabulated_mix()
        whole = fdd_pgf(model, FddSpec((0, 2), (0.5, 0.5)))
        assert whole == pytest.approx(0.5 * fdd_pgf(model, FddSpec((2,), (0.5,))), abs=1e-15)

    @pytest.mark.parametrize("make", ALL_MODELS)
    def test_survival_sandwich(self, make):
        # (1-z_1) Q(t_1) <= 1 - pgf <= Q(t_1)
        model = make()
        q = extinction_seq(model, 8).q
        for times, z in [((2, 4), (0.3, 0.9)), ((1, 6, 8), (0.7, 0.2, 0.5))]:
            val = 1.0 - fdd_pgf(model, FddSpec(times, z))
            assert (1.0 - z[0]) * q[times[0]] - 1e-14 <= val <= q[times[0]] + 1e-14

    def test_split_by_life_segment_identity(self):
        # founder-alive-factor evaluation equals the sum grouped by which
        # query times the founder outlives
        model = gw_binary()
        times, z = (2, 4, 5), (0.4, 0.6, 0.8)
        pmf = model.life.pmf_array(times[-1])

        def shifted(l):
            kept = [(t - l, w) for t, w in zip(times, z) if t - l >= 0]
            if not kept:
                return 1.0
            return fdd_pgf(model, FddSpec([t for t, _ in kept], [w for _, w in kept]))

        total = 0.0
        bounds = (0,) + times
        for seg in range(len(bounds)):
            lo = bounds[seg]
            hi = bounds[seg + 1] if seg + 1 < len(bounds) else None
            prefix = math.prod(z[:seg])
            hi_range = times[-1] if hi is None else hi
            for l in range(lo + 1, hi_range + 1):
                total += pmf[l] * prefix * model.offspring.pgf(shifted(l))
            if hi is None:
                total += model.life.survival(times[-1]) * prefix
        assert fdd_pgf(model, FddSpec(times, z)) == pytest.approx(total, abs=1e-14)

    def test_monotone_in_weights(self):
        model = bh_heavy()
        lo = fdd_pgf(model, FddSpec((3, 6), (0.2, 0.5)))
        hi = fdd_pgf(model, FddSpec((3, 6), (0.4, 0.5)))
        assert lo <= hi + 1e-15

    def test_validation(self):
        with pytest.raises(ConfigError):
            FddSpec((2, 1), (0.5, 0.5))
        with pytest.raises(ConfigError):
            FddSpec((1, 1), (0.5, 0.5))
        with pytest.raises(ConfigError):
            FddSpec((-1,), (0.5,))
        with pytest.raises(ConfigError):
            FddSpec((1,), (1.5,))
        with pytest.raises(ConfigError):
            FddSpec((), ())
        with pytest.raises(ConfigError):
            FddSpec((1,), (0.5,), t_obs=0)


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------


class TestConditional:
    def test_frozen_binary_value(self):
        val = conditional_pgf(gw_binary(), FddSpec((1,), (0.5,), t_obs=2))
        assert val == pytest.approx(0.25, abs=1e-15)

    def test_extinct_given_survival_is_zero(self):
        assert conditional_pgf(gw_binary(), FddSpec((5,), (0.0,), t_obs=5)) == pytest.approx(0.0, abs=1e-15)

    def test_normalization_as_weight_tends_to_one(self):
        val = conditional_pgf(gw_binary(), FddSpec((5,), (1.0 - 1e-12,), t_obs=5))
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_early_conditioning_reduces_to_ratio_form(self):
        # for t_obs <= t_1 the answer collapses to 1 - (1 - pgf)/Q(t_obs)
        model = gw_binary()
        spec = FddSpec((4, 6), (0.3, 0.7), t_obs=2)
        q = extinction_seq(model, 2).q[2]
        expect = 1.0 - (1.0 - fdd_pgf(model, FddSpec(spec.times, spec.z))) / q
        assert conditional_pgf(model, spec) == pytest.approx(expect, abs=1e-14)

    @pytest.mark.parametrize("make", [gw_binary, tabulated_mix, delayed_mix])
    def test_against_reference_bayes(self, make):
        model = make()
        atoms = expand_atoms(model, 6)
        times, z, t_obs = (2, 5), (0.35, 0.6), 4
        plain = reference_pgf(atoms, times, z)
        extinct = reference_pgf(atoms, times + (t_obs,), z + (0.0,))
        q = 1.0 - reference_pgf(atoms, (t_obs,), (0.0,))
        got = conditional_pgf(model, FddSpec(times, z, t_obs=t_obs))
        assert got == pytest.approx((plain - extinct) / q, abs=1e-12)

    def test_zero_conditioning_event(self):
        barren = Tabulated([(1.0, (), 2)])
        with pytest.raises(ZeroConditioningEvent):
            conditional_pgf(barren, FddSpec((1,), (0.5,), t_obs=5))

    def test_requires_t_obs(self):
        with pytest.raises(ConfigError):
            conditional_pgf(gw_binary(), FddSpec((1,), (0.5,)))

    def test_all_weights_one_gives_unit(self):
        assert conditional_pgf(gw_binary(), FddSpec((3, 5), (1.0, 1.0), t_obs=4)) == 1.0


class TestConditionalPmf:
    def test_marginal_against_reference_fft(self):
        model = gw_binary()
        res = conditional_pmf(model, FddSpec((3,), (0.0,), t_obs=3), K=6)
        atoms = expand_atoms(model, 3)
        q = 1.0 - reference_pgf(atoms, (3,), (0.0,))
        radius, m = 0.6, 64
        zs = radius * np.exp(2j * np.pi * np.arange(m) / m)
        vals = np.array(
            [(reference_pgf(atoms, (3,), (w,)) - reference_pgf(atoms, (3,), (0.0,))) / q for w in zs]
        )
        oracle = (np.fft.fft(vals) / m)[:7].real / radius ** np.arange(7)
        np.testing.assert_allclose(res.probs, oracle, atol=1e-12)
        assert res.probs[0] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("make", ALL_MODELS)
    def test_joint_against_reference_fft(self, make):
        model = make()
        K = 6
        res = conditional_pmf(model, FddSpec((2, 3), (0.0, 0.0), t_obs=3), K=K)
        atoms = expand_atoms(model, 3)
        q = 1.0 - reference_pgf(atoms, (3,), (0.0,))
        radius, m = 0.6, 64
        zs = radius * np.exp(2j * np.pi * np.arange(m) / m)
        grid = np.empty((m, m), dtype=complex)
        for i, w1 in enumerate(zs):
            for j, w2 in enumerate(zs):
                plain = reference_pgf(atoms, (2, 3), (w1, w2))
                extinct = reference_pgf(atoms, (2, 3, 3), (w1, w2, 0.0))
                grid[i, j] = (plain - extinct) / q
        coeffs = np.fft.fft2(grid) / m**2
        scale = radius ** (np.arange(K + 1)[:, None] + np.arange(K + 1)[None, :])
        oracle = coeffs[: K + 1, : K + 1].real / scale
        degree_ok = np.add.outer(np.arange(K + 1), np.arange(K + 1)) <= K
        np.testing.assert_allclose(res.probs[degree_ok], oracle[degree_ok], atol=1e-11)

    @pytest.mark.parametrize("make", ALL_MODELS)
    def test_mass_normalization(self, make):
        res = conditional_pmf(make(), FddSpec((4, 8), (0.0, 0.0), t_obs=8), K=10)
        assert np.all(res.probs >= -1e-12)
        assert res.probs.sum() + res.overflow == pytest.approx(1.0, abs=1e-10)
        assert res.overflow >= -1e-10

    def test_series_evaluation_matches_scalar(self):
        model = bh_heavy()
        times, t_obs, K = (8, 12), 10, 12
        res = conditional_pmf(model, FddSpec(times, (0.0, 0.0), t_obs=t_obs), K=K)
        z = 0.15
        powers = z ** np.arange(K + 1)
        series_val = float(powers @ res.probs @ powers)
        scalar_val = conditional_pgf(model, FddSpec(times, (z, z), t_obs=t_obs))
        # the dropped tail is at most z^(K+1)
        assert series_val == pytest.approx(scalar_val, abs=1e-10)

    def test_budget_guard(self):
        with pytest.raises(CapTooLarge):
            conditional_pmf(gw_binary(), FddSpec((2, 3, 4), (0.0,) * 3, t_obs=4), K=300)

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigError):
            conditional_pmf(gw_binary(), FddSpec((3,), (0.0,), t_obs=3), K=0)

    def test_validation(self):
        with pytest.raises(ConfigError, match="t_obs"):
            conditional_pmf(gw_binary(), FddSpec((3,), (0.0,)), K=4)
        with pytest.raises(ConfigError, match="no coordinates"):
            conditional_pmf(gw_binary(), FddSpec((3,), (1.0,), t_obs=3), K=4)


# ---------------------------------------------------------------------------
# convergence toward the compound limit
# ---------------------------------------------------------------------------


class TestConvergence:
    def test_plain_survival_target_is_h(self):
        summary = summarize(gw_binary())
        rows = convergence_table(gw_binary(), (1.0,), (0.0,), (16, 32))
        assert rows[0].target == pytest.approx(summary.h, abs=1e-14)
        assert summary.h == 2.0

    def test_bounded_life_target_never_depends_on_weights(self):
        model = tabulated_mix()  # d = 0
        h = summarize(model).h
        rows = convergence_table(model, (1.0, 2.0), (0.3, 0.6), (8,))
        assert rows[0].target == pytest.approx(h, abs=1e-14)

    def test_g_factor_values(self):
        assert g_factor((1.0, 2.0), (0.0, 0.5)) == pytest.approx(1.0)
        assert g_factor((1.0, 2.0), (0.5, 0.5)) == pytest.approx(0.5625)

    def test_limit_root_identity(self):
        summary = summarize(bh_heavy())
        for g in (1.0, 0.5625, 0.25):
            x = weighted_survival_limit(summary, g)
            assert summary.b * x * x == pytest.approx(summary.a * x + summary.d * g, abs=1e-12)
        assert weighted_survival_limit(summary, 1.0) == pytest.approx(summary.h, abs=1e-12)

    def test_limit_matches_radical_ratio_form(self):
        summary = summarize(bh_heavy())
        for g in (0.3, 0.5625, 0.9):
            direct = weighted_survival_limit(summary, g)
            ratio = summary.h * (1 + math.sqrt(1 + summary.c * g)) / (1 + math.sqrt(1 + summary.c))
            assert direct == pytest.approx(ratio, abs=1e-12)

    def test_binary_error_shrinks_along_dyadic_times(self):
        rows = convergence_table(gw_binary(), (1.0,), (0.0,), (64, 128, 256))
        errs = [r.abs_error for r in rows]
        assert errs[0] > errs[1] > errs[2]

    def test_rounding_of_scaled_times(self):
        rows = convergence_table(gw_binary(), (1.0, 1.5), (0.2, 0.2), (5,))
        # times are 5 and 5 + round(5*0.5) = 8; just confirm it runs and
        # reports q_k consistently
        expect = 1.0 - fdd_pgf(gw_binary(), FddSpec((5, 8), (0.2, 0.2)))
        assert rows[0].q_k == pytest.approx(expect, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ConfigError):
            convergence_table(gw_binary(), (2.0,), (0.0,), (8,))
        with pytest.raises(ConfigError):
            convergence_table(gw_binary(), (1.0, 1.0), (0.0, 0.0), (8,))
        with pytest.raises(ConfigError):
            convergence_table(gw_binary(), (1.0,), (0.0,), (0,))
        with pytest.raises(ConfigError):
            convergence_table(gw_binary(), (1.0, 2.0), (1.0, 0.0), (8,))

    def test_csv_output(self):
        fh = io.StringIO()
        convergence_csv(convergence_table(gw_binary(), (1.0,), (0.0,), (16,)), fh)
        lines = fh.getvalue().strip().splitlines()
        assert lines[0] == "t,Q,tQ,h,abs_error"
        assert len(lines) == 2
