"""Simulator checks: exact trajectories for deterministic models,
agreement with the exact engine within Monte Carlo error, determinism
and thread-count invariance, rejection sampling, and output formats."""

import io
import math

import numpy as np
import pytest

from gwolab.errors import BudgetExhausted, ConfigError, UnsupportedModel
from gwolab.exact_engine import FddSpec, conditional_pmf, extinction_seq
from gwolab.lifelaw import (
    BellmanHarris,
    FiniteLife,
    OffspringPMF,
    QuadraticTailLife,
    Tabulated,
    summarize,
)
from gwolab.limitlaw import dichotomy_fraction
from gwolab.simulator import (
    SimConfig,
    conditional_sample,
    default_cutoff,
    dichotomy_stats,
    simulate,
)


def gw_binary():
    return BellmanHarris(FiniteLife({1: 1.0}), OffspringPMF([0.5, 0.0, 0.5]))


def bh_heavy():
    return BellmanHarris(
        QuadraticTailLife(d=1.0, t_min=2), OffspringPMF([0.75, 0.0, 0.0, 0.0, 0.25])
    )


def tabulated_mix():
    return Tabulated([(0.5, (1, 2), 3), (0.5, (), 2)])


def lone_individual():
    # one founder, no children, deterministic life of 5
    return Tabulated([(1.0, (), 5)])


class TestTrajectories:
    def test_deterministic_single_individual(self):
        cfg = SimConfig(
            model=lone_individual(),
            horizon=6,
            query_times=(0, 2, 4, 5, 6),
            replicates=40,
            seed=7,
        )
        res = simulate(cfg)
        assert res.counts.shape == (40, 5)
        np.testing.assert_array_equal(res.counts, np.tile([1, 1, 1, 0, 0], (40, 1)))
        assert not res.survived.any()
        assert not res.overflowed.any()

    def test_everyone_alive_at_time_zero(self):
        for model in (gw_binary(), bh_heavy(), tabulated_mix()):
            cfg = SimConfig(model=model, horizon=3, query_times=(0,), replicates=64, seed=11)
            res = simulate(cfg)
            np.testing.assert_array_equal(res.counts[:, 0], np.ones(64, dtype=np.int64))

    def test_survivor_flag_matches_horizon_count(self):
        cfg = SimConfig(
            model=gw_binary(), horizon=4, query_times=(2, 4), replicates=500, seed=3
        )
        res = simulate(cfg)
        np.testing.assert_array_equal(res.survived, res.counts[:, 1] > 0)

    def test_survivor_flag_without_horizon_query(self):
        # horizon not among the query times: the flag still refers to Z(horizon)
        cfg = SimConfig(model=gw_binary(), horizon=4, query_times=(2,), replicates=500, seed=3)
        res = simulate(cfg)
        full = simulate(
            SimConfig(model=gw_binary(), horizon=4, query_times=(2, 4), replicates=500, seed=3)
        )
        np.testing.assert_array_equal(res.survived, full.counts[:, 1] > 0)
        np.testing.assert_array_equal(res.counts[:, 0], full.counts[:, 0])


class TestAgainstExactEngine:
    def test_survival_matches_extinction_seq(self):
        reps = 20_000
        for model, horizon in ((gw_binary(), 3), (tabulated_mix(), 5)):
            cfg = SimConfig(
                model=model, horizon=horizon, query_times=(horizon,), replicates=reps, seed=101
            )
            res = simulate(cfg)
            q_exact = extinction_seq(model, horizon).q[horizon]
            s = res.survival_summary()
            sigma = math.sqrt(q_exact * (1.0 - q_exact) / reps)
            assert abs(s["estimate"] - q_exact) <= 3.0 * sigma

    def test_mean_count_is_critical(self):
        # E Z(t) = 1 for every critical model and time
        reps = 20_000
        cfg = SimConfig(
            model=gw_binary(), horizon=8, query_times=(4, 8), replicates=reps, seed=29
        )
        res = simulate(cfg)
        for t, row in res.mean_counts().items():
            assert abs(row["estimate"] - 1.0) <= 4.0 * row["stderr"], t

    def test_conditional_law_total_variation(self):
        model = gw_binary()
        horizon = 3
        exact = conditional_pmf(model, FddSpec(times=(horizon,), z=(0.5,), t_obs=horizon), K=10)
        target = 2500
        res = conditional_sample(
            SimConfig(model=model, horizon=horizon, query_times=(horizon,), replicates=1, seed=55),
            target_survivors=target,
            max_attempts=40_000,
        )
        z = res.counts[:, 0]
        emp = np.bincount(z, minlength=11)[:11] / target
        tv = 0.5 * float(np.abs(emp - exact.probs).sum()) + 0.5 * exact.overflow
        assert tv <= 0.05


class TestDeterminism:
    def test_bit_identical_across_thread_counts(self):
        cfg = SimConfig(
            model=tabulated_mix(), horizon=12, query_times=(3, 12), replicates=3000, seed=42
        )
        one = simulate(cfg, threads=1)
        four = simulate(cfg, threads=4)
        np.testing.assert_array_equal(one.counts, four.counts)
        np.testing.assert_array_equal(one.survived, four.survived)
        np.testing.assert_array_equal(one.overflowed, four.overflowed)

    def test_seed_reproducibility(self):
        cfg = SimConfig(model=bh_heavy(), horizon=10, query_times=(5, 10), replicates=400, seed=9)
        a, b = simulate(cfg), simulate(cfg)
        np.testing.assert_array_equal(a.counts, b.counts)
        other = simulate(
            SimConfig(model=bh_heavy(), horizon=10, query_times=(5, 10), replicates=400, seed=10)
        )
        assert (a.counts != other.counts).any()

    def test_replicate_streams_do_not_depend_on_replicate_count(self):
        few = simulate(
            SimConfig(model=gw_binary(), horizon=6, query_times=(6,), replicates=50, seed=77)
        )
        many = simulate(
            SimConfig(model=gw_binary(), horizon=6, query_times=(6,), replicates=200, seed=77)
        )
        np.testing.assert_array_equal(few.counts, many.counts[:50])


class TestOverflow:
    def test_flagged_and_excluded(self):
        cfg = SimConfig(
            model=gw_binary(),
            horizon=4,
            query_times=(4,),
            replicates=4000,
            seed=13,
            max_individuals=1,
        )
        res = simulate(cfg)
        # the cap of one trips exactly when the founder splits in two
        frac = res.overflowed.mean()
        assert abs(frac - 0.5) <= 3.0 * math.sqrt(0.25 / 4000)
        s = res.survival_summary()
        assert s["replicates"] == int((~res.overflowed).sum())
        assert s["overflowed"] == int(res.overflowed.sum())
        assert not res.survived[res.overflowed].any()

    def test_cap_not_hit_for_bounded_population(self):
        cfg = SimConfig(
            model=lone_individual(),
            horizon=6,
            query_times=(6,),
            replicates=100,
            seed=1,
            max_individuals=1,
        )
        assert not simulate(cfg).overflowed.any()


class TestConditionalSampling:
    def test_acceptance_rate_estimates_survival(self):
        model = gw_binary()
        cfg = SimConfig(model=model, horizon=2, query_times=(1, 2), replicates=1, seed=423)
        target = 3000
        res = conditional_sample(cfg, target_survivors=target, max_attempts=50_000)
        assert res.attempts is not None and res.counts.shape == (target, 2)
        assert (res.counts[:, 1] > 0).all()
        assert res.survived.all()
        q = extinction_seq(model, 2).q[2]  # 0.375
        rate = target / res.attempts
        assert abs(rate - q) <= 3.0 * math.sqrt(q * (1.0 - q) / res.attempts)

    def test_stream_contract_matches_simulate(self):
        # attempt i draws from stream (seed, i), the stream of replicate i
        cfg = SimConfig(model=gw_binary(), horizon=3, query_times=(1, 3), replicates=1, seed=8)
        res = conditional_sample(cfg, target_survivors=100, max_attempts=10_000)
        full = simulate(
            SimConfig(model=gw_binary(), horizon=3, query_times=(1, 3), replicates=res.attempts, seed=8)
        )
        assert full.survived[-1]
        np.testing.assert_array_equal(res.counts, full.counts[full.survived])

    def test_overflow_raises(self):
        # binary splitting passes 3 individuals by horizon 6 in many attempts
        cfg = SimConfig(
            model=gw_binary(), horizon=6, query_times=(6,), replicates=1, seed=3, max_individuals=3
        )
        with pytest.raises(BudgetExhausted, match="max_individuals"):
            conditional_sample(cfg, target_survivors=300, max_attempts=10_000)

    def test_budget_exhausted(self):
        # this population is always gone by time 2, so no attempt survives
        cfg = SimConfig(
            model=Tabulated([(1.0, (), 2)]), horizon=5, query_times=(5,), replicates=1, seed=0
        )
        with pytest.raises(BudgetExhausted):
            conditional_sample(cfg, target_survivors=1, max_attempts=64)

    def test_target_validation(self):
        cfg = SimConfig(model=gw_binary(), horizon=2, query_times=(2,), replicates=1, seed=0)
        with pytest.raises(ConfigError):
            conditional_sample(cfg, target_survivors=0)


class TestDichotomy:
    def test_default_cutoff(self):
        assert default_cutoff(16) == 4
        assert default_cutoff(17) == 5

    def test_stats_fields(self):
        cfg = SimConfig(
            model=gw_binary(), horizon=16, query_times=(8,), replicates=6000, seed=2024
        )
        st = dichotomy_stats(cfg)
        assert st.cutoff == 4
        assert st.survivors > 0
        assert 0.0 <= st.small_fraction <= 1.0
        assert st.small_fraction + st.large_fraction == pytest.approx(1.0)
        # finite second factorial moment and light-tailed life: limit is 0
        assert st.reference_limit == 0.0

    def test_reference_limit_heavy_tail(self):
        cfg = SimConfig(model=bh_heavy(), horizon=8, query_times=(8,), replicates=500, seed=5)
        st = dichotomy_stats(cfg)
        assert st.reference_limit == pytest.approx(dichotomy_fraction(summarize(bh_heavy()).c))

    def test_stream_contract_matches_simulate(self):
        # the horizon is not a query time here; simulate tracks it as one
        cfg = SimConfig(model=gw_binary(), horizon=16, query_times=(8,), replicates=3000, seed=7)
        st = dichotomy_stats(cfg)
        full = simulate(
            SimConfig(model=gw_binary(), horizon=16, query_times=(8, 16), replicates=3000, seed=7)
        )
        z = full.counts[full.survived, 1]
        small = int((z <= st.cutoff).sum())
        assert st.survivors == z.size
        assert st.small_fraction == small / z.size
        assert st.large_fraction == 1.0 - small / z.size

    def test_overflow_raises(self):
        cfg = SimConfig(
            model=gw_binary(), horizon=6, query_times=(6,), replicates=500, seed=3, max_individuals=3
        )
        with pytest.raises(BudgetExhausted, match="max_individuals"):
            dichotomy_stats(cfg)

    def test_custom_rule(self):
        cfg = SimConfig(model=gw_binary(), horizon=9, query_times=(9,), replicates=800, seed=6)
        st = dichotomy_stats(cfg, cutoff_rule=lambda t: t // 3)
        assert st.cutoff == 3
        with pytest.raises(ConfigError):
            dichotomy_stats(cfg, cutoff_rule=lambda t: 0)


class TestOutputs:
    def test_csv_layout(self):
        cfg = SimConfig(model=gw_binary(), horizon=2, query_times=(1, 2), replicates=5, seed=3)
        res = simulate(cfg)
        buf = io.StringIO()
        res.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "replicate,survived,Z@1,Z@2"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0"
        assert [int(first[2]), int(first[3])] == list(res.counts[0])

    def test_summary_dict(self):
        cfg = SimConfig(model=gw_binary(), horizon=2, query_times=(2,), replicates=50, seed=3)
        s = simulate(cfg).summary()
        assert s["horizon"] == 2 and s["seed"] == 3 and s["attempts"] is None
        assert set(s["survival"]) >= {"estimate", "stderr", "ci95", "survivors"}
        assert "2" in s["mean_counts"]


class TestValidation:
    def test_config_errors(self):
        m = gw_binary()
        with pytest.raises(ConfigError):
            SimConfig(model=m, horizon=-1, query_times=(), replicates=1, seed=0)
        with pytest.raises(ConfigError):
            SimConfig(model=m, horizon=5, query_times=(3, 3), replicates=1, seed=0)
        with pytest.raises(ConfigError):
            SimConfig(model=m, horizon=5, query_times=(2, 6), replicates=1, seed=0)
        with pytest.raises(ConfigError):
            SimConfig(model=m, horizon=5, query_times=(5,), replicates=0, seed=0)
        with pytest.raises(ConfigError):
            SimConfig(model=m, horizon=5, query_times=(5,), replicates=1, seed=-1)
        with pytest.raises(ConfigError):
            SimConfig(model=m, horizon=5, query_times=(5,), replicates=1, seed=0, max_individuals=0)

    def test_unsupported_model(self):
        cfg = SimConfig(model=gw_binary(), horizon=1, query_times=(1,), replicates=1, seed=0)
        object.__setattr__(cfg, "model", object())
        with pytest.raises(UnsupportedModel):
            simulate(cfg)
