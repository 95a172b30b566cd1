"""Simulator checks: exact trajectories for deterministic models,
agreement with the exact engine within Monte Carlo error, determinism
and thread-count invariance, the Philox stream against numpy's own,
seeded outputs pinned by digest, rejection sampling, and output formats."""

import csv
import hashlib
import io
import math
import re
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from gwolab import exact_engine, philox, simulator
from gwolab.errors import BudgetExhausted, CapTooLarge, ConfigError
from gwolab.exact_engine import FddSpec, conditional_pmf, extinction_seq
from gwolab.lifelaw import (
    BellmanHarris,
    FiniteLife,
    OffspringPMF,
    QuadraticTailLife,
    Sevastyanov,
    Tabulated,
    summarize,
)
from gwolab.limitlaw import dichotomy_fraction
from gwolab.simulator import (
    SimConfig,
    conditional_sample,
    default_cutoff,
    dichotomy_stats,
    philox_uniforms,
    simulate,
)
from gwolab.modelio import load_model

MODEL_DIR = Path(__file__).resolve().parents[1] / "docs" / "models"


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


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("rep", [0, 1, 2**32, 2**63])
def test_philox_matches_numpy(seed, rep):
    # the key is a uint64 array: numpy converts a list key such as
    # [2**64 - 1, 0] through float64 and gets [0, 0]
    n = 4 * 97 + 3
    ref = np.random.Generator(np.random.Philox(key=np.array([seed, rep], dtype=np.uint64))).random(n)
    blocks = np.arange(98)
    got = philox_uniforms(seed, np.full(blocks.size, rep, dtype=np.uint64), blocks)
    assert np.array_equal(got.reshape(-1)[:n], ref)


@pytest.mark.parametrize("block", [2**32 - 1, 2**32, 3 * 2**40 + 5, 2**63, 2**64 - 3, 2**64 - 2])
@pytest.mark.parametrize("seed, rep", [(2**64 - 1, 2**64 - 1), (0, 2**64 - 1), (2**64 - 1, 0), (11, 5)])
def test_philox_matches_numpy_at_large_counters(block, seed, rep):
    # block b is Philox counter b + 1; numpy's bit generator steps its
    # counter before each block, so it starts one below.  Past 2**64 - 2
    # numpy would carry into the second counter word, which block
    # numbers never reach
    key = np.array([seed, rep], dtype=np.uint64)
    n = min(2, 2**64 - 1 - block)
    counter = np.array([block, 0, 0, 0], dtype=np.uint64)
    ref = np.random.Generator(np.random.Philox(counter=counter, key=key)).random(4 * n)
    got = philox_uniforms(seed, np.full(n, rep, dtype=np.uint64), block + np.arange(n, dtype=np.uint64))
    assert np.array_equal(got.reshape(-1), ref)


def test_philox_chunks_do_not_change_words(monkeypatch):
    reps = np.arange(50, dtype=np.uint64) % 7
    blocks = np.arange(50, dtype=np.uint64) * 3
    whole = philox_uniforms(2**64 - 1, reps, blocks)
    monkeypatch.setattr(philox, "_PHILOX_CHUNK", 16)
    np.testing.assert_array_equal(philox_uniforms(2**64 - 1, reps, blocks), whole)


def _reference_draw(model, u):
    """(life, birth ages) of one individual from the scalar inverse cdfs,
    taking its uniforms from the iterator u in stream order."""
    if isinstance(model, (BellmanHarris, Sevastyanov)):
        life = model.life.sample_from_uniform(next(u))
        law = model.offspring if isinstance(model, BellmanHarris) else model.offspring_by_life(life)
        return life, (life,) * law.sample_from_uniform(next(u))
    if isinstance(model, Tabulated):
        _, ages, life = model.atoms[model.atom_index(next(u))]
        return life, ages
    _, ages = model.sample_schedule_from_uniform(next(u))
    return (ages[-1] if ages else 0) + model.residual.sample_from_uniform(next(u)), ages


def _reference_replicate(cfg, rep, born=None):
    """One replicate walked individual by individual on numpy's own Philox
    stream: counts at the query times and the horizon, and the overflow flag.
    A list given as born gets each drawn individual's birth time, in order."""
    gen = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, rep], dtype=np.uint64)))
    u = iter(gen.random, None)
    times = list(cfg.query_times) + [cfg.horizon]
    counts = [0] * len(times)
    pending = [1] + [0] * cfg.horizon
    deaths = [0] * (cfg.horizon + 2)
    alive = 0
    for t in range(cfg.horizon + 1):
        alive -= deaths[t]
        for _ in range(pending[t]):
            if born is not None:
                born.append(t)
            life, ages = _reference_draw(cfg.model, u)
            alive += 1
            if alive > cfg.max_individuals:
                return counts, True
            if t + life <= cfg.horizon + 1:
                deaths[t + life] += 1
            for i, q in enumerate(times):
                counts[i] += t <= q < t + life
            for a in ages:
                if t + a <= cfg.horizon:
                    pending[t + a] += 1
    return counts, False


@pytest.mark.parametrize(
    "name",
    [
        "age_dependent_offspring",
        "binary_splitting",
        "delayed_death",
        "early_births",
        "heavy_tail_life",
        "heavy_tail_sevastyanov",
    ],
)
def test_matches_individual_by_individual_reference(name):
    model = load_model(str(MODEL_DIR / f"{name}.json"))
    for cap in (5, 1_000_000):
        cfg = SimConfig(model, 16, (4, 12), 150, 23, max_individuals=cap)
        res = simulate(cfg)
        for rep in range(cfg.replicates):
            counts, over = _reference_replicate(cfg, rep)
            assert res.overflowed[rep] == over
            assert res.counts[rep].tolist() == counts[:-1]
            assert res.survived[rep] == (counts[-1] > 0 and not over)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(repr((p.dtype.str, p.shape)).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def _outcome(fn):
    try:
        return fn()
    except BudgetExhausted as exc:
        return f"BudgetExhausted: {exc}"


# sha256 of seeded simulate, conditional_sample and dichotomy_stats outputs
# on the example models, as the one-replicate-at-a-time simulator gave them,
# at horizon 24 with 1500 replicates unless the key names (horizon,
# replicates); max_individuals 3 and 8 make rows overflow
SEEDED_DIGESTS = {
    ("age_dependent_offspring", 1_000_000): "6e1dea8797f681c3bc4535625cc4ca50a1234b980d18ded91dfc7b68bbb2382f",
    ("age_dependent_offspring", 3): "1ee82052da8d7c194ec24ec2fecd42a4313ae821e81fc4f0eafb0bfaad55ddb8",
    ("age_dependent_offspring", 8): "8a46aebf21a00dafc940431f57a6092fe2323ea9bdb5de923067deaa39f006e6",
    ("binary_splitting", 1_000_000): "5fa7a9f7f0e4b56ab25d61a6572b644b90f65350538d2f36350946dbf63ade98",
    ("binary_splitting", 3): "2fee90590caabd4f73986c51dfcf95273a9fce37fde80fbd83bea60b22dcf4b2",
    ("binary_splitting", 8): "c4b922a77a84737ee8aa39a56ca8d25a667b2155557dea4fde9eaf5cd399ed1b",
    ("delayed_death", 1_000_000): "1afffadf694c33a9620966d7873be64b8484466e2153577cdd768446df351321",
    ("delayed_death", 3): "126b18b585bbcafa846317ec49f922b51922e3e9c8eb933b1d029b089f96f06a",
    ("delayed_death", 8): "26869526252de9bbcbb0185a43e73ea292d75687597820b5a1a2b32b9df8dbb2",
    ("early_births", 1_000_000): "099f7a0f1c25a8ebd3ffff3632240ca52839b4f58e1bf88b76fc0f05d2f024f3",
    ("early_births", 3): "bab7a57564b82443f3c255ea898aede585227df328311afce598f04f970e4425",
    ("early_births", 8): "87db26820b80807a4491ff6526ecfd7562c96f70454fdaeff78e6a6180b06de7",
    ("heavy_tail_life", 1_000_000): "c1b2cc3bb2149f6a7cca6c43c5ffd3cf90816f900c3af66ee0057f8aba5946cf",
    ("heavy_tail_life", 3): "ccde739d1c4dba6397ca7ae3e36dfcf8651365aceb1a643cdef784d8f2370a43",
    ("heavy_tail_life", 8): "7fdda68a312dd08968756ae061ca9f29c35818b08c30d8ecf1d545c6a46ad9c0",
    # the battery's size: Philox calls of up to ~5,500 blocks span two chunks
    ("delayed_death", 1_000_000, 16, 20_000): "e8a3d6841f996f045437a6a4de71baaa5e7704e1b051f89714ee1b01b8d38563",
}


@pytest.mark.parametrize("key", SEEDED_DIGESTS, ids=["-".join(map(str, key)) for key in SEEDED_DIGESTS])
def test_seeded_outputs_are_pinned(key):
    name, cap, horizon, replicates = (*key, 24, 1500)[:4]
    model = load_model(str(MODEL_DIR / f"{name}.json"))
    parts = []
    for qt in ((6, horizon), (6,), ()):
        cfg = SimConfig(model, horizon, qt, replicates, 17, max_individuals=cap)
        r = simulate(cfg)
        parts += [r.counts, r.survived, r.overflowed]
        c = _outcome(lambda: conditional_sample(cfg, 60))
        parts += [c] if isinstance(c, str) else [c.counts, c.survived, c.overflowed, c.attempts]
        d = _outcome(lambda: dichotomy_stats(cfg))
        parts += [d] if isinstance(d, str) else [
            d.survivors, d.small_fraction, d.large_fraction, d.cutoff, d.reference_limit
        ]
    assert _digest(*parts) == SEEDED_DIGESTS[key]


@pytest.mark.parametrize("slots", [1, 7])
def test_slot_count_does_not_change_rows(monkeypatch, slots):
    # fewer slots than replicates: each slot runs several replicates in turn
    cfgs = [
        SimConfig(load_model(str(MODEL_DIR / f"{name}.json")), 24, (6, 24), 100, 5, max_individuals=cap)
        for name in ("delayed_death", "age_dependent_offspring", "early_births")
        for cap in (8, 1_000_000)
    ]
    wide = [simulate(cfg) for cfg in cfgs]
    monkeypatch.setattr(simulator, "_TALLY_CELLS", slots * 26)  # 26 = horizon + 2
    for cfg, ref in zip(cfgs, wide):
        res = simulate(cfg)
        np.testing.assert_array_equal(res.counts, ref.counts)
        np.testing.assert_array_equal(res.survived, ref.survived)
        np.testing.assert_array_equal(res.overflowed, ref.overflowed)


def _record_blocks(monkeypatch):
    """Every (replicate, counter block) pair the runner asks Philox for."""
    asked = []
    draw = simulator.philox_uniforms

    def spy(seed, reps, blocks):
        asked.extend(zip(np.asarray(reps).tolist(), np.asarray(blocks).tolist()))
        return draw(seed, reps, blocks)

    monkeypatch.setattr(simulator, "philox_uniforms", spy)
    return asked


@pytest.mark.parametrize("name", ["delayed_death", "early_births", "age_dependent_offspring"])
def test_no_block_is_drawn_twice(monkeypatch, name):
    # a step draws only the blocks no earlier step of its replicate drew;
    # early_births takes one uniform per individual, the others two
    model = load_model(str(MODEL_DIR / f"{name}.json"))
    cfg = SimConfig(model, 24, (6, 24), 400, 5)
    ref = simulate(cfg)
    asked = _record_blocks(monkeypatch)
    res = simulate(cfg)
    assert len(asked) == len(set(asked))
    np.testing.assert_array_equal(res.counts, ref.counts)
    asked.clear()
    conditional_sample(cfg, 40)
    assert asked and len(asked) == len(set(asked))


@pytest.mark.parametrize("name", ["delayed_death", "binary_splitting"])
def test_individuals_born_at_the_horizon_take_no_uniforms(monkeypatch, name):
    # every drawn block holds a uniform of an individual born before the
    # horizon; at horizon 0 the founder is the only individual, and no
    # block is drawn at all
    model = load_model(str(MODEL_DIR / f"{name}.json"))
    per = simulator._individual_draw(model)[0]
    cfg = SimConfig(model, 16, (4, 12), 300, 23)
    asked = _record_blocks(monkeypatch)
    simulate(cfg)
    last = {}  # the last block of each replicate's individuals born before the horizon
    for rep in range(cfg.replicates):
        born = []
        _reference_replicate(cfg, rep, born)
        last[rep] = (per * sum(t < cfg.horizon for t in born) - 1) // 4
    assert asked and all(b <= last[rep] for rep, b in asked)
    asked.clear()
    res = simulate(replace(cfg, horizon=0, query_times=(0,)))
    assert asked == [] and (res.counts == 1).all() and res.survived.all()


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


def _record_passes(monkeypatch):
    """The size of every runner pass, in order."""
    sizes = []
    runner = simulator._replicate_runner

    def spy(config):
        run = runner(config)

        def counted(first, size):
            sizes.append(size)
            return run(first, size)

        return counted

    monkeypatch.setattr(simulator, "_replicate_runner", spy)
    return sizes


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

    def test_overflow_after_returned_attempt_does_not_raise(self):
        # the first block, sized from Q(6), holds attempt 13, which
        # overflows after the fifth survivor at attempt 9
        cfg = SimConfig(
            model=gw_binary(), horizon=6, query_times=(3, 6), replicates=1, seed=97, max_individuals=16
        )
        full = simulate(
            SimConfig(model=gw_binary(), horizon=6, query_times=(3, 6), replicates=20, seed=97, max_individuals=16)
        )
        assert np.flatnonzero(full.overflowed)[0] == 13
        res = conditional_sample(cfg, target_survivors=5, max_attempts=1000)
        assert res.attempts == 10
        np.testing.assert_array_equal(res.counts, full.counts[:10][full.survived[:10]])

    def test_budget_message_at_uneven_max_attempts(self):
        # 333 is no multiple of any block; the message counts the survivors
        # of attempts 0..332 exactly
        cfg = SimConfig(model=gw_binary(), horizon=8, query_times=(8,), replicates=1, seed=4)
        survivors = int(
            simulate(SimConfig(model=gw_binary(), horizon=8, query_times=(8,), replicates=333, seed=4)).survived.sum()
        )
        assert survivors < 200
        with pytest.raises(BudgetExhausted, match=rf"^{survivors}/200 survivors after 333 attempts$"):
            conditional_sample(cfg, target_survivors=200, max_attempts=333)

    def test_several_blocks_equal_surviving_rows_of_simulate(self):
        # Q(16) is about 0.096, so more than 1200 attempts are needed
        cfg = SimConfig(model=gw_binary(), horizon=16, query_times=(4, 16), replicates=1, seed=21)
        res = conditional_sample(cfg, target_survivors=300, max_attempts=100_000)
        assert res.attempts > 1200
        full = simulate(
            SimConfig(model=gw_binary(), horizon=16, query_times=(4, 16), replicates=res.attempts, seed=21)
        )
        assert full.survived[-1] and full.survived.sum() == 300
        np.testing.assert_array_equal(res.counts, full.counts[full.survived])

    @pytest.mark.parametrize("target, seed", [(20, 39), (1, 8)])
    def test_blocks_follow_the_survival_rate(self, monkeypatch, target, seed):
        # the first block is sized from the exact Q(16), later ones from
        # the rate seen so far, or from 4 times the block while it is 0
        # (seed 8 has no survivor among the first 29 attempts); rows do not
        # depend on the blocks
        sizes = _record_passes(monkeypatch)
        cfg = SimConfig(model=gw_binary(), horizon=16, query_times=(4, 16), replicates=1, seed=seed)
        res = conditional_sample(cfg, target_survivors=target, max_attempts=100_000)
        assert len(sizes) == 2
        wanted = math.ceil(target / extinction_seq(gw_binary(), 16).q[16])
        assert sizes[0] == wanted + wanted // 4 + 16
        full = simulate(
            SimConfig(model=gw_binary(), horizon=16, query_times=(4, 16), replicates=res.attempts, seed=seed)
        )
        np.testing.assert_array_equal(res.counts, full.counts[full.survived])

    def test_delayed_death_takes_one_pass(self, monkeypatch):
        sizes = _record_passes(monkeypatch)
        model = load_model(str(MODEL_DIR / "delayed_death.json"))
        cfg = SimConfig(model, 64, (16, 64), 1, 3)
        res = conditional_sample(cfg, 200)
        assert len(sizes) == 1 and res.attempts <= sizes[0]
        full = simulate(SimConfig(model, 64, (16, 64), res.attempts, 3))
        assert full.survived[-1] and full.survived.sum() == 200
        np.testing.assert_array_equal(res.counts, full.counts[full.survived])

    def test_budget_exhausted(self):
        # this population is always gone by time 2, so no attempt survives
        cfg = SimConfig(
            model=Tabulated([(1.0, (), 2)]), horizon=5, query_times=(5,), replicates=1, seed=0
        )
        with pytest.raises(BudgetExhausted):
            conditional_sample(cfg, target_survivors=1, max_attempts=64)

    def test_zero_survival_keeps_blind_blocks(self, monkeypatch):
        # Q(5) = 0 exactly: a first block of 4 * target, then the re-aim
        # rule on 4 times the block, cut at max_attempts
        sizes = _record_passes(monkeypatch)
        cfg = SimConfig(
            model=Tabulated([(1.0, (), 2)]), horizon=5, query_times=(5,), replicates=1, seed=0
        )
        with pytest.raises(BudgetExhausted, match=r"^0/3 survivors after 100 attempts$"):
            conditional_sample(cfg, target_survivors=3, max_attempts=100)
        assert sizes == [12, 76, 12]

    def test_target_validation(self):
        cfg = SimConfig(model=gw_binary(), horizon=2, query_times=(2,), replicates=1, seed=0)
        with pytest.raises(ConfigError):
            conditional_sample(cfg, target_survivors=0)

    @pytest.mark.parametrize(
        "target, attempts", [(2.5, 1000), (5, -3), (5, 0)], ids=["float-target", "negative-attempts", "zero-attempts"]
    )
    def test_counts_are_validated_before_any_work(self, monkeypatch, target, attempts):
        # refused as ConfigError (exit 2), before the DP that sizes the
        # first block and before any runner pass
        sizes = _record_passes(monkeypatch)
        dps = []
        monkeypatch.setattr(simulator, "extinction_seq", lambda *args: dps.append(args))
        cfg = SimConfig(model=gw_binary(), horizon=2, query_times=(2,), replicates=1, seed=0)
        with pytest.raises(ConfigError, match=re.escape(repr(target if attempts > 0 else attempts))):
            conditional_sample(cfg, target_survivors=target, max_attempts=attempts)
        assert sizes == [] and dps == []


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

    def test_cutoff_is_the_default_rule(self):
        cfg = SimConfig(model=gw_binary(), horizon=9, query_times=(9,), replicates=800, seed=6)
        assert dichotomy_stats(cfg).cutoff == default_cutoff(9) == 3
        # at horizon 0 the cutoff is 0, which splits nothing; the error
        # names the horizon, which the caller set, not the cutoff
        with pytest.raises(ConfigError, match="^horizon 0 must be an integer >= 1$"):
            dichotomy_stats(SimConfig(model=gw_binary(), horizon=0, query_times=(0,), replicates=8, seed=6))


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

    @pytest.mark.parametrize("query_times", [(), (6,), (3, 6)])
    def test_csv_bytes_match_csv_writer(self, query_times):
        # max_individuals 3 makes some rows overflow
        cfg = SimConfig(gw_binary(), 6, query_times, 300, 3, max_individuals=3)
        res = simulate(cfg)
        assert res.overflowed.any() and res.survived.any()
        ref = io.StringIO()
        writer = csv.writer(ref)
        writer.writerow(["replicate", "survived"] + [f"Z@{t}" for t in query_times])
        for rep in range(res.counts.shape[0]):
            writer.writerow([rep, int(res.survived[rep])] + [int(v) for v in res.counts[rep]])
        buf = io.StringIO()
        res.to_csv(buf)
        assert buf.getvalue().encode() == ref.getvalue().encode()

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

    @pytest.mark.parametrize(
        "field, value",
        [("horizon", 5.0), ("query_times", (2.5,)), ("replicates", 10.0), ("seed", 1.5), ("max_individuals", 1e6)],
    )
    def test_integer_fields_refuse_floats(self, field, value):
        # refused up front, naming the value, rather than failing inside numpy
        args = {**dict(model=gw_binary(), horizon=5, query_times=(2,), replicates=10, seed=1), field: value}
        shown = value[0] if field == "query_times" else value
        with pytest.raises(ConfigError, match=re.escape(repr(shown))):
            SimConfig(**args)

    @pytest.mark.parametrize("field, value", [("horizon", -1), ("replicates", 0), ("max_individuals", 0)])
    def test_sizes_out_of_range_name_field_and_value(self, field, value):
        args = {**dict(model=gw_binary(), horizon=5, query_times=(), replicates=10, seed=1), field: value}
        with pytest.raises(ConfigError, match=f"{field} {value} "):
            SimConfig(**args)

    def test_integer_fields_take_numpy_integers(self):
        cfg = SimConfig(model=gw_binary(), horizon=np.int64(5), query_times=(np.int64(2),), replicates=np.int32(10),
                        seed=np.uint64(1), max_individuals=np.int64(100))
        assert cfg.query_times == (2,) and simulate(cfg).counts.shape == (10, 1)

    def test_sizes_past_the_budget(self):
        # one slot's tally, 2 x (horizon + 2) cells, and all replicates'
        # results, replicates x (k + 1) cells, raise before any allocation
        long = SimConfig(model=gw_binary(), horizon=10**12, query_times=(), replicates=1, seed=0)
        many = SimConfig(model=gw_binary(), horizon=32, query_times=(32,), replicates=10**12, seed=0)
        for run in (simulate, dichotomy_stats, partial(conditional_sample, target_survivors=1)):
            with pytest.raises(CapTooLarge, match="tally"):
                run(long)
        for run in (simulate, dichotomy_stats):
            with pytest.raises(CapTooLarge, match="result table"):
                run(many)

    def test_budget_edges(self, monkeypatch):
        monkeypatch.setattr(exact_engine, "_DP_BUDGET", 68)  # 2 x (32 + 2) tally cells, 34 x 2 result cells
        cfg = SimConfig(model=gw_binary(), horizon=32, query_times=(32,), replicates=34, seed=0)
        assert simulate(cfg).counts.shape == (34, 1)
        with pytest.raises(CapTooLarge):
            simulate(replace(cfg, replicates=35))
        with pytest.raises(CapTooLarge):
            simulate(replace(cfg, horizon=33))

    def test_unsupported_model(self):
        cfg = SimConfig(model=gw_binary(), horizon=1, query_times=(1,), replicates=1, seed=0)
        object.__setattr__(cfg, "model", object())
        with pytest.raises(ConfigError, match="not a life law"):
            simulate(cfg)
