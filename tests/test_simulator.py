"""Simulator checks: exact trajectories for deterministic models,
agreement with the exact engine within Monte Carlo error, determinism
and thread-count invariance, the Squares64 streams against a scalar
transcription, seeded outputs pinned by digest, rejection sampling, and
output formats."""

import csv
import hashlib
import io
import itertools
import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.stats import chi2

from gwolab import exact_engine, simulator, squares
from gwolab.errors import BudgetExhausted, CapTooLarge, ConfigError
from gwolab.exact_engine import FddSpec, conditional_pmf, extinction_seq
from gwolab.lifelaw import (
    BellmanHarris,
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
    simulate,
)
from gwolab.squares import stream_keys, uniforms

import shipped


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
        for model in map(shipped.model, ["binary_splitting", "heavy_tail_life", "early_births"]):
            cfg = SimConfig(model=model, horizon=3, query_times=(0,), replicates=64, seed=11)
            res = simulate(cfg)
            np.testing.assert_array_equal(res.counts[:, 0], np.ones(64, dtype=np.int64))

    def test_survivor_flag_matches_horizon_count(self):
        cfg = SimConfig(
            model=shipped.model("binary_splitting"), horizon=4, query_times=(2, 4), replicates=500, seed=3
        )
        res = simulate(cfg)
        np.testing.assert_array_equal(res.survived, res.counts[:, 1] > 0)

    def test_survivor_flag_without_horizon_query(self):
        # horizon not among the query times: the flag still refers to Z(horizon)
        cfg = SimConfig(model=shipped.model("binary_splitting"), horizon=4, query_times=(2,), replicates=500, seed=3)
        res = simulate(cfg)
        full = simulate(
            SimConfig(model=shipped.model("binary_splitting"), horizon=4, query_times=(2, 4), replicates=500, seed=3)
        )
        np.testing.assert_array_equal(res.survived, full.counts[:, 1] > 0)
        np.testing.assert_array_equal(res.counts[:, 0], full.counts[:, 0])


class TestAgainstExactEngine:
    def test_survival_matches_extinction_seq(self):
        reps = 20_000
        for model, horizon in ((shipped.model("binary_splitting"), 3), (shipped.model("early_births"), 5)):
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
            model=shipped.model("binary_splitting"), horizon=8, query_times=(4, 8), replicates=reps, seed=29
        )
        res = simulate(cfg)
        for t, row in res.mean_counts().items():
            assert abs(row["estimate"] - 1.0) <= 4.0 * row["stderr"], t

    def test_conditional_law_total_variation(self):
        model = shipped.model("binary_splitting")
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
            model=shipped.model("early_births"), horizon=12, query_times=(3, 12), replicates=3000, seed=42
        )
        one = simulate(cfg, threads=1)
        four = simulate(cfg, threads=4)
        np.testing.assert_array_equal(one.counts, four.counts)
        np.testing.assert_array_equal(one.survived, four.survived)
        np.testing.assert_array_equal(one.overflowed, four.overflowed)

    def test_seed_reproducibility(self):
        cfg = SimConfig(model=shipped.model("heavy_tail_life"), horizon=10, query_times=(5, 10), replicates=400, seed=9)
        a, b = simulate(cfg), simulate(cfg)
        np.testing.assert_array_equal(a.counts, b.counts)
        other = simulate(
            SimConfig(model=shipped.model("heavy_tail_life"), horizon=10, query_times=(5, 10), replicates=400, seed=10)
        )
        assert (a.counts != other.counts).any()

    def test_replicate_streams_do_not_depend_on_replicate_count(self):
        few = simulate(
            SimConfig(model=shipped.model("binary_splitting"), horizon=6, query_times=(6,), replicates=50, seed=77)
        )
        many = simulate(
            SimConfig(model=shipped.model("binary_splitting"), horizon=6, query_times=(6,), replicates=200, seed=77)
        )
        np.testing.assert_array_equal(few.counts, many.counts[:50])


_M64 = (1 << 64) - 1


def _splitmix(z: int) -> int:
    """The SplitMix64 finaliser of a Python int."""
    z ^= z >> 30
    z = z * 0xBF58476D1CE4E5B9 & _M64
    z ^= z >> 27
    z = z * 0x94D049BB133111EB & _M64
    return z ^ z >> 31


def _ref_key(seed: int, rep: int) -> int:
    """The key of stream (seed, rep) in Python ints, step by step as the
    `squares` docstring defines it: a partial Fisher-Yates shuffle of each
    half's list of digits, driven by SplitMix64 outputs 8 rep + 1, ..."""
    g = _splitmix(seed)
    upper, lower = list(range(1, 16)), [*range(1, 16, 2), *range(2, 15, 2)]
    for i in range(8):
        w = _splitmix((g + (8 * rep + i + 1) * 0x9E3779B97F4A7C15) & _M64)
        for entries, draw, span in ((upper, w >> 32, 15 - i), (lower, w & 0xFFFFFFFF, 8 if i == 0 else 15 - i)):
            j = i + (span * draw >> 32)
            entries[i], entries[j] = entries[j], entries[i]
    return sum(d << 4 * i for i, d in enumerate(lower[:8] + upper[:8]))


def _ref_word(key: int, ctr: int) -> int:
    """Squares64 word ctr of stream key (Widynski's five rounds) in Python ints."""

    def rot(x):
        return (x >> 32 | x << 32) & _M64

    x = y = ctr * key & _M64
    z = (y + key) & _M64
    x = rot((x * x + y) & _M64)
    x = rot((x * x + z) & _M64)
    x = rot((x * x + y) & _M64)
    t = (x * x + z) & _M64
    x = rot(t)
    return t ^ ((x * x + y) & _M64) >> 32


def _ref_uniform(key: int, ctr: int) -> float:
    return (_ref_word(key, ctr) >> 11) * 2.0**-53


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("rep", [0, 1, 2**32, 2**64 - 3])
def test_generator_matches_scalar_transcription(seed, rep):
    key = _ref_key(seed, rep)
    assert stream_keys(seed, [rep]).tolist() == [key]
    counters = [0, 1, 2, 3, 1000, 2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1]
    got = uniforms(np.uint64(key), np.array(counters, dtype=np.uint64))
    assert got.tolist() == [_ref_uniform(key, j) for j in counters]


# known answers of the generator: the keys of streams (seed, r) and words
# 0, 1 and 2^63 of each as 2^53 u = squares64(j, key) >> 11, computed from
# README's Python-int formula
KNOWN_WORDS = {
    (0, 0): (0x1296F38EC93F5247, [5868790989701817, 4672799030589224, 3879384928382933]),
    (1, 1): (0xC68FA9E51A8437B5, [8308325771027683, 729293606252082, 2861442549321187]),
    (2**64 - 1, 2**64 - 3): (0xCA57FD8B47FC6A85, [8149929467409950, 8420998432177679, 4594282415961345]),
}


@pytest.mark.parametrize("seed, rep", KNOWN_WORDS)
def test_generator_matches_its_known_answers(seed, rep):
    key, words = KNOWN_WORDS[seed, rep]
    got = int(stream_keys(seed, [rep])[0])
    assert got == key, (seed, rep, hex(got))
    u = uniforms(np.uint64(key), np.array([0, 1, 2**63], dtype=np.uint64))
    assert [int(x * 2**53) for x in u] == words, (seed, rep, u)


@pytest.mark.parametrize("counter", [2**32 - 1, 2**32, 3 * 2**40 + 5, 2**63, 2**64 - 3, 2**64 - 2])
@pytest.mark.parametrize("seed, rep", [(2**64 - 1, 2**64 - 1), (0, 2**64 - 1), (2**64 - 1, 0), (11, 5)])
def test_generator_matches_scalar_transcription_at_large_counters(counter, seed, rep):
    # words counter and counter + 1, where j * key and y + key wrap
    # mod 2^64; the keys come in a batch, as the runner draws them
    keys = stream_keys(seed, [rep, rep ^ 1])
    assert keys.tolist() == [_ref_key(seed, rep), _ref_key(seed, rep ^ 1)]
    counters = np.array([counter, counter + 1], dtype=np.uint64)
    got = uniforms(keys[:, None], counters)
    assert got.tolist() == [[_ref_uniform(key, j) for j in (counter, counter + 1)] for key in keys.tolist()]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_keys_follow_the_key_rule(seed):
    # each 32-bit half is 8 distinct nonzero hex digits, and the key is odd
    keys = stream_keys(seed, np.arange(3000)).tolist()
    assert len(set(keys)) == len(keys)
    for key in keys:
        digits = [key >> 4 * i & 15 for i in range(16)]
        assert key & 1 and 0 not in digits
        assert len(set(digits[:8])) == 8 and len(set(digits[8:])) == 8


def test_chunks_do_not_change_words(monkeypatch):
    # keys broadcast against counters as the runner passes them, (per, n);
    # a chunk of 16 words is one of 2 keys
    reps = np.arange(50) % 7 + 2**40
    keys = stream_keys(2**64 - 1, reps)
    counters = np.arange(50, dtype=np.uint64) * 3 + np.arange(2, dtype=np.uint64)[:, None]
    whole = uniforms(keys, counters)
    assert whole.shape == (2, 50)
    monkeypatch.setattr(squares, "_CHUNK", 16)
    np.testing.assert_array_equal(stream_keys(2**64 - 1, reps), keys)
    np.testing.assert_array_equal(uniforms(keys, counters), whole)


def _stream_words(seed: int, reps, n: int) -> np.ndarray:
    """Words 0, ..., n - 1 of streams (seed, r), one row per r of reps."""
    return uniforms(stream_keys(seed, reps)[:, None], np.arange(n, dtype=np.uint64))


def test_adjacent_streams_are_uniform_in_pairs():
    # word j of streams r and r + 1 (r < 400, j < 256) as a point in a
    # 16 x 16 grid: a chi-square with 255 degrees of freedom, held to its
    # 1e-6 upper quantile (about 394; mean 255, sd 22.6)
    words = _stream_words(12345, np.arange(401), 256)
    cells = (np.floor(words[:-1] * 16) * 16 + np.floor(words[1:] * 16)).astype(np.int64).ravel()
    counts = np.bincount(cells, minlength=256)
    expected = cells.size / 256
    assert ((counts - expected) ** 2 / expected).sum() < chi2.isf(1e-6, 255)


@pytest.mark.parametrize("pair", ["rep", "seed"])
def test_neighbouring_streams_are_uncorrelated(pair):
    # word j of streams (s, r) and (s, r + 1), or (s, r) and (s + 1, r),
    # pooled over r < 500 and j < 400: 200,000 pairs, so the sample
    # correlation has sd 0.0022 under independence; held to 5 sd
    seed, reps = 2**63 - 1, np.arange(500)
    a = _stream_words(seed, reps, 400)
    b = _stream_words(seed, reps + 1, 400) if pair == "rep" else _stream_words(seed + 1, reps, 400)
    rho = np.corrcoef(a.ravel(), b.ravel())[0, 1]
    assert abs(rho) < 5 / math.sqrt(a.size)


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
    """One replicate walked individual by individual on the scalar
    transcription of its stream, uniform j from word j: counts at the
    query times and the horizon, and the overflow flag.  A list given as
    born gets each drawn individual's birth time, in order."""
    key = _ref_key(cfg.seed, rep)
    u = (_ref_uniform(key, j) for j in itertools.count())
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


@pytest.mark.parametrize("name", shipped.NAMES)
def test_matches_individual_by_individual_reference(name):
    model = shipped.model(name)
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
# on the example models, on the Squares64 streams that
# test_matches_individual_by_individual_reference walks one individual at a
# time, at horizon 24 with 1500 replicates unless the key names (horizon,
# replicates); max_individuals 3 and 8 make rows overflow
SEEDED_DIGESTS = {
    ("age_dependent_offspring", 1_000_000): "298b4754dc55fb5ea365f663358e232a980ab12a16c6426f28cf5892e7f42d89",
    ("age_dependent_offspring", 3): "4b675fe572f186d5e788e95bde8648f57e06c7ed4d2d7c000e765c052af68297",
    ("age_dependent_offspring", 8): "b926bf47ff9e0388a6608b47e7c3b847e13d208e95686b3dd3a62c7176b1f53c",
    ("binary_splitting", 1_000_000): "88ad29f979a931fa2f11321525d37c8692800486aa0f68f89b968764ca56783b",
    ("binary_splitting", 3): "7acf2570baff03881a36acb1532d1b4cf46b87f7147209b53cb9e1ce4c521776",
    ("binary_splitting", 8): "b3c0847cb2df8bd218b6478517e80aa0d6b8e22c0cc50e117be0f2dabe2e892f",
    ("delayed_death", 1_000_000): "e6a4f1933224f6ae0b55ec21787cc013530a1a80cdd6ccab5b6dc740f8f3745a",
    ("delayed_death", 3): "42b8cac372ecf63b7ae8105c6f441a20113ba5569e67cbe54f29ce48bfdbbd6c",
    ("delayed_death", 8): "b53b9614a37175e7fb172dc5d45aa439553f3fb43acd89f955a3893878ea5404",
    ("early_births", 1_000_000): "d85cac0f5721214c3a2fbb82fb8053781e794d463aae3de3b3a426e58b7a401f",
    ("early_births", 3): "519215d176fd6be6354a1cf19002d7ef4dba9aea8834db570894a8e538ebb692",
    ("early_births", 8): "cd245034c2c4aa918f631701ec86ffd349516b0c9f8af91c3db297252ae6cf9c",
    ("heavy_tail_life", 1_000_000): "ab8779a3756c3bccc242faab4a8ec4f9ae850ef6f98b8f2ab60cf94dcbd6f9ca",
    ("heavy_tail_life", 3): "8cb80de2632143032d33849561f915961c844b3ef03645b83458c13217b9de22",
    ("heavy_tail_life", 8): "c29ca6c65fd6999b70ee6503601f4cec171cbc0069f9730995dd893297c6a0ad",
    # the battery's size: a step's words span several chunks
    ("delayed_death", 1_000_000, 16, 20_000): "d7b78e4acdce259ccd13d9916ac21c993e9a120585dd47c7111fd10be487d5e1",
}


@pytest.mark.parametrize("key", SEEDED_DIGESTS, ids=["-".join(map(str, key)) for key in SEEDED_DIGESTS])
def test_seeded_outputs_are_pinned(key):
    name, cap, horizon, replicates = (*key, 24, 1500)[:4]
    model = shipped.model(name)
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
        SimConfig(shipped.model(name), 24, (6, 24), 100, 5, max_individuals=cap)
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


def _record_words(monkeypatch):
    """Every (stream key, counter) pair the runner asks the generator for."""
    asked = []
    draw = simulator.uniforms

    def spy(keys, counters):
        keys, counters = np.broadcast_arrays(keys, counters)
        asked.extend(zip(keys.ravel().tolist(), counters.ravel().tolist()))
        return draw(keys, counters)

    monkeypatch.setattr(simulator, "uniforms", spy)
    return asked


def _words_by_replicate(seed, asked, replicates):
    """The counters asked of each replicate's stream, in order, by replicate."""
    rep_of = {key: rep for rep, key in enumerate(stream_keys(seed, np.arange(replicates)).tolist())}
    words = {}
    for key, ctr in asked:
        words.setdefault(rep_of[key], []).append(ctr)
    return words


def _words_before_the_horizon(cfg, rep, per):
    """per times the individuals of replicate rep born before the horizon."""
    born = []
    _reference_replicate(cfg, rep, born)
    return per * sum(t < cfg.horizon for t in born)


@pytest.mark.parametrize("name", ["delayed_death", "early_births", "age_dependent_offspring"])
def test_each_replicate_takes_its_first_words_once(monkeypatch, name):
    # replicate r takes exactly counters 0, ..., per * n - 1 of its stream,
    # n its individuals born before the horizon: no word is computed twice
    # and none is skipped; early_births takes one word per individual, the
    # others two
    model = shipped.model(name)
    per = simulator._individual_draw(model)[0]
    cfg = SimConfig(model, 24, (6, 24), 400, 5)
    ref = simulate(cfg)
    asked = _record_words(monkeypatch)
    res = simulate(cfg)
    np.testing.assert_array_equal(res.counts, ref.counts)
    words = _words_by_replicate(cfg.seed, asked, cfg.replicates)
    assert sorted(words) == list(range(cfg.replicates))
    for rep, ctrs in words.items():
        assert sorted(ctrs) == list(range(_words_before_the_horizon(cfg, rep, per)))
    asked.clear()
    run = conditional_sample(cfg, 40)
    words = _words_by_replicate(cfg.seed, asked, 4 * cfg.replicates)
    assert run.attempts <= len(words) and sorted(words) == list(range(len(words)))
    for rep, ctrs in words.items():
        assert sorted(ctrs) == list(range(_words_before_the_horizon(cfg, rep, per)))


@pytest.mark.parametrize("name", ["delayed_death", "binary_splitting"])
def test_individuals_born_at_the_horizon_take_no_uniforms(monkeypatch, name):
    # every word drawn belongs to an individual born before the horizon;
    # at horizon 0 the founder is the only individual, and no word is
    # drawn at all
    model = shipped.model(name)
    per = simulator._individual_draw(model)[0]
    cfg = SimConfig(model, 16, (4, 12), 300, 23)
    asked = _record_words(monkeypatch)
    simulate(cfg)
    words = _words_by_replicate(cfg.seed, asked, cfg.replicates)
    # the last word of each replicate's individuals born before the horizon
    last = {rep: _words_before_the_horizon(cfg, rep, per) - 1 for rep in range(cfg.replicates)}
    assert asked and all(j <= last[rep] for rep, ctrs in words.items() for j in ctrs)
    asked.clear()
    res = simulate(replace(cfg, horizon=0, query_times=(0,)))
    assert asked == [] and (res.counts == 1).all() and res.survived.all()


class TestOverflow:
    def test_flagged_and_excluded(self):
        cfg = SimConfig(
            model=shipped.model("binary_splitting"),
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
        model = shipped.model("binary_splitting")
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
        cfg = SimConfig(model=shipped.model("binary_splitting"), horizon=3, query_times=(1, 3), replicates=1, seed=8)
        res = conditional_sample(cfg, target_survivors=100, max_attempts=10_000)
        full = simulate(replace(cfg, replicates=res.attempts))
        assert full.survived[-1]
        np.testing.assert_array_equal(res.counts, full.counts[full.survived])

    def test_overflow_raises(self):
        # binary splitting passes 3 individuals by horizon 6 in many attempts
        model = shipped.model("binary_splitting")
        cfg = SimConfig(model=model, horizon=6, query_times=(6,), replicates=1, seed=3, max_individuals=3)
        with pytest.raises(BudgetExhausted, match="max_individuals"):
            conditional_sample(cfg, target_survivors=300, max_attempts=10_000)

    def test_overflow_after_returned_attempt_does_not_raise(self):
        # the first block, sized from Q(6), holds attempt 31, which
        # overflows after the fifth survivor at attempt 9
        model = shipped.model("binary_splitting")
        cfg = SimConfig(model=model, horizon=6, query_times=(3, 6), replicates=1, seed=175, max_individuals=16)
        full = simulate(replace(cfg, replicates=40))
        assert np.flatnonzero(full.overflowed)[0] == 31
        res = conditional_sample(cfg, target_survivors=5, max_attempts=1000)
        assert res.attempts == 10
        np.testing.assert_array_equal(res.counts, full.counts[:10][full.survived[:10]])

    def test_budget_message_at_uneven_max_attempts(self):
        # 333 is no multiple of any block; the message counts the survivors
        # of attempts 0..332 exactly
        cfg = SimConfig(model=shipped.model("binary_splitting"), horizon=8, query_times=(8,), replicates=1, seed=4)
        survivors = int(simulate(replace(cfg, replicates=333)).survived.sum())
        assert survivors < 200
        with pytest.raises(BudgetExhausted, match=rf"^{survivors}/200 survivors after 333 attempts$"):
            conditional_sample(cfg, target_survivors=200, max_attempts=333)

    def test_several_blocks_equal_surviving_rows_of_simulate(self):
        # Q(16) is about 0.096, so more than 1200 attempts are needed
        cfg = SimConfig(model=shipped.model("binary_splitting"), horizon=16, query_times=(4, 16), replicates=1, seed=21)
        res = conditional_sample(cfg, target_survivors=300, max_attempts=100_000)
        assert res.attempts > 1200
        full = simulate(replace(cfg, replicates=res.attempts))
        assert full.survived[-1] and full.survived.sum() == 300
        np.testing.assert_array_equal(res.counts, full.counts[full.survived])

    @pytest.mark.parametrize("target, seed", [(20, 19), (1, 28)])
    def test_blocks_follow_the_survival_rate(self, monkeypatch, target, seed):
        # the first block is sized from the exact Q(16), later ones from
        # the rate seen so far (seed 19 has fewer than 20 survivors among
        # the first 276 attempts), or from 4 times the block while it is 0
        # (seed 28 has no survivor among the first 29 attempts); rows do
        # not depend on the blocks
        sizes = _record_passes(monkeypatch)
        model = shipped.model("binary_splitting")
        cfg = SimConfig(model=model, horizon=16, query_times=(4, 16), replicates=1, seed=seed)
        res = conditional_sample(cfg, target_survivors=target, max_attempts=100_000)
        assert len(sizes) == 2
        wanted = math.ceil(target / extinction_seq(model, 16).q[16])
        assert sizes[0] == wanted + wanted // 4 + 16
        full = simulate(replace(cfg, replicates=res.attempts))
        np.testing.assert_array_equal(res.counts, full.counts[full.survived])

    def test_delayed_death_takes_one_pass(self, monkeypatch):
        sizes = _record_passes(monkeypatch)
        model = shipped.model("delayed_death")
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
        cfg = SimConfig(model=shipped.model("binary_splitting"), horizon=2, query_times=(2,), replicates=1, seed=0)
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
        cfg = SimConfig(model=shipped.model("binary_splitting"), horizon=2, query_times=(2,), replicates=1, seed=0)
        with pytest.raises(ConfigError, match=re.escape(repr(target if attempts > 0 else attempts))):
            conditional_sample(cfg, target_survivors=target, max_attempts=attempts)
        assert sizes == [] and dps == []


class TestDichotomy:
    def test_default_cutoff(self):
        assert default_cutoff(16) == 4
        assert default_cutoff(17) == 5

    def test_stats_fields(self):
        cfg = SimConfig(
            model=shipped.model("binary_splitting"), horizon=16, query_times=(8,), replicates=6000, seed=2024
        )
        st = dichotomy_stats(cfg)
        assert st.cutoff == 4
        assert st.survivors > 0
        assert 0.0 <= st.small_fraction <= 1.0
        assert st.small_fraction + st.large_fraction == pytest.approx(1.0)
        # finite second factorial moment and light-tailed life: limit is 0
        assert st.reference_limit == 0.0

    def test_reference_limit_heavy_tail(self):
        cfg = SimConfig(model=shipped.model("heavy_tail_life"), horizon=8, query_times=(8,), replicates=500, seed=5)
        st = dichotomy_stats(cfg)
        assert st.reference_limit == pytest.approx(dichotomy_fraction(summarize(shipped.model("heavy_tail_life")).c))

    def test_stream_contract_matches_simulate(self):
        # the horizon is not a query time here; simulate tracks it as one
        cfg = SimConfig(model=shipped.model("binary_splitting"), horizon=16, query_times=(8,), replicates=3000, seed=7)
        st = dichotomy_stats(cfg)
        full = simulate(
            SimConfig(model=shipped.model("binary_splitting"), horizon=16, query_times=(8, 16), replicates=3000, seed=7)
        )
        z = full.counts[full.survived, 1]
        small = int((z <= st.cutoff).sum())
        assert st.survivors == z.size
        assert st.small_fraction == small / z.size
        assert st.large_fraction == 1.0 - small / z.size

    def test_overflow_raises(self):
        model = shipped.model("binary_splitting")
        cfg = SimConfig(model=model, horizon=6, query_times=(6,), replicates=500, seed=3, max_individuals=3)
        with pytest.raises(BudgetExhausted, match="max_individuals"):
            dichotomy_stats(cfg)

    def test_cutoff_is_the_default_rule(self):
        cfg = SimConfig(model=shipped.model("binary_splitting"), horizon=9, query_times=(9,), replicates=800, seed=6)
        assert dichotomy_stats(cfg).cutoff == default_cutoff(9) == 3
        # at horizon 0 the cutoff is 0, which splits nothing; the error
        # names the horizon, which the caller set, not the cutoff
        with pytest.raises(ConfigError, match="^horizon 0 must be an integer >= 1$"):
            dichotomy_stats(replace(cfg, horizon=0, query_times=(0,), replicates=8))


class TestOutputs:
    def test_csv_layout(self):
        cfg = SimConfig(model=shipped.model("binary_splitting"), horizon=2, query_times=(1, 2), replicates=5, seed=3)
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
        cfg = SimConfig(shipped.model("binary_splitting"), 6, query_times, 300, 3, max_individuals=3)
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
        cfg = SimConfig(model=shipped.model("binary_splitting"), horizon=2, query_times=(2,), replicates=50, seed=3)
        s = simulate(cfg).summary()
        assert s["horizon"] == 2 and s["seed"] == 3 and s["attempts"] is None
        assert set(s["survival"]) >= {"estimate", "stderr", "ci95", "survivors"}
        assert "2" in s["mean_counts"]


class TestValidation:
    def test_config_errors(self):
        m = shipped.model("binary_splitting")
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
        args = dict(model=shipped.model("binary_splitting"), horizon=5, query_times=(2,), replicates=10, seed=1)
        args[field] = value
        shown = value[0] if field == "query_times" else value
        with pytest.raises(ConfigError, match=re.escape(repr(shown))):
            SimConfig(**args)

    @pytest.mark.parametrize("field, value", [("horizon", -1), ("replicates", 0), ("max_individuals", 0)])
    def test_sizes_out_of_range_name_field_and_value(self, field, value):
        args = dict(model=shipped.model("binary_splitting"), horizon=5, query_times=(), replicates=10, seed=1)
        args[field] = value
        with pytest.raises(ConfigError, match=f"{field} {value} "):
            SimConfig(**args)

    def test_integer_fields_take_numpy_integers(self):
        cfg = SimConfig(model=shipped.model("binary_splitting"), horizon=np.int64(5), query_times=(np.int64(2),),
                        replicates=np.int32(10), seed=np.uint64(1), max_individuals=np.int64(100))
        assert cfg.query_times == (2,) and simulate(cfg).counts.shape == (10, 1)

    def test_sizes_past_the_budget(self):
        # one slot's tally, 2 x (horizon + 2) cells, and all replicates'
        # results, replicates x (k + 1) cells, raise before any allocation
        long = SimConfig(model=shipped.model("binary_splitting"), horizon=10**12, query_times=(), replicates=1, seed=0)
        many = replace(long, horizon=32, query_times=(32,), replicates=10**12)
        for run in (simulate, dichotomy_stats, partial(conditional_sample, target_survivors=1)):
            with pytest.raises(CapTooLarge, match="tally"):
                run(long)
        for run in (simulate, dichotomy_stats):
            with pytest.raises(CapTooLarge, match="result table"):
                run(many)

    def test_budget_edges(self, monkeypatch):
        monkeypatch.setattr(exact_engine, "_DP_BUDGET", 68)  # 2 x (32 + 2) tally cells, 34 x 2 result cells
        cfg = SimConfig(model=shipped.model("binary_splitting"), horizon=32, query_times=(32,), replicates=34, seed=0)
        assert simulate(cfg).counts.shape == (34, 1)
        with pytest.raises(CapTooLarge):
            simulate(replace(cfg, replicates=35))
        with pytest.raises(CapTooLarge):
            simulate(replace(cfg, horizon=33))

    def test_unsupported_model(self):
        cfg = SimConfig(model=shipped.model("binary_splitting"), horizon=1, query_times=(1,), replicates=1, seed=0)
        object.__setattr__(cfg, "model", object())
        with pytest.raises(ConfigError, match="not a life law"):
            simulate(cfg)
