"""Tests for the exact DP engine.

The main oracle is an independent reference implementation: a memoized
recursion over explicit (probability, birth ages, life) atoms, indexed
by the whole vector of remaining query times instead of the engine's
single shift.  Models with unbounded life get their tail lumped into one
"outlives the horizon" atom, which is exact for queries inside the
horizon.  Coefficients are cross-checked by Cauchy/FFT extraction from
the reference pgf.
"""

import ast
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import polygamma

from gwolab import exact_engine, series
from gwolab.errors import CapTooLarge, ConfigError
from gwolab.exact_engine import (
    _DP_BUDGET,
    _LEAF,
    FddSpec,
    conditional_pgf,
    conditional_pmf,
    convergence_csv,
    convergence_table,
    extinction_seq,
    fdd_pgf,
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
from gwolab.modelio import model_from_dict, model_to_dict
from gwolab.simulator import SimConfig, simulate
from gwolab.verify import limit_convergence, tree_pgf, tv_to_limit

import shipped

BIG = 10**9  # stands for "outlives any query time"
ZERO_OR_WEIGHT = st.one_of(st.just(0.0), st.floats(0.0, 1.0))  # a weight 0 cuts the DP at its time
DP_WEIGHT = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))  # `FddSpec` keeps no weight 1 for `_dp`


def delayed_mix():
    return DelayedDeath([(0.6, (1, 2)), (0.4, ())], FiniteLife({1: 0.7, 3: 0.3}))


def sevastyanov_mix():
    laws = {1: OffspringPMF([0.5, 0.0, 0.5]), 2: OffspringPMF([0.25, 0.5, 0.25])}
    return Sevastyanov(FiniteLife({1: 0.5, 2: 0.5}), laws)


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


ALL_MODELS = [*map(shipped.builder, ["binary_splitting", "heavy_tail_life", "early_births"]),
              delayed_mix, sevastyanov_mix]


# ---------------------------------------------------------------------------
# extinction
# ---------------------------------------------------------------------------


class TestExtinction:
    def test_frozen_binary_values(self):
        table = extinction_seq(shipped.model("binary_splitting"), 3)
        np.testing.assert_allclose(table.q, [1.0, 0.5, 0.375, 0.3046875], atol=1e-15)

    @pytest.mark.parametrize("make", ALL_MODELS)
    def test_bounds_and_monotone(self, make):
        q = extinction_seq(make(), 64).q
        assert q[0] == 1.0
        assert np.all((q >= 0.0) & (q <= 1.0))
        assert np.all(np.diff(q) <= 1e-15)

    @pytest.mark.parametrize(
        "life",
        [QuadraticTailLife(1.0, 2), FiniteLife({l: 1.0 / 200 for l in range(1, 201)})],
        ids=["quadratic_tail", "uniform_1_200"],
    )
    def test_immortal_line_survives_with_probability_one(self, life):
        # one child at every death: Q is 1 throughout, and the DP's
        # round-off (up to 4.4e-13 here) must not carry it past 1
        q = extinction_seq(BellmanHarris(life, OffspringPMF([0.0, 1.0])), 4096).q
        assert np.all(q <= 1.0)
        np.testing.assert_allclose(q, 1.0, rtol=0.0, atol=1e-12)

    def test_binary_survival_scales_like_two_over_t(self):
        table = extinction_seq(shipped.model("binary_splitting"), 4096)
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
        extinction_seq(shipped.model("binary_splitting"), 4).to_csv(fh)
        lines = fh.getvalue().strip().splitlines()
        assert lines[0] == "t,Q,tQ,h,abs_error"
        assert len(lines) == 6
        row = lines[2].split(",")
        assert float(row[1]) == 0.5
        assert float(row[3]) == 2.0  # limit of t*Q for the binary model

    def test_csv_bytes_are_csv_writers(self):
        table = extinction_seq(shipped.model("heavy_tail_life"), 5000)  # more rows than one write
        h = table.summary.h
        fh = io.StringIO(newline="")
        table.to_csv(fh)
        rows = zip(range(len(table.q)), table.q, table.tq, [h] * len(table.q), np.abs(table.tq - h))
        assert fh.getvalue().encode() == shipped.csv_writer_bytes(["t", "Q", "tQ", "h", "abs_error"], rows)

    def test_rejects_unknown_model(self):
        with pytest.raises(ConfigError, match="not a life law"):
            extinction_seq(object(), 4)

    @pytest.mark.parametrize("name", ["binary_splitting", "heavy_tail_life", "early_births"])
    def test_table_past_the_budget(self, name):
        # t_max + 1 floats of G alone pass the budget; raised before any table exists
        with pytest.raises(CapTooLarge, match="DP table"):
            extinction_seq(shipped.model(name), _DP_BUDGET)

    def test_rejects_negative_horizon(self):
        with pytest.raises(ConfigError):
            extinction_seq(shipped.model("binary_splitting"), -1)

    @pytest.mark.parametrize("t_max", [2.5, 4.0, "4"])
    def test_rejects_a_horizon_that_is_no_integer(self, t_max):
        with pytest.raises(ConfigError, match="must be an integer"):
            extinction_seq(shipped.model("binary_splitting"), t_max)

    def test_takes_a_numpy_integer(self):
        model = shipped.model("binary_splitting")
        assert extinction_seq(model, np.int64(4)).q.tolist() == extinction_seq(model, 4).q.tolist()


class TestFiniteLifeClip:
    """Finite-support lives end every segment at max_life; the DP must
    agree with references that know nothing of segments far past it."""

    def test_binary_splitting_matches_generation_iteration(self):
        model = shipped.model("binary_splitting")
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
        model = shipped.model("age_dependent_offspring")
        assert times[0] > 3 * model.life.max_life
        got = fdd_pgf(model, FddSpec(times, z))
        assert got == pytest.approx(tree_pgf(model, times, z), abs=1e-12)


class TestShortLifeAtoms:
    """A finite-life Bellman-Harris or Sevastyanov law whose atom table
    reads G at most _ATOM_READS times a step runs its scalar DP as
    Tabulated atoms on the scheduled kernel."""

    def test_atom_tables_of_the_doc_models(self):
        assert exact_engine._short_life_atoms(shipped.model("binary_splitting")) == [
            (0.5, (), 1),
            (0.5, (1, 1), 1),
        ]
        assert exact_engine._short_life_atoms(shipped.model("age_dependent_offspring")) == [
            (0.5, (1,), 1),
            (0.25, (), 3),
            (0.25, (3, 3), 3),
        ]

    def test_a_life_of_2_62_steps(self):
        # a life past the horizon acts as any other: the atoms are read
        # from the support, not from an array as long as the life
        binary = OffspringPMF([0.5, 0.0, 0.5])
        far, near = (BellmanHarris(FiniteLife({1: 0.5, l: 0.5}), binary) for l in (2**62, 100))
        assert exact_engine._short_life_atoms(far)[-1] == (0.25, (2**62,) * 2, 2**62)
        np.testing.assert_array_equal(extinction_seq(far, 8).q, extinction_seq(near, 8).q)

    def test_kernel_routing(self, monkeypatch):
        walked = []
        for name in ("_scheduled", "_birth_at_death"):
            kernel = getattr(exact_engine, name)
            monkeypatch.setattr(exact_engine, name, lambda *args, k=kernel, n=name: walked.append(n) or k(*args))

        def kernels(model, nvars):
            walked.clear()
            exact_engine._dp(model, (6, 300), tuple(exact_engine._Var(i) for i in range(nvars)) or (0.3, 0.0), nvars, 4)
            return walked

        short = [shipped.model(name) for name in ("binary_splitting", "age_dependent_offspring")]
        long = [shipped.model("heavy_tail_life"), bh_long_lives(), shipped.model("heavy_tail_sevastyanov")]
        assert _LEAF < bh_long_lives().life.max_life
        for model in short:
            assert kernels(model, 0) == ["_scheduled"]
        for model in long:
            assert kernels(model, 0) == ["_birth_at_death"]
        for model in short + long:
            for nvars in (1, 2):
                assert kernels(model, nvars) == ["_birth_at_death"]

    @pytest.mark.parametrize("name", ["binary_splitting", "age_dependent_offspring"])
    def test_kernels_agree(self, name, monkeypatch):
        model, t = shipped.model(name), 1 << 11
        spec = FddSpec((t, 2 * t), (0.3, 0.5))
        atoms = extinction_seq(model, 2 * t).q, fdd_pgf(model, spec)
        monkeypatch.setattr(exact_engine, "_ATOM_READS", 0)  # every law walks the dots
        dots = extinction_seq(model, 2 * t).q, fdd_pgf(model, spec)
        np.testing.assert_allclose(atoms[0], dots[0], rtol=1e-12, atol=0)
        assert atoms[1] == pytest.approx(dots[1], rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# the divide-and-conquer route of the birth-at-death kernel
# ---------------------------------------------------------------------------

class TestHeavyTailSevastyanov:
    """heavy_tail_sevastyanov: an unbounded life with d = 1, whose
    closed-form moments give h and c."""

    def test_a_is_the_mean_life(self):
        # E N*L = E L: only life 2 has its own law, of mean 1 as the default's
        life = shipped.model("heavy_tail_sevastyanov").life
        a = summarize(shipped.model("heavy_tail_sevastyanov")).a
        assert a == pytest.approx(life.t_min + life.d * polygamma(1, life.t_min), rel=1e-15, abs=0)
        assert a == pytest.approx(1.0 + math.pi**2 / 6.0, rel=1e-15, abs=0)

    def test_h_against_the_dp(self):
        model = shipped.model("heavy_tail_sevastyanov")
        h = summarize(model).h
        assert h == 7.412891196596736
        q = extinction_seq(model, 1 << 14).q
        # t Q(t) -> h from above: +0.154%, +0.131%, +0.095%
        errors = [abs(t * q[t] / h - 1.0) for t in (1 << 12, 1 << 13, 1 << 14)]
        assert max(errors) < 2e-3 and errors == sorted(errors, reverse=True)


class TestBellmanHarrisIsSevastyanov:
    """A Bellman-Harris law is the Sevastyanov law with an empty table:
    both give the same bits on every route."""

    @pytest.mark.parametrize("name", ["binary_splitting", "heavy_tail_life"])
    def test_same_bits(self, name):
        bh = shipped.model(name)
        sev = Sevastyanov(bh.life, {}, bh.offspring)
        assert summarize(sev) == summarize(bh)
        assert np.array_equal(extinction_seq(sev, 4096).q, extinction_seq(bh, 4096).q)
        spec = FddSpec((48, 96), (0.0, 0.0), t_obs=48)
        got, want = conditional_pmf(sev, spec, 10), conditional_pmf(bh, spec, 10)
        assert np.array_equal(got.probs, want.probs) and got.overflow == want.overflow
        got, want = (simulate(SimConfig(m, 32, (8, 32), 2000, 3)) for m in (sev, bh))
        for field in ("counts", "survived", "overflowed"):
            assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_model_files_keep_their_variant(self):
        raw = shipped.config("binary_splitting")
        bh = model_from_dict(raw)
        assert model_to_dict(bh) == raw
        assert model_to_dict(Sevastyanov(bh.life, {}, bh.offspring))["variant"] == "sevastyanov"

    def test_table_key_past_the_horizon(self):
        # a life of 10^12 steps has its row only in a DP that long; the
        # table's power route and the rank-1 route round apart
        bh = shipped.model("heavy_tail_life")
        sev = Sevastyanov(bh.life, {10**12: OffspringPMF([0.5, 0.0, 0.5])}, bh.offspring)
        q = extinction_seq(sev, 512).q
        np.testing.assert_allclose(q, extinction_seq(bh, 512).q, rtol=1e-12, atol=0)


def bh_long_lives():
    """Finite lives longer than a leaf but shorter than the largest blocks."""
    return BellmanHarris(FiniteLife({l: 1.0 / 150 for l in range(1, 151)}), OffspringPMF([0.5, 0.0, 0.5]))


def long_double_survival(model, t_max):
    """Q(0..t_max) of a Sevastyanov model (Bellman-Harris: an empty table)
    with a quadratic-tail life by the O(t^2) recursion in long double, in
    complement form: Q(u) = P(L > u) + sum_{l=1..u} P(L = l) phi_l(Q(u - l)),
    phi_l(q) = 1 - f_l(1 - q) expanded as a polynomial in q, where f_l is
    the offspring law of life l: the table's, else the default."""
    ld = np.longdouble
    life = model.life
    t = np.arange(t_max + 1).astype(ld)
    surv = np.where(t < life.t_min, ld(1), ld(life.d) / np.maximum(t, ld(1)) ** 2)
    pmf = np.zeros(t_max + 1, dtype=ld)
    pmf[1:] = surv[:-1] - surv[1:]

    def complement(law):
        coef = [ld(0)] * len(law.probs)
        for n, p in enumerate(law.probs):
            for j in range(1, n + 1):
                coef[j] += ld(p) * math.comb(n, j) * (-1) ** (j + 1)
        return coef

    table = {l: complement(law) for l, law in model.table.items() if l <= t_max}
    default = complement(model.default)
    rest = pmf.copy()  # the lives that read the default law
    rest[list(table)] = 0
    q = np.zeros(t_max + 1, dtype=ld)
    phi = {l: np.zeros(t_max + 1, dtype=ld) for l in [None, *table]}  # phi_l(Q(u)), None: the default's
    for u in range(t_max + 1):
        q[u] = surv[u] + np.dot(rest[u:0:-1], phi[None][:u]) + sum(pmf[l] * phi[l][u - l] for l in table if l <= u)
        for l, coef in [(None, default), *table.items()]:
            phi[l][u] = np.polynomial.polynomial.polyval(q[u], coef)
    return q


class TestDivideAndConquer:
    """Horizons past a leaf of `_LEAF` steps run the online FFT
    convolution; each check crosses at least two levels of blocks."""

    def test_heavy_tail_survival_against_long_double(self):
        model = shipped.model("heavy_tail_life")
        t_max = 1 << 13
        ref = long_double_survival(model, t_max)
        rel = np.abs(extinction_seq(model, t_max).q - ref) / ref
        # an FFT over P itself, rather than over 1 - P, is off by 4.6e-10 here
        assert float(rel.max()) <= 1e-10

    def test_sevastyanov_table_survival_against_long_double(self):
        # a table's powers of G are float products in sub-blocks, as the
        # rank-1 leaf's Horner sums are: held to the same bound
        model = shipped.model("heavy_tail_sevastyanov")
        t_max = 1 << 13
        ref = long_double_survival(model, t_max)
        rel = np.abs(extinction_seq(model, t_max).q - ref) / ref
        assert float(rel.max()) <= 1e-10

    @pytest.mark.parametrize("name", ["heavy_tail_life", "heavy_tail_sevastyanov", "bh_long_lives"])
    def test_float_leaf_matches_series_leaf(self, name):
        # a float DP walks rank-1 lives and tables in sub-blocks, with float
        # products inside each; a series DP in one variable walks one step
        # at a time, and its constant coefficient is P(Z(t) = 0) as well.
        # Up to 4096 the two meet, relative to Q(t), over many sub-blocks,
        # leaves and crosses.
        model = bh_long_lives() if name == "bh_long_lives" else shipped.model(name)
        t = 4096
        q = extinction_seq(model, t).q
        dead = exact_engine._dp(model, (t,), (exact_engine._Var(0),), 1, 1)[:, 0]
        assert float(np.max(np.abs(q - (1.0 - dead)) / q)) <= 1e-11

    @pytest.mark.parametrize("t", [_LEAF, 1 << 12, 1 << 14])
    def test_last_step_matches_a_longer_run(self, t):
        # in the run to t the last leaf adds its block's left half by direct
        # dots; in the run to 4t an FFT cross adds it: both over 1 - P.  At
        # t = _LEAF the run to t is a single leaf, seeded as the longer one
        model = shipped.model("heavy_tail_life")
        q, longer = extinction_seq(model, t).q[t], extinction_seq(model, 4 * t).q[t]
        assert q == pytest.approx(longer, rel=1e-13, abs=0)

    @pytest.mark.parametrize("name", ["heavy_tail_life", "heavy_tail_sevastyanov"])
    def test_fdd_pgf_matches_tree(self, name):
        times, z = (200, 300, 400), (0.3, 0.5, 0.0)
        assert times[-1] >= 2 * _LEAF
        model = shipped.model(name)
        assert fdd_pgf(model, FddSpec(times, z)) == pytest.approx(tree_pgf(model, times, z), abs=1e-12)

    @pytest.mark.parametrize("times,z", [((500,), (0.0,)), ((200, 350, 500), (0.3, 0.5, 0.0))])
    def test_long_finite_lives_match_tree(self, times, z):
        # lives of up to 150 steps: the block of 512 steps adds only the sources
        # in [256 - 150, 256) and only into the steps in [256, 256 + 150)
        model = bh_long_lives()
        assert _LEAF < model.life.max_life and times[-1] > 256 + model.life.max_life
        assert fdd_pgf(model, FddSpec(times, z)) == pytest.approx(tree_pgf(model, times, z), abs=1e-12)

    @pytest.mark.parametrize("name", ["heavy_tail_life", "heavy_tail_sevastyanov"])
    def test_conditional_pmf_evaluates_to_conditional_pgf(self, name):
        model, times, K, z = shipped.model(name), (200, 400), 10, (0.05, 0.1)
        probs = conditional_pmf(model, FddSpec(times, (0.0, 0.0), t_obs=times[0]), K).probs
        series_val = float(z[0] ** np.arange(K + 1) @ probs @ z[1] ** np.arange(K + 1))
        # the dropped terms of total degree > K weigh at most z_1 * z_2^K = 5e-12
        assert series_val == pytest.approx(conditional_pgf(model, FddSpec(times, z, t_obs=times[0])), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_heavy_tail_models_match_tree(self, data):
        def offspring(label):
            # critical: 0 with prob beta*(mu - 1), 1 with 1 - beta*mu, and a
            # law of mean mu on {2, ..., top} with prob beta
            weights = data.draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3), label=f"{label} weights")
            mu = sum(n * w for n, w in enumerate(weights, 2)) / sum(weights)
            beta = data.draw(st.floats(0.1, 0.9), label=f"{label} beta") / mu
            return OffspringPMF([beta * (mu - 1.0), 1.0 - beta * mu] + [beta * w / sum(weights) for w in weights])

        # besides heavy tails, finite lives on both sides of _ATOM_READS: every
        # offspring law has full support on {0, ..., top}, so a life reads
        # G 6, 10 or 15 times a step, and one to four of them 6 to 60 times
        kind = data.draw(st.sampled_from(["heavy tail", "finite", "finite by life"]), label="life")
        if kind == "heavy tail":
            d = data.draw(st.floats(0.25, 4.0), label="d")
            t_min = data.draw(st.integers(max(1, math.ceil(math.sqrt(d))), 4), label="t_min")
            model = BellmanHarris(QuadraticTailLife(d=d, t_min=t_min), offspring("offspring"))
        else:
            lives = sorted(data.draw(st.sets(st.integers(1, 2 * _LEAF), min_size=1, max_size=4), label="lives"))
            mass = [data.draw(st.floats(0.1, 1.0), label=f"P(L = {l})") for l in lives]
            life = FiniteLife({l: w / sum(mass) for l, w in zip(lives, mass)})
            if kind == "finite":
                model = BellmanHarris(life, offspring("offspring"))
            else:
                laws = {l: offspring(f"life {l}") for l in lives}
                model = Sevastyanov(life, laws)
        last = data.draw(st.integers(_LEAF + 1, 3 * _LEAF), label="t_k")
        earlier = data.draw(st.sets(st.integers(0, last - 1), max_size=2), label="earlier times")
        times = tuple(sorted(earlier)) + (last,)
        z = tuple(data.draw(ZERO_OR_WEIGHT, label=f"z{i}") for i in range(len(times)))
        assert fdd_pgf(model, FddSpec(times, z)) == pytest.approx(tree_pgf(model, times, z), abs=1e-12)


# ---------------------------------------------------------------------------
# the scheduled kernel (Tabulated, DelayedDeath)
# ---------------------------------------------------------------------------


@st.composite
def scheduled_models(draw):
    """A small critical Tabulated or DelayedDeath model: one to three atoms
    with births (ages may repeat, and a Tabulated atom may give birth at
    the age it dies) and a childless atom that brings the mean to 1."""
    ages = [
        tuple(sorted(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3), label="ages")))
        for _ in range(draw(st.integers(1, 3), label="atoms with births"))
    ]
    w = [draw(st.floats(0.1, 1.0), label="weight") for _ in ages]
    mu = sum(wi * len(a) for wi, a in zip(w, ages)) / sum(w)
    schedules = [(wi / sum(w) / mu, a) for wi, a in zip(w, ages)] + [(1.0 - 1.0 / mu, ())]
    if draw(st.booleans(), label="tabulated"):
        lives = [(a[-1] if a else 1) + draw(st.integers(0, 4), label="life past last age") for _, a in schedules]
        return Tabulated([(p, a, life) for (p, a), life in zip(schedules, lives)])
    residual = {r: draw(st.floats(0.1, 1.0), label="residual weight") for r in range(1, draw(st.integers(1, 4)) + 1)}
    total = sum(residual.values())
    return DelayedDeath(schedules, FiniteLife({r: v / total for r, v in residual.items()}))


class TestScheduledKernel:
    @settings(max_examples=25, deadline=None)
    @given(model=scheduled_models(), data=st.data())
    def test_random_models_match_tree(self, model, data):
        times = tuple(sorted(data.draw(st.sets(st.integers(0, 40), min_size=1, max_size=3), label="times")))
        z = tuple(data.draw(ZERO_OR_WEIGHT, label=f"z{i}") for i in range(len(times)))
        assert fdd_pgf(model, FddSpec(times, z)) == pytest.approx(tree_pgf(model, times, z), abs=1e-12)
        # the series ring runs the same walk: the conditioned pmf, evaluated
        # at small weights, is the conditioned pgf
        t_obs = data.draw(st.integers(1, 40), label="t_obs")
        K = 12
        probs = conditional_pmf(model, FddSpec(times, (0.0,) * len(times), t_obs=t_obs), K).probs
        small = tuple(data.draw(st.floats(0.0, 0.1), label=f"small z{i}") for i in range(len(times)))
        series_val = probs
        for zi in reversed(small):
            series_val = series_val @ zi ** np.arange(K + 1)
        # the dropped terms of total degree > K weigh at most 0.1^13
        want = conditional_pgf(model, FddSpec(times, small, t_obs=t_obs))
        assert float(series_val) == pytest.approx(want, abs=1e-12)

    def test_late_ages_reach_back_past_a_chunk(self):
        # the late age reads G more than one chunk back, from a slice of its
        # own; the early one reads the chunk's window, and the query spans
        # more than three chunks of the length the kernel picks for the model
        def model(late):
            return Tabulated([(0.5, (late // 4, late), late), (0.5, (), 3)])

        chunk = exact_engine._chunk_steps(model(4).atoms, series.Floats)
        late = chunk + 22
        m, times, z = model(late), (late, 2 * chunk + 34, 3 * chunk + 36), (0.3, 0.6, 0.0)
        assert late // 4 <= chunk < late and times[-1] > 3 * chunk
        assert fdd_pgf(m, FddSpec(times, z)) == pytest.approx(tree_pgf(m, times, z), abs=1e-12)

    def test_atoms_of_one_life_share_one_survival_column(self):
        # 40 atoms over 5 lives: a column of t_max + 1 floats per atom
        # would hold 1.3 MB at 2^12; one per life, cut at its first 0, does not
        model = Tabulated([(1.0 / 40, tuple(range(1, 1 + i % 3)), 3 + i % 5) for i in range(40)])
        extinction_seq(model, 64)  # one-time allocations (caches, imports) stay out of the peak
        tracemalloc.start()
        try:
            q = extinction_seq(model, 1 << 12).q
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6
        for t in (5, 17, 40):
            assert 1.0 - q[t] == pytest.approx(tree_pgf(model, (t,), (0.0,)), abs=1e-12)


# ---------------------------------------------------------------------------
# the compiled step loops against the interpretive loops they replace
# ---------------------------------------------------------------------------


def reference_scheduled_steps(reads, rows):
    """The interpretive step loop of a `_scheduled` piece, behind the
    protocol of `exact_engine._scheduled_steps`: cells hold per atom its
    terms al and, per read, (col, d); a step sums, from 0.0 and atom by
    atom, al[i] times the product of its reads (al[i] alone without one)
    by the ring's mul."""

    def make(zero, mul):
        def run(g, gd, i0, i1, *cells):
            terms, at = [], 0
            for n in reads:
                al, flat = cells[at], cells[at + 1 : at + 1 + 2 * n]
                at += 1 + 2 * n
                pairs = list(zip(flat[::2], flat[1::2]))
                terms.append((al, pairs[0] if pairs else (None, 0), pairs[1:]))
            for i in range(i0, i1):
                acc = 0.0
                for al, (col, d), rest in terms:
                    if col is None:
                        acc += al[i]
                        continue
                    child = col[i + d]
                    for col, d in rest:
                        child = mul(child, col[i + d])
                    acc += mul(al[i], child)
                g[i + gd] = acc

        return run

    return make


def reference_leaf_walk(n, weighted, shortest, width, degree):
    """The interpretive sub-block loop of a float birth-at-death chunk,
    behind the protocol of `exact_engine._leaf_walk`: each weighted
    segment's window sums by one dot against K, weighted; the window of
    the segment of weight 1; then step k adds its earlier steps' P cells
    times M[i], ..., M[shortest] as float products (a table's cell 0 is 1:
    its mass alone) and composes by a Horner loop from 0.0, or by the
    powers of a table; P takes the cells."""
    sub, R, leaf = exact_engine._SUB_STEPS, width, _LEAF

    def make(zero, dot, Pf, K, Kn, store, *numbers):
        mass = [[0.0] * R, *(numbers[l * R : l * R + R] for l in range(sub - 1))]  # M[0] enters no block
        coef = list(numbers[(sub - 1) * R :])
        assert len(coef) == degree

        def walk(g, c0, s, e, reach, lo0, *bounds):
            assert len(bounds) == 3 * weighted
            for s0 in range(s, e, n):
                k0, k1 = s0 - c0, s0 - c0 + n
                # lives past reach (max_life, or the horizon) have no mass: start at m = s0 - reach
                m_min = s0 - reach
                for lo, hi, w in zip(bounds[::3], bounds[1::3], bounds[2::3]):
                    lo = max(lo, m_min)
                    if lo < hi:
                        sums = dot(Pf[lo * R : hi * R], K[(lo - s0 + leaf) * R : (hi - s0 + leaf) * R]).tolist()
                        g[k0:k1] = [x + w * y for x, y in zip(g[k0:k1], sums)]
                lo = max(lo0, m_min)
                near = dot(Pf[lo * R : s0 * R], K[(lo - s0 + leaf) * R :]).tolist() if lo < s0 else [zero] * sub
                cells = []  # each earlier step's P cells, None for a table's cell 0
                for i in range(n):
                    total = g[k0 + i] + near[i]
                    for j in range(i - shortest + 1):
                        for m, p in zip(mass[i - j], cells[j]):
                            total += m if p is None else m * p
                    g[k0 + i] = total
                    if degree:
                        value = zero
                        for c in reversed(coef):
                            value = value * total + c
                        row = [value]
                    else:
                        row = [None, total][:R]
                        while len(row) < R:
                            row.append(row[-1] * total)
                    cells.append(row)
                for i, row in enumerate(cells):
                    for r, p in enumerate(row):
                        if p is not None:
                            store[(s0 + i) * R + r] = p

        return walk

    return make


def compiled_and_reference(model, times, weights, nvars=0, cap=0, chunk_cells=None):
    """`_dp` with the compiled step loops, with the reference loops, and
    the loops the reference run took ("scheduled", "leaf")."""
    ran = set()
    with pytest.MonkeyPatch.context() as mp:
        if chunk_cells is not None:
            mp.setattr(exact_engine, "_CHUNK_CELLS", chunk_cells)
        got = exact_engine._dp(model, times, weights, nvars, cap)
        mp.setattr(exact_engine, "_scheduled_steps", lambda *s: ran.add("scheduled") or reference_scheduled_steps(*s))
        mp.setattr(exact_engine, "_leaf_walk", lambda *s: ran.add("leaf") or reference_leaf_walk(*s))
        want = exact_engine._dp(model, times, weights, nvars, cap)
    return got, want, ran


def masses(draw, n, label):
    """n positive masses summing to 1."""
    w = [draw(st.floats(0.05, 1.0), label=f"{label} {i}") for i in range(n)]
    return [x / sum(w) for x in w]


@st.composite
def queries(draw, last_max, nvars=0):
    """A query of 1 to 3 times up to last_max (a float weight may be 0,
    never 1, as `_dp` is given), the first nvars of them series variables."""
    last = draw(st.integers(max(nvars, 1), last_max), label="t_k")
    earlier = sorted(draw(st.sets(st.integers(0, last - 1), min_size=max(nvars - 1, 0), max_size=2), label="earlier"))
    times = (*earlier, last)
    weights = tuple(
        exact_engine._Var(i) if i < nvars else draw(DP_WEIGHT, label=f"z{i}") for i in range(len(times))
    )
    return times, weights


@st.composite
def any_scheduled_laws(draw):
    """Atoms with 0 to 3 children at ages 1 to 12 (repeats allowed),
    childless ones among them, as Tabulated atoms (no residual), as
    DelayedDeath schedules over a finite or an unbounded residual, or a
    short-life Bellman-Harris law that `_dp` rewrites as atoms."""
    kind = draw(st.sampled_from(["tabulated", "finite residual", "unbounded residual", "short life"]), label="law")
    if kind == "short life":  # at most 2 x (1 + 2 + 3) reads a step: the atoms route
        lives = sorted(draw(st.sets(st.integers(1, 12), min_size=1, max_size=2), label="lives"))
        life = FiniteLife(dict(zip(lives, masses(draw, len(lives), "P(L)"))))
        offspring = OffspringPMF(masses(draw, draw(st.integers(1, 3), label="offspring size"), "P(N)"))
        return BellmanHarris(life, offspring)
    ages = [
        tuple(sorted(draw(st.lists(st.integers(1, 12), max_size=3), label="ages")))
        for _ in range(draw(st.integers(1, 4), label="atoms"))
    ]
    probs = masses(draw, len(ages), "prob")
    if kind == "tabulated":
        lives = [(a[-1] if a else 1) + draw(st.integers(0, 4), label="life past last age") for a in ages]
        return Tabulated(list(zip(probs, ages, lives)))
    if kind == "finite residual":
        rs = sorted(draw(st.sets(st.integers(1, 6), min_size=1, max_size=3), label="residuals"))
        residual = FiniteLife(dict(zip(rs, masses(draw, len(rs), "P(R)"))))
    else:
        d = draw(st.floats(0.25, 4.0), label="d")
        residual = QuadraticTailLife(d=d, t_min=draw(st.integers(math.ceil(math.sqrt(d)), 6), label="t_min"))
    return DelayedDeath(list(zip(probs, ages)), residual)


@st.composite
def rank_1_laws(draw):
    """A Bellman-Harris law that walks the rank-1 float leaf: an unbounded
    life, or finite lives past the atoms' read bound; the shortest life of
    positive mass is often past 1, so in-block pairs are cut."""
    offspring = OffspringPMF(masses(draw, draw(st.integers(1, 6), label="offspring size"), "P(N)"))
    if draw(st.booleans(), label="unbounded"):
        d = draw(st.floats(0.25, 4.0), label="d")
        life = QuadraticTailLife(d=d, t_min=draw(st.integers(math.ceil(math.sqrt(d)), 10), label="t_min"))
    else:
        lives = draw(st.sets(st.integers(2, 3 * _LEAF), min_size=exact_engine._ATOM_READS + 1, max_size=24))
        life = FiniteLife(dict(zip(sorted(lives), masses(draw, len(lives), "P(L)"))))
    return BellmanHarris(life, offspring)


@st.composite
def table_laws(draw):
    """A Sevastyanov table over a life of `rank_1_laws`: one to three
    lives of positive mass, often inside a sub-block, with offspring laws
    of their own, so a step writes the powers of G up to the widest."""
    base = draw(rank_1_laws(), label="default")
    life = base.life
    support = range(life.t_min, life.t_min + 12) if life.max_life is None else life.support
    lives = draw(st.sets(st.sampled_from(list(support)), min_size=1, max_size=3), label="table lives")
    table = {l: OffspringPMF(masses(draw, draw(st.integers(1, 4), label=f"size {l}"), f"P(N | {l})")) for l in lives}
    return Sevastyanov(life, table, base.offspring)


class TestCompiledStepLoops:
    """The compiled step loops keep the bits of the interpretive loops
    they replace, written out above: whole `_dp` columns, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(model=any_scheduled_laws(), data=st.data())
    def test_scheduled_kernel(self, model, data):
        # a drawn _CHUNK_CELLS of 8 to 72 makes chunks of a few steps: ages
        # cut them, reach back past them, and horizons end inside them
        short_life = isinstance(model, BellmanHarris)
        nvars = 0 if short_life else data.draw(st.sampled_from([0, 0, 1, 2]), label="nvars")
        cap = data.draw(st.integers(1, 3), label="cap") if nvars else 0
        chunk_cells = data.draw(st.sampled_from([None, 8, 24, 72]), label="chunk cells")
        times, weights = data.draw(queries(150, nvars), label="query")
        got, want, ran = compiled_and_reference(model, times, weights, nvars, cap, chunk_cells)
        assert ran == {"scheduled"}
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(model=rank_1_laws(), data=st.data())
    def test_rank_1_float_leaf(self, model, data):
        # horizons past a leaf run crosses; most end inside a sub-block
        times, weights = data.draw(queries(3 * _LEAF + 5), label="query")
        got, want, ran = compiled_and_reference(model, times, weights)
        assert ran == {"leaf"}
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(model=table_laws(), data=st.data())
    def test_table_float_leaf(self, model, data):
        # the same walk, with a step's powers of G as float products
        times, weights = data.draw(queries(3 * _LEAF + 5), label="query")
        got, want, ran = compiled_and_reference(model, times, weights)
        assert ran == {"leaf"}
        assert got.tobytes() == want.tobytes()

    def test_long_chains_go_on_over_lines(self):
        # 20 atoms, one with 40 children, a default law of 40 coefficients,
        # and a table of 40 powers: past _FOLD operations a chain goes on at
        # the next line, in the same order
        atoms = [(0.5, tuple(range(1, 41)), 41)] + [(0.5 / 19, (i % 3 + 1,) * (i % 3), 4) for i in range(19)]
        tabulated = Tabulated(atoms)
        heavy = BellmanHarris(QuadraticTailLife(d=1.0, t_min=2), OffspringPMF([0.5] + [0.5 / 39] * 39))
        for model, times, weights, nvars, cap in (
            (tabulated, (60, 300), (0.3, 0.0), 0, 0),
            (tabulated, (30, 90), (exact_engine._Var(0), 0.0), 1, 2),
            (heavy, (100, 300), (0.5, 0.0), 0, 0),
            (Sevastyanov(heavy.life, {3: heavy.offspring}, OffspringPMF([0.5, 0.0, 0.5])), (100, 300), (0.5, 0.0), 0, 0),
        ):
            got, want, _ = compiled_and_reference(model, times, weights, nvars, cap)
            assert got.tobytes() == want.tobytes()
        scheduled = exact_engine._scheduled_steps(tuple(len(ages) for _, ages, _ in atoms), False).source
        assert "child0 = " in scheduled and "acc = " in scheduled
        assert exact_engine._leaf_walk(8, 0, 2, 1, 40).source.count("p0 = ") == 3
        assert exact_engine._leaf_walk(8, 0, 1, 40, 0).source.count("t1 = ") == 3  # 40 terms

    def test_one_compile_per_shape(self, monkeypatch):
        # a second run, and a model of the same shape with other numbers,
        # compile nothing: the numbers come in as values, never as source
        caches = (exact_engine._scheduled_steps, exact_engine._leaf_walk)
        sources = []
        for cached in caches:

            def spy(*shape, cached=cached):
                make = cached(*shape)
                sources.append(make.source)
                return make

            monkeypatch.setattr(exact_engine, cached.__name__, spy)
        same_shapes = [
            (
                shipped.model("delayed_death"),
                DelayedDeath([(0.3, (1, 2)), (0.7, ())], QuadraticTailLife(d=1.5, t_min=2)),
            ),
            (
                shipped.model("heavy_tail_life"),
                BellmanHarris(QuadraticTailLife(d=2.0, t_min=2), OffspringPMF([0.6, 0.1, 0.0, 0.2, 0.1])),
            ),
            (
                shipped.model("heavy_tail_sevastyanov"),
                Sevastyanov(
                    QuadraticTailLife(d=2.0, t_min=2), {3: OffspringPMF([0.25, 0.5, 0.25])}, OffspringPMF([0.3, 0.4, 0.3])
                ),
            ),
        ]
        spec = FddSpec((300, 1000), (0.4, 0.6))
        for first, other in same_shapes:
            extinction_seq(first, 1000)  # may compile
            fdd_pgf(first, spec)
            misses = [cache.cache_info().misses for cache in caches]
            for model in (first, other):
                extinction_seq(model, 1000)
                fdd_pgf(model, spec)
                assert [cache.cache_info().misses for cache in caches] == misses
        assert sources
        for source in sources:
            constants = [n.value for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Constant)]
            assert not any(isinstance(c, float) for c in constants), source

    def test_both_routes_share_walkers(self, monkeypatch):
        # G holds the survival term before any leaf walks, on either route:
        # a divide-and-conquer DP (to 1023, whole leaves) asks for no walker
        # shape that a single-leaf DP (to 127, whole sub-blocks) did not
        shapes = []
        walker = exact_engine._leaf_walk
        monkeypatch.setattr(exact_engine, "_leaf_walk", lambda *shape: shapes.append(shape) or walker(*shape))
        model = shipped.model("heavy_tail_life")
        extinction_seq(model, _LEAF - 1)
        single = set(shapes)
        misses = walker.cache_info().misses
        extinction_seq(model, 8 * _LEAF - 1)
        assert single and set(shapes) == single
        assert walker.cache_info().misses == misses


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
        model = shipped.model("binary_splitting")
        assert fdd_pgf(model, spec) == fdd_pgf(model, FddSpec((1, 5), (0.5, 0.25)))
        assert fdd_pgf(model, FddSpec((3, 7), (1.0, 1.0))) == 1.0

    def test_weight_one_runs_no_dp(self, monkeypatch):
        # a supercritical law whose DP at weight 1 overflows: the spec keeps
        # no coordinate, so the pgf is exactly 1 and `_dp` never runs
        model = BellmanHarris(QuadraticTailLife(d=2.0, t_min=5), OffspringPMF([0.3, 0.1, 0.1, 0.1, 0.2, 0.2]))
        monkeypatch.setattr(exact_engine, "_dp", lambda *args: pytest.fail("a DP ran"))
        assert fdd_pgf(model, FddSpec((318,), (1.0,))) == 1.0

    def test_time_zero_factor_is_exact(self):
        # Z(0) = 1 always, so a query at 0 multiplies by its weight
        model = shipped.model("early_births")
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
        model = shipped.model("binary_splitting")
        times, z = (2, 4, 5), (0.4, 0.6, 0.8)
        pmf = model.life.pmf(np.arange(times[-1] + 1))

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
                total += pmf[l] * prefix * np.polynomial.polynomial.polyval(shifted(l), model.offspring.probs)
            if hi is None:
                total += model.life.survival(times[-1]) * prefix
        assert fdd_pgf(model, FddSpec(times, z)) == pytest.approx(total, abs=1e-14)

    def test_monotone_in_weights(self):
        model = shipped.model("heavy_tail_life")
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

    def test_times_must_be_integers(self):
        # a fractional time is refused, not truncated; numpy's integers pass
        with pytest.raises(ConfigError, match="4.5"):
            FddSpec((4.5,), (0.5,))
        with pytest.raises(ConfigError, match="t_obs 4.0"):
            FddSpec((4,), (0.5,), t_obs=4.0)
        spec = FddSpec(np.array([3, 5]), (0.5, 0.5), t_obs=np.int64(3))
        assert (spec.times, spec.t_obs) == ((3, 5), 3)

    def test_out_of_range_names_field_and_value(self):
        with pytest.raises(ConfigError, match="time -1 "):
            FddSpec((-1, 2), (0.5, 0.5))
        with pytest.raises(ConfigError, match="t_obs 0 "):
            FddSpec((1,), (0.5,), t_obs=0)


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------


class TestConditional:
    def test_frozen_binary_value(self):
        val = conditional_pgf(shipped.model("binary_splitting"), FddSpec((1,), (0.5,), t_obs=2))
        assert val == pytest.approx(0.25, abs=1e-15)

    def test_extinct_given_survival_is_zero(self):
        zero = conditional_pgf(shipped.model("binary_splitting"), FddSpec((5,), (0.0,), t_obs=5))
        assert zero == pytest.approx(0.0, abs=1e-15)

    def test_normalization_as_weight_tends_to_one(self):
        val = conditional_pgf(shipped.model("binary_splitting"), FddSpec((5,), (1.0 - 1e-12,), t_obs=5))
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_early_conditioning_reduces_to_ratio_form(self):
        # for t_obs <= t_1 the answer collapses to 1 - (1 - pgf)/Q(t_obs)
        model = shipped.model("binary_splitting")
        spec = FddSpec((4, 6), (0.3, 0.7), t_obs=2)
        q = extinction_seq(model, 2).q[2]
        expect = 1.0 - (1.0 - fdd_pgf(model, FddSpec(spec.times, spec.z))) / q
        assert conditional_pgf(model, spec) == pytest.approx(expect, abs=1e-14)

    @pytest.mark.parametrize("make", [*map(shipped.builder, ["binary_splitting", "early_births"]), delayed_mix])
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
        with pytest.raises(ConfigError, match=r"^t_obs 5: Z\(5\) > 0 has probability 0$"):
            conditional_pgf(barren, FddSpec((1,), (0.5,), t_obs=5))

    def test_requires_t_obs(self):
        with pytest.raises(ConfigError):
            conditional_pgf(shipped.model("binary_splitting"), FddSpec((1,), (0.5,)))

    def test_all_weights_one_gives_unit(self):
        assert conditional_pgf(shipped.model("binary_splitting"), FddSpec((3, 5), (1.0, 1.0), t_obs=4)) == 1.0


class TestConditionalPmf:
    def test_marginal_against_reference_fft(self):
        model = shipped.model("binary_splitting")
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
        model = shipped.model("heavy_tail_life")
        times, t_obs, K = (8, 12), 10, 12
        res = conditional_pmf(model, FddSpec(times, (0.0, 0.0), t_obs=t_obs), K=K)
        z = 0.15
        powers = z ** np.arange(K + 1)
        series_val = float(powers @ res.probs @ powers)
        scalar_val = conditional_pgf(model, FddSpec(times, (z, z), t_obs=t_obs))
        # the dropped tail is at most z^(K+1)
        assert series_val == pytest.approx(scalar_val, abs=1e-10)

    def test_budget_guard(self):
        # raised before the (3, 300) ring, 27M entries, is built and cached
        calls = series.ring.cache_info()[:2]
        with pytest.raises(CapTooLarge):
            conditional_pmf(shipped.model("binary_splitting"), FddSpec((2, 3, 4), (0.0,) * 3, t_obs=4), K=300)
        assert series.ring.cache_info()[:2] == calls

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigError):
            conditional_pmf(shipped.model("binary_splitting"), FddSpec((3,), (0.0,), t_obs=3), K=0)

    @pytest.mark.parametrize("K", [2.5, 4.0, "4"])
    def test_k_must_be_an_integer(self, K):
        with pytest.raises(ConfigError, match="must be an integer"):
            conditional_pmf(shipped.model("binary_splitting"), FddSpec((3,), (0.0,), t_obs=3), K)

    def test_validation(self):
        with pytest.raises(ConfigError, match="t_obs"):
            conditional_pmf(shipped.model("binary_splitting"), FddSpec((3,), (0.0,)), K=4)
        with pytest.raises(ConfigError, match="no coordinates"):
            conditional_pmf(shipped.model("binary_splitting"), FddSpec((3,), (1.0,), t_obs=3), K=4)


# ---------------------------------------------------------------------------
# the extinct term of a conditioned law
# ---------------------------------------------------------------------------

TIMES = (6, 10, 14)
# t_obs before, at, between and after the times
T_OBS = (3, 6, 8, 10, 12, 14, 17)


def with_extinction(times, weights, t_obs):
    """The coordinates with weight 0 at t_obs: inserted, or replacing the
    weight of a time equal to t_obs (w^Z 0^Z = 0^Z)."""
    marked = dict(zip(times, weights))
    marked[t_obs] = 0.0
    order = tuple(sorted(marked))
    return order, tuple(marked[t] for t in order)


def two_dp_pgf(model, times, z, t_obs):
    """(plain - extinct) / Q(t_obs), the extinct term a full pgf with (t_obs, 0) among the times."""
    plain = fdd_pgf(model, FddSpec(times, z))
    extinct = fdd_pgf(model, FddSpec(*with_extinction(times, z, t_obs)))
    return (plain - extinct) / extinction_seq(model, t_obs).q[t_obs]


def two_dp_pmf(model, times, t_obs, K):
    """The same formula on the series ring, one variable per time."""
    k = len(times)
    weights = tuple(exact_engine._Var(i) for i in range(k))
    plain = exact_engine._dp(model, times, weights, k, K)[times[-1]]
    marked, marked_weights = with_extinction(times, weights, t_obs)
    extinct = exact_engine._dp(model, marked, marked_weights, k, K)[marked[-1]]
    return (plain - extinct) / extinction_seq(model, t_obs).q[t_obs]


class TestConditionedExtinctTerm:
    @pytest.mark.parametrize("t_obs", T_OBS)
    @pytest.mark.parametrize("name", shipped.NAMES)
    def test_pgf_matches_two_dp_formula(self, name, t_obs):
        model, z = shipped.model(name), (0.3, 0.6, 0.2)
        got = conditional_pgf(model, FddSpec(TIMES, z, t_obs=t_obs))
        assert got == pytest.approx(two_dp_pgf(model, TIMES, z, t_obs), abs=1e-12)

    @pytest.mark.parametrize("t_obs", T_OBS)
    @pytest.mark.parametrize("name", shipped.NAMES)
    def test_pmf_matches_two_dp_formula(self, name, t_obs):
        model, K = shipped.model(name), 8
        probs = conditional_pmf(model, FddSpec(TIMES, (0.0,) * 3, t_obs=t_obs), K).probs
        np.testing.assert_allclose(probs, two_dp_pmf(model, TIMES, t_obs, K), rtol=0, atol=1e-12)
        if t_obs >= TIMES[0]:
            # P(Z(t_obs) > 0 = Z(t_1)) = 0 when t_1 <= t_obs
            assert probs[0, 0, 0] == 0.0
        # evaluated at small weights, the pmf is the pgf of the public formula;
        # the terms past K weigh at most 0.02^9
        z = (0.01, 0.02, 0.005)
        series_val = np.einsum("abc,a,b,c->", probs, *(zi ** np.arange(K + 1) for zi in z))
        assert series_val == pytest.approx(two_dp_pgf(model, TIMES, z, t_obs), abs=1e-12)

    def test_one_series_dp_when_conditioning_at_or_before_the_first_time(self, monkeypatch):
        calls = []
        dp = exact_engine._dp

        def spy(model, times, weights, nvars=0, cap=0):
            calls.append(nvars)
            return dp(model, times, weights, nvars, cap)

        monkeypatch.setattr(exact_engine, "_dp", spy)
        for t_obs in (3, 6):
            calls.clear()
            conditional_pmf(shipped.model("delayed_death"), FddSpec((6, 10), (0.0, 0.0), t_obs=t_obs), K=6)
            # the scalar DP for Q(t_obs), then the plain series DP alone
            assert calls == [0, 2]


class TestWeightZeroCut:
    """Extinction is absorbing: a weight 0 at t_j is Z(t_j) = 0, on which
    every later count is 0, so the DP stops at t_j."""

    @pytest.mark.parametrize("name", shipped.NAMES)
    def test_zero_in_the_middle_matches_tree(self, name):
        # the oracle runs the whole query, uncut
        model, times, z = shipped.model(name), (3, 5, 8), (0.4, 0.0, 0.7)
        assert fdd_pgf(model, FddSpec(times, z)) == pytest.approx(tree_pgf(model, times, z), abs=1e-12)

    @pytest.mark.parametrize("name", shipped.NAMES)
    def test_conditioned_on_survival_past_a_zero_is_exactly_0(self, name):
        # a weight 0 at or before t_obs: the plain and extinct DPs are one computation
        model = shipped.model(name)
        for times, z, t_obs in [
            ((100, 150, 300), (0.5, 0.0, 0.5), 150),
            ((300, 700), (0.0, 0.5), 300),
            ((100, 200), (0.0, 0.5), 150),
        ]:
            assert conditional_pgf(model, FddSpec(times, z, t_obs=t_obs)) == 0.0

    def test_dp_horizon_is_the_first_zero(self, monkeypatch):
        horizons = []
        dp = exact_engine._dp

        def spy(model, times, weights, nvars=0, cap=0):
            horizons.append(times[-1])
            return dp(model, times, weights, nvars, cap)

        monkeypatch.setattr(exact_engine, "_dp", spy)
        model = shipped.model("heavy_tail_life")
        fdd_pgf(model, FddSpec((3, 5, 8), (0.4, 0.0, 0.7)))
        assert horizons == [5]
        horizons.clear()
        # Q(t_obs) alone: a weight 0 at or before t_obs makes the value 0
        conditional_pgf(model, FddSpec((100, 150, 300), (0.5, 0.0, 0.5), t_obs=150))
        assert horizons == [150]
        horizons.clear()
        # z_1 = 0: every row reads one survival column, to the largest t
        convergence_table(model, (1.0, 2.0), (0.0, 0.5), (8, 16))
        assert horizons == [16]
        horizons.clear()
        # a pmf's weights are variables, never cut
        conditional_pmf(model, FddSpec((6, 10), (0.0, 0.0), t_obs=6), K=4)
        assert horizons == [6, 10]
        # z_1 = 0: the plain and the weighted limit rows read one survival column
        for name in ("heavy_tail_life", "delayed_death"):
            horizons.clear()
            limit_convergence(shipped.model(name), (1.0, 2.0), (0.0, 0.5), [1 << i for i in range(10, 14)])
            assert horizons == [8192], name


# ---------------------------------------------------------------------------
# convergence toward the compound limit
# ---------------------------------------------------------------------------


class TestConvergence:
    def test_plain_survival_target_is_h(self):
        summary = summarize(shipped.model("binary_splitting"))
        rows = convergence_table(shipped.model("binary_splitting"), (1.0,), (0.0,), (16, 32))
        assert rows[0].target == pytest.approx(summary.h, abs=1e-14)
        assert summary.h == 2.0

    def test_bounded_life_target_never_depends_on_weights(self):
        model = shipped.model("early_births")  # d = 0
        h = summarize(model).h
        rows = convergence_table(model, (1.0, 2.0), (0.3, 0.6), (8,))
        assert rows[0].target == pytest.approx(h, abs=1e-14)

    # queries with y_1 = 1 and their g = sum z_1...z_{i-1} (1 - z_i) / y_i^2
    G_QUERIES = [
        ((1.0, 2.0), (0.0, 0.5), 1.0),
        ((1.0, 2.0), (0.5, 0.5), 0.5625),
        ((1.0,), (0.75,), 0.25),
        ((1.0,), (0.7,), 0.3),
        ((1.0,), (0.1,), 0.9),
    ]

    def test_limit_root_identity(self):
        model = shipped.model("heavy_tail_life")
        summary = summarize(model)
        for y, z, g in self.G_QUERIES:
            x = convergence_table(model, y, z, (8,))[0].target
            assert summary.b * x * x == pytest.approx(summary.a * x + summary.d * g, abs=1e-12)
            if g == 1.0:
                assert x == pytest.approx(summary.h, abs=1e-12)

    def test_limit_matches_radical_ratio_form(self):
        model = shipped.model("heavy_tail_life")
        summary = summarize(model)
        for y, z, g in self.G_QUERIES:
            target = convergence_table(model, y, z, (8,))[0].target
            ratio = summary.h * (1 + math.sqrt(1 + summary.c * g)) / (1 + math.sqrt(1 + summary.c))
            assert target == pytest.approx(ratio, abs=1e-12)

    def test_binary_error_shrinks_along_dyadic_times(self):
        rows = convergence_table(shipped.model("binary_splitting"), (1.0,), (0.0,), (64, 128, 256))
        errs = [r.abs_error for r in rows]
        assert errs[0] > errs[1] > errs[2]

    def test_rounding_of_scaled_times(self):
        rows = convergence_table(shipped.model("binary_splitting"), (1.0, 1.5), (0.2, 0.2), (5,))
        # times are 5 and 5 + round(5*0.5) = 8; just confirm it runs and
        # reports q_k consistently
        expect = 1.0 - fdd_pgf(shipped.model("binary_splitting"), FddSpec((5, 8), (0.2, 0.2)))
        assert rows[0].q_k == pytest.approx(expect, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ConfigError):
            convergence_table(shipped.model("binary_splitting"), (2.0,), (0.0,), (8,))
        with pytest.raises(ConfigError):
            convergence_table(shipped.model("binary_splitting"), (1.0, 1.0), (0.0, 0.0), (8,))
        with pytest.raises(ConfigError):
            convergence_table(shipped.model("binary_splitting"), (1.0,), (0.0,), (0,))
        with pytest.raises(ConfigError):
            convergence_table(shipped.model("binary_splitting"), (1.0, 2.0), (1.0, 0.0), (8,))
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                convergence_table(shipped.model("binary_splitting"), (1.0, bad), (0.0, 0.5), (8,))
            with pytest.raises(ConfigError):
                tv_to_limit(shipped.model("binary_splitting"), (1.0, bad), 8, 5, 1.0)

    def test_grid_must_be_integers(self):
        with pytest.raises(ConfigError, match="8.5"):
            convergence_table(shipped.model("binary_splitting"), (1.0,), (0.5,), (8.5, 16))
        rows = convergence_table(shipped.model("binary_splitting"), (1.0,), (0.5,), np.array([8, 16]))
        assert [r.t for r in rows] == [8, 16]

    @pytest.mark.parametrize("name", ["heavy_tail_life", "heavy_tail_sevastyanov"])
    def test_weight_0_rows_are_the_survival_column(self, name):
        # off the powers of 2 a DP to t alone ends on its last leaf's
        # direct dots; the rows read the column of the DP to the largest t
        model, grid = shipped.model(name), (1000, 3000, 5000)
        q = extinction_seq(model, grid[-1]).q
        rows = convergence_table(model, (1.0, 2.0), (0.0, 0.5), grid)
        assert [r.q_k.hex() for r in rows] == [float(q[t]).hex() for t in grid]

    def test_csv_output(self):
        fh = io.StringIO()
        convergence_csv(convergence_table(shipped.model("binary_splitting"), (1.0,), (0.0,), (16,)), fh)
        lines = fh.getvalue().strip().splitlines()
        assert lines[0] == "t,Q,tQ,h,abs_error"
        assert len(lines) == 2

    def test_csv_bytes_are_csv_writers(self):
        rows = convergence_table(shipped.model("heavy_tail_life"), (1.0, 2.0), (0.0, 0.5), (4, 8, 16))
        fh = io.StringIO(newline="")
        convergence_csv(rows, fh)
        want = [(r.t, r.q_k, r.tq_k, r.target, r.abs_error) for r in rows]
        assert fh.getvalue().encode() == shipped.csv_writer_bytes(["t", "Q", "tQ", "h", "abs_error"], want)

    def test_long_dots_do_not_depend_on_blas_threads(self):
        # weight 0 at t = 2^14 ends the query there: the last leaf of the DP
        # to 2^14 dots over 2^14 sources, a length that BLAS would split
        # across its threads, so the dot takes the einsum route
        assert 2**14 > series._LONG_DOT
        src = str(Path(exact_engine.__file__).resolve().parents[1])
        code = (
            "import sys; from gwolab import convergence_table, load_model; "
            "rows = convergence_table(load_model(sys.argv[1]), (1, 2), (0, 0.5), [2**14]); "
            "print(rows[0].q_k.hex())"
        )
        outs = set()
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            )
            run = subprocess.run(
                [sys.executable, "-c", code, str(shipped.path("heavy_tail_life"))],
                env=env, capture_output=True, text=True, check=True, timeout=300,
            )
            outs.add(run.stdout)
        assert len(outs) == 1, outs

    def test_cli_files_do_not_depend_on_blas_threads(self, tmp_path):
        # the float walk's sub-block dots, rank 1 and table, and the last
        # block's direct dots, at the benchmark's horizon and at 50000 (no
        # power of 2: its last block takes the direct dots, past _LONG_DOT
        # terms), and a single-leaf series DP over two segments; one
        # scipy-free interpreter per thread count, the two side by side
        src = str(Path(exact_engine.__file__).resolve().parents[1])
        runs = {
            "bh.csv": ["dp", "--model", "heavy_tail_life", "--tmax", "65536"],
            "bh50k.csv": ["dp", "--model", "heavy_tail_life", "--tmax", "50000"],
            "sev.csv": ["dp", "--model", "heavy_tail_sevastyanov", "--tmax", "65536"],
            "pmf.csv": ["fdd", "--model", "heavy_tail_life", "--times", "64,128", "--tobs", "64", "--K", "10"],
        }
        code = (
            "import json, sys; sys.modules['scipy'] = None; from gwolab.cli import main; "
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))"
        )
        procs = []
        for threads in ("1", "2"):
            (tmp_path / threads).mkdir()
            argv = [
                [*args[:2], str(shipped.path(args[2])), *args[3:], "--out", str(tmp_path / threads / name)]
                for name, args in runs.items()
            ]
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            )
            procs.append(subprocess.Popen(
                [sys.executable, "-c", code, json.dumps(argv)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            ))
        for proc in procs:
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
        for name in runs:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
