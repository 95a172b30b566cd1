"""End-to-end acceptance runs.

One test per acceptance item, each printing a single verdict line with
the measured statistic, its tolerance, and the runtime.  The checks
combine exact oracles at small horizons with trend-plus-extrapolation
convergence at large ones, limit-law identities, Monte Carlo
consistency, and sampler goodness of fit.
"""

import math
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import scipy.stats
from scipy.integrate import quad

from gwolab.exact_engine import (
    FddSpec,
    conditional_pmf,
    convergence_table,
    extinction_seq,
    weighted_survival_limit,
)
from gwolab.lifelaw import (
    BellmanHarris,
    DelayedDeath,
    FiniteLife,
    OffspringPMF,
    QuadraticTailLife,
    Tabulated,
    compound_params,
    summarize,
)
from gwolab.limitlaw import (
    FddQuery,
    LimitParams,
    eta_fdd_pmf,
    eta_marginal_pmf,
    law_T,
    law_T0,
)
from gwolab.simulator import SimConfig, dichotomy_stats, simulate
from gwolab.verify import oracle_equivalence, richardson, tv_to_limit


def gw_binary():
    return BellmanHarris(FiniteLife({1: 1.0}), OffspringPMF([0.5, 0.0, 0.5]))


def bh_geometric():
    # p_n proportional to 2^-n for n = 1..8, scaled for mean exactly 1
    alpha = Fraction(128, 251)
    probs = [0.0] * 9
    for n in range(1, 9):
        probs[n] = float(alpha * Fraction(1, 2**n))
    probs[0] = 1.0 - sum(probs[1:])
    return BellmanHarris(FiniteLife({1: 0.5, 2: 0.5}), OffspringPMF(probs))


def tabulated_early():
    return Tabulated([(0.5, (1, 2), 3), (0.5, (), 2)])


def bh_heavy():
    return BellmanHarris(
        QuadraticTailLife(d=1.0, t_min=2), OffspringPMF([0.75, 0.0, 0.0, 0.0, 0.25])
    )


def delayed_c1():
    return DelayedDeath([(0.5, (1, 2)), (0.5, ())], QuadraticTailLife(d=1.125, t_min=2))


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)


def test_01_exact_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    reports = []
    for model in (gw_binary(), bh_geometric(), tabulated_early()):
        rep = oracle_equivalence(model, t_small=6)
        reports.append(rep)
        worst = max(worst, max(row.statistic for row in rep.rows))
    elapsed = time.perf_counter() - start
    ok = all(r.all_passed for r in reports) and elapsed < 10.0
    _verdict(1, ok, f"dp vs enumeration, worst dev {worst:.3g} (tol 1e-12) in {elapsed:.1f}s")
    assert all(r.all_passed for r in reports)
    assert elapsed < 10.0


def test_02_survival_asymptotics_light_tail():
    start = time.perf_counter()
    table = extinction_seq(gw_binary(), 2**14)
    grid = [2**k for k in range(10, 15)]
    tq = [t * table.q[t] for t in grid]
    errs = [abs(v - 2.0) for v in tq]
    decreasing = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    extrap = richardson(*tq[-3:])
    rel = abs(extrap - 2.0) / 2.0
    elapsed = time.perf_counter() - start
    ok = decreasing and rel <= 0.01 and elapsed < 60.0
    _verdict(
        2,
        ok,
        f"tQ -> 2: errors {['%.2e' % e for e in errs]} decreasing={decreasing}, "
        f"extrapolated {extrap:.5f} (rel {rel:.2%}, tol 1%) in {elapsed:.1f}s",
    )
    assert decreasing
    assert rel <= 0.01
    assert elapsed < 60.0


def test_03_survival_asymptotics_heavy_tail():
    start = time.perf_counter()
    rels = {}
    for model in (bh_heavy(), delayed_c1()):
        s = summarize(model)
        table = extinction_seq(model, 2**14)
        grid = [2**k for k in range(10, 15)]
        tq = [t * table.q[t] for t in grid]
        errs = [abs(v - s.h) for v in tq]
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        rels[type(model).__name__] = abs(richardson(*tq[-3:]) - s.h) / s.h

    rng = np.random.default_rng(91)
    worst_id = 0.0
    for _ in range(100):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)
        d = rng.uniform(0.0, 2.0)
        h, _ = compound_params(a, b, d)
        worst_id = max(worst_id, abs(b * h * h - a * h - d))
        g = rng.uniform(0.0, 1.0)
        h_k = weighted_survival_limit(SimpleNamespace(a=a, b=b, d=d), g)
        worst_id = max(worst_id, abs(b * h_k * h_k - a * h_k - d * g))
    elapsed = time.perf_counter() - start
    ok = all(r <= 0.02 for r in rels.values()) and worst_id <= 1e-12
    shown = ", ".join(f"{k} {v:.2%}" for k, v in rels.items())
    _verdict(
        3,
        ok,
        f"tQ -> h with tails: rel errors {shown} (tol 2%), "
        f"quadratic identity worst {worst_id:.2e} (tol 1e-12) in {elapsed:.1f}s",
    )
    for name, rel in rels.items():
        assert rel <= 0.02, name
    assert worst_id <= 1e-12


def test_04_weighted_survival_convergence():
    start = time.perf_counter()
    y, z = (1.0, 2.0), (0.0, 0.5)
    results = {}
    for model in (bh_heavy(), delayed_c1()):
        rows = convergence_table(model, y, z, [2**k for k in range(10, 15)])
        errs = [r.abs_error for r in rows]
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1)), errs
        extrap = richardson(*[r.tq_k for r in rows[-3:]])
        results[type(model).__name__] = abs(extrap - rows[0].target) / rows[0].target
    elapsed = time.perf_counter() - start
    ok = all(r <= 0.02 for r in results.values()) and elapsed < 120.0
    shown = ", ".join(f"{k} {v:.2%}" for k, v in results.items())
    _verdict(
        4,
        ok,
        f"tQ_k -> h_k at k=2: rel errors {shown} (tol 2%) in {elapsed:.1f}s",
    )
    for name, rel in results.items():
        assert rel <= 0.02, name
    assert elapsed < 120.0


def test_05_limit_law_identities():
    start = time.perf_counter()
    worst_cont = worst_jump = worst_pmf0 = worst_series = 0.0
    worst_mass = 0.0
    for c in (1.0, 5.0, 15.0):
        p = LimitParams(c)
        law = law_T(p)
        A = p.scale
        left = (math.sqrt(1.0 + c) - 1.0) / A
        right = 1.0 - 2.0 / A
        worst_cont = max(worst_cont, abs(left - right))
        worst_jump = max(worst_jump, abs(law.density_jump() - 1.0 / math.sqrt(1.0 + c)))
        head, _ = quad(law.pdf, 0.0, 1.0)
        tail, _ = quad(law.pdf, 1.0, np.inf)
        worst_mass = max(worst_mass, abs(head + tail - 1.0))
        for y in (1.0, 1.5, 2.0, 4.0):
            worst_pmf0 = max(
                worst_pmf0, abs(eta_marginal_pmf(p, y, 4).probs[0] - (y - 1.0) / y)
            )
        for y in (0.5, 1.0, 2.0):
            closed = eta_marginal_pmf(p, y, 20).probs
            series = eta_fdd_pmf(p, FddQuery((y,), (0.0,)), 20).coeffs
            worst_series = max(worst_series, float(np.abs(closed - series).max()))
    elapsed = time.perf_counter() - start
    ok = (
        worst_cont <= 1e-12
        and worst_mass <= 1e-8
        and worst_jump <= 1e-12
        and worst_pmf0 <= 1e-12
        and worst_series <= 1e-12
        and elapsed < 1.0
    )
    _verdict(
        5,
        ok,
        f"internal identities: continuity {worst_cont:.1e}, mass {worst_mass:.1e}, "
        f"jump {worst_jump:.1e}, pmf(0) {worst_pmf0:.1e}, series {worst_series:.1e} in {elapsed:.2f}s",
    )
    assert worst_cont <= 1e-12
    assert worst_mass <= 1e-8
    assert worst_jump <= 1e-12
    assert worst_pmf0 <= 1e-12
    assert worst_series <= 1e-12
    assert elapsed < 1.0


def test_06_pure_death_monotone_support():
    start = time.perf_counter()
    worst = 0.0
    for c in (1.0, 5.0, 15.0):
        for y in ((1.0, 2.0), (0.75, 1.5)):
            pm = eta_fdd_pmf(LimitParams(c), FddQuery(y, (0.0, 0.0)), 12)
            i1, i2 = np.indices(pm.coeffs.shape)
            bad = pm.coeffs[i2 > i1]
            worst = max(worst, float(np.abs(bad).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    _verdict(
        6,
        ok,
        f"counts never increase in the limit: worst forbidden mass {worst:.2e} "
        f"(tol 1e-10) in {elapsed:.1f}s",
    )
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_07_conditioned_law_converges_to_limit():
    start = time.perf_counter()
    grid = (256, 512, 1024, 2048)
    tvs = {}
    for model in (bh_heavy(), delayed_c1()):
        c = summarize(model).c
        assert c > 0.0
        seq = [tv_to_limit(model, (1.0,), t, 10, c) for t in grid]
        assert all(seq[i + 1] < seq[i] + 1e-3 for i in range(len(seq) - 1)), seq
        tvs[type(model).__name__] = seq
    elapsed = time.perf_counter() - start
    ok = elapsed < 300.0
    detail = ", ".join(f"{k}: {['%.3f' % v for v in s]}" for k, s in tvs.items())
    _verdict(7, ok, f"tv to limit decreasing over {grid}: {detail} in {elapsed:.1f}s")
    assert elapsed < 300.0


def test_08_monte_carlo_consistency():
    start = time.perf_counter()
    model = gw_binary()
    horizon = 512
    reps = 100_000
    cfg = SimConfig(
        model=model, horizon=horizon, query_times=(64, horizon), replicates=reps, seed=31415
    )
    res = simulate(cfg, threads=8)

    q_exact = extinction_seq(model, horizon).q[horizon]
    s = res.survival_summary()
    sigma = math.sqrt(q_exact * (1.0 - q_exact) / reps)
    surv_dev = abs(s["estimate"] - q_exact) / sigma

    exact = conditional_pmf(model, FddSpec((64,), (0.0,), t_obs=64), K=10)
    z64 = res.counts[res.ok][:, 0]
    kept = z64[z64 > 0]
    n = kept.size
    observed = np.bincount(np.minimum(kept, 11), minlength=12)[:12] / n
    reference = np.append(exact.probs, exact.overflow)
    p_safe = np.maximum(reference, 5.0 / n)
    pmf_dev = float(np.max(np.abs(observed - reference) / np.sqrt(p_safe * (1 - p_safe) / n)))

    small = SimConfig(
        model=model, horizon=128, query_times=(128,), replicates=20_000, seed=99
    )
    one = simulate(small, threads=1)
    eight = simulate(small, threads=8)
    identical = bool(
        np.array_equal(one.counts, eight.counts)
        and np.array_equal(one.survived, eight.survived)
        and np.array_equal(one.overflowed, eight.overflowed)
    )
    elapsed = time.perf_counter() - start
    ok = surv_dev <= 3.0 and pmf_dev <= 3.0 and identical and elapsed < 300.0
    _verdict(
        8,
        ok,
        f"monte carlo at t={horizon}, {reps} replicates: survival {surv_dev:.2f} sigma, "
        f"conditioned pmf worst {pmf_dev:.2f} sigma (tol 3), threads 1 vs 8 identical={identical} "
        f"in {elapsed:.0f}s",
    )
    assert surv_dev <= 3.0
    assert pmf_dev <= 3.0
    assert identical
    assert elapsed < 300.0


def test_09_survivor_dichotomy_trend():
    start = time.perf_counter()
    model = delayed_c1()
    limit = None
    errs = []
    for t, reps in ((64, 30_000), (128, 60_000), (256, 120_000)):
        st = dichotomy_stats(
            SimConfig(model=model, horizon=t, query_times=(t,), replicates=reps, seed=2718)
        )
        limit = st.reference_limit
        errs.append(abs(st.small_fraction - limit))
    trend = all(errs[i + 1] <= errs[i] + 0.02 for i in range(len(errs) - 1))
    elapsed = time.perf_counter() - start
    ok = trend
    _verdict(
        9,
        ok,
        f"small-count survivor fraction -> {limit:.4f}: errors {['%.3f' % e for e in errs]} "
        f"(slack 0.02) in {elapsed:.0f}s",
    )
    assert trend


def test_10_hitting_time_sampler_fit():
    start = time.perf_counter()
    n = 1_000_000
    threshold = scipy.stats.kstwobign.ppf(0.99) / math.sqrt(n)
    worst = 0.0
    for c in (1.0, 5.0, 15.0):
        law = law_T(LimitParams(c))
        rng = np.random.default_rng(4242 + int(c))
        stat = scipy.stats.kstest(law.sample(rng, n), law.cdf).statistic
        worst = max(worst, stat)
    law0 = law_T0()
    stat0 = scipy.stats.kstest(law0.sample(np.random.default_rng(7), n), law0.cdf).statistic
    worst = max(worst, stat0)
    elapsed = time.perf_counter() - start
    ok = worst <= threshold
    _verdict(
        10,
        ok,
        f"hitting-time samplers, 1e6 draws: worst KS {worst:.5f} "
        f"(99% band {threshold:.5f}) in {elapsed:.0f}s",
    )
    assert worst <= threshold
