"""The benchmark's three workloads, as fixed lists of calls into gwolab.

Each operation is one call into a public gwolab function plus a check
of its output against an independent route: a closed-form limit, an
identity the exact law must satisfy, the DP's survival column for Monte
Carlo estimates, or the same result reached through another entry point.
A check returns None when the output is right and a message otherwise.

Span names double as per-layer metric names: the per-layer time of a
layer is the summed self time of the spans with that name.
"""

from __future__ import annotations

import csv
import json
import math
import os
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

import gwolab
from gwolab import FddQuery, FddSpec, LimitParams, SimConfig
from gwolab.series import TruncatedSeries, dense_mul, total_degree_mask

MODEL_DIR = os.path.join("docs", "models")
BH, HEAVY, DELAYED, TABULATED, SEV = (
    "binary_splitting",
    "heavy_tail_life",
    "delayed_death",
    "early_births",
    "age_dependent_offspring",
)
ALL_MODELS = (BH, HEAVY, DELAYED, TABULATED, SEV)

# Monte Carlo sizes.  Horizons are short and replicate counts large so
# that the work one seed draws varies little from seed to seed: the
# individuals drawn by a critical replicate up to horizon h spread like
# sqrt(h) times their mean, so a long horizon makes run time a function
# of the seed rather than of the code.
MC_HORIZON = 32
MC_REPLICATES = 4_000
CS_HORIZON = 64
CS_SURVIVORS = 200
SIGMAS = 4.0
# direct dense_mul calls per probe, by span name
DENSE_MUL_CALLS = {"series.dense_mul.k2K10": 400, "series.dense_mul.k3K6": 20}


def model_path(name: str) -> str:
    return os.path.join(MODEL_DIR, f"{name}.json")


def derive_seed(seed: int, label: str) -> int:
    """Stream seed of one Monte Carlo call, a pure function of the run seed."""
    state = np.random.SeedSequence([seed, zlib.crc32(label.encode())]).generate_state(2)
    return int(state[0]) << 31 | int(state[1]) >> 1


@dataclass
class Op:
    name: str  # span name
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    counters: Callable[[object], dict] = field(default=lambda out: {})
    all_cores: bool = False  # may use every CPU, not just the run's one


@dataclass
class CliCall:
    name: str  # span name of the in-process call
    argv: Callable[[str], list]  # output directory -> arguments of gwolab.cli.main
    check: Callable[[str], Optional[str]]  # output directory -> failure or None


@dataclass
class Workload:
    name: str
    models: tuple  # loaded and summarized in set-up
    ops: list
    cli: list


class Context:
    """Models, reference values and the outputs the CLI checks compare to."""

    def __init__(self, seed: int):
        self.seed = seed
        self.models = {n: gwolab.load_model(model_path(n)) for n in ALL_MODELS}
        self.summary = {n: gwolab.summarize(m) for n, m in self.models.items()}
        self.last: dict = {}
        self._q: dict = {}

    def q(self, name: str, t: int) -> float:
        """Q(t) from the exact DP, the reference of every Monte Carlo check."""
        if (name, t) not in self._q:
            self._q[name, t] = float(gwolab.extinction_seq(self.models[name], t).q[t])
        return self._q[name, t]

    def limit(self, name: str) -> LimitParams:
        return LimitParams(self.summary[name].c)


def _first(*messages) -> Optional[str]:
    return next((m for m in messages if m), None)


def _within_sigmas(label: str, estimate: float, reference: float, n: int) -> Optional[str]:
    sigma = math.sqrt(reference * (1.0 - reference) / n)
    if abs(estimate - reference) > SIGMAS * sigma:
        return f"{label} {estimate:.6g} is more than {SIGMAS:g} sigma from {reference:.6g} (n={n})"
    return None


def _report_failures(reports) -> list:
    return [f"{r.name}: {row.name}" for r in reports for row in r.rows if not row.passed]


def _check_reports(reports) -> Optional[str]:
    failed = _report_failures(reports)
    return f"failed rows: {failed}" if failed else None


def _count_failed_rows(reports) -> dict:
    return {"verify.checks_failed": len(_report_failures(reports))}


def _read_echo(out: str) -> Optional[str]:
    if not os.path.exists(out + ".config.json"):
        return f"no config echo next to {out}"
    return None


# ---------------------------------------------------------------------------
# exact-survival
# ---------------------------------------------------------------------------


def _check_survival(table) -> Optional[str]:
    q = table.q
    if not (np.all(q >= 0.0) and np.all(q <= 1.0)):
        return "Q(t) leaves [0, 1]"
    if np.any(np.diff(q) > 0.0):
        return "Q(t) increases"
    t, h = len(q) - 1, table.summary.h
    # the paper's asymptotics tQ(t) -> h; every model is within 0.5% at these horizons
    if abs(t * q[t] - h) > 0.01 * h:
        return f"tQ({t}) = {t * q[t]:.6g} is not within 1% of h = {h:.6g}"
    return None


def _check_convergence(rows) -> Optional[str]:
    if any(not 0.0 < r.q_k <= 1.0 for r in rows):
        return "Q_k(t) leaves (0, 1]"
    errors = [r.abs_error for r in rows]
    if any(b > a for a, b in zip(errors, errors[1:])):
        return f"|tQ_k - limit| does not decrease along the grid: {errors}"
    if errors[-1] > 0.01 * rows[-1].target:
        return f"|tQ_k - limit| = {errors[-1]:.3g} at t={rows[-1].t} exceeds 1% of the limit"
    return None


def _check_conditional_pgf(value, limit: float) -> Optional[str]:
    if not 0.0 <= value <= 1.0:
        return f"conditional pgf {value!r} leaves [0, 1]"
    # the gap to the limit law is 0.002-0.003 from t = 1024 on for both models
    if abs(value - limit) > 0.01:
        return f"conditional pgf {value:.6g} is not within 0.01 of the limit {limit:.6g}"
    return None


def exact_survival(ctx: Context) -> Workload:
    m = ctx.models

    def remember(table):
        ctx.last["dp"] = table.q[-1]
        return _check_survival(table)

    ops = []
    for name, variant, t_max in (
        (BH, "bellman_harris", 1 << 16),
        (HEAVY, "bellman_harris", 1 << 16),
        (DELAYED, "delayed_death", 1 << 16),
        (TABULATED, "tabulated", 1 << 16),
        (SEV, "sevastyanov", 1 << 14),
    ):
        ops.append(
            Op(
                f"exact_engine.extinction_seq.{variant}",
                partial(gwolab.extinction_seq, m[name], t_max),
                remember if name == HEAVY else _check_survival,  # HEAVY is the dp command's input
            )
        )
    grid = [1 << i for i in range(10, 15)]
    t = 1 << 12
    z = (0.3, 0.5)
    for name in (HEAVY, DELAYED):
        ops.append(
            Op(
                "exact_engine.convergence_table",
                partial(gwolab.convergence_table, m[name], (1.0, 2.0), (0.0, 0.5), grid),
                _check_convergence,
            )
        )
        limit = gwolab.eta_fdd_pgf(ctx.limit(name), FddQuery((1.0, 2.0), z))
        ops.append(
            Op(
                "exact_engine.conditional_pgf",
                partial(gwolab.conditional_pgf, m[name], FddSpec((t, 2 * t), z, t_obs=t)),
                partial(_check_conditional_pgf, limit=limit),
            )
        )
    for name in ALL_MODELS:
        ops.append(
            Op(
                "verify.oracle_equivalence",
                lambda model=m[name]: [gwolab.oracle_equivalence(model)],
                _check_reports,
                _count_failed_rows,
            )
        )
    # limit_convergence's Richardson step assumes power-law decay; it
    # rejects heavy_tail_life on dyadic grids from 2^8 and 2^10, so it runs
    # on the three models the verify battery also uses
    lc_grid = [1 << i for i in range(10, 14)]
    for name in (BH, TABULATED, DELAYED):
        ops.append(
            Op(
                "verify.limit_convergence",
                lambda model=m[name]: [
                    gwolab.limit_convergence(model, (1.0, 2.0), (0.25, 0.5), lc_grid)
                ],
                _check_reports,
                _count_failed_rows,
            )
        )

    def check_dp(out_dir: str) -> Optional[str]:
        out = os.path.join(out_dir, "dp.csv")
        with open(out, encoding="utf-8") as fh:
            last = fh.read().splitlines()[-1].split(",")
        if last[1] != format(ctx.last["dp"], ".17g"):
            return f"dp CSV has Q = {last[1]}, the API gave {ctx.last['dp']!r}"
        return _read_echo(out)

    cli = [
        CliCall(
            "cli.dp",
            lambda d: ["dp", "--model", model_path(HEAVY), "--tmax", "65536",
                       "--out", os.path.join(d, "dp.csv")],
            check_dp,
        )
    ]
    return Workload("exact-survival", ALL_MODELS, ops, cli)


# ---------------------------------------------------------------------------
# conditioned-pmf
# ---------------------------------------------------------------------------


def _check_conditional_pmf(pm) -> Optional[str]:
    p = pm.probs
    if p.min() < -1e-12:
        return f"conditioned pmf has a cell {p.min():.3g} < -1e-12"
    if abs(float(p.sum()) + pm.overflow - 1.0) > 1e-9:
        return "conditioned pmf cells plus overflow do not sum to 1"
    # conditioning is on survival at the first time, so Z(t_1) = 0 has no mass
    if float(np.abs(p[0]).max()) > 1e-12:
        return "conditioned pmf puts mass on Z(t_1) = 0"
    return None


def _check_tv(tvs) -> Optional[str]:
    if any(not 0.0 <= v <= 1.0 for v in tvs):
        return f"total variation leaves [0, 1]: {tvs}"
    if any(b > a + 1e-3 for a, b in zip(tvs, tvs[1:])) or tvs[-1] >= tvs[0]:
        return f"total variation to the limit does not decrease: {tvs}"
    return None


def _check_joint_limit_pmf(pm, p: LimitParams, K: int) -> Optional[str]:
    """eta is nonincreasing, so a cell (i, ...) with i <= K // k holds every
    later count; summing those cells gives the marginal at y_1, which the
    binomial formula computes by another route."""
    c = pm.coeffs
    if c.min() < 0.0:
        return "joint limit pmf has negative cells after clamping"
    if abs(float(c.sum()) + pm.finite_remainder + pm.infinite_mass - 1.0) > 1e-9:
        return "joint limit pmf does not sum to 1"
    k = c.ndim
    top = K // k
    marginal = gwolab.eta_marginal_pmf(p, pm.y[0], K).probs[: top + 1]
    summed = c.sum(axis=tuple(range(1, k)))[: top + 1]
    worst = float(np.abs(summed - marginal).max())
    if worst > 1e-9:
        return f"joint limit pmf marginal differs from eta_marginal_pmf by {worst:.3g}"
    return None


def _check_k1_limit_pmf(pm, p: LimitParams, K: int) -> Optional[str]:
    worst = float(np.abs(pm.coeffs - gwolab.eta_marginal_pmf(p, pm.y[0], K).probs).max())
    if worst > 1e-12:
        return f"eta_fdd_pmf at k=1 differs from eta_marginal_pmf by {worst:.3g}"
    return None


def _check_marginal(pm, p: LimitParams) -> Optional[str]:
    if pm.probs.min() < -1e-15:
        return "marginal limit pmf has negative cells"
    z = 0.3
    series = float(np.polynomial.polynomial.polyval(z, pm.probs))
    closed = gwolab.eta_marginal_pgf(p, pm.y, z)
    if abs(series - closed) > 1e-12:
        return f"marginal pmf at z={z} gives {series!r}, the closed-form pgf {closed!r}"
    return None


def _check_law_t(samples, law) -> Optional[str]:
    n = samples.size
    for y in (0.5, 1.0, 2.0, 4.0):
        msg = _within_sigmas(f"empirical cdf of T at {y}", float(np.mean(samples <= y)),
                             float(law.cdf(y)), n)
        if msg:
            return msg
    return None


def conditioned_pmf(ctx: Context) -> Workload:
    m = ctx.models
    K = 10

    def remember(pm):
        ctx.last["fdd"] = pm
        return _check_conditional_pmf(pm)

    def cond(name, times, K, group, check=_check_conditional_pmf):
        spec = FddSpec(times, (0.0,) * len(times), t_obs=times[0])
        return Op(
            f"exact_engine.conditional_pmf.{group}",
            partial(gwolab.conditional_pmf, m[name], spec, K),
            check,
        )

    ops = []

    ops += [cond(HEAVY, (2048,), K, "k1"), cond(DELAYED, (2048,), K, "k1"),
            cond(SEV, (512,), K, "sevastyanov")]
    ops += [cond(HEAVY, (64, 128), K, "k2"), cond(DELAYED, (64, 128), K, "k2", remember),  # the fdd command's input
            cond(SEV, (48, 96), K, "sevastyanov")]
    ops.append(cond(DELAYED, (8, 12, 16), 6, "k3"))

    for name in (HEAVY, DELAYED):
        c = ctx.summary[name].c
        ops.append(
            Op(
                "verify.tv_to_limit",
                lambda model=m[name], c=c: [
                    gwolab.tv_to_limit(model, (1.0,), t, K, c) for t in (128, 256, 512)
                ],
                _check_tv,
            )
        )

    p = ctx.limit(DELAYED)
    clamped = lambda pm: {"limitlaw.clamped": pm.clamped}  # noqa: E731
    for y, K_joint, group in (((0.5, 1.5), 20, "k2"), ((0.5, 1.0, 2.0), 20, "k3")):
        q = FddQuery(y, (0.0,) * len(y))
        ops.append(
            Op(
                f"limitlaw.eta_fdd_pmf.{group}",
                partial(gwolab.eta_fdd_pmf, p, q, K_joint),
                partial(_check_joint_limit_pmf, p=p, K=K_joint),
                clamped,
            )
        )
    for y in (0.5, 1.5):
        ops.append(
            Op(
                "limitlaw.eta_fdd_pmf.k1",
                partial(gwolab.eta_fdd_pmf, p, FddQuery((y,), (0.0,)), 40),
                partial(_check_k1_limit_pmf, p=p, K=40),
                clamped,
            )
        )
        ops.append(
            Op(
                "limitlaw.eta_marginal_pmf",
                partial(gwolab.eta_marginal_pmf, p, y, 40),
                partial(_check_marginal, p=p),
            )
        )
    law = gwolab.law_T(p)
    t_seed = derive_seed(ctx.seed, "law_T")
    ops.append(
        Op(
            "limitlaw.law_T.sample",
            lambda: law.sample(np.random.default_rng(t_seed), 500_000),
            partial(_check_law_t, law=law),
        )
    )

    def check_fdd(out_dir: str) -> Optional[str]:
        out = os.path.join(out_dir, "fdd.csv")
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        expect = format(ctx.last["fdd"].overflow, ".17g")
        if rows[-1][-1] != expect:
            return f"fdd CSV has overflow {rows[-1][-1]}, the API gave {expect}"
        return _read_echo(out)

    cli = [
        CliCall(
            "cli.fdd",
            lambda d: ["fdd", "--model", model_path(DELAYED), "--times", "64,128",
                       "--tobs", "64", "--K", "10", "--out", os.path.join(d, "fdd.csv")],
            check_fdd,
        )
    ]
    return Workload("conditioned-pmf", (HEAVY, DELAYED, SEV), ops, cli)


# ---------------------------------------------------------------------------
# monte-carlo
# ---------------------------------------------------------------------------


def _check_simulate(res, q_ref: float) -> Optional[str]:
    s = res.survival_summary()
    if s["overflowed"]:
        return f"{s['overflowed']} replicates overflowed"
    return _within_sigmas(f"MC Q({res.horizon})", s["estimate"], q_ref, s["replicates"])


def _simulate_counters(res) -> dict:
    return {"simulator.overflowed": int(res.overflowed.sum()),
            "simulator.replicates": int(res.counts.shape[0])}


def _check_conditional_sample(res, q_ref: float, target: int) -> Optional[str]:
    survivors = int(res.survived.sum())
    return _first(
        survivors != target and f"{survivors} survivors, wanted {target}",
        bool(res.overflowed.any()) and "overflowed survivors were kept",
        _within_sigmas(f"survivors/attempts at {res.horizon}", survivors / res.attempts,
                       q_ref, res.attempts),
    )


def _check_dichotomy(stats, q_ref: float, replicates: int) -> Optional[str]:
    return _first(
        abs(stats.small_fraction + stats.large_fraction - 1.0) > 1e-12
        and "small and large fractions do not sum to 1",
        stats.cutoff != math.ceil(math.sqrt(stats.horizon)) and "wrong default cutoff",
        _within_sigmas(f"survivor share at {stats.horizon}", stats.survivors / replicates,
                       q_ref, replicates),
    )


def monte_carlo(ctx: Context) -> Workload:
    m = ctx.models
    h, R = MC_HORIZON, MC_REPLICATES
    seeds = {label: derive_seed(ctx.seed, label) for label in ("bh", "heavy", "delayed", "cs", "dich")}

    def remember(res):
        ctx.last["simulate"] = res
        return _check_simulate(res, ctx.q(DELAYED, h))

    def same_as_one_thread(res):
        one = ctx.last["simulate"]
        if not all(np.array_equal(getattr(res, a), getattr(one, a))
                   for a in ("counts", "survived", "overflowed")):
            return "threads=2 result differs from threads=1"
        return None

    def sim(label, name, span, query, threads=1, check=None):
        cfg = SimConfig(m[name], h, query, R, seeds[label])
        return Op(
            span,
            partial(gwolab.simulate, cfg, threads=threads),
            check or partial(_check_simulate, q_ref=ctx.q(name, h)),
            _simulate_counters,
            all_cores=threads > 1,
        )

    ops = [
        sim("bh", BH, f"simulator.simulate.bellman_harris_h{h}", (h,)),
        sim("heavy", HEAVY, f"simulator.simulate.heavy_h{h}", (h,)),
        # the same delayed-death call twice, the simulate command's input
        sim("delayed", DELAYED, f"simulator.simulate.delayed_h{h}", (h // 4, h), check=remember),
        sim("delayed", DELAYED, f"simulator.simulate.delayed_h{h}_threads2", (h // 4, h),
            threads=2, check=same_as_one_thread),
    ]

    cs_cfg = SimConfig(m[DELAYED], CS_HORIZON, (CS_HORIZON // 4, CS_HORIZON), 1, seeds["cs"])
    ops.append(
        Op(
            "simulator.conditional_sample",
            partial(gwolab.conditional_sample, cs_cfg, CS_SURVIVORS),
            partial(_check_conditional_sample, q_ref=ctx.q(DELAYED, CS_HORIZON), target=CS_SURVIVORS),
            lambda res: {"simulator.overflowed": int(res.overflowed.sum()),
                         "simulator.attempts": int(res.attempts),
                         "simulator.survivors": int(res.survived.sum())},
        )
    )
    dich_cfg = SimConfig(m[DELAYED], h, (), R, seeds["dich"])
    ops.append(
        Op(
            "simulator.dichotomy_stats",
            partial(gwolab.dichotomy_stats, dich_cfg),
            partial(_check_dichotomy, q_ref=ctx.q(DELAYED, h), replicates=R),
        )
    )
    ops.append(Op("verify.run_battery", gwolab.run_battery, _check_reports, _count_failed_rows))

    def check_simulate(out_dir: str) -> Optional[str]:
        out = os.path.join(out_dir, "simulate.json")
        with open(out, encoding="utf-8") as fh:
            got = json.load(fh)["survival"]
        want = ctx.last["simulate"].survival_summary()
        if (got["survivors"], got["replicates"]) != (want["survivors"], want["replicates"]):
            return f"simulate CLI gave {got['survivors']}/{got['replicates']} survivors, " \
                   f"the API {want['survivors']}/{want['replicates']}"
        return _read_echo(out)

    def check_verify(out_dir: str) -> Optional[str]:
        out = os.path.join(out_dir, "verify.json")
        with open(out, encoding="utf-8") as fh:
            if not json.load(fh)["all_passed"]:
                return "verify CLI reports failed checks"
        return _read_echo(out)

    cli = [
        CliCall(
            "cli.simulate",
            lambda d: ["simulate", "--model", model_path(DELAYED), "--tmax", str(h),
                       "--times", f"{h // 4},{h}", "--replicates", str(R),
                       "--seed", str(seeds["delayed"]), "--format", "json",
                       "--out", os.path.join(d, "simulate.json")],
            check_simulate,
        ),
        CliCall("cli.verify", lambda d: ["verify", "--out", os.path.join(d, "verify.json")],
                check_verify),
    ]
    return Workload("monte-carlo", (BH, HEAVY, DELAYED), ops, cli)


WORKLOADS = {
    "exact-survival": exact_survival,
    "conditioned-pmf": conditioned_pmf,
    "monte-carlo": monte_carlo,
}


# ---------------------------------------------------------------------------
# single-layer probes, run only in the traced run
# ---------------------------------------------------------------------------


def _naive_truncated_product(a, b, cap: int) -> np.ndarray:
    out = np.zeros_like(a)
    for i in zip(*np.nonzero(a)):
        for j in zip(*np.nonzero(b)):
            k = tuple(x + y for x, y in zip(i, j))
            if sum(k) <= cap:
                out[k] += a[i] * b[j]
    return out


def _dense_mul_probe(a, b, cap: int, calls: int):
    for _ in range(calls):
        out = dense_mul(a, b, cap)
    return out


def _check_dense_mul(out, a, b, cap: int) -> Optional[str]:
    worst = float(np.abs(out - _naive_truncated_product(a, b, cap)).max())
    return f"dense_mul differs from the naive product by {worst:.3g}" if worst > 1e-12 else None


def _check_sqrt(root, s) -> Optional[str]:
    worst = float(np.abs((root * root).to_dense_array() - s.to_dense_array()).max())
    return f"sqrt(s)^2 differs from s by {worst:.3g}" if worst > 1e-10 else None


def _draw_all(model, u):
    """Life and offspring (or schedule and residual) draws, one per uniform each."""
    if isinstance(model, gwolab.BellmanHarris):
        life, off = model.life.sample_from_uniform, model.offspring.sample_from_uniform
    else:
        life, off = model.residual.sample_from_uniform, model.sample_schedule_from_uniform
    return [life(x) for x in u], [off(x) for x in u]


def _check_draws(draws, model, n: int) -> Optional[str]:
    lives, offspring = draws
    if isinstance(model, gwolab.BellmanHarris):
        # heavy_tail_life: P(N = 4) = 0.25 and P(L > 4) = d / 16
        return _first(
            _within_sigmas("share of N = 4", offspring.count(4) / n, 0.25, n),
            _within_sigmas("share of L > 4", sum(1 for v in lives if v > 4) / n,
                           model.life.survival(4), n),
        )
    empty = sum(1 for _, ages in offspring if not ages) / n
    p_empty = sum(p for p, ages in model.schedules if not ages)
    return _within_sigmas("share of empty schedules", empty, p_empty, n)


def layer_probes(ctx: Context) -> list:
    rng = np.random.default_rng(derive_seed(ctx.seed, "probes"))
    ops = []
    for (k, cap), calls in zip(((2, 10), (3, 6)), DENSE_MUL_CALLS.values()):
        a, b = (rng.random((cap + 1,) * k) for _ in range(2))
        ops.append(
            Op(
                f"series.dense_mul.k{k}K{cap}",
                partial(_dense_mul_probe, a, b, cap, calls),
                partial(_check_dense_mul, a=a, b=b, cap=cap),
            )
        )
    coeffs = 0.1 * rng.random((41, 41))
    coeffs[0, 0] = 1.0
    s = TruncatedSeries(2, 40, np.where(total_degree_mask(2, 40), coeffs, 0.0))
    ops.append(Op("series.sqrt", s.sqrt, partial(_check_sqrt, s=s)))
    n = 100_000
    u = rng.random(n)
    for name in (HEAVY, DELAYED):
        ops.append(
            Op(
                "lifelaw.sample_from_uniform",
                partial(_draw_all, ctx.models[name], u),
                partial(_check_draws, model=ctx.models[name], n=n),
                lambda out: {"lifelaw.draws": 2 * len(out[0])},
            )
        )
    return ops

