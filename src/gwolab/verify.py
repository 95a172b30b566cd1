"""Cross-validation harness.

Three independent check families tie the stack together: an exhaustive
enumeration oracle against the dynamic program at small horizons, trend
plus extrapolation checks of the survival asymptotics against their
closed-form targets, and total-variation convergence of conditioned
finite-time laws toward the limit process, with a Monte Carlo
cross-check.  Every row records statistic, reference, tolerance, the
pass flag, how the reference was produced, and the runtime, so a report
is auditable without re-running it.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, OracleBlowup
from .exact_engine import (
    FddSpec,
    conditional_pmf,
    convergence_table,
    extinction_seq,
    fdd_pgf,
    scaled_times,
)
from .lifelaw import (
    BellmanHarris,
    DelayedDeath,
    LifeLaw,
    Sevastyanov,
    Tabulated,
    summarize,
)
from .limitlaw import FddQuery, LimitParams, eta_fdd_pmf
from .simulator import SimConfig, simulate

_FAR_FUTURE = 10**9
_TREND_SLACK = 1e-3
_LIMIT_REL_TOL = 0.02  # limit_convergence: extrapolation against its target
_BURN_IN = 1  # limit_convergence: leading grid points left out of the trends


@dataclass(frozen=True)
class CheckRow:
    name: str
    statistic: float
    reference: float
    tolerance: float
    passed: bool
    source: str  # how the reference value was obtained
    runtime: float


@dataclass
class RunReport:
    name: str
    rows: list

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "all_passed": self.all_passed,
            "rows": [asdict(r) for r in self.rows],
        }


def report_json(reports, fh) -> None:
    payload = {
        "all_passed": all(r.all_passed for r in reports),
        "reports": [r.as_dict() for r in reports],
    }
    json.dump(payload, fh, indent=2)
    fh.write("\n")


def _abs_row(name, statistic, reference, tolerance, source, runtime) -> CheckRow:
    return CheckRow(
        name=name,
        statistic=float(statistic),
        reference=float(reference),
        tolerance=float(tolerance),
        passed=bool(abs(statistic - reference) <= tolerance),
        source=source,
        runtime=runtime,
    )


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------


def _bounded_atoms(model: LifeLaw, span: int) -> list:
    """Finite (prob, ages, life) decomposition exact up to time span.

    Lives beyond span are collapsed into one long-lived childless atom:
    such an individual's children are born after every query time, so
    dropping them changes nothing observable by span.
    """
    if isinstance(model, Tabulated):
        return list(model.atoms)
    atoms = []
    if isinstance(model, (BellmanHarris, Sevastyanov)):
        pmf = model.life.pmf_array(span)
        for l in range(1, span + 1):
            if pmf[l] == 0.0:
                continue
            off = (
                model.offspring if isinstance(model, BellmanHarris) else model.offspring_by_life(l)
            )
            for n, pn in enumerate(off.probs):
                if pn > 0.0:
                    atoms.append((pmf[l] * pn, (l,) * n, l))
        tail = model.life.survival(span)
        if tail > 0.0:
            atoms.append((tail, (), _FAR_FUTURE))
        return atoms
    if isinstance(model, DelayedDeath):
        res_pmf = model.residual.pmf_array(span)
        for p, ages in model.schedules:
            last = ages[-1] if ages else 0
            for r in range(1, span + 1):
                if res_pmf[r] > 0.0:
                    atoms.append((p * res_pmf[r], ages, last + r))
            tail = model.residual.survival(span)
            if tail > 0.0:
                atoms.append((p * tail, ages, _FAR_FUTURE))
        return atoms
    raise ConfigError(f"no enumeration rule for {type(model).__name__}")


def _convolve(a: dict, b: dict, budget: int, saturate: Optional[int]) -> dict:
    out: dict = {}
    for va, pa in a.items():
        for vb, pb in b.items():
            key = tuple(x + y for x, y in zip(va, vb))
            if saturate is not None:
                key = tuple(min(x, saturate) for x in key)
            out[key] = out.get(key, 0.0) + pa * pb
            if len(out) > budget:
                raise OracleBlowup(f"joint support exceeded {budget} vectors")
    return out


def enumerate_joint(
    model: LifeLaw, times, budget: int = 500_000, saturate: Optional[int] = None
) -> dict:
    """Exact joint law of the counts at the given times as a dict mapping
    count vectors to probabilities, by probability-weighted expansion of
    the full outcome tree (children of one birth time are exchangeable,
    so the tree collapses to one distribution per birth time).

    With saturate = S, coordinates are clamped at S, which lumps the
    event "count >= S" without any approximation below it: addition is
    monotone, so a clamped coordinate can never fall back under S.  This
    keeps the support polynomial for wide offspring laws while cells
    with every coordinate < S stay exact.
    """
    times = tuple(int(t) for t in times)
    if not times or any(t < 0 for t in times):
        raise ConfigError("times must be nonnegative")
    if saturate is not None and saturate < 1:
        raise ConfigError("saturate must be >= 1")
    maxq = times[-1]
    atoms = _bounded_atoms(model, maxq)
    memo: dict = {}

    def dist(beta: int) -> dict:
        cached = memo.get(beta)
        if cached is not None:
            return cached
        out: dict = {}
        for p, ages, life in atoms:
            own = tuple(1 if beta <= t < beta + life else 0 for t in times)
            d = {own: p}
            for a in ages:
                b = beta + a
                if b > maxq:
                    continue
                d = _convolve(d, dist(b), budget, saturate)
            for v, pv in d.items():
                out[v] = out.get(v, 0.0) + pv
        if len(out) > budget:
            raise OracleBlowup(f"joint support exceeded {budget} vectors")
        memo[beta] = out
        return out

    return dist(0)


def tree_pgf(model: LifeLaw, times, z) -> float:
    """E(z_1^{Z(t_1)} ... z_k^{Z(t_k)}) by direct recursion over birth
    times on the outcome tree; independent of the engine's single-axis
    formulation, so it cross-checks the segment bookkeeping there."""
    times = tuple(int(t) for t in times)
    maxq = times[-1]
    atoms = _bounded_atoms(model, maxq)
    memo: dict = {}

    def rec(beta: int) -> float:
        cached = memo.get(beta)
        if cached is not None:
            return cached
        total = 0.0
        for p, ages, life in atoms:
            val = p
            for t, w in zip(times, z):
                if beta <= t < beta + life:
                    val *= w
            for a in ages:
                if beta + a <= maxq:
                    val *= rec(beta + a)
            total += val
        memo[beta] = total
        return total

    return rec(0)


def oracle_equivalence(model: LifeLaw, t_small: int = 6, budget: int = 500_000) -> RunReport:
    """Dynamic program vs exhaustive enumeration at small horizons.

    The extinction column and the conditioned joint pmf come from the
    enumeration (saturated high enough that every compared cell is
    exact); the joint pgf is cross-checked against the independent tree
    recursion, which tolerates wide offspring laws where the raw joint
    support would be astronomically large.
    """
    if t_small < 1 or t_small > 6:
        raise ConfigError("t_small must be in 1..6")
    tol = 1e-12
    K = 8
    rows = []

    start = time.perf_counter()
    table = extinction_seq(model, t_small)
    worst = 0.0
    for t in range(1, t_small + 1):
        column = enumerate_joint(model, (t,), budget, saturate=1)
        dead = column.get((0,), 0.0)
        worst = max(worst, abs(dead - (1.0 - table.q[t])))
    rows.append(
        _abs_row(
            "extinction profile vs enumeration",
            worst, 0.0, tol, "exhaustive enumeration", time.perf_counter() - start,
        )
    )

    t1 = max(1, t_small // 2)
    times = (t1, t_small) if t1 < t_small else (t_small,)

    start = time.perf_counter()
    worst = 0.0
    z_grid = [(0.0,), (0.35,), (0.8,)] if len(times) == 1 else [
        (0.0, 0.0), (0.35, 0.7), (0.7, 0.35), (0.5, 0.5), (0.9, 0.15),
    ]
    for z in z_grid:
        worst = max(worst, abs(fdd_pgf(model, FddSpec(times, z)) - tree_pgf(model, times, z)))
    rows.append(
        _abs_row(
            "joint pgf vs tree recursion",
            worst, 0.0, tol, "memoized tree recursion", time.perf_counter() - start,
        )
    )

    start = time.perf_counter()
    # every cell with total count <= K has all coordinates < K + 1, so
    # saturating at K + 1 leaves the compared cells exact
    pair = enumerate_joint(model, times, budget, saturate=K + 1)
    cond = conditional_pmf(model, FddSpec(times, (0.0,) * len(times), t_obs=t_small), K)
    last = len(times) - 1
    q_or = sum(p for v, p in pair.items() if v[last] > 0)
    oracle = np.zeros((K + 1,) * len(times))
    over = 0.0
    for v, p in pair.items():
        if v[last] == 0:
            continue
        if sum(v) <= K:
            oracle[v] += p / q_or
        else:
            over += p / q_or
    worst = max(float(np.abs(oracle - cond.probs).max()), abs(over - cond.overflow))
    rows.append(
        _abs_row(
            "conditional pmf vs enumeration",
            worst, 0.0, tol, "exhaustive enumeration", time.perf_counter() - start,
        )
    )
    return RunReport(name=f"oracle_equivalence[{type(model).__name__}, t<={t_small}]", rows=rows)


# ---------------------------------------------------------------------------
# survival asymptotics
# ---------------------------------------------------------------------------


def _check_dyadic(t_grid) -> tuple:
    t_grid = tuple(int(t) for t in t_grid)
    if len(t_grid) < 3:
        raise ConfigError("need at least three grid points")
    if t_grid[0] < 1 or any(t_grid[i + 1] != 2 * t_grid[i] for i in range(len(t_grid) - 1)):
        raise ConfigError(f"grid {t_grid} must be dyadic (each point twice the previous)")
    return t_grid


def richardson(x1: float, x2: float, x3: float) -> float:
    """Extrapolated limit from values at t, 2t, 4t, fitting the decay
    order from the data; falls back to the last value when the three
    points do not decay cleanly."""
    num = x2 - x3
    if num == 0.0:
        return x3
    r = (x1 - x2) / num
    if not r > 1.0:
        return x3
    return x3 - num / (r - 1.0)


def _trend_row(name, errors, runtime) -> CheckRow:
    worst = max(errors[i + 1] - errors[i] for i in range(len(errors) - 1))
    return CheckRow(
        name=name,
        statistic=float(worst),
        reference=0.0,
        tolerance=_TREND_SLACK,
        passed=bool(worst <= _TREND_SLACK),
        source="adjacent error differences",
        runtime=runtime,
    )


def limit_convergence(model: LifeLaw, y, z, t_grid) -> RunReport:
    """tQ(t) and its weighted variant against their closed-form limits:
    the error must decrease along a dyadic grid, and the extrapolated
    value must land within _LIMIT_REL_TOL of the target."""
    t_grid = _check_dyadic(t_grid)
    summary = summarize(model)
    if not summary.critical:
        raise ConfigError("model must be critical")
    if not summary.a_finite:
        raise ConfigError("model needs a finite mean birth-age sum")
    rows = []

    start = time.perf_counter()
    table = extinction_seq(model, t_grid[-1])
    tq = [t * table.q[t] for t in t_grid]
    h = summary.h
    errs = [abs(v - h) for v in tq[_BURN_IN:]]
    dt = time.perf_counter() - start
    rows.append(_trend_row("tQ error trend", errs, dt))
    rows.append(
        _abs_row(
            "tQ extrapolation", richardson(*tq[-3:]), h, _LIMIT_REL_TOL * abs(h), "closed-form limit", dt
        )
    )

    start = time.perf_counter()
    conv = convergence_table(model, y, z, t_grid)
    h_k = conv[0].target
    errs_k = [r.abs_error for r in conv[_BURN_IN:]]
    dt = time.perf_counter() - start
    rows.append(_trend_row("weighted tQ error trend", errs_k, dt))
    rows.append(
        _abs_row(
            "weighted tQ extrapolation",
            richardson(*[r.tq_k for r in conv[-3:]]),
            h_k,
            _LIMIT_REL_TOL * abs(h_k),
            "closed-form limit",
            dt,
        )
    )

    start = time.perf_counter()
    ratios = [conv[i].q_k / table.q[t] for i, t in enumerate(t_grid)]
    rows.append(
        _abs_row(
            "survival ratio extrapolation",
            richardson(*ratios[-3:]),
            h_k / h,
            _LIMIT_REL_TOL * abs(h_k / h),
            "closed-form limit",
            time.perf_counter() - start,
        )
    )
    return RunReport(name=f"limit_convergence[{type(model).__name__}]", rows=rows)


# ---------------------------------------------------------------------------
# limit-law convergence of conditioned finite-time pmfs
# ---------------------------------------------------------------------------


def _conditioned_pmf_at(model, y, t, K):
    times = scaled_times(t, y)
    return conditional_pmf(model, FddSpec(times, (0.0,) * len(y), t_obs=times[0]), K)


def tv_to_limit(model: LifeLaw, y, t: int, K: int, c: float) -> float:
    """Total variation between the survival-conditioned law at horizon t
    and the limit law, with counts above total K lumped on both sides
    (truncation on one side, the infinite atom plus the truncated finite
    tail on the other; nothing finer is comparable at finite K)."""
    cond = _conditioned_pmf_at(model, y, t, K)
    limit = eta_fdd_pmf(LimitParams(c), FddQuery(y, (0.0,) * len(y)), K)
    lump = limit.finite_remainder + limit.infinite_mass
    return 0.5 * (float(np.abs(cond.probs - limit.coeffs).sum()) + abs(cond.overflow - lump))


def fdd_limit_check(
    model: LifeLaw,
    y,
    t_grid,
    K: int = 10,
    replicates: int = 20_000,
    seed: int = 20240901,
) -> RunReport:
    """Conditioned finite-time joint pmfs against the limit law along a
    growing grid, plus a Monte Carlo consistency check at the first grid
    point (each truncated bucket within 3 binomial sigmas of the exact
    conditioned pmf)."""
    y = tuple(float(v) for v in y)
    if not y or y[0] != 1.0:
        raise ConfigError("y must start at 1 (the conditioning scale)")
    t_grid = tuple(int(t) for t in t_grid)
    if len(t_grid) < 2 or any(t_grid[i] >= t_grid[i + 1] for i in range(len(t_grid) - 1)):
        raise ConfigError("t_grid must be strictly increasing with at least two points")
    summary = summarize(model)
    if not summary.critical:
        raise ConfigError("model must be critical")
    rows = []
    prev = 1.0  # TV can never exceed 1
    tvs = []
    for t in t_grid:
        start = time.perf_counter()
        tv = tv_to_limit(model, y, t, K, summary.c)
        tvs.append(tv)
        rows.append(
            CheckRow(
                name=f"tv to limit at t={t}",
                statistic=tv,
                reference=prev,
                tolerance=_TREND_SLACK,
                passed=bool(0.0 <= tv <= prev + _TREND_SLACK),
                source="previous grid point",
                runtime=time.perf_counter() - start,
            )
        )
        prev = tv

    start = time.perf_counter()
    t0 = t_grid[0]
    cond = _conditioned_pmf_at(model, y, t0, K)
    times = cond.times
    sim = simulate(
        SimConfig(
            model=model,
            horizon=times[-1],
            query_times=times,
            replicates=replicates,
            seed=seed,
        )
    )
    keep = sim.ok & (sim.counts[:, 0] > 0)
    counts = sim.counts[keep]
    n = counts.shape[0]
    inside = counts[counts.sum(axis=1) <= K]
    cells = np.ravel_multi_index(inside.T, cond.probs.shape)
    emp = np.bincount(cells, minlength=cond.probs.size).reshape(cond.probs.shape) / n
    emp_over = (n - inside.shape[0]) / n
    floor = 5.0 / n
    exact = np.append(cond.probs.ravel(), cond.overflow)
    observed = np.append(emp.ravel(), emp_over)
    p_safe = np.maximum(exact, floor)
    sigma = np.sqrt(p_safe * (1.0 - p_safe) / n)
    worst = float(np.max(np.abs(observed - exact) / sigma))
    rows.append(
        CheckRow(
            name=f"mc pmf at t={t0} ({n} survivors)",
            statistic=worst,
            reference=0.0,
            tolerance=3.0,
            passed=bool(worst <= 3.0),
            source="exact conditioned pmf, binomial sigma",
            runtime=time.perf_counter() - start,
        )
    )
    return RunReport(name=f"fdd_limit_check[{type(model).__name__}]", rows=rows)


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


def _standard_checks() -> list:
    from .lifelaw import FiniteLife, OffspringPMF, QuadraticTailLife

    gw = BellmanHarris(FiniteLife({1: 1.0}), OffspringPMF([0.5, 0.0, 0.5]))
    tab = Tabulated([(0.5, (1, 2), 3), (0.5, (), 2)])
    delayed = DelayedDeath(
        [(0.5, (1, 2)), (0.5, ())], QuadraticTailLife(d=1.125, t_min=2)
    )
    grid = (64, 128, 256, 512)
    return [
        ("oracle gw", lambda: oracle_equivalence(gw, 6)),
        ("oracle tabulated", lambda: oracle_equivalence(tab, 6)),
        ("oracle delayed", lambda: oracle_equivalence(delayed, 5)),
        # z_1 > 0 keeps the weighted variant from collapsing to plain Q
        ("limits gw", lambda: limit_convergence(gw, (1.0, 2.0), (0.25, 0.5), grid)),
        ("limits tabulated", lambda: limit_convergence(tab, (1.0, 2.0), (0.5, 0.5), grid)),
        ("limits delayed", lambda: limit_convergence(delayed, (1.0, 2.0), (0.25, 0.5), grid)),
        (
            "fdd limit delayed",
            lambda: fdd_limit_check(delayed, (1.0,), (16, 32, 64, 128), K=10),
        ),
    ]


def run_battery() -> list:
    """The standard cross-validation battery, its reports in a fixed order."""
    return [fn() for _, fn in _standard_checks()]
