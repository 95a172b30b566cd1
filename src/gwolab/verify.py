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

import math
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, OracleBlowup, _integer, _number
from .exact_engine import (
    FddSpec,
    conditional_pmf,
    convergence_table,
    extinction_seq,
    fdd_pgf,
)
from .lifelaw import (
    BellmanHarris,
    DelayedDeath,
    FiniteLife,
    LifeLaw,
    OffspringPMF,
    QuadraticTailLife,
    Scheduled,
    Sevastyanov,
    Tabulated,
)
from .limitlaw import FddQuery, eta_fdd_pmf, limit_of
from .modelio import write_json
from .simulator import SimConfig, simulate

_FAR_FUTURE = 10**9
_TREND_SLACK = 1e-3
_LIMIT_REL_TOL = 0.02  # limit_convergence: extrapolation against its target
_BURN_IN = 1  # limit_convergence: leading grid points left out of the trends
_MC_ALPHA = math.erfc(3.0 / math.sqrt(2.0))  # fdd_limit_check: the mc row's family-wise level, P(|N(0,1)| > 3)


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
    write_json(payload, fh)


def _row(name, statistic, reference, tolerance, source, runtime, one_sided=False) -> CheckRow:
    """A row that passes when |statistic - reference| <= tolerance, or,
    one-sided, when statistic <= reference + tolerance."""
    if one_sided:
        passed = statistic <= reference + tolerance
    else:
        passed = abs(statistic - reference) <= tolerance
    return CheckRow(name, float(statistic), float(reference), float(tolerance), bool(passed), source, runtime)


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------


def _bounded_atoms(model: LifeLaw, span: int) -> list:
    """Finite (prob, ages, life) decomposition exact up to time span.

    Lives beyond span are collapsed into one long-lived childless atom:
    such an individual's children are born after every query time, so
    dropping them changes nothing observable by span.
    """
    atoms = []
    if isinstance(model, Sevastyanov):
        pmf = model.life.pmf(np.arange(span + 1))
        for l in np.flatnonzero(pmf).tolist():
            for n, pn in enumerate(model.offspring_by_life(l).probs):
                if pn > 0.0:
                    atoms.append((pmf[l] * pn, (l,) * n, l))
        tail = model.life.survival(span)
        if tail > 0.0:
            atoms.append((tail, (), _FAR_FUTURE))
        return atoms
    if isinstance(model, Scheduled):
        if model.residual is None:
            return list(model.atoms)
        # the life base + R, for each residual r <= span and for R > span
        res_pmf, tail = model.residual.pmf(np.arange(span + 1)), model.residual.survival(span)
        for p, ages, base in model.atoms:
            for r in range(1, span + 1):
                if res_pmf[r] > 0.0:
                    atoms.append((p * res_pmf[r], ages, base + r))
            if tail > 0.0:
                atoms.append((p * tail, ages, _FAR_FUTURE))
        return atoms
    raise ConfigError(f"not a life law: {model!r}")


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
    with every coordinate < S stay exact.  The times are checked as the
    DP checks them (`FddSpec`).
    """
    times = FddSpec(times, [0.0] * len(times)).times
    budget = _integer(budget, "budget", 1)
    if saturate is not None:
        saturate = _integer(saturate, "saturate", 1)
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
    formulation, so it cross-checks the segment bookkeeping there.  The
    query is checked, and its weight-1 coordinates dropped, by `FddSpec`."""
    spec = FddSpec(times, z)
    if spec.k == 0:
        return 1.0
    times, z, maxq = spec.times, spec.z, spec.times[-1]
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
    t_small, budget = _integer(t_small, "t_small", 1, 6), _integer(budget, "budget", 1)
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
        _row(
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
        _row(
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
        _row(
            "conditional pmf vs enumeration",
            worst, 0.0, tol, "exhaustive enumeration", time.perf_counter() - start,
        )
    )
    return RunReport(name=f"oracle_equivalence[{type(model).__name__}, t<={t_small}]", rows=rows)


# ---------------------------------------------------------------------------
# survival asymptotics
# ---------------------------------------------------------------------------


def _check_dyadic(t_grid) -> tuple:
    t_grid = tuple(_integer(t, "grid point", 1) for t in t_grid)
    if len(t_grid) < 3:
        raise ConfigError("need at least three grid points")
    if any(t_grid[i + 1] != 2 * t_grid[i] for i in range(len(t_grid) - 1)):
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


def limit_convergence(model: LifeLaw, y, z, t_grid) -> RunReport:
    """tQ(t) and its weighted variant against their closed-form limits:
    the error must decrease along a dyadic grid (no rise past
    _TREND_SLACK), and the extrapolated value must land within
    _LIMIT_REL_TOL of the target.  With z_1 = 0 the weighted rows are
    read from one survival column, and so are the plain ones."""
    t_grid = _check_dyadic(t_grid)
    _, h = limit_of(model)
    start = time.perf_counter()
    conv = convergence_table(model, y, z, t_grid)
    h_k = conv[0].target
    weighted = ("weighted tQ", [r.tq_k for r in conv], h_k, time.perf_counter() - start)
    if FddQuery(y, z).z[0] == 0.0:
        # Q as `extinction_seq` gives it, clipped to [0, 1]
        q = [min(max(r.q_k, 0.0), 1.0) for r in conv]
        plain_s = weighted[3]
    else:
        start = time.perf_counter()
        table = extinction_seq(model, t_grid[-1])
        q = [table.q[t] for t in t_grid]
        plain_s = time.perf_counter() - start
    plain = ("tQ", [t * q_t for t, q_t in zip(t_grid, q)], h, plain_s)
    rows = []
    for label, tq, target, dt in (plain, weighted):
        errs = [abs(v - target) for v in tq[_BURN_IN:]]
        worst = max(b - a for a, b in zip(errs, errs[1:]))
        rows.append(
            _row(f"{label} error trend", worst, 0.0, _TREND_SLACK, "adjacent error differences", dt, one_sided=True)
        )
        rows.append(
            _row(f"{label} extrapolation", richardson(*tq[-3:]), target, _LIMIT_REL_TOL * abs(target),
                 "closed-form limit", dt)
        )

    start = time.perf_counter()
    ratios = [r.q_k / q_t for r, q_t in zip(conv, q)]
    rows.append(
        _row(
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


def _tv_at(model: LifeLaw, q: FddQuery, t: int, K: int, limit):
    """The pmf of q conditioned at t, and its total variation from the
    limit pmf, with counts above total K lumped on both sides (truncation
    on one side, the infinite atom plus the truncated finite tail on the
    other; nothing finer is comparable at finite K)."""
    cond = conditional_pmf(model, FddSpec.at(q, t), K)
    lump = limit.finite_remainder + limit.infinite_mass
    return cond, 0.5 * (float(np.abs(cond.probs - limit.coeffs).sum()) + abs(cond.overflow - lump))


def tv_to_limit(model: LifeLaw, y, t: int, K: int, c: float) -> float:
    """Total variation between the law of the counts at times t*y (y in
    units of t), conditioned on Z(t) > 0, and the limit law, with counts
    above total K lumped.  c must be the model's (`limit_of`).  Left of 1
    the limit is the frozen-root closed form, which the DP does not
    converge to (ROADMAP, the Riccati item)."""
    q = FddQuery(y, (0.0,) * len(y))
    p, _ = limit_of(model)
    if _number(c, "c") != p.c:
        raise ConfigError(f"c={c!r} is not the model's c={p.c!r}")
    return _tv_at(model, q, t, K, eta_fdd_pmf(p, q, K))[1]


def fdd_limit_check(
    model: LifeLaw,
    y,
    t_grid,
    K: int = 10,
    replicates: int = 20_000,
    seed: int = 20240901,
) -> RunReport:
    """Conditioned finite-time joint pmfs at times t*y (y in units of t,
    conditioned on Z(t) > 0) against the limit law along a growing grid,
    plus a Monte Carlo consistency check at the first grid point t0: the
    replicates with Z(t0) > 0, each of m cells (total count <= K, and the
    overflow) within the Bonferroni bound inv_cdf(1 - _MC_ALPHA / (2m))
    binomial sigmas of the exact conditioned pmf.  Left of 1 the limit is
    the frozen-root closed form, which the DP does not converge to (ROADMAP,
    the Riccati item), so the TV trend there gates nothing."""
    q = FddQuery(y, (0.0,) * len(y))
    t_grid = tuple(_integer(t, "grid point", 1) for t in t_grid)
    if len(t_grid) < 2 or any(t_grid[i] >= t_grid[i + 1] for i in range(len(t_grid) - 1)):
        raise ConfigError("t_grid must be strictly increasing with at least two points")
    p, _ = limit_of(model)
    rows = []
    prev = 1.0  # TV can never exceed 1
    limit = eta_fdd_pmf(p, q, K)
    t0 = t_grid[0]
    for t in t_grid:
        start = time.perf_counter()
        pmf, tv = _tv_at(model, q, t, K, limit)
        if t == t0:
            cond = pmf  # the Monte Carlo check below compares against it
        dt = time.perf_counter() - start
        rows.append(_row(f"tv to limit at t={t}", tv, prev, _TREND_SLACK, "previous grid point", dt, one_sided=True))
        prev = tv

    start = time.perf_counter()
    times = tuple(sorted({t0, *cond.times}))
    sim = simulate(
        SimConfig(
            model=model,
            horizon=times[-1],
            query_times=times,
            replicates=replicates,
            seed=seed,
        )
    )
    keep = sim.ok & (sim.counts[:, times.index(t0)] > 0)
    counts = sim.counts[keep][:, [times.index(s) for s in cond.times]]
    n = counts.shape[0]
    from statistics import NormalDist  # here, not at import: it loads fractions and decimal
    bound = NormalDist().inv_cdf(1.0 - _MC_ALPHA / (2 * (math.comb(K + len(cond.times), K) + 1)))
    worst = np.inf  # no survivors: nothing to compare, the row fails
    if n:
        inside = counts[counts.sum(axis=1) <= K]
        cells = np.ravel_multi_index(inside.T, cond.probs.shape)
        observed = np.append(np.bincount(cells, minlength=cond.probs.size), n - len(inside)) / n
        exact = np.append(cond.probs.ravel(), cond.overflow)
        p_safe = np.maximum(exact, 5.0 / n)
        sigma = np.sqrt(p_safe * (1.0 - p_safe) / n)
        worst = float(np.max(np.abs(observed - exact) / sigma))
    rows.append(
        _row(
            f"mc pmf at t={t0} ({n} survivors)",
            worst, 0.0, bound, "exact conditioned pmf, Bonferroni bound", time.perf_counter() - start,
        )
    )
    return RunReport(name=f"fdd_limit_check[{type(model).__name__}]", rows=rows)


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


def _battery() -> list:
    """The standard battery as (check, model, args) rows, in report order."""
    gw = BellmanHarris(FiniteLife({1: 1.0}), OffspringPMF([0.5, 0.0, 0.5]))
    tab = Tabulated([(0.5, (1, 2), 3), (0.5, (), 2)])
    delayed = DelayedDeath([(0.5, (1, 2)), (0.5, ())], QuadraticTailLife(d=1.125, t_min=2))
    grid = (64, 128, 256, 512)
    return [
        (oracle_equivalence, gw, (6,)),
        (oracle_equivalence, tab, (6,)),
        (oracle_equivalence, delayed, (5,)),
        # z_1 > 0 keeps the weighted variant from collapsing to plain Q
        (limit_convergence, gw, ((1.0, 2.0), (0.25, 0.5), grid)),
        (limit_convergence, tab, ((1.0, 2.0), (0.5, 0.5), grid)),
        (limit_convergence, delayed, ((1.0, 2.0), (0.25, 0.5), grid)),
        (fdd_limit_check, delayed, ((1.0,), (16, 32, 64, 128), 10)),
    ]


def run_battery() -> list:
    """The standard cross-validation battery, its reports in a fixed order."""
    return [check(model, *args) for check, model, args in _battery()]
