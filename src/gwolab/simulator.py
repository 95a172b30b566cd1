"""Seeded Monte Carlo simulation of the branching population.

Replicate r draws from its own counter-based stream, Philox keyed by
(seed, r), so a replicate's outcome is a pure function of the config and
r: it does not depend on how many replicates run or which came before.
Replicates run one after another in a single thread.  Each replicate
walks birth times in order with a bucket queue: individuals born at the
same time are exchangeable, so the queue only stores counts.  Memory is
O(horizon + live individuals), never a full event timeline.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BudgetExhausted, ConfigError, DivergentMoment, UnsupportedModel
from .lifelaw import (
    BellmanHarris,
    DelayedDeath,
    LifeLaw,
    Sevastyanov,
    Tabulated,
    summarize,
)
from .limitlaw import dichotomy_fraction


@dataclass(frozen=True)
class SimConfig:
    model: LifeLaw
    horizon: int
    query_times: tuple[int, ...]
    replicates: int
    seed: int
    max_individuals: int = 1_000_000

    def __post_init__(self):
        object.__setattr__(self, "query_times", tuple(int(t) for t in self.query_times))
        if self.horizon < 0:
            raise ConfigError("horizon must be >= 0")
        qt = self.query_times
        if any(qt[i] >= qt[i + 1] for i in range(len(qt) - 1)):
            raise ConfigError(f"query times {qt} must be strictly increasing")
        if qt and (qt[0] < 0 or qt[-1] > self.horizon):
            raise ConfigError(f"query times {qt} must lie in [0, horizon]")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        if self.max_individuals < 1:
            raise ConfigError("max_individuals must be >= 1")


class _UniformStream:
    """Blocked scalar uniforms from one generator; block size does not
    change the consumed sequence, only amortizes the call overhead."""

    __slots__ = ("rng", "buf", "pos")

    def __init__(self, rng: np.random.Generator, block: int = 512):
        self.rng = rng
        self.buf = rng.random(block)
        self.pos = 0

    def take(self) -> float:
        buf = self.buf
        if self.pos == buf.shape[0]:
            buf = self.buf = self.rng.random(buf.shape[0])
            self.pos = 0
        v = buf[self.pos]
        self.pos += 1
        return v


def _make_sampler(model: LifeLaw) -> Callable[[_UniformStream], tuple[int, tuple[int, ...]]]:
    """(life, birth ages) drawer; the inverse-cdf samplers on the
    distribution objects are the single source of randomness semantics."""
    if isinstance(model, BellmanHarris):
        life_inv = model.life.sample_from_uniform
        off_inv = model.offspring.sample_from_uniform

        def draw(u):
            life = life_inv(u.take())
            return life, (life,) * off_inv(u.take())

    elif isinstance(model, Sevastyanov):
        life_inv = model.life.sample_from_uniform
        by_life = model.offspring_by_life
        cache: dict = {}

        def draw(u):
            life = life_inv(u.take())
            law = cache.get(life)
            if law is None:
                law = cache[life] = by_life(life)
            return life, (life,) * law.sample_from_uniform(u.take())

    elif isinstance(model, Tabulated):
        pick = model.sample_atom_from_uniform

        def draw(u):
            _, ages, life = pick(u.take())
            return life, ages

    elif isinstance(model, DelayedDeath):
        pick = model.sample_schedule_from_uniform
        res_inv = model.residual.sample_from_uniform

        def draw(u):
            _, ages = pick(u.take())
            life = (ages[-1] if ages else 0) + res_inv(u.take())
            return life, ages

    else:
        raise UnsupportedModel(f"cannot simulate {type(model).__name__}")
    return draw


def _run_replicate(sampler, horizon: int, qtimes, cap: int, rng) -> tuple[list, bool]:
    """One population path; returns counts at qtimes and the overflow flag.

    On overflow the replicate stops early with partial counts; callers
    must treat flagged rows as unusable for statistics.
    """
    u = _UniformStream(rng)
    k = len(qtimes)
    counts = [0] * k
    pending = [0] * (horizon + 1)
    pending[0] = 1
    deaths = [0] * (horizon + 2)
    alive = 0
    for t in range(horizon + 1):
        alive -= deaths[t]
        births = pending[t]
        if not births:
            continue
        qi0 = bisect_left(qtimes, t)
        for _ in range(births):
            life, ages = sampler(u)
            alive += 1
            if alive > cap:
                return counts, True
            end = t + life  # first time no longer alive
            if end <= horizon + 1:
                deaths[end] += 1
            for qi in range(qi0, k):
                if qtimes[qi] < end:
                    counts[qi] += 1
                else:
                    break
            for a in ages:
                b = t + a
                if b <= horizon:
                    pending[b] += 1
    return counts, False


@dataclass
class SimResult:
    query_times: tuple[int, ...]
    counts: np.ndarray  # (replicates, k) int64
    survived: np.ndarray  # Z(horizon) > 0, per replicate
    overflowed: np.ndarray
    horizon: int
    seed: int
    attempts: Optional[int] = None  # set by rejection sampling

    @property
    def ok(self) -> np.ndarray:
        return ~self.overflowed

    def survival_summary(self) -> dict:
        """P(Z(horizon) > 0) estimate with a binomial 95% interval."""
        n = int(self.ok.sum())
        hits = int(self.survived[self.ok].sum())
        p = hits / n if n else math.nan
        se = math.sqrt(p * (1.0 - p) / n) if n else math.nan
        return {
            "replicates": n,
            "overflowed": int(self.overflowed.sum()),
            "survivors": hits,
            "estimate": p,
            "stderr": se,
            "ci95": (p - 1.96 * se, p + 1.96 * se) if n else (math.nan, math.nan),
        }

    def mean_counts(self) -> dict:
        """Sample mean and stderr of Z(t) for each query time."""
        rows = self.counts[self.ok]
        n = rows.shape[0]
        out = {}
        for i, t in enumerate(self.query_times):
            col = rows[:, i]
            m = float(col.mean()) if n else math.nan
            se = float(col.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
            out[t] = {"estimate": m, "stderr": se}
        return out

    def to_csv(self, fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "survived"] + [f"Z@{t}" for t in self.query_times])
        for rep in range(self.counts.shape[0]):
            writer.writerow(
                [rep, int(self.survived[rep])] + [int(v) for v in self.counts[rep]]
            )

    def summary(self) -> dict:
        return {
            "horizon": self.horizon,
            "seed": self.seed,
            "attempts": self.attempts,
            "survival": self.survival_summary(),
            "mean_counts": {str(t): v for t, v in self.mean_counts().items()},
        }


def _replicate_runner(config: SimConfig, strict: bool = False) -> Callable[[int], tuple]:
    """rep -> (counts at the query times, Z(horizon), overflowed) for the
    replicate drawn from stream (seed, rep).

    Z(horizon) is tracked in an extra last column when the horizon is not
    a query time.  An overflowed replicate has partial counts; strict
    raises BudgetExhausted at it instead, for conditioned estimates, where
    dropping it would bias the result (overflow goes with survival).
    """
    sampler = _make_sampler(config.model)
    horizon, cap = config.horizon, config.max_individuals
    qtimes = list(config.query_times)
    k = len(qtimes)
    tracked = qtimes if qtimes[-1:] == [horizon] else qtimes + [horizon]

    def run(rep: int) -> tuple:
        rng = np.random.Generator(np.random.Philox(key=np.array([config.seed, rep], dtype=np.uint64)))
        c, over = _run_replicate(sampler, horizon, tracked, cap, rng)
        if over and strict:
            raise BudgetExhausted(f"replicate {rep} exceeded max_individuals={cap}")
        return c[:k], c[-1], over

    return run


def simulate(config: SimConfig, threads: int = 1) -> SimResult:
    """Run replicates 0..replicates-1 in order.

    `threads` is ignored and kept only for existing callers: replicates
    run serially, because extra threads only contend for the interpreter
    lock.
    """
    run = _replicate_runner(config)
    R = config.replicates
    counts = np.zeros((R, len(config.query_times)), dtype=np.int64)
    survived = np.zeros(R, dtype=bool)
    over = np.zeros(R, dtype=bool)
    for rep in range(R):
        counts[rep], z, over[rep] = run(rep)
        survived[rep] = z > 0 and not over[rep]
    return SimResult(
        query_times=config.query_times,
        counts=counts,
        survived=survived,
        overflowed=over,
        horizon=config.horizon,
        seed=config.seed,
    )


def conditional_sample(
    config: SimConfig,
    target_survivors: int,
    max_attempts: int = 1_000_000,
) -> SimResult:
    """Rejection sampling: attempt replicates 0, 1, ... (their own
    streams) until target_survivors have Z(horizon) > 0.

    The returned result contains exactly the surviving replicates, in
    attempt order, with `attempts` = index of the last attempt + 1, so
    survivors/attempts estimates Q(horizon).  An attempt that overflows
    max_individuals raises BudgetExhausted.
    """
    if target_survivors < 1:
        raise ConfigError("target_survivors must be >= 1")
    run = _replicate_runner(config, strict=True)
    kept: list = []
    for attempt in range(max_attempts):
        c, z, _ = run(attempt)
        if z > 0:
            kept.append(c)
            if len(kept) == target_survivors:
                return SimResult(
                    query_times=config.query_times,
                    counts=np.array(kept, dtype=np.int64),
                    survived=np.ones(len(kept), dtype=bool),
                    overflowed=np.zeros(len(kept), dtype=bool),
                    horizon=config.horizon,
                    seed=config.seed,
                    attempts=attempt + 1,
                )
    raise BudgetExhausted(f"{len(kept)}/{target_survivors} survivors after {max_attempts} attempts")


@dataclass(frozen=True)
class DichotomyStats:
    horizon: int
    cutoff: int
    survivors: int
    small_fraction: float  # survivors with 1 <= Z(horizon) <= cutoff
    large_fraction: float
    reference_limit: Optional[float]  # closed-form limit of the small fraction


def default_cutoff(t: int) -> int:
    return math.ceil(math.sqrt(t))


def dichotomy_stats(
    config: SimConfig,
    cutoff_rule: Callable[[int], int] = default_cutoff,
) -> DichotomyStats:
    """Split survivors at the horizon into small/large count groups.

    The cutoff rule should grow without bound but slower than t, so the
    small fraction tends to the probability that the limit count at 1 is
    finite and positive.  A replicate that overflows max_individuals
    raises BudgetExhausted.
    """
    cut = int(cutoff_rule(config.horizon))
    if cut < 1:
        raise ConfigError("cutoff must be >= 1")
    run = _replicate_runner(config, strict=True)
    n = small = 0
    for rep in range(config.replicates):
        _, z, _ = run(rep)
        if z > 0:
            n += 1
            small += z <= cut
    try:
        ref = dichotomy_fraction(summarize(config.model).c)
    except DivergentMoment:
        ref = None
    return DichotomyStats(
        horizon=config.horizon,
        cutoff=cut,
        survivors=n,
        small_fraction=small / n if n else math.nan,
        large_fraction=1.0 - small / n if n else math.nan,
        reference_limit=ref,
    )
