"""Seeded Monte Carlo simulation of the branching population.

Replicate r draws from its own counter-based stream, Philox4x64-10 keyed
by (seed, r) (Salmon et al., SC'11): its uniform j is word j % 4 of
counter block j // 4 + 1, mapped to [0, 1) as Generator.random does, so
it equals the stream of np.random.Philox(key=np.array([seed, r],
dtype=np.uint64)).  A replicate's outcome is therefore a pure function
of the config and r: it does not depend on how many replicates run or
which came before.  Each individual takes a fixed number of uniforms (one
for a tabulated law, two otherwise), so a replicate's draws are numbered
by a running count of its individuals, and the words are computed in
numpy for many (replicate, counter block) pairs at once.

Replicates run in a block of slots that steps through time in numpy.
Each slot keeps a row of pending births and a row of deaths per time,
tallies of shape (block, horizon + 2): individuals of one replicate born
at the same time are exchangeable, so only counts are stored.  A
replicate leaves the active set once it overflows or has no birth
scheduled after its current time; its counts at the query times are
cumulative sums of its two rows, and its slot takes the next replicate.
The block size follows from a fixed memory budget, so memory never grows
with the replicate count, and it changes no result.
"""

from __future__ import annotations

import csv
import math
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

_TALLY_CELLS = 1 << 16  # int64 cells of one (block, horizon + 2) tally: 512 KB

# Philox4x64-10: round multipliers and key increments
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_U11 = np.uint64(11)


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


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products a * m, for a
    uint64 array a and a 64-bit constant m."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, hi = a & _LO32, a >> _U32
    mid = hi * m_lo
    mid += (a_lo * m_lo) >> _U32
    low = a_lo * m_hi
    low += mid & _LO32
    hi *= m_hi
    hi += mid >> _U32
    hi += low >> _U32
    return hi, a * np.uint64(m)


def philox_uniforms(seed: int, reps: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Uniforms 4b, ..., 4b + 3 of stream (seed, rep) for each pair (rep, b)
    of the two arrays, shape (n, 4): the numbers Generator.random draws at
    those positions from np.random.Philox(key=np.array([seed, rep], dtype=np.uint64))."""
    reps = np.asarray(reps, dtype=np.uint64)
    c0 = np.asarray(blocks, dtype=np.uint64) + np.uint64(1)  # Philox counts from block 1
    c1 = c2 = c3 = np.zeros_like(c0)
    for i in range(10):
        key0 = np.uint64((seed + i * _PHILOX_BUMP[0]) % 2**64)
        key1 = reps + np.uint64(i * _PHILOX_BUMP[1] % 2**64)
        hi0, lo0 = _mulhilo(c0, _PHILOX_MUL[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_MUL[1])
        hi1 ^= c1
        hi1 ^= key0
        hi0 ^= c3
        hi0 ^= key1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    words = np.stack((c0, c1, c2, c3), axis=1)
    words >>= _U11
    return words * 2.0**-53


def _schedule_table(schedules) -> tuple[np.ndarray, np.ndarray]:
    """Birth ages padded to one width, and a 0/1 count per slot."""
    width = max(1, max(len(ages) for ages in schedules))
    ages = np.ones((len(schedules), width), dtype=np.int64)
    counts = np.zeros((len(schedules), width), dtype=np.int64)
    for i, sched in enumerate(schedules):
        ages[i, : len(sched)] = sched
        counts[i, : len(sched)] = 1
    return ages, counts


def _individual_draw(model: LifeLaw) -> tuple[int, Callable]:
    """(uniforms per individual, draw) for a life law.

    draw maps an (n, uniforms) array, row i holding individual i's
    uniforms in stream order, to its lives (n,) and its births as two
    (n, slots) arrays: counts[i, s] children born at age ages[i, s].
    The inverse cdfs on the distribution objects are the single source
    of randomness semantics.
    """
    if isinstance(model, (BellmanHarris, Sevastyanov)):
        life_law = model.life
        if isinstance(model, BellmanHarris):

            def offspring(life, u):
                return model.offspring.sample_from_uniform(u)

        else:
            laws: dict = {}

            def offspring(life, u):
                out = np.empty(life.shape, dtype=np.int64)
                for value in np.unique(life):
                    law = laws.get(value)
                    if law is None:
                        law = laws[value] = model.offspring_by_life(int(value))
                    pick = life == value
                    out[pick] = law.sample_from_uniform(u[pick])
                return out

        def draw(u):
            life = life_law.sample_from_uniform(u[:, 0])
            return life, life[:, None], offspring(life, u[:, 1])[:, None]

        return 2, draw
    if isinstance(model, Tabulated):
        ages, counts = _schedule_table([a for _, a, _ in model.atoms])
        lives = np.array([life for _, _, life in model.atoms], dtype=np.int64)

        def draw(u):
            i = model.atom_index(u[:, 0])
            return lives[i], ages[i], counts[i]

        return 1, draw
    if isinstance(model, DelayedDeath):
        ages, counts = _schedule_table([a for _, a in model.schedules])
        last_age = np.array([a[-1] if a else 0 for _, a in model.schedules], dtype=np.int64)

        def draw(u):
            i = model.schedule_index(u[:, 0])
            return last_age[i] + model.residual.sample_from_uniform(u[:, 1]), ages[i], counts[i]

        return 2, draw
    raise UnsupportedModel(f"cannot simulate {type(model).__name__}")


def _segments(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For segments of the given lengths laid end to end: the start of
    each segment, and each element's position inside its segment."""
    starts = np.cumsum(counts) - counts
    return starts, np.arange(int(counts.sum())) - np.repeat(starts, counts)


def _replicate_runner(config: SimConfig) -> Callable[[int, int], tuple]:
    """(first, size) -> (counts at the query times, Z(horizon), overflowed)
    for replicates first, ..., first + size - 1, each drawn from its own
    stream (seed, rep).

    The replicates run in a block of slots that steps through time in
    numpy; each slot holds one replicate at a time, on its own clock, and
    takes the next one when its replicate ends.  An overflowed replicate
    stops at the individual that takes the population past
    max_individuals and keeps the counts of the individuals before it;
    callers must treat its row as unusable for statistics.
    """
    per, draw = _individual_draw(config.model)
    horizon, cap, seed = config.horizon, config.max_individuals, config.seed
    width = horizon + 2  # the last column collects events past the horizon
    cols = np.arange(width)
    k = len(config.query_times)
    tracked = list(config.query_times) + [horizon]

    def run(first: int, size: int) -> tuple:
        slots = min(size, max(1, _TALLY_CELLS // width))
        pending = np.zeros((slots, width), dtype=np.int64)
        deaths = np.zeros((slots, width), dtype=np.int64)
        pending[:, 0] = 1
        flat_pending, flat_deaths = pending.reshape(-1), deaths.reshape(-1)
        rep = np.arange(slots)  # the slot's replicate, counted from first
        start = np.zeros(slots, dtype=np.int64)  # step at which it began
        drawn = np.zeros(slots, dtype=np.int64)  # individuals drawn so far
        latest = np.zeros(slots, dtype=np.int64)  # latest scheduled birth
        over = np.zeros(slots, dtype=bool)
        out = np.empty((size, len(tracked)), dtype=np.int64)
        out_over = np.empty(size, dtype=bool)
        active, queued, step = np.arange(slots), slots, -1
        while active.size:
            step += 1
            t = step - start[active]
            births = pending[active, t]
            nz = np.flatnonzero(births)
            if not nz.size:
                continue
            rows, t, births = active[nz], t[nz], births[nz]
            done = drawn[rows]
            tripped = None
            risky = np.flatnonzero(done + births > cap)
            if risky.size:
                # with A alive after this step's deaths, the i-th birth
                # (from 0) takes the population past the cap if A + i >= cap
                gone = np.where(cols <= t[risky, None], deaths[rows[risky]], 0).sum(axis=1)
                room = cap - done[risky] + gone
                short = births[risky] > room
                trip = risky[short]
                tripped, kept = rows[trip], room[short]
                births[trip] = kept
                over[tripped] = True
            # the counter blocks (lanes) that hold this step's uniforms
            first_u = per * done
            lane0 = first_u >> 2
            lanes = ((first_u + per * births + 3) >> 2) - lane0
            lane_start, lane_pos = _segments(lanes)
            streams = (first + rep[np.repeat(rows, lanes)]).astype(np.uint64)
            uniforms = philox_uniforms(seed, streams, np.repeat(lane0, lanes) + lane_pos).reshape(-1)
            _, pos = _segments(births)
            at = np.repeat(4 * (lane_start - lane0) + first_u, births) + per * pos
            life, ages, counts = draw(uniforms[at[:, None] + np.arange(per)])
            drawn[rows] += births
            owner, born = np.repeat(rows, births), np.repeat(t, births)
            np.add.at(flat_deaths, owner * width + np.minimum(born + life, horizon + 1), 1)
            when = born[:, None] + ages
            ok = (counts > 0) & (when <= horizon)
            who = np.broadcast_to(owner[:, None], when.shape)[ok]
            np.add.at(flat_pending, who * width + when[ok], counts[ok])
            np.maximum.at(latest, who, when[ok])
            if tripped is not None:
                cut = t[trip]
                pending[tripped] *= cols <= cut[:, None]
                pending[tripped, cut] = kept
            # a replicate ends once it overflows or has no birth scheduled
            # after now; its slot takes the next replicate, if any is left
            end = (latest[rows] <= t) | over[rows]
            if end.any():
                fin = rows[end]
                pending[fin] -= deaths[fin]
                out[rep[fin]] = np.cumsum(pending[fin], axis=1)[:, tracked]
                out_over[rep[fin]] = over[fin]
                new = fin[: max(0, min(fin.size, size - queued))]
                rep[new] = np.arange(queued, queued + new.size)
                queued += new.size
                start[new] = step + 1
                pending[new] = deaths[new] = drawn[new] = latest[new] = 0
                pending[new, 0] = 1
                over[new] = False
                keep = np.ones(active.size, dtype=bool)
                keep[nz[end]] = False
                active = np.concatenate((active[keep], new))
        return out[:, :k], out[:, -1], out_over

    return run


def _raise_on_overflow(over: np.ndarray, first: int, cap: int) -> None:
    bad = np.flatnonzero(over)
    if bad.size:
        raise BudgetExhausted(f"replicate {first + int(bad[0])} exceeded max_individuals={cap}")


def simulate(config: SimConfig, threads: int = 1) -> SimResult:
    """Run replicates 0..replicates-1.

    `threads` is ignored and kept only for existing callers: replicates
    run in one thread, vectorized across a block of replicates.
    """
    counts, z, over = _replicate_runner(config)(0, config.replicates)
    return SimResult(
        query_times=config.query_times,
        counts=counts,
        survived=(z > 0) & ~over,
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
    survivors/attempts estimates Q(horizon).  An overflow of
    max_individuals at an attempt up to the last one raises
    BudgetExhausted.  Attempts run in blocks sized from the survival rate
    seen so far; none runs past max_attempts.
    """
    if target_survivors < 1:
        raise ConfigError("target_survivors must be >= 1")
    run = _replicate_runner(config)
    kept: list = []
    found = first = 0
    size = 4 * target_survivors
    while first < max_attempts:
        counts, z, over = run(first, min(size, max_attempts - first))
        hits = np.flatnonzero((z > 0) & ~over)[: target_survivors - found]
        found += hits.size
        end = int(hits[-1]) + 1 if found == target_survivors else over.size
        _raise_on_overflow(over[:end], first, config.max_individuals)
        kept.append(counts[hits])
        if found == target_survivors:
            return SimResult(
                query_times=config.query_times,
                counts=np.concatenate(kept),
                survived=np.ones(found, dtype=bool),
                overflowed=np.zeros(found, dtype=bool),
                horizon=config.horizon,
                seed=config.seed,
                attempts=first + end,
            )
        first += over.size
        # aim at the missing survivors, at the acceptance rate seen so far
        wanted = (target_survivors - found) * first // found if found else 4 * size
        size = wanted + wanted // 4 + 16
    raise BudgetExhausted(f"{found}/{target_survivors} survivors after {max_attempts} attempts")


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
    _, z, over = _replicate_runner(config)(0, config.replicates)
    _raise_on_overflow(over, 0, config.max_individuals)
    z = z[z > 0]
    n, small = z.size, int((z <= cut).sum())
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
