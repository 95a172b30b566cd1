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
numpy (`philox`) for many (replicate, counter block) pairs at once.  A
step draws only the blocks that no earlier step of its replicate drew
(each slot holds the block its replicate last drew, used in part), so
each block of a replicate is computed at most once, and not at all for
individuals born at the horizon.  These take no uniforms: `lifelaw`
enforces lives and birth ages >= 1, so such an individual is alive at the
horizon and schedules nothing, and only its birth is counted.

Replicates run in a block of slots that steps through time in numpy.
Each slot keeps a row of pending births and a row of deaths per time,
tallies of shape (block, horizon + 2): individuals of one replicate born
at the same time are exchangeable, so only counts are stored.  A
replicate leaves the active set once it overflows or has no birth
scheduled after its current time; its counts at the query times are
cumulative sums of its two rows, and its slot takes the next replicate.
The block size follows from a fixed memory budget, so memory never grows
with the replicate count, and it changes no result.  A slot's tally and
the results of `simulate` and `dichotomy_stats` are held to the DP table
budget, checked before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BudgetExhausted, CapTooLarge, ConfigError, _integer, _items
from .exact_engine import _check_budget, extinction_seq
from .lifelaw import (
    LifeLaw,
    Scheduled,
    Sevastyanov,
)
from .limitlaw import dichotomy_fraction, limit_of
from .modelio import write_csv
from .philox import philox_uniforms

_TALLY_CELLS = 1 << 16  # int64 cells of one (block, horizon + 2) tally: 512 KB

_BLOCK = np.dtype((np.void, 32))  # one counter block's four uniforms as one item


@dataclass(frozen=True)
class SimConfig:
    model: LifeLaw
    horizon: int
    query_times: tuple[int, ...]
    replicates: int
    seed: int
    max_individuals: int = 1_000_000

    def __post_init__(self):
        for name, least, most in (
            ("horizon", 0, None), ("replicates", 1, None), ("seed", 0, 2**64 - 1), ("max_individuals", 1, None)
        ):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least, most))
        qt = _items(self.query_times, "query_times", _integer, "query time", 0, self.horizon, increasing=True)
        object.__setattr__(self, "query_times", qt)


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
        """One row per replicate: its index, 1 if it survived, its counts."""
        header = ["replicate", "survived"] + [f"Z@{t}" for t in self.query_times]
        cols = [np.arange(self.counts.shape[0]), self.survived, *self.counts.T]
        write_csv(fh, header, ",".join(["%d"] * len(cols)), cols)

    def summary(self) -> dict:
        return {
            "horizon": self.horizon,
            "seed": self.seed,
            "attempts": self.attempts,
            "survival": self.survival_summary(),
            "mean_counts": {str(t): v for t, v in self.mean_counts().items()},
        }


def _schedule_table(schedules) -> tuple[np.ndarray, np.ndarray]:
    """Birth ages padded to one length, and a 0/1 count per entry, with
    one column per schedule and one row per birth."""
    length = max(1, max(len(ages) for ages in schedules))
    ages = np.ones((length, len(schedules)), dtype=np.int64)
    counts = np.zeros((length, len(schedules)), dtype=np.int64)
    for i, sched in enumerate(schedules):
        ages[: len(sched), i] = sched
        counts[: len(sched), i] = 1
    return ages, counts


def _individual_draw(model: LifeLaw) -> tuple[int, Callable]:
    """(uniforms per individual, draw) for a life law.

    draw maps a (uniforms, n) array, column i holding individual i's
    uniforms in stream order, to its lives (n,) and its births as two
    (slots, n) arrays: counts[s, i] children born at age ages[s, i].
    The inverse cdfs on the distribution objects are the single source
    of randomness semantics.
    """
    if isinstance(model, Sevastyanov):
        default, keys = model.default, np.array(sorted(model.table), dtype=np.int64)
        laws = [model.table[l] for l in keys.tolist()]

        def draw(u):
            # the default law for all (a table without one names every
            # life), then each life drawn here that the table names
            life = model.life.sample_from_uniform(u[0])
            n = np.zeros(life.shape, np.int64) if default is None else default.sample_from_uniform(u[1])
            if keys.size:
                at = np.searchsorted(keys, life)
                named = keys.take(at, mode="clip") == life
                for j in set(at[named].tolist()):
                    pick = named & (at == j)
                    n[pick] = laws[j].sample_from_uniform(u[1][pick])
            return life, life[None], n[None]

        return 2, draw
    if isinstance(model, Scheduled):
        ages, counts = _schedule_table([a for _, a, _ in model.atoms])
        base = np.array([b for _, _, b in model.atoms], dtype=np.int64)
        residual = model.residual

        def draw(u):
            # the atom, then the residual's life past its base, if any
            i = model.atom_index(u[0])
            life = base[i] if residual is None else base[i] + residual.sample_from_uniform(u[1])
            return life, ages.take(i, axis=1), counts.take(i, axis=1)

        return 1 if residual is None else 2, draw
    raise ConfigError(f"not a life law: {model!r}")


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
    _check_budget(2 * width, "a slot's tally")
    cols = np.arange(width)
    k = len(config.query_times)
    tracked = np.array(list(config.query_times) + [horizon])
    offsets = np.arange(per)[:, None]  # an individual's uniforms, from its first

    def run(first: int, size: int) -> tuple:
        slots = min(size, max(1, _TALLY_CELLS // width))
        pending = np.zeros((slots, width), dtype=np.int64)
        deaths = np.zeros((slots, width), dtype=np.int64)
        pending[:, 0] = 1
        flat_pending, flat_deaths = pending.reshape(-1), deaths.reshape(-1)
        rep = np.arange(slots)  # the slot's replicate, counted from first
        start = np.zeros(slots, dtype=np.int64)  # step at which it began
        drawn = np.zeros(slots, dtype=np.int64)  # individuals born so far
        latest = np.zeros(slots, dtype=np.int64)  # latest scheduled birth
        over = np.zeros(slots, dtype=bool)
        last_block = np.empty(slots, dtype=_BLOCK)  # the last lane of each slot's last step
        out = np.empty((size, len(tracked)), dtype=np.int64)
        out_over = np.empty(size, dtype=bool)
        active, queued, step = np.arange(slots), slots, -1
        while active.size:
            step += 1
            t = step - start[active]
            births = flat_pending.take(active * width + t)
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
            # an individual born at the horizon is its replicate's last
            # and takes no uniforms: lives and birth ages are >= 1, so it
            # is alive at the horizon and schedules nothing, and its death,
            # past the horizon, is never read
            draws = np.where(t < horizon, births, 0)
            drawn[rows] += births
            if draws.any():
                # this step's uniforms lie in counter blocks (lanes) of each
                # replicate's stream: the block an earlier step drew and used
                # in part (held), if any, then the blocks drawn now (fresh)
                first_u = per * done
                fresh0 = (first_u + 3) >> 2
                fresh = ((first_u + per * draws + 3) >> 2) - fresh0
                held = (first_u & 3) > 0
                lanes = fresh + held
                lane_end, fresh_end = np.cumsum(lanes), np.cumsum(fresh)
                i = np.arange(fresh_end[-1])
                streams = (first + rep[np.repeat(rows, fresh)]).astype(np.uint64)
                uniforms = philox_uniforms(seed, streams, i + np.repeat(fresh0 + fresh - fresh_end, fresh))
                blocks = np.empty(lane_end[-1] + 1, dtype=_BLOCK)  # a spare last item for rows without lanes
                blocks[i + np.repeat(lane_end - fresh_end, fresh)] = uniforms.view(_BLOCK).reshape(-1)
                blocks[(lane_end - lanes)[held]] = last_block[rows[held]]
                last_block[rows] = blocks[lane_end - 1]
                # individual j of a row takes uniforms per * j, ... from its first
                ind_end = np.cumsum(draws)
                base = 4 * (lane_end - lanes) + (first_u & 3) - per * (ind_end - draws)
                at = np.repeat(base, draws) + per * np.arange(ind_end[-1])
                life, ages, counts = draw(blocks.view(np.float64).take(at + offsets))
                born = np.repeat(t, draws)
                cell = np.repeat(rows * width + t, draws)  # the tally cell of the birth
                np.add.at(flat_deaths, cell + np.minimum(life, horizon + 1 - born), 1)
                ok = (counts > 0) & (ages <= horizon - born)
                cells = (cell + ages)[ok]
                np.add.at(flat_pending, cells, counts[ok])
                np.maximum.at(latest, *np.divmod(cells, width))
            if tripped is not None:
                cut = t[trip]
                pending[tripped] *= cols <= cut[:, None]
                pending[tripped, cut] = kept
            # a replicate ends once it overflows or has no birth scheduled
            # after now; its slot takes the next replicate, if any is left
            end = (latest[rows] <= t) | over[rows]
            if end.any():
                fin = rows[end]
                alive = pending.take(fin, axis=0)
                alive -= deaths.take(fin, axis=0)
                out[rep[fin]] = np.cumsum(alive, axis=1, out=alive).take(tracked, axis=1)
                out_over[rep[fin]] = over[fin]
                new = fin[: max(0, min(fin.size, size - queued))]
                rep[new] = np.arange(queued, queued + new.size)
                queued += new.size
                start[new] = step + 1
                pending[new] = deaths[new] = drawn[new] = latest[new] = 0
                pending[new, 0] = 1
                over[new] = False
                # a refilled slot keeps its place in active; row order
                # reaches no output, and the others leave it
                if new.size < fin.size:
                    keep = np.ones(active.size, dtype=bool)
                    keep[nz[end][new.size :]] = False
                    active = active[keep]
        return out[:, :k], out[:, -1], out_over

    return run


def _run_all(config: SimConfig) -> tuple:
    """The runner's output for replicates 0..replicates-1, k + 1 cells each."""
    _check_budget(config.replicates * (len(config.query_times) + 1), "the result table")
    return _replicate_runner(config)(0, config.replicates)


def _raise_on_overflow(over: np.ndarray, first: int, cap: int) -> None:
    bad = np.flatnonzero(over)
    if bad.size:
        raise BudgetExhausted(f"replicate {first + int(bad[0])} exceeded max_individuals={cap}")


def simulate(config: SimConfig, threads: int = 1) -> SimResult:
    """Run replicates 0..replicates-1.

    `threads` is ignored and kept only for existing callers: replicates
    run in one thread, vectorized across a block of replicates.
    """
    counts, z, over = _run_all(config)
    return SimResult(
        query_times=config.query_times,
        counts=counts,
        survived=(z > 0) & ~over,
        overflowed=over,
        horizon=config.horizon,
        seed=config.seed,
    )


def _block_size(wanted: int) -> int:
    """A block of attempts for `wanted` more, with a quarter and 16 to spare."""
    return wanted + wanted // 4 + 16


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
    seen so far, the first from the exact Q(horizon); none runs past
    max_attempts.  Block sizes change no result.
    """
    target_survivors = _integer(target_survivors, "target_survivors", least=1)
    max_attempts = _integer(max_attempts, "max_attempts", least=1)
    run = _replicate_runner(config)
    try:
        q = float(extinction_seq(config.model, config.horizon).q[config.horizon])
    except CapTooLarge:  # the DP's table would pass its budget
        q = 0.0
    # the first block aims at the target at the rate Q; without a positive
    # Q it is a blind guess
    size = _block_size(math.ceil(target_survivors / q)) if q > 0.0 else 4 * target_survivors
    kept: list = []
    found = first = 0
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
        # aim at the missing survivors at the rate seen so far (the
        # ceiling of missing / rate), or at 4 times the block while none
        # has survived
        size = _block_size(-(-(target_survivors - found) * first // found) if found else 4 * size)
    raise BudgetExhausted(f"{found}/{target_survivors} survivors after {max_attempts} attempts")


@dataclass(frozen=True)
class DichotomyStats:
    horizon: int
    cutoff: int
    survivors: int
    small_fraction: float  # survivors with 1 <= Z(horizon) <= cutoff
    large_fraction: float
    reference_limit: float  # closed-form limit of the small fraction


def default_cutoff(t: int) -> int:
    return math.ceil(math.sqrt(t))


def dichotomy_stats(config: SimConfig) -> DichotomyStats:
    """Split survivors at the horizon into small/large count groups.

    The cutoff, `default_cutoff`, grows without bound but slower than t,
    so the small fraction tends to the probability that the limit count
    at 1 is finite and positive; the cutoff and that limit are the limit
    theorem's, so a model `limit_of` refuses raises ConfigError.  A
    replicate that overflows max_individuals raises BudgetExhausted.
    """
    cut = default_cutoff(_integer(config.horizon, "horizon", 1))
    p, _ = limit_of(config.model)
    _, z, over = _run_all(config)
    _raise_on_overflow(over, 0, config.max_individuals)
    z = z[z > 0]
    n, small = z.size, int((z <= cut).sum())
    return DichotomyStats(
        horizon=config.horizon,
        cutoff=cut,
        survivors=n,
        small_fraction=small / n if n else math.nan,
        large_fraction=1.0 - small / n if n else math.nan,
        reference_limit=dichotomy_fraction(p.c),
    )
