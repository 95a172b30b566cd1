"""Deterministic dynamic programming for the overlapping-generation
branching process: extinction tables, multi-time pgfs, and
survival-conditioned joint distributions.

One recursion covers everything.  For query times t_1 < ... < t_k with
weights z_i, the founder (life L, children at ages tau_1 <= ... <= tau_N)
satisfies

    P(t_1..t_k) = E[ prod_{i: 0 <= t_i < L} z_i * prod_j P(t_1-tau_j..t_k-tau_j) ]

where a query time that has gone negative simply drops out.  Since every
shift moves all times in lockstep, the memo is one-dimensional: index by
u = time remaining until the last query.

One DP, `_dp`, runs this recursion for every model variant.  Between two
consecutive lags t_k - t_i the founder's lives split into the same
segments at every step (the segments of which query times it outlives),
so the segment layout is worked out once per phase.  Two kernels walk it:

- children born at death (Bellman-Harris, Sevastyanov): each segment is
  one contiguous dot of a life x offspring matrix M[l, r] against
  per-step compositions P[u, r].  Bellman-Harris is rank 1, M[l] = P(L = l)
  and P[u] = f(G[u]) for the offspring pgf f; Sevastyanov keeps the
  offspring law by life, M[l, n] = P(L = l, N = n) against the power
  table P[u, n] = G[u]^n.
- scheduled atoms (Tabulated, DelayedDeath): each atom multiplies G at
  its birth ages, and its alive term sums P(L in segment) over the
  segments.

Weights may be scalars or series variables.  Coefficients then have shape
(cap+1,)*nvars in the truncated series ring, and shape () is the scalar
case: the same walk runs with floats or with coefficient arrays.  A
series product is `series.dense_mul`: in two or three variables at small
caps a cached pair table and one `np.bincount`, so no term past the cap
is formed; in one variable a direct convolution; at large caps an FFT.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import astuple, dataclass
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    CapTooLarge,
    ConfigError,
    DivergentMoment,
    UnsupportedModel,
    ZeroConditioningEvent,
)
from .lifelaw import (
    BellmanHarris,
    DelayedDeath,
    LifeLaw,
    ModelSummary,
    Sevastyanov,
    Tabulated,
    summarize,
)
from .series import dense_mul, monomial, poly_of_series, shift_monomial

_SERIES_BUDGET = 1 << 23  # floats held by one series DP table


class _Var(NamedTuple):
    """Marker: this weight is series variable number `index`."""

    index: int


class FddSpec:
    """Observation times t_1 < ... < t_k with weights z_i in [0, 1].

    Coordinates with z_i = 1 are dropped up front (a weight of 1 does not
    constrain anything: counts are finite with probability one).  t_obs,
    when present, is the survival-conditioning time.
    """

    def __init__(self, times, z, t_obs: Optional[int] = None):
        times = tuple(int(t) for t in times)
        z = tuple(float(v) for v in z)
        if len(times) != len(z):
            raise ConfigError("times and z must have equal length")
        if not times:
            raise ConfigError("need at least one observation time")
        if any(t < 0 for t in times):
            raise ConfigError(f"times {times} must be >= 0")
        if any(times[i] >= times[i + 1] for i in range(len(times) - 1)):
            raise ConfigError(f"times {times} must be strictly increasing")
        if any(not 0.0 <= v <= 1.0 for v in z):
            raise ConfigError(f"weights {z} must lie in [0, 1]")
        if t_obs is not None:
            t_obs = int(t_obs)
            if t_obs < 1:
                raise ConfigError("t_obs must be >= 1")
        kept = [(t, v) for t, v in zip(times, z) if v != 1.0]
        self.times = tuple(t for t, _ in kept)
        self.z = tuple(v for _, v in kept)
        self.t_obs = t_obs

    @property
    def k(self) -> int:
        return len(self.times)


# ---------------------------------------------------------------------------
# coefficient rings: floats, or flat truncated series
# ---------------------------------------------------------------------------


def _horner(coef, x):
    r = 0.0
    for c in reversed(coef):
        r = r * x + c
    return r


class _Floats:
    """Scalar coefficients, the ring of the DP at coefficient shape ()."""

    shape = ()
    row = ()
    mul = staticmethod(operator.mul)
    poly = staticmethod(_horner)

    @staticmethod
    def powers(x, n: int):
        return x ** np.arange(n)

    @staticmethod
    def monomial(scal: float, var_idx) -> float:
        return scal


class _Series:
    """Coefficient arrays over z-exponents of shape (cap+1,)*nvars,
    truncated at total degree cap.  They are kept flat so that a DP table
    row is one vector; the series ops see them in their own shape."""

    def __init__(self, nvars: int, cap: int):
        self.nvars = nvars
        self.cap = cap
        self.shape = (cap + 1,) * nvars
        self.row = (math.prod(self.shape),)

    def _exps(self, var_idx) -> list:
        return [var_idx.count(i) for i in range(self.nvars)]

    def mul(self, a, b):
        return dense_mul(a.reshape(self.shape), b.reshape(self.shape), self.cap).ravel()

    def poly(self, coef, x):
        return poly_of_series(coef, x.reshape(self.shape), self.cap).ravel()

    def powers(self, x, n: int) -> list:
        out = [self.monomial(1.0, ()), x][:n]
        while len(out) < n:
            out.append(self.mul(out[-1], x))
        return out

    def monomial(self, scal: float, var_idx):
        return monomial(scal, self._exps(var_idx), self.cap).ravel()

    def shift(self, x, var_idx):
        return shift_monomial(x.reshape(self.shape), self._exps(var_idx), self.cap).ravel()


# ---------------------------------------------------------------------------
# the segment walk
# ---------------------------------------------------------------------------


def _table(rows, ring) -> np.ndarray:
    """Zeros of shape rows + ring.row, within the budget for series tables."""
    size = math.prod(rows) * math.prod(ring.row)
    if ring.row and size > _SERIES_BUDGET:
        raise CapTooLarge(f"series table of {size} coefficients exceeds the budget of {_SERIES_BUDGET}")
    return np.zeros((*rows, *ring.row))


def _walk_segments(acts, u):
    """Segment layout shared by every step of the phase that starts at u.

    acts holds (lag_i, z_i) in time order, lag_i = t_k - t_i.  Coordinate
    i is active at steps u' >= lag_i, and a founder of life l is alive at
    it iff l > u' - lag_i.  A phase runs from one lag to the next, so its
    active coordinates are fixed.  Segment (lo, hi, scal, var_idx) covers
    lives l = u' - m for m in [lo, hi) (hi None: up to u'); those founders
    are alive at the coordinates before it, which weigh scal times the
    variables var_idx.  Weight-0 and empty segments are dropped.  Also
    returns the full prefix (scal, var_idx), for a founder alive at every
    coordinate.
    """
    segs = []
    scal = 1.0
    var_idx: tuple = ()
    hi = None
    for lag, z in acts:
        if lag > u:
            continue
        if scal != 0.0 and hi != lag:
            segs.append((lag, hi, scal, var_idx))
        if isinstance(z, _Var):
            var_idx = var_idx + (z.index,)
        else:
            scal *= z
        hi = lag
    return segs, (scal, var_idx)


def _life_tables(life, t_max: int):
    """pmf[l] = P(L = l) and surv[u] = P(L > u) for 0 <= l, u <= t_max."""
    return life.pmf_array(t_max), life.survival_array(t_max)


def _birth_at_death(model, t_max: int, ring):
    """Kernel of Bellman-Harris and Sevastyanov: every child is born when
    the founder dies, so a segment of lives contributes
    sum_l M[l] . P[u - l], one contiguous dot (see the module docstring).
    """
    if isinstance(model, BellmanHarris):
        M, surv = _life_tables(model.life, t_max)
        compose = partial(ring.poly, model.offspring.probs)
    else:
        M, surv = _sevastyanov_rows(model, t_max)
        compose = partial(ring.powers, n=M.shape[1])
    R = M[0].size
    Mr = np.ascontiguousarray(M[::-1]).ravel()  # Mr[(t_max - l)*R + r] = M[l, r]
    P = _table((t_max + 1, *M.shape[1:]), ring)  # P[u'] pairs with M[l]
    Pf = P.reshape((t_max + 1) * R, *ring.row)
    surv = surv.tolist()
    max_life = model.life.max_life  # None: unbounded support

    def walk(G, u0, u1, segs, prefix):
        segs = [(lo * R, None if hi is None else hi * R, s, v) for lo, hi, s, v in segs]
        unit = ring.monomial(*prefix)
        for u in range(u0, u1):
            off = (t_max - u) * R
            # rows of lives l = u - m > max_life are zero: start at m = u - max_life
            m_min = 0 if max_life is None else (u - max_life) * R
            total = 0.0
            for lo, hi, scal, var_idx in segs:
                if hi is None:
                    hi = u * R
                lo = max(lo, m_min)
                if lo >= hi:
                    continue
                block = np.dot(Mr[off + lo : off + hi], Pf[lo:hi])
                if var_idx:
                    block = ring.shift(block, var_idx)
                total += scal * block
            G[u] = g = total + surv[u] * unit
            P[u] = compose(g)

    return walk


def _sevastyanov_rows(model: Sevastyanov, t_max: int):
    """M[l, n] = P(L = l) P(N = n | L = l), padded to a common width.

    The offspring law is only queried on the support of L.
    """
    pmf, surv = _life_tables(model.life, t_max)
    laws = {l: model.offspring_by_life(l) for l in range(1, t_max + 1) if pmf[l] > 0.0}
    width = max((len(law.probs) for law in laws.values()), default=1)
    M = np.zeros((t_max + 1, width))
    for l, law in laws.items():
        M[l, : len(law.probs)] = pmf[l] * np.asarray(law.probs)
    return M, surv


def _scheduled(model, t_max: int, ring):
    """Kernel of Tabulated and DelayedDeath: each atom has fixed birth
    ages, and the founder's alive term sums P(L in segment) over the
    segments of the walk."""
    atoms = _scheduled_atoms(model, t_max)
    mul = ring.mul

    def walk(G, u0, u1, segs, prefix):
        segs = [(lo, hi, ring.monomial(s, v)) for lo, hi, s, v in segs]
        unit = ring.monomial(*prefix)
        for u in range(u0, u1):
            acc = 0.0
            for prob, ages, S in atoms:
                child = None
                for tau in ages:
                    if tau > u:
                        break
                    child = G[u - tau] if child is None else mul(child, G[u - tau])
                alive = 0.0
                for lo, hi, mono in segs:
                    alive += mono * (S[0 if hi is None else u - hi] - S[u - lo])
                alive += unit * S[u]
                acc += prob * alive if child is None else mul(prob * alive, child)
            G[u] = acc

    return walk


def _scheduled_atoms(model, t_max: int):
    """Tabulated/DelayedDeath as (prob, ages, S) with S[u] = P(L > u) for
    the atom's life, u = 0..t_max."""
    n = t_max + 1
    if isinstance(model, Tabulated):
        return [
            (prob, ages, [1.0] * min(life, n) + [0.0] * max(n - life, 0))
            for prob, ages, life in model.atoms
        ]
    _, residual = _life_tables(model.residual, t_max)
    atoms = []
    for prob, ages in model.schedules:
        last = ages[-1] if ages else 0
        S = [1.0] * min(last + 1, n) + residual[1 : max(n - last, 1)].tolist()
        atoms.append((prob, ages, S))
    return atoms


def _dp(model: LifeLaw, times, weights, nvars: int = 0, cap: int = 0) -> np.ndarray:
    """G[u] for u = 0..t_k; the pgf at the given times is G[t_k].

    Coefficients have shape (cap+1,)*nvars over the series variables
    among the weights (total degree <= cap); shape () is the scalar case.
    """
    t_max = times[-1]
    ring = _Series(nvars, cap) if nvars else _Floats
    if isinstance(model, (BellmanHarris, Sevastyanov)):
        walk = _birth_at_death(model, t_max, ring)
    elif isinstance(model, (Tabulated, DelayedDeath)):
        walk = _scheduled(model, t_max, ring)
    else:
        raise UnsupportedModel(f"no DP path for {type(model).__name__}")
    acts = [(t_max - t, w) for t, w in zip(times, weights)]  # (lag, weight)
    G = _table((t_max + 1,), ring)
    starts = sorted({lag for lag, _ in acts})
    for u0, u1 in zip(starts, starts[1:] + [t_max + 1]):
        walk(G, u0, u1, *_walk_segments(acts, u0))
    return G.reshape(t_max + 1, *ring.shape)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtinctionTable:
    """Q(t) = P(Z(t) > 0) for t = 0..t_max, plus the model summary."""

    q: np.ndarray
    summary: Optional[ModelSummary]

    @property
    def tq(self) -> np.ndarray:
        return np.arange(len(self.q)) * self.q

    def to_csv(self, fh) -> None:
        h = self.summary.h if self.summary is not None else math.nan
        rows = ((t, q, tq, h, abs(tq - h)) for t, (q, tq) in enumerate(zip(self.q, self.tq)))
        _survival_csv(rows, fh)


def _survival_csv(rows, fh) -> None:
    """Rows (t, Q, tQ, limit, |tQ - limit|), floats at full precision."""
    writer = csv.writer(fh)
    writer.writerow(["t", "Q", "tQ", "h", "abs_error"])
    for t, *vals in rows:
        writer.writerow([t] + [format(x, ".17g") for x in vals])


def extinction_seq(model: LifeLaw, t_max: int) -> ExtinctionTable:
    """Survival probabilities by one DP pass (time-homogeneous, so the
    whole column falls out of a single run at weight 0)."""
    if t_max < 0:
        raise ConfigError("t_max must be >= 0")
    dead = _dp(model, (t_max,), (0.0,))
    try:
        summary = summarize(model)
    except DivergentMoment:
        summary = None
    return ExtinctionTable(q=1.0 - dead, summary=summary)


def fdd_pgf(model: LifeLaw, spec: FddSpec) -> float:
    """E(z_1^{Z(t_1)} ... z_k^{Z(t_k)})."""
    if spec.k == 0:
        return 1.0
    return float(_dp(model, spec.times, spec.z)[spec.times[-1]])


def _survival_at(model: LifeLaw, t_obs: int) -> float:
    q = 1.0 - float(_dp(model, (t_obs,), (0.0,))[t_obs])
    if q <= 0.0:
        raise ZeroConditioningEvent(f"Z({t_obs}) > 0 has probability 0")
    return q


def _with_inserted_zero(times, weights, t_obs):
    """Insert the conditioning coordinate (t_obs, weight 0), keeping times
    sorted; ties may go anywhere since equal times commute."""
    merged = list(zip(times, weights))
    pos = 0
    while pos < len(merged) and merged[pos][0] <= t_obs:
        pos += 1
    merged.insert(pos, (t_obs, 0.0))
    return tuple(t for t, _ in merged), tuple(w for _, w in merged)


def conditional_pgf(model: LifeLaw, spec: FddSpec) -> float:
    """E(prod z_i^{Z(t_i)} | Z(t_obs) > 0).

    Extinction is permanent here (no births after death of the whole
    population), so E(prod z_i^{Z(t_i)}; Z(t_obs) = 0) is exactly the
    same pgf with an extra weight-0 coordinate at t_obs.
    """
    if spec.t_obs is None:
        raise ConfigError("spec needs t_obs for conditioning")
    q = _survival_at(model, spec.t_obs)
    p_plain = fdd_pgf(model, spec)
    times, weights = _with_inserted_zero(spec.times, spec.z, spec.t_obs)
    p_extinct = float(_dp(model, times, weights)[times[-1]])
    return (p_plain - p_extinct) / q


@dataclass(frozen=True)
class ConditionalPmf:
    times: tuple
    t_obs: int
    probs: np.ndarray  # shape (K+1,)*k, total degree <= K
    overflow: float  # mass beyond total count K


def conditional_pmf(model: LifeLaw, spec: FddSpec, K: int) -> ConditionalPmf:
    """Joint pmf of (Z(t_1), ..., Z(t_k)) given Z(t_obs) > 0, for total
    counts up to K, over spec.times.  The weights become variables, but
    FddSpec has already dropped the times whose weight is 1, so give
    weight 0 at every time the pmf should cover."""
    if spec.t_obs is None:
        raise ConfigError("spec needs t_obs for conditioning")
    if K < 1:
        raise ConfigError("K must be >= 1")
    k = spec.k
    if k == 0:
        raise ConfigError("no coordinates left to extract")
    q = _survival_at(model, spec.t_obs)
    variables = tuple(_Var(i) for i in range(k))
    plain = _dp(model, spec.times, variables, k, K)[spec.times[-1]]
    times, weights = _with_inserted_zero(spec.times, variables, spec.t_obs)
    extinct = _dp(model, times, weights, k, K)[times[-1]]
    probs = (plain - extinct) / q
    return ConditionalPmf(
        times=spec.times,
        t_obs=spec.t_obs,
        probs=probs,
        overflow=1.0 - float(probs.sum()),
    )


# ---------------------------------------------------------------------------
# scaled-time convergence toward the compound limit
# ---------------------------------------------------------------------------


def g_factor(y, z) -> float:
    """g = sum z_1...z_{i-1} (1 - z_i) / y_i^2."""
    total = 0.0
    prefix = 1.0
    for yi, zi in zip(y, z):
        total += prefix * (1.0 - zi) / (yi * yi)
        prefix *= zi
    return total


def weighted_survival_limit(summary: ModelSummary, g: float) -> float:
    """The limit of t * (1 - pgf at times t*y): root of b*x^2 = a*x + d*g."""
    if summary.b <= 0.0:
        return math.inf
    a, b, d = summary.a, summary.b, summary.d
    return (a + math.sqrt(a * a + 4.0 * b * d * g)) / (2.0 * b)


@dataclass(frozen=True)
class ConvergenceRow:
    t: int
    q_k: float
    tq_k: float
    target: float
    abs_error: float


def scaled_times(t: int, y) -> tuple:
    """Observation times t_i = t + round(t*(y_i - 1)), halves rounded up."""
    return tuple(t + int(math.floor(t * (yi - 1.0) + 0.5)) for yi in y)


def convergence_table(model: LifeLaw, y, z, t_grid) -> list[ConvergenceRow]:
    """Rows of t * Q_k(t) against the closed-form limit, with
    Q_k(t) = 1 - E(prod z_i^{Z(t_i)}) at times t_i = t + round(t*(y_i - 1))."""
    y = tuple(float(v) for v in y)
    z = tuple(float(v) for v in z)
    if not y or y[0] != 1.0:
        raise ConfigError("y must start at 1")
    if z and z[0] == 1.0:
        # FddSpec drops a weight-1 coordinate, and the limit assumes t is kept
        raise ConfigError("z must not start at 1")
    if any(y[i] >= y[i + 1] for i in range(len(y) - 1)):
        raise ConfigError(f"fractions {y} must be strictly increasing")
    if len(y) != len(z):
        raise ConfigError("y and z must have equal length")
    summary = summarize(model)
    target = weighted_survival_limit(summary, g_factor(y, z))
    rows = []
    for t in t_grid:
        t = int(t)
        if t < 1:
            raise ConfigError("t_grid entries must be >= 1")
        q_k = 1.0 - fdd_pgf(model, FddSpec(scaled_times(t, y), z))
        rows.append(
            ConvergenceRow(
                t=t,
                q_k=q_k,
                tq_k=t * q_k,
                target=target,
                abs_error=abs(t * q_k - target),
            )
        )
    return rows


def convergence_csv(rows, fh) -> None:
    _survival_csv(map(astuple, rows), fh)
