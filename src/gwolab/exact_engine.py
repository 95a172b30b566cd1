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

- children born at death (Bellman-Harris, Sevastyanov): each segment
  sums a life x offspring matrix M[l, r] against per-step compositions
  P[u, r] over its lives, a convolution in time.  Bellman-Harris is rank
  1, M[l] = P(L = l) and P[u] = f(G[u]) for the offspring pgf f;
  Sevastyanov keeps the offspring law by life, M[l, n] = P(L = l, N = n)
  against the power table P[u, n] = G[u]^n.  With unbounded lives a
  divide-and-conquer online convolution costs O(t log^2 t) products; with
  lives of at most max_life steps it costs O(t * max_life).
- scheduled atoms (Tabulated, DelayedDeath): each atom multiplies G at
  its birth ages, and its alive term sums P(L in segment) over the
  segments, O(t * atom reads), where an atom reads G once per child and
  once for its alive term.

A birth-at-death law with finite life is the Tabulated law with one atom
(P(L = l) P(N = n | L = l), ages (l,)*n, life l) for each (l, n) of
positive mass.  On floats, when those atoms read G at most _ATOM_READS
times a step, `_dp` walks them on the scheduled kernel: a step is then a
few float products, where the convolution pays a numpy call for each dot
of one to a few terms.  Past the bound the dots win.  On a series ring
the products dominate, and the atoms would repeat the powers of G that
the composition computes once, so series DPs keep the convolution.

A law conditioned on Z(t_obs) > 0 is (plain - extinct) / Q(t_obs).
plain is the unconditioned DP to t_k; Q(t_obs) takes a scalar DP to
t_obs.  On {Z(t_obs) = 0} every count at or after t_obs is 0, so the
extinct term needs a DP, to horizon t_obs, only over the times before
t_obs and in their variables alone.  With none (t_obs <= t_1, as in
every conditioned law of the `verify` battery) it is the constant
P(Z(t_obs) = 0) from the scalar DP, and the law costs one DP in the
weights' ring.

Weights may be scalars or series variables.  Series coefficients are
flat rows of `series.ring(nvars, cap)`, so a DP table row is one vector,
and the ring picks its own product route; the DP reads only its row and
shape.  The scalar case, shape (), runs the same walk on floats in
`series.Floats`, the same protocol on Python floats.

Each kernel has one step loop for both rings, and a step does only the
work that depends on earlier steps.  What does not (the survival term,
and a scheduled atom's prob * alive) is computed with numpy once per
chunk of at most _LEAF steps, in the order a step would take, so the
bits do not change.  A chunk reads G as `ring.rows` (Python floats on
the scalar ring, which step faster than numpy scalars) and writes it back
once.  The history dots and Sevastyanov's powers stay numpy's: a Python
sum or power rounds differently and would move the outputs in their last
bits.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from . import series
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
from .limitlaw import FddQuery, LimitParams, eta_fdd_pgf, kept_coordinates

_DP_BUDGET = 1 << 23  # cells of one DP table, scalar or series, or of a simulator tally or result table
_LEAF = 128  # steps a leaf of the birth-at-death recursion walks directly; a power of 2
_ATOM_READS = 16  # G reads per step up to which a finite-life birth-at-death law walks as atoms
_CSV_ROWS = 4096  # rows of a CSV formatted per write


class _Var(NamedTuple):
    """Marker: this weight is series variable number `index`."""

    index: int


class FddSpec:
    """Observation times t_1 < ... < t_k with weights z_i in [0, 1].

    Coordinates with z_i = 1 are dropped up front (`kept_coordinates`).
    t_obs, when present, is the survival-conditioning time.
    """

    def __init__(self, times, z, t_obs: Optional[int] = None):
        times = tuple(int(t) for t in times)
        if not times:
            raise ConfigError("need at least one observation time")
        if any(t < 0 for t in times):
            raise ConfigError(f"times {times} must be >= 0")
        if t_obs is not None:
            t_obs = int(t_obs)
            if t_obs < 1:
                raise ConfigError("t_obs must be >= 1")
        self.times, self.z = kept_coordinates(times, z, "times")
        self.t_obs = t_obs

    @classmethod
    def at(cls, q: FddQuery, t: int) -> "FddSpec":
        """The spec of query q at time t: times t + round(t*(y_i - 1)),
        halves rounded up, q's weights, conditioned on Z(t) > 0.

        >>> spec = FddSpec.at(FddQuery((0.5, 1.0, 1.5), (0.0, 0.3, 0.0)), 5)
        >>> spec.times, spec.z, spec.t_obs
        ((3, 5, 8), (0.0, 0.3, 0.0), 5)
        """
        times = tuple(t + math.floor(t * (yi - 1.0) + 0.5) for yi in q.y)
        return cls(times, q.z, t_obs=t)

    @property
    def k(self) -> int:
        return len(self.times)


# ---------------------------------------------------------------------------
# the segment walk
# ---------------------------------------------------------------------------


def _check_budget(size: int, what: str = "DP table") -> None:
    if size > _DP_BUDGET:
        raise CapTooLarge(f"{what} of {size} cells exceeds the budget of {_DP_BUDGET}")


def _table(rows, ring) -> np.ndarray:
    """Zeros of shape rows + ring.row, within the DP table budget."""
    _check_budget(math.prod(rows) * math.prod(ring.row))
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


def _birth_at_death(model, t_max: int, ring, G, phases) -> None:
    """Kernel of Bellman-Harris and Sevastyanov: every child is born when
    the founder dies, so step u sums M[u - m] . P[m] over the sources
    m < u of each segment of each phase, scaled by the segment's
    (scal, var_idx).

    An online convolution fills G by divide and conquer.  A block solves
    its left half, adds the left half's sources into G at the right half's
    steps with a real FFT along time (one per source range), and then
    solves its right half.  A leaf of at most _LEAF steps walks its
    segments as contiguous dots over the sources inside it, on top of what
    G already holds; the leaves run in time order, each after the crosses
    that feed it.  The FFT convolves the complements one - P[m], which
    are O(Q); the `one` part is the survival difference
    surv[u - b] - surv[u - a] for sources [a, b) (every offspring law sums
    to 1), so round-off stays relative to Q, not to 1.  The last leaf's
    block, cut off at t_max, takes its left half in the same complement
    form, by one direct dot per step rather than an FFT over the block.
    Finite lives clip the cross-block work at max_life, and lives of at
    most _LEAF steps make the whole range one leaf.  Of the scalar DPs
    with finite life, `_dp` sends here only those whose atoms would read
    G more than _ATOM_READS times a step.

    A leaf reads G, and the survival term when it adds one, as `ring.rows`
    in chunks of at most _LEAF steps, and writes G back once per chunk.
    A step then only sums its dots and composes P[u], which the next
    step's dots read.  The dots stay numpy's, since BLAS sums in its own
    order, and Sevastyanov's powers stay `g ** np.arange(R)`, since
    Python's float power rounds g^2 differently for some g; either swap
    would move the outputs in their last bits.
    """
    if isinstance(model, BellmanHarris):
        M, surv = _life_tables(model.life, t_max)
        compose = partial(ring.poly, model.offspring.probs.tolist())
    else:
        M, surv = _sevastyanov_rows(model, t_max)
        compose = partial(ring.powers, n=M.shape[1])
    T = t_max + 1
    R = M[0].size
    Mr = np.ascontiguousarray(M[::-1]).ravel()  # Mr[(t_max - l)*R + r] = M[l, r]
    P = _table((T, *M.shape[1:]), ring)  # P[u'] pairs with M[l]
    Pf = P.reshape(T * R, *ring.row)
    max_life = model.life.max_life  # None: unbounded support
    dot = ring.dot
    walks = [
        (u0, u1, [(lo * R, None if hi is None else hi * R, s, v) for lo, hi, s, v in segs], ring.monomial(*prefix))
        for u0, u1, segs, prefix in phases
    ]

    def leaf(a, b, alive):
        """Steps [a, b) from the sources in [a, u), on top of what G
        holds, plus the survival term alive[u] * unit (alive None: G has
        it)."""
        for u0, u1, segs, unit in walks:
            segs = [(max(lo, a * R), hi, s, v) for lo, hi, s, v in segs if hi is None or hi > a * R]
            for c0 in range(max(a, u0), min(b, u1), _LEAF):
                c1 = min(c0 + _LEAF, b, u1)
                g = ring.rows(G[c0:c1])
                late = None if alive is None else ring.rows(np.multiply.outer(alive[c0:c1], unit))
                for u in range(c0, c1):
                    off = (t_max - u) * R
                    # rows of lives l = u - m > max_life are zero: start at m = u - max_life
                    m_min = 0 if max_life is None else (u - max_life) * R
                    total = g[u - c0]
                    for lo, hi, scal, var_idx in segs:
                        if hi is None:
                            hi = u * R
                        if lo < m_min:
                            lo = m_min
                        if lo >= hi:
                            continue
                        block = dot(Mr[off + lo : off + hi], Pf[lo:hi])
                        if var_idx:
                            block = ring.shift(block, var_idx)
                        total += scal * block
                    if late is not None:
                        total = total + late[u - c0]
                    g[u - c0] = total
                    P[u] = compose(total)
                G[c0:c1] = g

    if t_max <= _LEAF or (max_life is not None and max_life <= _LEAF):
        leaf(0, T, surv)
        return

    # G[u] gathers the survival term, then the sums of the sources before u's leaf
    for u0, u1, _, unit in walks:
        G[u0:u1] = np.multiply.outer(surv[u0:u1], unit)
    C = math.prod(ring.row)
    rows = G.reshape(T, C)
    P3 = P.reshape(T, R, C)
    one = np.reshape(ring.monomial(1.0, ()), C)
    kernels = {}  # FFT length -> rfft of M[0:n]

    def cross(lo, mid, hi, direct=False):
        """Add the sources [lo, mid) into G at the steps [mid, hi) (up to
        t_max); the FFT spans the whole block, so blocks of one size share
        one kernel and one FFT length.  direct: each step's convolution of
        the complements is one dot instead, for a block cut off at t_max."""
        if max_life is not None:
            lo, hi = max(lo, mid - max_life), min(hi, mid + max_life)
        pieces = {}  # source range -> [(first step, end step, scal, var_idx)]
        for u0, u1, segs, _ in phases:
            v0, v1 = max(mid, u0), min(hi, u1)
            if v0 >= v1:
                continue
            for s0, s1, scal, var_idx in segs:
                a, b = max(s0, lo), mid if s1 is None else min(s1, mid)
                if a < b:
                    pieces.setdefault((a, b), []).append((v0, v1, scal, var_idx))
        n = hi - lo
        if pieces and not direct and n not in kernels:
            kernels[n] = np.fft.rfft(M[:n].reshape(-1, R, 1), n, axis=0)
        for (a, b), targets in pieces.items():
            if direct:
                comp = np.subtract(one, P3[a:b]).reshape((b - a) * R, *ring.row)
                y = np.zeros((n, C))
                for v in range(mid, min(hi, T)):
                    off = (t_max - v) * R
                    y[v - lo] = dot(Mr[off + a * R : off + b * R], comp)
            else:
                f = np.zeros((n, R, C))
                np.subtract(one, P3[a:b], out=f[a - lo : b - lo])
                f = np.fft.rfft(f, axis=0)
                f *= kernels[n]
                y = np.fft.irfft(f.sum(axis=1), n, axis=0)
            for v0, v1, scal, var_idx in targets:
                sums = np.multiply.outer(surv[v0 - b : v1 - b] - surv[v0 - a : v1 - a], one)
                sums -= y[v0 - lo : v1 - lo]
                if var_idx:
                    sums = ring.shift(sums, var_idx)
                sums *= scal
                rows[v0:v1] += sums

    # The block whose left half ends at leaf start a > 0 spans
    # [a - half, a + half), half = the lowest set bit of a (_LEAF is a power
    # of 2); its cross is due once that left half is done.
    for a in range(0, T, _LEAF):
        half = a & -a
        if half:
            # before the last leaf, direct dots beat one FFT over the block
            cross(a - half, a, a + half, direct=T - a <= _LEAF)
        leaf(a, min(a + _LEAF, T), None)


def _sevastyanov_rows(model: Sevastyanov, t_max: int):
    """M[l, n] = P(L = l) P(N = n | L = l), padded to a common width.

    The offspring law is only queried on the support of L.
    """
    pmf, surv = _life_tables(model.life, t_max)
    laws = {l: model.offspring_by_life(l) for l in range(1, t_max + 1) if pmf[l] > 0.0}
    width = max((len(law.probs) for law in laws.values()), default=1)
    M = _table((t_max + 1, width), series.Floats)
    for l, law in laws.items():
        M[l, : len(law.probs)] = pmf[l] * np.asarray(law.probs)
    return M, surv


def _scheduled(atoms, ring):
    """Kernel of Tabulated and DelayedDeath, and of the short-life
    Bellman-Harris and Sevastyanov laws `_dp` rewrites as atoms: each
    atom (prob, ages, S) has fixed birth ages, and the founder's alive term
    sums P(L in segment) over the segments of the walk.

    Nothing in an atom's alive term depends on G, and the atoms of one life
    share S and so their alive term.  Each chunk of at most _LEAF steps
    computes alive for one distinct S at a time and then prob * alive for
    each atom of that S, for all its steps at once, with numpy and in the
    order a step would take (segments in turn, then the unit term, then
    times prob); elementwise, that gives the same bits.
    A step then only multiplies G at each atom's birth ages, in age order,
    and adds prob * alive times that product.  A chunk reads G as
    `ring.rows` (Python floats on the scalar ring): an age up to _LEAF
    from a window that starts _LEAF steps back, which the steps also write
    and which goes back to G once per chunk; a later age from its own
    slice, which ends before the chunk.  Lists so stay within 2 * _LEAF
    steps, whatever the ages."""
    mul = ring.mul
    far = {tau for _, ages, _ in atoms for tau in ages if tau > _LEAF}
    lives = {}  # each distinct S and the atoms that share it
    for j, (_, _, S) in enumerate(atoms):
        lives.setdefault(id(S), (S, []))[1].append(j)

    def walk(G, u0, u1, segs, prefix):
        segs = [(lo, hi, ring.monomial(s, v)) for lo, hi, s, v in segs]
        unit = ring.monomial(*prefix)
        for c0 in range(u0, u1, _LEAF):
            c1 = min(c0 + _LEAF, u1)
            base = max(c0 - _LEAF, 0)
            g = ring.rows(G[base:c1])  # g[i] is G[base + i]
            src = {}  # age -> (col, off) with G[u - age] = col[u - off]
            for tau in far:
                start = max(c0 - tau, 0)
                src[tau] = (ring.rows(G[start : max(c1 - tau, 0)]), tau + start)
            steps = np.arange(c0, c1)
            terms = [None] * len(atoms)
            for S, members in lives.values():
                at = partial(S.take, mode="clip")  # S ends at its first 0: later reads clip to it
                alive = np.zeros((c1 - c0, *ring.row))
                for lo, hi, mono in segs:
                    alive += np.multiply.outer((S[0] if hi is None else at(steps - hi)) - at(steps - lo), mono)
                alive += np.multiply.outer(at(steps), unit)
                for j in members:
                    prob, ages, _ = atoms[j]
                    reads = [(tau, *src.get(tau, (g, tau + base))) for tau in ages]
                    terms[j] = (reads, ring.rows(prob * alive))
            for u in range(c0, c1):
                acc = 0.0
                for reads, alive in terms:
                    child = None
                    for tau, col, off in reads:
                        if tau > u:
                            break
                        child = col[u - off] if child is None else mul(child, col[u - off])
                    acc += alive[u - c0] if child is None else mul(alive[u - c0], child)
                g[u - base] = acc
            G[c0:c1] = g[c0 - base :]

    return walk


def _short_life_atoms(model):
    """The Tabulated atoms a Bellman-Harris or Sevastyanov law equals,
    (P(L = l) P(N = n | L = l), (l,)*n, l) for each (l, n) of positive
    mass, if its life has finite support and a step of `_scheduled` reads
    G at most _ATOM_READS times over them (n + 1 per atom: its children
    and its alive term); otherwise None."""
    if model.life.max_life is None:
        return None
    pmf = model.life.pmf_array(model.life.max_life)
    lives = np.flatnonzero(pmf).tolist()
    if len(lives) > _ATOM_READS:  # every atom reads at least once
        return None
    atoms = []
    for l in lives:
        law = model.offspring if isinstance(model, BellmanHarris) else model.offspring_by_life(l)
        atoms += [(float(pmf[l]) * p, (l,) * n, l) for n, p in enumerate(law.probs.tolist()) if p > 0.0]
    return atoms if sum(len(ages) + 1 for _, ages, _ in atoms) <= _ATOM_READS else None


def _scheduled_atoms(model, t_max: int):
    """A Tabulated/DelayedDeath law, or a list of Tabulated atoms, as
    (prob, ages, S) with S[u] = P(L > u) for the atom's life, u = 0..t_max.
    S is nonincreasing and kept only up to its first 0; the atoms of one
    life (of one last birth age, for DelayedDeath) share it."""
    u = np.arange(t_max + 1)
    if isinstance(model, DelayedDeath):
        _, residual = _life_tables(model.residual, t_max)
        atoms = [(prob, ages, ages[-1] if ages else 0) for prob, ages in model.schedules]
        survival = lambda last: np.where(u <= last, 1.0, residual[np.maximum(u - last, 0)])  # noqa: E731
    else:
        atoms = model.atoms if isinstance(model, Tabulated) else model
        survival = lambda life: np.where(u < life, 1.0, 0.0)  # noqa: E731
    shared = {}
    for key in {key for _, _, key in atoms}:
        S = survival(key)
        shared[key] = S[: np.argmax(S == 0.0) + 1].copy() if S[-1] == 0.0 else S
    return [(prob, ages, shared[key]) for prob, ages, key in atoms]


def _dp(model: LifeLaw, times, weights, nvars: int = 0, cap: int = 0) -> np.ndarray:
    """G[u] for u = 0..t_k; the pgf at the given times is G[t_k].

    Coefficients have shape (cap+1,)*nvars over the series variables
    among the weights (total degree <= cap); shape () is the scalar case.
    """
    t_max = times[-1]
    _check_budget((t_max + 1) * (cap + 1) ** nvars)  # before the ring, whose tables grow with the same box
    ring = series.ring(nvars, cap) if nvars else series.Floats
    acts = [(t_max - t, w) for t, w in zip(times, weights)]  # (lag, weight)
    G = _table((t_max + 1,), ring)
    starts = sorted({lag for lag, _ in acts})
    phases = [(u0, u1, *_walk_segments(acts, u0)) for u0, u1 in zip(starts, starts[1:] + [t_max + 1])]
    if isinstance(model, (BellmanHarris, Sevastyanov)):
        # on floats, a short finite life walks as Tabulated atoms
        short = None if nvars else _short_life_atoms(model)
        if short is None:
            _birth_at_death(model, t_max, ring, G, phases)
            return G.reshape(t_max + 1, *ring.shape)
        model = short
    elif not isinstance(model, (Tabulated, DelayedDeath)):
        raise UnsupportedModel(f"no DP path for {type(model).__name__}")
    walk = _scheduled(_scheduled_atoms(model, t_max), ring)
    for phase in phases:
        walk(G, *phase)
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
        tq = self.tq
        _survival_csv(fh, range(len(tq)), self.q.tolist(), tq.tolist(), h, np.abs(tq - h).tolist())


def _survival_csv(fh, t, q, tq, limit, error) -> None:
    """Columns t, Q, tQ, limit and |tQ - limit| in csv.writer's layout
    (commas, CRLF, no field needs quotes), floats at full precision.  Each
    row is one '%' format of the columns' Python values, written
    _CSV_ROWS rows at a time; a limit given as one float goes into the
    row format once."""
    if isinstance(limit, float):
        row, cols = "%d,%.17g,%.17g," + "%.17g" % limit + ",%.17g\r\n", (t, q, tq, error)
    else:
        row, cols = "%d,%.17g,%.17g,%.17g,%.17g\r\n", (t, q, tq, limit, error)
    fh.write("t,Q,tQ,h,abs_error\r\n")
    _write_rows(fh, row, cols)


def _write_rows(fh, row: str, cols) -> None:
    """One '%' format of row per index of the columns (sequences of Python
    values), written _CSV_ROWS rows at a time."""
    for a in range(0, len(cols[0]), _CSV_ROWS):
        fh.write("".join([row % r for r in zip(*(c[a : a + _CSV_ROWS] for c in cols))]))


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


def _conditioned(model: LifeLaw, spec: FddSpec, weights, nvars: int = 0, cap: int = 0):
    """E(prod w_i^{Z(t_i)} | Z(t_obs) > 0) at spec's times, for scalar or
    series weights, as (plain - extinct) / Q(t_obs) with plain the
    unconditioned pgf.

    Extinction is permanent here (no births after death of the whole
    population), so on {Z(t_obs) = 0} every count at or after t_obs is 0
    and its weight drops out: extinct = E(prod_{t_i < t_obs}
    w_i^{Z(t_i)}; Z(t_obs) = 0), a DP over the times before t_obs plus a
    weight-0 coordinate at t_obs, to horizon t_obs, in the ring of those
    times' variables alone; it fills the cells where the later variables
    have exponent 0.  With no time before t_obs it is the constant
    P(Z(t_obs) = 0), which the DP for Q(t_obs) already gives.  A series
    numerator with t_1 <= t_obs has constant term P(Z(t_obs) > 0 = Z(t_1))
    = 0, set exactly rather than left as the round-off between two DPs.
    """
    t_obs = spec.t_obs
    if t_obs is None:
        raise ConfigError("spec needs t_obs for conditioning")
    dead = float(_dp(model, (t_obs,), (0.0,))[t_obs])
    q = 1.0 - dead
    if q <= 0.0:
        raise ZeroConditioningEvent(f"Z({t_obs}) > 0 has probability 0")
    plain = _dp(model, spec.times, weights, nvars, cap)[spec.times[-1]] if spec.k else 1.0
    pos = bisect_left(spec.times, t_obs)
    lead = min(pos, nvars)  # the variables of the times before t_obs
    cells = (slice(None),) * lead + (0,) * (nvars - lead)
    num = np.array(plain)
    if pos:
        num[cells] -= _dp(model, spec.times[:pos] + (t_obs,), weights[:pos] + (0.0,), lead, cap)[t_obs]
    else:
        num[cells] -= dead
    if nvars and spec.times[0] <= t_obs:
        num[(0,) * nvars] = 0.0
    return num / q


def conditional_pgf(model: LifeLaw, spec: FddSpec) -> float:
    """E(prod z_i^{Z(t_i)} | Z(t_obs) > 0)."""
    return float(_conditioned(model, spec, spec.z))


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
    if K < 1:
        raise ConfigError("K must be >= 1")
    k = spec.k
    if k == 0:
        raise ConfigError("no coordinates left to extract")
    probs = _conditioned(model, spec, tuple(_Var(i) for i in range(k)), k, K)
    return ConditionalPmf(
        times=spec.times,
        t_obs=spec.t_obs,
        probs=probs,
        overflow=1.0 - float(probs.sum()),
    )


# ---------------------------------------------------------------------------
# scaled-time convergence toward the compound limit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    t: int
    q_k: float
    tq_k: float
    target: float
    abs_error: float


def convergence_table(model: LifeLaw, y, z, t_grid) -> list[ConvergenceRow]:
    """Rows of t * Q_k(t), Q_k(t) = 1 - E(prod z_i^{Z(t_i)}) at the times
    of `FddSpec.at`, against h (1 - `eta_fdd_pgf`).  With the first weight
    below 1 at y_1 = 1, as required, that is h (1 + sqrt(1 + c g)) / (1 +
    sqrt(1 + c)), the root of b x^2 = a x + d g, g = sum_i z_1...z_{i-1}
    (1 - z_i) / y_i^2."""
    q = FddQuery(y, z)
    if not q.k or q.y[0] != 1.0:
        raise ConfigError("the first coordinate of weight below 1 must be at y = 1")
    t_grid = tuple(int(t) for t in t_grid)
    if not t_grid or min(t_grid) < 1:
        raise ConfigError("t_grid needs at least one entry, each >= 1")
    summary = summarize(model)
    target = summary.h * (1.0 - eta_fdd_pgf(LimitParams(summary.c), q))
    rows = []
    for t in t_grid:
        q_k = 1.0 - fdd_pgf(model, FddSpec.at(q, t))
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
    _survival_csv(fh, *([getattr(r, f.name) for r in rows] for f in fields(ConvergenceRow)))
