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

- children born at death (Sevastyanov, Bellman-Harris): each segment
  sums a life x offspring matrix M[l, r] against per-step compositions
  P[u, r] over its lives, a convolution in time.  An empty table is rank
  1, M[l] = P(L = l) and P[u] = f(G[u]) for the default's pgf f; a table
  keeps the offspring law by life, M[l, n] = P(L = l, N = n), against
  the power table P[u, n] = G[u]^n.  With unbounded lives a
  divide-and-conquer online convolution costs O(t log^2 t) products; with
  lives of at most max_life steps it costs O(t * max_life).
- scheduled atoms (DelayedDeath, and Tabulated, which is the scheduled
  law without a residual): each atom multiplies G at its birth ages, and
  its alive term sums P(L in segment) over the segments, O(t * atom
  reads), where an atom reads G once per child and once for its alive
  term.  The DP reads both as (atoms, residual); their file formats
  stay apart.

A birth-at-death law with finite life is the Tabulated law with one atom
(P(L = l) P(N = n | L = l), ages (l,)*n, life l) for each (l, n) of
positive mass.  On floats, when those atoms read G at most _ATOM_READS
times a step, `_dp` walks them on the scheduled kernel, which is still
faster than the compiled float walker: `extinction_seq` at 2^16 took
15 ms against 27 ms on binary splitting (same bits) and 20 against 35 ms
on age-dependent offspring (best of 7, a 2-core VM).  Past the bound the
dots win.  On a series ring the products dominate, and the atoms would
repeat the powers of G that the composition computes once, so series
DPs keep the convolution.

Extinction is absorbing, so a weight z_j = 0 is the event Z(t_j) = 0,
on which every later count is 0: the pgf at t_1..t_k is the pgf at
t_1..t_j.  `_pgf` cuts the query after its first time of weight 0 and
runs the DP to that time only; every pgf read goes through it, and only
`extinction_seq` and `convergence_table`'s rows at weight 0, which read a
whole survival column, call `_dp` themselves.  The
cut belongs to the DP, not to `FddSpec`: a pmf's weight 0 at every time
marks the times to keep as series variables (`_Var`, never cut).

A law conditioned on Z(t_obs) > 0 is (plain - extinct) / Q(t_obs).
plain is the unconditioned DP to t_k; Q(t_obs) takes a scalar DP to
t_obs.  On {Z(t_obs) = 0} every count at or after t_obs is 0, so the
extinct term needs a DP, to horizon t_obs, only over the times before
t_obs and in their variables alone.  With none (t_obs <= t_1, as in
every conditioned law of the `verify` battery) it is the constant
P(Z(t_obs) = 0) from the scalar DP, and the law costs one DP in the
weights' ring.  A float weight 0 at t_j <= t_obs would cut plain and
extinct alike at t_j, into one computation that cancels exactly, so the
law is 0 and runs no DP but Q(t_obs)'s.

Weights may be scalars or series variables.  Series coefficients are
flat rows of `series.ring(nvars, cap)`, so a DP table row is one vector,
and the ring picks its own product route; the DP reads only its row and
shape.  The scalar case, shape (), runs the same walk on floats in
`series.Floats`, the same protocol on Python floats.

Each kernel does in its step loop only the work that depends on earlier
steps.  What does not is settled before the loop: the birth-at-death
kernel puts the survival term into G at every step, once per phase, before
any leaf walks; a scheduled chunk computes its atoms' prob * alive with
numpy in the order a step would take, so the bits do not change, and
resolves the G cells each atom reads.  A scheduled chunk spans as many
steps as _CHUNK_CELLS cells of alive terms allow, a birth-at-death chunk
at most _LEAF steps.  A chunk reads G as `ring.rows` (Python floats on the
scalar ring, which step faster than numpy scalars) and writes it back
once.  On floats a birth-at-death chunk, rank 1 or a Sevastyanov table
alike, runs in sub-blocks of _SUB_STEPS steps: one dot per segment takes
the sources before a sub-block for all its steps, and the sources inside
it and P's cells (the default's Horner sum, or a table's powers of G) are
float products, so a step makes no numpy call.  On series rows a sub-block
would cost ring products, and a step is one dot per segment.

The two step loops that run in Python, a scheduled piece and a float
birth-at-death chunk, are straight-line source generated per shape and
compiled once per process (`_scheduled_steps`, `_leaf_walk`, each an
`lru_cache`).  A scheduled shape is how many G cells each atom reads a
step, and whether the ring's cells are series rows (products by the ring's
`mul`) or floats (`*`); a walker's shape is its sub-block length, its
weighted segments, its shortest life of positive mass, its P cells a step
and its default's coefficients, whatever the route, so a single-leaf DP
and a divide-and-conquer DP of one law share walkers.  The source names no
number: the masses, the coefficients and the 0.0 each sum starts from
enter as values bound to the compiled function, so every model of a shape
shares one compile.  Each product and sum is written out in the order the
interpretive loop took, from the same 0.0, so the columns keep their bits;
the tests keep those loops as references.  A compile costs about 0.2 ms
for a scheduled shape and 0.25 ms (1 step) to 0.8 ms (8 steps) for a
walker (Python 3.11, one pinned core of a 2-core VM): a DP at t = 16 on
heavy_tail_life, which compiles two, takes 1.4 ms the first time in a
process and 71 us after (medians of 7 processes).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple, Optional

import numpy as np

from . import series
from .errors import CapTooLarge, ConfigError, _instance, _integer, _items
from .lifelaw import (
    LifeLaw,
    ModelSummary,
    Scheduled,
    Sevastyanov,
    summarize,
)
from .limitlaw import FddQuery, eta_fdd_pgf, kept_coordinates, limit_of
from .modelio import write_csv

_DP_BUDGET = 1 << 23  # cells of one DP table, scalar or series, or of a simulator tally or result table
_LEAF = 128  # steps a leaf of the birth-at-death recursion walks directly; a power of 2
_ATOM_READS = 16  # G reads per step up to which a finite-life birth-at-death law walks as atoms
_SUB_STEPS = 8  # steps of a birth-at-death sub-block when a step writes one cell (rank 1 on floats)
_CHUNK_CELLS = 1 << 13  # cells of the atoms' alive terms one chunk of the scheduled kernel holds
_FOLD = 16  # operations of one line of a compiled step loop; a longer chain goes on over lines
_SHAPES = 256  # compiled step loops each cache keeps


class _Var(NamedTuple):
    """Marker: this weight is series variable number `index`."""

    index: int


class FddSpec:
    """Observation times t_1 < ... < t_k with weights z_i in [0, 1].

    Coordinates with z_i = 1 are dropped up front (`kept_coordinates`).
    t_obs, when present, is the survival-conditioning time.
    """

    def __init__(self, times, z, t_obs: Optional[int] = None):
        times = _items(times, "times", _integer, "time", 0, nonempty=True, increasing=True)
        if t_obs is not None:
            t_obs = _integer(t_obs, "t_obs", 1)
        self.times, self.z = kept_coordinates(times, z)
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


def _birth_at_death(model, t_max: int, ring, G, phases) -> None:
    """Kernel of the birth-at-death laws: every child is born when
    the founder dies, so step u sums M[u - m] . P[m] over the sources
    m < u of each segment of each phase, scaled by the segment's
    (scal, var_idx).

    G holds the survival term before any leaf walks, on every route: step
    u of a phase starts from surv[u] times the phase's prefix monomial,
    the founder alive at every query time.  An online convolution then
    fills G by divide and conquer.  A block solves its left half, adds the
    left half's sources into G at the right half's steps (`cross`), and
    then solves its right half.  A leaf of at most _LEAF steps walks its
    segments over the sources inside it, on top of what G already holds;
    the leaves run in time order, each after the crosses that feed it.  A
    cross convolves the complements one - P[m], which are O(Q), by a real
    FFT along time (one per source range); the `one` part is the survival
    difference surv[u - b] - surv[u - a] for sources [a, b) (every
    offspring law sums to 1), so round-off stays relative to Q, not to
    1.  It makes only the numpy calls its ring needs: a table's cells are
    summed after the product, a series row's cells broadcast, and a rank-1
    float cross is vectors throughout.  The last leaf's block, cut off at
    t_max, takes its left half in the same complement form, by one direct
    dot per step rather than an FFT over the block.  Finite lives clip the
    cross-block work at max_life, and lives of at most _LEAF steps make
    the whole range one leaf, as does t_max <= _LEAF: that leaf starts
    from the same seeded G, so a single-leaf DP and a divide-and-conquer
    DP of one law share their walkers.  Of the scalar DPs with finite
    life, `_dp` sends here only those whose atoms would read G more than
    _ATOM_READS times a step.

    A leaf reads G as `ring.rows` in chunks of at most _LEAF steps, and
    writes G back once per chunk.  Both walks skip the sources m < u -
    reach, whose lives are past max_life (reach is the horizon for an
    unbounded life).  On series rows a chunk walks step by step: each
    segment's sources are one dot of a row of Mr, and `ring.poly` or
    `ring.powers` composes P[u].  On floats, rank 1 or a table alike,
    `_leaf_walk` compiles one walker per shape, which runs the chunk in
    sub-blocks of _SUB_STEPS steps: one dot per segment, against a slice
    of the Toeplitz table K[x*R + r, c] = M[_LEAF - x + c, r] built once
    per DP, takes the sources before the sub-block for all its steps; the
    sources inside it (all in the segment of weight 1) and P's R cells are
    float products; and P takes the cells through a memoryview.  A step so
    makes no numpy call.  The sums run in another order than one dot per
    step, and a table's powers are products t * t ...: the columns differ
    from such a walk by up to 3e-10 relative at 2^16 (heavy_tail_life,
    heavy_tail_sevastyanov), nearer a long-double reference.  The dots
    stay numpy's, through `ring.dot` on series rows and in the direct
    cross (on floats, einsum past _LONG_DOT terms, which that cross can
    reach, since BLAS splits a long dot across its threads).  A
    sub-block's dot is a vector times a matrix of _SUB_STEPS columns,
    which gave the same bits on 1 and 2 OpenBLAS threads up to 200,000
    rows.
    """
    u = np.arange(t_max + 1)
    pmf, surv = model.life.pmf(u), model.life.survival(u)
    if model.table:
        M = _sevastyanov_rows(model, pmf)
    else:  # rank 1: every life has the default law
        M, coef = pmf, model.default.probs.tolist()
    T = t_max + 1
    R = M[0].size
    Mr = np.ascontiguousarray(M[::-1]).ravel()  # Mr[(t_max - l)*R + r] = M[l, r]
    P = _table((T, *M.shape[1:]), ring)  # P[u'] pairs with M[l]
    Pf = P.reshape(T * R, *ring.row)
    max_life = model.life.max_life  # None: unbounded support
    reach = T if max_life is None else max_life  # lives past reach have no mass
    dot = ring.dot

    if ring.row:  # series rows: one step at a time
        compose = partial(ring.powers, n=R) if model.table else partial(ring.poly, coef)

        def walk(c0, c1, g, segs):
            """The steps [c0, c1): each segment's sources by one dot of a row of Mr."""
            for u in range(c0, c1):
                off = (t_max - u) * R
                total = g[u - c0]
                for lo, hi, scal, var_idx in segs:
                    lo, hi = max(lo, u - reach), u if hi is None else hi
                    if lo >= hi:
                        continue
                    block = dot(Mr[off + lo * R : off + hi * R], Pf[lo * R : hi * R])
                    if var_idx:
                        block = ring.shift(block, var_idx)
                    total += scal * block
                g[u - c0] = total
                P[u] = compose(total)

    else:  # floats: sub-blocks of _SUB_STEPS steps, walked by `_leaf_walk`
        # K[x*R + r, c] = M[_LEAF - x + c, r] (0 past t_max): step s0 + c reads
        # source m at rows x = m - s0 + _LEAF, as a window starts at most
        # _LEAF steps before its sub-block (at its leaf's first step or after,
        # or at s0 - max_life with max_life <= _LEAF)
        head = np.zeros((_LEAF + _SUB_STEPS, R))
        head[: min(T, _LEAF + _SUB_STEPS)] = M.reshape(T, R)[: _LEAF + _SUB_STEPS]
        at = np.add.outer(_LEAF - np.arange(_LEAF), np.arange(_SUB_STEPS))
        K = np.ascontiguousarray(head[at].transpose(0, 2, 1)).reshape(_LEAF * R, _SUB_STEPS)
        # step s0 + i adds M[i], ..., M[shortest] times P[s0], P[s0 + 1], ...:
        # a life shorter than any of positive mass in the sub-block adds nothing
        shortest = next((l for l in range(1, _SUB_STEPS) if head[l].any()), _SUB_STEPS)
        if model.table:
            P[:, 0] = 1.0  # G^0, which the walk does not store
        numbers = (0.0, np.ndarray.dot, Pf, K, [K[(_LEAF - w) * R :] for w in range(min(T, _LEAF + 1))], memoryview(Pf),
                   *head[1:_SUB_STEPS].ravel().tolist(), *([] if model.table else coef))
        shape = (shortest, R, 0 if model.table else len(coef))
        walkers = {}  # (sub-block length, weighted segments) -> its walker, bound to this DP

        def walk(c0, c1, g, segs):
            """The steps [c0, c1): whole sub-blocks, then the rest."""
            (lo0, *_), *weighted = segs  # the segment of hi None, weight 1, comes first
            bounds = [x for lo, hi, scal, _ in weighted for x in (lo, hi, scal)]  # floats: no series variable
            cut = c1 - (c1 - c0) % _SUB_STEPS
            for s, e in ((c0, cut), (cut, c1)):
                if s < e:
                    key = (min(e - s, _SUB_STEPS), len(weighted))
                    run = walkers.get(key) or walkers.setdefault(key, _leaf_walk(*key, *shape)(*numbers))
                    run(g, c0, s, e, reach, lo0, *bounds)

    def leaf(a, b):
        """Steps [a, b) from the sources in [a, u), on top of what G holds."""
        for u0, u1, segs, _ in phases:
            segs = [(max(lo, a), hi, s, v) for lo, hi, s, v in segs if hi is None or hi > a]
            for c0 in range(max(a, u0), min(b, u1), _LEAF):
                c1 = min(c0 + _LEAF, b, u1)
                g = ring.rows(G[c0:c1])
                walk(c0, c1, g, segs)
                G[c0:c1] = g

    # G[u] gathers the survival term, then the sums of the sources before
    # u's leaf (crosses), then those inside it (the leaf's walk)
    for u0, u1, _, prefix in phases:
        G[u0:u1] = np.multiply.outer(surv[u0:u1], ring.monomial(*prefix))
    if t_max <= _LEAF or (max_life is not None and max_life <= _LEAF):
        leaf(0, T)
        return

    one = ring.monomial(1.0)
    kernels = {}  # FFT length -> rfft of M[0:n], over a series row's cells too

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
            for s0, s1, scal, var_idx in segs if v0 < v1 else ():
                a, b = max(s0, lo), mid if s1 is None else min(s1, mid)
                if a < b:
                    pieces.setdefault((a, b), []).append((v0, v1, scal, var_idx))
        n = hi - lo
        if pieces and not direct and n not in kernels:
            kernels[n] = np.fft.rfft(M[:n].reshape(-1, *M.shape[1:], *(1 for _ in ring.row)), n, axis=0)
        for (a, b), targets in pieces.items():
            if direct:
                comp = np.subtract(one, P[a:b]).reshape((b - a) * R, *ring.row)
                y = np.zeros((n, *ring.row))
                for v in range(mid, min(hi, T)):
                    off = (t_max - v) * R
                    y[v - lo] = dot(Mr[off + a * R : off + b * R], comp)
            else:
                f = np.zeros((n, *P.shape[1:]))
                np.subtract(one, P[a:b], out=f[a - lo : b - lo])
                f = np.fft.rfft(f, axis=0)
                f *= kernels[n]
                y = np.fft.irfft(f.sum(axis=1) if model.table else f, n, axis=0)
            for v0, v1, scal, var_idx in targets:
                sums = surv[v0 - b : v1 - b] - surv[v0 - a : v1 - a]
                if ring.row:
                    sums = np.multiply.outer(sums, one)
                sums -= y[v0 - lo : v1 - lo]
                if var_idx:
                    sums = ring.shift(sums, var_idx)
                if scal != 1.0:  # times 1.0 changes no bit
                    sums *= scal
                G[v0:v1] += sums

    # The block whose left half ends at leaf start a > 0 spans
    # [a - half, a + half), half = the lowest set bit of a (_LEAF is a power
    # of 2); its cross is due once that left half is done.
    for a in range(0, T, _LEAF):
        half = a & -a
        if half:
            # before the last leaf, direct dots beat one FFT over the block
            cross(a - half, a, a + half, direct=T - a <= _LEAF)
        leaf(a, min(a + _LEAF, T))


def _sevastyanov_rows(model: Sevastyanov, pmf: np.ndarray) -> np.ndarray:
    """M[l, n] = P(L = l) P(N = n | L = l) for l < pmf.size: pmf times the
    default, then the table's rows.  Its width is the widest law of a life
    of positive mass; a wider default is cut, as no such life reads it."""
    named = {l: law for l, law in model.table.items() if l < pmf.size and pmf[l] > 0.0}
    widths = [law.probs.size for law in named.values()]
    if len(named) < np.count_nonzero(pmf):  # some life of positive mass takes the default
        widths.append(model.default.probs.size)
    M = _table((pmf.size, max(widths, default=1)), series.Floats)
    if model.default is not None:
        default = model.default.probs[: M.shape[1]]
        np.multiply.outer(pmf, default, out=M[:, : default.size])
    for l, law in named.items():
        M[l] = np.pad(pmf[l] * law.probs, (0, M.shape[1] - law.probs.size))
    return M


def _scheduled(atoms, ring, G, phases) -> None:
    """Kernel of the scheduled laws (Tabulated is DelayedDeath's family
    without a residual; the `tabulated` and `delayed_death` file formats
    do not change), and of the short-life birth-at-death laws `_dp`
    rewrites as atoms: each atom (prob, ages, S) has fixed birth ages,
    and the founder's alive term sums P(L in segment) over the segments
    of the walk.

    One step loop serves both rings.  Nothing in an atom's alive term
    depends on G, and the atoms of one life share S and so their alive
    term.  Each chunk computes alive for one distinct S at a time and then
    prob * alive for each atom of that S, for all its steps at once, with
    numpy and in the order a step would take (segments in turn, then the
    unit term, then times prob); elementwise, that gives the same bits.
    A chunk holds at most _CHUNK_CELLS cells of these terms, so its length
    is _CHUNK_CELLS over atoms x row cells (`_chunk_steps`): thousands of
    steps for a few scalar atoms, a few for many atoms on wide rows.

    A chunk reads G as `ring.rows` (Python floats on the scalar ring): an
    age up to the chunk length from a window that starts one chunk back,
    which the steps also write and which goes back to G once per chunk; a
    later age from its own slice, which ends before the chunk.  Lists so
    stay within two chunks, whatever the ages.  Each age resolves to its
    (list, offset) once per chunk.  An age inside the chunk cuts it, and
    each piece reads, for each atom, its ages up to the piece's first
    step, which past the largest age are all of them.  A step then only
    multiplies those cells in age order and adds prob * alive times the
    product (prob * alive alone for an atom with no child born yet).

    The piece's shape, how many cells each atom reads, picks its step
    loop, compiled once per shape (`_scheduled_steps`): straight-line
    source with one product or sum per operation of the written-out loop,
    `*` on floats and the ring's `mul` on series rows, summed atom by atom
    from 0.0.  The piece passes its lists and offsets, and 0.0 and `mul`
    are bound as values, so models of one shape share the compile and
    every step keeps its bits."""
    rows = bool(ring.row)
    chunk = _chunk_steps(atoms, ring)
    ages = sorted({tau for _, taus, _ in atoms for tau in taus})
    lives = {}  # each distinct S and the atoms that share it
    for j, (_, _, S) in enumerate(atoms):
        lives.setdefault(id(S), (S, []))[1].append(j)

    for u0, u1, segs, prefix in phases:
        segs = [(lo, hi, ring.monomial(s, v)) for lo, hi, s, v in segs]
        unit = ring.monomial(*prefix)
        for c0 in range(u0, u1, chunk):
            c1 = min(c0 + chunk, u1)
            base = max(c0 - chunk, 0)
            g = ring.rows(G[base:c1])  # g[i] is G[base + i]
            src = {}  # age -> (col, d) with G[u - age] = col[u - c0 + d]
            for tau in ages:
                if tau <= chunk:
                    src[tau] = (g, c0 - tau - base)
                else:
                    start = max(c0 - tau, 0)
                    src[tau] = (ring.rows(G[start : max(c1 - tau, 0)]), c0 - tau - start)
            steps = np.arange(c0, c1)
            alive, cells = [None] * len(atoms), None  # the last chunk's cells go before this chunk's are built
            for S, members in lives.values():
                at = partial(S.take, mode="clip")  # S ends at its first 0: later reads clip to it
                shared = np.zeros((c1 - c0, *ring.row))
                for lo, hi, mono in segs:
                    shared += np.multiply.outer((S[0] if hi is None else at(steps - hi)) - at(steps - lo), mono)
                shared += np.multiply.outer(at(steps), unit)
                for j in members:
                    alive[j] = ring.rows(atoms[j][0] * shared)
            # an age inside the chunk starts its reads there: cut the steps at it
            cuts = [c0, *ages[bisect_right(ages, c0) : bisect_left(ages, c1)], c1]
            for s0, s1 in zip(cuts, cuts[1:]):
                shape, cells = [], []
                for (_, taus, _), al in zip(atoms, alive):
                    reads = [cell for tau in taus if tau <= s0 for cell in src[tau]]
                    shape.append(len(reads) // 2)
                    cells += [al, *reads]
                run = _scheduled_steps(tuple(shape), rows)(0.0, ring.mul)
                run(g, c0 - base, s0 - c0, s1 - c0, *cells)
            G[c0:c1] = g[c0 - base :]


def _chunk_steps(atoms, ring) -> int:
    """Steps of one chunk of `_scheduled`: its atoms' alive terms hold at
    most _CHUNK_CELLS cells, or one step if that alone holds more."""
    return max(1, _CHUNK_CELLS // (len(atoms) * math.prod(ring.row)))


# ---------------------------------------------------------------------------
# step loops compiled once per shape
# ---------------------------------------------------------------------------


def _fold(name: str, first: str, operands, op):
    """The source of first op x_1 op x_2 ..., left to right, as (lines,
    expr): lines set `name` to the leading part, _FOLD operations a line,
    and expr ends it.  A chain of any length so compiles, where one
    expression nested that deep would overflow Python's compiler."""
    lines, expr = [], first
    for k, x in enumerate(operands):
        if k and k % _FOLD == 0:
            lines.append(f"{name} = {expr}")
            expr = name
        expr = op(expr, x)
    return lines, expr


def _compile(source: str, what: str):
    """The function `make` that source defines, with the source as its
    `source` attribute.  Source names no float: the numbers come in as
    make's arguments, so one compile serves every model of the shape."""
    namespace: dict = {}
    exec(compile(source, f"<gwolab {what}>", "exec"), namespace)
    make = namespace["make"]
    make.source = source
    return make


@lru_cache(maxsize=_SHAPES)
def _scheduled_steps(reads: tuple, rows: bool):
    """The step loop of a `_scheduled` piece whose atom j reads G reads[j]
    times a step, on series rows (rows: products by `mul`) or floats
    (`*`).  make(zero, mul) binds 0.0 and the ring's product and returns
    run(g, gd, i0, i1, *cells), cells holding per atom its terms al and,
    per read, (col, d).  Each step i in [i0, i1) sets g[i + gd] to zero
    plus, atom by atom, al[i] times the product of its col[i + d] in read
    order, or al[i] alone for an atom that reads none."""
    product = (lambda a, b: f"mul({a}, {b})") if rows else (lambda a, b: f"{a} * {b}")
    params, lines, terms = [], [], []
    for j, n in enumerate(reads):
        cells = [f"col{j}_{r}[i + d{j}_{r}]" for r in range(n)]
        params += [f"al{j}", *(f"col{j}_{r}, d{j}_{r}" for r in range(n))]
        if not n:
            terms.append(f"al{j}[i]")
            continue
        pre, child = _fold(f"child{j}", cells[0], cells[1:], product)
        lines += pre
        terms.append(product(f"al{j}[i]", f"({child})"))
    pre, total = _fold("acc", "zero", terms, lambda a, b: f"{a} + {b}")
    body = "".join(f"\n            {line}" for line in [*lines, *pre, f"g[i + gd] = {total}"])
    source = f"""def make(zero, mul):
    def run(g, gd, i0, i1, {", ".join(params)}):
        for i in range(i0, i1):{body}
    return run
"""
    return _compile(source, f"scheduled steps {reads}")


@lru_cache(maxsize=_SHAPES)
def _leaf_walk(n: int, weighted: int, shortest: int, width: int, degree: int):
    """The walker of a float chunk of a `_birth_at_death` leaf, in
    sub-blocks of n steps: `weighted` segments besides the one of weight 1,
    `shortest` the shortest life of positive mass below _SUB_STEPS, and
    `width` P cells a step, the Horner sum of a default law of `degree`
    coefficients (rank 1) or, with degree 0, a table's powers G^0, ...,
    G^(width - 1).  The shape names no route: a single leaf and a leaf of
    the divide-and-conquer recursion find the survival term, and any
    crosses, in G already.  make(zero, dot, Pf, K, Kn, store, M[1, 0], ...,
    M[_SUB_STEPS - 1, width - 1], *coef) binds 0.0, ndarray.dot, the flat
    table P, the Toeplitz table K and its views Kn[w] on the last w
    sources' rows, a memoryview of P, the masses and the law, and returns
    walk(g, c0, s, e, reach, lo0, lo1, hi1, w1, ...), whose list g holds
    G's steps from c0 on.  For s0 = s, s + n, ... < e, with
    m_min = s0 - reach:
    - each weighted segment j in turn whose window [max(lo_j, m_min), hi_j)
      holds a source adds w_j times its window sums, one dot of Pf against
      K, to g;
    - the segment of weight 1 takes its window [max(lo0, m_min), s0) by
      one dot against Kn, or zero for an empty one, as near_i;
    - step i sets t_i = g_i + near_i + M[i, 0] P[s0, 0] + M[i, 1] P[s0, 1]
      + ... + M[shortest, width - 1] P[s0 + i - shortest, width - 1], left
      to right (a table's cell 0 is 1: its mass alone), then its cells: the
      Horner sum (((zero * t_i + coef[-1]) * t_i + coef[-2]) ...) + coef[0],
      or t_i, t_i * t_i, then each power times t_i;
    - g takes the t_i, and store the cells (a table's cell 0 excepted)."""
    R, rest = width, "" if n == _SUB_STEPS else "*_"
    flat = (lambda x: x) if R == 1 else (lambda x: f"({x}) * {R}")
    coefs = [f"f{r}" for r in range(degree)]

    def names(x):
        return "".join(f"{x}{i}, " for i in range(n))

    def cell(i, r):  # None: a table's cell 0, which is 1
        return f"p{i}" if degree else None if r == 0 else f"t{i}" if r == 1 else f"p{i}_{r}"

    bounds = [f"lo{j}, hi{j}, w{j}" for j in range(1, weighted + 1)]
    lines = ["k = s0 - c0", "m_min = s0 - reach", f"{names('g')}= g[k : k + {n}]"]
    for j in range(1, weighted + 1):
        lines += [f"lo = lo{j} if lo{j} > m_min else m_min", f"if lo < hi{j}:",
                  f"    {names('y')}{rest} = dot(Pf[{flat('lo')} : {flat(f'hi{j}')}], "
                  f"K[{flat(f'lo - s0 + {_LEAF}')} : {flat(f'hi{j} - s0 + {_LEAF}')}]).tolist()"]
        lines += [f"    g{i} = g{i} + w{j} * y{i}" for i in range(n)]
    lines += ["lo = lo0 if lo0 > m_min else m_min", "if lo < s0:",
              f"    {names('h')}{rest} = dot(Pf[{flat('lo')} : {flat('s0')}], Kn[s0 - lo]).tolist()",
              "else:", f"    {' = '.join(f'h{i}' for i in range(n))} = zero"]
    for i in range(n):
        terms = [f"m{i - j}_{r}" if cell(j, r) is None else f"m{i - j}_{r} * {cell(j, r)}"
                 for j in range(i - shortest + 1) for r in range(R)]
        pre, total = _fold(f"t{i}", f"g{i} + h{i}", terms, lambda a, b: f"{a} + {b}")
        lines += [*pre, f"t{i} = {total}"]
        if degree:
            pre, value = _fold(f"p{i}", "zero", coefs[::-1], lambda a, c, t=f"t{i}": f"({a}) * {t} + {c}")
            lines += [*pre, f"p{i} = {value}"]
        lines += [f"p{i}_{r} = {cell(i, r - 1)} * t{i}" for r in range(2, 0 if degree else R)]
    base = "s0" if R == 1 else "b"
    lines += [f"g[k : k + {n}] = {names('t')}", *([] if R == 1 else [f"b = s0 * {R}"])]
    lines += [f"store[{base} + {i * R + r}] = {cell(i, r)}" if i * R + r else f"store[{base}] = {cell(i, r)}"
              for i in range(n) for r in range(R) if cell(i, r)]
    masses = [f"m{l}_{r}" for l in range(1, _SUB_STEPS) for r in range(R)]
    body = "".join(f"\n            {line}" for line in lines)
    source = f"""def make({", ".join(["zero, dot, Pf, K, Kn, store", *masses, *coefs])}):
    def walk({", ".join(["g, c0, s, e, reach, lo0", *bounds])}):
        for s0 in range(s, e, {n}):{body}
    return walk
"""
    return _compile(source, f"leaf walk {(n, weighted, shortest, width, degree)}")


def _short_life_atoms(model):
    """The Tabulated atoms a birth-at-death law equals,
    (P(L = l) P(N = n | L = l), (l,)*n, l) for each (l, n) of positive
    mass, if its life has finite support and a step of `_scheduled` reads
    G at most _ATOM_READS times over them (n + 1 per atom: its children
    and its alive term); otherwise None."""
    life = model.life
    if life.max_life is None:
        return None
    lives = [(l, pl) for l, pl in zip(life.support, life.probs) if pl > 0.0]  # no array as long as the longest life
    if len(lives) > _ATOM_READS:  # every atom reads at least once
        return None
    atoms = []
    for l, pl in lives:
        probs = model.offspring_by_life(l).probs.tolist()
        atoms += [(pl * p, (l,) * n, l) for n, p in enumerate(probs) if p > 0.0]
    return atoms if sum(len(ages) + 1 for _, ages, _ in atoms) <= _ATOM_READS else None


def _scheduled_atoms(atoms, residual, t_max: int):
    """Scheduled atoms (prob, ages, base) with a residual life law R or
    None, as (prob, ages, S) with S[u] = P(L > u) for the atom's life
    L = base + R (or base), u = 0..t_max: 1 for u < base, else
    P(R > u - base), which is 1 at u = base, as R >= 1, and 0 without a
    residual.  S is nonincreasing and kept only up to its first 0; the
    atoms of one base share it."""
    u = np.arange(t_max + 1)
    tail = np.zeros(t_max + 1) if residual is None else residual.survival(u)
    shared = {}
    for base in {base for _, _, base in atoms}:
        S = np.where(u < base, 1.0, tail[np.maximum(u - base, 0)])
        shared[base] = S[: np.argmax(S == 0.0) + 1].copy() if S[-1] == 0.0 else S
    return [(prob, ages, shared[base]) for prob, ages, base in atoms]


def _dp(model: LifeLaw, times, weights, nvars: int = 0, cap: int = 0) -> np.ndarray:
    """G[u] for u = 0..t_k; the pgf at the given times is G[t_k].

    Float weights lie in [0, 1): `FddSpec` drops a weight of 1, at which
    the fixed point G = 1 of a supercritical law is unstable and round-off
    would pull G down to extinction or up to overflow.  Coefficients have
    shape (cap+1,)*nvars over the series variables among the weights
    (total degree <= cap); shape () is the scalar case.
    """
    t_max = times[-1]
    _check_budget((t_max + 1) * (cap + 1) ** nvars)  # before the ring, whose tables grow with the same box
    ring = series.ring(nvars, cap) if nvars else series.Floats
    acts = [(t_max - t, w) for t, w in zip(times, weights)]  # (lag, weight)
    G = _table((t_max + 1,), ring)
    starts = sorted({lag for lag, _ in acts})
    phases = [(u0, u1, *_walk_segments(acts, u0)) for u0, u1 in zip(starts, starts[1:] + [t_max + 1])]
    if isinstance(model, Sevastyanov):
        # on floats, a short finite life walks as Tabulated atoms
        atoms, residual = (None if nvars else _short_life_atoms(model)), None
    elif isinstance(model, Scheduled):
        atoms, residual = model.atoms, model.residual
    else:
        raise ConfigError(f"not a life law: {model!r}")
    if atoms is None:
        _birth_at_death(model, t_max, ring, G, phases)
    else:
        _scheduled(_scheduled_atoms(atoms, residual, t_max), ring, G, phases)
    return G.reshape(t_max + 1, *ring.shape)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtinctionTable:
    """Q(t) = P(Z(t) > 0) for t = 0..t_max, plus the model summary."""

    q: np.ndarray
    summary: ModelSummary

    @property
    def tq(self) -> np.ndarray:
        return np.arange(len(self.q)) * self.q

    def to_csv(self, fh) -> None:
        h, tq = self.summary.h, self.tq
        _survival_csv(fh, np.arange(len(tq)), self.q, tq, h, np.abs(tq - h))


def _survival_csv(fh, t, q, tq, limit: float, error) -> None:
    """Columns t, Q, tQ, limit and |tQ - limit|, floats at full precision;
    the limit, shared by every row, goes into the row format once."""
    row = "%d,%.17g,%.17g," + "%.17g" % limit + ",%.17g"
    write_csv(fh, ["t", "Q", "tQ", "h", "abs_error"], row, (t, q, tq, error))


def extinction_seq(model: LifeLaw, t_max: int) -> ExtinctionTable:
    """Survival probabilities by one DP pass (time-homogeneous, so the
    whole column falls out of a single run at weight 0), clipped to
    [0, 1]: for a law that never dies out the DP's round-off, largest in
    relative terms where Q is near 1, would carry Q past 1."""
    t_max = _integer(t_max, "t_max", 0)
    q = 1.0 - _dp(model, (t_max,), (0.0,))
    np.clip(q, 0.0, 1.0, out=q)
    return ExtinctionTable(q=q, summary=summarize(model))


def _first_zero(weights) -> Optional[int]:
    """The index of the first float weight 0 (a `_Var` is never one), or None."""
    return next((i for i, w in enumerate(weights) if not isinstance(w, _Var) and w == 0.0), None)


def _pgf(model: LifeLaw, times, weights, nvars: int = 0, cap: int = 0):
    """The pgf at the given times, by one `_dp` to the first time of float
    weight 0, or to t_k if there is none."""
    j = _first_zero(weights)
    if j is None:
        j = len(times) - 1
    return _dp(model, times[: j + 1], weights[: j + 1], nvars, cap)[times[j]]


def fdd_pgf(model: LifeLaw, spec: FddSpec) -> float:
    """E(z_1^{Z(t_1)} ... z_k^{Z(t_k)}); a time after one of weight 0 is
    ignored and costs no DP steps."""
    if _instance(spec, FddSpec, "spec").k == 0:
        return 1.0
    return float(_pgf(model, spec.times, spec.z))


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
    A float weight 0 at t_j <= t_obs makes plain and extinct one DP, to
    t_j: then the value is exactly 0, and no DP but Q(t_obs)'s runs.
    """
    t_obs = spec.t_obs
    if t_obs is None:
        raise ConfigError("spec needs t_obs for conditioning")
    dead = float(_pgf(model, (t_obs,), (0.0,)))
    q = 1.0 - dead
    if q <= 0.0:
        raise ConfigError(f"t_obs {t_obs}: Z({t_obs}) > 0 has probability 0")
    j = _first_zero(weights)
    if j is not None and spec.times[j] <= t_obs:
        return 0.0
    plain = _pgf(model, spec.times, weights, nvars, cap) if spec.k else 1.0
    pos = bisect_left(spec.times, t_obs)
    lead = min(pos, nvars)  # the variables of the times before t_obs
    cells = (slice(None),) * lead + (0,) * (nvars - lead)
    num = np.array(plain)
    if pos:
        num[cells] -= _pgf(model, spec.times[:pos] + (t_obs,), weights[:pos] + (0.0,), lead, cap)
    else:
        num[cells] -= dead
    if nvars and spec.times[0] <= t_obs:
        num[(0,) * nvars] = 0.0
    return num / q


def conditional_pgf(model: LifeLaw, spec: FddSpec) -> float:
    """E(prod z_i^{Z(t_i)} | Z(t_obs) > 0).  A time after one of weight 0
    is ignored and costs no DP steps; with a weight 0 at or before t_obs
    the value is exactly 0, after the one DP for Q(t_obs)."""
    return float(_conditioned(model, _instance(spec, FddSpec, "spec"), spec.z))


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
    k = _instance(spec, FddSpec, "spec").k
    K = _integer(K, "K", 1)
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
    of `FddSpec.at`, against h (1 - `eta_fdd_pgf`), c and h from
    `limit_of`.  With the first weight below 1 at y_1 = 1, as required,
    that is h (1 + sqrt(1 + c g)) / (1 + sqrt(1 + c)), the root of b x^2 =
    a x + d g, g = sum_i z_1...z_{i-1} (1 - z_i) / y_i^2.  The times after
    the first weight 0 are ignored and cost no DP steps (`fdd_pgf`).  With
    z_1 = 0 the rows are t Q(t) against h, read from one survival column,
    the DP to the largest t, unclipped.  Where a DP to t alone would end
    on its last leaf's direct dots (an unbounded birth-at-death life at a
    t that is not a power of 2), a row so carries the column's last bits."""
    q = FddQuery(y, z)
    if not q.k or q.y[0] != 1.0:
        raise ConfigError("the first coordinate of weight below 1 must be at y = 1")
    t_grid = _items(t_grid, "t_grid", _integer, "grid point", 1, nonempty=True)
    p, h = limit_of(model)
    target = h * (1.0 - eta_fdd_pgf(p, q))
    if q.z[0] == 0.0:  # Z(t) = 0 ends the query at t
        dead = _dp(model, (max(t_grid),), (0.0,))
        q_ks = [1.0 - float(dead[t]) for t in t_grid]
    else:
        q_ks = [1.0 - fdd_pgf(model, FddSpec.at(q, t)) for t in t_grid]
    return [
        ConvergenceRow(t=t, q_k=q_k, tq_k=t * q_k, target=target, abs_error=abs(t * q_k - target))
        for t, q_k in zip(t_grid, q_ks)
    ]


def convergence_csv(rows, fh) -> None:
    """The rows of `convergence_table`, which share one target."""
    t, q_k, tq_k, error = (np.array([getattr(r, f) for r in rows]) for f in ("t", "q_k", "tq_k", "abs_error"))
    _survival_csv(fh, t, q_k, tq_k, rows[0].target, error)
