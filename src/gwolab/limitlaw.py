"""Finite-dimensional laws of the limiting pure death process.

Conditioned on survival up to a late time t, the population counts at
times t*y rescale to a single-parameter pure death process eta(y) that
starts from infinitely many particles and loses them as y grows.  The
parameter c >= 0 is the compound tail/dispersion parameter of the
underlying life law; c = 0 collapses eta to the two-point {0, infinity}
regime.

Everything here is a closed-form evaluation: fdd probability generating
functions, marginal and joint pmfs (by series extraction), the law of
the entry time T = sup{u : eta(u) = infinity} and the density of the
emptying time T0 = inf{u : eta(u) = 0}.  Infinite mass is reported as an
explicit field, never folded into a truncation bucket.

The joint pgf is one expression, `_fdd_pgf`, over the ring protocol of
`series`: floats for `eta_fdd_pgf`, `eta_marginal_pgf` and the target of
`exact_engine.convergence_table`, rows of `series.ring(k, K)` for
`eta_fdd_pmf`.  Other forms restate its roots, time ratios frozen in
them, for a reason each: `eta_marginal_pmf`'s binomial route is the
reference for `eta_fdd_pmf` at k = 1 (`test_05`, the benchmark's k = 1
check); `prob_finite` (P(eta(y) < inf), the cdf of T) and `LawT` are
vectorized over y; `dichotomy_fraction` is an exact case whose bits the
seeded digests hold.  A restated form checks nothing.
The checks are the tests' complex transcriptions by Cauchy sums (of the
series extraction), and the DP and Monte Carlo (of the law itself).

The sampler of T (which the benchmark calls for 5*10^5 draws) and the
densities of T and T0 (which `figure1_data` calls on its whole grid)
allocate their output once and hold little else: the right branch runs
in place on the whole output, and T's left branch on a copy of the
draws or points left of 1, which then overwrites them.  `figure1_data`
writes its columns into one table, 400 MB at its 2^24-row budget.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import series
from .errors import CapTooLarge, ConfigError, _instance, _integer, _items, _number
from .lifelaw import LifeLaw, summarize

logger = logging.getLogger(__name__)

_PMF_ELEMENT_BUDGET = 1 << 24  # entries of the (2K+1)^k box a product transforms, or of a figure's grid
_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class LimitParams:
    """Parameter pack of the limit process: c, a finite number >= 0, as a float."""

    c: float

    def __post_init__(self):
        object.__setattr__(self, "c", _number(self.c, "c", 0))

    @property
    def scale(self) -> float:
        """The recurring normalization 1 + sqrt(1 + c)."""
        return 1.0 + math.sqrt(1.0 + self.c)


def limit_of(model: LifeLaw) -> tuple[LimitParams, float]:
    """(LimitParams, h) of a model the limit theorem covers: a critical
    one with b > 0.  a > 0 and a finite c follow: every birth age is >= 1,
    so a >= E N = 1 (for a Sevastyanov law a = E(N L) >= 1), and a
    quadratic tail's d is finite."""
    s = summarize(model)
    if not (s.critical and s.b > 0.0):
        raise ConfigError(f"the limit needs a critical model with b > 0: E N = {s.mean_offspring!r}, b = {s.b!r}")
    return LimitParams(s.c), s.h


def kept_coordinates(points, z) -> tuple:
    """(points, z) of a query without its weight-1 coordinates, after
    checking z: a weight in [0, 1] per point.  A weight of 1 constrains
    nothing (counts are finite with probability one), and the closed forms
    assume z_i < 1."""
    z = _items(z, "z", _number, "weights:", 0, 1, size=len(points))
    kept = [(x, v) for x, v in zip(points, z) if v != 1.0]
    return tuple(x for x, _ in kept), tuple(v for _, v in kept)


class FddQuery:
    """Query points 0 < y_1 < ... < y_k, in units of the conditioning
    time, with weights z_i in [0, 1].

    Coordinates with z_i = 1 are removed up front (`kept_coordinates`).
    `exact_engine.FddSpec.at` gives its DP spec at a time t.
    """

    def __init__(self, y, z):
        y = _items(y, "y", _number, "query points:", increasing=True)
        if y and y[0] <= 0.0:
            raise ConfigError(f"query points {y} must be positive")
        self.y, self.z = kept_coordinates(y, z)

    @property
    def k(self) -> int:
        return len(self.y)


def _check_y(y) -> None:
    """y is a number (`_number`) or an array of reals, each > 0; an array
    is checked once, by its dtype and one comparison."""
    if isinstance(y, np.ndarray) or np.ndim(y):
        y = np.asarray(y)
        if y.dtype.kind not in "iuf":
            raise ConfigError(f"y of dtype {y.dtype} must be an array of real numbers")
    else:
        _number(y, "y")
    if not np.all(y > 0.0):
        raise ConfigError("y must be positive")


def _check_K(K, k: int = 1) -> None:
    """K is an integer >= 0, and a k-variable pmf's (2K+1)^k box is within budget."""
    _integer(K, "K", 0)
    if (2 * K + 1) ** k > _PMF_ELEMENT_BUDGET:
        raise CapTooLarge(f"the (2K+1)^k = {(2 * K + 1) ** k} box of a product exceeds the element budget")


def prob_finite(p: LimitParams, y):
    """P(eta(y) < infinity), for a float or an array of y > 0."""
    _check_y(y)
    y = np.asarray(y, dtype=float)
    yl = np.minimum(y, 1.0)  # the left branch is used only there; y = inf would give inf/inf
    yr = np.maximum(y, 1.0)  # and the right one only here; y = 5e-324 would overflow
    left = (np.sqrt(1.0 + p.c * yl * yl) - 1.0) / (p.scale * yl)
    out = np.where(y < 1.0, left, 1.0 - 2.0 / (p.scale * yr))
    return float(out) if out.ndim == 0 else out


def eta_marginal_pgf(p: LimitParams, y: float, z: float) -> float:
    """E(z^{eta(y)}) for 0 <= z <= 1; infinite values contribute nothing,
    so z = 1 gives P(eta(y) < inf) (an `FddQuery` would drop that weight)."""
    y, z = _number(y, "y"), _number(z, "z", 0, 1)
    _check_y(y)
    return _fdd_pgf(p, (y,), (z,), series.Floats)


def _fdd_pgf(p: LimitParams, y, z, ring):
    """E(z_1^{eta(y_1)} ... z_k^{eta(y_k)}), split at 1, in a ring of
    `series`: `series.Floats` with float weights gives the pgf's value,
    `series.ring(k, K)` with the weights z_i the variables' monomials gives
    its coefficients up to total degree K, as a flat row."""
    c, y1 = p.c, y[0]
    j = sum(1 for v in y if v < 1.0)  # coordinates left of 1
    one = ring.monomial(1.0)
    s_all, prefix = 0.0, one
    for i, (yi, zi) in enumerate(zip(y, z)):
        s_all = s_all + ring.mul(prefix, one - zi) * (c * (y1 / yi) ** 2)
        prefix = ring.mul(prefix, zi)
        if i == j - 1:
            s_left, zprod = s_all, prefix
    root_all = ring.sqrt(one + s_all)
    inv = 1.0 / (p.scale * y1)
    if j == 0:
        return one - (root_all + one) * inv
    return (ring.sqrt(one + s_left + zprod * (c * y1 * y1)) - root_all) * inv


def eta_fdd_pgf(p: LimitParams, q: FddQuery) -> float:
    """E(z_1^{eta(y_1)} ... z_k^{eta(y_k)})."""
    q = _instance(q, FddQuery, "query")
    return _fdd_pgf(p, q.y, q.z, series.Floats) if q.k else 1.0


# ---------------------------------------------------------------------------
# pmf extraction
# ---------------------------------------------------------------------------


def _sqrt_taylor(alpha: float, beta: float, cap: int) -> np.ndarray:
    """Taylor coefficients of sqrt(alpha - beta*z) via the binomial recurrence."""
    out = np.empty(cap + 1)
    bc = 1.0
    ratio = -beta / alpha
    power = 1.0
    root = math.sqrt(alpha)
    for k in range(cap + 1):
        if k > 0:
            bc *= (1.5 - k) / k
            power *= ratio
        out[k] = root * bc * power
    return out


@dataclass(frozen=True)
class MarginalPmf:
    y: float
    probs: np.ndarray  # P(eta(y) = n), n = 0..K
    finite_remainder: float  # P(K < eta(y) < infinity)
    infinite_mass: float  # P(eta(y) = infinity)


def eta_marginal_pmf(p: LimitParams, y: float, K: int) -> MarginalPmf:
    """Closed-form binomial extraction of P(eta(y) = n) for n <= K."""
    y = _number(y, "y")
    _check_y(y)
    _check_K(K)
    c, A = p.c, p.scale
    if y >= 1.0:
        tail = _sqrt_taylor(1.0 + c, c, K)
        probs = -tail / (A * y)
        probs[0] = 1.0 - (1.0 + tail[0]) / (A * y)
    else:
        probs = (_sqrt_taylor(1.0 + c, c * (1.0 - y * y), K) - _sqrt_taylor(1.0 + c, c, K)) / (A * y)
    pfin = prob_finite(p, y)
    return MarginalPmf(
        y=y,
        probs=probs,
        finite_remainder=pfin - float(probs.sum()),
        infinite_mass=1.0 - pfin,
    )


@dataclass(frozen=True)
class FddPmf:
    y: tuple
    coeffs: np.ndarray  # shape (K+1,)*k, entries beyond total degree K are 0
    finite_remainder: float
    infinite_mass: float
    clamped: int  # coefficients clamped up to 0


def eta_fdd_pmf(p: LimitParams, q: FddQuery, K: int) -> FddPmf:
    """Joint pmf P(eta(y_1) = i_1, ..., eta(y_k) = i_k) up to total degree K.

    The joint pgf `_fdd_pgf` is expanded in the truncated-series ring
    `series.ring(k, K)`; the square roots come from its Newton iteration
    (`Ring.sqrt`) rather than the univariate binomial formula, so the k = 1
    case independently cross-checks eta_marginal_pmf.  Past the ring's
    direct routes a product transforms a box of about (2K+1)^k entries,
    so that, not the (K+1)^k pmf, is held to the element budget (k = 2 up
    to K = 2047, k = 3 up to K = 127); CapTooLarge is raised before any
    ring is built.  Negative coefficients are set to 0 and counted in
    `clamped`; a warning is logged when one is below -_CLAMP_TOL.  Only
    the FFT route leaves round-off negatives (about 1e-17, on cells whose
    exact value is 0 or small: k = 2 past K = 32, k = 3 past K = 20).  On
    the pair table a cell that eta, never increasing, leaves at 0 (i_2 >
    i_1, say) sums exact zeros only, and `clamped` was 0 on every shape
    tried there.
    """
    k = _instance(q, FddQuery, "query").k
    if k == 0:
        raise ConfigError("query has no coordinates left")
    if k > 3:
        raise ConfigError("joint extraction is configured for k <= 3")
    _check_K(K, k)
    ring = series.ring(k, K)
    zvars = [ring.monomial(1.0, (i,)) for i in range(k)]
    coeffs = _fdd_pgf(p, q.y, zvars, ring).reshape(ring.shape)
    neg = coeffs < 0.0
    clamped = int(neg.sum())
    if clamped:
        worst = float(coeffs[neg].min())
        if worst < -_CLAMP_TOL:
            logger.warning("clamped %d joint pmf coefficients, worst %.3g", clamped, worst)
        coeffs = np.where(neg, 0.0, coeffs)
    pfin = prob_finite(p, q.y[0])  # eta is nonincreasing: finite at y_1 means finite everywhere
    return FddPmf(
        y=q.y,
        coeffs=coeffs,
        finite_remainder=pfin - float(coeffs.sum()),
        infinite_mass=1.0 - pfin,
        clamped=clamped,
    )


# ---------------------------------------------------------------------------
# entry and emptying times
# ---------------------------------------------------------------------------


class LawT:
    """Law of T = sup{u : eta(u) = infinity}, the time the process
    stops being infinite.  Continuous with a density jump at y = 1.

    The density and the sampler allocate their output once; the right
    branch runs in place on all of it, so at y = 0 the density divides by
    0, unreported, before the left branch overwrites that point."""

    def __init__(self, p: LimitParams):
        self.params = p
        self.c = p.c
        self.scale = p.scale

    def cdf(self, y):
        """P(T <= y) = P(eta(y) < infinity) for y > 0, and 0 for y <= 0."""
        y = np.asarray(y, dtype=float)
        pos = y > 0.0
        out = np.where(pos, prob_finite(self.params, np.where(pos, y, 1.0)), 0.0)
        return float(out) if out.ndim == 0 else out

    def pdf(self, y):
        """Density of T: 2/(A y^2) from 1 on, (1 - 1/r)/(A y^2) with
        r = sqrt(1 + c y^2) on (0, 1), its limit c/(2A) at 0 and 0 below 0.
        Left of 1 it is computed as c/(A r (r + 1)), the same value without
        cancellation near 0, which is c/(2A) at 0 itself."""
        c, A = self.c, self.scale
        out = np.array(y, dtype=float)
        below = ~(out >= 1.0)
        yl = out[below]
        negative = yl < 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            np.multiply(out, out, out=out)
            out *= A
            np.divide(2.0, out, out=out)
            np.multiply(yl, yl, out=yl)
            r = c * yl
            r += 1.0
            np.sqrt(r, out=r)
            np.add(r, 1.0, out=yl)
            r *= A
            r *= yl
            np.divide(c, r, out=r)
        r[negative] = 0.0
        out[below] = r
        return float(out) if out.ndim == 0 else out

    def density_jump(self) -> float:
        """f(1) - f(1-), computed from the two branch expressions."""
        left_limit = (1.0 - 1.0 / math.sqrt(1.0 + self.c)) / self.scale
        return 2.0 / self.scale - left_limit

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Inverse-cdf sampling in closed form: y = 2Au/(c - A^2 u^2) left
        of 1 and y = 2/(A (1 - u)) right of it, with A = `scale`.

        The uniforms' array is the output: besides it the sampler holds a
        mask of the draws and two arrays of those left of 1 (the share
        cdf(1) = 1 - 2/A, 0.17 at c = 1 and 0.6 at c = 15)."""
        u = rng.random(_integer(size, "size", 0))
        left = u < self.cdf(1.0)
        au = u[left]
        au *= self.scale
        den = au * au
        np.subtract(self.c, den, out=den)
        au *= 2.0
        au /= den
        np.subtract(1.0, u, out=u)
        u *= self.scale
        np.divide(2.0, u, out=u)
        u[left] = au
        return u


class LawT0:
    """Density of T0 = inf{u : eta(u) = 0}, which is parameter free and
    supported on [1, inf), for `figure1_data`; its cdf (y - 1)/y is
    P(eta(y) = 0).  Like `LawT.pdf`, it computes in place on its output."""

    def pdf(self, y):
        """1/y^2 right of 1, 0 at 1 and below it (and at nan)."""
        out = np.array(y, dtype=float)
        below = ~(out > 1.0)
        with np.errstate(divide="ignore"):
            np.multiply(out, out, out=out)
            np.divide(1.0, out, out=out)
        out[below] = 0.0
        return float(out) if out.ndim == 0 else out


def law_T(p: LimitParams) -> LawT:
    return LawT(p)


def dichotomy_fraction(c: float) -> float:
    """Limit fraction of survivors with a bounded count:
    P(1 <= eta(1) < infinity) = (sqrt(1+c) - 1)/(sqrt(1+c) + 1)."""
    root = math.sqrt(1.0 + LimitParams(c).c)
    return (root - 1.0) / (root + 1.0)


def figure1_data(c: float, step: float = 0.01, y_max: float = 4.0) -> np.ndarray:
    """Density table (y, pdf of T, pdf of T0) on the grid y = k * step,
    k = 1, 2, ..., up to the last multiple of step within y_max, written
    column by column into one (rows, 3) array.  y_max / step is taken
    within 4 ulps of a whole number as that number, so 4 / 0.01 and
    4 / 1e-5 keep their 400 and 400,000 rows.  1 is on the grid when 1 /
    step is a whole number k (row k holds k * step: 0.01 and 0.5 put 1 on
    it, 0.03 and 0.3 do not).  At the element budget's 2^24 rows the table
    holds 400 MB, and while a column is filled its density's output and
    left-of-1 points come on top."""
    p, step, y_max = LimitParams(c), _number(step, "step"), _number(y_max, "y_max")
    if not 0.0 < step < y_max:
        raise ConfigError("need 0 < step < y_max")
    rows = y_max / step
    if rows > _PMF_ELEMENT_BUDGET:
        raise CapTooLarge(f"a grid of {rows:.3g} rows exceeds the element budget")
    rows = math.floor(rows * (1.0 + 4.0 * math.ulp(1.0)))
    table = np.empty((rows, 3))
    y = table[:, 0]
    np.multiply(np.arange(1, len(table) + 1), step, out=y)
    table[:, 1] = LawT(p).pdf(y)
    table[:, 2] = LawT0().pdf(y)
    return table
