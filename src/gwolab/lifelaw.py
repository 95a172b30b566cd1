"""Individual life laws for branching populations with overlapping generations.

A model describes a single individual: an integer life length L >= 1 and
birth ages 1 <= tau_1 <= ... <= tau_N <= L, one child per age, each at
most 2^62 and stored as an int; `errors._integer` holds the rule, so a
fraction or a bool is refused, never truncated; a mass, a probability
and `d` follow `errors._number`, stored as floats.  Relative to its own
birth the individual is alive on [0, L-1].  The population starts from
one founder born at time 0; criticality means E(N) = 1, so the expected
population size stays 1 forever while the survival probability decays.

Summary parameters derived here:

    b   half the offspring variance, Var(N)/2
    a   mean summed birth age, E(tau_1 + ... + tau_N)
    d   quadratic tail coefficient of the life length, lim t^2 P(L > t)
    h   population survival decay constant: t * P(alive at t) -> h,
        the positive root of b h^2 = a h + d
    c   compound parameter 4 b d / a^2 (0 exactly when lives have
        finite-variance tails, i.e. d = 0)

A life length law (FiniteLife, QuadraticTailLife) answers survival(u) =
P(L > u) and pmf(u) = P(L = u) with one formula, for an integer u or an
integer array alike.

A law is of one of two families, and its family is its base class.  A
birth-at-death law, a Sevastyanov, bears every child at the individual's
death and reads the offspring law of a life from a {life: OffspringPMF}
table, or else from its default; BellmanHarris is the one with an empty
table, and every consumer reads both as (default, table).  A Scheduled
law draws an atom (prob, birth ages, base) and lives base + R for a
residual life law R, or base alone without one; Tabulated is the one
without a residual (its base is the life), DelayedDeath's base is the
last birth age, and every consumer reads both as (atoms, residual).  A
consumer raises ConfigError for anything that is neither.  A law checks
the laws it holds when it is built: a life or a residual is a life length
law, an offspring law an OffspringPMF.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, _instance, _integer, _items, _number

_SUM_TOL = 1e-12
_CRITICAL_TOL = 1e-9  # |E(N) - 1| up to which `summarize` calls a law critical
_LIFE_CAP = 2**62  # lives and birth ages stay inside int64; unbounded draws are capped here
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)  # B_2 .. B_14


def _trigamma(x: float) -> float:
    """psi_1(x) = sum_{k >= 0} 1/(x + k)^2 for x > 0: the recurrence
    psi_1(x) = psi_1(x + 1) + 1/x^2 up to x >= 10, then the asymptotic
    series 1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1) through B_14."""
    x = float(x)
    acc = 0.0
    while x < 10.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv2 = 1.0 / (x * x)
    s = 0.0
    for b in reversed(_BERNOULLI):
        s = s * inv2 + b
    return acc + (1.0 + (0.5 + s / x) / x) / x


class _Masses:
    """The masses of a finite law, `probs`, each a number in [0, 1] and
    all summing to 1, and the inverse of their cumulative sums."""

    def __init__(self, probs: Sequence[float], what: str):
        self.probs = _items(probs, what, _number, f"{what}: mass", 0, 1)
        total = math.fsum(self.probs)
        if abs(total - 1.0) > _SUM_TOL:
            raise ConfigError(f"{what}: masses sum to {total!r}, not 1")
        self._cdf = np.cumsum(self.probs)
        self._cdf_list = self._cdf.tolist()

    def index(self, u):
        """The index i with cdf[i-1] <= u < cdf[i], clamped to the last
        index when rounding leaves cdf[-1] at or below u.

        Takes a float (and returns an int) or an array of floats (and
        returns an index array); both forms give the same index.
        """
        last = self._cdf.size - 1
        if isinstance(u, float):
            return min(bisect_right(self._cdf_list, u), last)
        return np.minimum(np.searchsorted(self._cdf, u, side="right"), last)


# ---------------------------------------------------------------------------
# offspring counts
# ---------------------------------------------------------------------------


class OffspringPMF:
    """Probability mass function of the number of children, finite support."""

    def __init__(self, probs: Sequence[float]):
        self._masses = _Masses(_items(probs, "offspring pmf", nonempty=True), "offspring pmf")
        self.probs = np.array(self._masses.probs)
        counts = np.arange(self.probs.size)
        self.mean = float(counts @ self.probs)
        self.second_moment = float((counts**2) @ self.probs)

    def sample_from_uniform(self, u):
        """Inverse-cdf child count for a float, or counts for an array of floats."""
        return self._masses.index(u)


# ---------------------------------------------------------------------------
# life length laws
# ---------------------------------------------------------------------------


class FiniteLife:
    """Life length with finite support on {1, ..., max_life}."""

    def __init__(self, pmf: dict[int, float]):
        pmf = _items(pmf, "life length pmf", nonempty=True, pairs=True)
        items = sorted((_integer(life, "life length", 1, _LIFE_CAP), p) for life, p in pmf)
        self.support = tuple(life for life, _ in items)
        self._masses = _Masses([p for _, p in items], "life length pmf")
        self.probs = self._masses.probs
        self.max_life = self.support[-1]
        self.mean = math.fsum(life * p for life, p in zip(self.support, self.probs))
        self.d = 0.0
        # the table: support points, their masses and _tail[i] = P(L > u)
        # for the u with i support points at or below it (1 for i = 0, as
        # L >= 1)
        self._support = np.array(self.support, dtype=np.int64)
        self._probs = np.array(self.probs, dtype=float)
        tails = [math.fsum(self.probs[i:]) for i in range(1, len(self.probs))]
        self._tail = np.array([1.0] + tails + [0.0])

    def pmf(self, u):
        """P(L = u) for an integer or an integer array."""
        i = np.searchsorted(self._support, u)
        out = np.where(self._support.take(i, mode="clip") == u, self._probs.take(i, mode="clip"), 0.0)
        return float(out) if out.ndim == 0 else out

    def survival(self, u):
        """P(L > u) for an integer or an integer array."""
        out = self._tail[np.searchsorted(self._support, u, side="right")]
        return float(out) if out.ndim == 0 else out

    def sample_from_uniform(self, u):
        """Inverse-cdf life for a float, or lives for an array of floats."""
        i = self._masses.index(u)
        return self.support[i] if isinstance(u, float) else self._support[i]


class QuadraticTailLife:
    """Life length whose survival is exactly d/t^2 beyond a threshold.

    P(L > t) = 1 for t < t_min and d/t^2 for t >= t_min, which forces
    t_min^2 >= d.  The mean is finite (t_min + d * psi_1(t_min), with
    psi_1 the trigamma function) but the second moment diverges whenever
    d > 0.
    """

    def __init__(self, d: float, t_min: int):
        d = _number(d, "tail coefficient d", 0)
        t_min = _integer(t_min, "t_min", 1, _LIFE_CAP)
        if t_min * t_min < d:
            raise ConfigError(f"t_min={t_min} too small for d={d}: need t_min^2 >= d")
        self.d = d
        self.t_min = t_min
        self.max_life = None  # unbounded support
        self.mean = t_min + d * _trigamma(t_min)

    def survival(self, u):
        """P(L > u) for an integer or an integer array."""
        t = np.asarray(u, dtype=float)
        out = np.where(t < self.t_min, 1.0, self.d / np.maximum(t, 1.0) ** 2)
        return float(out) if out.ndim == 0 else out

    def pmf(self, u):
        """P(L = u) for an integer or an integer array."""
        return self.survival(u - 1) - self.survival(u)

    def sample_from_uniform(self, u):
        """Smallest t with P(L > t) < u; exact inverse-cdf sampling, for a
        float or an array of floats (whose lives are capped at 2^62)."""
        if isinstance(u, float):
            if u <= 0.0:
                u = 2.0**-64  # rng yields [0, 1); keep the sample finite
            return max(self.t_min, int(math.sqrt(self.d / u)) + 1)
        u = np.where(np.asarray(u) > 0.0, u, 2.0**-64)
        root = np.minimum(np.sqrt(self.d / u), _LIFE_CAP)
        return np.maximum(self.t_min, root.astype(np.int64) + 1)


LifeLengthLaw = Union[FiniteLife, QuadraticTailLife]


def _as_ages(ages: Sequence[int], life: int | None = None) -> tuple[int, ...]:
    ages = _items(ages, "birth ages", _integer, "birth ages:", 1, _LIFE_CAP)
    if list(ages) != sorted(ages):
        raise ConfigError(f"birth ages {ages} must be nondecreasing")
    if life is not None and ages and ages[-1] > life:
        raise ConfigError(f"last birth age {ages[-1]} exceeds life length {life}")
    return ages


# ---------------------------------------------------------------------------
# full life laws (life length + birth schedule, possibly coupled)
# ---------------------------------------------------------------------------


class Scheduled:
    """Atoms (prob, birth ages, base) and a residual life law R or None:
    an atom is drawn by its prob, and the life is base + R, or base alone
    without a residual."""

    def __init__(self, atoms, residual: LifeLengthLaw | None, what: str):
        self._masses = _Masses([p for p, _, _ in atoms], what)
        self.atoms = tuple((p, ages, base) for p, (_, ages, base) in zip(self._masses.probs, atoms))
        self.residual = residual

    def atom_index(self, u):
        """Inverse-cdf atom index for a float, or indices for an array of floats."""
        return self._masses.index(u)


class Tabulated(Scheduled):
    """Explicit finite list of (probability, birth ages, life length)
    atoms: the scheduled law without a residual."""

    def __init__(self, atoms: Sequence[tuple[float, Sequence[int], int]]):
        atoms = [_items(atom, "atom", size=3) for atom in _items(atoms, "atoms", nonempty=True)]
        lives = [_integer(life, "life length", 1, _LIFE_CAP) for _, _, life in atoms]
        atoms = [(p, _as_ages(ages, life), life) for (p, ages, _), life in zip(atoms, lives)]
        super().__init__(atoms, None, "atom probabilities")


class Sevastyanov:
    """Children born at death, offspring law allowed to depend on the life.

    `table` maps a life l to the offspring pmf given L = l, and `default`
    is the law of every life the table does not name.  Without a default
    the table must cover the support of a finite life; an unbounded life
    needs one.
    """

    def __init__(
        self,
        life: LifeLengthLaw,
        table: dict[int, OffspringPMF],
        default: OffspringPMF | None = None,
    ):
        self.life = _instance(life, LifeLengthLaw, "life")
        table = _items(table, "offspring_by_life", pairs=True)
        table = {_integer(l, "offspring_by_life: life", 1, _LIFE_CAP): law for l, law in table}
        self.table = {l: _instance(law, OffspringPMF, f"offspring_by_life: {l}") for l, law in table.items()}
        self.default = default if default is None else _instance(default, OffspringPMF, "offspring_default")
        if default is None:
            if life.max_life is None:
                raise ConfigError("an unbounded life needs offspring_default")
            for l in life.support:  # raises for the first life without a law
                self.offspring_by_life(l)

    def offspring_by_life(self, l: int) -> OffspringPMF:
        """The offspring pmf given L = l."""
        law = self.table.get(l, self.default)
        if law is None:
            raise ConfigError(f"no offspring law for life {l} and no default given")
        return law


class BellmanHarris(Sevastyanov):
    """The Sevastyanov law with an empty table: N has law `offspring`, whatever L."""

    def __init__(self, life: LifeLengthLaw, offspring: OffspringPMF):
        self.offspring = _instance(offspring, OffspringPMF, "offspring")
        super().__init__(life, {}, offspring)


class DelayedDeath(Scheduled):
    """Fixed birth schedules, death delayed past the last birth.

    A schedule (prob, birth_ages) is drawn, then an independent residual
    R from a life length law; the life ends at last_birth_age + R, so an
    atom's base is its last birth age (0 for no children).  Because the
    schedules are bounded, the tail coefficient of the total life equals
    the residual's d.
    """

    def __init__(
        self,
        schedules: Sequence[tuple[float, Sequence[int]]],
        residual: LifeLengthLaw,
    ):
        schedules = [_items(s, "schedule", size=2) for s in _items(schedules, "schedules", nonempty=True)]
        checked = [(p, _as_ages(ages)) for p, ages in schedules]
        atoms = [(p, ages, ages[-1] if ages else 0) for p, ages in checked]
        super().__init__(atoms, _instance(residual, LifeLengthLaw, "residual"), "schedule probabilities")
        self.schedules = tuple((p, a) for p, a, _ in self.atoms)

    def sample_schedule_from_uniform(self, u: float) -> tuple[float, tuple[int, ...]]:
        return self.schedules[self._masses.index(u)]


LifeLaw = Union[Sevastyanov, Scheduled]


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSummary:
    mean_offspring: float
    b: float
    a: float
    d: float
    h: float
    c: float
    critical: bool


def compound_params(a: float, b: float, d: float) -> tuple[float, float]:
    """(h, c) from the raw parameters: b h^2 = a h + d, c = 4 b d / a^2.

    Degenerate corners: b = 0 gives h = inf; a = 0 gives c = inf when
    b*d > 0.  Only critical models with b > 0 are meaningful (`limitlaw.limit_of`).
    """
    if b <= 0.0:
        return math.inf, 0.0
    h = (a + math.sqrt(a * a + 4.0 * b * d)) / (2.0 * b)
    if a == 0.0:
        return h, (math.inf if d > 0.0 else 0.0)
    return h, 4.0 * b * d / (a * a)


def _sevastyanov_moments(law: Sevastyanov) -> tuple[float, float, float]:
    """(E N, E N^2, E N*L) in closed form: the default law's moments (0
    without one), plus for each life l of the table P(L = l) times the
    gap between its law's moment and the default's, weighted by l for
    E N*L."""
    m1, m2 = (law.default.mean, law.default.second_moment) if law.default is not None else (0.0, 0.0)
    rows = [(law.life.pmf(l), l, o) for l, o in sorted(law.table.items())]
    en = math.fsum([m1] + [p * (o.mean - m1) for p, _, o in rows])
    en2 = math.fsum([m2] + [p * (o.second_moment - m2) for p, _, o in rows])
    a = math.fsum([m1 * law.life.mean] + [p * l * (o.mean - m1) for p, l, o in rows])
    return en, en2, a


def summarize(model: LifeLaw) -> ModelSummary:
    """Derive (EN, b, a, d, h, c) and flags from a life law.

    Non-critical models are summarized with critical=False rather than
    rejected.
    """
    if isinstance(model, Sevastyanov):
        en, en2, a = _sevastyanov_moments(model)
        d = model.life.d
    elif isinstance(model, Scheduled):
        en = math.fsum(p * len(ages) for p, ages, _ in model.atoms)
        en2 = math.fsum(p * len(ages) ** 2 for p, ages, _ in model.atoms)
        a = math.fsum(p * sum(ages) for p, ages, _ in model.atoms)
        d = 0.0 if model.residual is None else model.residual.d
    else:
        raise ConfigError(f"not a life law: {model!r}")
    b = 0.5 * (en2 - en * en)
    h, c = compound_params(a, b, d)
    return ModelSummary(
        mean_offspring=en,
        b=b,
        a=a,
        d=d,
        h=h,
        c=c,
        critical=abs(en - 1.0) <= _CRITICAL_TOL,
    )
