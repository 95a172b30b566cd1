"""Life-law construction, summaries, and sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import polygamma

from gwolab import cli, lifelaw
from gwolab.errors import ConfigError
from gwolab.lifelaw import (
    BellmanHarris,
    DelayedDeath,
    FiniteLife,
    OffspringPMF,
    QuadraticTailLife,
    Sevastyanov,
    Tabulated,
    compound_params,
    summarize,
)
from gwolab.simulator import _individual_draw
from gwolab.verify import _bounded_atoms

import shipped

BINARY = OffspringPMF([0.5, 0.0, 0.5])


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def test_gw_binary_summary():
    s = summarize(shipped.model("binary_splitting"))
    assert s.mean_offspring == 1.0
    assert s.b == 0.5
    assert s.a == 1.0
    assert s.d == 0.0
    assert s.h == 2.0
    assert s.c == 0.0
    assert s.critical


def test_compound_params_frozen_case():
    h, c = compound_params(a=2.0, b=1.0, d=1.0)
    assert c == pytest.approx(1.0, abs=1e-15)
    assert h == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-14)


def test_compound_params_a_zero():
    # b h^2 = d at a = 0, and c = 4bd/a^2 is infinite when b d > 0
    assert compound_params(0.0, 1.0, 4.0) == (2.0, math.inf)


def test_quadratic_identity_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b, d = rng.uniform(0.25, 2.0, size=3)
        h, c = compound_params(a, b, d)
        assert abs(b * h * h - a * h - d) <= 1e-12
        assert c == pytest.approx(4.0 * b * d / a**2, rel=1e-14)


def test_summary_quadratic_identity():
    s = summarize(shipped.model("heavy_tail_life"))
    assert s.critical
    assert s.b == pytest.approx(1.5)
    assert s.d == 1.0
    assert abs(s.b * s.h**2 - s.a * s.h - s.d) <= 1e-12
    # mean life in closed form: t_min + d * trigamma(t_min)
    assert s.a == pytest.approx(2.0 + (math.pi**2 / 6.0 - 1.0), abs=1e-12)


def test_delayed_death_summary_exact_c():
    s = summarize(shipped.model("delayed_death"))
    assert s.mean_offspring == 1.0
    assert s.b == 0.5
    assert s.a == 1.5
    assert s.d == 1.125
    assert s.c == pytest.approx(1.0, abs=1e-15)
    assert s.h == pytest.approx(1.5 + 1.5 * math.sqrt(2.0), abs=1e-13)


def test_scheduled_laws_read_as_atoms_and_residual():
    # a delayed-death atom's base is its last birth age (0 without births);
    # a tabulated atom's base is its life, with no residual
    residual = QuadraticTailLife(d=1.125, t_min=2)
    delayed = DelayedDeath([(0.5, [1, 2]), (0.5, [])], residual)
    assert delayed.atoms == ((0.5, (1, 2), 2), (0.5, (), 0)) and delayed.residual is residual
    tabulated = Tabulated([(0.5, [1, 2], 3), (0.5, [], 2)])
    assert tabulated.atoms == ((0.5, (1, 2), 3), (0.5, (), 2)) and tabulated.residual is None
    assert summarize(tabulated).d == 0.0


def test_tabulated_summary():
    s = summarize(shipped.model("early_births"))
    assert s.mean_offspring == 1.0
    assert s.b == 0.5
    assert s.a == 1.5
    assert s.d == 0.0
    assert s.h == pytest.approx(3.0)
    assert s.c == 0.0


def test_noncritical_flag():
    s = summarize(BellmanHarris(FiniteLife({1: 1.0}), OffspringPMF([0.4, 0.6])))
    assert not s.critical
    assert s.mean_offspring == pytest.approx(0.6)


def test_a_non_law_is_a_config_error():
    # the consumers test for the two families, Sevastyanov and Scheduled,
    # and raise one error, exit code 2 at the CLI (code 4 is retired)
    for consume in (summarize, _individual_draw, lambda m: _bounded_atoms(m, 4)):
        with pytest.raises(ConfigError, match="not a life law"):
            consume(object())
    assert 4 not in cli.EXIT_CODES.values()


def test_summary_critical_tolerance():
    off = OffspringPMF([0.5 - 1e-7, 0.0, 0.5 + 1e-7])
    model = BellmanHarris(FiniteLife({1: 1.0}), off)
    assert not summarize(model).critical


# ---------------------------------------------------------------------------
# sevastyanov tables
# ---------------------------------------------------------------------------


def test_sevastyanov_finite_life():
    life = FiniteLife({1: 0.25, 2: 0.25, 5: 0.5})
    model = Sevastyanov(life, dict.fromkeys((1, 2, 5), BINARY))
    s = summarize(model)
    assert s.mean_offspring == pytest.approx(1.0)
    assert s.a == pytest.approx(0.25 * 1 + 0.25 * 2 + 0.5 * 5)
    assert s.d == 0.0


def test_sevastyanov_table_over_a_heavy_tail():
    # binary splitting for lives 2..6, childless beyond: the closed form
    # against the finite sums over the table
    life = QuadraticTailLife(d=1.0, t_min=2)
    model = Sevastyanov(life, {l: BINARY for l in range(2, 7)}, default=OffspringPMF([1.0]))
    s = summarize(model)
    en = sum(life.pmf(l) * 1.0 for l in range(2, 7))
    a = sum(life.pmf(l) * l * 1.0 for l in range(2, 7))
    assert s.mean_offspring == pytest.approx(en, abs=1e-14)
    assert s.a == pytest.approx(a, abs=1e-14)
    assert s.d == 1.0


@pytest.mark.parametrize("key, a_hex", [(10**8, "0x1.a51a662530809p+1"), (10**12, "0x1.a51a6625307d4p+1")])
def test_sevastyanov_large_key_summary_bits(key, a_hex):
    # P(L = key) of a heavy tail squares key as a float, so it moves in its
    # last bits above key ~ 2^26.5 (the square leaves 53 bits); a, which
    # reads P(L = key) times key times a 59-child gap, keeps every bit
    life = QuadraticTailLife(d=2.0, t_min=2)
    model = Sevastyanov(life, {key: OffspringPMF([0.0] * 60 + [1.0])}, default=BINARY)
    s = summarize(model)
    assert (s.mean_offspring, s.b, s.a) == (1.0, 0.5, float.fromhex(a_hex))


@pytest.mark.parametrize(
    "life, table, match",
    [
        (FiniteLife({1: 0.5, 3: 0.5}), {1: BINARY}, "no offspring law for life 3"),
        (QuadraticTailLife(d=1.0, t_min=2), {2: BINARY}, "unbounded life needs offspring_default"),
    ],
    ids=["uncovered_support", "unbounded_life"],
)
def test_sevastyanov_checked_at_construction(life, table, match):
    with pytest.raises(ConfigError, match=match):
        Sevastyanov(life, table)


# ---------------------------------------------------------------------------
# quadratic-tail life length
# ---------------------------------------------------------------------------


def test_quadratic_tail_survival_exact():
    life = QuadraticTailLife(d=4.0, t_min=2)
    assert life.survival(10) == 0.04
    assert life.survival(1) == 1.0
    for t in range(2, 50):
        assert t * t * life.survival(t) == pytest.approx(4.0, abs=1e-15)


def test_quadratic_tail_pmf_array_consistent():
    life = QuadraticTailLife(d=2.5, t_min=2)
    arr = life.pmf(np.arange(401))
    assert arr[0] == 0.0
    assert float(arr.sum()) == pytest.approx(1.0 - life.survival(400), abs=1e-12)
    for l in (2, 3, 17):
        assert arr[l] == pytest.approx(life.pmf(l), abs=1e-15)


@pytest.mark.parametrize(
    "life",
    [
        FiniteLife({1: 1.0}),
        FiniteLife({1: 0.1, 3: 0.2, 7: 0.7}),
        FiniteLife({2: 1 / 3, 5: 1 / 3, 9: 1 / 3}),
        FiniteLife({2: 0.3333333333333, 3: 0.6666666666666}),
        FiniteLife({3: 0.5, 2**62: 0.5}),
        QuadraticTailLife(d=1.0, t_min=2),
        QuadraticTailLife(d=1.125, t_min=2),
        QuadraticTailLife(d=7.3, t_min=3),
    ],
    ids=["gw", "three_point", "thirds", "short_sum", "cap", "qt_1", "qt_1.125", "qt_7.3"],
)
def test_survival_array_equals_survival(life):
    # the DP's tables are survival and pmf on an array of u; they must
    # agree with the scalar forms exactly, not just to rounding, and
    # P(L > 0) is 1 even where the masses sum to 1 - 1e-13
    u = np.concatenate([np.arange(4097), [2**62 - 1, 2**62, 2**62 + 1]])
    for law in (life.survival, life.pmf):
        scalar = [law(v) for v in u.tolist()]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(law(u), scalar)
    assert life.survival(0) == 1.0 and life.pmf(0) == 0.0


def test_quadratic_tail_mean_against_partial_sum():
    life = QuadraticTailLife(d=3.0, t_min=3)
    partial = 3 + 3.0 * sum(1.0 / t**2 for t in range(3, 200000))
    assert life.mean == pytest.approx(partial + 3.0 / 199999, abs=1e-4)


def test_quadratic_tail_trigamma_matches_scipy():
    # the closed-form psi_1 against scipy's polygamma, at small arguments
    # and at powers of 2 up to 2^21
    xs = [*range(1, 400), *(2**k for k in range(22)), *(2**k + 1 for k in range(22)), 0.5, 1.5, 9.99]
    np.testing.assert_allclose([lifelaw._trigamma(x) for x in xs], polygamma(1, xs), rtol=1e-15)
    for t_min in range(1, 51):
        for d in (1.0, float(t_min * t_min)):
            life = QuadraticTailLife(d=d, t_min=t_min)
            assert life.mean == pytest.approx(t_min + d * polygamma(1, t_min), rel=1e-15, abs=0)


def test_quadratic_tail_inverse_cdf_property():
    life = QuadraticTailLife(d=4.0, t_min=2)
    for u in np.linspace(1e-6, 0.999999, 200):
        t = life.sample_from_uniform(float(u))
        assert life.survival(t) < u <= life.survival(t - 1) + 1e-15


def test_quadratic_tail_degenerate_d0():
    life = QuadraticTailLife(d=0.0, t_min=5)
    assert life.sample_from_uniform(0.5) == 5
    assert life.mean == 5.0


def test_quadratic_tail_validation():
    with pytest.raises(ConfigError):
        QuadraticTailLife(d=9.0, t_min=2)
    with pytest.raises(ConfigError):
        QuadraticTailLife(d=-1.0, t_min=2)
    with pytest.raises(ConfigError):
        QuadraticTailLife(d=1.0, t_min=0)


# ---------------------------------------------------------------------------
# construction errors
# ---------------------------------------------------------------------------


def test_offspring_validation():
    with pytest.raises(ConfigError):
        OffspringPMF([0.5, 0.6])
    with pytest.raises(ConfigError):
        OffspringPMF([1.5, -0.5])


def test_finite_life_validation():
    with pytest.raises(ConfigError):
        FiniteLife({0: 1.0})
    with pytest.raises(ConfigError):
        FiniteLife({1: 0.7, 2: 0.2})
    with pytest.raises(ConfigError):
        FiniteLife({1: 1e308, 2: 1e308})  # finite masses whose sum is not
    with pytest.raises(ConfigError):
        FiniteLife({2**70: 1.0})  # past the int64 support array


def test_tabulated_validation():
    with pytest.raises(ConfigError):
        Tabulated([(1.0, [1, 4], 3)])  # birth after death
    with pytest.raises(ConfigError):
        Tabulated([(1.0, [2, 1], 3)])  # unsorted ages
    with pytest.raises(ConfigError):
        Tabulated([(0.5, [1], 1)])  # mass missing
    with pytest.raises(ConfigError):
        Tabulated([(0.5, [1, 2], 10**20), (0.5, [], 1)])  # past int64, where lives are drawn


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "build",
    [
        lambda: OffspringPMF([NAN, 1.0]),
        lambda: OffspringPMF([0.5, 0.0, NAN]),
        lambda: OffspringPMF([INF, 1.0]),
        lambda: FiniteLife({1: NAN, 2: 1.0}),
        lambda: Tabulated([(NAN, [1], 2), (1.0, [], 1)]),
        lambda: DelayedDeath([(NAN, [1]), (1.0, [])], FiniteLife({1: 1.0})),
    ],
    ids=["offspring_nan", "offspring_nan_last", "offspring_inf", "finite_life", "tabulated", "delayed_death"],
)
def test_non_finite_masses_rejected(build):
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: Tabulated([]), r"^atoms \[\] must be a nonempty sequence$"),
        (lambda: DelayedDeath([], FiniteLife({1: 1.0})), r"^schedules \[\] must be a nonempty sequence$"),
        (lambda: Tabulated([(1.0, [0], 1)]), "birth ages"),
        (lambda: DelayedDeath([(1.0, [2**62 + 1])], FiniteLife({1: 1.0})), "birth ages"),
        (lambda: OffspringPMF([]), "nonempty"),
        (lambda: FiniteLife({}), "empty"),
        (lambda: summarize(FiniteLife({1: 1.0})), "not a life law"),
    ],
    ids=["tabulated_no_atom", "delayed_no_schedule", "age_0", "age_past_2^62",
         "offspring_empty", "finite_life_empty", "summarize_non_law"],
)
def test_empty_or_out_of_range_input_rejected(build, match):
    with pytest.raises(ConfigError, match=match):
        build()


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

SAMPLING_MODELS = [
    *map(shipped.model, ["binary_splitting", "heavy_tail_life", "early_births", "delayed_death"]),
    Sevastyanov(FiniteLife({1: 0.25, 2: 0.25, 5: 0.5}), dict.fromkeys((1, 2, 5), BINARY)),
]


@pytest.mark.parametrize("model", SAMPLING_MODELS, ids=lambda m: type(m).__name__)
def test_sample_ordering_invariant(model):
    per, draw = _individual_draw(model)
    # draw takes one row per uniform and gives one row per birth slot
    life, ages, counts = draw(np.random.default_rng(11).random((4000, per)).T)
    ages, counts = ages.T, counts.T
    born = counts > 0
    assert (life >= 1).all()
    assert ((ages >= 1) & (ages <= life[:, None]))[born].all()
    # the slots that hold children come first, in age order
    assert (born[:, :-1] >= born[:, 1:]).all()
    assert (np.diff(ages, axis=1)[born[:, 1:]] >= 0).all()


def test_quadratic_tail_sampling_frequency():
    life = QuadraticTailLife(d=4.0, t_min=2)
    rng = np.random.default_rng(5)
    n = 200_000
    u = rng.random(n)
    hits = sum(life.sample_from_uniform(float(x)) > 10 for x in u)
    p = 0.04
    assert abs(hits / n - p) <= 3.0 * math.sqrt(p * (1 - p) / n)


def test_monte_carlo_moments_match_summary():
    model = BellmanHarris(QuadraticTailLife(d=1.0, t_min=2), OffspringPMF([0.3, 0.4, 0.3]))
    s = summarize(model)
    per, draw = _individual_draw(model)
    n = 1_000_000
    life, ages, counts = draw(np.random.default_rng(20240817).random((n, per)).T)
    ages, counts = ages.T, counts.T
    ns = counts.sum(axis=1).astype(float)
    ls = life.astype(float)
    taus = (ages * counts).sum(axis=1).astype(float)
    for sample, target in ((ns, s.mean_offspring), (ls, model.life.mean), (taus, s.a)):
        err = abs(sample.mean() - target)
        band = 4.0 * sample.std() / math.sqrt(n)
        assert err <= band, (sample.mean(), target, band)


def test_delayed_death_life_extends_schedule():
    model = DelayedDeath([(1.0, [2, 3])], QuadraticTailLife(d=1.0, t_min=1))
    per, draw = _individual_draw(model)
    life, ages, counts = draw(np.random.default_rng(3).random((200, per)).T)
    ages, counts = ages.T, counts.T
    np.testing.assert_array_equal(ages, np.tile([2, 3], (200, 1)))
    np.testing.assert_array_equal(counts, np.ones((200, 2)))
    assert (life >= 4).all()  # last birth age + residual >= 1


def test_offspring_inverse_cdf_clamped_to_max_children():
    # the summed cdf ends at 1 - 2^-53, so u = 1 - 2^-53 lies at its last entry
    law = OffspringPMF([0.1] * 10)
    u = float(np.nextafter(1.0, 0.0))
    assert law.sample_from_uniform(u) == law.probs.size - 1 == 9
    np.testing.assert_array_equal(law.sample_from_uniform(np.array([0.0, 0.1, u])), [0, 1, 9])


INVERSE_CDFS = {
    "offspring": OffspringPMF([0.1] * 10).sample_from_uniform,
    "finite_life": FiniteLife({1: 0.3, 4: 0.3, 9: 0.4}).sample_from_uniform,
    "quadratic_tail": QuadraticTailLife(d=1.125, t_min=2).sample_from_uniform,
    "quadratic_tail_d0": QuadraticTailLife(d=0.0, t_min=3).sample_from_uniform,
    "atom": Tabulated([(0.5, [1, 2], 3), (0.25, [], 2), (0.25, [1], 1)]).atom_index,
    "schedule": shipped.model("delayed_death").atom_index,
}


@pytest.mark.parametrize("inverse", INVERSE_CDFS.values(), ids=INVERSE_CDFS.keys())
def test_inverse_cdf_scalar_and_array_forms_agree(inverse):
    u = np.random.default_rng(8).random(3000)
    u[:5] = [0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)]
    scalar = [inverse(float(x)) for x in u]
    assert all(type(v) is int for v in scalar)
    np.testing.assert_array_equal(inverse(u), scalar)
