"""Checks of the cross-validation harness itself: the enumeration
oracle against hand-computable cases, the extrapolation helper against
synthetic decay, and the report plumbing."""

import dataclasses
import io
import json
import math
from pathlib import Path

import pytest

from gwolab import verify
from gwolab.errors import ConfigError, OracleBlowup
from gwolab.lifelaw import (
    BellmanHarris,
    DelayedDeath,
    FiniteLife,
    OffspringPMF,
    QuadraticTailLife,
    Tabulated,
)
from gwolab.limitlaw import LimitParams, dichotomy_fraction, eta_marginal_pmf
from gwolab.verify import (
    CheckRow,
    enumerate_joint,
    fdd_limit_check,
    limit_convergence,
    oracle_equivalence,
    report_json,
    richardson,
    run_battery,
    tree_pgf,
    tv_to_limit,
)


def gw_binary():
    return BellmanHarris(FiniteLife({1: 1.0}), OffspringPMF([0.5, 0.0, 0.5]))


def delayed_c1():
    return DelayedDeath([(0.5, (1, 2)), (0.5, ())], QuadraticTailLife(d=1.125, t_min=2))


class TestEnumerationOracle:
    def test_gw_binary_by_hand(self):
        # founder dies at 1 leaving 0 or 2; P(Z(2)=0) = 1/2 + 1/2 * (1/2)^2
        dist = enumerate_joint(gw_binary(), (1, 2))
        assert dist[(0, 0)] == pytest.approx(0.5, abs=1e-15)
        assert dist[(2, 0)] == pytest.approx(0.5 * 0.25, abs=1e-15)
        assert dist[(2, 4)] == pytest.approx(0.5 * 0.25, abs=1e-15)
        assert dist[(2, 2)] == pytest.approx(0.5 * 0.5, abs=1e-15)
        dead_by_2 = sum(p for v, p in dist.items() if v[1] == 0)
        assert dead_by_2 == pytest.approx(0.625, abs=1e-15)

    def test_no_birth_model_survival_indicator(self):
        # lone individual with fixed life: survival at t is exactly 1{t < L}
        model = Tabulated([(1.0, (), 4)])
        for t in range(1, 7):
            dist = enumerate_joint(model, (t,))
            alive = sum(p for v, p in dist.items() if v[0] > 0)
            assert alive == (1.0 if t < 4 else 0.0)

    def test_early_birth_model(self):
        model = Tabulated([(1.0, (1, 2), 3)])
        dist = enumerate_joint(model, (4,))
        # births per time follow the two-step recurrence 1,1,2,3,5; lives
        # span three slots, so Z(4) = 2 + 3 + 5
        assert set(dist) == {(10,)}

    def test_total_mass_one(self):
        for model in (gw_binary(), delayed_c1(), Tabulated([(0.5, (1, 2), 3), (0.5, (), 2)])):
            dist = enumerate_joint(model, (2, 4))
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_saturation_exact_below_clamp(self):
        model = gw_binary()
        full = enumerate_joint(model, (2, 4))
        sat = enumerate_joint(model, (2, 4), saturate=3)
        for v, p in sat.items():
            if all(x < 3 for x in v):
                assert p == pytest.approx(full[v], abs=1e-15)
        lump = sum(p for v, p in sat.items() if any(x == 3 for x in v))
        lump_full = sum(p for v, p in full.items() if any(x >= 3 for x in v))
        assert lump == pytest.approx(lump_full, abs=1e-14)

    def test_tree_pgf_matches_full_enumeration(self):
        model = gw_binary()
        dist = enumerate_joint(model, (2, 4))
        z = (0.4, 0.7)
        direct = sum(p * z[0] ** v[0] * z[1] ** v[1] for v, p in dist.items())
        assert tree_pgf(model, (2, 4), z) == pytest.approx(direct, abs=1e-14)

    def test_budget_blowup(self):
        heavy = BellmanHarris(FiniteLife({1: 1.0}), OffspringPMF([0.5, 0, 0, 0, 0.5]))
        with pytest.raises(OracleBlowup):
            enumerate_joint(heavy, (1, 2, 3, 4, 5, 6), budget=50)

    def test_rejects_bad_times(self):
        with pytest.raises(ConfigError):
            enumerate_joint(gw_binary(), ())

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: enumerate_joint(m, (3, 1)),
            lambda m: tree_pgf(m, (3, 1), (0.5, 0.5)),
            lambda m: tree_pgf(m, (1, 3), (0.5,)),
        ],
        ids=["joint_unordered", "pgf_unordered", "pgf_short_z"],
    )
    def test_rejects_what_the_dp_rejects(self, call):
        # each used to cut the tree at the last time listed, or to drop t = 3
        with pytest.raises(ConfigError):
            call(gw_binary())

    def test_rejects_saturation_below_one(self):
        with pytest.raises(ConfigError, match="saturate"):
            enumerate_joint(gw_binary(), (1, 2), saturate=0)

    def test_tree_pgf_drops_weight_one(self):
        model = gw_binary()
        assert tree_pgf(model, (1, 3), (1.0, 0.5)) == tree_pgf(model, (3,), (0.5,))
        assert tree_pgf(model, (1, 3), (1.0, 1.0)) == 1.0


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "model",
        [gw_binary(), Tabulated([(0.5, (1, 2), 3), (0.5, (), 2)]), delayed_c1()],
        ids=["gw", "tabulated", "delayed"],
    )
    def test_engine_matches_enumeration(self, model):
        report = oracle_equivalence(model, t_small=5)
        assert report.all_passed
        assert all(row.tolerance == 1e-12 for row in report.rows)
        assert {row.name for row in report.rows} == {
            "extinction profile vs enumeration",
            "joint pgf vs tree recursion",
            "conditional pmf vs enumeration",
        }

    def test_t_small_bounds(self):
        with pytest.raises(ConfigError):
            oracle_equivalence(gw_binary(), t_small=7)
        with pytest.raises(ConfigError):
            oracle_equivalence(gw_binary(), t_small=0)

    def test_t_small_one(self):
        assert oracle_equivalence(gw_binary(), t_small=1).all_passed


class TestRichardson:
    def test_recovers_pure_power_decay(self):
        for p in (0.5, 1.0, 2.0):
            x = [5.0 + 3.0 * (t ** -p) for t in (64, 128, 256)]
            assert richardson(*x) == pytest.approx(5.0, rel=1e-12)

    def test_constant_sequence(self):
        assert richardson(2.0, 2.0, 2.0) == 2.0

    def test_non_decaying_falls_back_to_last(self):
        assert richardson(1.0, 3.0, 2.0) == 2.0


class TestLimitConvergence:
    def test_gw_binary(self):
        report = limit_convergence(gw_binary(), (1.0, 2.0), (0.25, 0.5), (64, 128, 256, 512))
        assert report.all_passed
        extrap = {r.name: r for r in report.rows}["tQ extrapolation"]
        assert extrap.reference == 2.0
        assert abs(extrap.statistic - 2.0) < 0.01

    def test_zero_tail_weight_invariance(self):
        # d = 0: the weighted limit equals the plain one for any weights
        model = Tabulated([(0.5, (1, 2), 3), (0.5, (), 2)])
        for z in ((0.25, 0.5), (0.9, 0.1)):
            report = limit_convergence(model, (1.0, 2.0), z, (64, 128, 256))
            by = {r.name: r for r in report.rows}
            assert by["weighted tQ extrapolation"].reference == by["tQ extrapolation"].reference

    def test_requires_dyadic_grid(self):
        with pytest.raises(ConfigError):
            limit_convergence(gw_binary(), (1.0,), (0.5,), (64, 100, 200))
        with pytest.raises(ConfigError):
            limit_convergence(gw_binary(), (1.0,), (0.5,), (64, 128))

    def test_rejects_noncritical(self):
        skewed = BellmanHarris(FiniteLife({1: 1.0}), OffspringPMF([0.25, 0.25, 0.5]))
        with pytest.raises(ConfigError):
            limit_convergence(skewed, (1.0,), (0.5,), (64, 128, 256))

    def test_grid_must_be_integers(self):
        with pytest.raises(ConfigError, match="64.5"):
            limit_convergence(gw_binary(), (1.0,), (0.5,), (64.5, 129, 258))


class TestFddLimit:
    @pytest.mark.parametrize(
        "model, grid, match",
        [
            (delayed_c1(), (16,), "at least two points"),
            (BellmanHarris(FiniteLife({1: 1.0}), OffspringPMF([0.25, 0.25, 0.5])), (16, 32), "critical"),
            (delayed_c1(), (16.5, 32), "grid point 16.5 must be an integer"),
        ],
        ids=["one_point_grid", "noncritical", "fractional_grid"],
    )
    def test_rejects_bad_input(self, model, grid, match):
        with pytest.raises(ConfigError, match=match):
            fdd_limit_check(model, (1.0,), grid)

    def test_delayed_c1_marginal_trend(self):
        model = delayed_c1()
        report = fdd_limit_check(model, (1.0,), (16, 32, 64), K=10, replicates=8000)
        assert report.all_passed
        tv_rows = [r for r in report.rows if r.name.startswith("tv")]
        assert [r.statistic for r in tv_rows] == sorted(
            (r.statistic for r in tv_rows), reverse=True
        )

    def test_tv_within_unit_interval(self):
        model = delayed_c1()
        tv = tv_to_limit(model, (1.0, 2.0), 32, 8, c=1.0)
        assert 0.0 <= tv <= 1.0

    def test_conditioned_count_trend_matches_limit_value(self):
        # P(Z=1 | survival) at growing t vs the limit mass at one
        model = delayed_c1()
        target = eta_marginal_pmf(LimitParams(1.0), 1.0, 1).probs[1]
        assert target == pytest.approx((2.0 - math.sqrt(2.0)) / 4.0, abs=1e-12)
        from gwolab.exact_engine import FddSpec, conditional_pmf

        errs = []
        for t in (32, 64, 128):
            pm = conditional_pmf(model, FddSpec((t,), (0.0,), t_obs=t), K=2)
            errs.append(abs(float(pm.probs[1]) - target))
        assert errs[0] > errs[1] > errs[2]

    def test_dichotomy_target_from_hitting_time(self):
        assert dichotomy_fraction(1.0) == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-14)

    def test_scale_two_conditions_at_t(self):
        # counts at 2t given Z(t) > 0: Z(2t) = 0 carries about 0.45 of the
        # mass, so a Monte Carlo row conditioned at 2t would fail
        report = fdd_limit_check(delayed_c1(), (2.0,), (32, 64, 128))
        assert report.all_passed
        assert report.rows[-1].name == "mc pmf at t=32 (2052 survivors)"

    def test_mc_left_of_scale_one_conditions_at_t(self):
        # t is the last simulated time here; no gate on the limit left of 1
        report = fdd_limit_check(delayed_c1(), (0.5,), (32, 64), replicates=8000)
        assert report.rows[-1].passed
        assert report.rows[-1].name.startswith("mc pmf at t=32 (")

    def test_tv_at_scale_two_falls(self):
        tvs = [tv_to_limit(delayed_c1(), (2.0,), t, 10, 1.0) for t in (64, 128, 256)]
        assert tvs[0] > tvs[1] > tvs[2]
        assert tvs[2] < 0.01

    def test_mc_row_holds_each_cell_to_the_family_wise_bound(self):
        # 12 cells (counts 0..10 and the overflow): the worst reads 3.64
        # sigma, past 3 but within the Bonferroni bound 3.689
        report = fdd_limit_check(delayed_c1(), (2.0,), (16, 32))
        mc = report.rows[-1]
        assert mc.tolerance == pytest.approx(3.6892, abs=1e-4)
        assert 3.0 < mc.statistic <= mc.tolerance
        assert report.all_passed

    def test_mc_row_fails_a_wrong_law(self, monkeypatch):
        wrong, simulate = gw_binary(), verify.simulate
        monkeypatch.setattr(verify, "simulate", lambda cfg: simulate(dataclasses.replace(cfg, model=wrong)))
        mc = fdd_limit_check(delayed_c1(), (2.0,), (16, 32)).rows[-1]
        assert mc.statistic > mc.tolerance and not mc.passed

    def test_no_survivors_fails_the_mc_row(self):
        report = fdd_limit_check(delayed_c1(), (1.0,), (8, 16), K=4, replicates=1, seed=3)
        mc = report.rows[-1]
        assert mc.name == "mc pmf at t=8 (0 survivors)"
        assert mc.statistic == math.inf
        assert not mc.passed
        assert not report.all_passed


class TestReporting:
    def test_json_roundtrip(self):
        reports = [oracle_equivalence(gw_binary(), t_small=3)]
        buf = io.StringIO()
        report_json(reports, buf)
        payload = json.loads(buf.getvalue())
        assert payload["all_passed"] is True
        assert payload["reports"][0]["rows"][0]["tolerance"] == 1e-12
        assert {"statistic", "reference", "passed", "source", "runtime"} <= set(
            payload["reports"][0]["rows"][0]
        )

    def test_failed_row_propagates(self):
        row = CheckRow("x", 1.0, 0.0, 0.5, False, "none", 0.0)
        from gwolab.verify import RunReport

        rep = RunReport(name="r", rows=[row])
        assert not rep.all_passed
        buf = io.StringIO()
        report_json([rep], buf)
        assert json.loads(buf.getvalue())["all_passed"] is False

    def test_battery_fixed_order(self):
        reports = run_battery()
        assert [r.name for r in reports] == [
            "oracle_equivalence[BellmanHarris, t<=6]",
            "oracle_equivalence[Tabulated, t<=6]",
            "oracle_equivalence[DelayedDeath, t<=5]",
            "limit_convergence[BellmanHarris]",
            "limit_convergence[Tabulated]",
            "limit_convergence[DelayedDeath]",
            "fdd_limit_check[DelayedDeath]",
        ]
        assert all(r.all_passed for r in reports)

    def test_battery_rows_pinned_in_hex(self):
        # every row's numbers, bit for bit, as first recorded in
        # pinned_battery.json; the runtime is left out.  The bits hold for
        # any BLAS thread count (the battery's dots are short), but a BLAS
        # whose dot kernel sums in another order would move the last ones
        pins = json.loads((Path(__file__).resolve().parent / "pinned_battery.json").read_text())
        rows = [
            {
                "report": rep.name,
                "row": r.name,
                "statistic": r.statistic.hex(),
                "reference": r.reference.hex(),
                "tolerance": r.tolerance.hex(),
                "passed": r.passed,
                "source": r.source,
            }
            for rep in run_battery()
            for r in rep.rows
        ]
        assert rows == pins
