"""Model config loading: schema validation, round trips, and the
derived parameters of configs built from files."""


import pytest

from gwolab.errors import ConfigError, DivergentMoment
from gwolab.lifelaw import (
    BellmanHarris,
    DelayedDeath,
    FiniteLife,
    OffspringPMF,
    QuadraticTailLife,
    Sevastyanov,
    Tabulated,
    summarize,
)
from gwolab.modelio import (
    dump_model,
    life_from_dict,
    load_model,
    model_from_dict,
    model_to_dict,
)

GW_BINARY = {
    "variant": "bellman_harris",
    "life": {"kind": "finite", "pmf": {"1": 1.0}},
    "offspring": [0.5, 0.0, 0.5],
}

HEAVY = {
    "variant": "bellman_harris",
    "life": {"kind": "quadratic_tail", "d": 1.0, "t_min": 2},
    "offspring": [0.75, 0.0, 0.0, 0.0, 0.25],
}

TABULATED = {
    "variant": "tabulated",
    "atoms": [
        {"prob": 0.5, "birth_ages": [1, 2], "life": 3},
        {"prob": 0.5, "birth_ages": [], "life": 2},
    ],
}

DELAYED = {
    "variant": "delayed_death",
    "schedules": [{"prob": 0.5, "birth_ages": [1, 2]}, {"prob": 0.5, "birth_ages": []}],
    "residual": {"kind": "quadratic_tail", "d": 1.125, "t_min": 2},
}

SEV = {
    "variant": "sevastyanov",
    "life": {"kind": "finite", "pmf": {"1": 0.5, "2": 0.5}},
    "offspring_by_life": {"1": [0.5, 0.0, 0.5], "2": [0.25, 0.5, 0.25]},
}

SEV_HEAVY = {
    "variant": "sevastyanov",
    "life": {"kind": "quadratic_tail", "d": 1.0, "t_min": 2},
    "offspring_by_life": {"2": [0.5, 0.0, 0.5]},
    "offspring_default": [0.0, 1.0],
}


class TestLoading:
    def test_variants_map_to_types(self):
        assert isinstance(model_from_dict(GW_BINARY), BellmanHarris)
        assert isinstance(model_from_dict(TABULATED), Tabulated)
        assert isinstance(model_from_dict(DELAYED), DelayedDeath)
        assert isinstance(model_from_dict(SEV), Sevastyanov)

    def test_gw_binary_parameters(self):
        s = summarize(model_from_dict(GW_BINARY))
        assert (s.b, s.a, s.d, s.h, s.c) == (0.5, 1.0, 0.0, 2.0, 0.0)

    def test_heavy_tail_parameters(self):
        s = summarize(model_from_dict(HEAVY))
        assert s.b == pytest.approx(1.5)
        assert s.d == 1.0

    def test_sevastyanov_table_rule(self):
        model = model_from_dict(SEV)
        assert model.offspring_by_life(1).probs[2] == 0.5
        assert model.offspring_by_life(2).probs[1] == 0.5
        with pytest.raises(ConfigError):
            model.offspring_by_life(3)

    def test_sevastyanov_heavy_tail_moments_not_certified(self):
        # the auto bound is attached, but the E(N*L) remainder decays
        # like d/l0, which can never be summed below the certification
        # tolerance; the summary honestly declines
        model = model_from_dict(SEV_HEAVY)
        with pytest.raises(DivergentMoment, match="remainder"):
            summarize(model)
        # the dynamic program does not need the summary
        from gwolab.exact_engine import extinction_seq

        table = extinction_seq(model, 4)
        assert table.summary is None
        assert 0.0 < table.q[4] < 1.0

    def test_uncertified_tail_is_not_summed(self):
        # the bound fails at every checkpoint up to the cap, so the series
        # is never summed: no offspring law is looked up
        model = model_from_dict(SEV_HEAVY)
        rule, calls = model.offspring_by_life, []
        model.offspring_by_life = lambda l: calls.append(l) or rule(l)
        message = r"^moment series not certified: remainder bound 1\.91e-06 at l=1048576$"
        with pytest.raises(DivergentMoment, match=message):
            summarize(model)
        assert calls == []

    def test_sevastyanov_degenerate_tail_certifies(self):
        # d = 0 kills the tail outright, so the auto bound certifies
        cfg = {
            "variant": "sevastyanov",
            "life": {"kind": "quadratic_tail", "d": 0.0, "t_min": 3},
            "offspring_by_life": {},
            "offspring_default": [0.5, 0.0, 0.5],
        }
        s = summarize(model_from_dict(cfg))
        assert s.critical and s.a_finite
        assert s.a == pytest.approx(3.0)

    def test_life_kinds(self):
        fin = life_from_dict({"kind": "finite", "pmf": {"2": 1.0}})
        assert isinstance(fin, FiniteLife) and fin.max_life == 2
        qt = life_from_dict({"kind": "quadratic_tail", "d": 4.0, "t_min": 2})
        assert isinstance(qt, QuadraticTailLife) and qt.survival(10) == 0.04


class TestValidation:
    def test_unknown_model_key(self):
        bad = dict(GW_BINARY, extra=1)
        with pytest.raises(ConfigError, match="unknown key"):
            model_from_dict(bad)

    def test_unknown_life_key(self):
        bad = dict(GW_BINARY, life={"kind": "finite", "pmf": {"1": 1.0}, "mean": 1.0})
        with pytest.raises(ConfigError, match="unknown key"):
            model_from_dict(bad)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="variant"):
            model_from_dict({"variant": "galton"})

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing"):
            model_from_dict({"variant": "bellman_harris", "life": GW_BINARY["life"]})

    def test_cross_variant_keys_rejected(self):
        bad = dict(TABULATED, offspring=[1.0])
        with pytest.raises(ConfigError):
            model_from_dict(bad)

    def test_non_integer_pmf_key(self):
        with pytest.raises(ConfigError, match="integer"):
            life_from_dict({"kind": "finite", "pmf": {"one": 1.0}})

    def test_atom_schema(self):
        bad = {"variant": "tabulated", "atoms": [{"prob": 1.0, "ages": [], "life": 2}]}
        with pytest.raises(ConfigError):
            model_from_dict(bad)

    def test_invalid_values_surface_as_config_errors(self):
        bad = dict(GW_BINARY, offspring=[0.5, 0.6])
        with pytest.raises(ConfigError):
            model_from_dict(bad)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "cfg", [GW_BINARY, HEAVY, TABULATED, DELAYED, SEV, SEV_HEAVY],
        ids=["gw", "heavy", "tabulated", "delayed", "sev", "sev-heavy"],
    )
    def test_dict_round_trip(self, cfg):
        model = model_from_dict(cfg)
        emitted = model_to_dict(model)
        again = model_from_dict(emitted)
        assert model_to_dict(again) == emitted
        # both builds summarize identically (or decline identically)
        try:
            s1 = summarize(model)
        except DivergentMoment:
            with pytest.raises(DivergentMoment):
                summarize(again)
            return
        s2 = summarize(again)
        assert (s1.b, s1.a, s1.d, s1.h, s1.c) == (s2.b, s2.a, s2.d, s2.h, s2.c)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        model = model_from_dict(DELAYED)
        with open(path, "w") as fh:
            dump_model(model, fh)
        again = load_model(str(path))
        assert model_to_dict(again) == model_to_dict(model)

    def test_opaque_rule_not_serializable(self):
        opaque = Sevastyanov(FiniteLife({1: 1.0}), lambda l: OffspringPMF([0.5, 0.0, 0.5]))
        with pytest.raises(ConfigError, match="table"):
            model_to_dict(opaque)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_model(str(path))
