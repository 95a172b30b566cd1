"""Model config loading: schema validation, round trips, and the
derived parameters of configs built from files."""

import json
import string
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwolab.errors import ConfigError
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
    life_from_dict,
    life_to_dict,
    load_model,
    model_from_dict,
    model_to_dict,
    write_json,
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

    def test_sevastyanov_heavy_tail_moments_in_closed_form(self):
        # E N*L = m1(default) E L + 2 P(L = 2) (m1(2) - m1(default)), with
        # E L = t_min + d psi_1(t_min) exact, though its series decays like d/l
        model = model_from_dict(SEV_HEAVY)
        s = summarize(model)
        assert (s.mean_offspring, s.b, s.d) == (1.0, 0.375, 1.0)
        assert s.a == model.life.mean
        from gwolab.exact_engine import extinction_seq

        table = extinction_seq(model, 4)
        assert table.summary == s
        assert 0.0 < table.q[4] < 1.0

    def test_far_table_key_reads_one_mass(self):
        # a key of 10^12 past the finite life's support: P(L = l) is read
        # one key at a time, never through an array as long as the largest key
        cfg = {**SEV, "offspring_by_life": {**SEV["offspring_by_life"], str(10**12): [0.0, 1.0]}}
        tracemalloc.start()
        try:
            s = summarize(model_from_dict(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert s == summarize(model_from_dict(SEV))

    @pytest.mark.parametrize("cfg", [SEV, SEV_HEAVY], ids=["sev", "sev-heavy"])
    def test_summary_fields_are_python_numbers(self, cfg):
        # so that summarize --out can write them as JSON
        s = summarize(model_from_dict(cfg))
        assert [type(v) for v in astuple(s)] == [float] * 6 + [bool]

    def test_sevastyanov_degenerate_tail_certifies(self):
        # d = 0 leaves unit mass at t_min, and the default covers every life
        cfg = {
            "variant": "sevastyanov",
            "life": {"kind": "quadratic_tail", "d": 0.0, "t_min": 3},
            "offspring_by_life": {},
            "offspring_default": [0.5, 0.0, 0.5],
        }
        s = summarize(model_from_dict(cfg))
        assert s.critical
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

    @pytest.mark.parametrize("key", [" 1", "01", "+1", "1_0"])
    def test_pmf_keys_written_plainly(self, key):
        # " 1" next to "1" used to replace its mass silently
        with pytest.raises(ConfigError, match="plain integer"):
            life_from_dict({"kind": "finite", "pmf": {"1": 0.5, key: 0.5}})

    def test_atom_schema(self):
        bad = {"variant": "tabulated", "atoms": [{"prob": 1.0, "ages": [], "life": 2}]}
        with pytest.raises(ConfigError):
            model_from_dict(bad)

    def test_invalid_values_surface_as_config_errors(self):
        bad = dict(GW_BINARY, offspring=[0.5, 0.6])
        with pytest.raises(ConfigError):
            model_from_dict(bad)

    @pytest.mark.parametrize(
        "write, value, match",
        [
            (model_to_dict, FiniteLife({1: 1.0}), "cannot serialize model"),
            (life_to_dict, OffspringPMF([1.0]), "cannot serialize life law"),
        ],
        ids=["model", "life"],
    )
    def test_writers_reject_what_they_cannot_write(self, write, value, match):
        with pytest.raises(ConfigError, match=match):
            write(value)


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
        # both builds summarize identically
        assert summarize(model) == summarize(again)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        model = model_from_dict(DELAYED)
        with open(path, "w") as fh:
            write_json(model_to_dict(model), fh)
        again = load_model(str(path))
        assert model_to_dict(again) == model_to_dict(model)

    def test_code_built_sevastyanov_serializes(self):
        model = Sevastyanov(FiniteLife({1: 1.0}), {1: OffspringPMF([0.5, 0.0, 0.5])})
        assert model_to_dict(model_from_dict(model_to_dict(model))) == model_to_dict(model)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_model(str(path))


# every leaf of every shipped model, each replaced by a value its parser
# must reject: a malformed model file fails as a ConfigError naming the key
MODEL_DIR = Path(__file__).resolve().parents[1] / "docs" / "models"
SHIPPED = {p.stem: json.loads(p.read_text()) for p in sorted(MODEL_DIR.glob("*.json"))}
LEAF_KINDS = {
    "variant": "choice", "kind": "choice", "t_min": "int", "life": "int", "birth_ages": "int",
    "prob": "float", "d": "float", "offspring": "float", "offspring_default": "float",
}
TAGS = ("bellman_harris", "tabulated", "delayed_death", "sevastyanov", "finite", "quadratic_tail")

_letters = st.text(string.ascii_letters, min_size=1, max_size=8)
_fractions = st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer())
_objects = st.dictionaries(_letters, st.integers(), max_size=2)
_neither = st.one_of(_letters, st.booleans(), _objects, st.none(), st.lists(st.integers(), max_size=2))
_numeric_text = st.sampled_from(["10", "0.5", "1_0", " 1 ", "5e-1"])
_json_literals = st.sampled_from(["NaN", "Infinity", "-Infinity"]).map(json.loads)  # json.load takes these


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


def _leaf_key(path):
    """The key that names a leaf: its nearest object key.  A pmf or table
    key (a life length) holds masses."""
    key = [k for k in path if isinstance(k, str)][-1]
    return key, ("float" if key.isdigit() else LEAF_KINDS[key])


def _malformed(kind):
    if kind == "choice":
        return st.one_of(_neither.filter(lambda v: v not in TAGS), _fractions)
    if kind == "float":
        return st.one_of(_neither, _numeric_text, _json_literals)
    return st.one_of(_neither, _fractions, _numeric_text, _json_literals)


LEAVES = [(name, path) for name, cfg in SHIPPED.items() for path in _leaves(cfg)]


def test_leaf_kinds_cover_the_shipped_models():
    assert len(SHIPPED) == 6
    assert {_leaf_key(path)[0] for _, path in LEAVES if not _leaf_key(path)[0].isdigit()} == set(LEAF_KINDS)


@pytest.mark.parametrize("name, path", LEAVES, ids=[f"{n}:{'.'.join(map(str, p))}" for n, p in LEAVES])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_malformed_leaf_raises_config_error(name, path, data):
    key, kind = _leaf_key(path)
    cfg = json.loads(json.dumps(SHIPPED[name]))
    node = cfg
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = data.draw(_malformed(kind), label=key)
    with pytest.raises(ConfigError) as info:
        model_from_dict(cfg)
    assert f"{key}: " in str(info.value)
