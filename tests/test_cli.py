"""Command-line behavior: printed summaries, file outputs, config
echo round trips, seeds, and the exit-code contract."""

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwolab.series
from gwolab import cli, exact_engine
from gwolab.cli import main
from gwolab.exact_engine import FddSpec, conditional_pmf
from gwolab.limitlaw import figure1_data

import shipped

# the model files the tests read, as the CLI takes them
BINARY_SPLITTING = str(shipped.path("binary_splitting"))
DELAYED_DEATH = str(shipped.path("delayed_death"))


class TestSummarize:
    def test_prints_parameters(self, capsys):
        assert main(["summarize", "--model", BINARY_SPLITTING]) == 0
        out = capsys.readouterr().out
        for token in ("b=0.5", "a=1", "d=0", "h=2", "c=0"):
            assert token in out

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        assert main(["summarize", "--model", BINARY_SPLITTING, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["h"] == 2.0 and payload["critical"] is True


class TestDp:
    def test_time_zero(self, capsys):
        assert main(["dp", "--model", BINARY_SPLITTING, "--tmax", "0"]) == 0
        assert "Q(0)=1" in capsys.readouterr().out

    def test_csv_and_echo_round_trip(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        assert main(["dp", "--model", BINARY_SPLITTING, "--tmax", "8", "--out", str(a)]) == 0
        lines = a.read_text().strip().splitlines()
        assert lines[0] == "t,Q,tQ,h,abs_error"
        assert len(lines) == 10
        echo = tmp_path / "a.csv.config.json"
        assert echo.exists()
        # re-running from the echo reproduces the output bit for bit
        b = tmp_path / "b.csv"
        assert main(["dp", "--config", str(echo), "--out", str(b)]) == 0
        assert b.read_bytes() == a.read_bytes()

    def test_csv_bytes_pinned(self, tmp_path, capsys):
        # the binary-splitting column at t = 2^10, written by the row-by-row
        # writer that formatted numpy scalars; any change of digits,
        # separators or line ends changes the digest
        out = tmp_path / "dp.csv"
        assert main(["dp", "--model", BINARY_SPLITTING, "--tmax", "1024", "--out", str(out)]) == 0
        data = out.read_bytes()
        assert data.startswith(b"t,Q,tQ,h,abs_error\r\n0,1,0,2,2\r\n1,0.5,0.5,2,1.5\r\n")
        assert data.endswith(b"1024,0.0019366568943026685,1.9831366597659326,2,0.016863340234067437\r\n")
        assert hashlib.sha256(data).hexdigest() == "460a3a65b691ee9542f764667dc6b4026b7a3ab62df2012aed6fdfe872366352"

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": shipped.config("binary_splitting"), "tmax": 4}))
        assert main(["dp", "--config", str(cfg), "--tmax", "1"]) == 0
        assert "Q(1)=0.5" in capsys.readouterr().out

    def test_config_command_mismatch(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "summarize", "model": shipped.config("binary_splitting")}))
        assert main(["dp", "--config", str(cfg), "--tmax", "1"]) == 2


class TestFdd:
    def test_pgf_value(self, capsys):
        assert main(["fdd", "--model", BINARY_SPLITTING, "--times", "1,2", "--z", "0,0"]) == 0
        assert "pgf=0.5" in capsys.readouterr().out

    def test_pmf_csv(self, tmp_path, capsys):
        out = tmp_path / "pmf.csv"
        code = main(
            ["fdd", "--model", BINARY_SPLITTING, "--times", "3", "--tobs", "3", "--K", "6", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n_t3,prob"
        assert lines[-1].startswith("overflow,")
        kept = sum(float(l.split(",")[1]) for l in lines[1:-1])
        overflow = float(lines[-1].split(",")[1])
        assert kept + overflow == pytest.approx(1.0, abs=1e-10)

    def test_pmf_covers_every_time(self, tmp_path, capsys):
        # a weight of 1 in --z must not drop time 4 from the extraction
        out = tmp_path / "pmf.csv"
        code = main(
            ["fdd", "--model", BINARY_SPLITTING, "--times", "4,8", "--z", "1,0", "--tobs", "8",
             "--K", "6", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "n_t4,n_t8,prob"

    @pytest.mark.parametrize("times", [(8,), (8, 12), (8, 12, 16)], ids=["k1", "k2", "k3"])
    def test_pmf_csv_bytes_are_csv_writers(self, times, tmp_path, capsys):
        # the cells of total count <= K in C order, then the overflow row
        K = 6
        out = tmp_path / "pmf.csv"
        code = main(
            ["fdd", "--model", DELAYED_DEATH, "--times", ",".join(map(str, times)), "--tobs", "8",
             "--K", str(K), "--out", str(out)]
        )
        assert code == 0
        pm = conditional_pmf(shipped.model("delayed_death"), FddSpec(times, [0.0] * len(times), t_obs=8), K)
        cells = [list(idx) + [pm.probs[idx]] for idx in np.ndindex(pm.probs.shape) if sum(idx) <= K]
        header = [f"n_t{t}" for t in times] + ["prob"]
        assert out.read_bytes() == shipped.csv_writer_bytes(header, cells + [["overflow"] * len(times) + [pm.overflow]])

    def test_pmf_needs_tobs(self, capsys):
        assert main(["fdd", "--model", BINARY_SPLITTING, "--times", "3", "--K", "6"]) == 2


class TestSimulate:
    def test_seed_determinism(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        base = ["simulate", "--model", BINARY_SPLITTING, "--tmax", "4", "--times", "2,4",
                "--replicates", "300", "--seed", "11"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_no_threads_option(self, command, capsys):
        # replicates and checks run serially; no option selects a pool
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--threads" not in capsys.readouterr().out

    def test_summary_json(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        code = main(
            ["simulate", "--model", BINARY_SPLITTING, "--tmax", "2", "--replicates", "500",
             "--seed", "7", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["seed"] == 7
        assert 0.0 < payload["survival"]["estimate"] < 1.0

    def test_echo_round_trip(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        args = ["simulate", "--model", BINARY_SPLITTING, "--tmax", "3", "--replicates", "100",
                "--seed", "5", "--out", str(a)]
        assert main(args) == 0
        b = tmp_path / "b.csv"
        assert main(["simulate", "--config", str(a) + ".config.json", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestLimit:
    def test_dyadic_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "limit.csv"
        code = main(
            ["limit", "--model", DELAYED_DEATH, "--y", "1,2", "--z", "0.25,0.5",
             "--tmax", "64", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,Q,tQ,h,abs_error"
        assert [l.split(",")[0] for l in lines[1:]] == ["8", "16", "32", "64"]
        assert "target=" in capsys.readouterr().out


class TestFigure1:
    def test_density_jump(self, tmp_path, capsys):
        out = tmp_path / "fig.csv"
        assert main(["figure1", "--c", "15", "--grid", "0.01", "--out", str(out)]) == 0
        assert "density_jump_at_1=0.25" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "y,f_T,f_T0"
        rows = {l.split(",")[0]: float(l.split(",")[1]) for l in lines[1:]}
        assert rows["1"] - rows["0.98999999999999999"] == pytest.approx(0.25, abs=0.01)

    def test_csv_bytes_are_csv_writers(self, tmp_path, capsys):
        # 8,000 rows: more than one write
        out = tmp_path / "fig.csv"
        assert main(["figure1", "--c", "15", "--grid", "0.0005", "--out", str(out)]) == 0
        data = figure1_data(15.0, step=0.0005, y_max=4.0)
        assert data.shape[0] > 4096
        assert out.read_bytes() == shipped.csv_writer_bytes(["y", "f_T", "f_T0"], data)


class TestVerify:
    def test_battery_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["all_passed"] is True
        assert "reports passed" in capsys.readouterr().out


class TestExitCodes:
    def test_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"variant": "bellman_harris"}))
        assert main(["summarize", "--model", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_heavy_tail_sevastyanov_summarizes(self, tmp_path, capsys):
        # a heavy tail under a default law: moments in closed form; code 3 is retired
        out = tmp_path / "summary.json"
        assert main(["summarize", "--model", str(shipped.path("heavy_tail_sevastyanov")), "--out", str(out)]) == 0
        s = json.loads(out.read_text())
        assert (s["b"], s["a"], s["h"], s["c"]) == (0.375, 2.6449340668482266, 7.412891196596736, 0.2144181567674593)
        assert "critical=True" in capsys.readouterr().out
        assert 3 not in cli.EXIT_CODES.values()

    @pytest.mark.parametrize("key", ["0", "-1", str(2**70)])
    def test_table_key_outside_the_lives_exits_2(self, key, tmp_path, capsys):
        path = tmp_path / "sev.json"
        model = {**shipped.config("heavy_tail_sevastyanov"), "offspring_by_life": {key: [0.5, 0.0, 0.5]}}
        path.write_text(json.dumps(model))
        assert main(["summarize", "--model", str(path)]) == 2
        assert f"life {key} must be" in capsys.readouterr().err

    def test_cap_too_large(self, capsys):
        code = main(
            ["fdd", "--model", BINARY_SPLITTING, "--times", "2,3,4", "--tobs", "4", "--K", "300"]
        )
        assert code == 5

    def test_dp_table_past_the_budget(self, capsys):
        code = main(["dp", "--model", BINARY_SPLITTING, "--tmax", str(exact_engine._DP_BUDGET)])
        assert code == 5
        assert "DP table" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure1", "--c", "15", "--grid", "1e-12"],
            ["simulate", "--model", "{model}", "--tmax", "1000000000000", "--replicates", "1", "--seed", "1"],
            ["simulate", "--model", "{model}", "--tmax", "32", "--replicates", "1000000000000", "--seed", "1"],
        ],
        ids=["figure1_grid", "simulate_horizon", "simulate_replicates"],
    )
    def test_sizes_past_the_budget_exit_5(self, argv, capsys):
        assert main([a.format(model=BINARY_SPLITTING) for a in argv]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "model, path, value",
        [
            (shipped.config("binary_splitting"), ("life", "pmf", "1"), "abc"),
            (shipped.config("binary_splitting"), ("life", "pmf", "1"), [1]),
            (shipped.config("binary_splitting"), ("life", "pmf", "1"), True),
            (shipped.config("early_births"), ("atoms",), 5),
            (shipped.config("early_births"), ("atoms", 0, "life"), "x"),
            (shipped.config("early_births"), ("atoms", 0, "birth_ages"), 3),
            (shipped.config("early_births"), ("atoms", 0, "birth_ages"), [1.7]),
            (shipped.config("delayed_death"), ("residual", "t_min"), 2.5),
            (shipped.config("delayed_death"), ("residual", "d"), None),
            (shipped.config("heavy_tail_sevastyanov"), ("offspring_by_life",), {}),
            (shipped.config("heavy_tail_sevastyanov"), ("offspring_by_life",), []),
            (shipped.config("delayed_death"), ("residual", "d"), "1.0"),
            (shipped.config("delayed_death"), ("residual", "t_min"), "2"),
            (shipped.config("binary_splitting"), ("offspring", 0), " 0.5 "),
            (shipped.config("binary_splitting"), ("offspring", 0), math.nan),
            (shipped.config("binary_splitting"), ("offspring", 2), "5e-1"),
            (shipped.config("binary_splitting"), ("life", "pmf", "1"), "1"),
            (shipped.config("early_births"), ("atoms", 0, "prob"), "0.5"),
            (shipped.config("early_births"), ("atoms", 0, "birth_ages", 0), "1"),
            (shipped.config("early_births"), ("atoms", 0, "life"), "1_0"),
            ({"variant": "sevastyanov", "life": {"kind": "finite", "pmf": {"1": 1.0}},
              "offspring_by_life": {"1": [0.5, 0.0, 0.5]}}, ("offspring_by_life", "1", 0), "0.5"),
        ],
        ids=["pmf_letters", "pmf_list", "pmf_bool", "atoms_int", "atom_life_letter",
             "ages_int", "age_fraction", "t_min_fraction", "d_null", "table_empty", "table_list",
             "d_text", "t_min_text", "offspring_padded_text", "offspring_nan", "offspring_exponent_text", "pmf_text",
             "atom_prob_text", "age_text", "atom_life_text", "table_text"],
    )
    def test_malformed_model_file_exits_2(self, model, path, value, tmp_path, capsys):
        # each used to exit 1 with a traceback, or 0 after truncating or
        # accepting the value; model values are JSON numbers, never text
        # that reads as one
        model = json.loads(json.dumps(model))
        model.pop("offspring_default", None)  # so that an empty table leaves no law at all
        node = model
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(model))
        assert main(["summarize", "--model", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: model: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_zero_conditioning(self, tmp_path, capsys):
        path = tmp_path / "doomed.json"
        path.write_text(
            json.dumps(
                {"variant": "tabulated", "atoms": [{"prob": 1.0, "birth_ages": [], "life": 2}]}
            )
        )
        code = main(
            ["fdd", "--model", str(path), "--times", "5", "--z", "0.5", "--tobs", "5"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: t_obs 5: Z(5) > 0 has probability 0\n"

    def test_missing_required_flag(self, capsys):
        assert main(["dp", "--model", BINARY_SPLITTING]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["fdd", "--model", "{model}", "--times", "4,x", "--z", "0.5,0.5"],
            ["simulate", "--model", "{model}", "--tmax", "4", "--times", "4,x",
             "--replicates", "10", "--seed", "1"],
            ["figure1", "--c", "abc"],
            ["dp", "--model", "{missing}", "--tmax", "4"],
            ["dp", "--config", "{missing}"],
            ["limit", "--model", "{model}", "--y", "1,2", "--z", "1,0", "--tmax", "16"],
            ["limit", "--model", "{model}", "--y", "1", "--z", "0", "--times", ","],
            ["limit", "--model", "{model}", "--y", "1", "--z", "0", "--tmax", "4"],
        ],
        ids=["fdd_times", "simulate_times", "figure1_c", "missing_model", "missing_config", "limit_z0_one",
             "limit_empty_grid", "limit_tmax_below_8"],
    )
    def test_bad_input_exits_2(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main([a.format(model=BINARY_SPLITTING, missing=missing) for a in argv]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "offspring", [[0.4, 0.3, 0.3], [0.2, 0.3, 0.5], [0.0, 1.0]], ids=["subcritical", "supercritical", "one_child"]
    )
    def test_limit_refuses_a_model_the_theorem_does_not_cover(self, offspring, tmp_path, capsys):
        path = tmp_path / "model.json"
        life = {"kind": "finite", "pmf": {"1": 0.5, "2": 0.5}}
        path.write_text(json.dumps({"variant": "bellman_harris", "life": life, "offspring": offspring}))
        model = ["--model", str(path)]
        assert main(["limit", *model, "--y", "1", "--z", "0.5", "--tmax", "256"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "critical" in captured.err
        for argv in (
            ["summarize"],
            ["dp", "--tmax", "64"],
            ["fdd", "--times", "8,16", "--z", "0.5,0.5"],
            ["fdd", "--times", "8,16", "--tobs", "8", "--K", "4"],
            ["simulate", "--tmax", "16", "--replicates", "50", "--seed", "1"],
        ):
            assert main([*argv, *model]) == 0, argv
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv, out",
        [(argv, out) for out in ("{tmp}/missing/f.json", "{tmp}", "") for argv in (["summarize", "--model", "{model}"], ["verify"])],
        ids=["summarize", "verify", "summarize_directory", "verify_directory", "summarize_empty", "verify_empty"],
    )
    def test_out_into_missing_directory_exits_2_before_work(self, argv, out, tmp_path, capsys):
        # an existing directory or an empty path is no file to write, so the
        # run stops before any work, as for a directory that does not exist
        argv = [a.format(model=BINARY_SPLITTING) for a in argv] + ["--out", out.format(tmp=tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not any(tmp_path.iterdir())
        assert captured.err.startswith("error: out: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("level, code", [("nonsense", 2), ("basic_format", 2), ("warning", 0), ("Debug", 0)])
    def test_log_level_names(self, level, code):
        # a subprocess, so that logging's one-time set-up stays out of this one
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, GWOLAB_LOG=level,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-m", "gwolab.cli", "summarize", "--model", DELAYED_DEATH],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == code, out.stderr
        if code:
            assert out.stdout == "" and out.stderr.startswith("error: GWOLAB_LOG: ")
            assert out.stderr.count("\n") == 1
        else:
            assert out.stdout.startswith("mean_offspring=1 ") and out.stderr == ""

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestParameterTable:
    """Flag values and --config values go through one declared parser per
    parameter; malformed values and unknown keys exit 2 before any work."""

    @pytest.mark.parametrize(
        "command, config",
        [
            ("dp", {"model": shipped.config("binary_splitting"), "tmax": "abc"}),
            ("simulate", {"model": shipped.config("binary_splitting"), "tmax": 4, "replicates": "ten", "seed": 1}),
            ("fdd", {"model": shipped.config("binary_splitting"), "times": [3], "tobs": 3, "K": 2.5}),
            ("simulate", {"model": shipped.config("binary_splitting"), "tmax": 4, "replicates": 10, "seed": 1,
                          "format": "xml"}),
            ("figure1", {"c": 1.0, "gird": 0.5}),
            ("dp", {"model": shipped.config("binary_splitting"), "tmax": 4, "out": None}),
        ],
        ids=["tmax_letters", "replicates_letters", "K_fraction", "format_xml", "unknown_key",
             "out_null"],
    )
    def test_bad_config_value_exits_2(self, command, config, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    def test_flag_uses_same_parser(self, capsys):
        assert main(["dp", "--model", BINARY_SPLITTING, "--tmax", "2.5"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, echo",
        [
            (["fdd", "--times", "4,8", "--tobs", "4", "--K", "4"],
             {"command": "fdd", "times": "4,8", "tobs": 4, "K": 4}),
            (["simulate", "--tmax", "4", "--times", "2,4", "--replicates", "100", "--seed", "5"],
             {"command": "simulate", "tmax": 4, "times": "2,4", "replicates": 100, "seed": 5}),
        ],
        ids=["fdd", "simulate"],
    )
    def test_string_valued_echo_reproduces(self, argv, echo, tmp_path, capsys):
        # echoes used to hold list parameters as the flag's text
        a = tmp_path / "a.csv"
        assert main(argv + ["--model", BINARY_SPLITTING, "--out", str(a)]) == 0
        cfg = tmp_path / "old_echo.json"
        cfg.write_text(json.dumps(dict(echo, model=shipped.config("binary_splitting"))))
        b = tmp_path / "b.csv"
        assert main([echo["command"], "--config", str(cfg), "--out", str(b)]) == 0
        assert b.read_bytes() == a.read_bytes()


# every parameter but --out, with its kind and a valid config holding it
VALID = {
    "summarize": {"model": shipped.config("binary_splitting")},
    "dp": {"model": shipped.config("binary_splitting"), "tmax": 4},
    "fdd": {"model": shipped.config("binary_splitting"), "times": [1, 2], "z": [0.0, 0.0], "tobs": 1, "K": 2},
    "simulate": {"model": shipped.config("binary_splitting"), "tmax": 4, "times": [2, 4], "replicates": 10,
                 "seed": 1, "format": "csv"},
    "limit": {"model": shipped.config("binary_splitting"), "y": [1.0, 2.0], "z": [0.25, 0.5], "tmax": 16,
              "times": [8, 16]},
    "figure1": {"c": 1.0, "grid": 0.5, "y_max": 2.0},
    "verify": {},
}
KINDS = {
    "model": "model", "tmax": "int", "tobs": "int", "K": "int", "replicates": "int",
    "seed": "int", "times": "ints", "z": "floats", "y": "floats", "format": "choice",
    "c": "float", "grid": "float", "y_max": "float",
}

_letters = st.text(string.ascii_letters, min_size=1, max_size=8)
_fractions = st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer())
_objects = st.dictionaries(_letters, st.integers(), max_size=2)
_neither = st.one_of(_letters, st.booleans(), _objects, st.none())


def _malformed(kind):
    """JSON values the parameter's parser must reject."""
    if kind == "choice":
        scalar = st.one_of(_neither.filter(lambda v: v not in ("csv", "json")), _fractions)
    elif kind in ("float", "floats"):
        scalar = _neither
    else:  # ints, and model paths (no file exists in the working directory)
        scalar = st.one_of(_neither, _fractions)
    if kind in ("ints", "floats"):  # a list is valid when each item is
        return st.one_of(scalar, st.lists(scalar, min_size=1, max_size=3))
    return st.one_of(scalar, st.lists(st.integers(), min_size=1, max_size=3))


def _run_config(command, config):
    # an empty working directory, so no malformed model path names a file
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("cfg.json", "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", "cfg.json"])
        finally:
            os.chdir(cwd)
    return code, err.getvalue()


PARAMS = [(command, name) for command, cfg in VALID.items() for name in cfg]


def test_kinds_cover_every_parameter():
    declared = {c: {n for n, _, _ in cli._params(c)} - {"out"} for c in cli._COMMANDS}
    assert declared == {c: set(cfg) for c, cfg in VALID.items()}
    assert set(KINDS) == {n for names in declared.values() for n in names}


@pytest.mark.parametrize("command", [c for c in VALID if c != "verify"])
def test_valid_config_runs(command):
    # so that the malformed value alone makes a run below fail
    assert _run_config(command, VALID[command]) == (0, "")


@pytest.mark.parametrize("command, name", PARAMS, ids=[f"{c}.{n}" for c, n in PARAMS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_malformed_config_value_exits_2(command, name, data):
    value = data.draw(_malformed(KINDS[name]), label=name)
    code, err = _run_config(command, dict(VALID[command], **{name: value}))
    assert code == 2 and err.startswith(f"error: {name}: ")


ROOT = Path(__file__).resolve().parents[1]

# model files the scipy-free run writes to its directory, {out}
SCIPY_FREE_MODELS = {
    # the heavy_tail_life law as a Sevastyanov table with no rows
    "sev": {**shipped.config("heavy_tail_sevastyanov"), "offspring_by_life": {},
            "offspring_default": [0.75, 0.0, 0.0, 0.0, 0.25]},
    "bad_age": {"variant": "tabulated", "atoms": [{"prob": 1.0, "birth_ages": [1.7], "life": 2}]},
    "nan": {**shipped.config("binary_splitting"), "offspring": [math.nan, 0.0, 0.5]},
    "doomed": {"variant": "tabulated", "atoms": [{"prob": 1.0, "birth_ages": [], "life": 2}]},
    "sub": {"variant": "bellman_harris", "life": {"kind": "finite", "pmf": {"1": 0.5, "2": 0.5}},
            "offspring": [0.4, 0.3, 0.3]},
}

# (exit code, argv) of every command a numpy-only install is checked with,
# run in order in one interpreter that cannot import scipy
SCIPY_FREE = [
    # the trigamma sums the d/t^2 life tail
    (0, ["summarize", "--model", "{docs}/heavy_tail_life.json"]),
    # products in three variables on the pair table (K = 20) and on the
    # FFT (K = 24), and in one on the FFT (K = 600); t_obs before the first
    # time and between times
    (0, ["fdd", "--model", "{docs}/delayed_death.json", "--times", "8,12,16", "--tobs", "8", "--K", "20",
         "--out", "{out}/pmf.csv"]),
    (0, ["fdd", "--model", "{docs}/delayed_death.json", "--times", "8,12,16", "--tobs", "8", "--K", "24"]),
    (0, ["fdd", "--model", "{docs}/delayed_death.json", "--times", "8,12,16", "--K", "10", "--tobs", "4"]),
    (0, ["fdd", "--model", "{docs}/delayed_death.json", "--times", "8,12,16", "--K", "10", "--tobs", "10"]),
    (0, ["fdd", "--model", "{docs}/delayed_death.json", "--times", "64", "--tobs", "64", "--K", "600"]),
    (0, ["dp", "--model", "{docs}/heavy_tail_life.json", "--tmax", "4096"]),
    # a table over a quadratic life tail, its moments in closed form; the
    # sampler draws the default law, then the table's lives
    (0, ["summarize", "--model", "{docs}/heavy_tail_sevastyanov.json"]),
    (0, ["dp", "--model", "{docs}/heavy_tail_sevastyanov.json", "--tmax", "16384"]),
    (0, ["simulate", "--model", "{docs}/heavy_tail_sevastyanov.json", "--tmax", "64", "--times", "16,64",
         "--replicates", "4000", "--seed", "1"]),
    (0, ["fdd", "--model", "{docs}/heavy_tail_sevastyanov.json", "--times", "48,96", "--tobs", "48", "--K", "10"]),
    # bellman_harris is the sevastyanov law with an empty table
    (0, ["dp", "--model", "{out}/sev.json", "--tmax", "4096", "--out", "{out}/sev.csv"]),
    (0, ["dp", "--model", "{docs}/heavy_tail_life.json", "--tmax", "4096", "--out", "{out}/bh.csv"]),
    # the short-life scalar DPs run as Tabulated atoms on the scheduled kernel
    (0, ["dp", "--model", "{docs}/binary_splitting.json", "--tmax", "65536", "--out", "{out}/dp.csv"]),
    (0, ["dp", "--model", "{docs}/age_dependent_offspring.json", "--tmax", "65536"]),
    (0, ["limit", "--model", "{docs}/binary_splitting.json", "--y", "1,2", "--z", "0.25,0.5", "--tmax", "8192",
         "--out", "{out}/limit.csv"]),
    # weight-0 limit rows, on powers of 2 and off them, beside dp columns
    (0, ["limit", "--model", "{docs}/heavy_tail_life.json", "--y", "1,2", "--z", "0,0.5",
         "--times", "1024,2048,4096", "--out", "{out}/cut_limit.csv"]),
    (0, ["dp", "--model", "{docs}/heavy_tail_life.json", "--tmax", "4096", "--out", "{out}/cut_dp.csv"]),
    (0, ["limit", "--model", "{docs}/heavy_tail_life.json", "--y", "1,2", "--z", "0,0.5", "--times", "1000,3000",
         "--out", "{out}/odd_limit.csv"]),
    (0, ["dp", "--model", "{docs}/heavy_tail_life.json", "--tmax", "3000", "--out", "{out}/odd_dp.csv"]),
    # a weight-1 coordinate dropped from the query, and FddSpec.at's scaled times
    (0, ["limit", "--model", "{docs}/delayed_death.json", "--y", "1,1.5,2", "--z", "0.3,1,0.5",
         "--times", "64,128,256"]),
    # the battery crosses all three routes, and expands eta_fdd_pmf on ring rows
    (0, ["verify", "--out", "{out}/verify.json"]),
    # the densities of T and T0 on a 400,000-row grid, filled in place; a
    # grid past the element budget exits 5
    (0, ["figure1", "--c", "15", "--grid", "1e-5", "--out", "{out}/figure1.csv"]),
    (5, ["figure1", "--c", "15", "--grid", "1e-12"]),
    # a fractional birth age and a NaN mass are refused, and so is a query
    # the model cannot answer (Z(5) > 0 has probability 0)
    (2, ["summarize", "--model", "{out}/bad_age.json"]),
    (2, ["summarize", "--model", "{out}/nan.json"]),
    (2, ["fdd", "--model", "{out}/doomed.json", "--times", "5", "--z", "0.5", "--tobs", "5"]),
    # limit refuses a subcritical model, while its DP still runs
    (2, ["limit", "--model", "{out}/sub.json", "--y", "1", "--z", "0.5", "--tmax", "256"]),
    (0, ["dp", "--model", "{out}/sub.json", "--tmax", "64"]),
    # the Squares64 streams and the simulation CSV writer
    (0, ["simulate", "--model", "{docs}/delayed_death.json", "--tmax", "64", "--times", "16,64",
         "--replicates", "4000", "--seed", "1", "--out", "{out}/sim.csv"]),
    # tabulated is the scheduled law without a residual: the summary, the
    # DP, the sampler and the conditioned pmf through the one scheduled path
    (0, ["summarize", "--model", "{docs}/early_births.json"]),
    (0, ["dp", "--model", "{docs}/early_births.json", "--tmax", "65536", "--out", "{out}/tab_dp.csv"]),
    (0, ["simulate", "--model", "{docs}/early_births.json", "--tmax", "64", "--times", "16,64",
         "--replicates", "4000", "--seed", "1", "--out", "{out}/tab_sim.csv"]),
    (0, ["fdd", "--model", "{docs}/early_births.json", "--times", "8,12,16", "--tobs", "8", "--K", "10",
         "--out", "{out}/tab_pmf.csv"]),
]


@functools.lru_cache(maxsize=None)
def _rows(path: Path) -> list:
    """The rows of a CSV file the scipy-free run wrote, read once."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def scipy_free(tmp_path_factory):
    """The directory SCIPY_FREE wrote to, and its exit codes; the CSV rows
    read from it are dropped after the module."""
    out = tmp_path_factory.mktemp("scipy_free")
    for name, model in SCIPY_FREE_MODELS.items():
        (out / f"{name}.json").write_text(json.dumps(model))
    code = """if True:
        import contextlib, io, json, sys
        sys.modules["scipy"] = None  # any scipy import now raises ImportError
        import numpy as np
        from gwolab import LimitParams, law_T
        from gwolab.cli import main
        codes = []
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(argv))
        # the sampler of T (in place; c = 0 draws no point left of 1)
        for i, c in enumerate((0.0, 1.0, 15.0)):
            draws = law_T(LimitParams(c)).sample(np.random.default_rng(i), 10**6)
            assert draws.shape == (10**6,) and np.all(np.isfinite(draws)) and np.all(draws > 0.0), i
            assert c > 0.0 or np.all(draws >= 1.0)
        print(codes)
    """
    argv = json.dumps([[a.format(out=out, docs=shipped.DIR) for a in args] for _, args in SCIPY_FREE])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code, argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    yield out, json.loads(run.stdout)
    _rows.cache_clear()


def test_runs_without_scipy(scipy_free):
    # the fdd K's above take each product route
    ring = gwolab.series.ring
    assert ring(3, 20)._fft_len is None and ring(3, 24)._fft_len is not None and ring(1, 600)._fft_len is not None
    out, codes = scipy_free
    assert codes == [code for code, _ in SCIPY_FREE]
    # the Squares64 streams and the runner keep their bits: each simulation
    # CSV hashes to its pin
    pins = json.loads((ROOT / "tests" / "pinned_streams.json").read_text())
    for name, file in (("delayed_death", "sim.csv"), ("early_births", "tab_sim.csv")):
        got = hashlib.sha256((out / file).read_bytes()).hexdigest()
        assert got == pins["sha256"][name], (file, got, pins["sha256"][name])


def test_empty_sevastyanov_table_writes_the_bellman_harris_bytes(scipy_free):
    out, _ = scipy_free
    assert (out / "sev.csv").read_bytes() == (out / "bh.csv").read_bytes()


def test_weight_0_limit_rows_are_the_dp_column(scipy_free):
    # a weight-0 time ends the query: the limit rows at z_1 = 0 read one
    # survival column, so at every t, powers of 2 or not, each row's Q is
    # the dp column's, string for string
    out, _ = scipy_free

    def column(name):
        return {row[0]: row[1] for row in _rows(out / name)[1:]}

    for stem, times in (("cut", ["1024", "2048", "4096"]), ("odd", ["1000", "3000"])):
        limit, dp = column(f"{stem}_limit.csv"), column(f"{stem}_dp.csv")
        assert sorted(limit, key=int) == times, limit
        assert all(dp[t] == q for t, q in limit.items()), [(t, q, dp[t]) for t, q in limit.items()]


def test_figure1_f_T_never_rises_left_of_1(scipy_free):
    # the frozen root's density of T, on the 400,000-row grid; a digit lost
    # near 0 would show as a rise there
    out, _ = scipy_free
    left = [float(f) for y, f, _ in _rows(out / "figure1.csv")[1:] if float(y) < 1.0]
    assert all(b <= a for a, b in zip(left, left[1:])), "f_T rises left of 1"


def test_csv_outputs_read_back(scipy_free):
    # each reads back through Python's csv module as a rectangle, and each
    # pmf ends with its overflow row
    out, _ = scipy_free
    names = ["pmf", "tab_pmf", "dp", "limit", "sim", "figure1", "tab_dp", "tab_sim", "cut_limit", "cut_dp"]
    for name in names:
        rows = _rows(out / f"{name}.csv")
        assert len(rows) > 1 and len({len(row) for row in rows}) == 1, name
    for name in names[:2]:
        assert _rows(out / f"{name}.csv")[-1][0] == "overflow", name
