"""The package namespace: each public name and submodule is imported on
first use, so a run loads only the submodules it touches.  Each check
runs in a fresh interpreter, whose sys.modules this suite has not filled."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import shipped

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def _python(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=300)


def _check(code):
    out = _python("-c", code)
    assert (out.returncode, out.stderr) == (0, "")
    return out.stdout


@pytest.mark.parametrize("model", ["delayed_death", "heavy_tail_life"])
def test_setup_loads_three_submodules(model):
    loaded = _check(f"""if True:
        import sys, gwolab
        gwolab.summarize(gwolab.load_model({str(shipped.path(model))!r}))
        print(" ".join(sorted(m for m in sys.modules if m.startswith("gwolab") or m in ("argparse", "logging"))))
    """)
    assert loaded.split() == ["gwolab", "gwolab.errors", "gwolab.lifelaw", "gwolab.modelio"]


def test_every_name_is_its_home_modules():
    assert _check("""if True:
        import importlib, gwolab
        homes = {n: m for m, names in gwolab._EXPORTS.items() for n in names}
        for name in gwolab.__all__:
            home = homes.get(name)
            want = importlib.import_module(f"gwolab.{home or name}")
            assert getattr(gwolab, name) is (getattr(want, name) if home else want), name
        assert set(gwolab.__all__) <= set(dir(gwolab)) and "__all__" in dir(gwolab)
        assert len(gwolab.__all__) == len(set(gwolab.__all__))
    """) == ""


def test_unknown_attribute_raises():
    assert _check("""if True:
        import gwolab
        try:
            gwolab.no_such_name
        except AttributeError as exc:
            print(exc)
    """).strip() == "module 'gwolab' has no attribute 'no_such_name'"


def test_star_import_binds_every_name():
    assert _check("""if True:
        import gwolab
        scope = {}
        exec("from gwolab import *", scope)
        print(sorted(set(gwolab.__all__) - set(scope)))
    """).strip() == "[]"


@pytest.mark.parametrize("model", ["delayed_death", "heavy_tail_life"])
def test_cli_as_main_module_without_warning(model):
    out = _python("-W", "error::RuntimeWarning", "-m", "gwolab.cli", "summarize", "--model", str(shipped.path(model)))
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.startswith("mean_offspring=1 ")


@pytest.mark.parametrize("argv,unloaded", [
    (["summarize", "--model", str(shipped.path("heavy_tail_life"))],
     ["gwolab.exact_engine", "gwolab.simulator", "gwolab.verify", "logging"]),
    (["fdd", "--model", str(shipped.path("delayed_death")), "--times", "64,128", "--tobs", "64", "--K", "10"],
     ["gwolab.simulator", "gwolab.verify"]),
])
def test_cli_command_loads_only_what_it_runs(argv, unloaded):
    loaded = _check(f"""if True:
        import os, sys
        os.environ.pop("GWOLAB_LOG", None)
        from gwolab.cli import main
        assert main({argv!r}) == 0
        print(" ".join(sorted(m for m in sys.modules if m.startswith("gwolab") or m == "logging")))
    """).splitlines()[-1].split()
    assert "gwolab.cli" in loaded
    assert [m for m in unloaded if m in loaded] == []
