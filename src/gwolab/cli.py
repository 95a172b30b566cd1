"""Command-line front end.

Every run resolves its parameters from flags layered over an optional
--config JSON file, executes one subcommand, prints a one-line summary,
and (when writing an output file) drops a config echo next to it from
which the identical run can be reproduced.  Error classes map to
distinct exit codes so scripts can tell a schema problem from a blown
budget.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import asdict

import numpy as np

from .errors import (
    BudgetExhausted,
    CapTooLarge,
    ConfigError,
    DivergentMoment,
    GwolabError,
    OracleBlowup,
    UnsupportedModel,
    ZeroConditioningEvent,
)
from .exact_engine import (
    FddSpec,
    conditional_pgf,
    conditional_pmf,
    convergence_csv,
    convergence_table,
    extinction_seq,
    fdd_pgf,
)
from .lifelaw import summarize
from .limitlaw import LimitParams, figure1_data, law_T
from .modelio import load_model, model_from_dict, model_to_dict
from .simulator import SimConfig, simulate
from .verify import report_json, run_battery

EXIT_CODES = [
    (ConfigError, 2),
    (DivergentMoment, 3),
    (UnsupportedModel, 4),
    (CapTooLarge, 5),
    (ZeroConditioningEvent, 6),
    (BudgetExhausted, 7),
    (OracleBlowup, 8),
]


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _number(parse, raw):
    try:
        return parse(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{raw!r} is not a valid {parse.__name__}") from None


def _ints(raw) -> list:
    if not isinstance(raw, (list, tuple)):
        raw = [v for v in str(raw).split(",") if v != ""]
    return [_number(int, v) for v in raw]


def _floats(raw) -> list:
    if not isinstance(raw, (list, tuple)):
        raw = [v for v in str(raw).split(",") if v != ""]
    return [_number(float, v) for v in raw]


class _Run:
    """Parameters resolved from defaults, then config file, then flags."""

    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        self.values: dict = {}
        cfg_path = getattr(args, "config", None)
        if cfg_path:
            try:
                with open(cfg_path, "r", encoding="utf-8") as fh:
                    cfg = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from None
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{cfg_path}: invalid JSON ({exc})") from None
            if not isinstance(cfg, dict):
                raise ConfigError(f"{cfg_path}: config must be an object")
            echoed = cfg.get("command")
            if echoed is not None and echoed != command:
                raise ConfigError(f"config is for {echoed!r}, not {command!r}")
            self.values.update({k: v for k, v in cfg.items() if k != "command"})
        for key, val in vars(args).items():
            if key in ("config", "func", "command") or val is None:
                continue
            self.values[key] = val

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def require(self, key: str):
        if key not in self.values:
            raise ConfigError(f"{self.command} needs --{key}")
        return self.values[key]

    def model(self):
        spec = self.require("model")
        if isinstance(spec, dict):
            return model_from_dict(spec)
        return load_model(str(spec))

    def echo(self) -> dict:
        out = {"command": self.command}
        for k, v in self.values.items():
            if k in ("out", "config"):
                continue
            out[k] = v
        if "model" in out and not isinstance(out["model"], dict):
            out["model"] = model_to_dict(self.model())
        return out

    def write_echo(self) -> None:
        out = self.get("out")
        if not out:
            return
        with open(f"{out}.config.json", "w", encoding="utf-8") as fh:
            json.dump(self.echo(), fh, indent=2)
            fh.write("\n")


def _open_out(run: _Run):
    out = run.get("out")
    return open(out, "w", encoding="utf-8", newline="") if out else None


def _cmd_summarize(run: _Run) -> int:
    s = summarize(run.model())
    print(
        " ".join(
            f"{name}={_fmt(getattr(s, name))}"
            for name in ("mean_offspring", "b", "a", "d", "h", "c")
        )
        + f" critical={s.critical} a_finite={s.a_finite}"
    )
    fh = _open_out(run)
    if fh:
        with fh:
            json.dump(asdict(s), fh, indent=2)
            fh.write("\n")
        run.write_echo()
    return 0


def _cmd_dp(run: _Run) -> int:
    t_max = int(run.require("tmax"))
    table = extinction_seq(run.model(), t_max)
    print(f"Q({t_max})={_fmt(table.q[t_max])} tQ={_fmt(t_max * table.q[t_max])}")
    fh = _open_out(run)
    if fh:
        with fh:
            table.to_csv(fh)
        run.write_echo()
    return 0


def _cmd_fdd(run: _Run) -> int:
    model = run.model()
    times = _ints(run.require("times"))
    t_obs = run.get("tobs")
    K = run.get("K")
    if K is not None:
        if t_obs is None:
            raise ConfigError("pmf extraction needs --tobs")
        # weight 0 keeps every time: FddSpec drops weight-1 coordinates
        pm = conditional_pmf(model, FddSpec(times, [0.0] * len(times), t_obs=int(t_obs)), int(K))
        print(
            f"pmf at times {tuple(times)} given survival at {int(t_obs)}: "
            f"kept={_fmt(pm.probs.sum())} overflow={_fmt(pm.overflow)}"
        )
        fh = _open_out(run)
        if fh:
            with fh:
                _write_pmf_csv(pm, fh)
            run.write_echo()
        return 0
    z = _floats(run.require("z"))
    if t_obs is not None:
        val = conditional_pgf(model, FddSpec(times, z, t_obs=int(t_obs)))
    else:
        val = fdd_pgf(model, FddSpec(times, z))
    print(f"pgf={_fmt(val)}")
    fh = _open_out(run)
    if fh:
        with fh:
            json.dump({"times": times, "z": z, "t_obs": t_obs, "pgf": val}, fh, indent=2)
            fh.write("\n")
        run.write_echo()
    return 0


def _write_pmf_csv(pm, fh) -> None:
    writer = csv.writer(fh)
    k = len(pm.times)
    writer.writerow([f"n_t{t}" for t in pm.times] + ["prob"])
    for idx in np.ndindex(pm.probs.shape):
        if sum(idx) <= pm.probs.shape[0] - 1:
            writer.writerow(list(idx) + [_fmt(pm.probs[idx])])
    writer.writerow(["overflow"] * k + [_fmt(pm.overflow)])


def _cmd_simulate(run: _Run) -> int:
    model = run.model()
    horizon = int(run.require("tmax"))
    times = _ints(run.get("times", str(horizon)))
    cfg = SimConfig(
        model=model,
        horizon=horizon,
        query_times=tuple(times),
        replicates=int(run.require("replicates")),
        seed=int(run.require("seed")),
    )
    res = simulate(cfg)
    s = res.survival_summary()
    print(
        f"replicates={s['replicates']} survival={_fmt(s['estimate'])} "
        f"stderr={_fmt(s['stderr'])} overflowed={s['overflowed']}"
    )
    fh = _open_out(run)
    if fh:
        with fh:
            if run.get("format", "csv") == "json":
                json.dump(res.summary(), fh, indent=2)
                fh.write("\n")
            else:
                res.to_csv(fh)
        run.write_echo()
    return 0


def _cmd_limit(run: _Run) -> int:
    model = run.model()
    y = _floats(run.require("y"))
    z = _floats(run.require("z"))
    if "times" in run.values:
        grid = _ints(run.get("times"))
    else:
        t_max = int(run.require("tmax"))
        if t_max < 8:
            raise ConfigError("tmax must be at least 8")
        grid = []
        t = 8
        while t <= t_max:
            grid.append(t)
            t *= 2
    rows = convergence_table(model, y, z, grid)
    last = rows[-1]
    print(
        f"t={last.t} tQ_k={_fmt(last.tq_k)} target={_fmt(last.target)} "
        f"abs_error={_fmt(last.abs_error)}"
    )
    fh = _open_out(run)
    if fh:
        with fh:
            convergence_csv(rows, fh)
        run.write_echo()
    return 0


def _cmd_figure1(run: _Run) -> int:
    c = _number(float, run.require("c"))
    step = _number(float, run.get("grid", 0.01))
    y_max = _number(float, run.get("y_max", 4.0))
    data = figure1_data(c, step=step, y_max=y_max)
    p = LimitParams(c)
    print(f"c={_fmt(c)} rows={data.shape[0]} density_jump_at_1={_fmt(law_T(p).density_jump())}")
    fh = _open_out(run)
    if fh:
        with fh:
            writer = csv.writer(fh)
            writer.writerow(["y", "f_T", "f_T0"])
            for row in data:
                writer.writerow([_fmt(v) for v in row])
        run.write_echo()
    return 0


def _cmd_verify(run: _Run) -> int:
    reports = run_battery()
    passed = sum(1 for r in reports if r.all_passed)
    print(f"verify: {passed}/{len(reports)} reports passed")
    fh = _open_out(run)
    if fh:
        with fh:
            report_json(reports, fh)
        run.write_echo()
    return 0 if passed == len(reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwolab",
        description="Critical branching processes with overlapping generations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, flags):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="output file path")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=fn)
        return p

    model_flag = ("--model", {"help": "model config JSON path"})
    add("summarize", _cmd_summarize, "derived parameters of a model", [model_flag])
    add(
        "dp",
        _cmd_dp,
        "survival probabilities by the exact recursion",
        [model_flag, ("--tmax", {"type": int, "help": "largest time"})],
    )
    add(
        "fdd",
        _cmd_fdd,
        "joint transforms and conditioned pmfs at fixed times",
        [
            model_flag,
            ("--times", {"help": "comma-separated times"}),
            ("--z", {"help": "comma-separated weights (pgf only; --K ignores them)"}),
            ("--tobs", {"type": int, "help": "conditioning time (survival)"}),
            ("--K", {"type": int, "help": "pmf truncation degree"}),
        ],
    )
    add(
        "simulate",
        _cmd_simulate,
        "seeded Monte Carlo replicates",
        [
            model_flag,
            ("--tmax", {"type": int, "help": "horizon"}),
            ("--times", {"help": "comma-separated query times"}),
            ("--replicates", {"type": int, "help": "number of replicates"}),
            ("--seed", {"type": int, "help": "stream seed"}),
            ("--format", {"choices": ["csv", "json"], "help": "output layout"}),
        ],
    )
    add(
        "limit",
        _cmd_limit,
        "weighted survival against its closed-form limit",
        [
            model_flag,
            ("--y", {"help": "comma-separated time fractions, first must be 1"}),
            ("--z", {"help": "comma-separated weights"}),
            ("--tmax", {"type": int, "help": "grid doubles from 8 up to here"}),
            ("--times", {"help": "explicit comma-separated grid (overrides --tmax)"}),
        ],
    )
    add(
        "figure1",
        _cmd_figure1,
        "hitting-time densities of the limit process",
        [
            ("--c", {"help": "compound parameter"}),
            ("--grid", {"help": "y step size"}),
            ("--y-max", {"dest": "y_max", "help": "largest y"}),
        ],
    )
    add("verify", _cmd_verify, "cross-validation battery", [])
    return parser


def main(argv=None) -> int:
    level = os.environ.get("GWOLAB_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO))
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        run = _Run(args.command, args)
        return args.func(run)
    except GwolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for cls, code in EXIT_CODES:
            if isinstance(exc, cls):
                return code
        return 9  # an error class without a reserved code


if __name__ == "__main__":
    sys.exit(main())
