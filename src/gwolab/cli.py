"""Command-line front end.

Each subcommand declares its parameters once, as (name, parser, help) in
`_COMMANDS`; flags are generated from that table, and `modelio.fields`,
the one reader of outside JSON (model files too), reads flag and --config
values alike.  Each command imports the submodules it runs, so a summary
loads neither the DP nor the simulator.  Every run prints a one-line
summary and, with --out, drops a config echo of the parsed values next
to the output, from which the identical run can be reproduced.  Error
classes map to distinct exit codes so scripts can tell a schema problem
from a blown budget.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from functools import partial

import numpy as np

from .errors import (
    BudgetExhausted,
    CapTooLarge,
    ConfigError,
    GwolabError,
    OracleBlowup,
    ZeroConditioningEvent,
    _integer,
)
from .modelio import (
    choice,
    fields,
    listof,
    load_model,
    model_from_dict,
    model_to_dict,
    number,
    read_json,
    write_csv,
    write_json,
)

# one code per error class; a class without one escapes as a traceback (exit 1)
EXIT_CODES = {ConfigError: 2, CapTooLarge: 5, ZeroConditioningEvent: 6, BudgetExhausted: 7, OracleBlowup: 8}


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _numbers(kind):
    """A comma-separated list or a JSON list of numbers."""
    each = listof(number(kind))
    return lambda raw: each(raw if isinstance(raw, list) else [v for v in str(raw).split(",") if v != ""])


def _path(raw):
    if not isinstance(raw, str):
        raise ConfigError(f"{raw!r} is not a path")
    return raw


def _out_path(raw):
    """A path whose directory exists, checked before any work is done."""
    folder = os.path.dirname(_path(raw)) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"{folder!r} is not an existing directory")
    return raw


def _model(raw):
    return model_from_dict(raw) if isinstance(raw, dict) else load_model(_path(raw))


class _Run:
    """Parameters resolved from the config file, then flags, each parsed
    by the parser the command declares for it.  A config echo names its
    command, and only that command reads it."""

    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        parsers = {name: parse for name, parse, _ in _params(command)}
        raw = read_json(args.config, "config") if args.config else {}
        if isinstance(raw, dict):  # fields rejects anything else
            raw.update((k, v) for k, v in vars(args).items() if k in parsers and v is not None)
        parsers["command"] = choice(command)
        self.values = fields(raw, parsers, "config", optional=parsers)
        self.values.pop("command", None)
        self.out = self.values.pop("out", None)

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def require(self, key: str):
        if key not in self.values:
            raise ConfigError(f"{self.command} needs --{key}")
        return self.values[key]

    def emit(self, line: str, write) -> None:
        """Print the summary line; with --out, write(fh) the output file
        and echo the parsed parameters next to it."""
        print(line)
        if not self.out:
            return
        with open(self.out, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        echo = {"command": self.command, **self.values}
        if "model" in echo:
            echo["model"] = model_to_dict(echo["model"])
        with open(f"{self.out}.config.json", "w", encoding="utf-8") as fh:
            write_json(echo, fh)


def _cmd_summarize(run: _Run) -> int:
    from .lifelaw import summarize

    s = summarize(run.require("model"))
    run.emit(
        " ".join(
            f"{name}={_fmt(getattr(s, name))}"
            for name in ("mean_offspring", "b", "a", "d", "h", "c")
        )
        + f" critical={s.critical}",
        partial(write_json, asdict(s)),
    )
    return 0


def _cmd_dp(run: _Run) -> int:
    from .exact_engine import extinction_seq

    t_max = run.require("tmax")
    table = extinction_seq(run.require("model"), t_max)
    run.emit(f"Q({t_max})={_fmt(table.q[t_max])} tQ={_fmt(t_max * table.q[t_max])}", table.to_csv)
    return 0


def _cmd_fdd(run: _Run) -> int:
    from .exact_engine import FddSpec, conditional_pgf, conditional_pmf, fdd_pgf

    model = run.require("model")
    times = run.require("times")
    t_obs = run.get("tobs")
    K = run.get("K")
    if K is not None:
        if t_obs is None:
            raise ConfigError("pmf extraction needs --tobs")
        # weight 0 keeps every time: FddSpec drops weight-1 coordinates
        pm = conditional_pmf(model, FddSpec(times, [0.0] * len(times), t_obs=t_obs), K)
        run.emit(
            f"pmf at times {tuple(times)} given survival at {t_obs}: "
            f"kept={_fmt(pm.probs.sum())} overflow={_fmt(pm.overflow)}",
            partial(_write_pmf_csv, pm),
        )
        return 0
    z = run.require("z")
    spec = FddSpec(times, z, t_obs=t_obs)
    val = fdd_pgf(model, spec) if t_obs is None else conditional_pgf(model, spec)
    payload = {"times": times, "z": z, "t_obs": t_obs, "pgf": val}
    run.emit(f"pgf={_fmt(val)}", partial(write_json, payload))
    return 0


def _write_pmf_csv(pm, fh) -> None:
    """The cells of total count <= K in C order, then the overflow row."""
    k = len(pm.times)
    cells = np.argwhere(sum(np.indices(pm.probs.shape, sparse=True)) < pm.probs.shape[0])
    header = [f"n_t{t}" for t in pm.times] + ["prob"]
    write_csv(fh, header, "%d," * k + "%.17g", [*cells.T, pm.probs[tuple(cells.T)]])
    fh.write("overflow," * k + "%.17g\r\n" % pm.overflow)


def _cmd_simulate(run: _Run) -> int:
    from .simulator import SimConfig, simulate

    horizon = run.require("tmax")
    cfg = SimConfig(
        model=run.require("model"),
        horizon=horizon,
        query_times=tuple(run.get("times", [horizon])),
        replicates=run.require("replicates"),
        seed=run.require("seed"),
    )
    res = simulate(cfg)
    s = res.survival_summary()
    write = partial(write_json, res.summary()) if run.get("format") == "json" else res.to_csv
    run.emit(
        f"replicates={s['replicates']} survival={_fmt(s['estimate'])} "
        f"stderr={_fmt(s['stderr'])} overflowed={s['overflowed']}",
        write,
    )
    return 0


def _cmd_limit(run: _Run) -> int:
    from .exact_engine import convergence_csv, convergence_table

    model = run.require("model")
    y = run.require("y")
    z = run.require("z")
    if "times" in run.values:
        grid = run.get("times")
    else:
        t_max = _integer(run.require("tmax"), "tmax", 8)
        grid = [8 << i for i in range((t_max // 8).bit_length())]
    rows = convergence_table(model, y, z, grid)
    last = rows[-1]
    run.emit(
        f"t={last.t} tQ_k={_fmt(last.tq_k)} target={_fmt(last.target)} "
        f"abs_error={_fmt(last.abs_error)}",
        partial(convergence_csv, rows),
    )
    return 0


def _cmd_figure1(run: _Run) -> int:
    from .limitlaw import LimitParams, figure1_data, law_T

    c = run.require("c")
    data = figure1_data(c, step=run.get("grid", 0.01), y_max=run.get("y_max", 4.0))

    write = partial(write_csv, header=["y", "f_T", "f_T0"], row="%.17g,%.17g,%.17g", cols=data.T)
    jump = law_T(LimitParams(c)).density_jump()
    run.emit(f"c={_fmt(c)} rows={data.shape[0]} density_jump_at_1={_fmt(jump)}", write)
    return 0


def _cmd_verify(run: _Run) -> int:
    from .verify import report_json, run_battery

    reports = run_battery()
    passed = sum(1 for r in reports if r.all_passed)
    run.emit(f"verify: {passed}/{len(reports)} reports passed", partial(report_json, reports))
    return 0 if passed == len(reports) else 1


_MODEL = ("model", _model, "model config JSON path")
_INT, _FLOAT, _INTS, _FLOATS = number(int), number(float), _numbers(int), _numbers(float)

# command -> (handler, help, [(parameter, parser, help)]); each command
# also takes --config and --out
_COMMANDS = {
    "summarize": (_cmd_summarize, "derived parameters of a model", [_MODEL]),
    "dp": (_cmd_dp, "survival probabilities by the exact recursion", [
        _MODEL,
        ("tmax", _INT, "largest time"),
    ]),
    "fdd": (_cmd_fdd, "joint transforms and conditioned pmfs at fixed times", [
        _MODEL,
        ("times", _INTS, "comma-separated times"),
        ("z", _FLOATS, "comma-separated weights (pgf only; --K ignores them)"),
        ("tobs", _INT, "conditioning time (survival)"),
        ("K", _INT, "pmf truncation degree"),
    ]),
    "simulate": (_cmd_simulate, "seeded Monte Carlo replicates", [
        _MODEL,
        ("tmax", _INT, "horizon"),
        ("times", _INTS, "comma-separated query times"),
        ("replicates", _INT, "number of replicates"),
        ("seed", _INT, "stream seed"),
        ("format", choice("csv", "json"), "output layout"),
    ]),
    "limit": (_cmd_limit, "weighted survival against its closed-form limit", [
        _MODEL,
        ("y", _FLOATS, "comma-separated time fractions, first must be 1"),
        ("z", _FLOATS, "comma-separated weights"),
        ("tmax", _INT, "grid doubles from 8 up to here"),
        ("times", _INTS, "explicit comma-separated grid (overrides --tmax)"),
    ]),
    "figure1": (_cmd_figure1, "hitting-time densities of the limit process", [
        ("c", _FLOAT, "compound parameter"),
        ("grid", _FLOAT, "y step size"),
        ("y_max", _FLOAT, "largest y"),
    ]),
    "verify": (_cmd_verify, "cross-validation battery", []),
}


def _params(command: str) -> list:
    return [("out", _out_path, "output file path")] + _COMMANDS[command][2]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwolab",
        description="Critical branching processes with overlapping generations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for name, parse, flag_help in _params(command):
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, dest=name, metavar=getattr(parse, "metavar", None), help=flag_help)
    return parser


_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _log_level(raw: str) -> str:
    if raw.upper() not in _LOG_LEVELS:
        raise ConfigError(f"GWOLAB_LOG: {raw!r} is not one of {', '.join(_LOG_LEVELS)}")
    return raw.upper()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        level = os.environ.get("GWOLAB_LOG")
        if level:
            import logging

            logging.basicConfig(level=_log_level(level))
        return _COMMANDS[args.command][0](_Run(args.command, args))
    except GwolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
