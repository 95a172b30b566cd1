"""JSON model configs, and the one reader for outside JSON.

`fields` reads every object that comes from outside: the CLI's flags
plus --config, a model, and each object nested in a model.  It checks
the keys against a declared (key, parser) table and runs each value
through its parser, so a typo, a missing key or a value of the wrong
type (a fraction or a boolean where an integer belongs, text or json's
NaN where a model holds a number) is a ConfigError that names the key,
never a default, a truncation or a traceback.  A model's numbers go
through `errors._integer` and `errors._number`, the API's own rules.
`read_json`, `write_json` and `write_csv` are the one way in and out of
a file.

A model is an object with a `variant` tag; life length laws nest as
objects with a `kind` tag.  Loading is the inverse of dumping.
"""

from __future__ import annotations

import json
import math
from functools import partial

from .errors import ConfigError, _integer, _items, _number
from .lifelaw import (
    BellmanHarris,
    DelayedDeath,
    FiniteLife,
    LifeLaw,
    OffspringPMF,
    QuadraticTailLife,
    Sevastyanov,
    Tabulated,
)


def number(kind):
    """One finite number, read from the value's text: 2.5, true and [3]
    are not integers.  It reads the CLI's flags and `keyed`'s keys."""
    name = "integer" if kind is int else kind.__name__

    def parse(raw):
        try:
            value = kind(str(raw))
            if math.isfinite(value):
                return value
        except (ValueError, OverflowError):  # an int too large for a float
            pass
        raise ConfigError(f"{raw!r} is not a finite {name}")

    return parse


def choice(*options):
    def parse(raw):
        if raw not in options:
            raise ConfigError(f"{raw!r} is not one of {', '.join(options)}")
        return raw

    parse.metavar = "{" + ",".join(options) + "}"
    return parse


def _at(name, parse, raw):
    """parse(raw), with an error named after where raw sits."""
    try:
        return parse(raw)
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def listof(parse):
    """A JSON list, each item read by parse."""

    def parse_list(raw):
        return [_at(f"[{i}]", parse, item) for i, item in enumerate(_items(raw, "value"))]

    return parse_list


def keyed(parse):
    """An object keyed by plainly written integers (JSON keys are text),
    each value read by parse."""

    def key(raw):
        n = number(int)(raw)
        if str(n) != str(raw):  # so no two keys name one life
            raise ConfigError(f"{raw!r} is not a plain integer")
        return n

    def parse_keyed(raw):
        return {_at(k, key, k): _at(k, parse, v) for k, v in _items(raw, "value", pairs=True)}

    return parse_keyed


def fields(raw, params: dict, where: str, optional=()) -> dict:
    """The object raw with each value read by its parser in params.  Every
    key of params is required but those in optional, and no other key is
    allowed; an error in a value names its key."""
    _items(raw, where, pairs=True)
    missing = set(params) - set(optional) - set(raw)
    if missing:
        raise ConfigError(f"{where} is missing key(s) {sorted(missing)}")
    unknown = set(raw) - set(params)
    if unknown:
        raise ConfigError(f"{where} has unknown key(s) {sorted(unknown)}")
    return {key: _at(key, params[key], value) for key, value in raw.items()}


def _tagged(raw, tag: str, kinds: dict, where: str, optional=()):
    """The object raw, built by the (params, build) row of kinds that its
    `tag` names: build gets the values that fields read with params."""
    head = {tag: choice(*kinds)}
    # read the tag alone first: it decides which other keys are allowed
    tag_only = {tag: raw[tag]} if isinstance(raw, dict) and tag in raw else raw
    params, build = kinds[fields(tag_only, head, where)[tag]]
    return build(fields(raw, {**head, **params}, where, optional))


def read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from None
    except ValueError as exc:  # undecodable bytes, or not JSON
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def write_json(payload, fh) -> None:
    json.dump(payload, fh, indent=2)
    fh.write("\n")


_CSV_ROWS = 4096  # rows of a CSV converted to Python values per write


def write_csv(fh, header, row: str, cols) -> None:
    """The header, then row % values for each index of the numpy columns,
    in csv.writer's layout (commas, CRLF; no field needs quotes).  The
    columns are converted _CSV_ROWS rows at a time, never whole."""
    fh.write(",".join(header) + "\r\n")
    row += "\r\n"
    for a in range(0, len(cols[0]), _CSV_ROWS):
        fh.write("".join([row % r for r in zip(*(c[a : a + _CSV_ROWS].tolist() for c in cols))]))


_int, _float = partial(_integer, what="value"), partial(_number, what="value")


def _offspring(raw) -> OffspringPMF:
    return OffspringPMF(listof(_float)(raw))


_LIVES = {
    "finite": ({"pmf": keyed(_float)}, lambda f: FiniteLife(f["pmf"])),
    "quadratic_tail": ({"d": _float, "t_min": _int}, lambda f: QuadraticTailLife(f["d"], f["t_min"])),
}


def life_from_dict(d: dict):
    return _tagged(d, "kind", _LIVES, "life")


def life_to_dict(law) -> dict:
    if isinstance(law, FiniteLife):
        return {"kind": "finite", "pmf": {str(l): p for l, p in zip(law.support, law.probs)}}
    if isinstance(law, QuadraticTailLife):
        return {"kind": "quadratic_tail", "d": law.d, "t_min": law.t_min}
    raise ConfigError(f"cannot serialize life law {type(law).__name__}")


def _record(params: dict, where: str):
    """An object read by fields, as the tuple of its values in params order."""
    return lambda raw: tuple(fields(raw, params, where)[key] for key in params)


_ATOM = _record({"prob": _float, "birth_ages": listof(_int), "life": _int}, "atom")
_SCHEDULE = _record({"prob": _float, "birth_ages": listof(_int)}, "schedule")


_VARIANTS = {
    "bellman_harris": (
        {"life": life_from_dict, "offspring": _offspring},
        lambda f: BellmanHarris(f["life"], f["offspring"]),
    ),
    "tabulated": ({"atoms": listof(_ATOM)}, lambda f: Tabulated(f["atoms"])),
    "delayed_death": (
        {"schedules": listof(_SCHEDULE), "residual": life_from_dict},
        lambda f: DelayedDeath(f["schedules"], f["residual"]),
    ),
    "sevastyanov": (
        {"life": life_from_dict, "offspring_by_life": keyed(_offspring), "offspring_default": _offspring},
        lambda f: Sevastyanov(f["life"], f["offspring_by_life"], f.get("offspring_default")),
    ),
}


def model_from_dict(d: dict) -> LifeLaw:
    return _tagged(d, "variant", _VARIANTS, "model", optional=("offspring_default",))


def model_to_dict(model: LifeLaw) -> dict:
    if isinstance(model, BellmanHarris):
        offspring = list(model.offspring.probs)
        return {"variant": "bellman_harris", "life": life_to_dict(model.life), "offspring": offspring}
    if isinstance(model, Tabulated):
        atoms = [{"prob": p, "birth_ages": list(ages), "life": life} for p, ages, life in model.atoms]
        return {"variant": "tabulated", "atoms": atoms}
    if isinstance(model, DelayedDeath):
        schedules = [{"prob": p, "birth_ages": list(ages)} for p, ages in model.schedules]
        return {"variant": "delayed_death", "schedules": schedules, "residual": life_to_dict(model.residual)}
    if isinstance(model, Sevastyanov):
        out = {"variant": "sevastyanov", "life": life_to_dict(model.life),
               "offspring_by_life": {str(l): list(o.probs) for l, o in model.table.items()}}
        if model.default is not None:
            out["offspring_default"] = list(model.default.probs)
        return out
    raise ConfigError(f"cannot serialize model {type(model).__name__}")


def load_model(path: str) -> LifeLaw:
    return model_from_dict(read_json(path, "model"))
