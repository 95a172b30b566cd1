"""JSON model configs.

One dict per model with a `variant` tag; life length laws are nested
dicts with a `kind` tag.  Unknown keys are rejected everywhere so a
typo cannot silently fall back to a default.  Loading is the inverse of
dumping, except that a Sevastyanov model built in code from an opaque
rule cannot be serialized (only table-based rules round-trip).
"""

from __future__ import annotations

import json

from .errors import ConfigError
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


def _check_keys(obj: dict, required: set, optional: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ConfigError(f"{where} is missing key(s) {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{where} has unknown key(s) {sorted(unknown)}")


def _int_key(raw, where: str) -> int:
    try:
        val = int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: key {raw!r} is not an integer") from None
    if str(val) != str(raw).strip():
        raise ConfigError(f"{where}: key {raw!r} is not a plain integer")
    return val


def life_from_dict(d: dict, where: str = "life"):
    _check_keys(d, {"kind"}, {"pmf", "d", "t_min"}, where)
    kind = d["kind"]
    if kind == "finite":
        _check_keys(d, {"kind", "pmf"}, set(), where)
        pmf = {_int_key(k, where): float(v) for k, v in d["pmf"].items()}
        return FiniteLife(pmf)
    if kind == "quadratic_tail":
        _check_keys(d, {"kind", "d", "t_min"}, set(), where)
        return QuadraticTailLife(d=float(d["d"]), t_min=int(d["t_min"]))
    raise ConfigError(f"{where}: unknown kind {kind!r}")


def life_to_dict(law) -> dict:
    if isinstance(law, FiniteLife):
        return {"kind": "finite", "pmf": {str(l): p for l, p in zip(law.support, law.probs)}}
    if isinstance(law, QuadraticTailLife):
        return {"kind": "quadratic_tail", "d": law.d, "t_min": law.t_min}
    raise ConfigError(f"cannot serialize life law {type(law).__name__}")


def _offspring_from_list(raw, where: str) -> OffspringPMF:
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{where} must be a list of masses")
    return OffspringPMF([float(v) for v in raw])


def _table_rule(table: dict, default):
    def rule(l: int) -> OffspringPMF:
        law = table.get(l, default)
        if law is None:
            raise ConfigError(f"no offspring law for life {l} and no default given")
        return law

    return rule


def _table_tail_bound(life, table: dict, default):
    """Certified remainder of the moment sums past l0: every involved
    offspring law has bounded moments, so the remainders are at most
    max-moment times the life tail (weighted by l for the E N*L sum)."""
    laws = list(table.values()) + ([default] if default is not None else [])
    m1 = max(o.mean for o in laws)
    m2 = max(o.second_moment for o in laws)

    def bound(l0: int) -> float:
        tail = life.survival(l0)
        return max(m1 * tail, m2 * tail, m1 * life.tail_mean(l0))

    return bound


def model_from_dict(d: dict) -> LifeLaw:
    _check_keys(
        d,
        {"variant"},
        {"life", "offspring", "atoms", "schedules", "residual", "offspring_by_life", "offspring_default"},
        "model",
    )
    variant = d["variant"]
    if variant == "bellman_harris":
        _check_keys(d, {"variant", "life", "offspring"}, set(), "model")
        return BellmanHarris(life_from_dict(d["life"]), _offspring_from_list(d["offspring"], "offspring"))
    if variant == "tabulated":
        _check_keys(d, {"variant", "atoms"}, set(), "model")
        atoms = []
        for i, atom in enumerate(d["atoms"]):
            where = f"atoms[{i}]"
            _check_keys(atom, {"prob", "birth_ages", "life"}, set(), where)
            atoms.append(
                (float(atom["prob"]), tuple(int(a) for a in atom["birth_ages"]), int(atom["life"]))
            )
        return Tabulated(atoms)
    if variant == "delayed_death":
        _check_keys(d, {"variant", "schedules", "residual"}, set(), "model")
        schedules = []
        for i, sched in enumerate(d["schedules"]):
            where = f"schedules[{i}]"
            _check_keys(sched, {"prob", "birth_ages"}, set(), where)
            schedules.append((float(sched["prob"]), tuple(int(a) for a in sched["birth_ages"])))
        return DelayedDeath(schedules, life_from_dict(d["residual"], "residual"))
    if variant == "sevastyanov":
        _check_keys(
            d, {"variant", "life", "offspring_by_life"}, {"offspring_default"}, "model"
        )
        life = life_from_dict(d["life"])
        table = {
            _int_key(k, "offspring_by_life"): _offspring_from_list(v, f"offspring_by_life[{k}]")
            for k, v in d["offspring_by_life"].items()
        }
        default = (
            _offspring_from_list(d["offspring_default"], "offspring_default")
            if "offspring_default" in d
            else None
        )
        model = Sevastyanov(
            life,
            _table_rule(table, default),
            moment_tail_bound=_table_tail_bound(life, table, default),
        )
        # keep the table so the model can be written back out
        model.io_table = table
        model.io_default = default
        return model
    raise ConfigError(f"unknown model variant {variant!r}")


def model_to_dict(model: LifeLaw) -> dict:
    if isinstance(model, BellmanHarris):
        return {
            "variant": "bellman_harris",
            "life": life_to_dict(model.life),
            "offspring": list(model.offspring.probs),
        }
    if isinstance(model, Tabulated):
        return {
            "variant": "tabulated",
            "atoms": [
                {"prob": p, "birth_ages": list(ages), "life": life}
                for p, ages, life in model.atoms
            ],
        }
    if isinstance(model, DelayedDeath):
        return {
            "variant": "delayed_death",
            "schedules": [
                {"prob": p, "birth_ages": list(ages)} for p, ages in model.schedules
            ],
            "residual": life_to_dict(model.residual),
        }
    if isinstance(model, Sevastyanov):
        table = getattr(model, "io_table", None)
        if table is None:
            raise ConfigError("cannot serialize a Sevastyanov rule without its table")
        out = {
            "variant": "sevastyanov",
            "life": life_to_dict(model.life),
            "offspring_by_life": {str(l): list(o.probs) for l, o in table.items()},
        }
        default = getattr(model, "io_default", None)
        if default is not None:
            out["offspring_default"] = list(default.probs)
        return out
    raise ConfigError(f"cannot serialize model {type(model).__name__}")


def load_model(path: str) -> LifeLaw:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read model: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return model_from_dict(raw)


def dump_model(model: LifeLaw, fh) -> None:
    json.dump(model_to_dict(model), fh, indent=2)
    fh.write("\n")
