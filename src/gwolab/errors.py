"""Exception hierarchy shared across the package.

Every error raised on purpose derives from GwolabError, and each class
names a remedy and has an exit code (`cli.EXIT_CODES`): fix the input or
the query (ConfigError), ask for less (CapTooLarge), or raise a budget
you set (BudgetExhausted).  The one rule for a time or a size is
`_integer`; for a mass, a probability, a weight, a time fraction or a
parameter, `_number`; for a container, `_items`; for a law, a query or a
spec, `_instance`.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping, Sequence
from typing import Optional


class GwolabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(GwolabError):
    """Bad input: a malformed model or value, or a query the model cannot answer."""


class CapTooLarge(GwolabError):
    """A DP table, a series computation, a simulator tally or result table or a
    figure grid would exceed its memory budget."""


class BudgetExhausted(GwolabError):
    """A budget the caller set ran out: max_attempts, max_individuals or enumerate_joint's budget."""


def _integer(value, what: str, least: Optional[int] = None, most: Optional[int] = None) -> int:
    """value as an int.  ConfigError names it unless it is an integer
    (`numbers.Integral`, so numpy's integers are, but not a bool) and,
    where given, >= least and <= most."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        if (least is None or value >= least) and (most is None or value <= most):
            return int(value)
    raise ConfigError(f"{what} {value!r} must be an integer{_bound(least, most)}")


def _number(value, what: str, least=None, most=None) -> float:
    """value as a float.  ConfigError names it unless it is a finite real
    (`numbers.Real`, so numpy's floats are, but not a bool, text or an int
    too large for a float) and, where given, >= least and <= most."""
    try:
        x = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int too large for a float
        x = math.nan
    if math.isfinite(x) and (least is None or x >= least) and (most is None or x <= most):
        return x
    raise ConfigError(f"{what} {value!r} must be a finite number{_bound(least, most)}")


def _items(value, what: str, rule=None, *args, size=None, nonempty=False, increasing=False, pairs=False) -> tuple:
    """value's entries (with pairs set, a mapping's (key, value) pairs) as a
    tuple, each through rule(entry, *args) if given.  ConfigError names it
    unless it is that mapping, else a sequence but not text (or an array of
    rank >= 1); nonempty, of length size, strictly increasing where asked."""
    ok = isinstance(value, Mapping) if pairs else isinstance(value, Sequence) or getattr(value, "ndim", 0) > 0
    if ok and not isinstance(value, (str, bytes)) and (len(value) or not nonempty) and size in (None, len(value)):
        items = value.items() if pairs else value
        out = tuple(items) if rule is None else tuple(rule(v, *args) for v in items)
        if not increasing or all(a < b for a, b in zip(out, out[1:])):
            return out
    kind = ("nonempty " if nonempty else "") + ("strictly increasing " if increasing else "")
    kind += ("mapping" if pairs else "sequence") + ("" if size is None else f" of length {size}")
    raise ConfigError(f"{what} {value!r} must be a {kind}")


def _instance(value, kind, what: str):
    """value, unless it is not a kind (a class or a Union of classes):
    then a ConfigError names it."""
    if isinstance(value, kind):
        return value
    names = " or ".join(k.__name__ for k in getattr(kind, "__args__", (kind,)))
    raise ConfigError(f"{what} must be of type {names}, not {type(value).__name__}")


def _bound(least, most) -> str:
    return "" if least is None and most is None else f" >= {least}" if most is None else f" in [{least}, {most}]"
