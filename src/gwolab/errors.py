"""Exception hierarchy shared across the package.

Every error raised on purpose derives from GwolabError, and each class
has an exit code of its own (`cli.EXIT_CODES`).  Bad input of any kind, a
model, a query or a series shape, is a ConfigError.  `_integer` holds
the one rule for a time or a size given to the API, `_number` the one
for a mass, a probability, a weight, a time fraction or a parameter.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional


class GwolabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(GwolabError):
    """Malformed model or experiment configuration (bad keys, bad values)."""


class ZeroConditioningEvent(GwolabError):
    """Conditioning on survival at a time where survival has probability 0."""


class CapTooLarge(GwolabError):
    """A DP table, a series computation, a simulator tally or result table or a
    figure grid would exceed its memory budget."""


class BudgetExhausted(GwolabError):
    """A sampling budget (attempts or individuals) ran out."""


class OracleBlowup(GwolabError):
    """Exhaustive enumeration exceeded its node budget."""


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


def _bound(least, most) -> str:
    return "" if least is None and most is None else f" >= {least}" if most is None else f" in [{least}, {most}]"
