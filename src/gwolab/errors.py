"""Exception hierarchy shared across the package.

Every error raised on purpose derives from GwolabError so callers (and the
command line front end) can map failure classes to exit codes.  `_integer`
holds the one rule for a time or a size given to the API.
"""

from __future__ import annotations

import numbers
from typing import Optional


class GwolabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(GwolabError):
    """Malformed model or experiment configuration (bad keys, bad values)."""


class ShapeMismatch(GwolabError):
    """Truncated-series operands disagree in variable count or degree cap."""


class NonpositiveConstantTerm(GwolabError):
    """Square root of a series whose constant term is not strictly positive."""


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
    bound = "" if least is None and most is None else f" >= {least}" if most is None else f" in [{least}, {most}]"
    raise ConfigError(f"{what} {value!r} must be an integer{bound}")
