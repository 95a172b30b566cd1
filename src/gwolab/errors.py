"""Exception hierarchy shared across the package.

Every error raised on purpose derives from GwolabError so callers (and the
command line front end) can map failure classes to exit codes.
"""

from __future__ import annotations


class GwolabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(GwolabError):
    """Malformed model or experiment configuration (bad keys, bad values)."""


class DivergentMoment(GwolabError):
    """A moment series could not be certified convergent within tolerance."""


class ShapeMismatch(GwolabError):
    """Truncated-series operands disagree in variable count or degree cap."""


class NonpositiveConstantTerm(GwolabError):
    """Square root of a series whose constant term is not strictly positive."""


class UnsupportedModel(GwolabError):
    """The exact engine cannot enumerate this model at the requested horizon."""


class ZeroConditioningEvent(GwolabError):
    """Conditioning on survival at a time where survival has probability 0."""


class CapTooLarge(GwolabError):
    """A DP table, a series computation, a simulator tally or result table or a
    figure grid would exceed its memory budget."""


class BudgetExhausted(GwolabError):
    """A sampling budget (attempts or individuals) ran out."""


class OracleBlowup(GwolabError):
    """Exhaustive enumeration exceeded its node budget."""
