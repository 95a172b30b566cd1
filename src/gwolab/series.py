"""Multivariate power series truncated at a total-degree cap.

The ring kept here is R[z1..zn] / (total degree > cap).  Addition,
multiplication and scalar ops are exact on the retained coefficients;
everything of higher total degree is dropped.  Square roots are computed
with a division-free Newton iteration and are exact on retained
coefficients up to floating point roundoff.

>>> s = TruncatedSeries.from_terms({(0, 0): 1.0, (1, 0): 2.0}, nvars=2, cap=3)
>>> t = TruncatedSeries.variable(1, nvars=2, cap=3)
>>> (s * t).coefficient((1, 1))
2.0
>>> round((s.sqrt() * s.sqrt()).coefficient((1, 0)), 12)
2.0
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Iterator, Mapping

import numpy as np
from scipy import signal

from .errors import NonpositiveConstantTerm, ShapeMismatch


@functools.lru_cache(maxsize=None)
def total_degree_mask(nvars: int, cap: int) -> np.ndarray:
    """Boolean array over exponent tuples, True where the total degree <= cap."""
    grid = np.indices((cap + 1,) * nvars).sum(axis=0)
    mask = grid <= cap
    mask.setflags(write=False)
    return mask


def dense_mul(a: np.ndarray, b: np.ndarray, cap: int) -> np.ndarray:
    """Truncated product of two dense coefficient arrays of shape (cap+1,)*n."""
    full = signal.convolve(a, b, method="direct" if a.size < 4096 else "auto")
    out = full[tuple(slice(0, cap + 1) for _ in range(a.ndim))]
    return np.where(total_degree_mask(a.ndim, cap), out, 0.0)


def monomial(value: float, exps, cap: int) -> np.ndarray:
    """value * prod z_i^exps[i] as a dense coefficient array (0 past the cap)."""
    out = np.zeros((cap + 1,) * len(exps))
    if sum(exps) <= cap:
        out[tuple(exps)] = value
    return out


def shift_monomial(arr: np.ndarray, exps, cap: int) -> np.ndarray:
    """Truncated product of a dense coefficient array with prod z_i^exps[i]."""
    out = np.zeros_like(arr)
    if sum(exps) <= cap:
        src = tuple(slice(0, cap + 1 - e) for e in exps)
        dst = tuple(slice(e, cap + 1) for e in exps)
        out[dst] = arr[src]
    return np.where(total_degree_mask(arr.ndim, cap), out, 0.0)


def poly_of_series(coef, arr: np.ndarray, cap: int) -> np.ndarray:
    """Horner composition sum_n coef[n] * arr**n in the truncated ring."""
    res = np.zeros_like(arr)
    res.flat[0] = coef[-1]
    for c in coef[-2::-1]:
        res = dense_mul(res, arr, cap)
        res.flat[0] += c
    return res


class TruncatedSeries:
    """A power series in `nvars` variables, truncated at total degree `cap`,
    stored as a dense coefficient array of shape (cap+1,)*nvars."""

    __slots__ = ("nvars", "cap", "data")

    def __init__(self, nvars: int, cap: int, data: np.ndarray):
        if nvars < 1:
            raise ShapeMismatch("need at least one variable")
        if cap < 0:
            raise ShapeMismatch("cap must be nonnegative")
        self.nvars = nvars
        self.cap = cap
        self.data = data

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, nvars: int, cap: int) -> "TruncatedSeries":
        return cls(nvars, cap, np.zeros((cap + 1,) * nvars))

    @classmethod
    def constant(cls, value: float, nvars: int, cap: int) -> "TruncatedSeries":
        return cls(nvars, cap, monomial(float(value), (0,) * nvars, cap))

    @classmethod
    def variable(cls, index: int, nvars: int, cap: int) -> "TruncatedSeries":
        """The monomial z_index; degenerates to 0 when cap == 0."""
        if not 0 <= index < nvars:
            raise ShapeMismatch(f"variable index {index} out of range")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, cap, monomial(1.0, exps, cap))

    @classmethod
    def from_terms(cls, terms: Mapping[tuple, float], nvars: int, cap: int) -> "TruncatedSeries":
        out = cls.zeros(nvars, cap)
        for idx, coeff in terms.items():
            if len(idx) != nvars:
                raise ShapeMismatch(f"exponent tuple {idx} has wrong length")
            if sum(idx) <= cap:
                out.data[tuple(idx)] += float(coeff)
        return out

    # -- access ---------------------------------------------------------

    def coefficient(self, idx: Iterable[int]) -> float:
        idx = tuple(idx)
        if len(idx) != self.nvars:
            raise ShapeMismatch(f"exponent tuple {idx} has wrong length")
        if sum(idx) > self.cap:
            return 0.0
        return float(self.data[idx])

    def terms(self) -> Iterator[tuple[tuple, float]]:
        """Yield (exponents, coefficient) for the nonzero retained terms."""
        for idx in zip(*np.nonzero(self.data)):
            yield tuple(int(i) for i in idx), float(self.data[idx])

    def to_dense_array(self) -> np.ndarray:
        """Coefficients as an ndarray of shape (cap+1,)*nvars (copy)."""
        return self.data.copy()

    def _check(self, other: "TruncatedSeries") -> None:
        if self.nvars != other.nvars or self.cap != other.cap:
            raise ShapeMismatch(
                f"operands disagree: ({self.nvars} vars, cap {self.cap}) vs "
                f"({other.nvars} vars, cap {other.cap})"
            )

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = TruncatedSeries.constant(other, self.nvars, self.cap)
        self._check(other)
        return TruncatedSeries(self.nvars, self.cap, self.data + other.data)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.nvars, self.cap, -self.data)

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = TruncatedSeries.constant(other, self.nvars, self.cap)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return TruncatedSeries(self.nvars, self.cap, self.data * float(other))
        self._check(other)
        return TruncatedSeries(self.nvars, self.cap, dense_mul(self.data, other.data, self.cap))

    __rmul__ = __mul__

    def sqrt(self) -> "TruncatedSeries":
        """Power-series square root via the division-free Newton iteration.

        Iterates x <- x*(3 - s*x^2)/2 toward 1/sqrt(s), doubling the number
        of correct degrees per step, then returns s*x.  Requires a strictly
        positive constant term.
        """
        c0 = self.coefficient((0,) * self.nvars)
        if c0 <= 0.0:
            raise NonpositiveConstantTerm(f"constant term {c0} is not positive")
        x = TruncatedSeries.constant(1.0 / math.sqrt(c0), self.nvars, self.cap)
        # one extra pass polishes floating point residue after convergence
        for _ in range(max(1, math.ceil(math.log2(self.cap + 1))) + 1):
            x = x * ((3.0 - self * x * x) * 0.5)
        return self * x

    # -- evaluation ----------------------------------------------------

    def evaluate(self, point: Iterable[float]) -> float:
        """Sum of coeff * prod(z_i^e_i) at the given point."""
        point = tuple(point)
        if len(point) != self.nvars:
            raise ShapeMismatch("point has wrong length")
        acc = self.data
        for p in reversed(point):
            acc = acc @ np.power(p, np.arange(self.cap + 1))
        return float(acc)

    def __repr__(self):
        return f"TruncatedSeries(nvars={self.nvars}, cap={self.cap})"
