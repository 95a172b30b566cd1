"""Multivariate power series truncated at a total-degree cap.

The ring kept here is R[z1..zn] / (total degree > cap).  Addition,
multiplication and scalar ops are exact on the retained coefficients;
everything of higher total degree is dropped.  Square roots are computed
with a division-free Newton iteration and are exact on retained
coefficients up to floating point roundoff.

A product takes one of three routes, chosen by the number of variables n
and the cap:

- n = 1: the truncated product is the first cap + 1 terms of
  `np.convolve`, while its (cap+1)^2 products are within
  `_DIRECT_PRODUCTS` (cap <= 511).
- n >= 2: there are C(cap + 2n, 2n) pairs of monomials whose total
  degree is <= cap.  While that count is within `_PAIR_BUDGET` (n = 2 up
  to cap 32, n = 3 up to 15), a cached table lists each pair by flat
  index (i, j) with its target i + j, and the product is one
  `np.bincount` over the pairwise products; no term past the cap is
  formed.
- otherwise, a real FFT of the (cap+1)^n boxes, padded against
  wraparound, then sliced and masked at the cap.

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
import numbers
from typing import Iterable, Iterator, Mapping

import numpy as np
from scipy import fft

from .errors import NonpositiveConstantTerm, ShapeMismatch


@functools.lru_cache(maxsize=None)
def total_degree_mask(nvars: int, cap: int) -> np.ndarray:
    """Boolean array over exponent tuples, True where the total degree <= cap."""
    grid = np.indices((cap + 1,) * nvars).sum(axis=0)
    mask = grid <= cap
    mask.setflags(write=False)
    return mask


# One variable: np.convolve's direct products beat the pair table (4x at
# cap 100) and, up to cap ~600, the FFT, on one x86-64 core.
_DIRECT_PRODUCTS = 1 << 18
_PAIR_BUDGET = 1 << 16  # monomial pairs one cached table may list


@functools.lru_cache(maxsize=16)
def _pair_table(nvars: int, cap: int) -> tuple:
    """Flat indices (i, j, i + j) of the monomial pairs of total degree <= cap.

    Exponents never pass cap in any coordinate, so the flat index of a
    product monomial is the sum of its factors' flat indices.
    """
    mask = total_degree_mask(nvars, cap)
    flat = np.flatnonzero(mask)
    deg = np.indices(mask.shape).sum(axis=0).ravel()[flat]
    ii, jj = np.nonzero(deg[:, None] + deg[None, :] <= cap)
    table = (flat[ii], flat[jj], flat[ii] + flat[jj])
    for arr in table:
        arr.setflags(write=False)
    return table


def dense_mul(a: np.ndarray, b: np.ndarray, cap: int) -> np.ndarray:
    """Truncated product of two dense coefficient arrays of shape (cap+1,)*n.

    Terms of a or b beyond total degree cap do not enter the product."""
    n = a.ndim
    if n == 1 and (cap + 1) ** 2 <= _DIRECT_PRODUCTS:
        return np.convolve(a, b)[: cap + 1]
    if n > 1 and math.comb(cap + 2 * n, 2 * n) <= _PAIR_BUDGET:
        i, j, target = _pair_table(n, cap)
        return np.bincount(target, np.take(a, i) * np.take(b, j), minlength=a.size).reshape(a.shape)
    box = (fft.next_fast_len(2 * cap + 1, real=True),) * n
    full = fft.irfftn(fft.rfftn(a, box) * fft.rfftn(b, box), box)
    out = full[(slice(0, cap + 1),) * n]
    return np.where(total_degree_mask(n, cap), out, 0.0)


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


def _exponents(idx, nvars: int) -> tuple:
    idx = tuple(idx)
    if len(idx) != nvars:
        raise ShapeMismatch(f"exponent tuple {idx} has wrong length")
    if any(e < 0 for e in idx):
        raise ShapeMismatch(f"exponent tuple {idx} has a negative entry")
    return idx


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
            idx = _exponents(idx, nvars)
            if sum(idx) <= cap:
                out.data[idx] += float(coeff)
        return out

    # -- access ---------------------------------------------------------

    def coefficient(self, idx: Iterable[int]) -> float:
        idx = _exponents(idx, self.nvars)
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
        if isinstance(other, numbers.Real):
            other = TruncatedSeries.constant(other, self.nvars, self.cap)
        self._check(other)
        return TruncatedSeries(self.nvars, self.cap, self.data + other.data)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.nvars, self.cap, -self.data)

    def __sub__(self, other):
        if isinstance(other, numbers.Real):
            other = TruncatedSeries.constant(other, self.nvars, self.cap)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
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
