"""Multivariate power series truncated at a total-degree cap.

The ring kept here is R[z1..zn] / (total degree > cap).  Addition,
multiplication and scalar ops are exact on the retained coefficients;
everything of higher total degree is dropped.  Square roots are computed
with a division-free Newton iteration and are exact on retained
coefficients up to floating point roundoff.

`Ring` works on flat coefficient rows: the product, monomials, shifts,
Horner composition and powers.  The DP of `exact_engine` runs in
`ring(nvars, cap)`, one row per time; `TruncatedSeries`, in which
`limitlaw.eta_fdd_pmf` expands its pgf, multiplies through the same ring.

A product takes one of three routes, chosen by the number of variables n
and the cap when the ring is built:

- n = 1: the truncated product is the first cap + 1 terms of
  `np.convolve`, while its (cap+1)^2 products are within
  `_DIRECT_PRODUCTS` (cap <= 511).
- n >= 2: there are C(cap + 2n, 2n) pairs of monomials whose total
  degree is <= cap.  While that count is within `_PAIR_BUDGET` (n = 2 up
  to cap 32, n = 3 up to 15), the ring lists each pair by flat index
  (i, j) with its target i + j, and the product is one `np.bincount`
  over the pairwise products; no term past the cap is formed.
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


class Ring:
    """The truncated ring in `nvars` variables at total degree `cap`, on
    flat rows (the C-order ravel of the (cap+1,)*nvars box, 0 past the
    cap); `ring` caches one per shape.  A monomial is named by `var_idx`,
    its variables' indices with repeats for powers: (0, 0, 2) is z0^2 z2."""

    def __init__(self, nvars: int, cap: int):
        self.nvars = nvars
        self.cap = cap
        self.shape = (cap + 1,) * nvars
        self.row = (math.prod(self.shape),)
        self._degree = np.indices(self.shape).sum(axis=0).ravel()
        self._stride = [(cap + 1) ** (nvars - 1 - v) for v in range(nvars)]
        self._pairs = self._box = None
        if nvars > 1 and math.comb(cap + 2 * nvars, 2 * nvars) <= _PAIR_BUDGET:
            # Exponents never pass cap in any coordinate, so the flat index
            # of a product monomial is the sum of its factors' flat indices.
            flat = np.flatnonzero(self._degree <= cap)
            deg = self._degree[flat]
            ii, jj = np.nonzero(deg[:, None] + deg[None, :] <= cap)
            self._pairs = (flat[ii], flat[jj], flat[ii] + flat[jj])
        elif nvars > 1 or (cap + 1) ** 2 > _DIRECT_PRODUCTS:
            self._box = (fft.next_fast_len(2 * cap + 1, real=True),) * nvars

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Truncated product; terms of a or b past the cap do not enter it."""
        if self._pairs is not None:
            i, j, target = self._pairs
            return np.bincount(target, np.take(a, i) * np.take(b, j), minlength=a.size)
        if self._box is None:
            return np.convolve(a, b)[: self.cap + 1]
        box = self._box
        full = fft.irfftn(fft.rfftn(a.reshape(self.shape), box) * fft.rfftn(b.reshape(self.shape), box), box)
        out = full[(slice(0, self.cap + 1),) * self.nvars]
        return np.where(total_degree_mask(self.nvars, self.cap), out, 0.0).ravel()

    def monomial(self, scal: float, var_idx=()) -> np.ndarray:
        """scal times the monomial var_idx (0 past the cap)."""
        out = np.zeros(self.row)
        if len(var_idx) <= self.cap:
            out[sum(self._stride[v] for v in var_idx)] = scal
        return out

    def shift(self, x: np.ndarray, var_idx) -> np.ndarray:
        """x times the monomial var_idx, truncated at the cap."""
        out = np.zeros(self.row)
        if len(var_idx) <= self.cap:
            # a term of degree <= cap - d has each coordinate i <= cap - d_i,
            # so its flat index moves by the monomial's without a carry
            off = sum(self._stride[v] for v in var_idx)
            out[off:] = np.where(self._degree <= self.cap - len(var_idx), x, 0.0)[: x.size - off]
        return out

    def poly(self, coef, x: np.ndarray) -> np.ndarray:
        """Horner composition sum_n coef[n] * x**n."""
        res = self.monomial(coef[-1])
        for c in coef[-2::-1]:
            res = self.mul(res, x)
            res[0] += c
        return res

    def powers(self, x: np.ndarray, n: int) -> list:
        """[1, x, ..., x**(n-1)]."""
        out = [self.monomial(1.0), x][:n]
        while len(out) < n:
            out.append(self.mul(out[-1], x))
        return out


@functools.lru_cache(maxsize=16)
def ring(nvars: int, cap: int) -> Ring:
    """The shared `Ring` of nvars variables at this cap."""
    return Ring(nvars, cap)


def dense_mul(a: np.ndarray, b: np.ndarray, cap: int) -> np.ndarray:
    """Truncated product of two dense coefficient arrays of shape (cap+1,)*n.

    Terms of a or b beyond total degree cap do not enter the product."""
    return ring(a.ndim, cap).mul(a.ravel(), b.ravel()).reshape(a.shape)


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
        return cls.from_terms({(0,) * nvars: value}, nvars, cap)

    @classmethod
    def variable(cls, index: int, nvars: int, cap: int) -> "TruncatedSeries":
        """The monomial z_index; degenerates to 0 when cap == 0."""
        if not 0 <= index < nvars:
            raise ShapeMismatch(f"variable index {index} out of range")
        exps = [0] * nvars
        exps[index] = 1
        return cls.from_terms({tuple(exps): 1.0}, nvars, cap)

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
