"""Multivariate power series truncated at a total-degree cap.

The ring kept here is R[z1..zn] / (total degree > cap).  Addition,
multiplication and scalar ops are exact on the retained coefficients;
everything of higher total degree is dropped.  Square roots are computed
with a division-free Newton iteration and are exact on retained
coefficients up to floating point roundoff.  A Newton pass doubles the
degrees it gets right (Brent and Kung, J. ACM 1978), so pass i runs in
the smaller ring of cap min(2^(i+1) - 1, cap), which each `Ring` builds
on its first root and keeps apart from `ring`'s cache.  At cap 20 the
passes run at caps 1, 3, 7, 15, 20 and 20, and a root takes 7 products at
the full cap, not 19.  The last pass at the full cap only polishes
round-off; without it a root takes 4, but the (3, 20) pmf of
`limitlaw.eta_fdd_pmf` strays 1.8e-14 relative from a long-double run,
not 6.8e-15.

`Ring` works on flat coefficient rows (numpy arrays, which add, subtract
and scale as such): the product, monomials, shifts, Horner composition,
powers and the square root.  `Floats`, the ring of shape (), carries on
Python floats what the float routes call: `mul`, `sqrt`, `rows`, a vector
`dot` and `monomial`.  The DP of `exact_engine` and the limit pgf of
`limitlaw._fdd_pgf` run in `ring(nvars, cap)` or in `Floats`;
`TruncatedSeries` only wraps a row for the benchmark's square-root probe.
A bad shape, operands of two rings or a radicand without a positive
constant term is a `ConfigError`, like any other bad input.

A product takes one of three routes, chosen by the number of variables n
and the cap when the ring is built:

- n = 1: the truncated product is the first cap + 1 terms of
  `np.correlate(a, b[::-1], "full")`, the C loop that `np.convolve` runs
  for rows of one length, without its Python wrapper, while its
  (cap+1)^2 products are within `_DIRECT_PRODUCTS` (cap <= 511).
- n >= 2: there are C(cap + 2n, 2n) pairs of monomials whose total
  degree is <= cap.  While that count is within `_PAIR_BUDGET` (n = 2 up
  to cap 32, n = 4 up to 10) or, in three variables, `_PAIR_BUDGET_3`
  (up to cap 20), the ring lists each pair by flat index (i, j), row by
  row, and no term past the cap is formed.  A table of up to
  `_PAIR_BLOCK` pairs keeps each target i + j, and the product is one
  `np.bincount` over the pairwise products; a longer one keeps only the
  partners j of each run of rows, and the product adds each block of at
  most `_PAIR_BLOCK` products with `np.add.at`.  Both sum every target in
  listing order from 0.0, so they give the same bytes.
- otherwise, a real FFT of the (cap+1)^n boxes, padded against
  wraparound to the 5-smooth length m = `_fft_len(2 cap + 1)`, then
  masked at the cap.

The product comes in two halves, `mul(a, b) = product(spectrum(a),
spectrum(b))`.  `spectrum` is the forward transform on the FFT route and
the row itself on the other two, so a row that enters several products
(x in Horner's rule and in `powers`, the radicand in each ring of the
square root and each iterate) is transformed once.  `product` multiplies
the spectra and runs the inverse passes, and after the pass on each axis
but the last it keeps only that axis's lines 0..cap: the later passes,
the last `irfft` and the scaling then work on (cap+1)^(n-1) lines instead
of m^(n-1), and the lines dropped would only feed terms past the cap.  The
transform is numpy's, run one axis at a time in the order and with the
scaling of `scipy.fft.rfftn`/`irfftn` (`np.fft.rfftn` runs the axes the
other way round).  Each 1-D pass transforms every line it keeps on its
own, so slicing away other lines, or reusing a spectrum, changes no bit;
every round-off bit of an FFT product stays scipy's, down to which of
`eta_fdd_pmf`'s coefficients at (2, 33) round below 0 (165 of them).

>>> r = ring(2, 3)
>>> s = r.monomial(1.0) + r.monomial(2.0, (0,))
>>> float(r.mul(s, r.monomial(1.0, (1,))).reshape(r.shape)[1, 1])
2.0
>>> round(float(r.mul(r.sqrt(s), r.sqrt(s)).reshape(r.shape)[1, 0]), 12)
2.0
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .errors import ConfigError, _integer


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
# Three variables: the pair table through cap 20 (C(26, 6) = 230,230 pairs,
# 1.8 MB of partner indices).  One product at (3, 20) took 0.95 ms on it
# against 2.1 ms on the FFT, which it still beat at cap 24 (2.4 against
# 2.9 ms; best of 20, one x86-64 core); past cap 20 the table's memory, not
# its speed, is the limit.  Two variables keep _PAIR_BUDGET (cap 32), though
# the FFT is the faster there from about cap 24.
_PAIR_BUDGET_3 = 1 << 18
# Pairs one step of a blocked product sums, its temporaries about 1 MB.  A
# table within one block keeps its targets and one np.bincount: blocked, a
# product at (3, 10) took 0.033 ms against 0.029 ms.
_PAIR_BLOCK = 1 << 15


def _fft_len(n: int) -> int:
    """The smallest 5-smooth integer >= n >= 1, the length
    `scipy.fft.next_fast_len(n, real=True)` picks."""
    for m in itertools.count(n):
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m


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
        self._pairs = self._blocks = self._fft_len = self._newton = None
        budget = _PAIR_BUDGET_3 if nvars == 3 else _PAIR_BUDGET
        if nvars > 1 and math.comb(cap + 2 * nvars, 2 * nvars) <= budget:
            self._list_pairs()
        elif nvars > 1 or (cap + 1) ** 2 > _DIRECT_PRODUCTS:
            self._fft_len = _fft_len(2 * cap + 1)

    def _list_pairs(self) -> None:
        """The pairs (i, j) in `np.nonzero`'s order over the square
        deg[:, None] + deg[None, :] <= cap, listed without it: as
        (i, j, i + j) within _PAIR_BLOCK pairs, else as blocks
        (rows, counts, j) of whole rows, each row i repeated counts times."""
        # Exponents never pass cap in any coordinate, so the flat index
        # of a product monomial is the sum of its factors' flat indices.
        flat = np.flatnonzero(self._degree <= self.cap)
        deg = self._degree[flat]
        # a monomial of degree e pairs with those of degree <= cap - e, in flat order
        partners = [flat[deg <= self.cap - e] for e in range(self.cap + 1)]
        counts = np.array([p.size for p in partners])[deg]
        j = np.concatenate([partners[e] for e in deg])
        if j.size <= _PAIR_BLOCK:
            i = np.repeat(flat, counts)
            self._pairs = (i, j, i + j)
            return
        ends, r0, self._blocks = np.cumsum(counts), 0, []
        while r0 < flat.size:
            s0 = int(ends[r0 - 1]) if r0 else 0
            r1 = max(r0 + 1, int(np.searchsorted(ends, s0 + _PAIR_BLOCK, "right")))
            self._blocks.append((flat[r0:r1], counts[r0:r1], j[s0 : ends[r1 - 1]]))
            r0 = r1

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Truncated product; terms of a or b past the cap do not enter it."""
        if self._fft_len is None:  # a row is its own spectrum; two calls fewer per small product
            return self.product(a, b)
        return self.product(self.spectrum(a), self.spectrum(b))

    def spectrum(self, row: np.ndarray):
        """The operand `product` takes for row: its forward transform on the
        FFT route, the row itself on the others.  A row that enters several
        products is transformed once."""
        m = self._fft_len
        if m is None:
            return row
        f = np.fft.rfft(row.reshape(self.shape), m)
        for axis in range(self.nvars - 1):
            f = np.fft.fft(f, m, axis=axis)
        return f

    def product(self, fa, fb) -> np.ndarray:
        """The truncated product of the rows whose spectra are fa and fb."""
        if self._pairs is not None:
            i, j, target = self._pairs
            return np.bincount(target, np.take(fa, i) * np.take(fb, j), minlength=fa.size)
        if self._blocks is not None:
            # np.add.at sums each target in listing order from 0.0, as one
            # np.bincount over the whole table would: the same bytes
            out = np.zeros(fa.size)
            for rows, counts, j in self._blocks:
                w = np.repeat(np.take(fa, rows), counts)  # a row's first factor is one coefficient
                w *= np.take(fb, j)
                np.add.at(out, np.repeat(rows, counts) + j, w)
            return out
        m = self._fft_len
        if m is None:
            return np.correlate(fa, fb[::-1], "full")[: self.cap + 1]
        full, keep = fa * fb, slice(0, self.cap + 1)
        for axis in range(self.nvars - 1):
            # lines past the cap on this axis only feed discarded terms
            full = np.fft.ifft(full, axis=axis, norm="forward")[(slice(None),) * axis + (keep,)]
        full = np.fft.irfft(full, m, norm="forward")[..., keep] * (1.0 / m**self.nvars)
        return np.where(total_degree_mask(self.nvars, self.cap), full, 0.0).ravel()

    @staticmethod
    def rows(table: np.ndarray) -> list:
        """A table of rows as a list of row views."""
        return list(table)

    dot = staticmethod(np.dot)

    def monomial(self, scal: float, var_idx=()) -> np.ndarray:
        """scal times the monomial var_idx (0 past the cap)."""
        out = np.zeros(self.row)
        if len(var_idx) <= self.cap:
            out[sum(self._stride[v] for v in var_idx)] = scal
        return out

    def shift(self, x: np.ndarray, var_idx) -> np.ndarray:
        """x times the monomial var_idx, truncated at the cap; x is one row
        or a block of rows along its last axis."""
        out = np.zeros(x.shape)
        if len(var_idx) <= self.cap:
            # a term of degree <= cap - d has each coordinate i <= cap - d_i,
            # so its flat index moves by the monomial's without a carry
            off = sum(self._stride[v] for v in var_idx)
            kept = np.where(self._degree <= self.cap - len(var_idx), x, 0.0)
            out[..., off:] = kept[..., : self.row[0] - off]
        return out

    def poly(self, coef, x: np.ndarray) -> np.ndarray:
        """Horner composition sum_n coef[n] * x**n."""
        fx = self.spectrum(x)
        res = self.monomial(coef[-1])
        for c in coef[-2::-1]:
            res = self.product(self.spectrum(res), fx)
            res[0] += c
        return res

    def powers(self, x: np.ndarray, n: int) -> list:
        """[1, x, ..., x**(n-1)]."""
        fx = self.spectrum(x)
        out = [self.monomial(1.0), x][:n]
        while len(out) < n:
            out.append(self.product(self.spectrum(out[-1]), fx))
        return out

    def _newton_rings(self) -> list:
        """(ring, own, mine) for each pass of `sqrt`: pass i runs in the
        ring of cap min(2^(i+1) - 1, cap), whose monomials of degree <= its
        cap sit at `own` in its rows and at `mine` in this ring's; a pass at
        this ring's cap is (self, None, None).  Built on the first call and
        kept here, not in `ring`'s cache, which the smaller rings would
        crowd."""
        if self._newton is None:
            passes, self._newton = max(1, math.ceil(math.log2(self.cap + 1))) + 1, []
            for i in range(passes):
                cap = min(2 ** (i + 1) - 1, self.cap)
                if cap == self.cap:
                    self._newton.append((self, None, None))
                    continue
                sub = Ring(self.nvars, cap)
                own = np.flatnonzero(sub._degree <= cap)
                mine = np.ravel_multi_index(np.unravel_index(own, sub.shape), self.shape)
                self._newton.append((sub, own, mine))
        return self._newton

    def sqrt(self, s: np.ndarray) -> np.ndarray:
        """Square root of s by the division-free Newton iteration
        x <- x (3 - s x^2) / 2 toward 1/sqrt(s), then s x.  s needs a
        positive constant term.

        A pass doubles the number of correct degrees, so pass i (from 0)
        runs in the ring of cap min(2^(i+1) - 1, cap): s and x are
        restricted to its monomials, and its result is scattered back.
        There are max(1, ceil(log2(cap + 1))) + 1 passes; the last one at
        the full cap polishes floating point residue.  At cap 20 they run
        at caps 1, 3, 7, 15, 20 and 20, so a root takes 7 products at the
        full cap (two passes of three, and s x), not 19.  Without the
        polish it takes 4, but the (3, 20) pmf of `limitlaw.eta_fdd_pmf`
        then strays 1.8e-14 relative from a long-double run, not 6.8e-15.
        In each ring s is transformed once and each iterate once."""
        c0 = float(s[0])
        if c0 <= 0.0:
            raise ConfigError(f"sqrt: constant term {c0} is not positive")
        fs = self.spectrum(s)
        x = self.monomial(1.0 / math.sqrt(c0))
        for sub, own, mine in self._newton_rings():
            if sub is self:
                x = self._newton_pass(fs, x)
                continue
            ss, xs = np.zeros((2,) + sub.row)
            ss[own], xs[own] = s[mine], x[mine]
            x = np.zeros(self.row)
            x[mine] = sub._newton_pass(sub.spectrum(ss), xs)[own]
        return self.product(fs, self.spectrum(x))

    def _newton_pass(self, fs, x: np.ndarray) -> np.ndarray:
        """x (3 - s x^2) / 2 in this ring, s given by its spectrum."""
        fx = self.spectrum(x)
        sxx = self.product(self.spectrum(self.product(fs, fx)), fx)
        # -sxx + three, not three - sxx: they differ in a NaN's sign
        # bit, which the written-out Newton loop of the tests compares
        return self.product(fx, self.spectrum((-sxx + self.monomial(3.0)) * 0.5))


@functools.lru_cache(maxsize=16)
def ring(nvars: int, cap: int) -> Ring:
    """The shared `Ring` of nvars variables at this cap."""
    return Ring(nvars, cap)


_LONG_DOT = 10_000  # OpenBLAS sums a dot of more terms in one piece per thread


class Floats:
    """The ring of shape (): the part of `Ring`'s protocol the float
    routes call (`mul`, `sqrt`, `rows`, a vector `dot`, `monomial`), on
    Python floats; a class apart from `ring`'s cache, so scalar work
    leaves that cache alone."""

    shape = ()
    row = ()
    mul = staticmethod(operator.mul)
    sqrt = staticmethod(math.sqrt)

    @staticmethod
    def rows(table: np.ndarray) -> list:
        """A table's entries as Python floats, which step faster than numpy's."""
        return table.tolist()

    @staticmethod
    def dot(x: np.ndarray, y: np.ndarray) -> float:
        """numpy's dot of two vectors (ndarray.dot skips np.dot's dispatch)
        as a Python float; past _LONG_DOT terms, einsum's own loop, since
        BLAS splits a long dot across its threads and the sum would depend
        on their number."""
        if x.size > _LONG_DOT:
            return float(np.einsum("i,i->", x, y))
        return float(x.dot(y))

    @staticmethod
    def monomial(scal: float, var_idx=()) -> float:
        return scal


def dense_mul(a: np.ndarray, b: np.ndarray, cap: int) -> np.ndarray:
    """Truncated product of two dense coefficient arrays of shape (cap+1,)*n.

    Terms of a or b beyond total degree cap do not enter the product."""
    return ring(a.ndim, cap).mul(a.ravel(), b.ravel()).reshape(a.shape)


class TruncatedSeries:
    """A row of `ring(nvars, cap)` held as its (cap+1,)*nvars box, with the
    product and the square root; the benchmark's square-root probe
    builds one."""

    __slots__ = ("nvars", "cap", "data")

    def __init__(self, nvars: int, cap: int, data: np.ndarray):
        self.nvars, self.cap = _integer(nvars, "nvars", 1), _integer(cap, "cap", 0)
        box = (self.cap + 1,) * self.nvars
        if data.shape != box:
            raise ConfigError(f"data of shape {data.shape} is not the (cap+1,)*nvars box {box}")
        self.data = data

    def to_dense_array(self) -> np.ndarray:
        """Coefficients as an ndarray of shape (cap+1,)*nvars (copy)."""
        return self.data.copy()

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if (self.nvars, self.cap) != (other.nvars, other.cap):
            raise ConfigError(f"operands disagree: (nvars, cap) {(self.nvars, self.cap)} vs {(other.nvars, other.cap)}")
        return TruncatedSeries(self.nvars, self.cap, dense_mul(self.data, other.data, self.cap))

    def sqrt(self) -> "TruncatedSeries":
        """Power-series square root, `Ring.sqrt`; needs a strictly positive
        constant term."""
        root = ring(self.nvars, self.cap).sqrt(self.data.ravel())
        return TruncatedSeries(self.nvars, self.cap, root.reshape(self.data.shape))
