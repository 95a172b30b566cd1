"""Philox4x64-10 (Salmon et al., SC'11) in numpy, for many streams at once.

philox_uniforms(seed, reps, blocks) gives, for each pair (rep, b), the four
doubles in [0, 1) that Generator.random draws from counter block b + 1 of
np.random.Philox(key=np.array([seed, rep], dtype=np.uint64)), bit for bit.
Every round needs two 64x64 -> 128-bit products; numpy has no such
multiply, so each is built from 32-bit partial products.  The two
products of a round run as one (2, n) pass, and the four partial products
of each come from one broadcast multiply, on scratch views built once per
call.  In round 0 three counter words are 0 and in round 1 the first is
the key word seed, so these rounds take one vector product each.  Long
calls run in chunks, which bounds the working set.
"""

from __future__ import annotations

import numpy as np

# round multipliers and key increments
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK64 = (1 << 64) - 1
_MUL = np.array(_PHILOX_MUL, dtype=np.uint64)[:, None]
_MUL_HALVES = np.array(  # [a, b, w, 0]: 32-bit half a ^ b (0 low, 1 high) of multiplier w
    [[[m >> (32 * (a ^ b)) & 0xFFFFFFFF for m in _PHILOX_MUL] for b in (0, 1)] for a in (0, 1)],
    dtype=np.uint64,
)[..., None]
_KEY_BUMP = np.array([[_PHILOX_BUMP[1]], [_PHILOX_BUMP[0]]], dtype=np.uint64)  # per round, to (key1, key0)
_PHILOX_CHUNK = 4096  # counter blocks per pass of the rounds: bounds their working set
_LO32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_U11 = np.uint64(11)


def _views(parts: np.ndarray, halves: np.ndarray) -> tuple:
    """The scratch views _mulhilo works in, for parts (2, 2, k, n) and the
    rows (2, 2, k, 1) of _MUL_HALVES that belong to its k multipliers."""
    return parts[0], parts[1], parts[0, 0], parts[0, 1], parts[1, 0], parts[1, 1], halves[0], halves[1]


def _mulhilo(x: np.ndarray, mul: np.ndarray, views: tuple, lo: np.ndarray):
    """High and low 64-bit words of the 128-bit products x * mul, for a
    uint64 array x of shape (k, n) and a column mul of k constants, in
    the _views of a scratch parts (2, 2, k, n) that may hold x.  The low
    words go to lo; the high words are a view of parts."""
    products, halves_x, ll, hh, lh, hl, m0, m1 = views
    np.multiply(x, mul, lo)
    np.bitwise_and(x, _LO32, lh)
    np.right_shift(x, _U32, hl)
    # the four 32-bit partial products, by halves of x in parts[1]:
    # parts = ((x_lo m_lo, x_hi m_hi), (x_lo m_hi, x_hi m_lo))
    np.multiply(halves_x, m0, products)
    halves_x *= m1
    ll >>= _U32
    hl += ll  # the middle word, below 2^64
    np.bitwise_and(hl, _LO32, ll)
    lh += ll
    halves_x >>= _U32
    hh += lh
    hh += hl
    return hh


def _philox_rounds(seed: int, reps: np.ndarray, blocks: np.ndarray, out: np.ndarray) -> None:
    """The ten rounds of Philox4x64-10 on counters (blocks + 1, 0, 0, 0)
    under keys (seed, reps), written to out (n, 4) as Generator.random's
    doubles."""
    n = blocks.size
    parts = np.empty((2, 2, 2, n), dtype=np.uint64)
    c0 = np.add(blocks, np.uint64(1), parts[0, 0, :1])  # Philox counts from block 1
    # round i writes its low words to lows[(i + 1) % 2], in out until the end
    lows = out.view(np.uint64).reshape(2, 2, n)
    # round 0: c1 = c2 = c3 = 0, so c0 * M0 is the only product; after it
    # the counter is (seed, 0, hi ^ rep, lo)
    hi = _mulhilo(c0, _MUL[:1], _views(parts[:, :, :1], _MUL_HALVES[:, :, :1]), lows[1, 1:])
    hi ^= reps
    # round 1: c0 is the key word seed, so c0 * M0 is one Python-int product;
    # its words go to lows[0] as (c3, c1), the order rounds 2-9 read
    prod = seed * _PHILOX_MUL[0]
    hi = _mulhilo(hi, _MUL[1:], _views(parts[:, :, 1:], _MUL_HALVES[:, :, 1:]), lows[0, 1:])
    lows[0, 0] = prod & _MASK64
    keys = np.empty((2, n), dtype=np.uint64)  # round i's (key1, key0), bumped in place
    keys[0] = reps
    keys[1] = seed
    keys += _KEY_BUMP
    x = parts[0, 0]  # (c0, c2), overwritten by the next product only after it is read
    np.bitwise_xor(hi[0], keys[1], x[0])
    np.bitwise_xor(lows[1, 1], keys[0], x[1])
    x[1] ^= np.uint64(prod >> 64)
    # rounds 2-9: both products, (c0, c2) * (M0, M1), in one (2, n) pass
    # on views built once.  Round i reads the last round's (c3, c1) from
    # lows[i % 2] and writes (lo0, lo1) to lows[(i + 1) % 2]:
    # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0)
    views, low = _views(parts, _MUL_HALVES), (lows[0], lows[1])
    swapped = views[3][::-1]  # the high words as (hi1, hi0), the next (c0, c2)
    for i in range(2, 10):
        hi = _mulhilo(x, _MUL, views, low[(i + 1) & 1])
        hi ^= low[i & 1]
        keys += _KEY_BUMP
        hi ^= keys
        x = swapped
    x >>= _U11
    y = np.right_shift(lows[0, ::-1], _U11, parts[1, 0])  # (c1, c3), out of out's memory
    words = out.reshape(n, 2, 2)  # words[:, w] holds c_2w and c_2w+1
    np.multiply(x, 2.0**-53, words[:, :, 0].T)
    np.multiply(y, 2.0**-53, words[:, :, 1].T)


def philox_uniforms(seed: int, reps: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Uniforms 4b, ..., 4b + 3 of stream (seed, rep) for each pair (rep, b)
    of the two arrays, shape (n, 4): the numbers Generator.random draws at
    those positions from np.random.Philox(key=np.array([seed, rep], dtype=np.uint64))."""
    reps = np.asarray(reps, dtype=np.uint64)
    blocks = np.asarray(blocks, dtype=np.uint64)
    out = np.empty((blocks.size, 4))
    for a in range(0, blocks.size, _PHILOX_CHUNK):
        b = a + _PHILOX_CHUNK
        _philox_rounds(seed, reps[a:b], blocks[a:b], out[a:b])
    return out
