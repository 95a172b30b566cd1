"""Squares64 (Widynski, arXiv:2004.06278), a counter-based generator in
wrapping uint64 arithmetic, for many streams at once.

Word j of stream `key` is squares64(j, key), five rounds of squaring:

    x = y = j * key;  z = y + key
    x = rot(x * x + y);  x = rot(x * x + z);  x = rot(x * x + y)
    t = x * x + z;  x = rot(t)
    word = t ^ ((x * x + y) >> 32)

all mod 2^64, where rot swaps the two 32-bit halves; `uniforms` maps a
word w to (w >> 11) * 2^-53 in [0, 1).

Keys.  Widynski asks for keys with an irregular bit pattern; the key
generator that comes with the paper builds each 32-bit half from 8
distinct nonzero hex digits.  `stream_keys` builds the key of stream
(seed, r) to the same rule, and odd as well, so that j -> j * key is a
bijection of the counters.  Each half is 8 draws without replacement, a
partial Fisher-Yates shuffle of a list of the 15 nonzero hex digits:

- mix is the SplitMix64 finaliser, g = mix(seed) and gamma =
  0x9E3779B97F4A7C15.  For i = 0, ..., 7, w_i = mix(g + (8 r + i + 1)
  gamma) is SplitMix64's output 8 r + i + 1 from state g, so no two
  streams of one seed share a state while r < 2^61.  Its high 32 bits
  a_i drive the upper half and its low 32 bits b_i the lower one.
- The upper half shuffles the list 1, 2, ..., 15: for i = 0, ..., 7 it
  swaps entries i and i + floor((15 - i) a_i / 2^32).
- The lower half shuffles the list 1, 3, ..., 15, 2, 4, ..., 14 with b_i
  the same way, except that at i = 0 the range is 8, not 15, so entry 0
  is an odd digit.
- Entry i of a shuffled list is hex digit i of its half, counted from
  the lowest, and the key is the upper half times 2^32 plus the lower.

There are 15!/7! * 8 * 14!/7! (about 2^55) keys of this form, so two
streams share a key only by chance, about n^2 / 2^56 for n streams.  A key
is a function of (seed, r) alone, so a stream does not depend on which
others are drawn.
"""

from __future__ import annotations

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_CHUNK = 8192  # words per pass of the rounds (and of the keys): bounds their working set
_U32 = np.uint64(32)
_U11 = np.uint64(11)
_LO32 = np.uint64(0xFFFFFFFF)
_NIBBLE = np.uint64(15)
# the upper and lower lists, entry i in bits 4i, ..., 4i + 3
_LISTS = np.array(
    [[sum(d << 4 * i for i, d in enumerate(digits))] for digits in (range(1, 16), [*range(1, 16, 2), *range(2, 15, 2)])],
    dtype=np.uint64,
)
# step i's range of swap partners for the (upper, lower) lists
_RANGES = [np.array([[15], [8]], dtype=np.uint64)] + [np.uint64(15 - i) for i in range(1, 8)]
_ENTRY = [np.uint64(4 * i) for i in range(8)]


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser of a uint64 array, in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def stream_keys(seed: int, reps) -> np.ndarray:
    """The Squares64 key of stream (seed, r) for each r of reps, as uint64,
    by the shuffles of the module docstring."""
    reps = np.asarray(reps, dtype=np.uint64)
    g = int(_mix(np.array([seed], dtype=np.uint64))[0])
    states = np.array([[(g + i * _GAMMA) & _MASK64] for i in range(1, 9)], dtype=np.uint64)
    keys = np.empty(reps.size, dtype=np.uint64)
    for a in range(0, reps.size, _CHUNK // 8):  # 8 SplitMix64 words a key
        b = a + _CHUNK // 8
        w = _mix(reps[a:b] * np.uint64(8 * _GAMMA & _MASK64) + states)  # row i is w_i
        draws = np.stack([w >> _U32, w & _LO32])  # the a_i, then the b_i
        lists = np.repeat(_LISTS, w.shape[1], axis=1)
        for i in range(8):
            partner = ((draws[:, i] * _RANGES[i] >> _U32) + np.uint64(i)) << np.uint64(2)
            swap = ((lists >> _ENTRY[i]) ^ (lists >> partner)) & _NIBBLE
            lists ^= swap << _ENTRY[i] | swap << partner
        keys[a:b] = lists[0] << _U32 | lists[1] & _LO32
    return keys


def _rot(x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """x with its two 32-bit halves swapped, written to out (which may be x)."""
    np.left_shift(x, _U32, tmp)
    np.right_shift(x, _U32, out)
    out |= tmp
    return out


def _squares(key: np.ndarray, ctr: np.ndarray, out: np.ndarray) -> None:
    """The five rounds on one chunk, written to out as doubles in [0, 1)."""
    y = ctr * key
    z = y + key
    x, tmp = np.multiply(y, y), np.empty_like(y)
    x += y
    for w in (z, y):  # rounds 2 and 3
        _rot(x, x, tmp)
        x *= x
        x += w
    _rot(x, x, tmp)
    x *= x
    x += z  # t
    last = _rot(x, np.empty_like(x), tmp)
    last *= last
    last += y
    last >>= _U32
    last ^= x
    last >>= _U11
    np.multiply(last, 2.0**-53, out)


def uniforms(keys, counters) -> np.ndarray:
    """The doubles of words `counters` of streams `keys`, elementwise over
    the two broadcast uint64 arrays: (squares64(j, key) >> 11) * 2^-53.
    An iterator walks them `_CHUNK` words at a time, copying neither whole."""
    ops = [np.asarray(keys, np.uint64), np.asarray(counters, np.uint64), None]
    with np.nditer(ops, ["external_loop", "buffered", "zerosize_ok"], [["readonly"]] * 2 + [["writeonly", "allocate"]],
                   op_dtypes=[None, None, np.float64], order="C", buffersize=_CHUNK) as it:
        for key, ctr, out in it:
            _squares(key, ctr, out)
        return it.operands[2]
