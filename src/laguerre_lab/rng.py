"""Deterministic 64-bit sampling stream: every seeded draw of the package.

The generator is the splitmix64 finalizer applied to a counter:

    draw(seed, i) = mix64((seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64)

    mix64(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
              z ^= z >> 27; z *= 0x94D049BB133111EB;
              z ^= z >> 31      (all mod 2^64)

Being a pure function of (seed, index) it replays identically for equal
seeds, can be evaluated for any index range independently (associative
work splitting: `checks._sweep` runs a sampled sweep's stream chunks on
two threads, each chunk drawing its own rows), and is trivial to
reimplement in any language.  There is one stream and one way to read
it: `draw_block` draws a range of indexes, or the indexes of given row
numbers, and `bounded` reduces draws by plain modulo, which is
documented and close enough to uniform for the ranges used here, into
int16: every range is at most 2^15, the plane's int16 id limit.  A
sampled checker that makes k choices per sample row takes choice j of
row r from draw r·k + j (see `checks._draws`), whichever rows
it draws that choice for: all of a chunk's rows are the indexes of one
`draw_block` with step k, a subset of them the same call with an array
of the kept row numbers in place of the count.
`symmetry.sample_nontangent_pairs` reads the stream's words in order.

The counter words are affine in the index, so `draw_block` forms them in
one multiply and one add mod 2^64: draws at start + i·step have the
counters i·(step·G) + (seed + (start + 1)·G), with i read from a
read-only uint64 `arange` (`_lattice`, one per power-of-two length, made
on first use, so a process that draws no range holds none) or from the
array of row numbers given.
"""

from __future__ import annotations

from functools import cache

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
MASK = (1 << 64) - 1


def splitmix64(seed: int, index: int) -> int:
    """The index-th raw 64-bit draw of the stream started at `seed`."""
    z = (seed + (index + 1) * GOLDEN) & MASK
    z = ((z ^ (z >> 30)) * MIX1) & MASK
    z = ((z ^ (z >> 27)) * MIX2) & MASK
    return z ^ (z >> 31)


@cache
def _lattice(bits: int) -> np.ndarray:
    """The read-only uint64 `arange` of length 2^bits, whose prefixes are
    the offsets i of `draw_block`'s ranges; made on first use."""
    lattice = np.arange(1 << bits, dtype=np.uint64)
    lattice.flags.writeable = False
    return lattice


def draw_block(seed: int, start: int, count, step: int = 1) -> np.ndarray:
    """Vectorized draws (uint64) for the stream indexes start + i·step,
    i < count, or i in `count` where it is an array of non-negative ints.

    The counters take one multiply and one add (int64 row numbers, never
    negative, are read as uint64 in place; other ints are cast first), and
    the mix runs in place on them with one scratch array for the shifted
    words: a call allocates two uint64 arrays of the draws' length, and a
    process's first range of its power-of-two length also that lattice
    (512 KB for a 65,536-row chunk)."""
    if np.ndim(count) == 0:
        i = _lattice(max(int(count) - 1, 0).bit_length())[:count]
    else:
        i = np.asarray(count, dtype=np.int64).view(np.uint64)
    z = i * np.uint64(step * GOLDEN & MASK)
    z += np.uint64((seed + (start + 1) * GOLDEN) & MASK)
    t = np.empty_like(z)
    for shift, mult in ((30, MIX1), (27, MIX2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def bounded(raw: np.ndarray, n: int) -> np.ndarray:
    """Reduce raw 64-bit draws to the range [0, n), n ≤ 2^15, by modulo,
    into int16.

    The remainder is taken as raw − (raw // n)·n, the same values as
    `raw % n`, in uint16 arithmetic: the quotient is written straight into
    that width, and every step wraps mod 2^16, exactly since the remainder
    fits.  numpy divides by a scalar several times faster than it takes a
    remainder."""
    r = np.empty(raw.shape, dtype=np.uint16)
    np.floor_divide(raw, np.uint64(n), out=r, casting="unsafe")
    r *= np.uint16(n)
    np.subtract(raw.astype(np.uint16, copy=False), r, out=r)
    return r.view(np.int16)
