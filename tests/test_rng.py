"""The documented sampling stream: reference recurrence, vectorization,
and replay determinism."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from laguerre_lab import rng
from laguerre_lab.checks import _SAMPLE_CHUNK, _draws
from laguerre_lab.report import CheckMode
from laguerre_lab.rng import bounded, draw_block, splitmix64

MASK = (1 << 64) - 1


def reference_draw(seed: int, index: int) -> int:
    """Direct transliteration of the documented recurrence."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_matches_reference_recurrence():
    for seed in (0, 1, 42, 2**63 + 11):
        for index in (0, 1, 2, 999, 10**6):
            assert splitmix64(seed, index) == reference_draw(seed, index)


def test_frozen_regression_values():
    # pinned outputs so a change to the stream cannot slip through silently
    assert splitmix64(0, 0) == 16294208416658607535
    assert splitmix64(42, 0) == 13679457532755275413
    assert splitmix64(42, 1) == 2949826092126892291
    assert splitmix64(2024, 9) == 7874116809064317745


def test_vectorized_block_matches_scalar():
    block = draw_block(42, 5, 100)
    assert block.dtype == np.uint64
    for i, v in enumerate(block):
        assert int(v) == splitmix64(42, 5 + i)


def test_bounded_range_and_determinism():
    raw = draw_block(7, 0, 10000)
    vals = bounded(raw, 125)
    assert vals.min() >= 0 and vals.max() < 125
    assert (vals == bounded(draw_block(7, 0, 10000), 125)).all()


@pytest.mark.parametrize("n", [1, 2, 3, 14, 2197, 2**15])
def test_bounded_is_the_remainder(n):
    # int16, as every id and slot of a plane is
    raw = np.array([0, 1, 2**63, MASK], dtype=np.uint64)
    got = bounded(raw, n)
    assert got.dtype == np.int16
    assert got.tolist() == [v % n for v in (0, 1, 2**63, MASK)]


@pytest.mark.parametrize("seed", [0, MASK])
@pytest.mark.parametrize("k", [3, 7, 11])
def test_sample_batches_map_rows_to_the_stream(seed, k):
    # choice j of sample row r is draw r·k + j, on both sides of a chunk
    # boundary, for a chunk view's rows and for a subset of them
    mode = CheckMode.sample(_SAMPLE_CHUNK + 5, seed)
    blocks = [_draws(replace(mode, start=s, count=min(_SAMPLE_CHUNK, mode.count - s)), k)
              for s in (0, _SAMPLE_CHUNK)]
    assert [b.shape for b in blocks] == [(k, _SAMPLE_CHUNK), (k, 5)]
    cols = [[b[j] for j in range(k)] for b in blocks]
    assert all(col.dtype == np.uint64 and col.shape == (b.shape[1],)
               for b, bc in zip(blocks, cols) for col in bc)
    rows = {0, 1, _SAMPLE_CHUNK - 1, _SAMPLE_CHUNK, _SAMPLE_CHUNK + 1, _SAMPLE_CHUNK + 4}
    for r in sorted(rows):
        block, row = divmod(r, _SAMPLE_CHUNK)
        assert [int(cols[block][j][row]) for j in range(k)] == [
            splitmix64(seed, r * k + j) for j in range(k)]
    # a row subset, and a subset of it, read the same draws as the rows
    keep = np.array([0, 2, _SAMPLE_CHUNK // 3, _SAMPLE_CHUNK - 1])
    sub = blocks[0][:, keep]
    assert sub.shape == (k, len(keep))
    for j in range(k):
        assert np.array_equal(sub[j], cols[0][j][keep])
        assert sub[:, [3, 1]][j].tolist() == [splitmix64(seed, r * k + j)
                                              for r in (_SAMPLE_CHUNK - 1, 2)]
    tail = blocks[1][:, np.array([4, 0])]
    assert [int(v) for v in tail[k - 1]] == [
        splitmix64(seed, r * k + k - 1) for r in (_SAMPLE_CHUNK + 4, _SAMPLE_CHUNK)]
    # a chunk view starting at row s holds the rows s.. of the whole stream
    whole = [np.concatenate([bc[j] for bc in cols]) for j in range(k)]
    for s in (1, _SAMPLE_CHUNK // k, _SAMPLE_CHUNK - 1, _SAMPLE_CHUNK):
        block = _draws(replace(mode, start=s, count=5), k)
        assert all(np.array_equal(block[j], whole[j][s:s + 5]) for j in range(k))


@pytest.mark.parametrize("start, count, step", [
    (0, 10, 1), (5, 100, 7), (2**40, 3, 11), (0, 0, 1), (9, 1, 3),
    # longer than a chunk's 2^16 offsets, so the next lattice is built and read
    (2**40 - 5, 2**16 + 3, 7), (2**40 + 1, 2**16 + 3, 11)])
def test_strided_and_indexed_blocks_match_scalar(start, count, step):
    # a range's counters come from the offsets of `rng._lattice`: indexes
    # past 2^32 and seeds whose additions wrap mod 2^64 give the scalar
    # stream's draws
    indexes = [start + i * step for i in range(count)]
    for seed in (42, 0, 2**63, MASK):
        want = [splitmix64(seed, i) for i in indexes]
        assert draw_block(seed, start, count, step).tolist() == want


@pytest.mark.parametrize("start, step", [(0, 1), (3, 7), (2**40 + 1, 11)])
def test_row_number_blocks_match_scalar(start, step):
    # the row numbers i of a kept view, on both sides of a chunk boundary,
    # take the draws start + i·step, whatever the ints' width
    rows = [0, 1, 2, _SAMPLE_CHUNK - 1, _SAMPLE_CHUNK, _SAMPLE_CHUNK + 1, 2 * _SAMPLE_CHUNK + 5]
    for seed in (42, 0, MASK):
        want = [splitmix64(seed, start + i * step) for i in rows]
        for dtype in (np.intp, np.int32):
            got = draw_block(seed, start, np.array(rows, dtype=dtype), step)
            assert got.dtype == np.uint64 and got.tolist() == want
        assert draw_block(seed, start, np.array(rows[:3], dtype=np.int16), step).tolist() == want[:3]


def test_the_lattice_is_read_only_and_made_by_range_draws_alone():
    # an exhaustive sweep and a row-number draw make no lattice, so a
    # process that draws no range holds none; a range of 2^16 draws makes one
    code = ("import numpy as np\n"
            "from laguerre_lab import rng\n"
            "from laguerre_lab.checks import check_S\n"
            "from laguerre_lab.models import miquelian_plane\n"
            "from laguerre_lab.report import CheckMode\n"
            "check_S(miquelian_plane(3), CheckMode.exhaustive())\n"
            "rng.draw_block(1, 0, np.array([3, 4]))\n"
            "print(rng._lattice.cache_info().currsize)\n"
            "rng.draw_block(1, 0, 1 << 16)\n"
            "print(rng._lattice.cache_info().currsize)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    assert proc.stdout.split() == ["0", "1"]
    lattice = rng._lattice(4)
    assert lattice.dtype == np.uint64 and lattice.tolist() == list(range(16))
    assert not lattice.flags.writeable


def test_sample_stream_replays():
    assert draw_block(99, 0, 30).tolist() == draw_block(99, 0, 30).tolist()
    # the stream is index-addressable: a range restarted mid-way is the tail
    assert draw_block(99, 25, 5).tolist() == draw_block(99, 0, 30)[25:].tolist()
    assert draw_block(99, 25, 5).tolist() == [splitmix64(99, 25 + i) for i in range(5)]
