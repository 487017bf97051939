"""Merged exhaustive blocks: `checks._sweep` merges the consecutive blocks
of one part into blocks of at most `checks._SAMPLE_CHUNK` rows
(`checks._coalesce`), and the chain and Pi families build blocks of that
size over consecutive first choices (`checks._range_blocks`).  Every report must equal the report of the blocks
as their generator yields them, one at a time, and no merged block may
hold more rows than the budget unless one generator block already did.

A whole exhaustive run serves as the comparison wherever it takes well
under a second.  Elsewhere a view of a few first choices runs in both
forms (`HEAVY`).  Miquel and Bundle on x⁴ over GF(8) are left out: every
one of their blocks holds more than the budget (Miquel 127,008 head rows
of 9, Bundle 21,168 of 72), so each reaches the evaluator as it is
(`test_a_lone_over_budget_block_reaches_the_evaluator_uncopied`), while
one first choice of theirs takes about 1 and 3 s.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from laguerre_lab import checks
from laguerre_lab.checks import CHECK_IDS, CHECKERS, _sweep
from laguerre_lab.models import miquelian_plane
from laguerre_lab.report import CheckMode
from laguerre_lab.symmetry import verify_pi_symmetry
from test_block_references import GF8, _plane
from test_relabelling import RELABELLED

EX = CheckMode.exhaustive()
RUNS = {**{c: CHECKERS[c].run for c in CHECK_IDS}, "PiSymmetry": verify_pi_symmetry}
# (order, check id): the number of first choices of the view that runs in
# place of a whole exhaustive run of a second or more
HEAVY = {(5, "Miquel"): 2, (5, "Bundle"): 1, (5, "PiSymmetry"): 2,
         **{(8, c): 3 for c in ("S", "Prop22", "Cor21", "Pi", "PiPrime", "Thm23")}}


def _facts(plane, report):
    return (report.to_json(plane), report.configurations, report.hypothesis_hits,
            report.skipped, report.violation_count, report.violations)


@pytest.mark.parametrize("key, check_id", [
    (key, c) for key in (3, 4, 5, RELABELLED, GF8) for c in RUNS
    if not (key == GF8 and c in ("Miquel", "Bundle"))])
def test_coalesced_reports_match_block_by_block(monkeypatch, key, check_id):
    plane = _plane(key)
    count = HEAVY.get((plane.q, check_id))
    mode = EX if count is None else CheckMode("exhaustive", start=1, count=count)
    coalesced = RUNS[check_id](plane, mode)
    monkeypatch.setattr(checks, "_coalesce", lambda blocks: blocks)
    assert _facts(plane, coalesced) == _facts(plane, RUNS[check_id](plane, mode))


def _rows(block) -> int | None:
    """The rows an evaluator makes of a block: its head rows times the
    tail's index tuples; None for a block without row arrays."""
    first, last = block[1], block[-1]
    if not isinstance(first, np.ndarray):
        return None
    return len(first) * (math.prod(last) if isinstance(last, tuple) else 1)


def _recorded(monkeypatch) -> list:
    """(generator blocks, evaluated blocks, range blocks or not) of every
    sweep part from now on.  The range blocks of the chain and Pi families
    reach the evaluator as they are built, each copied as it passes: the
    next one overwrites its arrays."""
    seen = []
    coalesce, range_blocks = checks._coalesce, checks._range_blocks

    def recording(blocks):
        given, got = list(blocks), []
        seen.append((given, got, False))
        for block in coalesce(iter(given)):
            got.append(block)
            yield block

    def recording_ranges(family, mode, rows):
        got = []
        seen.append((got, got, True))
        for block in range_blocks(family, mode, rows):
            got.append((block[0], *(np.array(v) for v in block[1:])))
            yield block

    monkeypatch.setattr(checks, "_coalesce", recording)
    monkeypatch.setattr(checks, "_range_blocks", recording_ranges)
    return seen


@pytest.mark.parametrize("budget", [1000, checks._SAMPLE_CHUNK // 2, checks._SAMPLE_CHUNK])
@pytest.mark.parametrize("check_id", RUNS)
def test_evaluated_blocks_stay_within_the_budget(monkeypatch, check_id, budget):
    monkeypatch.setattr(checks, "_SAMPLE_CHUNK", budget)
    seen = _recorded(monkeypatch)
    RUNS[check_id](miquelian_plane(3 if check_id == "PiSymmetry" else 4), EX)
    assert seen
    for given, got, ranged in seen:
        assert sum(b[0] for b in got) == sum(b[0] for b in given)
        rows = [_rows(b) for b in got]
        if rows[0] is None:             # C: one circle per block, as yielded
            assert all(g is b for g, b in zip(got, given)) and len(got) == len(given)
            continue
        for block, n in zip(got, rows):
            # over budget: one generator block, or a range block of one first
            # choice (the circle K or the point a of its first array)
            assert n <= budget or (len(np.unique(block[1])) == 1 if ranged else
                                   any(block is b for b in given)), (n, budget)
        # merged greedily: no two neighbours would fit in one block
        assert all(m + n > budget for m, n in zip(rows, rows[1:]))
        # the same rows in the same order, every array of the same dtype
        for i, col in enumerate(zip(*(b[1:] for b in given)), start=1):
            if isinstance(col[0], np.ndarray):
                merged = np.concatenate([b[i] for b in got])
                assert merged.dtype == col[0].dtype
                np.testing.assert_array_equal(merged, np.concatenate(col))
            else:                       # a closure's tail, shared by every block
                assert all(b[i] == col[0] for b in got)


def test_a_lone_over_budget_block_reaches_the_evaluator_uncopied(monkeypatch):
    monkeypatch.setattr(checks, "_SAMPLE_CHUNK", 10)

    def block(raw, n, tail=None):
        arrays = (np.arange(n), np.arange(n, 2 * n, dtype=np.int16))
        return (raw, *arrays) if tail is None else (raw, *arrays, tail)

    rows = [block(1, 3), block(2, 4), block(3, 25), block(4, 2), block(5, 9)]
    heads = [block(6, 2, (2,)), block(7, 3, (2,)), block(8, 1, (2,)), block(9, 6, (2,))]
    got = []

    def run(blocks):
        got.clear()
        report = _sweep(miquelian_plane(3), EX, "T", lambda plane, mode: iter(blocks),
                        lambda plane, report, *arrays: got.append(arrays))
        return report.configurations

    assert run(rows) == 15
    assert [len(a[0]) for a in got] == [7, 25, 2, 9]
    for i, j in ((1, 2), (2, 3), (3, 4)):
        assert all(g is b for g, b in zip(got[i], rows[j][1:]))
    np.testing.assert_array_equal(got[0][1], [3, 4, 5, 4, 5, 6, 7])
    assert got[0][1].dtype == np.int16
    # a closure head counts as its tail's rows: 2·2 + 3·2 fit in ten rows
    assert run(heads) == 30
    assert [(len(a[0]), a[-1]) for a in got] == [(5, (2,)), (1, (2,)), (6, (2,))]
    assert all(g is b for g, b in zip(got[2], heads[3][1:]))


def test_c_blocks_arrive_one_circle_at_a_time(monkeypatch):
    seen = []
    evaluate = checks._eval_c_exhaustive

    def recording(plane, report, *block):
        seen.append(block)
        evaluate(plane, report, *block)

    monkeypatch.setattr(checks, "_eval_c_exhaustive", recording)
    plane = miquelian_plane(4)
    report = CHECKERS["C"].run(plane, EX)
    assert seen == [(K,) for K in range(plane.n_circles)]
    assert report.configurations == plane.n_circles * plane.n_circles * (plane.q + 1)
