"""Blocks of the budget: every exhaustive sweep reads its blocks from a
family of first choices through `checks._range_blocks`, which fills a
block with consecutive first choices up to `checks._SAMPLE_CHUNK`
evaluator rows.  Every report must equal the report of the blocks swept
one first choice at a time (a budget of one row).  A block closes once
one more first choice of its last one's rows would pass the budget, so
it passes the budget by less than the rows of its last first choice,
and at q=4 not at all unless it holds a single first choice.  The chain
family makes its own blocks, each of at most a budget of chains or one
group of circles (`checks._ChainFirsts`).

A whole exhaustive run serves as the comparison wherever it takes well
under a second.  Elsewhere a view of a few first choices runs in both
forms (`HEAVY`).  Miquel and Bundle on x⁴ over GF(8) are left out: one
first choice of theirs holds more than the budget (Miquel 127,008 head rows
of 9, Bundle 21,168 of 72), and the whole sweep takes long.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from laguerre_lab import checks
from laguerre_lab.checks import CHECK_IDS, CHECKERS
from laguerre_lab.models import miquelian_plane
from laguerre_lab.report import CheckMode
from test_block_references import GF8, _plane
from test_relabelling import RELABELLED

EX = CheckMode.exhaustive()
# (order, check id): the number of first choices of the view that runs in
# place of a whole exhaustive run of a second or more; a closure's first
# choice is a circle C1 and one of q pencil selectors
HEAVY = {(5, "Miquel"): 10, (5, "Bundle"): 5,
         **{(8, c): 3 for c in ("S", "Prop22", "Cor21", "Pi", "PiPrime", "Thm23")}}


def _facts(plane, report):
    return (report.to_json(plane), report.configurations, report.hypothesis_hits,
            report.skipped, report.violation_count, report.violations)


@pytest.mark.parametrize("key, check_id", [
    (key, c) for key in (3, 4, 5, RELABELLED, GF8) for c in CHECK_IDS
    if not (key == GF8 and c in ("Miquel", "Bundle"))])
def test_coalesced_reports_match_block_by_block(monkeypatch, key, check_id):
    plane = _plane(key)
    count = HEAVY.get((plane.q, check_id))
    mode = EX if count is None else CheckMode("exhaustive", start=1, count=count)
    coalesced = _facts(plane, CHECKERS[check_id].run(plane, mode))
    for budget in (1, 1000):
        monkeypatch.setattr(checks, "_SAMPLE_CHUNK", budget)
        assert _facts(plane, CHECKERS[check_id].run(plane, mode)) == coalesced, budget


class _Counted:
    """A family that records the rows each of its first choices writes."""

    def __init__(self, family):
        self.family, self.written = family, []

    def __getattr__(self, name):
        return getattr(self.family, name)

    def write(self, f, rows, o):
        self.written.append(self.family.write(f, rows, o))
        return self.written[-1]


def _recorded(monkeypatch) -> list:
    """Per sweep part from now on, its family and its range blocks, each
    with the rows of each of its first choices and its arrays copied as
    it passes: the next block overwrites them."""
    seen = []
    range_blocks = checks._range_blocks

    def recording(family, mode, rows):
        counted, blocks = _Counted(family), []
        seen.append((family, blocks))
        for block in range_blocks(counted, mode, rows):
            blocks.append((tuple(np.array(v) if isinstance(v, np.ndarray) else v
                                 for v in block), counted.written[:]))
            counted.written.clear()
            yield block

    monkeypatch.setattr(checks, "_range_blocks", recording)
    return seen


def _chain_blocks_stay_within(monkeypatch, check_id, budget):
    """A chain block holds at most `budget` chains, or one group, over one
    size of groups; the blocks hold every closed chain once."""
    seen = []
    range_blocks = checks._range_blocks

    def recording(family, mode, rows):
        for block in range_blocks(family, mode, rows):
            *arrays, ranks = block
            seen.append((np.broadcast_shapes(*(v.shape for v in arrays)), arrays[0].size))
            yield block

    monkeypatch.setattr(checks, "_range_blocks", recording)
    report = CHECKERS[check_id].run(miquelian_plane(4), EX)
    family = CHECKERS[check_id].firsts(miquelian_plane(4))
    assert report.configurations == family.n * family.raw
    for shape, groups in seen:
        # (L, N, group) or (group, L, N)
        assert shape in ((shape[1], shape[1], groups), (groups, shape[1], shape[1]))
        assert math.prod(shape) <= budget or groups == 1, (shape, budget)
    # the closed chains at q=4, those of Cor21
    assert sum(math.prod(shape) for shape, _ in seen) == 202_560


@pytest.mark.parametrize("budget", [1000, checks._SAMPLE_CHUNK // 2, checks._SAMPLE_CHUNK])
@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_evaluated_blocks_stay_within_the_budget(monkeypatch, check_id, budget):
    monkeypatch.setattr(checks, "_SAMPLE_CHUNK", budget)
    if check_id in ("S", "Prop22", "Cor21"):
        return _chain_blocks_stay_within(monkeypatch, check_id, budget)
    seen = _recorded(monkeypatch)
    report = CHECKERS[check_id].run(miquelian_plane(4), EX)
    # the blocks take each first choice once, and the sweep counts the raw
    # configurations of each
    assert sum(len(written) * family.raw for family, blocks in seen
               for _, written in blocks) == report.configurations > 0
    for family, blocks in seen:
        for i, (arrays, written) in enumerate(blocks):
            k = len(family.names)
            assert {len(v) for v in arrays[:k]} == {len(arrays[0])} == {sum(written)}
            assert tuple(arrays[k:]) == family.extra
            # over budget: a block of one first choice
            rows = len(arrays[0]) * family.weight
            assert rows <= budget or len(written) == 1, (rows, budget)
            # closed where one more first choice like its last would pass
            # the budget, or at the end of its part
            assert i + 1 == len(blocks) or (sum(written) + written[-1]) * family.weight > budget


# the largest block of C, Prop21 and Prop11 in evaluator rows, None where
# the family is empty (Prop11 at odd order); C's first choices take one row
BLOCK_MAX = {(8, "C"): 512, (8, "Prop21"): 65_391, (8, "Prop11"): 64_449,
             (9, "C"): 729, (9, "Prop21"): 65_550, (9, "Prop11"): None,
             (GF8, "C"): 512, (GF8, "Prop21"): 65_391, (GF8, "Prop11"): 64_449}


@pytest.mark.parametrize("key, check_id", BLOCK_MAX)
def test_a_block_passes_the_budget_by_less_than_its_last_first_choice(key, check_id):
    # the rows above a circle vary with the ids of its tangent circles, so a
    # first choice after a smaller one can take its block past the budget:
    # at q=9 one Prop21 block holds 88 circles and 65,550 rows
    family = CHECKERS[check_id].firsts(_plane(key))
    counted, sizes, taken = _Counted(family), [], 0
    for arrays in checks._range_blocks(counted, EX, checks._Rows()):
        written = counted.written[:]
        counted.written.clear()
        sizes.append(len(arrays[0]) * family.weight)
        taken += len(written)
        # open when its last first choice came: one more like the one
        # before it still fitted
        assert len(written) == 1 or (
            sum(written[:-1]) + written[-2]) * family.weight <= checks._SAMPLE_CHUNK
    assert taken == family.n
    assert max(sizes, default=None) == BLOCK_MAX[key, check_id]
