"""Blocks of the budget: `checks._sweep` cuts every exhaustive mode into
parts of max(1, `checks._SAMPLE_CHUNK` // r) first choices, r the most
evaluator rows one first choice makes (`family.rows`), and sweeps each
part's blocks, `family.blocks`.  So every
exhaustive block holds at most `_SAMPLE_CHUNK` evaluator rows, or exactly
one first choice, and every report must equal the report of the blocks
swept one first choice at a time (a budget of one row).  A part of the
base family is one block; a chain part is one window of circles, which
holds fewer than 2^15 groups (K, M) at every order, sliced into blocks of
groups of one size (`checks._ChainFirsts`); a C part is one broadcast
(K, slot of p, L) block (`checks._CFirsts`).

The budget is read off the blocks alone, with no evaluator run, so it is
held on every plane.  For the reports, a whole exhaustive run serves as
the comparison wherever it takes well under a second.  Elsewhere a view of
a few first choices runs in both forms (`HEAVY`).  Miquel and Bundle on x⁴
over GF(8) are left out of the reports: one first choice of theirs holds
more than the budget (Miquel 127,008 head rows of 9, Bundle 21,168 of 72),
and the whole sweep takes long.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from laguerre_lab import checks
from laguerre_lab.checks import CHECK_IDS, CHECKERS
from laguerre_lab.report import CheckMode
from test_block_references import GF8, _plane, sweep_parts
from test_relabelling import RELABELLED

EX = CheckMode.exhaustive()
CHAINS = ("S", "Prop22", "Cor21")
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


def _block_size(check_id, family, firsts, block) -> tuple[int, int]:
    """(evaluator rows, first choices) of an exhaustive block of `family`
    over the part `firsts`: a chain block's chains, the size its arrays
    broadcast to, and its circles K; C's broadcast (K, slot of p, L)
    entries and its circles K; a base family's block its rows, a closure's
    each taking every tail, and the part's first choices."""
    if check_id in CHAINS:
        *arrays, ranks = block
        return math.prod(np.broadcast_shapes(*(v.shape for v in arrays))), len(np.unique(arrays[0]))
    if check_id == "C":
        K, L, sp, counts = block
        return counts.size, K.size
    tail = math.prod(block[-1]) if check_id in ("Miquel", "Bundle") else 1
    return len(block[0]) * tail, len(firsts)


@pytest.mark.parametrize("budget", [1000, checks._SAMPLE_CHUNK // 2, checks._SAMPLE_CHUNK])
@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_evaluated_blocks_stay_within_the_budget(monkeypatch, check_id, budget):
    # the parts take every first choice once, in order.  A part of one
    # first choice makes blocks of that one alone, which may hold more
    # than the budget: its blocks are read at q=4 alone, where the chains
    # are counted
    monkeypatch.setattr(checks, "_SAMPLE_CHUNK", budget)
    for key in (3, 4, 5, 7, GF8):
        plane = _plane(key)
        family = CHECKERS[check_id].firsts(plane)
        parts = sweep_parts(family, EX)
        assert [f for firsts in parts for f in firsts] == list(range(family.n))
        chains = 0
        for firsts in parts:
            if len(firsts) == 1 and key != 4:
                continue
            blocks = list(family.blocks(firsts, checks._Rows()))
            assert len(blocks) == 1 or check_id in CHAINS
            for block in blocks:
                rows, taken = _block_size(check_id, family, firsts, block)
                assert rows <= budget or taken == 1, (key, rows, taken, budget)
                chains += rows
            if check_id == "C":
                ((K, L, sp, counts),) = blocks
                assert K.reshape(-1).tolist() == list(firsts)
                assert counts.shape == (len(firsts), plane.q + 1, plane.n_circles)
        if key == 4 and check_id in CHAINS:
            # the closed chains at q=4, those of Cor21, each once
            assert chains == 202_560


# the largest exhaustive block of C, Prop21 and Prop11 in evaluator rows,
# None where the family is empty (Prop11 at odd order): a part holds
# 65,536 // raw first choices of at most raw rows each, so C's blocks of
# (q+1)·n_c entries a circle hold 14 circles of 9·512 at q=8 and 8 of
# 10·729 at q=9, and Prop11's, which keeps every pair, 33 circles of
# 1,953.  Prop21 keeps the pairs above its base alone: its largest block
# is its first, 33 circles at q=8 and 20 at q=9
BLOCK_MAX = {(8, "C"): 64_512, (8, "Prop21"): 57_729, (8, "Prop11"): 64_449,
             (9, "C"): 58_320, (9, "Prop21"): 57_601, (9, "Prop11"): None,
             (GF8, "C"): 64_512, (GF8, "Prop21"): 57_729, (GF8, "Prop11"): 64_449}


@pytest.mark.parametrize("key, check_id", BLOCK_MAX)
def test_a_block_passes_the_budget_by_less_than_its_last_first_choice(key, check_id):
    # a part takes first choices of at most `raw` rows each (`family.rows`)
    # up to the budget, so no block passes it: it passes by less than its
    # last first choice's rows because it passes by none
    family = CHECKERS[check_id].firsts(_plane(key))
    sizes = []
    for firsts in sweep_parts(family, EX):
        for block in family.blocks(firsts, checks._Rows()):
            rows, taken = _block_size(check_id, family, firsts, block)
            assert rows <= min(checks._SAMPLE_CHUNK, taken * family.raw)
            sizes.append(rows)
    assert max(sizes, default=None) == BLOCK_MAX[key, check_id]
    if check_id != "Prop21":
        assert sum(sizes) == family.n * family.raw


@pytest.mark.parametrize("key", [2, 3, 4, 5, 7, 8, 9, 11, 13, GF8])
def test_a_chain_window_holds_fewer_than_2_15_groups(key):
    # a chain part is one window of circles K, each with one group (K, M)
    # per circle M, whose ids its int16 keys and its sort hold
    plane = _plane(key)
    parts = sweep_parts(checks._ChainFirsts(plane), EX)
    assert max(map(len, parts)) * plane.n_circles < 2 ** 15


def test_a_chain_window_of_2_15_groups_or_more_raises():
    # 96 of the 343 circles at q=7 make 32,928 groups
    family = checks._ChainFirsts(_plane(7))
    assert next(family.blocks(range(95), checks._Rows()))
    with pytest.raises(ValueError, match="2\\^15"):
        next(family.blocks(range(96), checks._Rows()))
