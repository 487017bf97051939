"""Checker reports pinned against a recorded golden.

Every statement checker runs in sample mode at q=4 and q=5 with a fixed
seed; the configurations, hypothesis hits, skipped count, violation
count and first witness must equal `sample_reports.json`.  The sampled
draws, their reduction to bounded ranges and every index a sweep reads
(touch points included) feed these numbers, so a change to any of them
shows here even where the verdict stays the same.

Every checker also runs in sample mode on the translation-oval plane of
order 8 (o(x) = x⁴), where most statements fail, so hit counts are pinned
beside violations.

At q=9 and q=13, the orders where the plane's ids come closest to the
int16 range they are stored in, every checker runs with 20,000 samples,
so a wrapped id shows in the counts and witnesses, not only in a verdict.

Every checker runs once more at q=7 with 140,000 samples, three blocks of
the sampling stream with the last one partial, so the mapping of stream
draws to the rows and columns of a block is pinned across block
boundaries.

The same golden pins exhaustive runs: every checker at q=3 and at q=4,
each with every recorded witness in order, so a change to the
enumeration order of an exhaustive generator shows as well.  Miquel and
Bundle hold at both orders, so there their configurations, hits and
`skipped` pin the closures' choice spaces and what their derived points
and pair tests decide.

Re-record (only when a report is meant to change):

    PYTHONPATH=src python tests/test_sample_reports.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from laguerre_lab.checks import CHECK_IDS, CHECKERS
from laguerre_lab.models import miquelian_plane, oval_plane, oval_table_power
from laguerre_lab.report import CheckMode

GOLDEN = Path(__file__).with_name("sample_reports.json")
ORDERS = (4, 5)
SEED = 2006
SAMPLES = 5000
LARGE_ORDERS = (9, 13)
LARGE_SAMPLES = 20_000
# q=7, seed 2006: more samples than two chunks of `checks._sweep`, each one block
ACROSS_BLOCKS = 140_000
EXHAUSTIVE = {3: CHECK_IDS, 4: CHECK_IDS}


def witness(v) -> dict:
    return {
        "kind": v.kind,
        "points": list(v.points),
        "circles": list(v.circles),
        "data": [list(d) for d in v.data],
    }


def summary(report) -> dict:
    return {
        "verdict": report.verdict,
        "configurations": report.configurations,
        "hypothesis_hits": report.hypothesis_hits,
        "skipped": report.skipped,
        "violations": report.violation_count,
        "first_witness": witness(report.violations[0]) if report.violations else None,
    }


def exhaustive_summary(report) -> dict:
    out = summary(report)
    del out["first_witness"]
    out["witnesses"] = [witness(v) for v in report.violations]
    return out


def record() -> dict:
    mode = CheckMode.sample(SAMPLES, SEED)
    out = {}
    for q in ORDERS:
        plane = miquelian_plane(q)
        for check_id in CHECK_IDS:
            out[f"{check_id}@q{q}"] = summary(CHECKERS[check_id].run(plane, mode))
    oval8 = oval_plane(8, oval_table_power(8, 4))
    for check_id in CHECK_IDS:
        out[f"{check_id}@oval8"] = summary(CHECKERS[check_id].run(oval8, mode))
    for q, check_ids in EXHAUSTIVE.items():
        plane = miquelian_plane(q)
        for check_id in check_ids:
            out[f"{check_id}@q{q}:exhaustive"] = exhaustive_summary(
                CHECKERS[check_id].run(plane, CheckMode.exhaustive()))
    plane = miquelian_plane(7)
    for check_id in CHECK_IDS:
        out[f"{check_id}@q7:blocks"] = summary(
            CHECKERS[check_id].run(plane, CheckMode.sample(ACROSS_BLOCKS, SEED)))
    for q in LARGE_ORDERS:
        plane = miquelian_plane(q)
        for check_id in CHECK_IDS:
            out[f"{check_id}@q{q}"] = summary(
                CHECKERS[check_id].run(plane, CheckMode.sample(LARGE_SAMPLES, SEED)))
    return out


@pytest.fixture(scope="module")
def recorded():
    return record()


def test_golden_covers_every_checker_and_order():
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(
        [f"{c}@q{q}" for q in ORDERS + LARGE_ORDERS for c in CHECK_IDS]
        + [f"{c}@oval8" for c in CHECK_IDS]
        + [f"{c}@q{q}:exhaustive" for q, ids in EXHAUSTIVE.items() for c in ids]
        + [f"{c}@q7:blocks" for c in CHECK_IDS])


@pytest.mark.parametrize("q", ORDERS + LARGE_ORDERS)
@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_sampled_report_matches_the_golden(recorded, check_id, q):
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    key = f"{check_id}@q{q}"
    assert recorded[key] == pinned[key]


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_sampled_oval8_report_matches_the_golden(recorded, check_id):
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    key = f"{check_id}@oval8"
    assert recorded[key] == pinned[key]


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_sampled_report_across_blocks_matches_the_golden(recorded, check_id):
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    key = f"{check_id}@q7:blocks"
    assert recorded[key] == pinned[key]


@pytest.mark.parametrize("q,check_id", [(q, c) for q, ids in EXHAUSTIVE.items() for c in ids])
def test_exhaustive_report_matches_the_golden(recorded, check_id, q):
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    key = f"{check_id}@q{q}:exhaustive"
    assert recorded[key] == pinned[key]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
