"""Sampled checker reports pinned against a recorded golden.

Every statement checker runs in sample mode at q=4 and q=5 with a fixed
seed; the configurations, hypothesis hits, skipped count, violation
count and first witness must equal `sample_reports.json`.  The sampled
draws, their reduction to bounded ranges and every index a sweep reads
(touch points included) feed these numbers, so a change to any of them
shows here even where the verdict stays the same.

Re-record (only when a report is meant to change):

    PYTHONPATH=src python tests/test_sample_reports.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from laguerre_lab.checks import CHECK_IDS, CHECKERS
from laguerre_lab.models import miquelian_plane
from laguerre_lab.report import CheckMode

GOLDEN = Path(__file__).with_name("sample_reports.json")
ORDERS = (4, 5)
SEED = 2006
SAMPLES = 5000


def summary(report) -> dict:
    first = report.violations[0] if report.violations else None
    return {
        "verdict": report.verdict,
        "configurations": report.configurations,
        "hypothesis_hits": report.hypothesis_hits,
        "skipped": report.skipped,
        "violations": report.violation_count,
        "first_witness": None if first is None else {
            "kind": first.kind,
            "points": list(first.points),
            "circles": list(first.circles),
            "data": [list(d) for d in first.data],
        },
    }


def record() -> dict:
    mode = CheckMode.sample(SAMPLES, SEED)
    out = {}
    for q in ORDERS:
        plane = miquelian_plane(q)
        for check_id in CHECK_IDS:
            out[f"{check_id}@q{q}"] = summary(CHECKERS[check_id].run(plane, mode))
    return out


@pytest.fixture(scope="module")
def recorded():
    return record()


def test_golden_covers_every_checker_and_order():
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(f"{c}@q{q}" for q in ORDERS for c in CHECK_IDS)


@pytest.mark.parametrize("q", ORDERS)
@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_sampled_report_matches_the_golden(recorded, check_id, q):
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    key = f"{check_id}@q{q}"
    assert recorded[key] == pinned[key]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
