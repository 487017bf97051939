"""The chunked, threaded sweep: a sampled sweep's stream chunks run on
`checks._THREADS` threads and their reports merge in stream order, so a
report does not depend on the thread count, a failing chunk raises as it
would in a single-threaded sweep, and no thread outlives its sweep."""

from __future__ import annotations

import sys
import threading
import time
import tracemalloc

import pytest

from laguerre_lab import checks
from laguerre_lab.checks import CHECK_IDS, CHECKERS, _bundle_blocks, _eval_bundle, _sweep
from laguerre_lab.models import miquelian_plane, oval_plane, oval_table_power
from laguerre_lab.report import CheckMode, Violation
from laguerre_lab.symmetry import verify_pi_symmetry

PLANES = {"miquelian-5": lambda: miquelian_plane(5),
          "x^4-gf8": lambda: oval_plane(8, oval_table_power(8, 4))}


def _facts(plane, report):
    return (report.to_json(plane), report.hypothesis_hits, report.skipped,
            report.violation_count)


@pytest.mark.parametrize("name", PLANES)
@pytest.mark.parametrize("count", [1, checks._SAMPLE_CHUNK - 1, 2 * checks._SAMPLE_CHUNK + 5])
def test_reports_do_not_depend_on_the_thread_count(monkeypatch, name, count):
    plane = PLANES[name]()
    mode = CheckMode.sample(count, 17)
    runs = {}
    for threads in (1, 2):
        monkeypatch.setattr(checks, "_THREADS", threads)
        runs[threads] = [_facts(plane, CHECKERS[c].run(plane, mode)) for c in CHECK_IDS]
    assert runs[1] == runs[2]


def test_pi_symmetry_shares_its_symmetries_between_threads(monkeypatch):
    # many small chunks on more threads than cores, switching often: the
    # symmetries the threads build into one dict must not change a count
    plane = miquelian_plane(5)
    mode = CheckMode.sample(1500, 77)
    monkeypatch.setattr(checks, "_SAMPLE_CHUNK", 64)
    monkeypatch.setattr(checks, "_THREADS", 1)
    single = verify_pi_symmetry(plane, mode)
    monkeypatch.setattr(checks, "_THREADS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = verify_pi_symmetry(plane, mode)
    finally:
        sys.setswitchinterval(interval)
    assert (pooled.configurations, pooled.hypothesis_hits, pooled.skipped) == (1500, 321, 0)
    assert _facts(plane, pooled) == _facts(plane, single)


def _chunk_blocks(plane, mode):
    # one block per chunk view, holding the index of its chunk
    yield mode.count, mode.start // checks._SAMPLE_CHUNK


def _failing_evaluator(plane, report, chunk):
    if chunk == 1:
        time.sleep(0.05)    # let chunk 3 fail first in time
    if chunk in (1, 3):
        raise ValueError(f"chunk {chunk}")
    report.hypothesis_hits += 1


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_the_first_failing_chunk_in_stream_order_raises(monkeypatch, threads):
    monkeypatch.setattr(checks, "_SAMPLE_CHUNK", 8)
    monkeypatch.setattr(checks, "_THREADS", threads)
    plane, mode = miquelian_plane(3), CheckMode.sample(8 * 6, 1)
    before = threading.active_count()
    with pytest.raises(ValueError, match="chunk 1"):
        _sweep(plane, mode, "T", _chunk_blocks, _failing_evaluator)
    assert threading.active_count() == before
    report = _sweep(plane, mode, "T", _chunk_blocks, _chunk_witness)
    assert report.configurations == 48
    assert [dict(v.data)["chunk"] for v in report.violations] == list(range(6))
    assert threading.active_count() == before


def _chunk_witness(plane, report, chunk):
    report.add_violation(Violation("chunk", data=(("chunk", chunk),)))


def test_at_most_two_threads_run_a_sweep():
    assert 1 <= checks._THREADS <= 2


def _peak_bytes(plane, mode) -> int:
    tracemalloc.start()
    try:
        _sweep(plane, mode, "Bundle", _bundle_blocks, _eval_bundle)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rows_in_flight_stay_at_one_65536_row_chunk(monkeypatch):
    # the pooled sweep holds _THREADS chunks of _SAMPLE_CHUNK rows at once:
    # no more than the single-threaded sweep of 65,536-row chunks
    plane, mode = miquelian_plane(9), CheckMode.sample(4 * 65536, 3)
    monkeypatch.setattr(checks, "_THREADS", 2)
    pooled = _peak_bytes(plane, mode)
    monkeypatch.setattr(checks, "_THREADS", 1)
    monkeypatch.setattr(checks, "_SAMPLE_CHUNK", 1 << 16)
    single = _peak_bytes(plane, mode)
    assert pooled <= single * 1.10, (pooled, single)
