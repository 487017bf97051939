"""The chunked, threaded sweep: a sampled sweep's stream chunks, and an
exhaustive chain or Pi-family sweep's ranges of first choices, run on
`checks._THREADS` threads and their reports merge in order, so a report
does not depend on the thread count, a failing chunk raises as it would in
a single-threaded sweep, and no thread outlives its sweep.  Every
exhaustive sweep reads its blocks from `checks._range_blocks` alone, built
on row buffers that each thread reuses (`checks._Rows`) or, for the chains,
from windows of circles (`checks._ChainFirsts`), so a report must not
depend on which blocks shared them either."""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from laguerre_lab import checks
from laguerre_lab.checks import CHECK_IDS, CHECKERS, _gather, _sweep, exhaustive_size
from laguerre_lab.models import miquelian_plane, oval_plane, oval_table_power
from laguerre_lab.plane import meet_count
from laguerre_lab.report import CheckMode, CheckReport, Violation
from laguerre_lab.rng import draw_block

PLANES = {"miquelian-5": lambda: miquelian_plane(5),
          "x^4-gf8": functools.cache(lambda: oval_plane(8, oval_table_power(8, 4)))}
PI_FAMILY = ("Pi", "PiPrime", "Thm23")
EX = CheckMode.exhaustive()
SPLIT = ("S", "Prop22", "Cor21", *PI_FAMILY)


def _facts(plane, report):
    return (report.to_json(plane), report.hypothesis_hits, report.skipped,
            report.violation_count)


@pytest.mark.parametrize("name", PLANES)
# one row, part of one chunk, and one chunk and five rows: two parts
@pytest.mark.parametrize("count", [1, checks._SAMPLE_CHUNK // 2 - 1, checks._SAMPLE_CHUNK + 5])
def test_reports_do_not_depend_on_the_thread_count(monkeypatch, name, count):
    plane = PLANES[name]()
    mode = CheckMode.sample(count, 17)
    runs = {}
    for threads in (1, 2):
        monkeypatch.setattr(checks, "_THREADS", threads)
        runs[threads] = [_facts(plane, CHECKERS[c].run(plane, mode)) for c in CHECK_IDS]
    assert runs[1] == runs[2]


@pytest.mark.parametrize("name", PLANES)
def test_reports_do_not_depend_on_the_chunk_size(monkeypatch, name):
    # 70,001 rows, a multiple of no chunk size and more than one 65,536-row
    # chunk
    plane = PLANES[name]()
    mode = CheckMode.sample(70_001, 23)
    runs = {}
    for chunk in (64, 1000, 1 << 15, 1 << 16):
        monkeypatch.setattr(checks, "_SAMPLE_CHUNK", chunk)
        runs[chunk] = [_facts(plane, CHECKERS[c].run(plane, mode)) for c in CHECK_IDS]
    assert all(run == runs[1 << 16] for run in runs.values())


def _draws_per_row(monkeypatch, plane, check_id, rows) -> float:
    """The stream draws a sampled sweep makes per row, counted through the
    name `checks.draw_block` that every sampled draw goes through."""
    drawn = []

    def counted(*args, **kwargs):
        raw = draw_block(*args, **kwargs)
        drawn.append(raw.size)
        return raw

    with monkeypatch.context() as m:
        m.setattr(checks, "draw_block", counted)
        CHECKERS[check_id].run(plane, CheckMode.sample(rows, 5))
    return sum(drawn) / rows


def test_sampled_sweeps_draw_only_the_columns_their_rows_read(monkeypatch):
    # Prop22 draws K and the choices of L, b, M and N for its c ∥ a rows
    # alone (1 in 14 at q=13); Miquel and Bundle draw the slots on C2 for
    # the rows whose four slots on C1 are distinct (62.5% at q=13), C1, C2
    # or C5 and their tail for the rows whose slots pass the filter, and
    # their f and h slots only where the completed point is not unique
    # (6.52 and 6.83 draws a row; 7.27 and 7.20 when the slots on C2 are
    # drawn for every row); S reads every choice of every row
    plane, rows = miquelian_plane(13), 3 * (1 << 16) + 7
    assert _draws_per_row(monkeypatch, plane, "Prop22", rows) < 3
    assert _draws_per_row(monkeypatch, plane, "Miquel", rows) < 6.6
    assert _draws_per_row(monkeypatch, plane, "Bundle", rows) < 6.9
    assert _draws_per_row(monkeypatch, plane, "S", rows) == 7


def test_pi_symmetry_does_not_depend_on_the_thread_count(monkeypatch):
    # Pi's report, the symmetry statement (`check_pi`), from many small
    # chunks on more threads than cores, switching often
    plane = miquelian_plane(5)
    mode = CheckMode.sample(1500, 77)
    monkeypatch.setattr(checks, "_SAMPLE_CHUNK", 64)
    monkeypatch.setattr(checks, "_THREADS", 1)
    single = CHECKERS["Pi"].run(plane, mode)
    monkeypatch.setattr(checks, "_THREADS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = CHECKERS["Pi"].run(plane, mode)
    finally:
        sys.setswitchinterval(interval)
    assert (pooled.configurations, pooled.hypothesis_hits, pooled.skipped) == (1500, 321, 0)
    assert _facts(plane, pooled) == _facts(plane, single)


def _chunk_blocks(plane, mode):
    # the block of a chunk view: the index of its chunk
    return (mode.start // checks._SAMPLE_CHUNK,)


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
        _sweep(plane, mode, "T", _chunk_blocks, _failing_evaluator, None)
    assert threading.active_count() == before
    report = _sweep(plane, mode, "T", _chunk_blocks, _chunk_witness, None)
    assert report.configurations == 48
    assert [dict(v.data)["chunk"] for v in report.violations] == list(range(6))
    assert threading.active_count() == before


def _chunk_witness(plane, report, chunk):
    report.add_violation(Violation("chunk", data=(("chunk", chunk),)))


def test_at_most_two_threads_run_a_sweep():
    assert 1 <= checks._THREADS <= 2


def _peak_bytes(plane, check_id, mode) -> int:
    tracemalloc.start()
    try:
        CHECKERS[check_id].run(plane, mode)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the traced peaks of exhaustive Prop21@7, Miquel@5 and the chains at q=7,
# each swept once before: Prop21 took 4,080,806 bytes and Miquel 2,427,748
# when their blocks were per-circle arrays merged by concatenation; S,
# Cor21 and Prop22 took 4,193,168, 4,414,000 and 2,074,792 when their rows
# were written from each circle's closure table (Prop22's c ∥ a rows alone)
FAMILY_PEAKS = {("Prop21", 7): 1_583_932, ("Miquel", 5): 2_166_656,
                ("S", 7): 4_422_336, ("Cor21", 7): 4_682_880, ("Prop22", 7): 2_939_248}


@pytest.mark.parametrize("check_id, q", FAMILY_PEAKS)
def test_exhaustive_family_sweeps_hold_their_traced_peak(check_id, q):
    plane = miquelian_plane(q)
    CHECKERS[check_id].run(plane, EX)
    peak = _peak_bytes(plane, check_id, EX)
    assert peak <= FAMILY_PEAKS[check_id, q] * 1.10, peak


class _EagerChunk:
    """A chunk of `_eager_draws`, read through the interface of a
    `checks._Draws` view: a row subset reads each column at the kept rows
    when it is read, as the closures' `raw[j][idx]` did."""

    def __init__(self, cols, rows=None):
        self.cols, self.rows = cols, rows
        self.shape = (len(cols), cols.shape[1] if rows is None else len(rows))

    def __getitem__(self, key):
        if isinstance(key, tuple):
            keep = key[1]
            return _EagerChunk(self.cols, keep if self.rows is None else self.rows[keep])
        return self.cols[key] if self.rows is None else self.cols[key][self.rows]

    def column(self, j):
        return _EagerChunk(self.cols[j:j + 1], self.rows)


def _eager_draws(mode, draws):
    # the reference form: every choice of every row of a chunk view drawn
    # up front and copied transposed into one (draws, rows) block
    rows, n = checks._SAMPLE_CHUNK // draws, mode.count
    cols = np.empty((draws, n), dtype=np.uint64)
    for r in range(0, n, rows):
        c = min(rows, n - r)
        cols[:, r:r + c] = draw_block(mode.seed, (mode.start + r) * draws, c * draws
                                      ).reshape(c, draws).T
    return _EagerChunk(cols)


def _eager_eval_c(plane, report, K, L, sp):
    # C's evaluator in the reference form: the pencil counted from one
    # (rows, q-1) table of offsets
    T = plane.pair_code
    P = _gather(plane.members, K, sp)
    hyp = (K != L) & ~_gather(plane.mem, L, P)
    pencils = _gather(plane.pencil_others, K, sp)
    counts = (meet_count(_gather(T, pencils, L[:, None])) == 1).sum(axis=1)
    counts += (meet_count(_gather(T, K, L)) == 1).astype(counts.dtype)
    report.hypothesis_hits += int(hyp.sum())
    report.record(hyp & (counts != 1), lambda i: Violation(
        "tangent-count", points=(int(P[i]),),
        circles=(int(K[i]), int(L[i])), data=(("count", int(counts[i])),)))


def test_rows_in_flight_stay_at_one_65536_row_chunk(monkeypatch):
    # the pooled sweep holds _THREADS lazily drawn chunks of _SAMPLE_CHUNK
    # rows at once: in no more bytes than a single-threaded sweep of eager
    # 65,536-row chunks, each drawn whole into one (draws, rows) block
    plane, mode = miquelian_plane(9), CheckMode.sample(4 * 65536, 3)
    assert checks._SAMPLE_CHUNK == 1 << 16
    # the plane's lazy indexes and the stream's offsets are made once per
    # process, so that neither traced run pays for them whatever ran before
    for check_id in ("Bundle", "C"):
        CHECKERS[check_id].run(plane, CheckMode.sample(4096, 3))
    draw_block(3, 0, checks._SAMPLE_CHUNK)
    for check_id in ("Bundle", "C"):
        monkeypatch.setattr(checks, "_THREADS", 2)
        pooled = _peak_bytes(plane, check_id, mode)
        with monkeypatch.context() as m:
            m.setattr(checks, "_THREADS", 1)
            m.setattr(checks, "_draws", _eager_draws)
            m.setattr(checks, "_eval_c", _eager_eval_c)
            single = _peak_bytes(plane, check_id, mode)
        assert pooled <= single * 1.10, (check_id, pooled, single)


# -- exhaustive sweeps by first choice -----------------------------------------

def _n_firsts(plane, check_id) -> int:
    return CHECKERS[check_id].firsts(plane).n


def _merged_views(plane, check_id, firsts) -> CheckReport:
    """The reports of one-first-choice views of the exhaustive mode, merged
    in order."""
    report = CheckReport(check_id=check_id, mode=CheckMode.exhaustive())
    for f in firsts:
        report.merge(CHECKERS[check_id].run(plane, CheckMode("exhaustive", start=f, count=1)))
    return report.finalize()


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_views_of_single_first_choices_merge_into_the_whole_report(q, check_id):
    plane = miquelian_plane(q)
    whole = CHECKERS[check_id].run(plane, CheckMode.exhaustive())
    if whole.verdict == "NotApplicable":
        view = CHECKERS[check_id].run(plane, CheckMode("exhaustive", start=0, count=1))
        assert view.verdict == "NotApplicable"
        return
    merged = _merged_views(plane, check_id, range(_n_firsts(plane, check_id)))
    assert _facts(plane, merged) == _facts(plane, whole)


def _count_parts(monkeypatch) -> list[int]:
    """The number of parts of each sweep from now on."""
    counts = []
    in_order = checks._in_order

    def counted(run, parts):
        counts.append(len(parts))
        return in_order(run, parts)

    monkeypatch.setattr(checks, "_in_order", counted)
    return counts


# (configurations, hypothesis hits, violations, verdict) of each split sweep
SPLIT_COUNTS = {
    ("miquelian-7", "S"): (37_933_056, 4_840_416, 0, "Holds"),
    ("miquelian-7", "Prop22"): (37_933_056, 1_201_872, 0, "Holds"),
    ("miquelian-7", "Cor21"): (37_933_056, 6_042_288, 0, "Holds"),
    **{("miquelian-7", c): (4_840_416, 3_457_440, 0, "Holds") for c in PI_FAMILY},
    ("x^4-gf8", "Pi"): (14_450_688, 10_838_016, 9_633_792, "Fails"),
}


# the parts of each split sweep: windows of 28 circles K at q=7 (2,304
# (L, M) pairs each, 64,512 a window), and the points a whose rows fill a
# chunk: Thm23 keeps every row, one point of 61,740 at q=7, and Pi and
# PiPrime the rows with b < c, two points of 30,870 at q=7 and one of
# 75,264 on x^4
SPLIT_PARTS = {**{("miquelian-7", c): 13 for c in ("S", "Prop22", "Cor21")},
               **{("miquelian-7", c): 28 for c in ("Pi", "PiPrime")},
               ("miquelian-7", "Thm23"): 56, ("x^4-gf8", "Pi"): 72}


@pytest.mark.parametrize("name, check_id", SPLIT_COUNTS)
def test_exhaustive_chain_and_pi_sweeps_split_by_first_choice(monkeypatch, name, check_id):
    plane = miquelian_plane(7) if name == "miquelian-7" else PLANES[name]()
    counts = _count_parts(monkeypatch)
    runs = {}
    for threads in (1, 2):
        monkeypatch.setattr(checks, "_THREADS", threads)
        runs[threads] = CHECKERS[check_id].run(plane, CheckMode.exhaustive())
    assert counts == [SPLIT_PARTS[name, check_id]] * 2
    assert _facts(plane, runs[1]) == _facts(plane, runs[2])
    r = runs[2]
    assert (r.configurations, r.hypothesis_hits, r.violation_count, r.verdict) \
        == SPLIT_COUNTS[name, check_id]
    if runs[2].fails:
        # the witnesses are those of the first views, in view order
        a = [v.points[0] for v in runs[2].violations]
        assert a == sorted(a)
        first = _merged_views(plane, check_id, range(a[-1] + 1))
        assert first.violations[:len(a)] == runs[2].violations


def test_a_view_of_an_exhaustive_mode_splits_only_its_own_first_choices(monkeypatch):
    # thirty circles from K=3: one window of 28 and one of two
    plane = miquelian_plane(7)
    counts = _count_parts(monkeypatch)
    view = CHECKERS["S"].run(plane, CheckMode("exhaustive", start=3, count=30))
    assert counts == [2]
    assert view.configurations == 30 * (8 * 6) ** 3
    assert _facts(plane, view) == _facts(plane, _merged_views(plane, "S", range(3, 33)))


def test_small_blocks_and_the_other_sweeps_run_as_one_part(monkeypatch):
    counts = _count_parts(monkeypatch)
    plane = miquelian_plane(5)          # 13,824 chain and 10,000 Pi rows per first choice
    for check_id in SPLIT:
        CHECKERS[check_id].run(plane, CheckMode.exhaustive())
    assert counts == [1] * len(SPLIT)
    # with one-row chunks every first choice of the chain and Pi families
    # is a part of its own: 27 circles and 12 points at q=3; the other
    # checkers still sweep in one part
    monkeypatch.setattr(checks, "_SAMPLE_CHUNK", 1)
    counts.clear()
    others = [c for c in CHECK_IDS if c not in SPLIT]
    for check_id in others:         # Prop11 needs an even order
        CHECKERS[check_id].run(miquelian_plane(4 if check_id == "Prop11" else 3),
                               CheckMode.exhaustive())
    CHECKERS["Prop22"].run(miquelian_plane(3), CheckMode.exhaustive())
    CHECKERS["Pi"].run(miquelian_plane(3), CheckMode.exhaustive())
    assert counts == [1] * len(others) + [27, 12]


# -- range blocks on reused row buffers -----------------------------------------

BUFFERED = ("S", "Cor21", "Prop22", *PI_FAMILY)


def _range_block_sizes(monkeypatch) -> list[tuple[int, int]]:
    """(first choices, rows) of every range block from now on; a chain
    block's rows are its chains, the size its arrays broadcast to."""
    seen = []
    range_blocks = checks._range_blocks

    def recording(family, mode, rows):
        for block in range_blocks(family, mode, rows):
            arrays = [v for v in block if isinstance(v, np.ndarray)]
            seen.append((len(np.unique(block[0])),
                         math.prod(np.broadcast_shapes(*(v.shape for v in arrays)))))
            yield block

    monkeypatch.setattr(checks, "_range_blocks", recording)
    return seen


@pytest.mark.parametrize("key, check_id", [(q, c) for q in (3, 4, 5, 7) for c in BUFFERED]
                         + [("x^4-gf8", c) for c in PI_FAMILY])
def test_range_blocks_report_what_single_first_choices_report(monkeypatch, key, check_id):
    # blocks of many first choices (or, at q=7, parts of several) share one
    # thread's buffers; x^4 over GF(8), where Pi fails, runs a view of its
    # first nine points, each a block and a part of its own
    if key == "x^4-gf8":
        plane, firsts = PLANES[key](), range(9)
    else:
        plane = miquelian_plane(key)
        firsts = range(_n_firsts(plane, check_id))
    mode = CheckMode("exhaustive", start=firsts.start, count=len(firsts))
    single = _merged_views(plane, check_id, firsts)
    blocks = _range_block_sizes(monkeypatch)
    for threads in (1, 2):
        monkeypatch.setattr(checks, "_THREADS", threads)
        report = CHECKERS[check_id].run(plane, mode)
        assert _facts(plane, report) == _facts(plane, single)
        assert report.violations == single.violations
    if (key, check_id) == (4, "S"):
        assert report.violation_count == 23_040
    if key == 5:            # windows of 113 circles of 576 (L, M) pairs; 6,000 rows a
        # point for Thm23 and 3,000 for Pi and PiPrime, which keep b < c
        assert max(n for n, _ in blocks) == {"S": 113, "Cor21": 113, "Prop22": 113, "Pi": 21,
                                             "PiPrime": 21, "Thm23": 10}[check_id]
    assert all(rows <= checks._SAMPLE_CHUNK or n == 1 for n, rows in blocks)


def test_sweeps_of_two_planes_in_turn_on_one_thread(monkeypatch):
    # each sweep builds and drops its own buffers: sweeping another plane
    # in between changes no report
    monkeypatch.setattr(checks, "_THREADS", 1)
    planes = [miquelian_plane(4), miquelian_plane(5)]
    first = {(p.q, c): CHECKERS[c].run(p, EX) for p in planes for c in ("S", "Pi")}
    for _ in range(2):
        for p in planes:
            for c in ("S", "Pi"):
                assert _facts(p, CHECKERS[c].run(p, EX)) == _facts(p, first[p.q, c])


# the traced peak of exhaustive S@7 then Pi@7 on two threads in one traced
# span, before the row buffers: the Pi family's, each thread's point
# allocating and freeing 3.2 MB of arrays
PARENT_S_PI_PEAK = 6_522_121


def test_row_buffers_hold_no_more_than_the_arrays_they_replace(monkeypatch):
    # S's windows of 28 circles stay under the Pi family's peak
    plane = miquelian_plane(7)
    plane.class_pencils                 # built once, outside the traced span
    monkeypatch.setattr(checks, "_THREADS", 2)
    tracemalloc.start()
    try:
        for check_id in ("S", "Pi"):
            CHECKERS[check_id].run(plane, EX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PARENT_S_PI_PEAK * 1.10, peak


# -- one exhaustive path ----------------------------------------------------------

@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_exhaustive_sweeps_read_their_blocks_from_range_blocks_alone(monkeypatch, check_id):
    # every hit, skip and violation of an exhaustive run comes from a block
    # of `_range_blocks`, and a sampled run reads none; the configurations
    # are the first choices `_sweep` covers, blocks or none
    plane = miquelian_plane(4 if check_id == "Prop11" else 3)
    whole = CHECKERS[check_id].run(plane, EX)
    rows = []
    range_blocks = checks._range_blocks

    def recording(family, mode, buffers):
        for block in range_blocks(family, mode, buffers):
            rows.append(len(block[0]))
            yield block

    monkeypatch.setattr(checks, "_range_blocks", recording)
    assert _facts(plane, CHECKERS[check_id].run(plane, EX)) == _facts(plane, whole)
    assert sum(rows) > 0 and whole.configurations == exhaustive_size(plane, check_id) > 0
    rows.clear()
    CHECKERS[check_id].run(plane, CheckMode.sample(500, 3))
    assert rows == []
    monkeypatch.setattr(checks, "_range_blocks", lambda family, mode, rows: iter(()))
    none = CHECKERS[check_id].run(plane, EX)
    assert (none.configurations, none.hypothesis_hits, none.skipped, none.violation_count) \
        == (exhaustive_size(plane, check_id), 0, 0, 0)


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_configurations_are_the_rows_or_first_choices_a_sweep_covers(monkeypatch, q, check_id):
    # `_sweep` alone counts: a sampled run its rows, across 64-row chunks;
    # an exhaustive view its first choices times the family's raw count
    monkeypatch.setattr(checks, "_SAMPLE_CHUNK", 64)
    plane = miquelian_plane(q)
    for count in (63, 64, 65, 129):
        report = CHECKERS[check_id].run(plane, CheckMode.sample(count, 9))
        assert report.configurations == (0 if report.verdict == "NotApplicable" else count)
    family = CHECKERS[check_id].firsts(plane)
    for start, count in ((0, 1), (family.n - 1, 1), (1, 3)):
        report = CHECKERS[check_id].run(plane, CheckMode("exhaustive", start=start, count=count))
        assert report.configurations == count * family.raw
