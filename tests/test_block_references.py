"""The exhaustive blocks against their reference forms.

Every exhaustive sweep reads its blocks from a family of first choices,
`family.blocks` over each part that `checks._sweep` cuts;
`exhaustive_blocks` below reads them the same way for the tests.
`reference_chain_blocks` and `reference_pi_blocks` are the exhaustive forms that `checks._ChainFirsts`
and `checks._PiFirsts` replaced: per circle K, the whole (a, L, b, M, c, N) space of pencil
members looked up in K's tangency row; per point a, the mask of mutually
non-parallel (b, c, x), its `nonzero`, and then a second pass that drops
the rows with x on (a, b, c)°.  They are kept here as the second route to
the blocks.  The mirrored Pi family of Pi and PiPrime must hold the
reference rows with b < c, and each Pi-family report must be the report
of its evaluator over every row.  The array routes must yield the same
rows: every array with the same values, in the same order, of the same
dtype; and each first choice of a reference counts the raw
configurations of its family (`family.raw`), which the sweep counts for
it.  An exhaustive block of
the array routes spans several first choices, so the rows are compared
across blocks, not block by block.

A chain block is the outer product of groups of circles, its arrays
broadcasting over (L, N, group) or (group, L, N); `chain_rows` flattens
them and puts the chains in the order of the raw space through a dense
table of pencil rows, a route of its own.  One family serves S, Prop22
and Cor21: its chains with c ∥ a must be the reference restricted to
Prop22's hypothesis, as Prop22's sampled blocks are the sampled chains
restricted to it.  The reference rows, evaluated in order, must give
each chain check's exhaustive report, its witnesses included, and each
group of the family must be a double tangency pencil.

C's evaluator `_eval_c` receives every circle once, in order, in blocks
that broadcast over (K, slot of p, L), and their report is the one it
gives on every flat (K, slot of p, L) row in that order, counted by the
sampled blocks' helper `_c_counts`: the second route to C's verdict.
"""

from __future__ import annotations

import functools
from unittest import mock

import numpy as np
import pytest

from laguerre_lab import checks
from laguerre_lab.checks import (CHECKERS, _chain_blocks, _ChainFirsts, _eval_chain, _firsts,
                                 _gather, _PiFirsts, _Rows)
from laguerre_lab.models import miquelian_plane, oval_plane, oval_table_power
from laguerre_lab.plane import meet_count, meet_sum
from laguerre_lab.report import MAX_VIOLATIONS, CheckMode, CheckReport
from laguerre_lab.symmetry import double_tangency_pencil
from test_relabelling import RELABELLED, plane_for

EX = CheckMode.exhaustive()


def sweep_parts(family, mode) -> list[range]:
    """The first choices of each part that `checks._sweep` cuts the
    exhaustive `mode` of `family` into, none of them swept."""
    cut = []

    def record(run, parts, threads):
        cut.extend(parts)
        return []

    with mock.patch.object(checks, "_in_order", record):
        checks._sweep(None, mode, "T", None, None, lambda plane: family)
    return [_firsts(part, family.n) for part in cut]


def exhaustive_blocks(family, mode):
    """The exhaustive blocks of `family` over the first choices of `mode`,
    as a sweep reads them (`family.blocks` over each part of `sweep_parts`),
    each array copied as it is drawn: the next block overwrites it."""
    rows = _Rows()
    for firsts in sweep_parts(family, mode):
        for block in family.blocks(firsts, rows):
            yield tuple(np.array(v) if isinstance(v, np.ndarray) else v for v in block)


def reference_chain_blocks(plane, mode):
    """Per circle K: the closed rows of the (a, L, b, M, c, N) space."""
    po, members = plane.pencil_others, plane.members
    pc = plane.pair_code
    q, m = plane.q, plane.q - 1
    sm = (q + 1) * m
    for K in _firsts(mode, plane.n_circles):
        L0 = po[K]
        M0 = po[L0]
        N0 = po[M0]
        f = np.flatnonzero((meet_count(pc[K]) == 1)[N0])
        L = L0.reshape(-1).take(f // (sm * sm))
        M = M0.reshape(-1).take(f // sm)
        N = N0.reshape(-1).take(f)
        yield (N0.size, np.full(len(N), K, dtype=np.int16), members[K].take(f // (m * sm * sm)),
               L, _gather(members, L, f // (m * sm) % (q + 1)),
               M, _gather(members, M, f // m % (q + 1)), N, meet_sum(_gather(pc, N, K)))


def reference_pi_blocks(plane, mode):
    """Per point a: the mutually non-parallel (b, c, x), then those with x
    off (a, b, c)°, and K′ read from the pencil class indexes by numpy's
    own indexing."""
    gen, mem, T3 = plane.gen_of, plane.mem, plane.triple_circle
    members, classes = plane.members, plane.class_pencils
    n, q = plane.n_points, plane.q
    n_raw = (n - q) * (n - 2 * q) ** 2
    off = gen[:, None] != gen[None, :]
    for a in _firsts(mode, n):
        o = off & off[a][:, None] & off[a]
        b, c, x = (v.astype(np.int16) for v in np.nonzero(
            o[:, :, None] & o[:, None, :] & o[None, :, :]))
        a = np.full(len(b), a, dtype=np.int16)
        C1 = _gather(T3, a, b, c)
        keep = ~_gather(mem, C1, x)
        a, b, c, x, C1 = a[keep], b[keep], c[keep], x[keep], C1[keep]
        yield (n_raw, a, b, c, x, C1, _gather(members, _gather(T3, a, b, x), gen[c]),
               _gather(members, _gather(T3, a, c, x), gen[b]),
               classes[a, x, plane.pencil_class[C1, gen[a]]])


def reference_mirror_pi_blocks(plane, mode):
    """The reference Pi rows with b < c."""
    for n_raw, *block in reference_pi_blocks(plane, mode):
        keep = block[1] < block[2]
        yield n_raw, *(v[keep] for v in block)


def parallel_rows(block, plane):
    """A block of chains (K, a, L, b, M, c, N, d) restricted to the rows
    with c ∥ a."""
    gen = plane.gen_of
    keep = gen[block[1]] == gen[block[5]]
    return tuple(v[keep] for v in block)


def reference_prop22_blocks(plane, mode):
    for n_raw, *block in reference_chain_blocks(plane, mode):
        yield n_raw, *parallel_rows(block, plane)


def chain_rows(plane, blocks) -> list[tuple]:
    """The chains of `_ChainFirsts` blocks (K, a, L, b, M, c, N, d, ranks)
    as one block of flat arrays, in the C order of the raw space: K, then
    the row of L in K's pencils, of M in L's and of N in M's, each read
    from a dense table of every circle's pencil rows."""
    n_c, sm = plane.n_circles, (plane.q + 1) * (plane.q - 1)
    row_of = np.full((n_c, n_c), -1, dtype=np.int16)
    row_of[np.arange(n_c)[:, None], plane.pencil_others.reshape(n_c, sm)] = np.arange(sm)
    cols = [[] for _ in range(8)]
    for *arrays, _ in blocks:
        shape = np.broadcast_shapes(*(v.shape for v in arrays))
        for col, v in zip(cols, arrays):
            col.append(np.broadcast_to(v, shape).reshape(-1))
    K, A, L, B, M, C, N, D = (np.concatenate(col) for col in cols)
    rows = (row_of[K, L], row_of[L, M], row_of[M, N])
    assert all((r >= 0).all() for r in rows)            # consecutive circles touch
    rank = K.astype(np.int64)
    for r in rows:
        rank = rank * sm + r
    order = np.argsort(rank)
    assert (np.diff(rank[order]) > 0).all()             # each chain once
    return [tuple(v[order] for v in (K, A, L, B, M, C, N, D))]


FAMILIES = {"chain": (_ChainFirsts, reference_chain_blocks, chain_rows),
            "prop22": (_ChainFirsts, reference_prop22_blocks,
                       lambda plane, blocks: [parallel_rows(chain_rows(plane, blocks)[0], plane)]),
            "pi": (_PiFirsts, reference_pi_blocks, lambda plane, blocks: blocks),
            "pi-mirror": (functools.partial(_PiFirsts, mirror=True), reference_mirror_pi_blocks,
                          lambda plane, blocks: [block[:-1] for block in blocks])}
GF8, GF8_6 = "x^4-gf8", "x^6-gf8"


@functools.cache
def _plane(key):
    if key in (GF8, GF8_6):
        return oval_plane(8, oval_table_power(8, int(key[2])))
    return plane_for(key)


def assert_same_blocks(got, want):
    got, want = list(got), list(want)
    assert {len(b) for b in got} == {len(b) for b in want}
    for i in range(len(want[0])):
        ga = np.concatenate([b[i] for b in got])
        wa = np.concatenate([b[i] for b in want])
        assert ga.dtype == wa.dtype, i
        np.testing.assert_array_equal(ga, wa, err_msg=f"array {i}")


def assert_same_as_reference(family, reference, plane, mode, rows=lambda plane, blocks: blocks):
    """The exhaustive blocks of `family` hold the rows of `reference`, whose every
    first choice counts `family.raw` raw configurations; `rows` reads the
    blocks as rows of the reference's form."""
    want = list(reference(plane, mode))
    assert {n_raw for n_raw, *_ in want} == {family.raw}
    assert_same_blocks(rows(plane, list(exhaustive_blocks(family, mode))),
                       [block for _, *block in want])


@pytest.mark.parametrize("family, key", [(f, k) for f in FAMILIES for k in (3, 4, 5, RELABELLED)]
                         + [("pi", GF8), ("pi-mirror", GF8)])
def test_exhaustive_blocks_match_the_reference(family, key):
    plane = _plane(key)
    firsts, reference, rows = FAMILIES[family]
    assert_same_as_reference(firsts(plane), reference, plane, EX, rows)


@pytest.mark.parametrize("family, first", [(f, K) for f in ("chain", "prop22")
                                           for K in (0, 171, 342)]
                         + [("pi", 0), ("pi", 29), ("pi", 55), ("pi-mirror", 29)])
def test_first_choice_views_match_the_reference_at_order_7(family, first):
    plane = miquelian_plane(7)
    firsts, reference, rows = FAMILIES[family]
    mode = CheckMode("exhaustive", start=first, count=1)
    assert_same_as_reference(firsts(plane), reference, plane, mode, rows)


@pytest.mark.parametrize("a", [0, 181])
def test_pi_first_choice_views_match_the_reference_at_order_13(a):
    # n = 182 points: the (b, c) offsets pass int16's range, and b·n does
    # for b = 181
    plane = miquelian_plane(13)
    mode = CheckMode("exhaustive", start=a, count=1)
    assert_same_as_reference(_PiFirsts(plane), reference_pi_blocks, plane, mode)


@pytest.mark.parametrize("family, key, first", [(f, key, K) for f in ("chain", "prop22")
                                                for key, K in ((GF8, 0), (GF8, 511),
                                                               (13, 0), (13, 2196))])
def test_chain_first_choice_views_match_the_reference_at_the_edges(family, key, first):
    # the first and last circle K of x⁴ over GF(8), an even order, and of
    # q=13, whose (M, c, N) offsets are the largest
    plane = _plane(key)
    firsts, reference, rows = FAMILIES[family]
    mode = CheckMode("exhaustive", start=first, count=1)
    assert_same_as_reference(firsts(plane), reference, plane, mode, rows)


PI_EVALUATORS = {"Pi": checks._eval_pi, "PiPrime": checks._eval_pi_prime,
                 "Thm23": checks._eval_thm_2_3}


@pytest.mark.parametrize("key", [GF8, GF8_6, 5])
@pytest.mark.parametrize("check_id", PI_EVALUATORS)
def test_pi_family_reports_are_their_full_row_sweeps(monkeypatch, key, check_id):
    # Pi and PiPrime read each {b, c} once and count each row twice, Thm23
    # reads every row: each report is its evaluator's sweep of every row,
    # the 20 witnesses included where x⁴ and x⁶ over GF(8) fail
    plane = _plane(key)
    full = checks._sweep(plane, EX, check_id, checks._pi_blocks, PI_EVALUATORS[check_id],
                         _PiFirsts)
    read = []
    tally = checks._pi_tally

    def counted(plane, report, ok, *args):
        read.append(len(ok))
        tally(plane, report, ok, *args)

    monkeypatch.setattr(checks, "_pi_tally", counted)
    report = CHECKERS[check_id].run(plane, EX)
    assert ((report.configurations, report.hypothesis_hits, report.violation_count,
             report.verdict, report.violations)
            == (full.configurations, full.hypothesis_hits, full.violation_count, full.verdict,
                full.violations))
    assert len(report.violations) == (0 if key == 5 else MAX_VIOLATIONS)
    assert sum(read) * (1 if check_id == "Thm23" else 2) == report.hypothesis_hits > 0


@pytest.mark.parametrize("key", [3, 4, 5, RELABELLED])
def test_chain_checker_hits_count_their_block_rows(key):
    plane = _plane(key)
    rows = sum(len(b[1]) for b in reference_chain_blocks(plane, EX))
    parallel = sum(len(b[1]) for b in reference_prop22_blocks(plane, EX))
    hits = {c: CHECKERS[c].run(plane, EX).hypothesis_hits for c in ("S", "Prop22", "Cor21")}
    assert hits == {"S": rows - parallel, "Prop22": parallel, "Cor21": rows}


@pytest.mark.parametrize("key", [3, 4, 5, RELABELLED])
def test_reference_chains_evaluated_in_order_give_the_exhaustive_reports(key):
    # the witnesses of the grouped blocks are those of the raw order: q=4
    # fails S, Prop22 and Cor21
    plane = _plane(key)
    for check_id, kind in (("S", "s-chain"), ("Prop22", "p22-chain"), ("Cor21", "c21-chain")):
        rows = CheckReport(check_id=check_id, mode=EX)
        for _, *block in reference_chain_blocks(plane, EX):
            _eval_chain(kind, plane, rows, *block)
        sweep = CHECKERS[check_id].run(plane, EX)
        assert ((rows.hypothesis_hits, rows.violation_count, rows.violations)
                == (sweep.hypothesis_hits, sweep.violation_count, sweep.violations)), check_id


def _groups(block):
    """The groups (K, M, circles L) of a `_ChainFirsts` block."""
    K, _, L, _, M, *_ = block
    # (L, N, group) or (group, L, N); one group reads the same either way
    inner = K.shape[0] == 1
    K, M = K.reshape(-1), M.reshape(-1)
    L = L.reshape(-1, len(K)).T if inner else L.reshape(len(K), -1)
    for k, m, row in zip(K.tolist(), M.tolist(), L.tolist()):
        yield k, m, row


@pytest.mark.parametrize("q", [3, 4, 5])
def test_each_chain_group_is_a_double_tangency_pencil(q):
    # the group of (K, M) is T(K, M) without K and M, in K's pencil order;
    # for M = K, every circle tangent to K
    plane = miquelian_plane(q)
    n_c = plane.n_circles
    seen = {}
    for block in exhaustive_blocks(_ChainFirsts(plane), EX):
        for K, M, L in _groups(block):
            assert (K, M) not in seen
            seen[K, M] = L
    row_of = {K: {L: i for i, L in enumerate(plane.pencil_others[K].reshape(-1).tolist())}
              for K in range(n_c)}
    for K in range(n_c):
        for M in range(n_c):
            if M == K:
                want = plane.pencil_others[K].reshape(-1).tolist()
            else:
                pencil = double_tangency_pencil(plane, K, M)
                want = sorted(set(pencil) - {K, M}, key=row_of[K].__getitem__)
            assert seen.pop((K, M), []) == want, (K, M)
    assert not seen


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_double_tangency_pencils_hold_q_minus_2_q_minus_1_or_q_plus_1_others(q):
    # at odd order, for M tangent to, secant to or disjoint from K: the
    # sizes of the chain groups (`_ChainFirsts`)
    plane = miquelian_plane(q)
    K = 0
    count = meet_count(plane.pair_code[K]).tolist()
    for M in range(1, plane.n_circles):
        others = set(double_tangency_pencil(plane, K, M)) - {K, M}
        assert len(others) == {1: q - 2, 2: q - 1, 0: q + 1}[count[M]], M


@pytest.mark.parametrize("key", [4, 5, 13, RELABELLED, GF8])
def test_sampled_prop22_rows_keep_c_parallel_a(key):
    plane = _plane(key)
    mode = CheckMode.sample(70_000, 11)     # one view of more than a stream chunk
    assert_same_blocks([_chain_blocks(plane, mode, c_parallel_a=True)],
                       [parallel_rows(_chain_blocks(plane, mode), plane)])


# -- the circles of C --------------------------------------------------------------

def test_c_evaluates_every_circle_once_in_order(monkeypatch):
    # each block broadcasts over (K, slot of p, L): K (k, 1, 1), every L
    # (1, 1, n_c), the slots (1, q+1, 1) and the counts (k, q+1, n_c)
    seen = []
    evaluate = checks._eval_c

    def recording(plane, report, K, L, sp, counts):
        seen.append((K.copy(), L.copy(), sp.copy(), counts.shape, counts.dtype))
        evaluate(plane, report, K, L, sp, counts)

    monkeypatch.setattr(checks, "_eval_c", recording)
    plane = miquelian_plane(4)
    q, n_c = plane.q, plane.n_circles
    report = CHECKERS["C"].run(plane, EX)
    assert np.concatenate([K.reshape(-1) for K, *_ in seen]).tolist() == list(range(n_c))
    for K, L, sp, shape, dtype in seen:
        assert (K.shape, shape, dtype) == ((len(K), 1, 1), (len(K), q + 1, n_c), np.uint8)
        assert L.tolist() == [[list(range(n_c))]] and sp.tolist() == [[[s] for s in range(q + 1)]]
        assert K.dtype == L.dtype == sp.dtype == np.int16
    assert report.configurations == n_c * n_c * (q + 1)


@pytest.mark.parametrize("key", [3, 4, 5, RELABELLED, GF8])
def test_c_row_evaluator_matches_the_exhaustive_sweep(key):
    # every flat (K, slot of p, L) row in that order, counted by the
    # sampled blocks' helper; q=4 and x⁴ over GF(8) fail C, so their
    # witnesses are compared too
    plane = _plane(key)
    q, n_c = plane.q, plane.n_circles
    sp = np.repeat(np.arange(q + 1, dtype=np.int16), n_c)
    L = np.tile(np.arange(n_c, dtype=np.int16), q + 1)
    rows = CheckReport(check_id="C", mode=EX)
    for K in range(n_c):
        K = np.full(len(L), K, dtype=np.int16)
        checks._eval_c(plane, rows, K, L, sp, checks._c_counts(plane, K, L, sp))
    sweep = CHECKERS["C"].run(plane, EX)
    assert ((rows.hypothesis_hits, rows.violation_count, rows.skipped, rows.violations)
            == (sweep.hypothesis_hits, sweep.violation_count, sweep.skipped, sweep.violations))
