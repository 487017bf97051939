"""Configuration-theorem checkers over a finite Laguerre plane.

Every checker enumerates (exhaustively, in canonical index order) or
samples (via the counter-based splitmix64 stream) configurations built
CONSTRUCTIVELY: circles and points are chosen step by step so that the
statement's hypotheses hold by construction wherever possible, because
random point tuples almost never satisfy them.  Each checker documents
its choice space; `exhaustive_size` reports its a-priori size so callers
can refuse oversized exhaustive runs.

Each statement checker is one `_sweep` of an evaluator over blocks.  A
block generator `blocks(plane, mode)` yields the raw configuration count
and the choice arrays of one block, sampled or exhaustive, with the
values its whole family reads (a chain's corner d; p, q and K′ of the
symmetry configuration).  A block holds only the rows that can meet the
statement's constructive hypothesis, while the raw count covers every
choice, so `configurations` is the size of the whole choice space.  The
evaluator `evaluate(plane, report, *arrays)` tests the statement, the
same code in both modes.  C alone keeps a second evaluator for its
exhaustive blocks (`_eval_c_exhaustive`).  Blocks and evaluators read a
plane index with one id array per axis through `_gather`, one `take` at
the flat offset, and sampled blocks read their draws as the contiguous
columns of `_sample_batches`.

The two closures, Miquel and Bundle, share their base blocks (a circle
C1, an ordered quadruple of its points and a circle C2 of the pencil
through the first two: `_sampled_bases`, `_exhaustive_bases`) and add
only their own choices, the tail of each such head row.  An evaluator
takes the tail (`_with_tail`) after it has dropped the heads that cannot
meet the hypothesis, so an exhaustive head that fails is never repeated
once per tail.  A point that a hypothesis fixes is derived, not chosen:
`_completion` finds the point of a circle that completes two point pairs
to a concyclic quadruple (Miquel's f, Bundle's f and h), so neither its
slot nor a filter on it costs a draw or a row.  Only where every point of
that circle completes the pairs does a row take a drawn slot (sampled)
or each slot (exhaustive).  Each conclusion that relates two point pairs
is one `_pairs_concyclic` test: the pairs lie on one circle or split
into two parallel pairs.  Every evaluator records its violations through
`CheckReport.record`.

Every exhaustive block generator enumerates its first choice (the
circle K, or M for Prop11, the point a of the Pi family, the circle C1 of
the closures) through `_firsts`, so an exhaustive `CheckMode` view with
`start` and `count` sweeps a range of first choices.  A sampled sweep
runs its chunks of `_SAMPLE_CHUNK` stream rows on up to two threads, and
so does an exhaustive chain or Pi sweep its first choices where one of
them is a block of at least two chunks' rows; the partial reports merge
in order, so a report does not depend on the thread count (`_sweep`).
Every other exhaustive sweep runs on the calling thread.

Checkers are pure functions of (plane, mode): reports are byte-identical
across runs apart from elapsed time.  Every recorded violation can be
re-validated through the scalar incidence operations alone (see
`replay_violation`), independently of the vectorized sweep that found it.

Every check id, the axiom validator's included, is resolved by one
`CheckerSpec` in `SPECS`: how to run it, its exhaustive size, the shape
of its witnesses and their replay.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import LaguerreError
from .plane import LaguerrePlane, _validate
from .report import CheckMode, CheckReport, Violation
from .rng import bounded, draw_block

__all__ = [
    "CHECK_IDS",
    "CHECKERS",
    "SPECS",
    "check_C",
    "check_S",
    "check_prop_2_1",
    "check_prop_2_2",
    "check_cor_2_1",
    "check_prop_1_1",
    "check_pi",
    "check_pi_prime",
    "check_thm_2_3",
    "check_miquel",
    "check_bundle",
    "exhaustive_size",
    "replay_violation",
]

# Sample rows per chunk, and the threads that run a sweep's chunks,
# min(2, available CPUs): each thread holds one chunk's arrays, so at most
# 65,536 rows are in flight
_SAMPLE_CHUNK = 1 << 15
_THREADS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


def _sweep(plane: LaguerrePlane, mode: CheckMode, check_id: str, blocks, evaluate,
           firsts: tuple[int, int] | None = None) -> CheckReport:
    """The report of `evaluate(plane, report, *arrays)` over every block
    `blocks(plane, mode)` yields as (raw configurations, *arrays).

    A sampled mode is split into chunk views of `_SAMPLE_CHUNK` stream rows
    (`CheckMode.start`), each swept into its own partial report; `_in_order`
    runs them on `_THREADS` threads and the partial reports are merged in
    chunk order (`CheckReport.merge`), so the report is the same for any
    thread count.  `firsts`, (first choices, raw rows of each), splits an
    exhaustive mode the same way into one view per first choice, where one
    first choice has at least the 2·`_SAMPLE_CHUNK` rows that a sampled
    sweep holds in flight: smaller blocks ran slower on two threads than
    on one.  Only the chain and Pi runners pass `firsts`: split the same
    way, exhaustive Miquel at q=5 took 0.82–0.91 s against 0.70–0.75 s
    unsplit.  Any other exhaustive mode is one part, swept inline."""
    def sweep_part(part: CheckMode) -> CheckReport:
        report = CheckReport(check_id=check_id, mode=mode)
        for n_raw, *arrays in blocks(plane, part):
            report.configurations += n_raw
            evaluate(plane, report, *arrays)
            del arrays      # free this block before the generator builds the next
        return report

    t0 = time.perf_counter()
    parts = [mode]
    if mode.is_sample:
        parts = [replace(mode, start=s, count=min(_SAMPLE_CHUNK, mode.count - s))
                 for s in range(0, mode.count, _SAMPLE_CHUNK)]
    elif firsts is not None and firsts[1] >= 2 * _SAMPLE_CHUNK:
        parts = [replace(mode, start=f, count=1) for f in _firsts(mode, firsts[0])]
    report = CheckReport(check_id=check_id, mode=mode)
    for part in _in_order(sweep_part, parts):
        report.merge(part)
    report.elapsed_seconds = time.perf_counter() - t0
    return report.finalize()


def _in_order(run, parts) -> list:
    """`[run(part) for part in parts]` on T = min(_THREADS, len(parts))
    threads, the calling one and T − 1 made for this call.  Each thread
    takes the first part not yet taken, so each holds one part at a time.
    Where parts raise, no part is taken after that and the first in order
    raises here; no thread outlives the call.

    Fixed shares (every T-th part to one thread) ran a q=13 pass up to 3×
    slower than one thread on a host whose CPUs were lent to others: a
    thread waiting for the interpreter lock starved for 60-90 ms while the
    other ran its parts, which then waited for the starved one's share.
    The caller works instead of waiting on a `concurrent.futures` pool:
    with an idle caller, perfbench's sample-q13 read peak RSS 102.1–103.0
    against 99.0–99.8 MB and a median operation 84–90 against 75–84 ms."""
    T = min(_THREADS, len(parts))
    if T < 2:
        return [run(part) for part in parts]
    todo = deque(range(len(parts)))     # a deque's pops are thread-safe
    out = [None] * len(parts)           # (result, exception) per part

    def work():
        while True:
            try:
                i = todo.popleft()
            except IndexError:
                return
            try:
                out[i] = run(parts[i]), None
            except Exception as e:
                out[i] = None, e
                todo.clear()

    threads = [threading.Thread(target=work) for _ in range(T - 1)]
    for t in threads:
        t.start()
    try:
        work()
    finally:
        todo.clear()
        for t in threads:
            t.join()
    # every part before the first that raised has run
    for _, error in out:
        if error is not None:
            raise error
    return [result for result, _ in out]


def _not_applicable(check_id: str, mode: CheckMode, note: str) -> CheckReport:
    return CheckReport(check_id=check_id, mode=mode, verdict="NotApplicable",
                       notes=(note,)).finalize()


def _gather(table: np.ndarray, *idx) -> np.ndarray:
    """`table[i0, i1, ...]` for one index array per leading axis, read at
    the flat offset (i0·s1 + i1)·s2 + ...: numpy runs a multi-axis fancy
    gather 2-3 times slower.  The indexes broadcast against each other,
    and a negative id wraps as in `table[idx]` in the first axis only.

    Offsets keep the ids' own dtype (at least int32) while the table has
    fewer than 2^31 elements.  `take` would copy int32 offsets to intp
    first, so those are read by indexing, which makes no such copy."""
    dtype = np.result_type(*idx, np.int32) if table.size < 2**31 else np.int64
    off = np.empty(np.broadcast_shapes(*(np.shape(i) for i in idx)), dtype=dtype)
    off[...] = idx[0]
    for i, s in zip(idx[1:], table.shape[1:]):
        off *= s
        off += i
    rows = table.reshape(-1, *table.shape[len(idx):])
    return rows.take(off, axis=0) if off.dtype == np.intp else rows[off]


def _firsts(mode: CheckMode, n: int) -> range:
    """The first choices an exhaustive mode sweeps, of the n there are: all
    of them, or those of a view (`CheckMode.start`, `count`)."""
    return range(n) if mode.count is None else range(mode.start, mode.start + mode.count)


def _sample_batches(mode: CheckMode, draws: int):
    """Yield uint64 arrays of shape (draws, n), block by block of n sample
    rows: choice j of sample row r is stream draw r·draws + j, and each
    choice's n draws are one contiguous column.  The rows are those of
    `mode`, from `mode.start` (a chunk view of `_sweep`: one block) or
    from 0.  Each `draw_block` call draws at most one column's worth, so
    the mix runs in cache."""
    end = mode.start + mode.count
    rows = _SAMPLE_CHUNK // draws
    for start in range(mode.start, end, _SAMPLE_CHUNK):
        n = min(_SAMPLE_CHUNK, end - start)
        cols = np.empty((draws, n), dtype=np.uint64)
        for r in range(0, n, rows):
            c = min(rows, n - r)
            cols[:, r:r + c] = draw_block(mode.seed, (start + r) * draws, c * draws
                                          ).reshape(c, draws).T
        yield cols


# ---------------------------------------------------------------------------
# tangency-chain checks: the four-chain closure statement, its parallel
# degeneration, and the combined concyclicity corollary
# ---------------------------------------------------------------------------

_CHAIN_DRAWS = 7


def _chain_blocks(plane: LaguerrePlane, mode: CheckMode):
    """Closed chains K—L—M—N with consecutive circles tangent (corners a,b,c,d).

    Choice space: K, a in K, L tangent to K at a, b in L, M tangent to L
    at b, c in M, N tangent to M at c; the chain closes when |N ∩ K| = 1.
    Yields (raw count, K, a, L, b, M, c, N, d) flat arrays per block over
    the closed chains alone, d = N ∩ K their fourth corner.
    """
    po, members = plane.pencil_others, plane.members
    T, W = plane.pair_count, plane.pair_sum
    q, m = plane.q, plane.q - 1
    sm = (q + 1) * m

    if mode.is_sample:
        for raw in _sample_batches(mode, _CHAIN_DRAWS):
            K = bounded(raw[0], plane.n_circles)
            sa = bounded(raw[1], q + 1)
            A = _gather(members, K, sa)
            L = _gather(po, K, sa, bounded(raw[2], m))
            sb = bounded(raw[3], q + 1)
            B = _gather(members, L, sb)
            M = _gather(po, L, sb, bounded(raw[4], m))
            sc = bounded(raw[5], q + 1)
            C = _gather(members, M, sc)
            N = _gather(po, M, sc, bounded(raw[6], m))
            idx = np.nonzero(_gather(T, N, K) == 1)[0]
            K, A, L, B, M, C, N = (v[idx] for v in (K, A, L, B, M, C, N))
            yield raw.shape[1], K, A, L, B, M, C, N, _gather(W, N, K)
    else:
        for K in _firsts(mode, plane.n_circles):
            L0 = po[K]                         # (q+1, m)
            M0 = po[L0]                        # (q+1, m, q+1, m)
            N0 = po[M0]                        # (q+1, m, q+1, m, q+1, m)
            # flat offsets over the six axes (a, L, b, M, c, N) in C order
            # keep the rows in the order of the full choice space; each
            # (slot, pencil member) pair of axes spans sm offsets.  T is
            # symmetric, so K's row answers for every N at once
            f = np.flatnonzero((T[K] == 1)[N0])
            L = L0.reshape(-1).take(f // (sm * sm))
            M = M0.reshape(-1).take(f // sm)
            N = N0.reshape(-1).take(f)
            yield (N0.size, np.full(len(N), K), members[K].take(f // (m * sm * sm)),
                   L, _gather(members, L, f // (m * sm) % (q + 1)),
                   M, _gather(members, M, f // m % (q + 1)), N, _gather(W, N, K))


def _corner_coincides(A, B, C, D):
    """b or d equals another corner of the chain."""
    return (B == A) | (B == C) | (B == D) | (D == A) | (D == C)


def _on_abc(plane, A, B, C, D):
    """D lies on the circle through a, b, c (false where none exists)."""
    cid = _gather(plane.triple_circle, A, B, C)
    return (cid >= 0) & _gather(plane.mem, np.maximum(cid, 0), D)


def _chain_tally(report, hyp, ok, kind, K, A, L, B, M, C, N, D) -> None:
    report.hypothesis_hits += int(hyp.sum())
    report.record(hyp & ~ok, lambda i: Violation(
        kind,
        points=(int(A[i]), int(B[i]), int(C[i]), int(D[i])),
        circles=(int(K[i]), int(L[i]), int(M[i]), int(N[i]))))


def _eval_s(plane, report, K, A, L, B, M, C, N, D):
    gen = plane.gen_of
    hyp = gen[A] != gen[C]
    ok = _corner_coincides(A, B, C, D) | ((gen[B] != gen[D]) & _on_abc(plane, A, B, C, D))
    _chain_tally(report, hyp, ok, "s-chain", K, A, L, B, M, C, N, D)


def _eval_prop_2_2(plane, report, K, A, L, B, M, C, N, D):
    gen = plane.gen_of
    hyp = gen[A] == gen[C]
    ok = gen[B] == gen[D]
    _chain_tally(report, hyp, ok, "p22-chain", K, A, L, B, M, C, N, D)


def _eval_cor_2_1(plane, report, K, A, L, B, M, C, N, D):
    # asserts the ordered quadruple (a,c,b,d) is concyclic
    gen = plane.gen_of
    par_ac, par_bd = gen[A] == gen[C], gen[B] == gen[D]
    branch2 = par_ac & par_bd & (A != B)
    proper4 = ~par_ac & ~par_bd & _on_abc(plane, A, B, C, D)
    proper_set3 = ~(par_ac & (A != C))          # b or d coincides: only (a,c) can obstruct
    proper_ac = ~(par_bd & (B != D))            # a == c alone: only (b,d) can obstruct
    proper = np.where(_corner_coincides(A, B, C, D), proper_set3,
                      np.where(A == C, proper_ac, proper4))
    _chain_tally(report, np.ones(len(D), dtype=bool), proper | branch2, "c21-chain",
                 K, A, L, B, M, C, N, D)


def _chain_firsts(plane):
    # the circles K, each with its (a, L, b, M, c, N) choices
    q = plane.q
    return plane.n_circles, ((q + 1) * (q - 1)) ** 3


def check_S(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Closed tangency chains with non-parallel opposite corners a,c span a circle."""
    return _sweep(plane, mode, "S", _chain_blocks, _eval_s, _chain_firsts(plane))


def check_prop_2_2(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Closed tangency chains with a parallel to c force b parallel to d."""
    return _sweep(plane, mode, "Prop22", _chain_blocks, _eval_prop_2_2, _chain_firsts(plane))


def check_cor_2_1(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Every closed tangency chain has (a,c,b,d) concyclic in the generalized sense."""
    return _sweep(plane, mode, "Cor21", _chain_blocks, _eval_cor_2_1, _chain_firsts(plane))


# ---------------------------------------------------------------------------
# the unique-tangent-intersection axiom
# ---------------------------------------------------------------------------

def _c_blocks(plane: LaguerrePlane, mode: CheckMode):
    """Circles K, L and a point p of K.  Sampled: (raw count, K, L, slot of
    p in K) per block.  Exhaustive: ((q+1) n_c, K) per circle K, whose
    block is every (p, L) with p in K."""
    q, n_c = plane.q, plane.n_circles
    if mode.is_sample:
        for raw in _sample_batches(mode, 3):
            yield raw.shape[1], bounded(raw[0], n_c), bounded(raw[1], n_c), bounded(raw[2], q + 1)
    else:
        for K in _firsts(mode, n_c):
            yield (q + 1) * n_c, K


def _eval_c(plane, report, K, L, sp):
    T = plane.pair_count
    P = _gather(plane.members, K, sp)
    hyp = (K != L) & ~_gather(plane.mem, L, P)
    counts = (_gather(T, _gather(plane.pencil_others, K, sp), L[:, None]) == 1).sum(axis=1)
    counts += (_gather(T, K, L) == 1).astype(counts.dtype)   # K itself is in its pencils
    report.hypothesis_hits += int(hyp.sum())
    report.record(hyp & (counts != 1), lambda i: Violation(
        "tangent-count", points=(int(P[i]),),
        circles=(int(K[i]), int(L[i])), data=(("count", int(counts[i])),)))


def _eval_c_exhaustive(plane, report, K):
    # K's (q+1, n_c) block evaluated in place: the same block flattened
    # into rows of `_eval_c` gives the same report, but its sweep at q=7
    # took 135-168 ms instead of 15-42 ms on a shared 2-core host
    q, n_c, members = plane.q, plane.n_circles, plane.members
    pen = np.concatenate([plane.pencil_others[K], np.full((q + 1, 1), K)], axis=1)  # (q+1, q)
    counts = (plane.pair_count[pen] == 1).sum(axis=1)      # (q+1, n_c)
    onL = plane.mem[:, members[K]].T                       # (q+1, n_c)
    hyp = (~onL) & (np.arange(n_c) != K)[None, :]
    report.hypothesis_hits += int(hyp.sum())
    pts = members[K]
    report.record(hyp & (counts != 1), lambda i: Violation(
        "tangent-count", points=(int(pts[i // n_c]),),
        circles=(K, int(i % n_c)),
        data=(("count", int(counts[i // n_c, i % n_c])),)))


def check_C(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """For circles K,L and p in K minus L: exactly one member of the
    tangent pencil at (p,K) meets L in exactly one point."""
    evaluate = _eval_c if mode.is_sample else _eval_c_exhaustive
    return _sweep(plane, mode, "C", _c_blocks, evaluate)


# ---------------------------------------------------------------------------
# pairwise-tangent triples, and the characteristic-2 tangency transfer
# ---------------------------------------------------------------------------

def _sampled_tangent_pairs(plane: LaguerrePlane, mode: CheckMode):
    """(raw count, base circle, two members of its tangent pencils) per block."""
    po, q = plane.pencil_others, plane.q
    for raw in _sample_batches(mode, 5):
        base = bounded(raw[0], plane.n_circles)
        yield (len(base), base, _gather(po, base, bounded(raw[1], q + 1), bounded(raw[2], q - 1)),
               _gather(po, base, bounded(raw[3], q + 1), bounded(raw[4], q - 1)))


def _pairs_of(base: int, part: np.ndarray):
    """(count, base, X, Y) over the unordered pairs {X, Y} of `part`."""
    iu, ju = np.triu_indices(len(part), k=1)
    return len(iu), np.full(len(iu), base), part[iu], part[ju]


def _trio_blocks(plane: LaguerrePlane, mode: CheckMode):
    """Circles K, L, M with L and M tangent to K.  Exhaustive: the raw
    choices are the unordered pairs {L, M} of circles tangent to K, and
    each triple of pairwise tangent circles is evaluated once, from its
    least circle, as K < L < M."""
    if mode.is_sample:
        yield from _sampled_tangent_pairs(plane, mode)
        return
    T = plane.pair_count
    for K in _firsts(mode, plane.n_circles):
        part = np.nonzero(T[K] == 1)[0]
        _, *rows = _pairs_of(K, part[part > K])
        yield len(part) * (len(part) - 1) // 2, *rows


def _eval_prop_2_1(plane, report, K, L, M):
    T, W = plane.pair_count, plane.pair_sum
    hyp = (_gather(T, L, M) == 1) & (L != M)
    wkl = _gather(W, K, L)
    same = (wkl == _gather(W, K, M)) & (wkl == _gather(W, L, M))
    report.hypothesis_hits += int(hyp.sum())
    report.record(hyp & ~same, lambda i: Violation(
        "tangent-trio",
        points=(int(W[K[i], L[i]]), int(W[K[i], M[i]]), int(W[L[i], M[i]])),
        circles=(int(K[i]), int(L[i]), int(M[i]))))


def check_prop_2_1(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Three mutually tangent circles touch at one common point."""
    return _sweep(plane, mode, "Prop21", _trio_blocks, _eval_prop_2_1)


def _transfer_blocks(plane: LaguerrePlane, mode: CheckMode):
    """Circles M, K, L with K and L tangent to M.  Exhaustive: unordered
    pairs {K, L} per base circle M; the statement is symmetric in K and L,
    so each pair is examined once."""
    if mode.is_sample:
        yield from _sampled_tangent_pairs(plane, mode)
        return
    T = plane.pair_count
    for M in _firsts(mode, plane.n_circles):
        yield _pairs_of(M, np.nonzero(T[M] == 1)[0])


def _eval_prop_1_1(plane, report, M, K, L):
    inter = _gather(plane.pair_count, K, L)
    hyp = (K != L) & (inter >= 1)
    report.hypothesis_hits += int(hyp.sum())
    report.record(hyp & (inter != 1), lambda i: Violation(
        "tangency-transfer", circles=(int(M[i]), int(K[i]), int(L[i])),
        data=(("common_points", int(inter[i])),)))


def check_prop_1_1(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Characteristic 2 only: two circles through a common point and both
    tangent to a third circle are tangent to each other."""
    if plane.q % 2 == 1:
        return _not_applicable("Prop11", mode, "odd order: statement restricted to characteristic 2")
    return _sweep(plane, mode, "Prop11", _transfer_blocks, _eval_prop_1_1)


# ---------------------------------------------------------------------------
# the symmetry configuration family on (a, b, c, x)
# ---------------------------------------------------------------------------

def _pi_blocks(plane: LaguerrePlane, mode: CheckMode):
    """Mutually non-parallel (a,b,c,x) with x off C1 = (a,b,c)°.

    Yields (raw count, a, b, c, x, C1, p, q, K′) per block, flat arrays
    over the configurations that meet this hypothesis: p is the point of
    (a,b,x)° parallel to c, q the point of (a,c,x)° parallel to b, and K′
    the circle through x tangent to C1 at a.  The statements need nothing
    more: p ∥ c and q ∥ b are parallel to neither x nor each other; q ≠ b,
    or (a,c,x)° = C1 would hold x; and q is off K′, or K′ = (a,c,x)° would
    meet C1 in c as well as in a.
    """
    gen, mem, T3 = plane.gen_of, plane.mem, plane.triple_circle
    members, TCT = plane.members, plane.tangent_through

    def block(n_raw, a, b, c, x):
        # (a, b, c, x) mutually non-parallel; keep x off C1
        C1 = _gather(T3, a, b, c)
        keep = ~_gather(mem, C1, x)     # a mask: no index array beside the block's
        a, b, c, x, C1 = a[keep], b[keep], c[keep], x[keep], C1[keep]
        return (n_raw, a, b, c, x, C1, _gather(members, _gather(T3, a, b, x), gen[c]),
                _gather(members, _gather(T3, a, c, x), gen[b]),
                _gather(TCT, C1, gen[a], x))

    if mode.is_sample:
        for raw in _sample_batches(mode, 4):
            a, b, c, x = (bounded(col, plane.n_points) for col in raw)
            idx = np.nonzero((gen[a] != gen[b]) & (gen[a] != gen[c]) & (gen[a] != gen[x])
                             & (gen[b] != gen[c]) & (gen[b] != gen[x]) & (gen[c] != gen[x]))[0]
            yield block(raw.shape[1], a[idx], b[idx], c[idx], x[idx])
    else:
        # per point a: the raw (b, c, x) have b off a's generator and c, x off
        # those of a and b; C order over (b, c, x) is the order of that space
        n, n_raw = _pi_firsts(plane)
        off = gen[:, None] != gen[None, :]
        for a in _firsts(mode, n):
            o = off & off[a][:, None] & off[a]      # a pair off each other and off a
            # int32 ids halve the index arrays of these blocks, the largest of the pass
            b, c, x = (v.astype(np.int32) for v in np.nonzero(
                o[:, :, None] & o[:, None, :] & o[None, :, :]))
            yield block(n_raw, np.full(len(b), a, dtype=np.int32), b, c, x)


def _pi_tally(report, ok, kind, a, b, c, x, C1) -> None:
    report.hypothesis_hits += len(a)
    report.record(~ok, lambda i: Violation(
        kind, points=(int(a[i]), int(b[i]), int(c[i]), int(x[i])), circles=(int(C1[i]),)))


def _eval_pi(plane, report, a, b, c, x, C1, p, qpt, Kp):
    C2 = _gather(plane.triple_circle, p, qpt, x)
    ok = (_gather(plane.pair_count, Kp, C2) == 1) & (_gather(plane.pair_sum, Kp, C2) == x)
    _pi_tally(report, ok, "pi-config", a, b, c, x, C1)


def _eval_pi_prime(plane, report, a, b, c, x, C1, p, qpt, Kp):
    L = _gather(plane.tangent_through, Kp, plane.gen_of[x], qpt)
    Cabx = _gather(plane.triple_circle, a, b, x)
    two = _gather(plane.pair_count, L, Cabx) == 2
    other = np.where(two, _gather(plane.pair_sum, L, Cabx) - x, 0)
    ok = two & (plane.gen_of[other] == plane.gen_of[c])
    _pi_tally(report, ok, "piprime-config", a, b, c, x, C1)


def _eval_thm_2_3(plane, report, a, b, c, x, C1, p, qpt, Kp):
    Cqpx = _gather(plane.triple_circle, qpt, p, x)
    N = _gather(plane.tangent_through, Cqpx, plane.gen_of[p], b)
    ok = (_gather(plane.pair_count, N, C1) == 1) & (_gather(plane.pair_sum, N, C1) == b)
    _pi_tally(report, ok, "thm23-config", a, b, c, x, C1)


def _pi_firsts(plane):
    # the points a, each with b off a's generator and c, x off those of a and b
    n, q = plane.n_points, plane.q
    return n, (n - q) * (n - 2 * q) ** 2


def check_pi(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Artzy symmetry configuration: the circle through x tangent to
    (a,b,c)° at a meets (p,q,x)° exactly in x."""
    return _sweep(plane, mode, "Pi", _pi_blocks, _eval_pi, _pi_firsts(plane))


def check_pi_prime(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Reformulated symmetry configuration: L through q tangent to K at x
    meets (a,b,x)° in exactly x and the point of it parallel to c."""
    return _sweep(plane, mode, "PiPrime", _pi_blocks, _eval_pi_prime, _pi_firsts(plane))


def check_thm_2_3(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """The circle tangent to (q,p,x)° at p through b is tangent to (a,b,c)° at b."""
    return _sweep(plane, mode, "Thm23", _pi_blocks, _eval_thm_2_3, _pi_firsts(plane))


# ---------------------------------------------------------------------------
# the eight-point closure statements
# ---------------------------------------------------------------------------

def _pairs_concyclic(plane, P, Q, R, S):
    """The pairs {P, Q} and {R, S} lie on one circle, or split into two
    parallel pairs: either matching names a degenerate plane section.

    Precondition: P ∦ Q, as at every call site, where P and Q lie on one
    circle of the configuration.  On four distinct points this is then
    `plane.concyclic_some_order(P, R, Q, S)`, and the proper case needs no
    parallel test of its own: a point on the circle through three others
    is parallel to none of them.
    """
    gen = plane.gen_of
    return (_on_abc(plane, P, R, Q, S) | ((gen[P] == gen[R]) & (gen[Q] == gen[S]))
            | ((gen[P] == gen[S]) & (gen[Q] == gen[R])))


def _sampled_bases(plane: LaguerrePlane, raw: np.ndarray, n_slots: int):
    """Base circles C1 with four member slots each, drawn from raw[:5], a
    circle C2 of the pencil through the first two, drawn from raw[5], and
    `n_slots` member slots of C2 from raw[6:]: the indexes of the sample
    rows whose slots on C1 are four distinct ones and whose slots on C2
    are distinct and hold neither a nor b, and on those rows C1, the
    points (a, c, b, d) in the slots on C1, C2 and the slots on C2.

    Slot g of a circle holds its point on generator g, so the slots decide
    which points coincide before any point is read."""
    members, q = plane.members, plane.q
    s = [bounded(raw[j], q + 1) for j in range(1, 5)]
    t = [bounded(raw[j], q + 1) for j in range(6, 6 + n_slots)]
    ok = np.ones(raw.shape[1], dtype=bool)
    for i, j in itertools.combinations(range(4), 2):
        ok &= s[i] != s[j]
    for i, u in enumerate(t):
        ok &= (u != s[0]) & (u != s[2])     # the slots of a and b
        for v in t[:i]:
            ok &= u != v
    idx = np.nonzero(ok)[0]
    C1 = bounded(raw[0][idx], plane.n_circles)
    A, Cq, B, D = (_gather(members, C1, sj[idx]) for sj in s)
    C2 = _gather(plane.vertex_pencils, A, B, bounded(raw[5][idx], q))
    return idx, (C1, A, Cq, B, D, C2, *(u[idx] for u in t))


def _exhaustive_bases(plane: LaguerrePlane, mode: CheckMode, n_slots: int,
                      tail: tuple[int, ...]):
    """The exhaustive blocks of the closures, one per circle C1 of `mode`
    and pencil selector.  Their head rows are each ordered base quadruple
    (a, c, b, d) of C1's points, C2 the selected circle of the pencil
    through (a, b), and each ordered tuple of `n_slots` (1 or 2) distinct
    member slots of C2 whose members are neither a nor b (slot g holds the
    point on generator g).  Every head row takes each index tuple of the shape
    `tail`, the closure's own choices, which the evaluator adds through
    `_with_tail` once it has dropped the heads that cannot meet the
    hypothesis.  Yields (raw count, C1, a, c, b, d, C2, *slots, tail) per
    block, its heads in the C order of the choice space."""
    members, VP, gen, q = plane.members, plane.vertex_pencils, plane.gen_of, plane.q
    ords = np.array(list(itertools.permutations(range(q + 1), 4)), dtype=np.int64)
    if not len(ords):
        return
    # raw axes per block: (ordering, *slots, *tail)
    n_raw = len(ords) * (q + 1) ** n_slots * math.prod(tail)
    slots = np.arange(q + 1)
    for C1 in _firsts(mode, plane.n_circles):
        A, Cq, B, D = (members[C1][ords[:, j]] for j in range(4))
        for sel in range(q):
            C2 = _gather(VP, A, B, sel)
            off = (slots != gen[A][:, None]) & (slots != gen[B][:, None])
            if n_slots == 2:
                off = off[:, :, None] & off[:, None, :] & (slots[:, None] != slots)
            o, *s = np.nonzero(off)
            yield (n_raw, np.full(len(o), C1), A[o], Cq[o], B[o], D[o], C2[o], *s, tail)


def _tail_size(tail) -> int:
    """The rows `_with_tail` makes of each head row."""
    return 1 if isinstance(tail[0], np.ndarray) else math.prod(tail)


def _with_tail(tail, src, *cols):
    """Give each row of `cols`, the block's head rows `src`, the closure's
    own choices: `tail` holds them as arrays over the block's rows
    (sampled: one choice each), or as the shape of the index tuples that
    every head row takes in C order (exhaustive: each row repeats).
    Returns the block row of each new row, `cols` and the choice arrays
    on the new rows."""
    if isinstance(tail[0], np.ndarray):
        return (src, *cols, *(t[src] for t in tail))
    n = math.prod(tail)
    return (np.repeat(src, n), *(np.repeat(c, n) for c in cols),
            *(np.tile(t, len(src)) for t in np.indices(tail).reshape(len(tail), -1)))


def _completion(plane: LaguerrePlane, P, Q, X, target, known, slot):
    """The points Y of `target` with {P, Q} and {X, Y} concyclic pairs
    (`_pairs_concyclic`), row by row; P ∦ Q, and `known` lies on `target`
    and, where that circle exists, on (P, X, Q)°.

    Where X ∥ P, Y is target's point on Q's generator, and where X ∥ Q,
    on P's.  Elsewhere Y is the second point, beside `known`, that
    (P, X, Q)° shares with `target`; there is none where they touch.
    Where (P, X, Q)° is `target` itself, each of its points completes the
    pairs: such a row takes the member slot that its raw draw in `slot`
    picks (sampled), or every slot in slot order when `slot` is None
    (exhaustive).

    Returns (rows, Y): each point Y and the index of its row, ascending.
    Y may be `known` itself (a parallel branch may land on it); callers
    drop such rows, as they drop every row whose points coincide.
    """
    gen, members = plane.gen_of, plane.members
    gx, gp, gq = gen[X], gen[P], gen[Q]
    cx = _gather(plane.triple_circle, P, X, Q)       # -1 where X ∥ P or X ∥ Q
    found = _gather(plane.pair_count, cx, target) == 2
    Y = _gather(plane.pair_sum, cx, target) - known
    par = np.flatnonzero((gx == gp) | (gx == gq))
    Y[par] = _gather(members, target[par], np.where(gx[par] == gp[par], gq[par], gp[par]))
    found[par] = True
    is_whole = cx == target
    whole = np.flatnonzero(is_whole)
    if slot is not None:
        Y[whole] = _gather(members, target[whole], bounded(slot[whole], plane.q + 1))
        found[whole] = True
    if slot is not None or not len(whole):
        rows = np.flatnonzero(found)
        return rows, Y[rows]
    counts = found.astype(np.intp)
    counts[whole] = plane.q + 1
    rows = np.repeat(np.arange(len(Y)), counts)
    Y = Y[rows]
    at = np.flatnonzero(np.repeat(is_whole, counts))
    Y[at] = _gather(members, target[rows[at]], np.tile(np.arange(plane.q + 1), len(whole)))
    return rows, Y


def _miquel_blocks(plane: LaguerrePlane, mode: CheckMode):
    """A circle C1 with an ordered base quadruple (a, c, b, d) of its
    points, C2 from the pencil through (a, b), and three member slots: e
    and h on C2, then g on C3 = (a,d,h)°; the evaluator derives f.
    Yields (raw count, a, c, b, d, C2, e slot, h slot, tail) per block,
    the tail being g's slot (`_with_tail`); sampled blocks add the raw
    draw of an f slot (raw[9]), read only where f is not unique
    (`_eval_miquel`).  Rows have a, c, b, d distinct and e, h distinct
    and off {a, b}."""
    q = plane.q
    if mode.is_sample:
        for raw in _sample_batches(mode, 10):
            idx, (_, *bases) = _sampled_bases(plane, raw, 2)
            yield raw.shape[1], *bases, (bounded(raw[8][idx], q + 1),), raw[9][idx]
    else:
        for n_raw, _, *cols in _exhaustive_bases(plane, mode, 2, (q + 1,)):
            yield n_raw, *cols


def _eval_miquel(plane, report, A, Cq, B, D, C2, se, sh, tail, sf=None):
    """Miquel closure on the choice arrays of `_miquel_blocks`.

    The ordered quadruple names follow the statement: hypothesis
    quadruples (a,c,b,d), (a,e,b,h), (a,g,d,h), (b,f,c,e), (c,g,d,f);
    conclusion (e,g,f,h).  C3 = (a,d,h)° and C4 = (b,c,e)° realize the
    third and fourth; f is the point of C4 that completes (c,g,d,f)
    (`_completion`), so every row of eight distinct points meets the
    hypothesis.  f is not unique only where C2 = C1: all eight points
    then lie on C1, and the row takes the slot its draw `sf` picks
    (sampled) or each slot (exhaustive, `sf` None).
    """
    gen, members, T3 = plane.gen_of, plane.members, plane.triple_circle
    E = _gather(members, C2, se)
    H = _gather(members, C2, sh)
    feasible = (gen[D] != gen[H]) & (gen[Cq] != gen[E])
    report.skipped += (len(E) - int(feasible.sum())) * _tail_size(tail)
    # the feasible heads, where (a,d,h) and (b,c,e) span circles (so e ≠ c
    # and h ≠ d), take g's slot, and go on if g is none of the six points
    # before it
    idx = np.flatnonzero(feasible & (E != D) & (H != Cq))
    A, Cq, B, D, C2, E, H = (v[idx] for v in (A, Cq, B, D, C2, E, H))
    C3 = _gather(T3, A, D, H)
    C4 = _gather(T3, B, Cq, E)
    src, A, Cq, B, D, C2, C3, C4, E, H, sg = _with_tail(
        tail, idx, A, Cq, B, D, C2, C3, C4, E, H)
    G = _gather(members, C3, sg)
    keep = np.ones(len(G), dtype=bool)
    for v in (A, B, Cq, D, E, H):
        keep &= G != v
    idx = np.nonzero(keep)[0]
    A, Cq, B, D, C2, C3, C4, E, H, G, src = (
        v[idx] for v in (A, Cq, B, D, C2, C3, C4, E, H, G, src))

    rows, F = _completion(plane, Cq, D, G, C4, Cq, None if sf is None else sf[src])
    A, Cq, B, D, C2, C3, C4, E, H, G = (
        v[rows] for v in (A, Cq, B, D, C2, C3, C4, E, H, G))
    hyp = F != A
    for v in (B, Cq, D, E, H, G):
        hyp &= F != v
    report.hypothesis_hits += int(hyp.sum())
    # conclusion (e,g,f,h) on pairs {e,f},{g,h}
    report.record(hyp & ~_pairs_concyclic(plane, E, F, G, H), lambda i: Violation(
        "miquel-closure",
        points=(int(A[i]), int(B[i]), int(Cq[i]), int(D[i]),
                int(E[i]), int(F[i]), int(G[i]), int(H[i])),
        circles=(int(C2[i]), int(C3[i]), int(C4[i]))))


def check_miquel(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Miquel closure: five concyclic quadruples of eight distinct points
    force the sixth."""
    return _sweep(plane, mode, "Miquel", _miquel_blocks, _eval_miquel)


def _six_point_collapse(plane, p1, p2, p3, p4, p5, p6):
    """Six points on one circle, or spread over at most two generators.

    Either collapse puts three of the four point-pairs on a single
    (possibly degenerate) section, which voids the closure statement:
    a third pair can then link two of the pencils without constraining
    the fourth at all.
    """
    gen, mem, T3 = plane.gen_of, plane.mem, plane.triple_circle
    t = _gather(T3, p1, p2, p3)
    tc = np.maximum(t, 0)
    on_circle = (t >= 0) & _gather(mem, tc, p4) & _gather(mem, tc, p5) & _gather(mem, tc, p6)
    gens = np.stack([gen[p] for p in (p1, p2, p3, p4, p5, p6)])
    lo, hi = gens.min(axis=0), gens.max(axis=0)
    two_gens = np.ones(len(p1), dtype=bool)
    for row in gens:
        two_gens &= (row == lo) | (row == hi)
    return on_circle | two_gens


def _bundle_blocks(plane: LaguerrePlane, mode: CheckMode):
    """A circle C1 with an ordered base quadruple (a, c, b, d) of its
    points, C5 from the pencil through (a, b) with its member e, then a
    selector of the pencil through (e, f) for C3 and a member g of C3; the
    evaluator derives f and h.  Yields (raw count, C1, a, c, b, d, C5,
    e slot, tail) per block, the tail being C3's selector and g's slot
    (`_with_tail`); sampled blocks add the raw draws of an f slot (raw[7])
    and an h slot (raw[10]), read only where f or h is not unique
    (`_eval_bundle`).  Rows have a, c, b, d distinct and e off {a, b}."""
    q = plane.q
    if mode.is_sample:
        for raw in _sample_batches(mode, 11):
            idx, bases = _sampled_bases(plane, raw, 1)
            yield (raw.shape[1], *bases, (bounded(raw[8][idx], q), bounded(raw[9][idx], q + 1)),
                   raw[7][idx], raw[10][idx])
    else:
        yield from _exhaustive_bases(plane, mode, 1, (q, q + 1))


def _eval_bundle(plane, report, C1, A, Cq, B, D, C5, se, tail, sf=None, sh=None):
    """Bundle closure on the choice arrays of `_bundle_blocks`.

    Circles realize three pair-hypotheses properly: C1 holds the base
    quadruple (a,c,b,d), C5 through a,b holds e,f (hypothesis (a,e,b,f)),
    C3 through e,f holds g,h (hypothesis (e,g,f,h)).  f is the point of
    C5 that completes (c,e,d,f), and h the point of C3 that completes
    (g,a,h,b) (`_completion`), each in its proper or its parallel-pair
    form.  f is not unique only where C5 = C1, and h only where C3 = C5:
    every point of the circle completes the hypothesis there, and the row
    takes the slot its draw `sf` or `sh` picks (sampled) or each slot
    (exhaustive, None).
    Conclusion: (c,g,d,h).

    General position is required and counted under `skipped`: no three of
    the pairs {a,b},{c,d},{e,f},{g,h} may collapse onto a single section
    (see `_six_point_collapse`); without that restriction the statement
    is false already on classical planes.
    """
    members = plane.members
    E = _gather(members, C5, se)
    # f depends on the head alone: derive it once per head, and let the
    # heads with six distinct points take C3's selector and g's slot
    rows, F = _completion(plane, Cq, D, E, C5, E, sf)
    keep = ((E != Cq) & (E != D))[rows] & (F != E[rows])
    for v in (A, B, Cq, D):
        keep &= F != v[rows]
    idx, F = rows[keep], F[keep]
    C1, A, Cq, B, D, C5, E = (v[idx] for v in (C1, A, Cq, B, D, C5, E))
    src, C1, A, Cq, B, D, C5, E, F, c3sel, sg = _with_tail(tail, idx, C1, A, Cq, B, D, C5, E, F)
    C3 = _gather(plane.vertex_pencils, E, F, c3sel)
    G = _gather(members, C3, sg)
    keep = np.ones(len(G), dtype=bool)
    for v in (A, B, Cq, D, E, F):
        keep &= G != v
    idx = np.nonzero(keep)[0]
    C1, A, Cq, B, D, C5, C3, E, F, G, src = (
        v[idx] for v in (C1, A, Cq, B, D, C5, C3, E, F, G, src))
    rows, H = _completion(plane, A, B, G, C3, G, None if sh is None else sh[src])
    C1, A, Cq, B, D, C5, C3, E, F, G = (v[rows] for v in (C1, A, Cq, B, D, C5, C3, E, F, G))
    # the eight distinct points alone go on: each row meets the hypotheses
    keep = H != G
    for v in (A, B, Cq, D, E, F):
        keep &= H != v
    idx = np.nonzero(keep)[0]
    C1, A, Cq, B, D, C5, C3, E, F, G, H = (
        v[idx] for v in (C1, A, Cq, B, D, C5, C3, E, F, G, H))

    # of the triples of pairs with {a,b}: {a,b},{c,d} lie on C1 alone and
    # {a,b},{e,f} on C5 alone, on four generators each, so such a triple
    # collapses exactly where its third pair lies on that circle too:
    # C5 = C1, C3 = C5, or g and h on C1
    collapsed = ((C5 == C1) | (C3 == C5) | (_gather(plane.mem, C1, G) & _gather(plane.mem, C1, H))
                 | _six_point_collapse(plane, Cq, D, E, F, G, H))
    report.skipped += int(collapsed.sum())
    hyp = ~collapsed
    report.hypothesis_hits += int(hyp.sum())

    # conclusion (c,g,d,h) on pairs {c,d},{g,h}
    report.record(hyp & ~_pairs_concyclic(plane, Cq, D, G, H), lambda i: Violation(
        "bundle-closure",
        points=(int(A[i]), int(B[i]), int(Cq[i]), int(D[i]),
                int(E[i]), int(F[i]), int(G[i]), int(H[i])),
        circles=(int(C5[i]), int(C3[i]))))


def check_bundle(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Bundle closure: five of the six pencil quadruples force the sixth."""
    return _sweep(plane, mode, "Bundle", _bundle_blocks, _eval_bundle)


# ---------------------------------------------------------------------------
# registry, sizes, replay
# ---------------------------------------------------------------------------

def _size_chain(plane):
    return math.prod(_chain_firsts(plane))


def _size_c(plane):
    return plane.n_circles * plane.n_circles * (plane.q + 1)


def _size_pi(plane):
    return math.prod(_pi_firsts(plane))


def _size_trio(plane):
    # unordered pairs of the q²−1 circles tangent to each base circle
    t = plane.q**2 - 1
    return plane.n_circles * t * (t - 1) // 2


def _size_transfer(plane):
    # the pairs of `_size_trio`; none on odd order, where the statement is
    # not applicable
    return _size_trio(plane) if plane.q % 2 == 0 else 0


def _size_miquel(plane):
    # choice space of the exhaustive generator: C1, ordered base quadruple,
    # pencil selector, and the e, h and g slots (invalid ones filtered);
    # f is derived
    q = plane.q
    perms = (q + 1) * q * (q - 1) * (q - 2)
    return plane.n_circles * perms * q * (q + 1) ** 3


def _size_bundle(plane):
    # C1, ordered base quadruple, C5 selector, e slot, C3 selector, g slot;
    # f and h are derived
    q = plane.q
    perms = (q + 1) * q * (q - 1) * (q - 2)
    return plane.n_circles * perms * (q * (q + 1)) ** 2


# -- scalar witness replay -------------------------------------------------

def _replay_chain(check_id, plane, v):
    a, b, c, d = v.points
    K, L, M, N = v.circles
    for pair, pt in (((K, L), a), ((L, M), b), ((M, N), c), ((N, K), d)):
        t = plane.tangency(pair[0], pair[1])
        if not (t.kind == "tangent" and t.points == (pt,)):
            return False
    if check_id == "S":
        return (not plane.parallel(a, c)) and not plane.properly_concyclic((a, b, c, d))
    if check_id == "Prop22":
        return plane.parallel(a, c) and not plane.parallel(b, d)
    return not plane.concyclic(a, c, b, d)


def _replay_c(plane, v):
    (p,), (K, L) = v.points, v.circles
    if plane.mem[L, p] or K == L:
        return False
    count = sum(1 for m in plane.tangent_pencil(p, K)
                if plane.tangency(m, L).kind == "tangent")
    return count != 1 and count == dict(v.data)["count"]


def _replay_trio(plane, v):
    K, L, M = v.circles
    touches = [plane.tangency(K, L), plane.tangency(K, M), plane.tangency(L, M)]
    if any(t.kind != "tangent" for t in touches):
        return False
    return len({t.points[0] for t in touches}) > 1


def _replay_transfer(plane, v):
    M, K, L = v.circles
    if plane.tangency(M, K).kind != "tangent" or plane.tangency(M, L).kind != "tangent":
        return False
    t = plane.tangency(K, L)
    return t.kind == "secant"


def _replay_pi_family(check_id, plane, v):
    a, b, c, x = v.points
    C1 = plane.circle_through(a, b, c)
    if plane.mem[C1.id, x]:
        return False
    p = plane.parallel_point(c, plane.circle_through(a, b, x))
    qpt = plane.parallel_point(b, plane.circle_through(a, c, x))
    K = plane.tangent_circle(a, C1, x)
    if check_id == "Pi":
        C2 = plane.circle_through(p, qpt, x)
        t = plane.tangency(K, C2)
        return not (t.kind == "tangent" and t.points == (x,))
    if check_id == "PiPrime":
        if plane.mem[K.id, qpt]:
            return False
        L = plane.tangent_circle(x, K, qpt)
        t = plane.tangency(L, plane.circle_through(a, b, x))
        if t.kind != "secant":
            return True
        others = [pt for pt in t.points if pt != x]
        return len(others) != 1 or not plane.parallel(others[0], c)
    if qpt == b:
        return False
    Cqpx = plane.circle_through(qpt, p, x)
    N = plane.tangent_circle(p, Cqpx, b)
    t = plane.tangency(N, C1)
    return not (t.kind == "tangent" and t.points == (b,))


def _replay_miquel(plane, v):
    # quadruples read set-wise: a circle or a degenerate section (two
    # parallel pairs in either matching)
    a, b, c, d, e, f, g, h = v.points
    hyps = [(a, c, b, d), (a, e, b, h), (a, g, d, h), (b, f, c, e), (c, g, d, f)]
    if len({a, b, c, d, e, f, g, h}) != 8:
        return False
    if not all(plane.concyclic_some_order(*quad) for quad in hyps):
        return False
    return not plane.concyclic_some_order(e, g, f, h)


def _replay_bundle(plane, v):
    a, b, c, d, e, f, g, h = v.points
    hyps = [(a, c, b, d), (c, e, d, f), (e, g, f, h), (g, a, h, b), (a, e, b, f)]
    if len({a, b, c, d, e, f, g, h}) != 8:
        return False
    if not all(plane.concyclic_some_order(*quad) for quad in hyps):
        return False
    pairs = [(a, b), (c, d), (e, f), (g, h)]
    for i, j, k in itertools.combinations(range(4), 3):
        six = pairs[i] + pairs[j] + pairs[k]
        if plane.properly_concyclic(six) or len({int(plane.gen_of[p]) for p in six}) <= 2:
            return False
    return not plane.concyclic_some_order(c, g, d, h)


def _run_axioms(plane, mode):
    # the axiom validator is cheap and always runs exhaustively
    return plane.validate_axioms()


def _replay_axioms(plane, v):
    # validated again, not read from the plane's kept report: a second route
    fresh = _validate(plane)
    return any(w.kind == v.kind for w in fresh.violations) or not fresh.holds


@dataclass(frozen=True)
class CheckerSpec:
    """Everything known about one check id: how to run it, the size of its
    exhaustive choice space, and how to replay its witnesses."""

    check_id: str
    run: callable       # (plane, mode) -> CheckReport
    size: callable      # plane -> configurations of an exhaustive run
    # numbers of witness points and circles the replay reads; None: not read
    witness: tuple[int | None, int | None]
    replay: callable    # (plane, violation) -> the witness still shows a violation
    data: tuple[str, ...] = ()  # keys of `Violation.data` the replay reads


CHECKERS = {spec.check_id: spec for spec in (
    CheckerSpec("C", check_C, _size_c, (1, 2), _replay_c, ("count",)),
    CheckerSpec("S", check_S, _size_chain, (4, 4), partial(_replay_chain, "S")),
    CheckerSpec("Prop21", check_prop_2_1, _size_trio, (None, 3), _replay_trio),
    CheckerSpec("Prop22", check_prop_2_2, _size_chain, (4, 4), partial(_replay_chain, "Prop22")),
    CheckerSpec("Cor21", check_cor_2_1, _size_chain, (4, 4), partial(_replay_chain, "Cor21")),
    CheckerSpec("Prop11", check_prop_1_1, _size_transfer, (None, 3), _replay_transfer),
    CheckerSpec("Pi", check_pi, _size_pi, (4, None), partial(_replay_pi_family, "Pi")),
    CheckerSpec("PiPrime", check_pi_prime, _size_pi, (4, None),
                partial(_replay_pi_family, "PiPrime")),
    CheckerSpec("Thm23", check_thm_2_3, _size_pi, (4, None), partial(_replay_pi_family, "Thm23")),
    CheckerSpec("Miquel", check_miquel, _size_miquel, (8, None), _replay_miquel),
    CheckerSpec("Bundle", check_bundle, _size_bundle, (8, None), _replay_bundle),
)}

CHECK_IDS = tuple(CHECKERS)

# every check id the CLI runs and replays: the axiom validator (whose size
# is never refused and whose witnesses are matched by kind) first, then
# the statement checkers
SPECS = {"Axioms": CheckerSpec("Axioms", _run_axioms, lambda plane: 0, (None, None),
                               _replay_axioms)} | CHECKERS


def exhaustive_size(plane: LaguerrePlane, check_id: str) -> int:
    """A-priori size of the checker's exhaustive choice space."""
    return SPECS[check_id].size(plane)


def witness_problem(plane: LaguerrePlane, check_id: str, v: Violation) -> str | None:
    """Why `replay_violation` cannot read `v` as a witness of `check_id`.

    The witness must have the numbers of points and circles its checker's
    replay reads (`CheckerSpec.witness`), ids of points and circles of
    `plane`, and the data keys it reads (`CheckerSpec.data`).  Returns
    None when it may be replayed.
    """
    spec = SPECS.get(check_id)
    if spec is None:
        return f"no replay known for check {check_id!r}"
    for name, want, got in zip(("points", "circles"), spec.witness, (v.points, v.circles)):
        if want is not None and len(got) != want:
            return f"{name}: {check_id} witnesses have {want}, this one {len(got)}"
    for name, ids, n in (("point", v.points, plane.n_points),
                         ("circle", v.circles, plane.n_circles)):
        for i in ids:
            if not 0 <= i < n:
                return f"{name} id {i} is outside 0..{n - 1}"
    for key in spec.data:
        if key not in dict(v.data):
            return f"a {check_id} witness needs its {key} in data"
    return None


def replay_violation(plane: LaguerrePlane, check_id: str, v: Violation) -> bool:
    """Re-validate a recorded violation through scalar incidence operations.

    Returns True when the witness still demonstrates a violation on the
    given plane; a degenerate configuration (parallel points where the
    statement needs non-parallel ones, a point off its circle) shows none.
    """
    if check_id not in SPECS:
        raise ValueError(f"no replay known for check {check_id!r}")
    try:
        return SPECS[check_id].replay(plane, v)
    except LaguerreError:
        return False
