"""Configuration-theorem checkers over a finite Laguerre plane.

Every checker enumerates (exhaustively, in canonical index order) or
samples (via the counter-based splitmix64 stream) configurations built
CONSTRUCTIVELY: circles and points are chosen step by step so that the
statement's hypotheses hold by construction wherever possible, because
random point tuples almost never satisfy them.  Each checker documents
its choice space; `exhaustive_size` reports its a-priori size so callers
can refuse oversized exhaustive runs.

Each statement checker is one `_sweep` of an evaluator over blocks, a
block being the choice arrays its evaluator reads.  A sampled chunk is
one block, made by the checker's block maker `blocks(plane, mode)` from
the chunk's view; an exhaustive part's blocks come from its family of
first choices (`firsts`), `family.blocks`.  A block holds only the rows
that can meet the statement's constructive hypothesis, with the values
its whole family reads (a chain's corner d; C's pencil counts; p, q and
K′ of the symmetry configuration).  `_sweep` alone counts
`configurations`, every choice of what it sweeps, kept or not: a chunk's
rows, or an exhaustive part's first choices times the raw configurations
of each, so an exhaustive `configurations` is `exhaustive_size`.  The evaluator
`evaluate(plane, report, *arrays)` tests the statement, the same code in
both modes, on flat rows or on arrays that broadcast (`_entry` reads a
witness of either).  Blocks and evaluators read a plane index with
one id array per axis through `_gather`, one `take` at the flat offset.
A sampled block reads its choices from its chunk's `_Draws` view
(`_draws`), which draws a choice column only when it is read, and only
for the rows a filter kept: Prop22 draws K and the choices of
L, b, M and N for its c ∥ a rows alone, the closures C1, C2 and their
tails for the rows whose slots passed `_sampled_bases`.  Points are read
for kept rows alone too: a sampled chain's corners for its closed chains,
Prop21's touch points for its hypothesis rows, in either mode.

The two closures, Miquel and Bundle, share their base rows (a circle
C1, an ordered quadruple of its points and a circle C2 of the pencil
through the first two: `_sampled_bases`, `_ClosureFirsts`) and add only
their own choices, the tail of each such head row.  An evaluator takes
the tail (`_with_tail`) after it has dropped the heads that cannot meet
the hypothesis, so an exhaustive head that fails is never repeated once
per tail.  A point that a hypothesis fixes is derived, not chosen:
`_completion` finds the point of a circle that completes two point pairs
to a concyclic quadruple (Miquel's f, Bundle's f and h), so neither its
slot nor a filter on it costs a draw or a row.  Only where every point of
that circle completes the pairs does a row take a drawn slot (sampled)
or each slot (exhaustive).  Each conclusion that relates two point pairs
is one `_pairs_concyclic` test: the pairs lie on one circle or split
into two parallel pairs.  Every evaluator records its violations through
`CheckReport.record`.

Every exhaustive sweep reads its blocks from a family of first choices
(`_Family`): the circle K of C, Prop21 and the chains, M of Prop11, the
point a of the Pi family, a circle C1 and a pencil selector of the
closures.  A family counts its first choices and the raw configurations
of each, so `exhaustive_size` is their product.  `_sweep` alone sizes
the blocks: it cuts an exhaustive mode into parts of one chunk of
evaluator rows or one first choice, `CheckMode` views with `start` and
`count` over a range of first choices (`_firsts`), and each part is one
block of its family, a chain window sliced by group size aside, so an
evaluator's fixed numpy cost is paid per chunk.  Every family but the
chains' and C's writes a part's rows into the row buffers that each
sweep thread makes once and reuses (`_Rows`).  A sampled sweep runs its
chunks of `_SAMPLE_CHUNK` stream rows on up to two threads, and so does
an exhaustive chain or Pi sweep its parts from q=7, where one first
choice covers a chunk of raw configurations; any other exhaustive sweep
runs its parts on the calling thread.  The partial reports merge in
order, so a report does not depend on the thread count or the cut
(`_sweep`).  A Pi first choice a writes its rows per (b, c) pair, b, c
and C1 once into the pair's (q−1)(q−2) rows (`_PiFirsts`).  Pi and
PiPrime are symmetric in b and c, so they read only the pairs with b < c
and count each row for itself and its mirror (a, c, b, x); Thm23 reads
every row.  The chains, one family for S, Prop22 and Cor21, write no
rows: a closed chain K—L—M—N is an ordered pair (L, N) of the circles
tangent to both K and M, the double tangency pencil of K and M, so a
chain part is a window of circles, sliced into blocks that are outer
products of such groups and whose arrays broadcast (`_ChainFirsts`); its
witnesses are ranked into the order of the raw space (`_chain_ranks`).
A C part is one block that broadcasts over (K, slot of p, L), its pencil
counts summed from whole `pair_code` rows (`_CFirsts`).  Generators are
looked up with `gen_of.take(ids)`, about twice as fast as `gen_of[ids]`
on int16 ids; tallies count by `np.count_nonzero`, in Python ints.

Checkers are pure functions of (plane, mode): reports are byte-identical
across runs apart from elapsed time.  Every recorded violation can be
re-validated through the scalar incidence operations alone (see
`replay_violation`), independently of the vectorized sweep that found it.

Every check id, the axiom validator's included, is resolved by one
`CheckerSpec` in `SPECS`: how to run it, its family of exhaustive first
choices (and so its exhaustive size), the shape of its witnesses and
their replay.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .errors import LaguerreError
from .plane import (LaguerrePlane, meet_count, meet_sum, secant_code, touch_code,
                    validate_laguerre_axioms)
from .report import MAX_VIOLATIONS, CheckMode, CheckReport, Violation
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

# Rows per sampled chunk or exhaustive part, and the threads that run a
# sweep's parts, min(2, available CPUs): each thread holds one part's
# arrays, so at most 131,072 rows are in flight
_SAMPLE_CHUNK = 1 << 16
_THREADS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


def _sweep(plane: LaguerrePlane, mode: CheckMode, check_id: str, blocks, evaluate,
           firsts) -> CheckReport:
    """The report of `evaluate(plane, report, *arrays)` over every block
    of `mode`, the arrays its evaluator reads.  Here alone a report counts
    its configurations, and here alone a mode is cut into parts, each swept
    into its own partial report: `_in_order` runs them, and the partial
    reports merge in order (`CheckReport.merge`), so a report does not
    depend on the thread count or the cut.

    A sampled mode is cut into chunk views of `_SAMPLE_CHUNK` stream rows
    (`CheckMode.start`), each the one block `blocks(plane, view)` of its
    `count` rows, on `_THREADS` threads.  A chunk's columns are drawn as
    they are read (`_draws`), so the two chunks in flight take about the
    bytes of one chunk drawn whole.

    An exhaustive mode is cut into views of max(1, `_SAMPLE_CHUNK` // r)
    first choices of the family `firsts(plane)`, r = `family.rows` the
    evaluator rows of one first choice at most, so that a view holds a
    chunk of them or one first choice.  A view covers its first choices
    times `family.raw`, so an exhaustive run's configurations are
    `exhaustive_size`.  A part's blocks are `family.blocks`, written into
    the row buffers of the thread that sweeps it (`_Rows`), made when it
    takes its first part and dropped when the sweep returns.  The parts run
    on `_THREADS` threads where one first choice covers at least a chunk of
    raw configurations (`family.read`), from q=7 for the chains and the Pi
    family; every other exhaustive sweep, on parts of a few milliseconds,
    runs faster on the calling thread alone (CHANGES.md)."""
    family = None if mode.is_sample else firsts(plane)
    local = threading.local()

    def sweep_part(part: CheckMode) -> CheckReport:
        report = CheckReport(check_id=check_id, mode=mode)
        if family is None:
            report.configurations = part.count
            evaluate(plane, report, *blocks(plane, part))
            return report
        if not hasattr(local, "rows"):
            local.rows = _Rows()
        todo = _firsts(part, family.n)
        report.configurations = len(todo) * family.raw
        for arrays in family.blocks(todo, local.rows):
            evaluate(plane, report, *arrays)
            del arrays      # free this block before the generator builds the next
        return report

    t0 = time.perf_counter()
    if mode.is_sample:
        todo, k, threads = range(mode.count), _SAMPLE_CHUNK, _THREADS
    else:
        todo = _firsts(mode, family.n)
        k = max(1, _SAMPLE_CHUNK // max(1, family.rows))
        threads = _THREADS if family.read >= _SAMPLE_CHUNK else 1
    # views of k stream rows or first choices each
    parts = [replace(mode, start=todo[j], count=len(todo[j:j + k]))
             for j in range(0, len(todo), k)]
    report = CheckReport(check_id=check_id, mode=mode)
    for part in _in_order(sweep_part, parts, threads):
        report.merge(part)
    report.elapsed_seconds = time.perf_counter() - t0
    return report.finalize()


class _Family:
    """The exhaustive first choices of a checker: `n` of them, each with
    `raw` configurations of the choice space, so the space holds n·raw.
    `blocks(firsts, rows)` yields the blocks of the first choices of one
    part of a sweep, a range `firsts` (`_sweep`): here one block,
    (*arrays, *extra), the arrays of `rows` by `names`, into which
    `write(f, rows, o)` writes the rows of each first choice f that can
    meet the hypothesis at row o and returns their number.  `rows` is the
    most evaluator rows one first choice makes, by which `_sweep` sizes a
    part: `raw` for C, and for Prop21 and Prop11, above the rows Prop21
    keeps.  `read` is the raw space of a family that threads, else 0.
    This base class alone is the family of no first choice."""

    n = raw = read = rows = 0
    names = extra = ()

    def blocks(self, firsts: range, rows: _Rows):
        held = 0
        for f in firsts:
            held += self.write(f, rows, held)
        yield *(rows.block(name, 0, held) for name in self.names), *self.extra


class _Rows(dict):
    """The row buffers of one thread of a sweep: the int16 arrays of the
    blocks it builds, by name.  They keep their size from one block to the
    next, so a sweep's blocks take no fresh pages once the first has set
    it; the arrays a first choice reads its rows from are freed and
    allocated again at the same sizes, which the allocator reuses."""

    def block(self, name: str, o: int, r: int) -> np.ndarray:
        """Entries o..o+r-1 of the block array `name`, which grows to o+r
        entries where it is shorter, keeping the entries it holds."""
        buf = self.get(name)
        if buf is None or len(buf) < o + r:
            grown = np.empty(o + r, dtype=np.int16)
            if buf is not None:
                grown[:len(buf)] = buf
            buf = self[name] = grown
        return buf[o:o + r]


def _in_order(run, parts, threads: int) -> list:
    """`[run(part) for part in parts]` on T = min(threads, len(parts))
    threads, the calling one and T − 1 made for this call.  Each thread
    takes the first part not yet taken, so each holds one part at a time.
    Where parts raise, no part is taken after that and the first in order
    raises here; no thread outlives the call.

    Taken parts, not fixed shares, so that a thread starved of the
    interpreter lock holds up no share of the others; and the caller
    works instead of waiting on a pool, which held more memory and ran
    the median operation slower (CHANGES.md)."""
    T = min(threads, len(parts))
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
    the flat offset (i0·s1 + i1)·s2 + ...: numpy's multi-axis fancy
    gather runs slower (CHANGES.md).  The indexes broadcast against each
    other, a later one may widen the offsets (a chain block's corners
    (s, 1, G) and (1, s, G) make (s, s, G) offsets), and a negative id
    wraps as in `table[idx]` in the first axis only.

    Offsets keep the ids' own dtype, at least int32, which holds every
    offset of a plane's tables (`plane`'s size limit): the first multiply
    casts the ids into it, and the other steps run in place where no index
    widens them (`_widen_add`).  `take` reads int32 offsets through an
    intp copy, a transient of the offsets' size freed before it returns,
    and still runs faster than indexing (CHANGES.md)."""
    off = idx[0]
    if len(idx) > 1:
        off = np.multiply(off, table.shape[1], dtype=np.result_type(*idx, np.int32))
        off = _widen_add(off, idx[1])
    for i, s in zip(idx[2:], table.shape[2:]):
        off *= s
        off = _widen_add(off, i)
    return table.reshape(-1, *table.shape[len(idx):]).take(off, axis=0)


def _widen_add(off: np.ndarray, i) -> np.ndarray:
    """off + i, in place unless i widens off: numpy refuses to broadcast
    an output, and a shape test on every call would cost more."""
    try:
        off += i
    except ValueError:
        off = off + i
    return off


def _entry(v: np.ndarray, shape: tuple, i: int) -> int:
    """The entry of v at the flat index i of `shape`, which v broadcasts
    to: an axis of length 1 is read at 0."""
    at = np.unravel_index(i, shape)
    return int(v[tuple(x % w for x, w in zip(at, v.shape))])


def _firsts(mode: CheckMode, n: int) -> range:
    """The first choices an exhaustive mode sweeps, of the n of its family:
    all of them, or those of a view (`CheckMode.start`, `count`).  Every
    exhaustive sweep takes its first choices, and each part of it its
    own, from here (`_sweep`)."""
    return range(n) if mode.count is None else range(mode.start, mode.start + mode.count)


class _Draws:
    """The draws of some sample rows, k per row, each column drawn when it
    is read: `raw[j]` is choice j of every row, `raw[:, keep]` the view of
    the rows at the indexes `keep`, and `raw.column(j)` a view of choice j
    alone.  `shape` is (k, rows), that of the (draws, rows) array it stands
    for.

    Choice j of the row numbered i is stream draw first + i·step + j, the
    rows numbered 0.. `rows` where that is a count, or those of an int
    array: a column is one `draw_block` either way, a range with step
    `step` or the same call with the row numbers in place of the count."""

    def __init__(self, seed: int, k: int, first: int, rows, step: int):
        self.seed, self.first, self.rows, self.step = seed, first, rows, step
        self.shape = (k, rows if isinstance(rows, int) else len(rows))

    def __getitem__(self, key):
        if isinstance(key, tuple):
            keep = key[1] if isinstance(self.rows, int) else self.rows[key[1]]
            return _Draws(self.seed, self.shape[0], self.first, keep, self.step)
        return draw_block(self.seed, self.first + key, self.rows, self.step)

    def column(self, j: int) -> "_Draws":
        """Choice j of these rows, as a view of one choice per row."""
        return _Draws(self.seed, 1, self.first + j, self.rows, self.step)


def _draws(mode: CheckMode, k: int) -> _Draws:
    """The `_Draws` view of the rows of a sampled mode, a chunk view of
    `_sweep`, k choices per row: choice j of sample row r is stream draw
    r·k + j.  A column is drawn only when a block maker reads it, for all
    of the rows or for the rows a filter kept, so no draw of a dropped row
    is made before its filter."""
    return _Draws(mode.seed, k, mode.start * k, mode.count, k)


# ---------------------------------------------------------------------------
# tangency-chain checks: the four-chain closure statement, its parallel
# degeneration, and the combined concyclicity corollary
# ---------------------------------------------------------------------------

_CHAIN_DRAWS = 7


def _chain_blocks(plane: LaguerrePlane, mode: CheckMode, c_parallel_a: bool = False):
    """Closed chains K—L—M—N with consecutive circles tangent (corners a,b,c,d).

    Choice space: K, a in K, L tangent to K at a, b in L, M tangent to L
    at b, c in M, N tangent to M at c; the chain closes when |N ∩ K| = 1.
    The block of a chunk view `mode` is (K, a, L, b, M, c, N, d), flat
    arrays over its closed chains alone, d = N ∩ K their fourth corner.
    With `c_parallel_a` (Prop22's hypothesis) it holds only the closed
    chains with c ∥ a, c in the slot of M equal to a's (the slot of a
    point on a circle is its generator): a row with other slots is dropped
    before c and N are read.  A row's circles are read through the slots of a, b and c,
    and the corners from those slots for the closed chains alone, about 8%
    of the rows at q=13.  Sampled only: the exhaustive chains are the
    outer products of `_ChainFirsts`' groups.
    """
    po, members, pc = plane.pencil_others, plane.members, plane.pair_code
    q, m = plane.q, plane.q - 1
    raw = _draws(mode, _CHAIN_DRAWS)
    sa, sc = bounded(raw[1], q + 1), bounded(raw[5], q + 1)
    if c_parallel_a:
        keep = np.flatnonzero(sc == sa)
        raw, sa, sc = raw[:, keep], sa[keep], sc[keep]
    K = bounded(raw[0], plane.n_circles)
    L = _gather(po, K, sa, bounded(raw[2], m))
    sb = bounded(raw[3], q + 1)
    M = _gather(po, L, sb, bounded(raw[4], m))
    N = _gather(po, M, sc, bounded(raw[6], m))
    code = _gather(pc, N, K)
    idx = np.flatnonzero(meet_count(code) == 1)
    K, L, M, N, sa, sb, sc, code = (v.take(idx) for v in (K, L, M, N, sa, sb, sc, code))
    return (K, _gather(members, K, sa), L, _gather(members, L, sb), M,
            _gather(members, M, sc), N, meet_sum(code))


class _ChainFirsts(_Family):
    """The exhaustive first choices of the chains, the circles K, each with
    the raw (a, L, b, M, c, N) choices of `_chain_blocks`; one family for
    S, Prop22 and Cor21.

    A chain K—L—M—N closes exactly where L and N both touch K and M: where
    both lie in the group of (K, M), the double tangency pencil of K and M
    without them, or every circle tangent to K for M = K.  K's closed
    chains through M are so the ordered pairs (L, N) of that group, with
    the corners a = touch(K, L), b = touch(L, M), c = touch(M, N), which is
    N's b, and d = touch(N, K), N's a: a block is the outer product of its
    groups' (a, b) columns, and no chain is written row by row.  At odd
    order a group holds q−2, q−1 or q+1 circles for M tangent to, secant to
    or disjoint from K, and q²−1 for M = K.

    A block's arrays broadcast over (L, N, group), the groups innermost,
    where it holds at least s groups of s circles, and over (group, L, N)
    where it holds fewer, as in characteristic 2, whose groups hold about q²
    circles; it holds at most a chunk of chains, or one group.
    `_chain_ranks` orders its violators for the witnesses."""

    def __init__(self, plane: LaguerrePlane):
        self.plane, self.sm = plane, (plane.q + 1) * (plane.q - 1)
        # a circle K's rows are the (L, M) pairs it groups
        self.n, self.raw, self.rows = plane.n_circles, self.sm ** 3, self.sm ** 2
        self.read = self.raw

    def blocks(self, firsts: range, rows: _Rows):
        """The blocks (K, a, L, b, M, c, N, d, ranks) of the circles K of
        `firsts`, one window, slices of its groups of one size each.  A
        window holds fewer than 2^15 (K, M) groups, the ids its int16 keys
        and its sort hold; a larger one raises.

        A window reads the circles M touching each of its circles L, the
        rows of `pencil_others[L]`, in K's (a, L) order.  One sort of these
        pairs by the rank of their group in (size, K, M) order lays out
        each group's pairs in K's (a, L) order and the groups of one size
        side by side, so a block is a slice of the window's sorted arrays."""
        plane, sm, n_c = self.plane, self.sm, self.plane.n_circles
        k0, k = firsts.start, len(firsts)
        if k * n_c >= 2 ** 15:
            raise ValueError(f"a window of {k} circles holds {k * n_c} groups, "
                             "2^15 or more")
        pos = plane.pencil_others.reshape(n_c, sm)
        # touch[X·sm + i]: X's point touching pos[X, i]
        touch = np.repeat(plane.members, plane.q - 1, axis=1).reshape(-1)
        L0 = pos[k0:k0 + k].reshape(-1)            # flat (K, row of L)
        # each pair's group k·n_c + M, k its circle K's place in the window
        key = pos.take(L0, axis=0).reshape(k, -1)
        key += np.arange(0, k * n_c, n_c, dtype=np.int16)[:, None]
        sizes = np.bincount(key.reshape(-1), minlength=k * n_c)
        # the groups in (size, K, M) order, by one sort of size·2^15 + id,
        # and each one's rank in that order
        groups = np.sort(sizes << 15 | np.arange(k * n_c)) & (2 ** 15 - 1)
        n = k * sm * sm
        bits = (n - 1).bit_length()
        dtype = np.int32 if 15 + bits < 32 else np.int64
        rank = np.empty(k * n_c, dtype=dtype)
        rank[groups] = np.arange(k * n_c, dtype=dtype)
        # the pairs by their groups' ranks, in K's (a, L) order within
        # each, by one sort of rank·2^bits + place: flat (K, row of L,
        # row of M) in K's pencils and L's
        o = rank.take(key.reshape(-1))
        # a window's arrays are freed once read: the windows of two
        # threads set a sweep's traced peak
        del key, rank
        o <<= bits
        o |= np.arange(n, dtype=dtype)
        o = np.sort(o)
        o &= (1 << bits) - 1
        at = o.astype(np.intp)
        L = np.repeat(L0, sm).take(at)
        A = np.repeat(touch[k0 * sm:(k0 + k) * sm], sm).take(at)
        B = touch.reshape(n_c, sm).take(L0, axis=0).reshape(-1).take(at)
        del at
        counts = np.bincount(sizes)
        p, h = 0, int(counts[0])                    # the first pair and group of size s
        for s in np.flatnonzero(counts[1:]).tolist():
            s, count = s + 1, int(counts[s + 1])
            per = max(1, _SAMPLE_CHUNK // (s * s))
            for h0 in range(h, h + count, per):
                G = min(per, h + count - h0)
                g = groups[h0:h0 + G]
                yield self._block(k0, k0 + g // n_c, g % n_c, *(
                    v[p:p + G * s].reshape(G, s) for v in (L, A, B, o)))
                p += G * s
            h += count

    def _block(self, k0, K, M, L, A, B, o):
        """The block of G groups (K, M) of a window from circle k0, with
        (G, s) arrays over their rows: L, a, b, and the flat (K, row of L,
        row of M) of each in the window."""
        K, M = K.astype(np.int16), M.astype(np.int16)
        inner = len(K) >= L.shape[1]
        ranks = partial(_chain_ranks, self.plane, inner, k0, K, M, L, B, o)
        if inner:       # (L, N, group)
            L, A, B = (np.ascontiguousarray(v.T) for v in (L, A, B))
            lside, nside, group = np.s_[:, None, :], np.s_[None, :, :], np.s_[None, None, :]
        else:           # (group, L, N)
            lside, nside, group = np.s_[:, :, None], np.s_[:, None, :], np.s_[:, None, None]
        return (K[group], A[lside], L[lside], B[lside], M[group], B[nside], L[nside],
                A[nside], ranks)


def _chain_ranks(plane, inner, k0, K, M, L, B, o, mask, worst):
    """The violators `mask` of a chain block that may rank below `worst`,
    and their ranks, for `CheckReport.record`: the C order of the raw
    space, K first, then over (row of L in K's pencils, row of M in L's,
    row of N in M's).  The block's groups (K, M) with (G, s) arrays over
    their rows (L, b, and o, the flat (K, row of L, row of M) of each in
    the window from circle k0) broadcast over (L, N, group) where `inner`,
    else over (group, L, N).  The key K·sm + row of L and M's row are read
    from o; N's row is searched in M's pencil at c, and only for the
    violators whose key is among the least that can still be witnesses."""
    m = plane.q - 1
    sm = (plane.q + 1) * m
    # keys from the window's first circle; the groups come in K order
    cut = None if worst is None else worst // (sm * sm) - k0 * sm
    if cut is not None and int(K[0] - k0) * sm > cut:
        return np.empty(0, np.intp), np.empty(0, np.int64)
    f = np.flatnonzero(mask)
    G, s = L.shape
    if inner:   # f = (i·s + j)·G + g
        i, j, g = f // (s * G), f // G % s, f % G
    else:       # f = (g·s + i)·s + j
        g, i, j = f // (s * s), f // s % s, f % s
    lrow, nrow = g * s + i, g * s + j
    key, jm = np.divmod(o.reshape(-1).take(lrow).astype(np.int64), sm)
    if len(f) > MAX_VIOLATIONS:
        least = int(np.partition(key, MAX_VIOLATIONS - 1)[MAX_VIOLATIONS - 1])
        cut = least if cut is None else min(cut, least)
    if cut is not None:
        keep = np.flatnonzero(key <= cut)
        f, key, jm, nrow, g = f[keep], key[keep], jm[keep], nrow[keep], g[keep]
    N = L.reshape(-1).take(nrow)
    gc = plane.gen_of.take(B.reshape(-1).take(nrow))
    kn = gc.astype(np.int64) * m + np.count_nonzero(
        _gather(plane.pencil_others, M.take(g), gc) < N[:, None], axis=1)
    return f, ((key + k0 * sm) * sm + jm) * sm + kn


def _corner_coincides(A, B, C, D):
    """b or d equals another corner of the chain."""
    return (B == A) | (B == C) | (B == D) | (D == A) | (D == C)


def _on_abc(plane, A, B, C, D):
    """D lies on the circle through a, b, c (false where none exists)."""
    cid = _gather(plane.triple_circle, A, B, C)
    return (cid >= 0) & _gather(plane.mem, np.maximum(cid, 0), D)


def _spans_circle(plane, A, B, C, D):
    """S's conclusion: a corner repeats, or b ∦ d and d is on (a,b,c)°."""
    gen = plane.gen_of
    return _corner_coincides(A, B, C, D) | ((gen.take(B) != gen.take(D))
                                            & _on_abc(plane, A, B, C, D))


def _bd_parallel(plane, A, B, C, D):
    """Prop22's conclusion: b ∥ d."""
    return plane.gen_of.take(B) == plane.gen_of.take(D)


def _acbd_concyclic(plane, A, B, C, D):
    """Cor21's conclusion: (a,c,b,d) is concyclic in the generalized sense."""
    gen = plane.gen_of
    par_ac, par_bd = gen.take(A) == gen.take(C), gen.take(B) == gen.take(D)
    branch2 = par_ac & par_bd & (A != B)
    proper4 = ~par_ac & ~par_bd & _on_abc(plane, A, B, C, D)
    proper_set3 = ~(par_ac & (A != C))          # b or d coincides: only (a,c) can obstruct
    proper_ac = ~(par_bd & (B != D))            # a == c alone: only (b,d) can obstruct
    return branch2 | np.where(_corner_coincides(A, B, C, D), proper_set3,
                              np.where(A == C, proper_ac, proper4))


def _eval_chain(kind, plane, report, K, A, L, B, M, C, N, D, ranks=None):
    """The chain statement `kind` (s-, p22- or c21-chain) on the rows of
    `_chain_blocks`, or on a block of `_ChainFirsts`, whose arrays
    broadcast and whose `ranks` order its witnesses: S's hypothesis is
    a ∦ c, Prop22's c ∥ a, and every closed chain meets Cor21's."""
    conclusion = {"s-chain": _spans_circle, "p22-chain": _bd_parallel,
                  "c21-chain": _acbd_concyclic}[kind]
    ok = conclusion(plane, A, B, C, D)
    if kind == "c21-chain":
        hyp = True
        report.hypothesis_hits += ok.size
    else:
        par = plane.gen_of.take(A) == plane.gen_of.take(C)
        hyp = par if kind == "p22-chain" else ~par
        report.hypothesis_hits += int(np.count_nonzero(hyp))
    bad = np.greater(hyp, ok)           # hyp & ~ok in one pass

    def witness(i):
        k, a, l, b, m, c, n, d = (_entry(v, bad.shape, i) for v in (K, A, L, B, M, C, N, D))
        return Violation(kind, points=(a, b, c, d), circles=(k, l, m, n))

    report.record(bad, witness, ranks)


def check_S(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Closed tangency chains with non-parallel opposite corners a,c span a circle."""
    return _sweep(plane, mode, "S", _chain_blocks, partial(_eval_chain, "s-chain"), _ChainFirsts)


def check_prop_2_2(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Closed tangency chains with a parallel to c force b parallel to d."""
    return _sweep(plane, mode, "Prop22", partial(_chain_blocks, c_parallel_a=True),
                  partial(_eval_chain, "p22-chain"), _ChainFirsts)


def check_cor_2_1(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Every closed tangency chain has (a,c,b,d) concyclic in the generalized sense."""
    return _sweep(plane, mode, "Cor21", _chain_blocks, partial(_eval_chain, "c21-chain"),
                  _ChainFirsts)


# ---------------------------------------------------------------------------
# the unique-tangent-intersection axiom
# ---------------------------------------------------------------------------

def _c_blocks(plane: LaguerrePlane, mode: CheckMode):
    """Circles K, L and a point p of K: (K, L, slot of p in K, count), the
    block of a chunk view (`_c_counts`)."""
    q, n_c, raw = plane.q, plane.n_circles, _draws(mode, 3)
    K, L, sp = bounded(raw[0], n_c), bounded(raw[1], n_c), bounded(raw[2], q + 1)
    return K, L, sp, _c_counts(plane, K, L, sp)


def _c_counts(plane, K, L, sp) -> np.ndarray:
    """The uint8 count of the members of the pencil at (p, K), p in K's slot
    sp, that touch L, on rows: one member at a time, K itself first, for a
    (rows, q-1) table of offsets held more than a chunk's draws."""
    pc = plane.pair_code
    counts = (meet_count(_gather(pc, K, L)) == 1).astype(np.uint8)
    for others in np.ascontiguousarray(_gather(plane.pencil_others, K, sp).T):
        counts += meet_count(_gather(pc, others, L)) == 1
    return counts


class _CFirsts(_Family):
    """The exhaustive first choices of C, the circles K, each with its
    (slot of p, L) space."""

    def __init__(self, plane: LaguerrePlane):
        self.plane, self.n, self.raw = plane, plane.n_circles, (plane.q + 1) * plane.n_circles
        self.rows = self.raw

    def blocks(self, firsts: range, rows: _Rows):
        """The one block (K, L, slot of p, count) of the circles K of
        `firsts`: its k circles K (k, 1, 1), every L (1, 1, n_c) and the
        slots (1, q+1, 1), broadcast over (K, slot, L).  Each pencil member adds
        to the counts from one take of whole `pair_code` rows, faster than
        flat offsets (CHANGES.md)."""
        plane, q, n_c = self.plane, self.plane.q, self.plane.n_circles
        K = np.arange(firsts.start, firsts.stop, dtype=np.int16)
        counts = np.zeros((len(K), q + 1, n_c), dtype=np.uint8)
        for member in (K[:, None], *np.moveaxis(plane.pencil_others.take(K, axis=0), 2, 0)):
            counts += meet_count(plane.pair_code.take(member, axis=0)) == 1
        yield (K[:, None, None], np.arange(n_c, dtype=np.int16)[None, None, :],
               np.arange(q + 1, dtype=np.int16)[None, :, None], counts)


def _one_tangent(counts):
    """C's conclusion: exactly one member of the pencil touches L."""
    return counts == 1


def _eval_c(plane, report, K, L, sp, counts):
    """C on a block of `_c_blocks`, flat rows, or of `_CFirsts`, whose
    arrays broadcast over (K, slot, L)."""
    P = _gather(plane.members, K, sp)
    hyp = (K != L) & ~_gather(plane.mem, L, P)
    report.hypothesis_hits += int(np.count_nonzero(hyp))
    report.record(hyp & ~_one_tangent(counts), lambda i: Violation(
        "tangent-count", points=(_entry(P, hyp.shape, i),),
        circles=(_entry(K, hyp.shape, i), _entry(L, hyp.shape, i)),
        data=(("count", _entry(counts, hyp.shape, i)),)))


def check_C(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """For circles K,L and p in K minus L: exactly one member of the
    tangent pencil at (p,K) meets L in exactly one point."""
    return _sweep(plane, mode, "C", _c_blocks, _eval_c, _CFirsts)


# ---------------------------------------------------------------------------
# pairwise-tangent triples, and the characteristic-2 tangency transfer
# ---------------------------------------------------------------------------

def _sampled_tangent_pairs(plane: LaguerrePlane, mode: CheckMode):
    """(base circle, two members of its tangent pencils), the block of a
    chunk view."""
    po, q, raw = plane.pencil_others, plane.q, _draws(mode, 5)
    base = bounded(raw[0], plane.n_circles)
    return (base, _gather(po, base, bounded(raw[1], q + 1), bounded(raw[2], q - 1)),
            _gather(po, base, bounded(raw[3], q + 1), bounded(raw[4], q - 1)))


class _PairFirsts(_Family):
    """The exhaustive first choices of Prop21 and Prop11, the base circles,
    each with the unordered pairs {X, Y} of the q²−1 circles tangent to it
    (`raw`), in `triu_indices` order over their ids.  With `above` a base
    keeps only the pairs of circles above it: Prop21's statement is
    symmetric in its three circles, so each triple of pairwise tangent
    circles is evaluated once, from its least circle, as K < L < M.
    Prop11's is symmetric in K and L, so each pair is examined once."""

    names = ("base", "X", "Y")

    def __init__(self, plane: LaguerrePlane, above: bool):
        t = plane.q ** 2 - 1
        self.plane, self.above = plane, above
        self.n, self.raw = plane.n_circles, t * (t - 1) // 2
        self.rows = self.raw            # above the rows of a base of Prop21
        self.iu, self.ju = np.triu_indices(t, k=1)

    def write(self, base: int, rows: _Rows, o: int) -> int:
        part = np.flatnonzero(meet_count(self.plane.pair_code[base]) == 1)
        # the pairs above the base are a suffix: those whose first is above
        s = np.searchsorted(self.iu, np.searchsorted(part, base, "right")) if self.above else 0
        r = len(self.iu) - s
        rows.block("base", o, r)[...] = base
        part.take(self.iu[s:], out=rows.block("X", o, r))
        part.take(self.ju[s:], out=rows.block("Y", o, r))
        return r


def _one_touch_point(plane, K, L, M, lm):
    """Prop21's conclusion: K, L and M touch pairwise at one point.  Every
    pair touches, and `lm` is the pair code of L and M, so the pair codes
    are equal where the touch points are."""
    kl = _gather(plane.pair_code, K, L)
    return (kl == _gather(plane.pair_code, K, M)) & (kl == lm)


def _eval_prop_2_1(plane, report, K, L, M):
    """Prop21 on rows of a base K and two circles L, M tangent to it: the
    rows where L and M touch each other too are its hypothesis, and only
    those read the other pairs (`_one_touch_point`)."""
    pc = plane.pair_code
    lm = _gather(pc, L, M)
    idx = np.flatnonzero((meet_count(lm) == 1) & (L != M))
    K, L, M, lm = (v.take(idx) for v in (K, L, M, lm))
    report.hypothesis_hits += len(idx)
    report.record(~_one_touch_point(plane, K, L, M, lm), lambda i: Violation(
        "tangent-trio",
        points=tuple(int(meet_sum(pc[u[i], v[i]])) for u, v in ((K, L), (K, M), (L, M))),
        circles=(int(K[i]), int(L[i]), int(M[i]))))


def check_prop_2_1(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Three mutually tangent circles touch at one common point."""
    return _sweep(plane, mode, "Prop21", _sampled_tangent_pairs, _eval_prop_2_1,
                  partial(_PairFirsts, above=True))


def _transfer_firsts(plane: LaguerrePlane) -> _Family:
    # none on odd order, where the statement is not applicable
    return _PairFirsts(plane, above=False) if plane.q % 2 == 0 else _Family()


def _meet_once(inter):
    """Prop11's conclusion: K and L share exactly one point."""
    return inter == 1


def _eval_prop_1_1(plane, report, M, K, L):
    inter = meet_count(_gather(plane.pair_code, K, L))
    hyp = (K != L) & (inter >= 1)
    report.hypothesis_hits += int(np.count_nonzero(hyp))
    report.record(hyp & ~_meet_once(inter), lambda i: Violation(
        "tangency-transfer", circles=(int(M[i]), int(K[i]), int(L[i])),
        data=(("common_points", int(inter[i])),)))


def check_prop_1_1(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Characteristic 2 only: two circles through a common point and both
    tangent to a third circle are tangent to each other."""
    if plane.q % 2 == 1:
        return _not_applicable("Prop11", mode, "odd order: statement restricted to characteristic 2")
    return _sweep(plane, mode, "Prop11", _sampled_tangent_pairs, _eval_prop_1_1,
                  _transfer_firsts)


# ---------------------------------------------------------------------------
# the symmetry configuration family on (a, b, c, x)
# ---------------------------------------------------------------------------

def _pi_blocks(plane: LaguerrePlane, mode: CheckMode):
    """Mutually non-parallel (a,b,c,x) with x off C1 = (a,b,c)°.

    The block of a chunk view is (a, b, c, x, C1, p, q, K′), flat arrays
    over the configurations that meet this hypothesis: p is the point of
    (a,b,x)° parallel to c, q the point of (a,c,x)° parallel to b, and K′
    the circle through x tangent to C1 at a.  The statements need nothing
    more: p ∥ c and q ∥ b are parallel to neither x nor each other; q ≠ b,
    or (a,c,x)° = C1 would hold x; and q is off K′, or K′ = (a,c,x)° would
    meet C1 in c as well as in a.  K′ is read by `_tangent_circles`.
    Sampled only: the exhaustive rows are `_PiFirsts`'.
    """
    gen, mem, T3 = plane.gen_of, plane.mem, plane.triple_circle
    members, raw = plane.members, _draws(mode, 4)
    a, b, c, x = (bounded(raw[j], plane.n_points) for j in range(4))
    ga, gb, gc, gx = (gen.take(v) for v in (a, b, c, x))
    idx = np.nonzero((ga != gb) & (ga != gc) & (ga != gx)
                     & (gb != gc) & (gb != gx) & (gc != gx))[0]
    a, b, c, x = a[idx], b[idx], c[idx], x[idx]
    C1 = _gather(T3, a, b, c)
    keep = np.flatnonzero(~_gather(mem, C1, x))     # x off C1
    a, b, c, x, C1 = (v.take(keep) for v in (a, b, c, x, C1))
    return (a, b, c, x, C1, _gather(members, _gather(T3, a, b, x), gen.take(c)),
            _gather(members, _gather(T3, a, c, x), gen.take(b)),
            _tangent_circles(plane, C1, a, x))


class _PiFirsts(_Family):
    """The exhaustive first choices of the Pi family, the points a, each
    with the raw (b, c, x) of `_pi_blocks`: b off a's generator, and c, x
    off those of a and b; C order over (b, c, x) is the order of that space.
    A block holds the arrays of `_pi_blocks`' blocks.

    A point a's rows are written per (b, c) pair.  Its pairs are one
    `np.nonzero` over a's mutually non-parallel pairs.  A pair's x are the
    q(q−2) points off the generators of a, b and c less the q−2 of them on
    C1 = (a,b,c)°, which meets each generator once: J = (q−1)(q−2) of them,
    at the offsets f of one `flatnonzero` over the pairs' rows of `mem` and
    of the non-parallel table.  So b, c and C1 are read once per pair and
    fill its J rows, x is f less the pair's row offset, and p, q and K′
    are read at f from one row per pair: of (a,b,x)°'s points on c's
    generator, (a,c,x)°'s on b's, and the circles through a and x in C1's
    pencil class at a, each a row of a table built from a's slices of
    `triple_circle` and `class_pencils` (`_tangent_circles`).  At q=2,
    J = 0 and a point writes no row.

    With `mirror`, as for Pi and PiPrime, a point keeps only its pairs with
    b < c, and each row stands for itself and for (a, c, b, x), which the
    evaluators count and rank through `_pi_tally` (`extra`).  Swapping b
    and c exchanges p and q and keeps C1 and K′, and both statements are
    invariant under it (`check_pi`, `check_pi_prime`).  Nothing proves
    Thm23's to be, so its family keeps every row."""

    names = ("a", "b", "c", "x", "C1", "p", "q", "Kp")

    def __init__(self, plane: LaguerrePlane, mirror: bool = False):
        gen, n, q = plane.gen_of, plane.n_points, plane.q
        self.plane, self.J = plane, (q - 1) * (q - 2)
        self.n, self.raw = n, (n - q) * (n - 2 * q) ** 2
        # a point's rows: J for each of its (n−q)(n−2q) pairs, half with `mirror`
        self.read, self.rows = self.raw, (n - q) * (n - 2 * q) // (1 + mirror) * self.J
        self.off = gen[:, None] != gen[None, :]
        self.gen_row = gen.astype(np.int32) * n     # z's generator's first row in `write`'s pt
        self.pair = np.triu(self.off, 1) if mirror else self.off
        self.extra = (True,) if mirror else ()

    def pairs(self, a: int):
        """a's (b, c) pairs, and a's table of the points y, z off a's
        generator and each other's."""
        off = self.off & self.off[a][:, None] & self.off[a]
        return *np.nonzero(off & self.pair), off

    def write(self, a: int, rows: _Rows, o: int) -> int:
        """Write a's kept configurations at row o of the block arrays of
        `rows`, and return their number."""
        plane, n, gen = self.plane, self.n, self.plane.gen_of
        b, c, off = self.pairs(a)
        P, Ta = len(b), plane.triple_circle[a]
        C1 = _gather(Ta, b, c)
        # the kept (pair, x): x off C1 and off a's, b's and c's generators
        keep = plane.mem.take(C1, axis=0)
        np.logical_not(keep, out=keep)
        keep &= off.take(b, axis=0)
        keep &= off.take(c, axis=0)
        f = np.flatnonzero(keep)
        out = partial(rows.block, o=o, r=len(f))
        # p, q and K′ over (pair, x), read at f: pt[g·n + y, x] is the point
        # of (a, y, x)° on generator g, kp[k, x] the circle through a and x
        # of pencil class k at a
        pt = plane.members.take(Ta, axis=0).transpose(2, 0, 1).reshape(-1, n)
        kp = plane.class_pencils[a].T
        for name, table, at in (("p", pt, self.gen_row.take(c) + b),
                                ("q", pt, self.gen_row.take(b) + c),
                                ("Kp", kp, _gather(plane.pencil_class, C1, gen[a]))):
            table.take(at, axis=0).reshape(-1).take(f, out=out(name))
        x = f.reshape(P, self.J) - np.arange(0, P * n, n)[:, None]
        for name, v in (("a", a), ("b", b[:, None]), ("c", c[:, None]), ("x", x),
                        ("C1", C1[:, None])):
            out(name).reshape(P, self.J)[...] = v
        return len(f)


def _pi_tally(plane, report, ok, kind, a, b, c, x, C1, mirror=False) -> None:
    """Count the rows of a Pi-family block as hits and those not `ok` as
    violations.  Where `mirror` (`_PiFirsts`), each row stands for itself
    and for (a, c, b, x), so it counts twice, and the witnesses are ranked
    at each one's flat offset ((a·n + b)·n + c)·n + x in the raw space, the
    order of an unmirrored sweep's rows.  A block's rows come in that
    order, and each ranks below its mirror, b < c: so the witnesses are
    among the first `MAX_VIOLATIONS` violating rows and their mirrors."""
    k, n = (2 if mirror else 1), plane.n_points

    def witness(i):
        i, m = i % len(a), i >= len(a)
        y, z = (c[i], b[i]) if m else (b[i], c[i])
        return Violation(kind, points=(int(a[i]), int(y), int(z), int(x[i])),
                         circles=(int(C1[i]),))

    def ranks(mask, worst):
        # at most 2·MAX_VIOLATIONS, which `record` sorts with its own
        i = np.flatnonzero(mask[0])[:MAX_VIOLATIONS]
        ai, bi, ci, xi = (v.take(i).astype(np.int64) for v in (a, b, c, x))
        head = ai * n ** 3 + xi
        return (np.concatenate([i, i + len(a)]),
                np.concatenate([head + (bi * n + ci) * n, head + (ci * n + bi) * n]))

    report.hypothesis_hits += k * len(a)
    # a copy: `count_nonzero` reads a broadcast view several times slower
    report.record(np.tile(~ok, (k, 1)), witness, ranks if mirror else None)


def _tangent_circles(plane, C, t, x):
    """The circles through x tangent to C at t, x off C and off t's
    generator: the circle through t and x in the class of C's pencil at t."""
    return _gather(plane.class_pencils, t, x,
                   _gather(plane.pencil_class, C, plane.gen_of.take(t)))


def _touch_at(plane, N, C, x):
    """The conclusion of Pi and Thm23: N meets C exactly in the point x."""
    return _gather(plane.pair_code, N, C) == touch_code(x)


def _eval_pi(plane, report, a, b, c, x, C1, p, qpt, Kp, mirror=False):
    C2 = _gather(plane.triple_circle, p, qpt, x)
    ok = _touch_at(plane, Kp, C2, x)
    _pi_tally(plane, report, ok, "pi-config", a, b, c, x, C1, mirror)


def _meets_at_parallel(plane, L, C, x, p):
    """PiPrime's conclusion: L meets C = (a,b,x)° in exactly x, on both,
    and C's point ∥ c, which is p: one test of their pair code."""
    return _gather(plane.pair_code, L, C) == secant_code(x, p)


def _eval_pi_prime(plane, report, a, b, c, x, C1, p, qpt, Kp, mirror=False):
    L = _tangent_circles(plane, Kp, x, qpt)
    ok = _meets_at_parallel(plane, L, _gather(plane.triple_circle, a, b, x), x, p)
    _pi_tally(plane, report, ok, "piprime-config", a, b, c, x, C1, mirror)


def _eval_thm_2_3(plane, report, a, b, c, x, C1, p, qpt, Kp):
    Cqpx = _gather(plane.triple_circle, qpt, p, x)
    N = _tangent_circles(plane, Cqpx, p, b)
    ok = _touch_at(plane, N, C1, b)
    _pi_tally(plane, report, ok, "thm23-config", a, b, c, x, C1)


def check_pi(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Artzy symmetry configuration: the circle through x tangent to
    (a,b,c)° at a meets (p,q,x)° exactly in x.

    At odd order this report is the paper's symmetry statement: the double
    tangency symmetry φ of K = C1 and L = (x,p,q)° fixes K′, the circle of
    K's pencil at a through x, and exchanges a and x.  On K, φ is the
    tangency map K -> L, by the unique-tangent axiom, which holds at odd
    order.  So φ(a) = x exactly where K′ touches L at x, which is Pi's
    conclusion, p, q and x being mutually non-parallel.  There φ(x) = a,
    φ being an involution, and φ(K′), through a and touching φ(K) = L at
    x, is K′, the one such circle.

    K and L are never tangent, so every row's pair has its symmetry.  At
    odd order every plane the package builds is miquelian (an oval over
    GF(q), q odd, is a conic by Segre's theorem), whose automorphisms are
    transitive on points.  Put a at (inf, 0): the circles through a are
    the lines v = βu + γ, and the maps (u, v) -> (su + d, rv + lu + w) fix
    a and take any b, c, x with no two parallel and x off the line bc to
    b = (0, 0), c = (1, 0), x = (t, 1), t ≠ 0, 1.  Then K is v = 0, p is
    (1, 1/t), q is (0, 1/(1 − t)) and L is v = (u² − 2tu + t)/(t(1 − t)),
    with (inf, 1/(t(1 − t))) off K; u² − 2tu + t has discriminant
    4t(t − 1) ≠ 0, so L meets K in two points or none.

    The statement holds for (a, b, c, x) exactly where it holds for
    (a, c, b, x): the swap exchanges p and q, so (p,q,x)° and K′ are the
    same circles.  The exhaustive sweep reads each {b, c} once
    (`_PiFirsts`' mirror)."""
    return _sweep(plane, mode, "Pi", _pi_blocks, _eval_pi, partial(_PiFirsts, mirror=True))


def check_pi_prime(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Reformulated symmetry configuration: L through q tangent to K at x
    meets (a,b,x)° in exactly x and the point of it parallel to c.

    K is the circle K′ of `check_pi`.  The statement holds for (a, b, c, x)
    exactly where it holds for (a, c, b, x), which exchanges p and q, so the
    exhaustive sweep reads each {b, c} once (`_PiFirsts`' mirror).  If L,
    through q and tangent to K at x, meets (a,b,x)° in {x, p}, it passes
    through p, so it is the circle through p tangent to K at x, the mirror's
    L.  It meets (a,c,x)° in x and q and in no more, as it is not (a,c,x)°:
    that circle holds a, a point of K other than x, and L meets K in x
    alone.  So the mirror's statement holds, and the swap being an
    involution, the converse holds too."""
    return _sweep(plane, mode, "PiPrime", _pi_blocks, _eval_pi_prime,
                  partial(_PiFirsts, mirror=True))


def check_thm_2_3(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """The circle tangent to (q,p,x)° at p through b is tangent to (a,b,c)° at b.

    Nothing proves this statement symmetric in b and c, as Pi's and
    PiPrime's are, so its exhaustive sweep reads every (b, c)."""
    return _sweep(plane, mode, "Thm23", _pi_blocks, _eval_thm_2_3, _PiFirsts)


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
    gp, gq, gr, gs = (plane.gen_of.take(v) for v in (P, Q, R, S))
    return _on_abc(plane, P, R, Q, S) | ((gp == gr) & (gq == gs)) | ((gp == gs) & (gq == gr))


def _sampled_bases(plane: LaguerrePlane, raw: _Draws, n_slots: int):
    """Base circles C1 with four member slots each, drawn from raw[:5], a
    circle C2 of the pencil through the first two, drawn from raw[5], and
    `n_slots` member slots of C2 from raw[6:]: the view `raw[:, idx]` of
    the sample rows whose slots on C1 are four distinct ones and whose
    slots on C2 are distinct and hold neither a nor b, and on those rows
    C1, the points (a, c, b, d) in the slots on C1, C2 and the slots on C2.

    Slot g of a circle holds its point on generator g, so the slots decide
    which points coincide before any point is read.  The slots on C2 are
    drawn for the rows whose slots on C1 are distinct alone, and C1, C2
    and the closure's tail (read from the view) for the kept rows alone."""
    members, q = plane.members, plane.q
    s = [bounded(raw[j], q + 1) for j in range(1, 5)]
    ok = np.ones(raw.shape[1], dtype=bool)
    for i, j in itertools.combinations(range(4), 2):
        ok &= s[i] != s[j]
    idx = np.flatnonzero(ok)
    raw, s = raw[:, idx], [sj[idx] for sj in s]
    t = [bounded(raw[j], q + 1) for j in range(6, 6 + n_slots)]
    ok = np.ones(len(idx), dtype=bool)
    for i, u in enumerate(t):
        ok &= (u != s[0]) & (u != s[2])     # the slots of a and b
        for v in t[:i]:
            ok &= u != v
    keep = np.flatnonzero(ok)
    kept = raw[:, keep]
    C1 = bounded(kept[0], plane.n_circles)
    A, Cq, B, D = (_gather(members, C1, sj[keep]) for sj in s)
    C2 = _gather(plane.vertex_pencils, A, B, bounded(kept[5], q))
    return kept, (C1, A, Cq, B, D, C2, *(u[keep] for u in t))


class _ClosureFirsts(_Family):
    """The exhaustive first choices of the closures, a circle C1 and a
    selector of a pencil through two of its points, in C order: first
    choice f is C1 = f // q with selector f % q.  Its head rows are each
    ordered base quadruple (a, c, b, d) of C1's points, C2 the selected
    circle of the pencil through (a, b), and each ordered tuple of
    `n_slots` (1 or 2) distinct member slots of C2 whose members are
    neither a nor b, in C order; block arrays (C1, a, c, b, d, C2, *slots),
    then the tail.  Every head row takes each index tuple of the shape
    `tail`, the closure's own choices, which the evaluator adds through
    `_with_tail` once it has dropped the heads that cannot meet the
    hypothesis, so a head makes the tail's size of evaluator rows
    (`rows`).

    A first choice is not (C1, quadruple): that order of the rows would
    change which witnesses a report keeps.  Slot g of a circle holds its
    point on generator g, so the slots of the kept rows, the quadruple's
    on C1 and C2's, are the same for every first choice: they are read
    once (`heads`), and a first choice takes its points from C1's row and
    C2 from C1's pencils."""

    def __init__(self, plane: LaguerrePlane, n_slots: int, tail: tuple[int, ...]):
        q = plane.q
        self.plane, self.n_slots = plane, n_slots
        self.names = ("C1", "A", "Cq", "B", "D", "C2", "s", "t")[:6 + n_slots]
        self.extra, self.n = (tail,), plane.n_circles * q
        self.raw = math.perm(q + 1, 4) * (q + 1) ** n_slots * math.prod(tail)
        # a first choice's head rows, whose slots on C2 are distinct and off
        # a's and b's, each taking every tail
        self.rows = math.perm(q + 1, 4) * math.perm(q - 1, n_slots) * math.prod(tail)

    @cached_property
    def heads(self) -> tuple:
        """The tables of the head rows, built on the first write: each row's
        slots (a, c, b and d's on C1, then those on C2), the offset of its
        (a, b) slots in a circle's row of `pencils`, and `pencils`, each
        circle's `vertex_pencils` over the ordered pairs of its slots."""
        q, members = self.plane.q, self.plane.members
        ords = np.array(list(itertools.permutations(range(q + 1), 4)), np.intp).reshape(-1, 4)
        slots = np.arange(q + 1)
        off = (slots != ords[:, :1]) & (slots != ords[:, 2:3])
        if self.n_slots == 2:
            off = off[:, :, None] & off[:, None, :] & (slots[:, None] != slots)
        o, *s = np.nonzero(off)
        slots = np.concatenate([ords.T[:, o], s])
        pencils = self.plane.vertex_pencils[members[:, :, None], members[:, None, :]]
        return slots, (slots[0] * (q + 1) + slots[2]) * q, pencils.reshape(len(members), -1)

    def write(self, f: int, rows: _Rows, o: int) -> int:
        C1, sel = divmod(f, self.plane.q)
        slots, ab, pencils = self.heads
        out = partial(rows.block, o=o, r=len(ab))
        for s, name in zip(slots, self.names[1:5]):
            self.plane.members[C1].take(s, out=out(name), mode="wrap")
        pencils[C1, sel:].take(ab, out=out("C2"), mode="wrap")
        out("C1")[...] = C1
        for s, name in zip(slots[4:], self.names[6:]):
            out(name)[...] = s
        return len(ab)


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
    pairs: such a row takes the member slot its draw picks (sampled: `slot`
    is a one-choice `_Draws` view, drawn for those rows alone), or every
    slot in slot order when `slot` is None (exhaustive).

    Returns (rows, Y): each point Y and the index of its row, ascending.
    Y may be `known` itself (a parallel branch may land on it); callers
    drop such rows, as they drop every row whose points coincide.
    """
    gen, members = plane.gen_of, plane.members
    gx, gp, gq = gen.take(X), gen.take(P), gen.take(Q)
    cx = _gather(plane.triple_circle, P, X, Q)       # -1 where X ∥ P or X ∥ Q
    code = _gather(plane.pair_code, cx, target)
    found = meet_count(code) == 2
    Y = meet_sum(code) - known
    par = np.flatnonzero((gx == gp) | (gx == gq))
    Y[par] = _gather(members, target[par], np.where(gx[par] == gp[par], gq[par], gp[par]))
    found[par] = True
    is_whole = cx == target
    whole = np.flatnonzero(is_whole)
    if slot is not None:
        Y[whole] = _gather(members, target[whole], bounded(slot[:, whole][0], plane.q + 1))
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
    The block of a chunk view is (C1, a, c, b, d, C2, e slot, h slot,
    tail, f slot), the tail being g's slot (`_with_tail`) and the f slot
    the view of a draw (raw[9]), drawn only where f is not unique
    (`_eval_miquel`); the exhaustive rows are those of
    `_miquel_firsts`, without the f slot.  Rows have a, c, b, d distinct
    and e, h distinct and off {a, b}."""
    kept, bases = _sampled_bases(plane, _draws(mode, 10), 2)
    return *bases, (bounded(kept[8], plane.q + 1),), kept.column(9)


def _miquel_firsts(plane: LaguerrePlane) -> _ClosureFirsts:
    # the slots of e and h, then g's slot as the tail
    return _ClosureFirsts(plane, 2, (plane.q + 1,))


def _eval_miquel(plane, report, C1, A, Cq, B, D, C2, se, sh, tail, sf=None):
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
    feasible = (gen.take(D) != gen.take(H)) & (gen.take(Cq) != gen.take(E))
    report.skipped += (len(E) - int(np.count_nonzero(feasible))) * _tail_size(tail)
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

    rows, F = _completion(plane, Cq, D, G, C4, Cq, None if sf is None else sf[:, src])
    A, Cq, B, D, C2, C3, C4, E, H, G = (
        v[rows] for v in (A, Cq, B, D, C2, C3, C4, E, H, G))
    hyp = F != A
    for v in (B, Cq, D, E, H, G):
        hyp &= F != v
    report.hypothesis_hits += int(np.count_nonzero(hyp))
    # conclusion (e,g,f,h) on pairs {e,f},{g,h}
    report.record(hyp & ~_pairs_concyclic(plane, E, F, G, H), lambda i: Violation(
        "miquel-closure",
        points=(int(A[i]), int(B[i]), int(Cq[i]), int(D[i]),
                int(E[i]), int(F[i]), int(G[i]), int(H[i])),
        circles=(int(C2[i]), int(C3[i]), int(C4[i]))))


def check_miquel(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Miquel closure: five concyclic quadruples of eight distinct points
    force the sixth."""
    return _sweep(plane, mode, "Miquel", _miquel_blocks, _eval_miquel, _miquel_firsts)


def _six_point_collapse(plane, c, d, p3, p4, p5, p6):
    """Six points on one circle, or spread over at most two generators.

    Either collapse puts three of the four point-pairs on a single
    (possibly degenerate) section, which voids the closure statement:
    a third pair can then link two of the pencils without constraining
    the fourth at all.

    Precondition: c ∦ d, as at the one call site, where c and d are
    distinct points of C1.  The two generators are then those of c and d,
    and the other four points are tested against them.
    """
    gen, mem, T3 = plane.gen_of, plane.mem, plane.triple_circle
    t = _gather(T3, c, d, p3)
    tc = np.maximum(t, 0)
    on_circle = (t >= 0) & _gather(mem, tc, p4) & _gather(mem, tc, p5) & _gather(mem, tc, p6)
    gc, gd = gen.take(c), gen.take(d)
    two_gens = np.ones(len(c), dtype=bool)
    for p in (p3, p4, p5, p6):
        gp = gen.take(p)
        two_gens &= (gp == gc) | (gp == gd)
    return on_circle | two_gens


def _bundle_blocks(plane: LaguerrePlane, mode: CheckMode):
    """A circle C1 with an ordered base quadruple (a, c, b, d) of its
    points, C5 from the pencil through (a, b) with its member e, then a
    selector of the pencil through (e, f) for C3 and a member g of C3; the
    evaluator derives f and h.  The block of a chunk view is (C1, a, c, b,
    d, C5, e slot, tail, f slot, h slot), the tail being C3's selector and
    g's slot (`_with_tail`) and the f and h slots the views of draws
    (raw[7], raw[10]), drawn only where f or h is not unique
    (`_eval_bundle`); the exhaustive rows are those of `_bundle_firsts`,
    without the f and h slots.  Rows have a, c, b, d distinct and e off
    {a, b}."""
    q = plane.q
    kept, bases = _sampled_bases(plane, _draws(mode, 11), 1)
    return *bases, (bounded(kept[8], q), bounded(kept[9], q + 1)), kept.column(7), kept.column(10)


def _bundle_firsts(plane: LaguerrePlane) -> _ClosureFirsts:
    # e's slot, then C3's selector and g's slot as the tail
    return _ClosureFirsts(plane, 1, (plane.q, plane.q + 1))


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
    rows, H = _completion(plane, A, B, G, C3, G, None if sh is None else sh[:, src])
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
    report.skipped += int(np.count_nonzero(collapsed))
    hyp = ~collapsed
    report.hypothesis_hits += int(np.count_nonzero(hyp))

    # conclusion (c,g,d,h) on pairs {c,d},{g,h}
    report.record(hyp & ~_pairs_concyclic(plane, Cq, D, G, H), lambda i: Violation(
        "bundle-closure",
        points=(int(A[i]), int(B[i]), int(Cq[i]), int(D[i]),
                int(E[i]), int(F[i]), int(G[i]), int(H[i])),
        circles=(int(C5[i]), int(C3[i]))))


def check_bundle(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Bundle closure: five of the six pencil quadruples force the sixth."""
    return _sweep(plane, mode, "Bundle", _bundle_blocks, _eval_bundle, _bundle_firsts)


# ---------------------------------------------------------------------------
# registry, replay
# ---------------------------------------------------------------------------

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
    return t.kind == "secant" and dict(v.data)["common_points"] == len(t.points)


def _replay_pi_family(check_id, plane, v):
    # a failed hypothesis raises in the scalar operations, which
    # `replay_violation` reads as no violation: parallel points in
    # `circle_through`, x on C1 or q on K′ in `tangent_circle`; q = b would
    # make (a,c,x)° = C1 hold x
    a, b, c, x = v.points
    C1 = plane.circle_through(a, b, c)
    p = plane.parallel_point(c, plane.circle_through(a, b, x))
    qpt = plane.parallel_point(b, plane.circle_through(a, c, x))
    K = plane.tangent_circle(a, C1, x)
    if check_id == "Pi":
        C2 = plane.circle_through(p, qpt, x)
        t = plane.tangency(K, C2)
        return not (t.kind == "tangent" and t.points == (x,))
    if check_id == "PiPrime":
        L = plane.tangent_circle(x, K, qpt)
        # L meets (a,b,x)° in x: the conclusion holds where it meets it in
        # one more point, parallel to c (a tangent or equal pair has 0 or q)
        others = [pt for pt in plane.tangency(L, plane.circle_through(a, b, x)).points if pt != x]
        return len(others) != 1 or not plane.parallel(others[0], c)
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
    # validated again, on a structure of the plane's rows: a second route
    fresh = validate_laguerre_axioms(plane.gen_members, plane.members)
    return any(w.kind == v.kind for w in fresh.violations) or not fresh.holds


@dataclass(frozen=True)
class CheckerSpec:
    """Everything known about one check id: how to run it, the family of
    first choices of its exhaustive sweep, and how to replay its
    witnesses."""

    check_id: str
    run: callable       # (plane, mode) -> CheckReport
    firsts: callable    # plane -> the `_Family` its exhaustive run sweeps
    # numbers of witness points and circles the replay reads; None: not read
    witness: tuple[int | None, int | None]
    replay: callable    # (plane, violation) -> the witness still shows a violation
    data: tuple[str, ...] = ()  # keys of `Violation.data` the replay reads


CHECKERS = {spec.check_id: spec for spec in (
    CheckerSpec("C", check_C, _CFirsts, (1, 2), _replay_c, ("count",)),
    CheckerSpec("S", check_S, _ChainFirsts, (4, 4), partial(_replay_chain, "S")),
    CheckerSpec("Prop21", check_prop_2_1, partial(_PairFirsts, above=True), (None, 3),
                _replay_trio),
    CheckerSpec("Prop22", check_prop_2_2, _ChainFirsts, (4, 4),
                partial(_replay_chain, "Prop22")),
    CheckerSpec("Cor21", check_cor_2_1, _ChainFirsts, (4, 4), partial(_replay_chain, "Cor21")),
    CheckerSpec("Prop11", check_prop_1_1, _transfer_firsts, (None, 3), _replay_transfer,
                ("common_points",)),
    CheckerSpec("Pi", check_pi, partial(_PiFirsts, mirror=True), (4, None),
                partial(_replay_pi_family, "Pi")),
    CheckerSpec("PiPrime", check_pi_prime, partial(_PiFirsts, mirror=True), (4, None),
                partial(_replay_pi_family, "PiPrime")),
    CheckerSpec("Thm23", check_thm_2_3, _PiFirsts, (4, None), partial(_replay_pi_family, "Thm23")),
    CheckerSpec("Miquel", check_miquel, _miquel_firsts, (8, None), _replay_miquel),
    CheckerSpec("Bundle", check_bundle, _bundle_firsts, (8, None), _replay_bundle),
)}

CHECK_IDS = tuple(CHECKERS)

# every check id the CLI runs and replays: the axiom validator (whose size
# is never refused and whose witnesses are matched by kind) first, then
# the statement checkers
SPECS = {"Axioms": CheckerSpec("Axioms", _run_axioms, lambda plane: _Family(), (None, None),
                               _replay_axioms)} | CHECKERS


def exhaustive_size(plane: LaguerrePlane, check_id: str) -> int:
    """A-priori size of the checker's exhaustive choice space: its first
    choices times the raw configurations of each."""
    family = SPECS[check_id].firsts(plane)
    return family.n * family.raw


def witness_problem(plane: LaguerrePlane, check_id: str, v: Violation) -> str | None:
    """Why `replay_violation` cannot read `v` as a witness of `check_id`.

    The witness must have the numbers of points and circles its checker's
    replay reads (`CheckerSpec.witness`), ids of points and circles of
    `plane`, and the data keys it reads (`CheckerSpec.data`).  Returns
    None when it may be replayed.  `check_id` is an id of `SPECS`, as
    `replay` checks first.
    """
    spec = SPECS[check_id]
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
