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
exhaustive blocks (`_eval_c_exhaustive`).

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
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import LaguerreError
from .plane import LaguerrePlane
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

_SAMPLE_CHUNK = 1 << 16


def _sweep(plane: LaguerrePlane, mode: CheckMode, check_id: str, blocks, evaluate
           ) -> CheckReport:
    """The report of `evaluate(plane, report, *arrays)` over every block
    `blocks(plane, mode)` yields as (raw configurations, *arrays)."""
    report = CheckReport(check_id=check_id, mode=mode)
    t0 = time.perf_counter()
    for n_raw, *arrays in blocks(plane, mode):
        report.configurations += n_raw
        evaluate(plane, report, *arrays)
    report.elapsed_seconds = time.perf_counter() - t0
    return report.finalize()


def _not_applicable(check_id: str, mode: CheckMode, note: str) -> CheckReport:
    return CheckReport(check_id=check_id, mode=mode, verdict="NotApplicable",
                       notes=(note,)).finalize()


def _record(report: CheckReport, mask: np.ndarray, make) -> None:
    """Record violations for every set bit of `mask`, capped but counted fully."""
    n = int(mask.sum())
    if not n:
        return
    report.violation_count += n
    room = MAX_VIOLATIONS - len(report.violations)
    if room > 0:
        for i in np.nonzero(mask)[0][:room]:
            report.violations.append(make(int(i)))


def _sample_batches(mode: CheckMode, draws: int):
    """Yield uint64 arrays of shape (n, draws), chunk by chunk."""
    total = mode.count
    start = 0
    while start < total:
        n = min(_SAMPLE_CHUNK, total - start)
        yield draw_block(mode.seed, start * draws, n * draws).reshape(n, draws)
        start += n


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

    if mode.is_sample:
        for raw in _sample_batches(mode, _CHAIN_DRAWS):
            K = bounded(raw[:, 0], plane.n_circles)
            sa = bounded(raw[:, 1], q + 1)
            A = members[K, sa]
            L = po[K, sa, bounded(raw[:, 2], m)]
            sb = bounded(raw[:, 3], q + 1)
            B = members[L, sb]
            M = po[L, sb, bounded(raw[:, 4], m)]
            sc = bounded(raw[:, 5], q + 1)
            C = members[M, sc]
            N = po[M, sc, bounded(raw[:, 6], m)]
            idx = np.nonzero(T[N, K] == 1)[0]
            K, A, L, B, M, C, N = (v[idx] for v in (K, A, L, B, M, C, N))
            yield len(raw), K, A, L, B, M, C, N, W[N, K]
    else:
        for K in range(plane.n_circles):
            L0 = po[K]                         # (q+1, m)
            M0 = po[L0]                        # (q+1, m, q+1, m)
            N0 = po[M0]                        # (q+1, m, q+1, m, q+1, m)
            # C order over the six axes (a, L, b, M, c, N) keeps the rows in
            # the order of the full choice space
            i = np.nonzero(T[N0, K] == 1)
            L, M, N = L0[i[:2]], M0[i[:4]], N0[i]
            yield (N0.size, np.full(len(N), K), members[K, i[0]], L, members[L, i[2]],
                   M, members[M, i[4]], N, W[N, K])


def _corner_coincides(A, B, C, D):
    """b or d equals another corner of the chain."""
    return (B == A) | (B == C) | (B == D) | (D == A) | (D == C)


def _on_abc(plane, A, B, C, D):
    """D lies on the circle through a, b, c (false where none exists)."""
    cid = plane.triple_circle[A, B, C]
    return (cid >= 0) & plane.mem[np.maximum(cid, 0), D]


def _chain_tally(report, hyp, ok, kind, K, A, L, B, M, C, N, D) -> None:
    report.hypothesis_hits += int(hyp.sum())
    _record(report, hyp & ~ok, lambda i: Violation(
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


def check_S(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Closed tangency chains with non-parallel opposite corners a,c span a circle."""
    return _sweep(plane, mode, "S", _chain_blocks, _eval_s)


def check_prop_2_2(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Closed tangency chains with a parallel to c force b parallel to d."""
    return _sweep(plane, mode, "Prop22", _chain_blocks, _eval_prop_2_2)


def check_cor_2_1(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Every closed tangency chain has (a,c,b,d) concyclic in the generalized sense."""
    return _sweep(plane, mode, "Cor21", _chain_blocks, _eval_cor_2_1)


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
            yield (len(raw), bounded(raw[:, 0], n_c), bounded(raw[:, 1], n_c),
                   bounded(raw[:, 2], q + 1))
    else:
        for K in range(n_c):
            yield (q + 1) * n_c, K


def _eval_c(plane, report, K, L, sp):
    T, po = plane.pair_count, plane.pencil_others
    P = plane.members[K, sp]
    hyp = (K != L) & ~plane.mem[L, P]
    counts = (T[po[K, sp, :], L[:, None]] == 1).sum(axis=1)
    counts += (T[K, L] == 1).astype(counts.dtype)        # K itself is in its pencils
    report.hypothesis_hits += int(hyp.sum())
    _record(report, hyp & (counts != 1), lambda i: Violation(
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
    _record(report, (hyp & (counts != 1)).ravel(), lambda i: Violation(
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
        base = bounded(raw[:, 0], plane.n_circles)
        yield (len(base), base, po[base, bounded(raw[:, 1], q + 1), bounded(raw[:, 2], q - 1)],
               po[base, bounded(raw[:, 3], q + 1), bounded(raw[:, 4], q - 1)])


def _pairs_of(base: int, part: np.ndarray):
    """(count, base, X, Y) over the unordered pairs {X, Y} of `part`."""
    iu, ju = np.triu_indices(len(part), k=1)
    return len(iu), np.full(len(iu), base), part[iu], part[ju]


def _trio_blocks(plane: LaguerrePlane, mode: CheckMode):
    """Circles K, L, M with L and M tangent to K.  Exhaustive: unordered
    triples of pairwise tangent circles, each once via K < L < M."""
    if mode.is_sample:
        yield from _sampled_tangent_pairs(plane, mode)
        return
    T = plane.pair_count
    for K in range(plane.n_circles):
        part = np.nonzero(T[K] == 1)[0]
        yield _pairs_of(K, part[part > K])


def _eval_prop_2_1(plane, report, K, L, M):
    T, W = plane.pair_count, plane.pair_sum
    hyp = (T[L, M] == 1) & (L != M)
    same = (W[K, L] == W[K, M]) & (W[K, L] == W[L, M])
    report.hypothesis_hits += int(hyp.sum())
    _record(report, hyp & ~same, lambda i: Violation(
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
    for M in range(plane.n_circles):
        yield _pairs_of(M, np.nonzero(T[M] == 1)[0])


def _eval_prop_1_1(plane, report, M, K, L):
    inter = plane.pair_count[K, L]
    hyp = (K != L) & (inter >= 1)
    report.hypothesis_hits += int(hyp.sum())
    _record(report, hyp & (inter != 1), lambda i: Violation(
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
    CPG, TCT, slot = plane.gen_point, plane.tangent_through, plane.slot_of

    def block(n_raw, a, b, c, x):
        # (a, b, c, x) mutually non-parallel; keep x off C1
        C1 = T3[a, b, c]
        idx = np.nonzero(~mem[C1, x])[0]
        a, b, c, x, C1 = a[idx], b[idx], c[idx], x[idx], C1[idx]
        return (n_raw, a, b, c, x, C1, CPG[T3[a, b, x], gen[c]], CPG[T3[a, c, x], gen[b]],
                TCT[C1, slot[C1, a], x])

    if mode.is_sample:
        for raw in _sample_batches(mode, 4):
            a, b, c, x = (bounded(raw[:, j], plane.n_points) for j in range(4))
            idx = np.nonzero((gen[a] != gen[b]) & (gen[a] != gen[c]) & (gen[a] != gen[x])
                             & (gen[b] != gen[c]) & (gen[b] != gen[x]) & (gen[c] != gen[x]))[0]
            yield block(len(raw), a[idx], b[idx], c[idx], x[idx])
    else:
        # per point a: the raw (b, c, x) have b off a's generator and c, x off
        # those of a and b; C order over (b, c, x) is the order of that space
        n, q = plane.n_points, plane.q
        off = gen[:, None] != gen[None, :]
        mutual = off[:, :, None] & off[:, None, :] & off[None, :, :]     # (b, c, x)
        for a in range(n):
            # int32 ids halve the index arrays of these blocks, the largest of the pass
            b, c, x = (v.astype(np.int32) for v in np.nonzero(
                mutual & off[a][:, None, None] & off[a][:, None] & off[a]))
            yield block((n - q) * (n - 2 * q) ** 2, np.full(len(b), a, dtype=np.int32), b, c, x)


def _pi_tally(report, ok, kind, a, b, c, x, C1) -> None:
    report.hypothesis_hits += len(a)
    _record(report, ~ok, lambda i: Violation(
        kind, points=(int(a[i]), int(b[i]), int(c[i]), int(x[i])), circles=(int(C1[i]),)))


def _eval_pi(plane, report, a, b, c, x, C1, p, qpt, Kp):
    C2 = plane.triple_circle[p, qpt, x]
    ok = (plane.pair_count[Kp, C2] == 1) & (plane.pair_sum[Kp, C2] == x)
    _pi_tally(report, ok, "pi-config", a, b, c, x, C1)


def _eval_pi_prime(plane, report, a, b, c, x, C1, p, qpt, Kp):
    L = plane.tangent_through[Kp, plane.slot_of[Kp, x], qpt]
    Cabx = plane.triple_circle[a, b, x]
    two = plane.pair_count[L, Cabx] == 2
    other = np.where(two, plane.pair_sum[L, Cabx] - x, 0)
    ok = two & (plane.gen_of[other] == plane.gen_of[c])
    _pi_tally(report, ok, "piprime-config", a, b, c, x, C1)


def _eval_thm_2_3(plane, report, a, b, c, x, C1, p, qpt, Kp):
    Cqpx = plane.triple_circle[qpt, p, x]
    N = plane.tangent_through[Cqpx, plane.slot_of[Cqpx, p], b]
    ok = (plane.pair_count[N, C1] == 1) & (plane.pair_sum[N, C1] == b)
    _pi_tally(report, ok, "thm23-config", a, b, c, x, C1)


def check_pi(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Artzy symmetry configuration: the circle through x tangent to
    (a,b,c)° at a meets (p,q,x)° exactly in x."""
    return _sweep(plane, mode, "Pi", _pi_blocks, _eval_pi)


def check_pi_prime(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """Reformulated symmetry configuration: L through q tangent to K at x
    meets (a,b,x)° in exactly x and the point of it parallel to c."""
    return _sweep(plane, mode, "PiPrime", _pi_blocks, _eval_pi_prime)


def check_thm_2_3(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """The circle tangent to (q,p,x)° at p through b is tangent to (a,b,c)° at b."""
    return _sweep(plane, mode, "Thm23", _pi_blocks, _eval_thm_2_3)


# ---------------------------------------------------------------------------
# the eight-point closure statements
# ---------------------------------------------------------------------------

def _ord4(plane: LaguerrePlane) -> np.ndarray:
    return np.array(list(itertools.permutations(range(plane.q + 1), 4)), dtype=np.int64)


def _sampled_bases(plane: LaguerrePlane, raw: np.ndarray):
    """Base circles C1 with four member slots each, drawn from raw[:, :5];
    returns the points (a, c, b, d) in those slots and where they are
    four distinct slots."""
    members, q = plane.members, plane.q
    C1 = bounded(raw[:, 0], plane.n_circles)
    s = [bounded(raw[:, j], q + 1) for j in range(1, 5)]
    base = ((s[0] != s[1]) & (s[0] != s[2]) & (s[0] != s[3])
            & (s[1] != s[2]) & (s[1] != s[3]) & (s[2] != s[3]))
    return tuple(members[C1, sj] for sj in s), base


def _slot_pairs_off(plane: LaguerrePlane, C: np.ndarray, A: np.ndarray, B: np.ndarray):
    """(row, s, t) index arrays, in C order, of the ordered pairs of distinct
    member slots s, t of circle C[row] (which passes through A[row] and
    B[row]) whose members are neither a nor b."""
    slots = np.arange(plane.q + 1)
    off = (slots != plane.slot_of[C, A][:, None]) & (slots != plane.slot_of[C, B][:, None])
    return np.nonzero(off[:, :, None] & off[:, None, :] & (slots[:, None] != slots))


def _miquel_blocks(plane: LaguerrePlane, mode: CheckMode):
    """A circle C1 with an ordered base quadruple (a, c, b, d) of its
    points, C2 from the pencil through (a, b), and four member slots: e
    and h on C2, then g on (a,d,h)° and f on (b,c,e)°.  Yields (raw
    count, a, c, b, d, C2, e slot, h slot, g slot, f slot) per block over
    the rows with a, c, b, d distinct; exhaustive blocks also hold only
    distinct e, h off {a, b}."""
    members, VP = plane.members, plane.vertex_pencils
    q, n_c = plane.q, plane.n_circles
    if mode.is_sample:
        for raw in _sample_batches(mode, 10):
            (A, Cq, B, D), base = _sampled_bases(plane, raw)
            C2 = VP[A, B, bounded(raw[:, 5], q)]
            idx = np.nonzero(base)[0]
            yield (len(raw), A[idx], Cq[idx], B[idx], D[idx], C2[idx],
                   *(bounded(raw[:, j], q + 1)[idx] for j in range(6, 10)))
        return
    ords = _ord4(plane)
    if not len(ords):
        return
    # raw axes per (C1, C2sel) block: (ordering, se, sh, sg, sf); the kept
    # (ordering, se, sh) rows each take every (sg, sf)
    n_raw = len(ords) * (q + 1) ** 4
    sg, sf = (v.ravel() for v in np.indices((q + 1, q + 1)))
    tail = len(sg)
    for C1 in range(n_c):
        A0, Cq0, B0, D0 = (members[C1][ords[:, j]] for j in range(4))
        for c2sel in range(q):
            C20 = VP[A0, B0, c2sel]
            o, se, sh = (np.repeat(v, tail) for v in _slot_pairs_off(plane, C20, A0, B0))
            n = len(o) // tail
            yield (n_raw, A0[o], Cq0[o], B0[o], D0[o], C20[o], se, sh,
                   np.tile(sg, n), np.tile(sf, n))


def _eval_miquel(plane, report, A, Cq, B, D, C2, se, sh, sg, sf):
    """Miquel closure on the choice arrays of `_miquel_blocks`.

    The ordered quadruple names follow the statement: hypothesis
    quadruples (a,c,b,d), (a,e,b,h), (a,g,d,h), (b,f,c,e), (c,g,d,f);
    conclusion (e,g,f,h).
    """
    gen, mem, members, T3 = plane.gen_of, plane.mem, plane.members, plane.triple_circle
    E = members[C2, se]
    H = members[C2, sh]
    base_ok = (E != A) & (E != B) & (H != A) & (H != B) & (se != sh)

    dh_ok = gen[D] != gen[H]
    ce_ok = gen[Cq] != gen[E]
    report.skipped += int((base_ok & ~(dh_ok & ce_ok)).sum())
    # the feasible rows alone go on: there (a,d,h) and (b,c,e) span circles
    idx = np.nonzero(base_ok & dh_ok & ce_ok)[0]
    A, Cq, B, D, C2, E, H, sg, sf = (v[idx] for v in (A, Cq, B, D, C2, E, H, sg, sf))

    C3 = T3[A, D, H]
    G = members[C3, sg]
    C4 = T3[B, Cq, E]
    F = members[C4, sf]

    distinct = E != Cq
    for u, v in ((E, D), (H, Cq), (H, D),
                 (G, A), (G, B), (G, Cq), (G, D), (G, E), (G, H),
                 (F, A), (F, B), (F, Cq), (F, D), (F, E), (F, H), (F, G)):
        distinct = distinct & (u != v)

    # hypothesis quadruple on pairs {c,d},{g,f}: one circle, or a split into
    # two parallel pairs (either matching names a degenerate plane section)
    pcg, pdf = gen[Cq] == gen[G], gen[D] == gen[F]
    pcf, pdg = gen[Cq] == gen[F], gen[D] == gen[G]
    t_cgd = T3[Cq, G, D]
    proper5 = (~pcg & ~pdf & ~pcf & ~pdg & (gen[G] != gen[F])
               & (t_cgd >= 0) & mem[np.maximum(t_cgd, 0), F])
    hyp = distinct & (proper5 | (pcg & pdf) | (pcf & pdg))
    report.hypothesis_hits += int(hyp.sum())

    # conclusion on pairs {e,f},{g,h}
    peg, pfh = gen[E] == gen[G], gen[F] == gen[H]
    peh, pfg = gen[E] == gen[H], gen[F] == gen[G]
    t_egf = T3[E, G, F]
    proper = (~peg & ~pfh & ~peh & ~pfg & (gen[G] != gen[F]) & (t_egf >= 0)
              & mem[np.maximum(t_egf, 0), H])
    ok = proper | (peg & pfh) | (peh & pfg)
    _record(report, hyp & ~ok, lambda i: Violation(
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
    t = T3[p1, p2, p3]
    tc = np.maximum(t, 0)
    on_circle = (t >= 0) & mem[tc, p4] & mem[tc, p5] & mem[tc, p6]
    gens = np.stack([gen[p] for p in (p1, p2, p3, p4, p5, p6)])
    lo, hi = gens.min(axis=0), gens.max(axis=0)
    two_gens = np.ones(len(p1), dtype=bool)
    for row in gens:
        two_gens &= (row == lo) | (row == hi)
    return on_circle | two_gens


def _bundle_blocks(plane: LaguerrePlane, mode: CheckMode):
    """A circle C1 with an ordered base quadruple (a, c, b, d) of its
    points, C5 from the pencil through (a, b) with distinct members e, f,
    and C3 from the pencil through (e, f) with members g, h.  Yields (raw
    count, a, c, b, d, C5, e slot, f slot, C3, g slot, h slot) per block."""
    members, VP = plane.members, plane.vertex_pencils
    q, n_c = plane.q, plane.n_circles
    if mode.is_sample:
        for raw in _sample_batches(mode, 11):
            (A, Cq, B, D), base = _sampled_bases(plane, raw)
            C5 = VP[A, B, bounded(raw[:, 5], q)]
            se = bounded(raw[:, 6], q + 1)
            sf = bounded(raw[:, 7], q + 1)
            C3 = VP[members[C5, se], members[C5, sf], bounded(raw[:, 8], q)]
            sg = bounded(raw[:, 9], q + 1)
            sh = bounded(raw[:, 10], q + 1)
            idx = np.nonzero(base & (se != sf) & (C3 >= 0))[0]
            yield (len(raw), A[idx], Cq[idx], B[idx], D[idx], C5[idx],
                   se[idx], sf[idx], C3[idx], sg[idx], sh[idx])
        return
    ords = _ord4(plane)
    if not len(ords):
        return
    # raw axes per (C1, C5sel) block: (ordering, se, sf, C3sel, sg, sh); the
    # kept (ordering, se, sf) rows each take every (C3sel, sg, sh) with sg != sh
    n_raw = len(ords) * q * (q + 1) ** 4
    c3sel, sg, sh = np.nonzero(np.broadcast_to(~np.eye(q + 1, dtype=bool), (q, q + 1, q + 1)))
    tail = len(c3sel)
    for C1 in range(n_c):
        A0, Cq0, B0, D0 = (members[C1][ords[:, j]] for j in range(4))
        for c5sel in range(q):
            C50 = VP[A0, B0, c5sel]
            o, se, sf = (np.repeat(v, tail) for v in _slot_pairs_off(plane, C50, A0, B0))
            C5, n = C50[o], len(o) // tail
            C3 = VP[members[C5, se], members[C5, sf], np.tile(c3sel, n)]
            yield (n_raw, A0[o], Cq0[o], B0[o], D0[o], C5, se, sf, C3,
                   np.tile(sg, n), np.tile(sh, n))


def _eval_bundle(plane, report, A, Cq, B, D, C5, se, sf, C3, sg, sh):
    """Bundle closure on the choice arrays of `_bundle_blocks`.

    Circles realize three pair-hypotheses properly: C1 holds the base
    quadruple (a,c,b,d), C5 through a,b holds e,f (hypothesis (a,e,b,f)),
    C3 through e,f holds g,h (hypothesis (e,g,f,h)).  The point-relating
    hypotheses (c,e,d,f) and (g,a,h,b) are filters admitting both the
    proper and the parallel-pair form.  Conclusion: (c,g,d,h).

    General position is required and counted under `skipped`: no three of
    the pairs {a,b},{c,d},{e,f},{g,h} may collapse onto a single section
    (see `_six_point_collapse`); without that restriction the statement
    is false already on classical planes.
    """
    gen, mem, members, T3 = plane.gen_of, plane.mem, plane.members, plane.triple_circle
    E = members[C5, se]
    F = members[C5, sf]
    G = members[C3, sg]
    H = members[C3, sh]

    distinct = (se != sf) & (sg != sh)
    for u, v in ((E, A), (E, B), (F, A), (F, B),
                 (E, Cq), (E, D), (F, Cq), (F, D),
                 (G, A), (G, B), (G, Cq), (G, D), (G, E), (G, F),
                 (H, A), (H, B), (H, Cq), (H, D), (H, E), (H, F)):
        distinct = distinct & (u != v)
    # the eight distinct points alone go on
    idx = np.nonzero(distinct)[0]
    A, Cq, B, D, C5, C3, E, F, G, H = (v[idx] for v in (A, Cq, B, D, C5, C3, E, F, G, H))

    # hypothesis on pairs {c,d},{e,f}: one circle, or a split into two
    # parallel pairs (either matching names a degenerate plane section)
    pce, pdf = gen[Cq] == gen[E], gen[D] == gen[F]
    pcf, pde = gen[Cq] == gen[F], gen[D] == gen[E]
    t_ced = T3[Cq, E, D]
    h2 = ((~pce & ~pdf & ~pcf & ~pde
           & (t_ced >= 0) & mem[np.maximum(t_ced, 0), F])
          | (pce & pdf) | (pcf & pde))
    # hypothesis on pairs {g,h},{a,b}
    pga, phb = gen[G] == gen[A], gen[H] == gen[B]
    pgb, pha = gen[G] == gen[B], gen[H] == gen[A]
    t_abg = T3[A, B, G]
    h4 = ((~pga & ~phb & ~pgb & ~pha
           & (t_abg >= 0) & mem[np.maximum(t_abg, 0), H])
          | (pga & phb) | (pgb & pha))

    hyp0 = h2 & h4
    collapsed = hyp0 & (
        _six_point_collapse(plane, A, B, Cq, D, E, F)
        | _six_point_collapse(plane, A, B, Cq, D, G, H)
        | _six_point_collapse(plane, A, B, E, F, G, H)
        | _six_point_collapse(plane, Cq, D, E, F, G, H))
    report.skipped += int(collapsed.sum())
    hyp = hyp0 & ~collapsed
    report.hypothesis_hits += int(hyp.sum())

    # conclusion on pairs {c,d},{g,h}
    pcg, pdh = gen[Cq] == gen[G], gen[D] == gen[H]
    pch, pdg = gen[Cq] == gen[H], gen[D] == gen[G]
    t_cgd = T3[Cq, G, D]
    proper = (~pcg & ~pdh & ~pch & ~pdg
              & (t_cgd >= 0) & mem[np.maximum(t_cgd, 0), H])
    ok = proper | (pcg & pdh) | (pch & pdg)
    _record(report, hyp & ~ok, lambda i: Violation(
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
    q = plane.q
    return plane.n_circles * ((q + 1) * (q - 1)) ** 3


def _size_c(plane):
    return plane.n_circles * plane.n_circles * (plane.q + 1)


def _size_pi(plane):
    # a, then b off a's generator, then c and x each off those of a and b
    n, q = plane.n_points, plane.q
    return n * (n - q) * (n - 2 * q) ** 2


def _size_trio(plane):
    """An upper bound: the pairs K < L < M taken per base circle depend on
    the circle labels, so an exhaustive Prop21 run reports fewer."""
    return plane.n_circles * (plane.q**2 - 1) ** 2 // 2


def _size_transfer(plane):
    # unordered pairs of the q²−1 circles tangent to each base circle; none
    # on odd order, where the statement is not applicable
    t = plane.q**2 - 1
    return plane.n_circles * t * (t - 1) // 2 if plane.q % 2 == 0 else 0


def _size_miquel(plane):
    # choice space of the exhaustive generator: C1, ordered base quadruple,
    # pencil selector, and four raw member slots (invalid ones filtered)
    q = plane.q
    perms = (q + 1) * q * (q - 1) * (q - 2)
    return plane.n_circles * perms * q * (q + 1) ** 4


def _size_bundle(plane):
    q = plane.q
    perms = (q + 1) * q * (q - 1) * (q - 2)
    return plane.n_circles * perms * (q * (q + 1) * (q + 1)) ** 2


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
    fresh = plane.validate_axioms()
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
