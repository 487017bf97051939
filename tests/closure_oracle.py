"""The closures' drawing generators: an oracle for the constructive ones.

Miquel and Bundle once enumerated (exhaustive) or drew (sampled) every
member slot, f for Miquel and f and h for Bundle included, and then kept
the rows that met the concyclicity hypothesis that fixes that slot.
`checks` now derives those points.  These are the drawing blocks and
evaluators as they were, swept block by block (`sweep`), so that
`tests/test_closure_oracle.py` can compare the two on the same planes.
"""

from __future__ import annotations

import itertools

import numpy as np

from laguerre_lab.checks import (
    _gather,
    _draws,
    _pairs_concyclic,
    _six_point_collapse,
)
from laguerre_lab.report import CheckReport, Violation
from laguerre_lab.rng import bounded


def sampled_bases(plane, raw):
    """Base circles C1 with four member slots each, drawn from raw[:, :5],
    and a circle C2 of the pencil through the first two, drawn from
    raw[5]; returns the points (a, c, b, d) in those slots with C2, and
    where the slots are four distinct ones."""
    members, q = plane.members, plane.q
    C1 = bounded(raw[0], plane.n_circles)
    s = [bounded(raw[j], q + 1) for j in range(1, 5)]
    base = ((s[0] != s[1]) & (s[0] != s[2]) & (s[0] != s[3])
            & (s[1] != s[2]) & (s[1] != s[3]) & (s[2] != s[3]))
    A, Cq, B, D = (_gather(members, C1, sj) for sj in s)
    return (A, Cq, B, D, _gather(plane.vertex_pencils, A, B, bounded(raw[5], q))), base


def exhaustive_bases(plane, tail):
    """Per circle C1 and pencil selector: each ordered base quadruple
    (a, c, b, d) of C1's points, C2 the selected circle of the pencil
    through (a, b), each ordered pair of distinct member slots s, t of C2
    whose members are neither a nor b, and each index tuple of the set
    entries of `tail`; every entry of `tail` counts as a raw choice."""
    members, VP, gen, q = plane.members, plane.vertex_pencils, plane.gen_of, plane.q
    ords = np.array(list(itertools.permutations(range(q + 1), 4)), dtype=np.int64)
    if not len(ords):
        return
    n_raw = len(ords) * (q + 1) ** 2 * tail.size
    cols = np.nonzero(tail)
    n = len(cols[0])
    slots = np.arange(q + 1)
    for C1 in range(plane.n_circles):
        A, Cq, B, D = (members[C1][ords[:, j]] for j in range(4))
        for sel in range(q):
            C2 = _gather(VP, A, B, sel)
            off = (slots != gen[A][:, None]) & (slots != gen[B][:, None])
            o, s, t = (np.repeat(v, n) for v in np.nonzero(
                off[:, :, None] & off[:, None, :] & (slots[:, None] != slots)))
            k = len(o) // n
            yield (n_raw, A[o], Cq[o], B[o], D[o], C2[o], s, t, *(np.tile(c, k) for c in cols))


def miquel_blocks(plane, mode):
    """(raw count, a, c, b, d, C2, e slot, h slot, g slot, f slot) per
    block, ten draws per sample row."""
    q = plane.q
    if mode.is_sample:
        raw = _draws(mode, 10)
        cols, base = sampled_bases(plane, raw)
        idx = np.nonzero(base)[0]
        yield (raw.shape[1], *(v[idx] for v in cols),
               *(bounded(raw[j], q + 1)[idx] for j in range(6, 10)))
    else:
        yield from exhaustive_bases(plane, np.ones((q + 1, q + 1), dtype=bool))


def eval_miquel(plane, report, A, Cq, B, D, C2, se, sh, sg, sf):
    gen, members, T3 = plane.gen_of, plane.members, plane.triple_circle
    E = _gather(members, C2, se)
    H = _gather(members, C2, sh)
    base_ok = (E != A) & (E != B) & (H != A) & (H != B) & (se != sh)

    dh_ok = gen[D] != gen[H]
    ce_ok = gen[Cq] != gen[E]
    report.skipped += int((base_ok & ~(dh_ok & ce_ok)).sum())
    idx = np.nonzero(base_ok & dh_ok & ce_ok)[0]
    A, Cq, B, D, C2, E, H, sg, sf = (v[idx] for v in (A, Cq, B, D, C2, E, H, sg, sf))

    C3 = _gather(T3, A, D, H)
    G = _gather(members, C3, sg)
    C4 = _gather(T3, B, Cq, E)
    F = _gather(members, C4, sf)

    distinct = E != Cq
    for u, v in ((E, D), (H, Cq), (H, D),
                 (G, A), (G, B), (G, Cq), (G, D), (G, E), (G, H),
                 (F, A), (F, B), (F, Cq), (F, D), (F, E), (F, H), (F, G)):
        distinct = distinct & (u != v)

    hyp = distinct & _pairs_concyclic(plane, Cq, D, G, F)
    report.hypothesis_hits += int(hyp.sum())
    report.record(hyp & ~_pairs_concyclic(plane, E, F, G, H), lambda i: Violation(
        "miquel-closure",
        points=(int(A[i]), int(B[i]), int(Cq[i]), int(D[i]),
                int(E[i]), int(F[i]), int(G[i]), int(H[i])),
        circles=(int(C2[i]), int(C3[i]), int(C4[i]))))


def bundle_blocks(plane, mode):
    """(raw count, a, c, b, d, C5, e slot, f slot, C3 selector, g slot,
    h slot) per block, eleven draws per sample row."""
    q = plane.q
    if mode.is_sample:
        raw = _draws(mode, 11)
        cols, base = sampled_bases(plane, raw)
        se = bounded(raw[6], q + 1)
        sf = bounded(raw[7], q + 1)
        idx = np.nonzero(base & (se != sf))[0]
        yield (raw.shape[1], *(v[idx] for v in cols), se[idx], sf[idx],
               bounded(raw[8], q)[idx], bounded(raw[9], q + 1)[idx],
               bounded(raw[10], q + 1)[idx])
    else:
        yield from exhaustive_bases(
            plane, np.broadcast_to(~np.eye(q + 1, dtype=bool), (q, q + 1, q + 1)))


def eval_bundle(plane, report, A, Cq, B, D, C5, se, sf, c3sel, sg, sh):
    members = plane.members
    E = _gather(members, C5, se)
    F = _gather(members, C5, sf)
    C3 = _gather(plane.vertex_pencils, E, F, c3sel)
    G = _gather(members, C3, sg)
    H = _gather(members, C3, sh)

    distinct = (se != sf) & (sg != sh)
    for u, v in ((E, A), (E, B), (F, A), (F, B),
                 (E, Cq), (E, D), (F, Cq), (F, D),
                 (G, A), (G, B), (G, Cq), (G, D), (G, E), (G, F),
                 (H, A), (H, B), (H, Cq), (H, D), (H, E), (H, F)):
        distinct = distinct & (u != v)
    idx = np.nonzero(distinct)[0]
    A, Cq, B, D, C5, C3, E, F, G, H = (v[idx] for v in (A, Cq, B, D, C5, C3, E, F, G, H))

    hyp0 = _pairs_concyclic(plane, Cq, D, E, F) & _pairs_concyclic(plane, A, B, G, H)
    collapsed = hyp0 & (
        _six_point_collapse(plane, A, B, Cq, D, E, F)
        | _six_point_collapse(plane, A, B, Cq, D, G, H)
        | _six_point_collapse(plane, A, B, E, F, G, H)
        | _six_point_collapse(plane, Cq, D, E, F, G, H))
    report.skipped += int(collapsed.sum())
    hyp = hyp0 & ~collapsed
    report.hypothesis_hits += int(hyp.sum())
    report.record(hyp & ~_pairs_concyclic(plane, Cq, D, G, H), lambda i: Violation(
        "bundle-closure",
        points=(int(A[i]), int(B[i]), int(Cq[i]), int(D[i]),
                int(E[i]), int(F[i]), int(G[i]), int(H[i])),
        circles=(int(C5[i]), int(C3[i]))))


def sweep(plane, mode, check_id, blocks, evaluate):
    """The report of `evaluate(plane, report, *arrays)` over every block
    (raw count, *arrays) of `blocks(plane, mode)`, in order, each block
    counting its own raw configurations: the report `checks._sweep` makes
    of the same arrays, which it counts itself and merges in order."""
    report = CheckReport(check_id=check_id, mode=mode)
    for n_raw, *arrays in blocks(plane, mode):
        report.configurations += n_raw
        evaluate(plane, report, *arrays)
    return report.finalize()


def drawn_miquel(plane, mode, blocks=miquel_blocks):
    return sweep(plane, mode, "Miquel", blocks, eval_miquel)


def drawn_bundle(plane, mode, blocks=bundle_blocks):
    return sweep(plane, mode, "Bundle", blocks, eval_bundle)


# -- the derived slots, found by scanning every slot -----------------------

def scanned_slot(plane, P, Q, X, target, own, drawn):
    """Per row, the one member slot j of `target` other than `own` with
    {P, Q}, {X, target's point j} concyclic pairs, found by testing each
    slot with `_pairs_concyclic`; the drawn slot where no slot or several
    pass."""
    members = plane.members
    fits = np.stack([_pairs_concyclic(plane, P, Q, X, _gather(members, target, j)) & (own != j)
                     for j in range(plane.q + 1)], axis=1)
    return np.where(fits.sum(axis=1) == 1, fits.argmax(axis=1), bounded(drawn, plane.q + 1))


def scanned_miquel_blocks(plane, mode):
    """The sampled drawing blocks of Miquel with f's slot found by
    `scanned_slot` on C4 = (b,c,e)°: it meets (c,g,d,f) and is not c's."""
    members, T3, gen = plane.members, plane.triple_circle, plane.gen_of
    raw = _draws(mode, 10)
    cols, base = sampled_bases(plane, raw)
    idx = np.nonzero(base)[0]
    A, Cq, B, D, C2 = (v[idx] for v in cols)
    se, sh, sg = (bounded(raw[j], plane.q + 1)[idx] for j in (6, 7, 8))
    E, H = _gather(members, C2, se), _gather(members, C2, sh)
    G = _gather(members, _gather(T3, A, D, H), sg)
    C4 = _gather(T3, B, Cq, E)
    yield (raw.shape[1], A, Cq, B, D, C2, se, sh, sg,
           scanned_slot(plane, Cq, D, G, C4, gen[Cq], raw[9][idx]))


def scanned_bundle_blocks(plane, mode):
    """The sampled drawing blocks of Bundle with f's slot found by
    `scanned_slot` on C5 (it meets (c,e,d,f) and is not e's), then h's on
    C3 (it meets (g,a,h,b) and is not g's)."""
    members, gen, q = plane.members, plane.gen_of, plane.q
    raw = _draws(mode, 11)
    cols, base = sampled_bases(plane, raw)
    idx = np.nonzero(base)[0]
    A, Cq, B, D, C5 = (v[idx] for v in cols)
    se, c3sel, sg = (bounded(raw[j], n)[idx] for j, n in ((6, q + 1), (8, q), (9, q + 1)))
    E = _gather(members, C5, se)
    sf = scanned_slot(plane, Cq, D, E, C5, se, raw[7][idx])
    C3 = _gather(plane.vertex_pencils, E, _gather(members, C5, sf), c3sel)
    G = _gather(members, C3, sg)
    yield (raw.shape[1], A, Cq, B, D, C5, se, sf, c3sel, sg,
           scanned_slot(plane, A, B, G, C3, sg, raw[10][idx]))
