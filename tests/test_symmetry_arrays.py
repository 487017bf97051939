"""The array passes of the symmetry layer against their loop references.

`loop_build_dts`, `loop_circle_image`, `loop_verify_dts`,
`loop_three_point` and `loop_touching` below are the point-by-point forms
that the array passes in `laguerre_lab.symmetry` replaced: the symmetry
through one auxiliary scan per point, circle images through a dict of
sorted member rows, property (4) of `verify_dts` through one scalar
`tangent_to_second` call per point of a moved circle, and the Moebius
axioms through one bitmask scan per trio and per (block, point, point).
They are kept here as the second route to those results.  The array
routes must give the same images, and the same report: verdict,
configurations, skipped, violation count and the recorded violations in
order.

`loop_verify_dts` is the reference for every property of `verify_dts`:
it builds one violation per `add_violation` call, where `verify_dts`
records one mask per property through `CheckReport.record`.  `loop_uniqueness` scans the pencil of one point
pair of P x Q at a time, `loop_moebius_blocks` collects the type A blocks
one circle at a time and the type B blocks one point at a time, and
`loop_census` counts block sizes into dicts.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import itertools

import numpy as np
import pytest

from laguerre_lab import checks, cli, symmetry
from laguerre_lab.errors import NoAdmissibleAuxiliary, NotUnique, WellDefinednessFailure
from laguerre_lab.models import miquelian_plane
from laguerre_lab.report import MAX_VIOLATIONS, CheckMode, CheckReport, Violation
from laguerre_lab.symmetry import (
    Automorphism,
    build_dts,
    double_tangency_pencil,
    find_fixed_point_free_pair,
    moebius_extract,
    sample_nontangent_pairs,
    tangency_map,
    tangent_to_second,
    verify_dts,
)
from test_relabelling import RELABELLED, conjugate, plane_for, relabelling


# ---------------------------------------------------------------------------
# loop references
# ---------------------------------------------------------------------------

def loop_tangency(P, K, L):
    """tangency_map's pairs through `tangent_to_second`, or the NotUnique count."""
    pairs = []
    for x in P.members[K]:
        x = int(x)
        if P.mem[L, x]:
            pairs.append((x, x))
            continue
        try:
            pairs.append((x, tangent_to_second(P, x, K, L)[1]))
        except NotUnique as e:
            return ("NotUnique", e.count)
    return tuple(pairs)


def point_on(plane, C, g) -> int:
    """The point of circle C on generator g, by a scan of the generator."""
    (p,) = [int(t) for t in plane.gen_members[g] if plane.mem[C, t]]
    return p


def loop_build_dts(plane, K, L) -> np.ndarray:
    """The image of `build_dts` for a non-tangent pair of an odd-order plane,
    one auxiliary scan per point, with the tangency maps from
    `tangent_to_second`."""
    common = set(plane.tangency(K, L).points)
    hK = dict(loop_tangency(plane, K, L))
    hL = dict(loop_tangency(plane, L, K))

    gen, T3 = plane.gen_of, plane.triple_circle
    image = np.full(plane.n_points, -1, dtype=np.int32)
    for x, hx in hK.items():
        image[x] = hx
    for x, hx in hL.items():
        image[x] = hx

    aux = [(int(y), hy) for y, hy in hK.items() if int(y) not in common]
    for x in range(plane.n_points):
        if image[x] >= 0:
            continue
        xK = point_on(plane, K, gen[x])
        u = xK if xK in common else hK[xK]
        img = None
        img_y = None
        for y, hy in aux:
            if gen[y] == gen[x] or gen[hy] == gen[x]:
                continue
            circ = int(T3[x, y, hy])
            cand = point_on(plane, circ, gen[u])
            if img is None:
                img, img_y = cand, y
            elif cand != img:
                raise WellDefinednessFailure(x, img_y, y)
        if img is None:
            # only at order 3: the image is the one point parallel to the
            # image of xK and off both circles
            target_gen = int(gen[hK[xK]])
            cands = [int(t) for t in plane.gen_members[target_gen]
                     if not plane.mem[K, t] and not plane.mem[L, t]]
            if len(cands) != 1:
                raise NoAdmissibleAuxiliary(x)
            img = cands[0]
        image[x] = img
    return image


def loop_circle_image(plane, image) -> np.ndarray:
    """Image circle id per circle through a dict of sorted member rows."""
    by_members = {tuple(sorted(int(p) for p in plane.members[c])): c
                  for c in range(plane.n_circles)}
    return np.array([by_members.get(tuple(sorted(int(image[p]) for p in plane.members[c])), -1)
                     for c in range(plane.n_circles)], dtype=np.int32)


def loop_verify_dts(plane, phi, K, L) -> CheckReport:
    """`verify_dts` with property (4) as one scalar pencil scan per point."""
    report = CheckReport(check_id="DtsVerify", mode=CheckMode.exhaustive())
    img = phi.image
    n_p, n_c = plane.n_points, plane.n_circles
    gen = plane.gen_of
    ci = loop_circle_image(plane, img)

    for A, B in ((K, L), (L, K)):
        report.configurations += 1
        if int(ci[A]) != B:
            report.add_violation(Violation("pair-not-exchanged", circles=(A, B)))

    report.configurations += n_p
    for x in np.nonzero(img[img] != np.arange(n_p))[0]:
        report.add_violation(Violation("involution", points=(int(x), int(img[x]))))

    report.configurations += n_c + n_p
    for cid in np.nonzero(ci < 0)[0]:
        report.add_violation(Violation("circle-image", circles=(int(cid),)))
    for g in range(plane.n_gens):
        if len(set(int(v) for v in gen[img[plane.gen_members[g]]])) != 1:
            report.add_violation(Violation("parallelity", data=(("generator", g),)))

    for x in np.nonzero(img != np.arange(n_p))[0]:
        fx = int(img[x])
        if gen[x] == gen[fx]:
            report.skipped += 1
            continue
        if fx < x and int(img[fx]) == int(x):
            continue
        for M in plane.vertex_pencils[x, fx]:
            report.configurations += 1
            if int(ci[M]) != int(M):
                report.add_violation(Violation(
                    "moved-pencil-circle", points=(int(x), fx), circles=(int(M),)))

    for M in np.nonzero((ci != np.arange(n_c)) & (ci >= 0))[0]:
        Mi = int(ci[M])
        if plane.tangency(int(M), Mi).kind == "tangent":
            report.add_violation(Violation("moved-circle-tangent", circles=(int(M), Mi)))
            continue
        for x in plane.members[M]:
            x = int(x)
            report.configurations += 1
            if plane.mem[Mi, x]:
                expect = x
            else:
                try:
                    expect = tangent_to_second(plane, x, int(M), Mi)[1]
                except NotUnique as e:
                    report.add_violation(Violation(
                        "touch-image-not-unique", points=(x,), circles=(int(M), Mi),
                        data=(("count", e.count),)))
                    continue
            if int(img[x]) != expect:
                report.add_violation(Violation(
                    "touch-image", points=(x, int(img[x]), expect), circles=(int(M), Mi)))

    for C in double_tangency_pencil(plane, K, L):
        report.configurations += 1
        if int(ci[C]) != C:
            report.add_violation(Violation("common-tangent-moved", circles=(C,)))
    report.hypothesis_hits = report.configurations
    return report.finalize()


def loop_uniqueness(plane, P, Q, M, cache=None) -> CheckReport:
    """`symmetry_uniqueness` with one pencil scan per point pair of P x Q."""
    report = CheckReport(check_id="SymmetryUniqueness", mode=CheckMode.exhaustive())
    qualifying = []
    pq = plane.gen_members[[P, Q]]
    for p in plane.gen_members[P]:
        for qpt in plane.gen_members[Q]:
            pencil = plane.vertex_pencils[p, qpt]
            for i, j in itertools.combinations(range(plane.q), 2):
                K, L = int(pencil[i]), int(pencil[j])
                if plane.pair_count[K, L] != 2:
                    continue
                report.configurations += 1
                phi = symmetry._dts_cached(plane, K, L, cache)
                if (phi.image[pq] != pq).any():
                    continue
                if int(phi.circle_image()[M]) != M:
                    continue
                qualifying.append(((K, L), phi))
    report.hypothesis_hits = len(qualifying)
    if not qualifying:
        report.verdict = "Inconclusive"
        report.notes = ("NoneFound: no qualifying pair",)
    else:
        base_pair, base = qualifying[0]
        for pair, phi in qualifying[1:]:
            if not base.equals(phi):
                report.add_violation(Violation(
                    "symmetry-mismatch",
                    circles=(base_pair[0], base_pair[1], pair[0], pair[1])))
    return report.finalize()


def loop_eval_pi_symmetry(dts, plane, report, a, b, c, x, C1, p, qpt, Kp) -> None:
    """`_eval_pi_symmetry` with one `add_violation` call per violation."""
    L = plane.triple_circle[x, p, qpt]
    tangent = plane.pair_count[C1, L] == 1
    report.skipped += int(tangent.sum())
    report.hypothesis_hits += int((~tangent).sum())
    for i in np.flatnonzero(~tangent):
        K, Li, kp, ai, xi = int(C1[i]), int(L[i]), int(Kp[i]), int(a[i]), int(x[i])
        phi = symmetry._dts_cached(plane, min(K, Li), max(K, Li), dts)
        if not (phi.circle_image()[kp] == kp and phi.image[ai] == xi and phi.image[xi] == ai):
            report.add_violation(Violation(
                "pi-symmetry", points=(ai, int(b[i]), int(c[i]), xi), circles=(K, Li, kp)))


def loop_moebius_blocks(plane, phi) -> tuple:
    """The type A blocks, type B blocks and parallel moved points of
    `moebius_extract`, one scan per circle and one per point."""
    fixed = symmetry.fixed_circles(plane, phi)
    fixed_set = set(fixed)
    ci = phi.circle_image()
    T = plane.pair_count
    img = phi.image

    blocks_a = {}
    for M in range(plane.n_circles):
        Mi = int(ci[M])
        if Mi == M or T[M, Mi] == 1:
            continue
        block = tuple(F for F in fixed if T[F, M] == 1 and T[F, Mi] == 1)
        if block:
            blocks_a.setdefault(block)
    blocks_b = {}
    parallel_moved = 0
    for x in range(plane.n_points):
        fx = int(img[x])
        if plane.gen_of[x] == plane.gen_of[fx]:
            parallel_moved += 1
            continue
        thru = plane.vertex_pencils[x, fx]
        block = tuple(sorted(int(F) for F in thru if int(F) in fixed_set))
        blocks_b.setdefault(block + (symmetry.INFINITY,))
    return tuple(sorted(blocks_a)), tuple(sorted(blocks_b)), parallel_moved


def loop_census(cand) -> dict:
    census = {"A": {}, "B": {}}
    for b in cand.blocks_a:
        census["A"][len(b)] = census["A"].get(len(b), 0) + 1
    for b in cand.blocks_b:
        census["B"][len(b)] = census["B"].get(len(b), 0) + 1
    return census


def _bitmask(block, index) -> int:
    m = 0
    for p in block:
        m |= 1 << index[p]
    return m


def loop_three_point(cand) -> CheckReport:
    report = CheckReport(check_id="MoebiusThreePoint", mode=CheckMode.exhaustive())
    index = {p: i for i, p in enumerate(cand.points)}
    masks = [_bitmask(b, index) for b in cand.blocks]
    for trio in itertools.combinations(cand.points, 3):
        report.configurations += 1
        tm = _bitmask(trio, index)
        count = sum(1 for m in masks if m & tm == tm)
        if count != 1:
            report.add_violation(Violation(
                "three-point", points=trio, data=(("count", count),)))
    return report.finalize()


def loop_touching(cand) -> CheckReport:
    report = CheckReport(check_id="MoebiusTouching", mode=CheckMode.exhaustive())
    index = {p: i for i, p in enumerate(cand.points)}
    blocks = cand.blocks
    masks = [_bitmask(b, index) for b in blocks]
    point_bit = {p: 1 << index[p] for p in cand.points}
    for bi, b in enumerate(blocks):
        for P in b:
            pb = point_bit[P]
            for Qp in cand.points:
                if point_bit[Qp] & masks[bi]:
                    continue
                report.configurations += 1
                qb = point_bit[Qp]
                count = sum(1 for m in masks if (m & qb) and (m & masks[bi]) == pb)
                if count != 1:
                    report.add_violation(Violation(
                        "touching", points=(P, Qp), data=(("count", count), ("block", bi))))
    return report.finalize()


def summary(rep: CheckReport) -> tuple:
    return (rep.check_id, rep.verdict, rep.configurations, rep.hypothesis_hits,
            rep.skipped, rep.violation_count, rep.violations[:MAX_VIOLATIONS])


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

def dts_cases(q: int, pairs: int = 40):
    """Genuine symmetries of sampled pairs, each also with two image points
    swapped, replaced by the next pair's symmetry, and replaced by the
    identity."""
    P = miquelian_plane(q)
    sampled = sample_nontangent_pairs(P, pairs, seed=100 + q)
    images = [build_dts(P, K, L).image for K, L in sampled]
    rng = np.random.default_rng(q)
    for i, (K, L) in enumerate(sampled):
        swapped = images[i].copy()
        x, y = rng.choice(P.n_points, 2, replace=False)
        swapped[[x, y]] = swapped[[y, x]]
        for kind, image in (("genuine", images[i]), ("swapped", swapped),
                            ("other", images[(i + 1) % len(images)]),
                            ("identity", np.arange(P.n_points))):
            yield kind, K, L, Automorphism(P, image, ("dts", K, L))


def coordinate_map(P, lam: int, t: int) -> Automorphism:
    """The automorphism (x, y) -> (x, lam*y + t*x), (inf, a) -> (inf, lam*a)
    of the coordinate model; it sends circle (a, b, c) to (lam*a, lam*b + t, lam*c)."""
    q, mul, add = P.q, P.field.mul, P.field.add
    x, y = np.divmod(np.arange(q * q), q)
    affine = x * q + add[mul[lam, y], mul[t, x]]
    infinite = q * q + mul[lam, np.arange(q)]
    return Automorphism(P, np.concatenate((affine, infinite)))


# ---------------------------------------------------------------------------
# build_dts and circle_image
# ---------------------------------------------------------------------------

def nontangent_pairs(P, q: int):
    """All non-tangent pairs at order 3, 20 sampled pairs above."""
    if q == 3:
        return [(K, L) for K in range(P.n_circles) for L in range(K + 1, P.n_circles)
                if P.pair_count[K, L] != 1]
    return sample_nontangent_pairs(P, 20, seed=q)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, RELABELLED])
def test_build_dts_matches_the_loop_reference(q):
    P = plane_for(q)
    pairs = nontangent_pairs(P, P.q)
    assert len(pairs) == (243 if P.q == 3 else 20)
    for K, L in pairs:
        assert np.array_equal(build_dts(P, K, L).image, loop_build_dts(P, K, L)), (K, L)


def test_build_dts_reports_the_loop_reference_disagreement():
    # on a copy of the plane in which the joining circle of a point x off K
    # and L, its last admissible auxiliary y and h(y) is replaced by another
    # circle through x and y, for as many x as allow it, the pass and the
    # loop must name the same first point and the same pair of auxiliaries;
    # on the relabelled plane K's member order is not its id order, so the
    # auxiliary named first shows the order they are tried in
    for P in (miquelian_plane(5), plane_for(RELABELLED)):
        K, L = sample_nontangent_pairs(P, 1, seed=5)[0]
        image = build_dts(P, K, L).image
        bad = copy.copy(P)
        bad.triple_circle = P.triple_circle.copy()
        hK = dict(loop_tangency(P, K, L))
        aux = [(y, hy) for y, hy in hK.items() if y != hy]
        gen = P.gen_of
        corrupted = 0
        for x in range(P.n_points):
            if P.mem[K, x] or P.mem[L, x]:
                continue
            admissible = [(y, hy) for y, hy in aux if gen[x] != gen[y] and gen[x] != gen[hy]]
            if len(admissible) < 2:
                continue
            y, hy = admissible[-1]
            others = [c for c in P.vertex_pencils[x, y] if P.members[c, gen[image[x]]] != image[x]]
            if others:  # none when the image of x is parallel to x or y
                bad.triple_circle[x, y, hy] = others[0]
                corrupted += 1
        assert corrupted > 1
        with pytest.raises(WellDefinednessFailure) as want:
            loop_build_dts(bad, K, L)
        with pytest.raises(WellDefinednessFailure) as got:
            build_dts(bad, K, L)
        assert ((got.value.x, got.value.y1, got.value.y2)
                == (want.value.x, want.value.y1, want.value.y2)), P.label


@pytest.mark.parametrize("q", [3, 4, 5, 7, RELABELLED])
def test_circle_image_matches_the_dict_reference(q):
    # the relabelled plane takes the model plane's automorphisms, renamed
    P = plane_for(q)
    model = miquelian_plane(P.q)
    points = relabelling(P.q)[2] if isinstance(q, str) else np.arange(P.n_points)
    n_p = P.n_points
    rng = np.random.default_rng(P.q)
    automorphisms = [coordinate_map(model, 1, 1).image]
    if P.q % 2:
        automorphisms += [build_dts(model, K, L).image
                          for K, L in sample_nontangent_pairs(model, 5, seed=P.q)]
    automorphisms = [conjugate(image, points) for image in automorphisms]
    # non-permutations: repeated points, one point for all, ids off the plane
    merged = np.arange(n_p)
    merged[P.gen_members[0, 1]] = P.gen_members[0, 0]
    others = [rng.permutation(n_p) for _ in range(3)] + [
        merged, rng.integers(0, n_p, n_p), np.zeros(n_p),
        np.arange(n_p) + n_p // 2, np.arange(n_p) - 3]
    for i, image in enumerate(automorphisms + others):
        want = loop_circle_image(P, image)
        assert np.array_equal(Automorphism(P, image).circle_image(), want), i
        if i < len(automorphisms):
            assert (want >= 0).all()


# ---------------------------------------------------------------------------
# verify_dts, property (4)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_verify_dts_matches_the_loop_reference(q):
    P = miquelian_plane(q)
    verdicts = {}
    for kind, K, L, phi in dts_cases(q):
        got = verify_dts(P, phi, K, L)
        assert summary(got) == summary(loop_verify_dts(P, phi, K, L)), (kind, K, L)
        verdicts.setdefault(kind, set()).add(got.verdict)
    assert verdicts["genuine"] == {"Holds"}
    assert verdicts["swapped"] == {"Fails"}
    assert "Fails" in verdicts["other"]  # two pairs may share their symmetry


@pytest.mark.parametrize("q", [4, 8])
def test_verify_dts_not_unique_matches_the_loop_reference(q):
    # the shears (x, y) -> (x, y + t*x) are involutions in characteristic 2
    # that move every circle onto a secant one, and no pencil there holds
    # exactly one circle tangent to the image
    P = miquelian_plane(q)
    K, L = sample_nontangent_pairs(P, 1, seed=q)[0]
    for t in range(1, q):
        phi = coordinate_map(P, 1, t)
        got = verify_dts(P, phi, K, L)
        assert summary(got) == summary(loop_verify_dts(P, phi, K, L)), t
        assert "touch-image-not-unique" in {v.kind for v in got.violations}


@pytest.mark.parametrize("q", [5, 7])
def test_moved_tangent_circles_keep_their_place_in_the_order(q):
    # (x, y) -> (x, -y) is an involutory automorphism that sends some
    # circles onto tangent ones and others onto secant ones
    P = miquelian_plane(q)
    K, L = sample_nontangent_pairs(P, 1, seed=q)[0]
    phi = coordinate_map(P, q - 1, 0)
    got = verify_dts(P, phi, K, L)
    assert summary(got) == summary(loop_verify_dts(P, phi, K, L))
    assert {v.kind for v in got.violations} == {
        "pair-not-exchanged", "moved-circle-tangent", "touch-image"}


def test_verify_dts_builds_only_the_violations_it_records(monkeypatch):
    # a seeded permutation of the points is no automorphism: dozens of its
    # points are not exchanged with their image and dozens of circles have
    # no circle for image, but only the recorded violations become objects
    P = miquelian_plane(5)
    K, L = sample_nontangent_pairs(P, 1, seed=5)[0]
    image = np.random.default_rng(5).permutation(P.n_points)
    phi = Automorphism(P, image, ("dts", K, L))
    assert (image[image] != np.arange(P.n_points)).sum() > MAX_VIOLATIONS
    assert (loop_circle_image(P, image) < 0).sum() > MAX_VIOLATIONS
    want = loop_verify_dts(P, phi, K, L)
    made = []

    def counted(*args, **kwargs):
        made.append(args[0])
        return Violation(*args, **kwargs)

    monkeypatch.setattr(symmetry, "Violation", counted)
    got = verify_dts(P, phi, K, L)
    assert summary(got) == summary(want)
    assert got.violation_count > 2 * MAX_VIOLATIONS
    assert len(made) <= MAX_VIOLATIONS


# ---------------------------------------------------------------------------
# symmetry_uniqueness
# ---------------------------------------------------------------------------

def test_symmetry_uniqueness_matches_the_loop_reference_q3():
    P = miquelian_plane(3)
    cache = {}
    for G, H in itertools.permutations(range(P.n_gens), 2):
        for M in range(P.n_circles):
            got = symmetry.symmetry_uniqueness(P, G, H, M, cache)
            want = loop_uniqueness(P, G, H, M, cache)
            assert summary(got) + (got.notes,) == summary(want) + (want.notes,), (G, H, M)


def test_symmetry_uniqueness_mismatches_keep_the_loop_order():
    # the classify example's (P, Q, M) at order 5, with the identity planted
    # in the cache for every third secant pair: planted pairs qualify and
    # differ from the genuine symmetries, which gives more mismatches than
    # are recorded; a map moving every point, planted for all pairs, leaves
    # none qualifying
    P = miquelian_plane(5)
    K, L = P.circle_from_coef((1, 0, 0)).id, P.circle_from_coef((4, 0, 2)).id
    cls = symmetry.classify_symmetry(P, K, L)
    args = (P, *cls.fixed_generators, cls.witness_circle)
    genuine = {}
    assert loop_uniqueness(*args, genuine).holds
    pairs = list(genuine)           # the secant pairs, in enumeration order
    planted = dict(genuine)
    for pair in pairs[1::3]:
        planted[pair] = Automorphism.identity(P)
    shifted = Automorphism(P, np.roll(np.arange(P.n_points), 1))
    for cache, verdict in ((dict.fromkeys(pairs, shifted), "Inconclusive"), (planted, "Fails")):
        got = symmetry.symmetry_uniqueness(*args, cache)
        want = loop_uniqueness(*args, cache)
        assert summary(got) + (got.notes,) == summary(want) + (want.notes,)
        assert (got.verdict, got.configurations) == (verdict, len(pairs))
    assert got.violation_count > MAX_VIOLATIONS


# ---------------------------------------------------------------------------
# verify_pi_symmetry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q, mode", [(3, CheckMode.exhaustive()), (5, CheckMode.sample(1500, 77))])
def test_pi_symmetry_matches_the_loop_reference(q, mode):
    # genuine symmetries, then the identity planted for every non-tangent
    # pair whose ids sum to a multiple of 3: it fixes K' but does not
    # exchange a and x, which gives more violations than are recorded
    P = miquelian_plane(q)
    identity = Automorphism.identity(P)
    planted = {(K, L): identity for K in range(P.n_circles) for L in range(K + 1, P.n_circles)
               if (K + L) % 3 == 0 and P.pair_count[K, L] != 1}
    for start in ({}, planted):
        got, want = (checks._sweep(P, mode, "PiSymmetry", checks._pi_blocks,
                                   functools.partial(evaluate, dict(start)))
                     for evaluate in (symmetry._eval_pi_symmetry, loop_eval_pi_symmetry))
        assert summary(got) == summary(want)
        assert got.hypothesis_hits > 0
    assert got.violation_count > MAX_VIOLATIONS


# ---------------------------------------------------------------------------
# tangency_map
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_tangency_map_matches_tangent_to_second(q):
    P = miquelian_plane(q)
    refused = 0
    for K, L in sample_nontangent_pairs(P, 40, seed=q):
        for A, B in ((K, L), (L, K)):
            want = loop_tangency(P, A, B)
            try:
                got = tuple(zip(P.members[A].tolist(), tangency_map(P, A, B).tolist()))
            except NotUnique as e:
                got = ("NotUnique", e.count)
                refused += 1
            assert got == want, (A, B)
    # the unique-tangent axiom holds exactly on the planes of odd order
    assert (refused > 0) == (q % 2 == 0)


@pytest.mark.parametrize("q", [4, 8])
def test_build_dts_refuses_with_the_first_count_on_even_orders(q):
    P = miquelian_plane(q)
    for K, L in sample_nontangent_pairs(P, 10, seed=q):
        want = loop_tangency(P, K, L)
        with pytest.raises(NotUnique) as e:
            build_dts(P, K, L)
        assert ("NotUnique", e.value.count) == want


# ---------------------------------------------------------------------------
# Moebius axioms
# ---------------------------------------------------------------------------

def moebius_cases(q: int):
    P = miquelian_plane(q)
    cand = moebius_extract(P, find_fixed_point_free_pair(P)[2])
    mid_a, mid_b = len(cand.blocks_a) // 2, len(cand.blocks_b) // 2
    yield "extracted", cand
    yield "no A block", dataclasses.replace(
        cand, blocks_a=cand.blocks_a[:mid_a] + cand.blocks_a[mid_a + 1:])
    yield "no B block", dataclasses.replace(
        cand, blocks_b=cand.blocks_b[:mid_b] + cand.blocks_b[mid_b + 1:])


@pytest.mark.parametrize("q", [3, 5, 7])
def test_moebius_axioms_match_the_loop_reference(q):
    verdicts = {}
    for name, cand in moebius_cases(q):
        three = symmetry._three_point_axiom(cand)
        touching = symmetry._touching_axiom(cand)
        assert summary(three) == summary(loop_three_point(cand)), name
        assert summary(touching) == summary(loop_touching(cand)), name
        verdicts[name] = touching.verdict
    # dropping a block breaks the touching axiom the extracted candidate has
    assert verdicts == {"extracted": "Holds", "no A block": "Fails", "no B block": "Fails"}


# ---------------------------------------------------------------------------
# Moebius blocks and the search for their symmetry
# ---------------------------------------------------------------------------

def moebius_block_cases(q):
    """The first fixed-point-free symmetry, and the same map with the
    images of a point x and of w = phi(z), for z another point of x's
    generator, exchanged: a permutation without fixed points that is no
    automorphism, which moves x and w onto their own generators and gives
    blocks of several sizes.  Where a circle's image is no circle (-1),
    both routes read that id alike."""
    P = plane_for(q)
    phi = find_fixed_point_free_pair(P)[2]
    yield "extracted", P, phi
    x = 0
    z = next(int(t) for t in P.gen_members[P.gen_of[x]] if t != x)
    w = phi(z)
    image = phi.image.copy()
    image[[x, w]] = z, phi(x)
    yield "swapped", P, Automorphism(P, image, phi.provenance)


@pytest.mark.parametrize("q", [3, 5, 7, RELABELLED])
def test_moebius_blocks_match_the_loop_reference(q):
    parallel = {}
    for name, P, phi in moebius_block_cases(q):
        cand = moebius_extract(P, phi)
        got = (cand.blocks_a, cand.blocks_b, cand.parallel_moved_points)
        assert got == loop_moebius_blocks(P, phi), name
        # the census prints as the loop's dicts, keys in first-seen order
        assert repr(cand.block_size_census()) == repr(loop_census(cand)), name
        parallel[name] = cand.parallel_moved_points
    assert parallel == {"extracted": 0, "swapped": 2}


def test_find_fixed_point_free_pair_builds_up_to_the_pair_it_returns(monkeypatch):
    # every symmetry built for circle 0 is replaced by the identity, which
    # fixes every point: the scan must go through circle 0's disjoint
    # partners, in order, then stop at circle 1's first disjoint partner,
    # whose symmetry moves every point
    P = miquelian_plane(5)
    real = symmetry.build_dts
    calls = []

    def counted(plane, K, L):
        calls.append((K, L))
        return Automorphism.identity(plane) if K == 0 else real(plane, K, L)

    monkeypatch.setattr(symmetry, "build_dts", counted)
    K, L, phi = find_fixed_point_free_pair(P)
    disjoint = [tuple(pair) for pair in np.argwhere(np.triu(P.pair_count == 0, k=1)).tolist()]
    first_of_1 = next(i for i, pair in enumerate(disjoint) if pair[0] == 1)
    assert calls == disjoint[:first_of_1 + 1]
    assert (K, L) == calls[-1] and phi.equals(real(P, K, L))


# ---------------------------------------------------------------------------
# the command line builds one symmetry per request
# ---------------------------------------------------------------------------

def test_dts_verify_export_builds_the_symmetry_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = symmetry.build_dts

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)

    monkeypatch.setattr(symmetry, "build_dts", counted)
    out, aut = tmp_path / "dts.jsonl", tmp_path / "dts.aut"
    code = cli.main(["dts", "--q", "5", "--k", "1,0,0", "--l", "4,0,2", "--verify",
                     "--out", str(out), "--export", str(aut)])
    capsys.readouterr()
    assert code == 0
    assert len(calls) == 1
    P = miquelian_plane(5)
    K, L = calls[0]
    assert aut.read_text() == symmetry.export_automorphism(P, real(P, K, L))
