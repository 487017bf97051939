"""Double tangency symmetries: the involutory automorphism of a
non-tangent circle pair, its verification, classification, and the
inversive-geometry extraction from its fixed circles.

For a non-tangent pair (K, L) and the unique-tangent axiom available, the
map sending x to the point of the circle (x, y, h(y))° parallel to the
L-image of xK is an involutory automorphism: `build_dts` evaluates that
formula, verifying for every point that all admissible auxiliary choices
y agree before accepting the image.

Every whole-plane step of building and certifying a symmetry is a numpy
pass over the plane's own indexes:

  * `_pencil_touch`   the tangent pencils of every member of many circles,
                      K and the `pencil_others` columns, in one flat read
                      of `pair_code`: `build_dts` reads both tangency maps
                      from one call, `verify_dts` property (4) from one,
  * `build_dts`       two flat takes, `triple_circle` then `members`, over
                      the points off K and L by the auxiliaries on K; a
                      parallel triple's -1 reads the last row, masked,
  * `circle_image`    no sorts: one `triple_circle` read per image row,
                      checked by one `mem` read and one generator scatter,
  * `verify_dts`      one mask per property through `CheckReport.record`:
                      (3) one `vertex_pencils` row per moved pair, (4) all
                      moved circles and their member slots at once,
  * Moebius blocks    type A from one fixed x moved tangency matrix, type
                      B from the `vertex_pencils` rows of the moved points,
  * Moebius axioms    one block x point incidence matrix: the trio
                      counts of each first point from one product of its
                      columns, and touching counts from its products.

The second route to these verdicts is scalar: `tangent_to_second` scans
one point's pencil at a time, and the loop forms the passes replaced are
kept in the tests, on top of it, as the references the passes must match
image for image and report for report.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NotFixedPointFree,
    NotUnique,
    PointNotOnCircle,
    TangentPair,
    WellDefinednessFailure,
)
from .plane import Circle, LaguerrePlane, _cid, meet_count, meet_sum, touch_code
from .report import CheckMode, CheckReport, Violation
from .rng import bounded, draw_block

__all__ = [
    "Automorphism",
    "SymmetryClassification",
    "MoebiusCandidate",
    "tangent_to_second",
    "tangency_map",
    "double_tangency_pencil",
    "build_dts",
    "verify_dts",
    "classify_symmetry",
    "fixed_circles",
    "moebius_extract",
    "find_fixed_point_free_pair",
    "sample_nontangent_pairs",
    "export_automorphism",
    "import_automorphism",
]

INFINITY = -1  # the added point of the inversive candidate


# ---------------------------------------------------------------------------
# the tangency image maps
# ---------------------------------------------------------------------------

def tangent_to_second(plane: LaguerrePlane, p: int, K, L) -> tuple[Circle | None, int]:
    """The tangent-pencil member at (p, K) tangent to L, and its touch point.

    For p on both circles the touch point is p itself by convention (a
    pencil member tangent to L at p is returned when one exists, else
    None).  Raises NotUnique when no or several pencil members are
    tangent to L, which is the expected failure on planes of
    characteristic 2.
    """
    K, L = _cid(K), _cid(L)
    if not plane.mem[K, p]:
        raise PointNotOnCircle(f"point {p} not on circle {K}")
    if K == L:
        raise ValueError("circles must be distinct")
    pc = plane.pair_code
    pencil = [K] + plane.pencil_others[K, plane.gen_of[p]].tolist()
    if plane.mem[L, p]:
        hits = [m for m in pencil if pc[m, L] == touch_code(p)]
        return (plane.circle(hits[0]) if len(hits) == 1 else None), p
    hits = [m for m in pencil if meet_count(pc[m, L]) == 1]
    if len(hits) != 1:
        raise NotUnique(len(hits))
    return plane.circle(hits[0]), int(meet_sum(pc[hits[0], L]))


def _pencil_touch(plane: LaguerrePlane, K, L) -> tuple[np.ndarray, np.ndarray]:
    """`tangent_to_second` for every member of K, over arrays of pairs.

    The pencil of pair i at member slot j is K[i] and the q-1 circles of
    `pencil_others[K[i], j]`.  Member c of every (pair, slot) pencil gives
    one (m, q+1) column of int32 offsets into `pair_code`, and all q
    columns are read in one flat `take`.  Returns the uint8 count of
    members tangent to L[i] and, where it is 1, the touch point on L[i] of
    that member, decoded from the sum of the tangent members' pair codes,
    which is its code; both are (m, q+1), elsewhere the touch point means
    nothing.
    """
    q, n_c, K = plane.q, plane.n_circles, np.asarray(K, dtype=np.intp)
    off = np.empty((q, len(K), q + 1), dtype=np.int32)
    off[0] = K[:, None]
    off[1:] = plane.pencil_others.take(K, axis=0).transpose(2, 0, 1)
    off *= n_c
    off += np.asarray(L)[:, None]
    code = plane.pair_code.reshape(-1).take(off)
    hits = meet_count(code) == 1
    code *= hits
    return hits.sum(axis=0, dtype=np.uint8), meet_sum(code.sum(axis=0, dtype=code.dtype))


def _tangency_maps(plane: LaguerrePlane, K: int, L: int, both: bool) -> np.ndarray:
    """`tangency_map` of (K, L), and with `both` of (L, K) as a second row,
    from one `_pencil_touch` call; x on K lies on L where L's point on x's
    generator is x.  The first point, in row then member order, without
    exactly one pencil member tangent to L raises NotUnique with that count."""
    if K == L or meet_count(plane.pair_code[K, L]) == 1:
        raise TangentPair(f"circles {K},{L} are {plane.tangency(K, L).kind}")
    Ks, Ls = ([K, L], [L, K]) if both else ([K], [L])
    xs = plane.members[Ks]
    on = plane.members[Ls] == xs
    count, touch = _pencil_touch(plane, Ks, Ls)
    not_unique = ~on & (count != 1)
    if not_unique.any():
        raise NotUnique(int(count.flat[not_unique.argmax()]))
    return np.where(on, xs, touch).astype(np.int32)


def tangency_map(plane: LaguerrePlane, K, L) -> np.ndarray:
    """The images of `plane.members[K]`, in member order (the order of the
    generators), under the map K -> L sending x to the touch point of
    (x,K,L)° on L; common points map to themselves.  The first point whose
    pencil does not hold exactly one circle tangent to L raises NotUnique
    with that count: only on planes of even order."""
    return _tangency_maps(plane, _cid(K), _cid(L), both=False)[0]


def double_tangency_pencil(plane: LaguerrePlane, K, L) -> tuple[int, ...]:
    """The ids of all circles tangent to both K and L (tangency includes
    equality), sorted."""
    K, L = _cid(K), _cid(L)
    if K == L:
        raise ValueError("circles must be distinct")
    ok = meet_count(plane.pair_code[[K, L]]) == 1
    ok[0, K] = ok[1, L] = True
    return tuple(np.flatnonzero(ok.all(axis=0)).tolist())


# ---------------------------------------------------------------------------
# the automorphism
# ---------------------------------------------------------------------------

class Automorphism:
    """A point permutation certified to preserve parallelity and circles;
    `pair` is the (K, L) of a double tangency symmetry, else None."""

    def __init__(self, plane: LaguerrePlane, image, pair: tuple[int, int] | None = None):
        self.plane = plane
        self.image = np.asarray(image, dtype=np.int32)
        self.pair = pair
        self._circle_image: np.ndarray | None = None

    @classmethod
    def identity(cls, plane: LaguerrePlane) -> "Automorphism":
        return cls(plane, np.arange(plane.n_points, dtype=np.int32))

    def __call__(self, x: int) -> int:
        return int(self.image[x])

    def equals(self, other: "Automorphism") -> bool:
        return bool(np.array_equal(self.image, other.image))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(int(p) for p in np.nonzero(self.image == np.arange(len(self.image)))[0])

    def is_involution(self) -> bool:
        return bool((self.image[self.image] == np.arange(len(self.image))).all())

    def circle_image(self) -> np.ndarray:
        """Image circle id per circle; -1 where the image is not a circle.

        No sorts: the circle of each image row's first three points (ids off
        the plane read at 0), kept where the row lies on it (one `mem` read,
        in which a -1 reads the last row) and meets every generator once (one
        scatter, ids off the plane on row n_gens); a circle has one point per
        generator, so the row is then its members.
        """
        if self._circle_image is None:
            plane = self.plane
            n_p, n_c, n_g = plane.n_points, plane.n_circles, plane.n_gens
            on = (self.image >= 0) & (self.image < n_p)
            img, slots = np.where(on, self.image, 0).astype(np.intp), plane.members.T
            pts = img.take(slots)  # slot-major: each test reduces across circles
            cid = plane.triple_circle.take((pts[0] * n_p + pts[1]) * n_p + pts[2]).astype(np.intp)
            gen = np.multiply(np.where(on, plane.gen_of.take(img), n_g), n_c, dtype=np.intp)
            met = np.zeros((n_g + 1, n_c), dtype=bool)
            met.reshape(-1)[gen.take(slots) + np.arange(n_c)] = True
            ok = (cid >= 0) & met[:n_g].all(axis=0) & plane.mem.take(cid * n_p + pts).all(axis=0)
            self._circle_image = np.where(ok, cid, -1).astype(np.int32)
        return self._circle_image

    def split_generators(self) -> np.ndarray:
        """Per generator, whether it is not mapped onto one generator."""
        gen_img = self.plane.gen_of[self.image[self.plane.gen_members]]
        return (gen_img != gen_img[:, :1]).any(axis=1)

    def validate(self) -> None:
        """Raise ValueError unless this is a genuine plane automorphism."""
        if not np.array_equal(np.sort(self.image), np.arange(self.plane.n_points)):
            raise ValueError("image is not a permutation of the points")
        split = self.split_generators()
        if split.any():
            raise ValueError(f"generator {split.argmax()} is not mapped onto one generator")
        bad = self.circle_image() < 0
        if bad.any():
            raise ValueError(f"image of circle {bad.argmax()} is not a circle")


def build_dts(plane: LaguerrePlane, K, L) -> Automorphism:
    """The double tangency symmetry of a non-tangent pair (K, L).

    Points of K and L map through both tangency maps, from one pencil scan
    of (K, L) and (L, K) (`_tangency_maps`); any other point x maps to the
    point parallel to ((xK)KL) on the circle through x, an auxiliary y on
    K off L, and h(y).  Every admissible auxiliary y (y off L, y not
    parallel to x, h(y) not parallel to x) is evaluated, in one gather over
    the points off K and L by the auxiliaries in K's member order, and all
    images must agree, so well-definedness is checked, not trusted: the
    first x, in point order, with a differing candidate raises
    WellDefinednessFailure naming its first and first differing auxiliary.

    Of the q+1 points of K, at least q−1 are off L, and y ∥ x and h(y) ∥ x
    each drop at most one of them (h is a bijection K -> L), so at q ≥ 5
    at least q−3 ≥ 2 auxiliaries stay admissible.  Only at order 3 can
    none be, and then the image is the one point parallel to u = h(xK)
    off both circles: xK is off L (else y = xK would be admissible), so u
    is not on K, and K and L meet u's generator in two points of its q.
    """
    K, L = _cid(K), _cid(L)
    image = np.full(plane.n_points, -1, dtype=np.int32)
    image[plane.members[[K, L]]] = _tangency_maps(plane, K, L, both=True)
    hK = image[plane.members[K]]

    gen, n_p, m = plane.gen_of, plane.n_points, plane.q + 1
    off_L = plane.members[L] != plane.members[K]
    Y, hY = plane.members[K][off_L].astype(np.intp), hK[off_L]
    X = np.flatnonzero(image < 0)
    gX = gen[X][:, None]
    # the generator of the image of xK, the point of K parallel to x
    target = gen[image[plane.members[K, gen[X]]]]
    circle = plane.triple_circle.take((X * n_p ** 2)[:, None] + (Y * n_p + hY))
    cand = plane.members.take(circle.astype(np.intp) * m + target[:, None])
    admissible = (gen[Y] != gX) & (gen[hY] != gX)
    first = admissible.argmax(axis=1)
    img = cand[np.arange(len(X)), first]
    differs = admissible & (cand != img[:, None])
    # in point order, the rows where an auxiliary disagrees or none is admissible
    for r in np.flatnonzero(differs.any(axis=1) | ~admissible.any(axis=1)):
        if differs[r].any():
            raise WellDefinednessFailure(int(X[r]), int(Y[first[r]]), int(Y[differs[r].argmax()]))
        # Possible only at order 3: the one non-parallel auxiliary has its
        # image parallel to x.  The image is still forced, since it must be
        # parallel to the image of xK and off both circles, which pins a
        # unique point; the verification suite certifies the completed map
        # like any other.
        (img[r],) = [t for t in plane.gen_members[target[r]]
                     if not plane.mem[K, t] and not plane.mem[L, t]]
    image[X] = img

    phi = Automorphism(plane, image, (K, L))
    phi.validate()
    return phi


def fixed_circles(plane: LaguerrePlane, phi: Automorphism) -> tuple[int, ...]:
    """All circles mapped onto themselves (as sets) by phi."""
    return tuple(np.flatnonzero(phi.circle_image() == np.arange(plane.n_circles)).tolist())


# ---------------------------------------------------------------------------
# verification of the defining properties
# ---------------------------------------------------------------------------

def verify_dts(plane: LaguerrePlane, phi: Automorphism, K, L) -> CheckReport:
    """Check the defining properties of a double tangency symmetry.

    (0) K and L are exchanged, (1) involution, (2) automorphism (circles
    to circles, parallelity both ways), (3) every circle through a moved
    point x and its image is fixed, (4) the image of any x on a moved
    circle M is the touch point of (x,M,phi(M))° on phi(M) — including
    that M and phi(M) are never tangent, and (5) every common tangent
    circle of (K,L) is fixed.  Moved points parallel to their image are
    counted as skipped in (3).

    Each property is one mask through `CheckReport.record`, which builds
    the first `MAX_VIOLATIONS` violations and counts the rest.  (4) reads
    tangent pairs (M, phi(M)) from `pair_code`, and for the others each
    member slot's pencil count and touch point from one `_pencil_touch`
    call over all moved circles, in the order of a scan by M, then slot;
    x lies on phi(M) where phi(M)'s point on x's generator is x.
    """
    report = CheckReport(check_id="DtsVerify", mode=CheckMode.exhaustive())
    t0 = time.perf_counter()
    K, L = _cid(K), _cid(L)
    img, ci = phi.image, phi.circle_image()
    n_p, n_c, gen = plane.n_points, plane.n_circles, plane.gen_of

    # (0) the pair is exchanged: without it the identity would pass
    report.configurations += 2
    report.record(ci[[K, L]] != [L, K], lambda i: Violation(
        "pair-not-exchanged", circles=((K, L), (L, K))[i]))

    # (1) involution
    report.configurations += n_p
    report.record(img[img] != np.arange(n_p), lambda x: Violation(
        "involution", points=(x, int(img[x]))))

    # (2) automorphism
    report.configurations += n_c + n_p
    report.record(ci < 0, lambda c: Violation("circle-image", circles=(c,)))
    report.record(phi.split_generators(), lambda g: Violation(
        "parallelity", data=(("generator", g),)))

    # (3) circles through x and phi(x) are fixed: one pencil row per moved
    # x off phi(x)'s generator, skipping pairs already met at phi(x)
    xs = np.flatnonzero(img != np.arange(n_p))
    fxs = img[xs]
    parallel = gen[xs] == gen[fxs]
    report.skipped += int(np.count_nonzero(parallel))
    keep = ~parallel & ~((fxs < xs) & (img[fxs] == xs))
    xs, fxs = xs[keep], fxs[keep]
    pencils = plane.vertex_pencils.reshape(-1, plane.q).take(xs * n_p + fxs, axis=0)
    report.configurations += pencils.size
    report.record(ci.take(pencils) != pencils, lambda i: Violation(
        "moved-pencil-circle", points=(int(xs[i // plane.q]), int(fxs[i // plane.q])),
        circles=(int(pencils.flat[i]),)))

    # (4) the touch-point identity, one pass over all moved circles M and
    # their member slots; a tangent (M, phi(M)) is one violation in slot 0
    M = np.nonzero((ci != np.arange(n_c)) & (ci >= 0))[0]
    Mi = ci[M]
    tangent = meet_count(plane.pair_code.take(M * n_c + Mi)) == 1
    X = plane.members.take(M, axis=0)
    on = plane.members.take(Mi, axis=0) == X
    count, touch = _pencil_touch(plane, M, Mi)
    expect = np.where(on, X, touch)
    not_unique = ~on & (count != 1)
    wrong = ~not_unique & (img.take(X) != expect)
    slots = X.shape[1]
    report.configurations += slots * int(np.count_nonzero(~tangent))
    bad = np.where(tangent[:, None], np.arange(slots) == 0, not_unique | wrong)

    def touch_violation(i: int) -> Violation:
        r, j = divmod(i, slots)
        circles, x = (int(M[r]), int(Mi[r])), int(X[r, j])
        if tangent[r]:
            return Violation("moved-circle-tangent", circles=circles)
        if not_unique[r, j]:
            return Violation("touch-image-not-unique", points=(x,), circles=circles,
                             data=(("count", int(count[r, j])),))
        return Violation("touch-image", points=(x, int(img[x]), int(expect[r, j])),
                         circles=circles)

    report.record(bad, touch_violation)

    # (5) the common tangent circles of (K, L) are fixed
    common = np.array(double_tangency_pencil(plane, K, L), dtype=np.intp)
    report.configurations += len(common)
    report.record(ci[common] != common, lambda i: Violation(
        "common-tangent-moved", circles=(int(common[i]),)))

    report.hypothesis_hits = report.configurations
    report.elapsed_seconds = time.perf_counter() - t0
    return report.finalize()


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryClassification:
    kind: str  # "LaguerreSymmetry" | "FixedPointFree" | "Other"
    fixed_generators: tuple[int, int] | None = None
    witness_circle: int | None = None
    fixed_point_count: int = 0
    details: str = ""


def classify_symmetry(plane: LaguerrePlane, K, L,
                      phi: Automorphism | None = None) -> SymmetryClassification:
    """Classify the double tangency symmetry of a non-tangent pair.

    Secant pairs must yield an involution pointwise fixing the two
    generators through the common points with a setwise (not pointwise)
    fixed witness circle; disjoint pairs are classified by their fixed
    point census.  Any deviation is reported as Other, never asserted.
    """
    K, L = _cid(K), _cid(L)
    t = plane.tangency(K, L)
    if t.kind in ("tangent", "equal"):
        raise TangentPair(f"circles {K},{L} are {t.kind}")
    if phi is None:
        phi = build_dts(plane, K, L)
    fixed = phi.fixed_points()
    if t.kind == "secant":
        p, q = t.points
        gp, gq = int(plane.gen_of[p]), int(plane.gen_of[q])
        pq = plane.gen_members[[gp, gq]]
        if not ((phi.image[pq] == pq).all() and phi.is_involution()):
            return SymmetryClassification("Other", fixed_point_count=len(fixed),
                                          details="secant pair without pointwise-fixed generators")
        # the first circle fixed setwise but not pointwise, among the fixed ones
        setwise = np.flatnonzero(phi.circle_image() == np.arange(plane.n_circles))
        rows = plane.members.take(setwise, axis=0)
        witnesses = setwise[(phi.image.take(rows) != rows).any(axis=1)]
        if not len(witnesses):
            return SymmetryClassification("Other", fixed_point_count=len(fixed),
                                          details="no setwise-fixed witness circle")
        return SymmetryClassification("LaguerreSymmetry", (gp, gq), int(witnesses[0]), len(fixed))
    if not fixed:
        return SymmetryClassification("FixedPointFree", fixed_point_count=0)
    return SymmetryClassification("Other", fixed_point_count=len(fixed),
                                  details="disjoint pair with fixed points")


# ---------------------------------------------------------------------------
# the inversive-plane candidate from the fixed circles
# ---------------------------------------------------------------------------

@dataclass
class MoebiusCandidate:
    """Point/block structure read off a fixed-point-free symmetry.

    Points are the fixed circles plus one added point (INFINITY).  Type A
    blocks collect the fixed circles commonly tangent to a moved circle
    and its image; type B blocks collect the fixed circles through a
    point and its image, completed by the added point.  The axiom report
    records whether three points always lie on one block and whether the
    touching axiom holds; nothing is asserted.
    """

    points: tuple[int, ...]
    blocks_a: tuple[tuple[int, ...], ...]
    blocks_b: tuple[tuple[int, ...], ...]
    parallel_moved_points: int
    three_point_report: CheckReport = field(repr=False, default=None)
    touching_report: CheckReport = field(repr=False, default=None)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return self.blocks_a + self.blocks_b

    def block_size_census(self) -> dict[str, dict[int, int]]:
        return {"A": dict(Counter(map(len, self.blocks_a))),
                "B": dict(Counter(map(len, self.blocks_b)))}


def moebius_extract(plane: LaguerrePlane, phi: Automorphism) -> MoebiusCandidate:
    """Build the inversive-plane candidate of a fixed-point-free symmetry.

    Its axiom reports come from array passes over the block x point
    incidence matrix, built once (`_incidence`), in `_three_point_axiom`
    and `_touching_axiom`, which build only the first `MAX_VIOLATIONS`
    violations and count the rest: the candidate is half an inversive
    plane, so half its trios fail.
    Raises ValueError where the symmetry maps a circle onto no circle.
    """
    if phi.fixed_points():
        raise NotFixedPointFree("the symmetry fixes a point")
    if phi.pair is None:
        raise ValueError("candidate extraction needs a double tangency symmetry")
    ci, pc, n_c = phi.circle_image(), plane.pair_code, plane.n_circles
    if (ci < 0).any():
        raise ValueError(f"the symmetry maps circle {(ci < 0).argmax()} onto no circle")
    fixed = fixed_circles(plane, phi)
    F = np.array(fixed, dtype=np.intp)

    # type A: one column of fixed circles per moved circle M not tangent to
    # its image, those tangent to both; distinct columns become blocks
    M = np.flatnonzero((ci != np.arange(n_c)) & (meet_count(pc[np.arange(n_c), ci]) != 1))
    touch = (meet_count(pc[F[:, None], M]) == 1) & (meet_count(pc[F[:, None], ci[M]]) == 1)
    blocks_a = {tuple(F[col].tolist()) for col in np.unique(touch.T, axis=0) if col.any()}
    # type B: the fixed circles of the pencil of each moved point x and its
    # non-parallel image, sorted with n_c in place of the others
    X = np.flatnonzero(plane.gen_of != plane.gen_of[phi.image])
    rows = plane.vertex_pencils[X, phi.image[X]]
    rows = np.unique(np.sort(np.where(ci[rows] == rows, rows, n_c), axis=1), axis=0)
    blocks_b = {tuple(r[r < n_c].tolist()) + (INFINITY,) for r in rows}

    candidate = MoebiusCandidate(
        points=fixed + (INFINITY,),
        blocks_a=tuple(sorted(blocks_a)),
        blocks_b=tuple(sorted(blocks_b)),
        parallel_moved_points=plane.n_points - len(X),
    )
    B, index = _incidence(candidate)
    candidate.three_point_report = _three_point_axiom(candidate, B)
    candidate.touching_report = _touching_axiom(candidate, B, index)
    return candidate


def _incidence(cand: MoebiusCandidate) -> tuple[np.ndarray, dict[int, int]]:
    """The boolean block x point matrix, its columns in `cand.points`
    order, and each point's column."""
    index = {p: i for i, p in enumerate(cand.points)}
    B = np.zeros((len(cand.blocks), len(cand.points)), dtype=bool)
    for bi, b in enumerate(cand.blocks):
        B[bi, [index[p] for p in b]] = True
    return B, index


def _three_point_axiom(cand: MoebiusCandidate, B: np.ndarray) -> CheckReport:
    """Each trio of points, in `combinations` order, lies on exactly one
    block.  For each first point i, the block counts of the trios (i, j, k)
    with i < j < k are the upper triangle of one product of the incidence
    columns after i, restricted to the blocks through i; its row-major
    order is the `combinations` order.  `B` is `_incidence(cand)`'s matrix."""
    report = CheckReport(check_id="MoebiusThreePoint", mode=CheckMode.exhaustive())
    t0 = time.perf_counter()
    B = B.astype(np.float32)  # its products are small exact integers
    pts = cand.points
    for i in range(len(pts)):
        rest = B[:, i + 1:]
        j, k = np.triu_indices(rest.shape[1], k=1)
        count = ((rest * B[:, i:i + 1]).T @ rest)[j, k]
        report.configurations += len(j)
        report.record(count != 1, lambda t: Violation(
            "three-point", points=(pts[i], pts[i + 1 + j[t]], pts[i + 1 + k[t]]),
            data=(("count", int(count[t])),)))
    report.elapsed_seconds = time.perf_counter() - t0
    return report.finalize()


def _touching_axiom(cand: MoebiusCandidate, B: np.ndarray, index: dict) -> CheckReport:
    """For a block b, P on b and Q off b, exactly one block through Q meets
    b in P alone.  The blocks meeting b in one point are the rows E with
    (B @ B.T)[:, b] == 1, and E[:, cols(b)].T @ E counts them per (P, Q);
    `B` and `index` are `_incidence(cand)`."""
    report = CheckReport(check_id="MoebiusTouching", mode=CheckMode.exhaustive())
    t0 = time.perf_counter()
    Bf = B.astype(np.float32)  # its products are small exact integers
    inter = Bf @ Bf.T
    for bi, b in enumerate(cand.blocks):
        cols = [index[p] for p in b]
        E = Bf[inter[:, bi] == 1]
        count = E[:, cols].T @ E
        off = ~B[bi]
        report.configurations += len(cols) * int(np.count_nonzero(off))
        report.record((count != 1) & off, lambda i: Violation(
            "touching", points=(b[i // len(cand.points)], cand.points[i % len(cand.points)]),
            data=(("count", int(count.flat[i])), ("block", bi))))
    report.elapsed_seconds = time.perf_counter() - t0
    return report.finalize()


def find_fixed_point_free_pair(plane: LaguerrePlane) -> tuple[int, int, Automorphism]:
    """The first disjoint pair (canonical order) and its symmetry, which
    moves every point.

    Circle 0 is in that pair: each circle is disjoint from q(q−1)²/2
    others, the q³ − 1 others less its (q+1)(q−1) tangent circles (q−1
    at each point) and (q+1)q(q−1)/2 secant ones (q−1 through each pair
    of its points).  And the symmetry φ of a disjoint pair (K, L) fixes no
    point x: φ keeps parallelity and maps xK to u = (xK)KL, so φ(x) is
    parallel to u, which lies with xK on the circle (xK, K, L)°, and
    φ(x) = x would put two parallel points xK ≠ u on one circle.  On even orders `build_dts` raises NotUnique.
    """
    L = int((meet_count(plane.pair_code[0]) == 0).argmax())
    return 0, L, build_dts(plane, 0, L)


def sample_nontangent_pairs(plane: LaguerrePlane, count: int, seed: int) -> list[tuple[int, int]]:
    """Deterministically sample distinct non-tangent circle pairs.

    Draw 2i and 2i+1 of the stream, mod the circle count, give the circles
    of try i; a try is dropped where they are equal or tangent or the pair
    (smaller id first) was drawn before.  Each round draws 2·count words
    from the next unread index.  Raises ValueError for a negative count or
    one above the number of such pairs the plane has: C(n_c, 2) less the
    tangent pairs, each listed twice in `pencil_others`.
    """
    pc = plane.pair_code
    available = math.comb(plane.n_circles, 2) - plane.pencil_others.size // 2
    if not 0 <= count <= available:
        raise ValueError(f"cannot sample {count} pairs: "
                         f"the plane has {available} non-tangent pairs")
    pairs: dict[tuple[int, int], None] = {}    # insertion-ordered, first draw kept
    start = 0
    while len(pairs) < count:
        K, L = bounded(draw_block(seed, start, 2 * count), plane.n_circles).reshape(-1, 2).T
        start += 2 * count
        lo, hi = np.minimum(K, L), np.maximum(K, L)
        keep = (lo != hi) & (meet_count(pc[lo, hi]) != 1)
        pairs.update(dict.fromkeys(zip(lo[keep].tolist(), hi[keep].tolist())))
    return list(pairs)[:count]


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def export_automorphism(plane: LaguerrePlane, phi: Automorphism) -> str:
    """One header line with the defining pair, one line of point images."""
    if phi.pair is None:
        raise ValueError("only double tangency symmetries carry an exportable pair")
    K, L = phi.pair
    ck = plane.circle_coef(K)
    cl = plane.circle_coef(L)
    if ck is None or cl is None:
        raise ValueError("export needs a coordinate-model plane")
    head = (f"dts q={plane.q} K={','.join(str(v) for v in ck)} "
            f"L={','.join(str(v) for v in cl)}")
    return head + "\n" + " ".join(map(str, phi.image.tolist())) + "\n"


def import_automorphism(plane: LaguerrePlane, text: str) -> Automorphism:
    """Read the format of `export_automorphism` back onto `plane`.

    Raises ValueError naming the problem when the text is not one header
    line and one image line, the header lacks a field or does not match
    the plane, or the image is not a permutation of the points inducing
    an automorphism.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ValueError(f"expected a 'dts' header line and an image line, "
                         f"found {len(lines)} non-empty lines")
    head = lines[0].split()
    if head[0] != "dts":
        raise ValueError("missing 'dts' header")
    fields = dict(part.partition("=")[::2] for part in head[1:])
    missing = [k for k in ("q", "K", "L") if k not in fields]
    if missing:
        raise ValueError(f"automorphism header lacks {', '.join(k + '=' for k in missing)}")
    if int(fields["q"]) != plane.q:
        raise ValueError(f"order mismatch: plane q={plane.q}, file q={fields['q']}")
    K = plane.circle_from_coef(tuple(int(v) for v in fields["K"].split(","))).id
    L = plane.circle_from_coef(tuple(int(v) for v in fields["L"].split(","))).id
    image = [int(tok) for tok in lines[1].split()]
    if len(image) != plane.n_points:
        raise ValueError("image length does not match the point count")
    if not all(0 <= v < plane.n_points for v in image):
        raise ValueError(f"image holds a point id outside 0..{plane.n_points - 1}")
    phi = Automorphism(plane, image, (K, L))
    phi.validate()
    return phi
