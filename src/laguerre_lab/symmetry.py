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

  * `_pencil_touch`   the tangent pencil of every member of a circle,
                      gathered from `pencil_others`, against `pair_count`;
                      `tangency_map` (so `build_dts`) and property (4) of
                      `verify_dts` read touch points from it,
  * `build_dts`       one `triple_circle`/`members` gather over the
                      points off K and L by the auxiliaries on K, since
                      `members[C, g]` is the point of C on generator g,
  * `circle_image`    one `triple_circle` gather over the sorted image
                      rows, checked against the sorted `members` rows,
  * `verify_dts`      one mask per property through `CheckReport.record`:
                      (3) one `vertex_pencils` row per moved pair, (4) all
                      moved circles and their member slots at once,
  * uniqueness        secant pairs from one `vertex_pencils` gather on P x Q,
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

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    NoDisjointPair,
    NotFixedPointFree,
    NotUnique,
    PointNotOnCircle,
    TangentPair,
    WellDefinednessFailure,
    NoAdmissibleAuxiliary,
)
from .checks import _gather, _not_applicable, _pi_blocks, _sweep
from .plane import Circle, LaguerrePlane, Pencil, _cid
from .report import CheckMode, CheckReport, Violation

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
    "symmetry_uniqueness",
    "verify_pi_symmetry",
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
    T = plane.pair_count
    pencil = [K] + plane.pencil_others[K, plane.gen_of[p]].tolist()
    if plane.mem[L, p]:
        hits = [m for m in pencil if T[m, L] == 1 and plane.pair_sum[m, L] == p]
        return (plane.circle(hits[0]) if len(hits) == 1 else None), p
    hits = [m for m in pencil if T[m, L] == 1]
    if len(hits) != 1:
        raise NotUnique(len(hits))
    return plane.circle(hits[0]), int(plane.pair_sum[hits[0], L])


def _pencil_touch(plane: LaguerrePlane, K: np.ndarray, L: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """`tangent_to_second` for every member of K, over arrays of pairs.

    For each pair (K[i], L[i]) and member slot j of K[i], the pencil
    [K[i]] + pencil_others[K[i], j] is gathered as one (m, q+1, q) array;
    returns the number of its members tangent to L[i] and the touch point
    on L[i] of the first of them (its `pair_sum` entry), both of shape
    (m, q+1).  The touch point means something only where the count is 1
    and the member is off L[i].
    """
    K = np.asarray(K, dtype=np.intp)
    L = np.asarray(L, dtype=np.intp)[:, None, None]
    lead = np.broadcast_to(K[:, None, None], (len(K), plane.q + 1, 1))
    pencil = np.concatenate((lead, plane.pencil_others[K]), axis=2)
    hit = _gather(plane.pair_count, pencil, L) == 1
    first = np.take_along_axis(pencil, hit.argmax(axis=2)[..., None], axis=2)
    return hit.sum(axis=2), _gather(plane.pair_sum, first, L)[..., 0]


def tangency_map(plane: LaguerrePlane, K, L) -> np.ndarray:
    """The images of `plane.members[K]`, in member order (the order of
    the generators), under the map K -> L sending x to the touch point of
    (x,K,L)° on L.

    Common points map to themselves; every other point of K goes through
    one `_pencil_touch` pass.  The first point, in member order, whose
    pencil does not hold exactly one circle tangent to L raises NotUnique
    with that count, which happens only on planes of even order.
    """
    K, L = _cid(K), _cid(L)
    t = plane.tangency(K, L)
    if t.kind in ("tangent", "equal"):
        raise TangentPair(f"circles {K},{L} are {t.kind}")
    xs = plane.members[K]
    on = plane.mem[L, xs]
    count, touch = _pencil_touch(plane, [K], [L])
    not_unique = ~on & (count[0] != 1)
    if not_unique.any():
        raise NotUnique(int(count[0, not_unique.argmax()]))
    return np.where(on, xs, touch[0]).astype(np.int32)


def double_tangency_pencil(plane: LaguerrePlane, K, L) -> Pencil:
    """All circles tangent to both K and L (tangency includes equality)."""
    K, L = _cid(K), _cid(L)
    if K == L:
        raise ValueError("circles must be distinct")
    T = plane.pair_count
    ok_k = (T[K] == 1) | (np.arange(plane.n_circles) == K)
    ok_l = (T[L] == 1) | (np.arange(plane.n_circles) == L)
    members = np.nonzero(ok_k & ok_l)[0]
    return Pencil("double-tangency", (K, L), tuple(int(m) for m in members))


# ---------------------------------------------------------------------------
# the automorphism
# ---------------------------------------------------------------------------

class Automorphism:
    """A point permutation certified to preserve parallelity and circles."""

    def __init__(self, plane: LaguerrePlane, image, provenance: tuple = ("custom",)):
        self.plane = plane
        self.image = np.asarray(image, dtype=np.int32)
        self.provenance = provenance
        self._circle_image: np.ndarray | None = None

    @classmethod
    def identity(cls, plane: LaguerrePlane) -> "Automorphism":
        return cls(plane, np.arange(plane.n_points, dtype=np.int32), ("identity",))

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

        One gather: the circle joining the first three points of each
        sorted image row (ids off the plane clipped into range), kept where
        its members, as a set, are the image row.
        """
        if self._circle_image is None:
            plane = self.plane
            row = np.sort(self.image[plane.members], axis=1)
            a, b, c = np.clip(row[:, :3], 0, plane.n_points - 1).T
            cid = plane.triple_circle[a, b, c]
            ok = (cid >= 0) & (np.sort(plane.members[cid], axis=1) == row).all(axis=1)
            self._circle_image = np.where(ok, cid, -1).astype(np.int32)
        return self._circle_image

    def split_generators(self) -> np.ndarray:
        """Per generator, whether it is not mapped onto one generator."""
        gen_img = self.plane.gen_of[self.image[self.plane.gen_members]]
        return (gen_img != gen_img[:, :1]).any(axis=1)

    def validate(self) -> None:
        """Raise ValueError unless this is a genuine plane automorphism."""
        plane, img = self.plane, self.image
        if not np.array_equal(np.sort(img), np.arange(plane.n_points)):
            raise ValueError("image is not a permutation of the points")
        split = self.split_generators()
        if split.any():
            raise ValueError(f"generator {split.argmax()} is not mapped onto one generator")
        bad = self.circle_image() < 0
        if bad.any():
            raise ValueError(f"image of circle {bad.argmax()} is not a circle")


def build_dts(plane: LaguerrePlane, K, L) -> Automorphism:
    """The double tangency symmetry of a non-tangent pair (K, L).

    Points of K and L map through the tangency maps; any other point x
    maps to the point parallel to ((xK)KL) on the circle through x, an
    auxiliary y on K off L, and h(y).  Every admissible auxiliary y
    (y off L, y not parallel to x, h(y) not parallel to x) is evaluated,
    in one gather over the points off K and L by the auxiliaries in K's
    member order, and all images must agree, which operationalizes
    well-definedness instead of trusting it: the first x, in point order,
    with a differing candidate raises WellDefinednessFailure naming its
    first auxiliary and its first differing one.
    """
    K, L = _cid(K), _cid(L)
    hK = tangency_map(plane, K, L)
    image = np.full(plane.n_points, -1, dtype=np.int32)
    image[plane.members[K]] = hK
    image[plane.members[L]] = tangency_map(plane, L, K)

    gen = plane.gen_of
    off_L = ~plane.mem[L, plane.members[K]]
    Y, hY = plane.members[K][off_L], hK[off_L]
    X = np.flatnonzero(image < 0)
    gX = gen[X][:, None]
    # the generator of the image of xK, the point of K parallel to x
    target = gen[image[plane.members[K, gen[X]]]]
    cand = plane.members[plane.triple_circle[X[:, None], Y, hY], target[:, None]]
    admissible = (gen[Y] != gX) & (gen[hY] != gX)
    first = admissible.argmax(axis=1)
    img = cand[np.arange(len(X)), first]
    differs = admissible & (cand != img[:, None])
    # in point order, the rows where an auxiliary disagrees or none is admissible
    for r in np.flatnonzero(differs.any(axis=1) | ~admissible.any(axis=1)):
        x = int(X[r])
        if differs[r].any():
            raise WellDefinednessFailure(x, int(Y[first[r]]), int(Y[differs[r].argmax()]))
        # Possible only at order 3: the one non-parallel auxiliary has its
        # image parallel to x.  The image is still forced, since it must be
        # parallel to the image of xK and off both circles, which pins a
        # unique point; the verification suite certifies the completed map
        # like any other.
        cands = [int(t) for t in plane.gen_members[target[r]]
                 if not plane.mem[K, t] and not plane.mem[L, t]]
        if len(cands) != 1:
            raise NoAdmissibleAuxiliary(x)
        img[r] = cands[0]
    image[X] = img

    phi = Automorphism(plane, image, ("dts", K, L))
    phi.validate()
    return phi


def fixed_circles(plane: LaguerrePlane, phi: Automorphism) -> tuple[int, ...]:
    """All circles mapped onto themselves (as sets) by phi."""
    ci = phi.circle_image()
    return tuple(int(c) for c in np.nonzero(ci == np.arange(plane.n_circles))[0])


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
    circle of (K,L) is fixed.
    Moved points parallel to their image are counted as skipped in (3).

    Each property is one mask through `CheckReport.record`, which builds
    the first `MAX_VIOLATIONS` violations and counts the rest.  (4) reads
    tangent pairs (M, phi(M)) from `pair_count`, and for the others each
    member slot's pencil count and touch point from `_pencil_touch`, in
    the order of a scan by M, then slot; it calls no `tangent_to_second`.
    """
    report = CheckReport(check_id="DtsVerify", mode=CheckMode.exhaustive())
    t0 = time.perf_counter()
    K, L = _cid(K), _cid(L)
    img = phi.image
    n_p, n_c = plane.n_points, plane.n_circles
    gen = plane.gen_of
    ci = phi.circle_image()

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
    report.skipped += int(parallel.sum())
    keep = ~parallel & ~((fxs < xs) & (img[fxs] == xs))
    xs, fxs = xs[keep], fxs[keep]
    pencils = plane.vertex_pencils[xs, fxs]
    report.configurations += pencils.size
    report.record(ci[pencils] != pencils, lambda i: Violation(
        "moved-pencil-circle", points=(int(xs[i // plane.q]), int(fxs[i // plane.q])),
        circles=(int(pencils.flat[i]),)))

    # (4) the touch-point identity, one pass over all moved circles M and
    # their member slots; a tangent (M, phi(M)) is one violation in slot 0
    M = np.nonzero((ci != np.arange(n_c)) & (ci >= 0))[0]
    Mi = ci[M]
    tangent = plane.pair_count[M, Mi] == 1
    X = plane.members[M]
    on = plane.mem[Mi[:, None], X]
    count, touch = _pencil_touch(plane, M, Mi)
    expect = np.where(on, X, touch)
    not_unique = ~on & (count != 1)
    wrong = ~not_unique & (img[X] != expect)
    slots = X.shape[1]
    report.configurations += slots * int((~tangent).sum())
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
    common = np.array(double_tangency_pencil(plane, K, L).members, dtype=np.intp)
    report.configurations += len(common)
    report.record(ci[common] != common, lambda i: Violation(
        "common-tangent-moved", circles=(int(common[i]),)))

    report.hypothesis_hits = report.configurations
    report.elapsed_seconds = time.perf_counter() - t0
    return report.finalize()


# ---------------------------------------------------------------------------
# classification and uniqueness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryClassification:
    kind: str  # "LaguerreSymmetry" | "FixedPointFree" | "Other"
    pair: tuple[int, int]
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
            return SymmetryClassification("Other", (K, L), fixed_point_count=len(fixed),
                                          details="secant pair without pointwise-fixed generators")
        # the first circle fixed setwise but not pointwise
        witnesses = np.flatnonzero(
            (phi.circle_image() == np.arange(plane.n_circles))
            & (phi.image[plane.members] != plane.members).any(axis=1))
        if not len(witnesses):
            return SymmetryClassification("Other", (K, L), fixed_point_count=len(fixed),
                                          details="no setwise-fixed witness circle")
        return SymmetryClassification("LaguerreSymmetry", (K, L), (gp, gq),
                                      int(witnesses[0]), len(fixed))
    if not fixed:
        return SymmetryClassification("FixedPointFree", (K, L), fixed_point_count=0)
    return SymmetryClassification("Other", (K, L), fixed_point_count=len(fixed),
                                  details="disjoint pair with fixed points")


def _dts_cached(plane, K, L, cache):
    if cache is None:
        return build_dts(plane, K, L)
    key = (K, L)
    if key not in cache:
        cache[key] = build_dts(plane, K, L)
    return cache[key]


def symmetry_uniqueness(plane: LaguerrePlane, P: int, Q: int, M,
                        cache: dict | None = None) -> CheckReport:
    """All double tangency symmetries fixing P, Q pointwise and M setwise
    coincide as point maps.

    A pair (K, L) can qualify only when K ∩ L consists of one point on P
    and one on Q: the symmetry restricted to K is the tangency map, which
    fixes exactly K ∩ L, so the points of K on P and Q must lie in K ∩ L.
    The enumeration therefore runs over the secant pairs, in `combinations`
    order, of the circles through such point pairs (one `vertex_pencils`
    gather); everything else is rejected by that argument alone.
    """
    report = CheckReport(check_id="SymmetryUniqueness", mode=CheckMode.exhaustive())
    t0 = time.perf_counter()
    M = _cid(M)
    if P == Q:
        raise ValueError("generators must be distinct")
    pq = plane.gen_members[[P, Q]]
    pencils = plane.vertex_pencils[pq[0][:, None], pq[1]]
    i, j = np.triu_indices(plane.q, k=1)
    Ks, Ls = pencils[..., i], pencils[..., j]
    secant = plane.pair_count[Ks, Ls] == 2
    report.configurations += int(secant.sum())
    qualifying: list[tuple[tuple[int, int], Automorphism]] = []
    for K, L in zip(Ks[secant].tolist(), Ls[secant].tolist()):
        phi = _dts_cached(plane, K, L, cache)
        if (phi.image[pq] == pq).all() and int(phi.circle_image()[M]) == M:
            qualifying.append(((K, L), phi))
    report.hypothesis_hits = len(qualifying)
    if not qualifying:
        report.verdict = "Inconclusive"
        report.notes = ("NoneFound: no qualifying pair",)
    else:
        (base_pair, base), rest = qualifying[0], qualifying[1:]
        report.record(np.array([not base.equals(phi) for _, phi in rest], dtype=bool),
                      lambda r: Violation("symmetry-mismatch", circles=base_pair + rest[r][0]))
    report.elapsed_seconds = time.perf_counter() - t0
    return report.finalize()


def _eval_pi_symmetry(dts: dict, plane: LaguerrePlane, report: CheckReport,
                      a, b, c, x, C1, p, qpt, Kp) -> None:
    """PiSymmetry on one `_pi_blocks` block; `dts` holds the symmetries
    built so far, by pair."""
    L = plane.triple_circle[x, p, qpt]
    tangent = plane.pair_count[C1, L] == 1
    report.skipped += int(tangent.sum())
    report.hypothesis_hits += int((~tangent).sum())
    bad = np.zeros(len(C1), dtype=bool)
    for i in np.flatnonzero(~tangent):
        K, Li, kp, ai, xi = int(C1[i]), int(L[i]), int(Kp[i]), int(a[i]), int(x[i])
        phi = _dts_cached(plane, min(K, Li), max(K, Li), dts)
        bad[i] = not (phi.circle_image()[kp] == kp and phi.image[ai] == xi and phi.image[xi] == ai)
    report.record(bad, lambda i: Violation(
        "pi-symmetry", points=(int(a[i]), int(b[i]), int(c[i]), int(x[i])),
        circles=(int(C1[i]), int(L[i]), int(Kp[i]))))


def verify_pi_symmetry(plane: LaguerrePlane, mode: CheckMode) -> CheckReport:
    """The symmetry of the (a,b,c,x) configuration is realized by the
    double tangency symmetry of K = (a,b,c)° and L = (x,p,q)°.

    For every configuration with K, L non-tangent, the symmetry must fix
    the connecting tangent circle K′ through a and x setwise and exchange
    its touch points a and x.  Tangent (K, L) pairs are skipped.  The
    configurations, p, q and K′ are those of the Pi family's sweep.
    """
    if plane.q % 2 == 0:
        return _not_applicable(
            "PiSymmetry", mode, "even order: the symmetry construction needs the unique-tangent axiom")
    return _sweep(plane, mode, "PiSymmetry", _pi_blocks, partial(_eval_pi_symmetry, {}))


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

    pair: tuple[int, int]
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
    incidence matrix (`_three_point_axiom`, `_touching_axiom`), which
    build only the first `MAX_VIOLATIONS` violations and count the rest:
    the candidate is half an inversive plane, so half its trios fail.
    """
    if phi.fixed_points():
        raise NotFixedPointFree("the symmetry fixes a point")
    if phi.provenance[0] != "dts":
        raise ValueError("candidate extraction needs a double tangency symmetry")
    _, K, L = phi.provenance
    fixed = fixed_circles(plane, phi)
    F = np.array(fixed, dtype=np.intp)
    ci, T, n_c = phi.circle_image(), plane.pair_count, plane.n_circles

    # type A: one column of fixed circles per moved circle M not tangent to
    # its image, those tangent to both; distinct columns become blocks
    M = np.flatnonzero((ci != np.arange(n_c)) & (T[np.arange(n_c), ci] != 1))
    touch = (T[F[:, None], M] == 1) & (T[F[:, None], ci[M]] == 1)
    blocks_a = {tuple(F[col].tolist()) for col in np.unique(touch.T, axis=0) if col.any()}
    # type B: the fixed circles of the pencil of each moved point x and its
    # non-parallel image, sorted with n_c in place of the others
    X = np.flatnonzero(plane.gen_of != plane.gen_of[phi.image])
    rows = plane.vertex_pencils[X, phi.image[X]]
    rows = np.unique(np.sort(np.where(ci[rows] == rows, rows, n_c), axis=1), axis=0)
    blocks_b = {tuple(r[r < n_c].tolist()) + (INFINITY,) for r in rows}

    candidate = MoebiusCandidate(
        pair=(int(K), int(L)),
        points=fixed + (INFINITY,),
        blocks_a=tuple(sorted(blocks_a)),
        blocks_b=tuple(sorted(blocks_b)),
        parallel_moved_points=plane.n_points - len(X),
    )
    candidate.three_point_report = _three_point_axiom(candidate)
    candidate.touching_report = _touching_axiom(candidate)
    return candidate


def _incidence(cand: MoebiusCandidate) -> np.ndarray:
    """Boolean block x point matrix; columns follow `cand.points`."""
    index = {p: i for i, p in enumerate(cand.points)}
    B = np.zeros((len(cand.blocks), len(cand.points)), dtype=bool)
    for bi, b in enumerate(cand.blocks):
        B[bi, [index[p] for p in b]] = True
    return B


def _three_point_axiom(cand: MoebiusCandidate) -> CheckReport:
    """Each trio of points, in `combinations` order, lies on exactly one
    block.  For each first point i, the block counts of the trios (i, j, k)
    with i < j < k are the upper triangle of one product of the incidence
    columns after i, restricted to the blocks through i; its row-major
    order is the `combinations` order."""
    report = CheckReport(check_id="MoebiusThreePoint", mode=CheckMode.exhaustive())
    t0 = time.perf_counter()
    B = _incidence(cand).astype(np.float32)  # its products are small exact integers
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


def _touching_axiom(cand: MoebiusCandidate) -> CheckReport:
    """For a block b, P on b and Q off b, exactly one block through Q meets
    b in P alone.  The blocks meeting b in one point are the rows E with
    (B @ B.T)[:, b] == 1, and E[:, cols(b)].T @ E counts them per (P, Q)."""
    report = CheckReport(check_id="MoebiusTouching", mode=CheckMode.exhaustive())
    t0 = time.perf_counter()
    index = {p: i for i, p in enumerate(cand.points)}
    B = _incidence(cand)
    Bf = B.astype(np.float32)  # its products are small exact integers
    inter = Bf @ Bf.T
    for bi, b in enumerate(cand.blocks):
        cols = [index[p] for p in b]
        E = Bf[inter[:, bi] == 1]
        count = E[:, cols].T @ E
        off = ~B[bi]
        report.configurations += len(cols) * int(off.sum())
        report.record((count != 1) & off, lambda i: Violation(
            "touching", points=(b[i // len(cand.points)], cand.points[i % len(cand.points)]),
            data=(("count", int(count.flat[i])), ("block", bi))))
    report.elapsed_seconds = time.perf_counter() - t0
    return report.finalize()


def find_fixed_point_free_pair(plane: LaguerrePlane) -> tuple[int, int, Automorphism]:
    """First disjoint pair (canonical order) whose symmetry moves every point.

    Scans all disjoint non-tangent pairs; raises NoDisjointPair when the
    scan certifies that none qualifies.
    """
    for K in range(plane.n_circles):
        for L in (K + 1 + np.flatnonzero(plane.pair_count[K, K + 1:] == 0)).tolist():
            phi = build_dts(plane, K, L)
            if not phi.fixed_points():
                return K, L, phi
    raise NoDisjointPair("no disjoint pair with a fixed-point-free symmetry")


def sample_nontangent_pairs(plane: LaguerrePlane, count: int, seed: int,
                            secant_only: bool = False) -> list[tuple[int, int]]:
    """Deterministically sample distinct non-tangent circle pairs.

    Raises ValueError for a negative count or one above the number of
    such pairs the plane has.
    """
    from .rng import SampleStream

    T = plane.pair_count
    available = int(np.count_nonzero(np.triu((T == 2) if secant_only else (T != 1), k=1)))
    if not 0 <= count <= available:
        kind = "secant" if secant_only else "non-tangent"
        raise ValueError(f"cannot sample {count} pairs: the plane has {available} {kind} pairs")
    stream = SampleStream(seed)
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    while len(out) < count:
        K = stream.next_below(plane.n_circles)
        L = stream.next_below(plane.n_circles)
        if K == L:
            continue
        K, L = min(K, L), max(K, L)
        n = int(T[K, L])
        if n == 1 or (secant_only and n != 2) or (K, L) in seen:
            continue
        seen.add((K, L))
        out.append((K, L))
    return out


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def export_automorphism(plane: LaguerrePlane, phi: Automorphism) -> str:
    """One header line with the defining pair, one line of point images."""
    if phi.provenance[0] != "dts":
        raise ValueError("only double tangency symmetries carry an exportable pair")
    _, K, L = phi.provenance
    ck = plane.circle_coef(K)
    cl = plane.circle_coef(L)
    if ck is None or cl is None:
        raise ValueError("export needs a coordinate-model plane")
    head = (f"dts q={plane.q} K={','.join(str(v) for v in ck)} "
            f"L={','.join(str(v) for v in cl)}")
    return head + "\n" + " ".join(str(int(v)) for v in phi.image) + "\n"


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
    phi = Automorphism(plane, image, ("dts", K, L))
    phi.validate()
    return phi
