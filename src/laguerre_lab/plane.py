"""The abstract finite Laguerre plane: points, generators, circles, pencils.

A plane is an incidence structure (points, circles, parallelity) in which
  (1) three mutually non-parallel points lie on exactly one circle,
  (2) for a circle K, p on K and x off K with x non-parallel to p there is
      exactly one circle through x meeting K exactly in p,
  (3) every generator (parallel class) meets every circle exactly once,
  (4) some circle has at least three but not all points.

`LaguerrePlane` is immutable after construction.  All hot-path operations
read precomputed numpy indexes:

  * `members`/`mem`       circle membership as rows by generator (the point
                          of K on generator g at `members[K, g]`, so the
                          slot of a point on a circle is its generator id)
                          / dense booleans,
  * `pair_count`          |K ∩ L| for every circle pair,
  * `pair_sum`            the sum of the points of K ∩ L, so the touch
                          point of K and L wherever `pair_count` is 1,
  * `triple_circle`       non-parallel point triple -> joining circle, so
                          also the one candidate circle for a member set
                          (the circle of its first three points),
  * `pencil_others`       tangent pencils grouped by (circle, touch point),
                          the touch point given by its generator,
  * `tangent_through`     (circle, touch point's generator, outer point) ->
                          tangent circle; `pencil_others` holds the same
                          circles, but reading them from the pencil ran
                          Pi, PiPrime and Thm23 1.2-2.2x slower (sampled
                          at q=13, exhaustive at q=7),
  * `vertex_pencils`      non-parallel point pair -> circles through both.

Dense membership rows make intersection tests word-parallel scans, and the
triple index is a direct array lookup; both choices trade memory (tens of
MB at order 13) for the inner-loop speed the exhaustive sweeps need.

Every index that holds a point id, a circle id or the sum of two point ids
is int16 (`pair_count` is uint8, `mem` bool): at order 13 the arrays hold
40 MB, where int32 ids would take 75 MB.
Every plane of order up to 31 fits, and a structure with more than 2^15
circles or 2^14 points (whose pair sums would not fit) raises ValueError
instead of wrapping.  Arithmetic on ids widens first: `_gather` offsets are
at least int32, the triple keys of axiom (1) int32 or int64, and the index
fills compute their offsets from `members` as int64.

Every construction is validated first, by whole-array passes:

  * structure  one `np.unique` over the generator ids, one sort of the
               circle rows (repeats, range), one scatter into `mem` and
               one into the rows by generator,
  * axiom (3)  one `bincount` over (circle, generator of member),
  * axiom (1)  one int key per member triple of the rows sorted by id,
               sorted once; repeats and a shortfall against the
               non-parallel triple count fail,
  * axiom (2)  per block of circles, the tangent partners (`pair_count`
               1) with the generator of each touch point.  Given axiom (3)
               and rows of one length, each partner brings m - 1 points off
               K and off the generator of the touch point p, so the pencil
               at (K, p) covers those points once exactly when its size
               times m - 1 is their number and no point but p is met
               twice: one `bincount` of pencil sizes, then a `bincount` of
               the members of the right-sized pencils.  The partners are
               found once (`_tangent_blocks`): the index build reads them
               too,
  * axiom (4)  the row lengths.

Axioms (1) and (2) run in blocks of `_BLOCK` circles with int32 keys, so
their temporaries stay a few MB at order 13 and do not raise the peak RSS
of a build.  The point-by-point loop validator these passes replaced is
kept in the tests as the reference they must match report for report.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    NotALaguerrePlane,
    ParallelPoints,
    PointNotOnCircle,
    PointOnCircle,
)
from .report import CheckMode, CheckReport, Violation

__all__ = [
    "Circle",
    "Pencil",
    "Tangency",
    "LaguerrePlane",
    "validate_laguerre_axioms",
]

ON_CIRCLE = -1   # tangent_through sentinel: the outer point lies on the circle
PARALLEL = -2    # tangent_through sentinel: the outer point is parallel to the touch point


@dataclass(frozen=True)
class Circle:
    """A block of the plane; `coef` is set for coordinate-model circles."""

    id: int
    members: tuple[int, ...]
    coef: tuple[int, int, int] | None = None

    def __contains__(self, point: int) -> bool:
        return point in self.members


@dataclass(frozen=True)
class Tangency:
    """Classification of a circle pair by the size of its intersection."""

    kind: str  # "equal" | "tangent" | "secant" | "disjoint"
    points: tuple[int, ...] = ()


@dataclass(frozen=True)
class Pencil:
    kind: str  # "tangent" | "double-tangency"
    anchor: tuple
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _cid(circle) -> int:
    return circle.id if isinstance(circle, Circle) else int(circle)


# Circles per block of the validator's array passes, of the
# `pair_count`/`pair_sum` products and of the tangent index fills.
# Temporaries are freed block by block: at order 13 the peak RSS of a
# fresh process that builds the plane and runs `validate_axioms` is 84 MB
# with this size, 121 MB with blocks of 512 and 201 MB with all circles in
# one block (Python 3.11, numpy 2.4).
_BLOCK = 128


def _flat_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """Integer rows of any lengths laid end to end, and the row lengths."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        return (rows.astype(np.int64).ravel(),
                np.full(len(rows), rows.shape[1], dtype=np.int64))
    rows = [tuple(r) for r in rows]
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64,
                       count=int(lengths.sum()))
    return flat, lengths


def _rows_2d(flat: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """The rows as an int16 matrix, or None when they differ in length."""
    if not len(lengths) or (lengths != lengths[0]).any():
        return None
    return flat.reshape(len(lengths), -1).astype(np.int16)


def _blocked_product(a: np.ndarray, b: np.ndarray, dtype) -> np.ndarray:
    """a @ b.T as exact integers of `dtype`, filled `_BLOCK` rows at a time
    so that no full-size float product or rounded copy is ever held."""
    out = np.empty((len(a), len(b)), dtype=dtype)
    for b0 in range(0, len(a), _BLOCK):
        out[b0:b0 + _BLOCK] = np.rint(a[b0:b0 + _BLOCK] @ b.T)
    return out


class _Structure:
    """Raw incidence data of a candidate structure, read by the validator.

    Rows are kept flat (`circ_flat`, one `circ_row` id per entry) so that
    ragged candidates go through the same array passes.  `gen_members` is
    the generators' matrix view, None for ragged rows; `members` lists
    each circle's points by generator, None unless every circle meets
    every generator exactly once (axiom (3)).
    A `LaguerrePlane` is the structure it was built from, plus indexes.
    """

    def __init__(self, generators, circles):
        gen_flat, gen_len = _flat_rows(generators)
        circ_flat, self.circ_len = _flat_rows(circles)
        self.n_points = n_p = len(gen_flat)
        self.n_gens = len(gen_len)
        self.n_circles = n_c = len(self.circ_len)
        if n_c > 2**15 or 2 * n_p > 2**15:
            raise ValueError(f"ids are int16: at most 2**15 circles and 2**14 points, "
                             f"not {n_c} circles and {n_p} points")

        # the generators partition the points when every id is in range and
        # listed once; an id listed twice keeps its first generator
        gids = np.repeat(np.arange(self.n_gens, dtype=np.int16), gen_len)
        ok = (gen_flat >= 0) & (gen_flat < n_p)
        pts, first = np.unique(gen_flat[ok], return_index=True)
        self.partition_ok = bool(ok.all()) and len(pts) == n_p
        self.gen_of = np.full(n_p, -1, dtype=np.int16)
        self.gen_of[pts] = gids[ok][first]
        self.gen_members = _rows_2d(gen_flat, gen_len)

        # circle members sorted within rows, so that repeats are neighbours;
        # a circle with a repeated or out-of-range member keeps an empty
        # membership row
        row = np.repeat(np.arange(n_c), self.circ_len)
        circ_flat = circ_flat[np.lexsort((circ_flat, row))]
        bad = np.zeros(n_c, dtype=bool)
        bad[row[(circ_flat < 0) | (circ_flat >= n_p)]] = True
        bad[row[1:][(circ_flat[1:] == circ_flat[:-1]) & (row[1:] == row[:-1])]] = True
        self.members_ok = not bad.any()
        self.mem = np.zeros((n_c, n_p), dtype=bool)
        keep = ~bad[row]
        self.mem[row[keep], circ_flat[keep]] = True
        self.circ_row, self.circ_flat = row, circ_flat

        # rows by generator, members[K, g] the point of K on generator g: one
        # scatter, kept when every circle meets every generator once
        self.members = None
        if n_c and self.partition_ok and self.members_ok and (self.circ_len == self.n_gens).all():
            rows = np.full((n_c, self.n_gens), -1, dtype=np.int16)
            rows[row, self.gen_of[circ_flat]] = circ_flat
            if (rows >= 0).all():
                self.members = rows

    @functools.cached_property
    def pair_count(self) -> np.ndarray:
        """|K ∩ L| for every circle pair."""
        m = self.mem.astype(np.float32)
        return _blocked_product(m, m, np.uint8)

    @functools.cached_property
    def pair_sum(self) -> np.ndarray:
        """The sum of the point ids in K ∩ L for every circle pair, exact
        wherever `pair_count` is at most 2 (below 2·n_points)."""
        m = self.mem.astype(np.float32)
        w = m * np.arange(self.n_points, dtype=np.float32)[None, :]
        return _blocked_product(m, w, np.int16)

    @functools.cached_property
    def _tangent_blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """`_tangent_pairs` of each block of `_BLOCK` circles, found once for
        the validator's axiom (2) and the plane's tangent indexes."""
        return [_tangent_pairs(self, b0, min(b0 + _BLOCK, self.n_circles))
                for b0 in range(0, self.n_circles, _BLOCK)]


def _validate(s: _Structure) -> CheckReport:
    """Check axioms (1)-(4) on `s` with whole-array passes.

    Structure failures stop the check; axioms (1) and (2) need axiom (3)
    and equal row lengths, and are skipped otherwise.  Witnesses are the
    first failures in circle-id order, so the report is canonical.  Its
    elapsed time is the time of this call.
    """
    t0 = time.perf_counter()
    report = CheckReport(check_id="Axioms", mode=CheckMode.exhaustive())
    notes: list[str] = []

    if not s.partition_ok:
        report.add_violation(Violation("structure", data=(("generators_partition", 0),)))
    if not s.members_ok:
        report.add_violation(Violation("structure", data=(("circle_members", 0),)))
    if report.violation_count:
        report.notes = tuple(["structure=failed"])
        report.verdict = "Fails"
        report.elapsed_seconds = time.perf_counter() - t0
        return report.finalize()

    # Axiom (3): every circle meets every generator exactly once.
    n_c, n_g = s.n_circles, s.n_gens
    gen_hits = np.bincount(s.circ_row * n_g + s.gen_of[s.circ_flat],
                           minlength=n_c * n_g).reshape(n_c, n_g)
    axiom3_ok = bool((gen_hits == 1).all())
    if axiom3_ok:
        notes.append("axiom3=ok")
    else:
        bad = np.argwhere(gen_hits != 1)
        for cid, gid in bad[:3]:
            report.add_violation(Violation(
                "axiom3", circles=(int(cid),),
                data=(("generator", int(gid)), ("count", int(gen_hits[cid, gid]))),
            ))
        notes.append("axiom3=failed")
    report.configurations += n_c * n_g

    if s.members is not None and s.gen_members is not None:
        notes.append("axiom1=ok" if _axiom1(s, report) else "axiom1=failed")
        notes.append("axiom2=ok" if _axiom2(s, report) else "axiom2=failed")
    else:
        notes += ["axiom1=skipped", "axiom2=skipped"]

    # Axiom (4): some circle has at least three but not all points.
    if ((s.circ_len >= 3) & (s.circ_len < s.n_points)).any():
        notes.append("axiom4=ok")
    else:
        report.add_violation(Violation("axiom4"))
        notes.append("axiom4=failed")
    report.configurations += n_c

    report.notes = tuple(notes)
    report.elapsed_seconds = time.perf_counter() - t0
    return report.finalize()


def _axiom1(s: _Structure, report: CheckReport) -> bool:
    """Every mutually non-parallel triple lies on exactly one circle.

    Each sorted member triple (i, j, k) becomes the key (i*n + j)*n + k,
    read from the rows sorted by point id; one sort finds repeated keys,
    and a count below the number of non-parallel triples means some triple
    is on no circle.
    """
    M, G, n_p = np.sort(s.members, axis=1), s.gen_members, s.n_points
    combos = np.array(list(itertools.combinations(range(M.shape[1]), 3)),
                      dtype=np.intp).reshape(-1, 3)
    dtype = np.int32 if n_p ** 3 < 2 ** 31 else np.int64

    def pack(tri):
        return (tri[..., 0] * n_p + tri[..., 1]) * n_p + tri[..., 2]

    keys = np.empty((s.n_circles, len(combos)), dtype=dtype)
    for b0 in range(0, s.n_circles, _BLOCK):
        keys[b0:b0 + _BLOCK] = pack(M[b0:b0 + _BLOCK].astype(dtype)[:, combos])
    keys = keys.ravel()
    expected = math.comb(s.n_gens, 3) * G.shape[1] ** 3
    report.configurations += expected

    sorted_keys = np.sort(keys)
    dups = sorted_keys[1:][sorted_keys[1:] == sorted_keys[:-1]]
    if len(dups):
        # witness: the first triple (circle id, then combination order)
        # whose key an earlier triple already has: of the positions of the
        # repeated keys, the first that is not a key's first occurrence
        pos = np.flatnonzero(np.isin(keys, dups))
        _, first = np.unique(keys[pos], return_index=True)
        pos = int(np.delete(pos, first)[0])
        cid, t = divmod(pos, len(combos))
        i, j, k = (int(p) for p in M[cid, combos[t]])
        others = np.nonzero(s.mem[:, i] & s.mem[:, j] & s.mem[:, k])[0]
        report.add_violation(Violation(
            "axiom1", points=(i, j, k), circles=tuple(int(d) for d in others[:2]),
            data=(("joining_circles", len(others)),),
        ))
        return False
    if len(keys) == expected:
        return True
    witness = ()
    for ga, gb, gc in itertools.combinations(range(s.n_gens), 3):
        tri = np.stack(np.broadcast_arrays(G[ga][:, None, None], G[gb][None, :, None],
                                           G[gc][None, None, :]), axis=-1)
        tri = np.sort(tri.reshape(-1, 3), axis=1).astype(dtype)
        missing = ~np.isin(pack(tri), sorted_keys)
        if missing.any():
            witness = tuple(int(p) for p in tri[missing.argmax()])
            break
    report.add_violation(Violation(
        "axiom1", points=witness, data=(("joining_circles", 0),)))
    return False


def _tangent_pairs(s: _Structure, b0: int, b1: int) -> tuple[np.ndarray, np.ndarray]:
    """The tangent partners L (pair_count 1) of the circles K in [b0, b1),
    in (K, L) order, and for each the row (K - b0) * m + g of the touch
    point's generator g."""
    n_c, m = s.members.shape
    pairs = np.flatnonzero(s.pair_count[b0:b1] == 1)
    K, L = np.divmod(pairs, n_c)
    row = K * m + s.gen_of[s.pair_sum[b0:b1].ravel()[pairs]]
    return L.astype(np.int16), row.astype(np.int32)     # kept until the indexes are built


def _axiom2(s: _Structure, report: CheckReport) -> bool:
    """For K, p on K and x off K and off p's generator, one circle through
    x meets K exactly in p.

    Needs axiom (3) and uniform rows: circles of m points and generators
    of g.  Then each tangent partner L of K at p brings its m - 1 other
    points, all off K and off p's generator, so all eligible, and K has
    E = n_p - m - g + 1 eligible points at each of its points.  The
    partners cover each eligible point once exactly when there are n of
    them with (m - 1) * n = E and no point other than p is met twice.  Per
    block of circles K: the tangent partners (pair_count 1) with the
    generator of the touch point; one bincount of the pencil sizes fails
    every (K, generator) of the wrong size, and a bincount of the members
    of the right-sized pencils, cov[row, x], finds the overlaps.  Witnesses, the first
    eligible x whose count is not 1, are recounted per failed row.
    """
    M, n_p = s.members, s.n_points
    n_c, m = M.shape
    n_eligible = n_p - m - s.gen_members.shape[1] + 1
    ok = True
    for b0, (L, row) in zip(range(0, n_c, _BLOCK), s._tangent_blocks):
        b1 = min(b0 + _BLOCK, n_c)
        n_rows = (b1 - b0) * m
        report.configurations += n_rows * n_eligible
        failed = np.bincount(row, minlength=n_rows) * (m - 1) != n_eligible

        # the right-sized rows, renumbered densely, and their partners' members
        good = np.flatnonzero(~failed)
        dense = np.cumsum(~failed) - 1
        keep = ~failed[row]
        cell = (dense[row[keep]] * n_p).astype(np.int32)
        cov = np.bincount((cell[:, None] + M[L[keep]]).ravel(),
                          minlength=len(good) * n_p).reshape(len(good), n_p)
        cov[np.arange(len(good)), M.ravel()[b0 * m + good]] = 0    # the touch point
        failed[good] = (cov > 1).any(axis=1)
        if not failed.any():
            continue
        ok = False

        def witness(i: int) -> Violation:
            k, g = divmod(i, m)
            p = M[b0 + k, g]
            count = np.bincount(M[L[row == i]].ravel(), minlength=n_p)
            bad = ~s.mem[b0 + k] & (s.gen_of != s.gen_of[p]) & (count != 1)
            x = int(bad.argmax())
            return Violation("axiom2", points=(int(p), x), circles=(b0 + k,),
                             data=(("count", int(count[x])),))
        report.record(failed.reshape(b1 - b0, m), witness)
    return ok


def validate_laguerre_axioms(generators, circles) -> CheckReport:
    """Check axioms (1)-(4) on a candidate structure.

    `generators` and `circles` are iterables of point-id iterables, or
    integer matrices with one row each.  Failures are report content (with
    witnesses), never exceptions; a structure whose ids do not fit int16
    raises ValueError.
    """
    return _validate(_Structure(generators, circles))


class LaguerrePlane(_Structure):
    """Immutable finite Laguerre plane with precomputed lookup indexes."""

    def __init__(self, generators, circles, *, coefficients=None, field=None,
                 label: str = "custom", validate: bool = True):
        super().__init__(generators, circles)
        self._axioms = None
        if validate:
            rep = self._axioms = _validate(self)
            if not rep.holds:
                first = rep.violations[0].kind if rep.violations else "unknown"
                raise NotALaguerrePlane(f"candidate structure fails: {first}", rep)

        self.label = label
        self.field = field
        self.q = self.members.shape[1] - 1

        if coefficients is not None:
            self.coef = np.array(coefficients, dtype=np.int16)
            self.circle_by_coef = {tuple(map(int, co)): cid
                                   for cid, co in enumerate(self.coef)}
        else:
            self.coef = None
            self.circle_by_coef = None

        self._build_indexes()
        for arr in (self.gen_of, self.gen_members, self.members, self.mem,
                    self.pair_count, self.pair_sum, self.triple_circle,
                    self.pencil_others, self.tangent_through, self.vertex_pencils):
            arr.flags.writeable = False

    def _build_indexes(self) -> None:
        n_p, n_c, q = self.n_points, self.n_circles, self.q

        # joining circle of every mutually non-parallel ordered triple, one
        # flat write per first slot
        self.triple_circle = np.full((n_p, n_p, n_p), -1, dtype=np.int16)
        M = self.members.astype(np.int64)
        flat = self.triple_circle.reshape(-1)
        ids = np.arange(n_c, dtype=np.int16)[:, None]
        jk = np.array(list(itertools.permutations(range(q + 1), 2)))
        for i in range(q + 1):
            j, k = jk[(jk != i).all(axis=1)].T
            flat[(M[:, i, None] * n_p + M[:, j]) * n_p + M[:, k]] = ids

        # per block of circles: the tangent pencils, partners of K grouped by
        # the touch point's generator, each group in id order (the stable
        # sort keeps the partners' order); then the unique tangent circle through an
        # outer point, one batch of flat writes, and the sentinels: parallel
        # beats membership of pencil mates, and membership of K beats both
        self.pencil_others = np.empty((n_c, q + 1, q - 1), dtype=np.int16)
        self.tangent_through = np.full((n_c, q + 1, n_p), ON_CIRCLE, dtype=np.int16)
        for b0, (L, row) in zip(range(0, n_c, _BLOCK), self._tangent_blocks):
            b1 = min(b0 + _BLOCK, n_c)
            pencil = L[np.argsort(row, kind="stable")].reshape(-1, q + 1, q - 1)
            self.pencil_others[b0:b1] = pencil
            flat = self.tangent_through[b0:b1].reshape(-1)
            cell = np.arange((b1 - b0) * (q + 1)).reshape(b1 - b0, q + 1, 1) * n_p
            flat[cell[..., None] + M[pencil]] = pencil[..., None]
            flat[cell + self.gen_members] = PARALLEL
            flat[cell + M[b0:b1, None, :]] = ON_CIRCLE
        del self._tangent_blocks     # the pencils now hold them

        # circles through a non-parallel point pair, sorted by id
        self.vertex_pencils = np.full((n_p, n_p, q), -1, dtype=np.int16)
        for ga, gb in itertools.permutations(range(self.n_gens), 2):
            gw = min(g for g in range(self.n_gens) if g not in (ga, gb))
            A = self.gen_members[ga]
            B = self.gen_members[gb]
            Tpts = self.gen_members[gw]
            block = self.triple_circle[A[:, None, None], B[None, :, None], Tpts[None, None, :]]
            self.vertex_pencils[A[:, None], B[None, :]] = np.sort(block, axis=-1)

    # -- basic views ---------------------------------------------------

    def __repr__(self) -> str:
        return (f"LaguerrePlane(q={self.q}, points={self.n_points}, "
                f"circles={self.n_circles}, model={self.label!r})")

    def circle(self, cid) -> Circle:
        cid = _cid(cid)
        coef = self.circle_coef(cid)
        return Circle(cid, tuple(self.members[cid].tolist()), coef)

    def circle_coef(self, cid) -> tuple[int, int, int] | None:
        if self.coef is None:
            return None
        return tuple(self.coef[_cid(cid)].tolist())

    def circle_from_coef(self, coef) -> Circle:
        if self.circle_by_coef is None:
            raise ValueError("plane has no coordinate model")
        key = tuple(int(x) for x in coef)
        if key not in self.circle_by_coef:
            raise ValueError(f"no circle with coefficients {key}")
        return self.circle(self.circle_by_coef[key])

    def parallel(self, p: int, r: int) -> bool:
        return bool(self.gen_of[p] == self.gen_of[r])

    def circles_through(self, p: int) -> np.ndarray:
        return np.nonzero(self.mem[:, p])[0]

    def point_label(self, pid: int) -> str:
        g = int(self.gen_of[pid])
        if g == self.n_gens - 1 and self.field is not None:
            return f"(inf,{pid - self.q * self.q})"
        if self.field is not None:
            return f"({pid // self.q},{pid % self.q})"
        return f"p{pid}"

    # -- the constructive operations ------------------------------------

    def circle_through(self, a: int, b: int, c: int) -> Circle:
        """The unique circle joining three mutually non-parallel points."""
        cid = int(self.triple_circle[a, b, c])
        if cid < 0:
            raise ParallelPoints(f"points {a},{b},{c} are not mutually non-parallel")
        return self.circle(cid)

    def parallel_point(self, p: int, K) -> int:
        """The unique point of K on the generator of p."""
        return int(self.members[_cid(K), self.gen_of[p]])

    def tangent_circle(self, p: int, K, x: int) -> Circle:
        """The unique circle through x meeting K exactly in p."""
        K = _cid(K)
        if not self.mem[K, p]:
            raise PointNotOnCircle(f"point {p} not on circle {K}")
        m = int(self.tangent_through[K, self.gen_of[p], x])
        if m == ON_CIRCLE:
            raise PointOnCircle(f"point {x} lies on circle {K}")
        if m == PARALLEL:
            raise ParallelPoints(f"point {x} is parallel to {p}")
        return self.circle(m)

    def tangency(self, K, L) -> Tangency:
        """Set-theoretic classification of a circle pair."""
        K, L = _cid(K), _cid(L)
        n = int(self.pair_count[K, L])
        if K == L:
            return Tangency("equal", tuple(int(p) for p in self.members[K]))
        if n == 0:
            return Tangency("disjoint")
        if n == 1:
            return Tangency("tangent", (int(self.pair_sum[K, L]),))
        pts = np.intersect1d(self.members[K], self.members[L])
        return Tangency("secant", tuple(int(p) for p in pts))

    def tangent_pencil(self, p: int, K) -> Pencil:
        """All circles tangent to K at p (including K itself)."""
        K = _cid(K)
        if not self.mem[K, p]:
            raise PointNotOnCircle(f"point {p} not on circle {K}")
        members = sorted([K] + [int(m) for m in self.pencil_others[K, self.gen_of[p]]])
        return Pencil("tangent", (p, K), tuple(members))

    # -- concyclicity ----------------------------------------------------

    def properly_concyclic(self, points) -> bool:
        """True when some circle contains every listed point."""
        uniq = sorted(set(int(p) for p in points))
        if len(uniq) <= 1:
            return True
        gens = [int(self.gen_of[p]) for p in uniq]
        if len(set(gens)) != len(gens):
            return False
        if len(uniq) == 2:
            return True
        cid = int(self.triple_circle[uniq[0], uniq[1], uniq[2]])
        return all(bool(self.mem[cid, p]) for p in uniq[3:])

    def concyclic(self, a: int, b: int, c: int, d: int) -> bool:
        """Generalized concyclicity of the ordered quadruple (a,b,c,d).

        Either all four lie on one circle, or the quadruple splits on the
        given ordering into parallel pairs (a,b) and (c,d) with a,c in
        different generators.
        """
        if self.properly_concyclic((a, b, c, d)):
            return True
        return self.parallel(a, b) and self.parallel(c, d) and not self.parallel(a, c)

    def concyclic_some_order(self, a: int, b: int, c: int, d: int) -> bool:
        """Unordered variant: some arrangement satisfies `concyclic`."""
        if self.properly_concyclic((a, b, c, d)):
            return True
        for w, x, y, z in ((a, b, c, d), (a, c, b, d), (a, d, b, c)):
            if self.parallel(w, x) and self.parallel(y, z) and not self.parallel(w, y):
                return True
        return False

    def validate_axioms(self) -> CheckReport:
        """The axiom report of this plane, a copy of the one its validation
        made (validated on the first call if it was built unvalidated)."""
        if self._axioms is None:
            self._axioms = _validate(self)
            vars(self).pop("_tangent_blocks", None)     # the pencils hold them
        return replace(self._axioms, violations=list(self._axioms.violations))
