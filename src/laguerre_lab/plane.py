"""The abstract finite Laguerre plane: points, generators, circles, pencils.

A plane is an incidence structure (points, circles, parallelity) in which
  (1) three mutually non-parallel points lie on exactly one circle,
  (2) for a circle K, p on K and x off K with x non-parallel to p there is
      exactly one circle through x meeting K exactly in p,
  (3) every generator (parallel class) meets every circle exactly once,
  (4) some circle has at least three but not all points.

Every array of a `LaguerrePlane` is read-only.  Hot-path operations read
numpy indexes, built with the plane (`members`, `mem`) or on first read:

  * `members`/`mem`       circle membership as rows by generator (the point
                          of K on generator g at `members[K, g]`, so the
                          slot of a point on a circle is its generator id)
                          / dense booleans,
  * `pair_code`           |K ∩ L| and the sum of its points for every
                          circle pair in one code (`meet_count`,
                          `meet_sum`), so the touch point of K and L
                          where they touch (`touch_code`),
  * `triple_circle`       non-parallel point triple -> joining circle, so
                          also the one candidate circle for a member set
                          (the circle of its first three points),
  * `pencil_others`       tangent pencils grouped by (circle, touch point),
                          the touch point given by its generator,
  * `vertex_pencils`      non-parallel point pair -> circles through both,
                          `class_pencils` sorted,
  * `pencil_class`        (circle, touch point's generator) -> the class of
                          the circle's tangent pencil there, one of q at
                          each point,
  * `class_pencils`       (point t, point x, class) -> the circle through t
                          and x in that pencil class at t, so the circle
                          through x tangent to K at t (the Pi family
                          and `tangent_circle` read the two).

The q pencils at a point t are the parallel classes of the plane derived
at t (Polster and Steinke, Geometries on Surfaces, ch. 5): each holds
exactly one of the q circles through t and any x off t's generator, two
of which meet in t and x, so touch nowhere.  So the circle through x
tangent to K at t is the circle through t and x in K's class at t, read
from an n_p^2 q table in place of one of n_c (q + 1) n_p entries.

Dense membership rows make intersection tests word-parallel scans, and the
triple index is a direct array lookup; both choices trade memory for the
inner-loop speed the exhaustive sweeps need.

One size limit decides every index width: `_Structure` refuses more than
2^15 circles, 2^10 points or 32 generators with ValueError, which admits
every plane of order up to 31 and none of order 32.  Ids and pair codes
are int16 (`mem` is bool), and arithmetic on them widens to int32, as the
limit bounds it:

  * n_p^3 <= 2^30 bounds axiom (1)'s triple keys and the fills' offsets,
  * every table `checks._gather` reads holds at most 2^30 entries, the
    largest `triple_circle`'s n_p^3,
  * pair codes are below 8 n_p <= 2^13, their product exact in float32:
    s <= 17 and (m + 1) 2^s <= 33 2^17 < 2^24,
  * `_partners`' rows are below `_BLOCK` m <= 128 32,
  * `_first_repeat` packs keys below 2^30 with fewer than 2^28 positions
    (2^15 C(32, 3)) in int64.

Every construction is validated first, by whole-array passes run in
report order.  A candidate is refused at the first stage that fails:
`NotALaguerrePlane` names that stage's kind, and its `report`, the full
report with the witnesses of every stage, is built when it is read.  The
stages are:

  * structure  one `np.unique` over the generator ids, their sizes, one
               sort of one int32 key per circle member (repeats, range),
               one flat scatter into `mem` and one into the generator rows,
  * axiom (3)  one `bincount` over (circle, generator of member),
  * axiom (1)  one int key per member triple of each block's rows sorted
               by id, sorted by growing prefixes of blocks of circles until
               one repeats (the first of them by one sort of key * n +
               position), or whole; repeats and a shortfall against the
               non-parallel triple count fail,
  * axiom (2)  where axiom (1) holds, a count in the sizes of circles and
               generators (`_axiom2`); elsewhere, per block of circles, a
               `bincount` of pencil sizes and a `pair_code` lookup per two
               circles of a right-sized pencil, which a witness recounts,
  * axiom (4)  the row lengths.

Axioms (1) and (2) and the pair codes run in blocks of `_BLOCK` circles,
so their temporaries stay small beside the indexes.  The point-by-point
loop validator these passes replaced is kept in the tests as the
reference they must match report for report.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
import types
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
    "Tangency",
    "LaguerrePlane",
    "validate_laguerre_axioms",
]

@dataclass(frozen=True)
class Circle:
    """A block of the plane; `coef` is set for coordinate-model circles."""

    id: int
    members: tuple[int, ...]
    coef: tuple[int, int, int] | None = None


@dataclass(frozen=True)
class Tangency:
    """Classification of a circle pair by the size of its intersection."""

    kind: str  # "equal" | "tangent" | "secant" | "disjoint"
    points: tuple[int, ...] = ()


def _cid(circle) -> int:
    return circle.id if isinstance(circle, Circle) else int(circle)


# The pair code of circles K != L is 4 * (sum of K ∩ L) + |K ∩ L| where they
# share at most two points, else MANY: so also at K = L, and on a refused
# candidate's circles that share three or more.  Read it through these:
MANY = 3


def meet_count(code):
    """|K ∩ L| of pair codes, MANY for three or more."""
    return code & 3


def meet_sum(code):
    """The sum of K ∩ L of pair codes that share at most two points."""
    return code >> 2


def touch_code(x):
    """The pair code of two circles that touch at the point x."""
    return 4 * x + 1


def secant_code(x, y):
    """The pair code of two circles that meet in the points x != y."""
    return 4 * (x + y) + 2


# Circles per block of the validator's array passes and of the index fills:
# temporaries are freed block by block, so they stay small beside the
# indexes (block sizes and peak RSS in CHANGES.md)
_BLOCK = 128
# the slot triples i < j < k of a row of m slots in combination order, once per m
_combos = functools.cache(lambda m: np.array(
    list(itertools.combinations(range(m), 3)), dtype=np.intp).reshape(-1, 3))


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
        if n_c > 2**15 or n_p > 2**10 or self.n_gens > 32:
            raise ValueError(f"at most 2**15 circles, 2**10 points and 32 generators, not "
                             f"{n_c} circles, {n_p} points and {self.n_gens} generators")

        # the generators partition the points when every id is in range and
        # listed once; an id listed twice keeps its first generator
        gids = np.repeat(np.arange(self.n_gens, dtype=np.int16), gen_len)
        ok = (gen_flat >= 0) & (gen_flat < n_p)
        pts, first = np.unique(gen_flat[ok], return_index=True)
        self.partition_ok = bool(ok.all()) and len(pts) == n_p
        self.gen_of = np.full(n_p, -1, dtype=np.int16)
        self.gen_of[pts] = gids[ok][first]
        self.gen_members = _rows_2d(gen_flat, gen_len)

        # members sorted within rows by one sort of int32 keys row * (n_p + 2)
        # + member + 1, members clipped to [-1, n_p]: a repeated (an equal
        # neighbour) or out-of-range member leaves its circle no membership row
        row = np.repeat(np.arange(n_c, dtype=np.int32), self.circ_len)
        base = row * (n_p + 2) + 1
        key = np.sort(base + np.clip(circ_flat, -1, n_p).astype(np.int32))
        circ_flat = key - base
        bad = np.zeros(n_c, dtype=bool)
        bad[row[(circ_flat < 0) | (circ_flat >= n_p)]] = True
        bad[row[1:][key[1:] == key[:-1]]] = True
        self.members_ok = not bad.any()
        self.mem = np.zeros((n_c, n_p), dtype=bool)
        at = row * n_p + circ_flat
        self.mem.reshape(-1)[at if self.members_ok else at[~bad[row]]] = True
        self.circ_row, self.circ_flat = row, circ_flat

        # rows by generator, members[K, g] the point of K on generator g: one
        # flat scatter, kept when every circle meets every generator once
        self.members = None
        if n_c and self.partition_ok and self.members_ok and (self.circ_len == self.n_gens).all():
            rows = np.full((n_c, self.n_gens), -1, dtype=np.int16)
            rows.reshape(-1)[row * self.n_gens + self.gen_of.take(circ_flat)] = circ_flat
            if (rows >= 0).all():
                self.members = rows

    @functools.cached_property
    def pair_code(self) -> np.ndarray:
        """The pair code of every two circles, read-only, from one product
        per block with point weights 2^s + 4x + 1, s the bit length of
        m * (4 * n_p - 3): its entries count * 2^s + 4 * sum + count are
        integers below (m + 1) * 2^s, exact in float32 under the size
        limit (module docstring).  Needs axiom (3)."""
        n_c, m = self.members.shape
        n_p = self.n_points
        s = (m * (4 * n_p - 3)).bit_length()
        mem = self.mem.astype(np.float32)
        weighted = mem * (2**s + 1 + 4 * np.arange(n_p, dtype=np.float32))
        out = np.empty((n_c, n_c), dtype=np.int16)
        for b0 in range(0, n_c, _BLOCK):
            code = (mem[b0:b0 + _BLOCK] @ weighted.T).astype(np.int32)
            block = out[b0:b0 + _BLOCK]
            np.bitwise_and(code, 2**s - 1, out=block, casting="unsafe")
            block[code >= MANY << s] = MANY
        out.flags.writeable = False
        return out

    def _partners(self, b0: int) -> tuple[np.ndarray, np.ndarray]:
        """The tangent partners L (`meet_count` 1) of the block of circles K
        from b0, in (K, L) order, and their rows (K - b0) * m + g, g the
        generator of the touch point: int16 (module docstring), so that a
        stable sort of them is a radix sort."""
        n_c, m = self.members.shape
        b1 = min(b0 + _BLOCK, n_c)
        code = self.pair_code[b0:b1]
        one = meet_count(code) == 1
        pairs = np.flatnonzero(one)
        K = np.repeat(np.arange(b1 - b0, dtype=np.int16), np.count_nonzero(one, axis=1))
        row = K * m + self.gen_of.take(meet_sum(code.reshape(-1).take(pairs)))
        return (pairs - np.multiply(K, n_c, dtype=np.intp)).astype(np.int16), row


def _stages(s: _Structure):
    """Check axioms (1)-(4) on `s` with whole-array passes, one stage at a
    time in report order: structure, axiom (3), axiom (1), axiom (2),
    axiom (4).  Yields the report after each stage; the last one yielded
    is finished, its elapsed time the time of the whole run.

    Structure failures stop the check, unequal generators among them: the
    pencil at (K, p) has |G| - 1 circles besides K for each generator G off
    p's (axioms (2), (3)), and any two generators are off a point of the
    circle of axiom (4).  Axioms (1) and (2) need axiom (3), and are skipped
    otherwise.  Witnesses are the first failures in circle-id order, so the
    report is canonical.
    """
    t0 = time.perf_counter()
    report = CheckReport(check_id="Axioms", mode=CheckMode.exhaustive())
    notes: list[str] = []

    if not s.partition_ok:
        report.add_violation(Violation("structure", data=(("generators_partition", 0),)))
    if s.n_gens and s.gen_members is None:
        report.add_violation(Violation("structure", data=(("generator_sizes", 0),)))
    if not s.members_ok:
        report.add_violation(Violation("structure", data=(("circle_members", 0),)))
    if report.violation_count:
        report.notes = tuple(["structure=failed"])
        report.elapsed_seconds = time.perf_counter() - t0
        yield report.finalize()
        return

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
    yield report

    if s.members is not None and s.gen_members is not None:
        axiom1 = _axiom1(s, report)
        notes.append("axiom1=ok" if axiom1 else "axiom1=failed")
        yield report
        notes.append("axiom2=ok" if _axiom2(s, report, axiom1) else "axiom2=failed")
        yield report
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
    yield report.finalize()


def _validate(s: _Structure) -> CheckReport:
    """The full axiom report of `s`: every stage of `_stages`."""
    *_, report = _stages(s)
    return report


def _first_repeat(keys: np.ndarray, sorted_keys: np.ndarray) -> int:
    """The first position whose key an earlier position holds, from the
    keys and their sort, which has a repeat: the least position after an
    equal key in one sort of key * n + position (n keys), whose keys are
    `sorted_keys`, exact in int64 under the size limit (module docstring)."""
    n, repeats = len(keys), sorted_keys[1:] == sorted_keys[:-1]
    packed = np.sort(keys * np.int64(n) + np.arange(n))[1:][repeats]
    return int((packed - sorted_keys[1:][repeats] * np.int64(n)).min())


def _axiom1(s: _Structure, report: CheckReport) -> bool:
    """Every mutually non-parallel triple lies on exactly one circle.

    Each sorted member triple (i, j, k) becomes the key (i*n + j)*n + k,
    read from each block's rows sorted by point id as the block is packed.
    Prefixes of 1, 4, 16, ... blocks of circles, up to half of them, then
    all, are sorted until one repeats, whose first repeat is the first of
    all keys.  Fewer keys than non-parallel triples: one is on no circle.
    """
    M, G, n_p, n_c = s.members, s.gen_members, s.n_points, s.n_circles
    combos = _combos(M.shape[1])

    def pack(tri):
        return (tri[..., 0] * n_p + tri[..., 1]) * n_p + tri[..., 2]

    expected = math.comb(s.n_gens, 3) * G.shape[1] ** 3
    report.configurations += expected
    keys = np.empty((n_c, len(combos)), dtype=np.int32)
    done, n = 0, _BLOCK
    while done < n_c:
        end = n_c if 2 * n > n_c else n
        for b0 in range(done, end, _BLOCK):
            keys[b0:b0 + _BLOCK] = pack(np.sort(M[b0:b0 + _BLOCK]).astype(np.int32)[:, combos])
        done, n = end, 4 * n
        sorted_keys = np.sort(keys[:end].reshape(-1))
        if (sorted_keys[1:] == sorted_keys[:-1]).any():
            # witness: the first triple (circle id, then combination order)
            # whose key an earlier triple already has
            cid, t = divmod(_first_repeat(keys[:end].reshape(-1), sorted_keys), len(combos))
            i, j, k = (int(p) for p in np.sort(M[cid])[combos[t]])
            others = np.nonzero(s.mem[:, i] & s.mem[:, j] & s.mem[:, k])[0]
            report.add_violation(Violation(
                "axiom1", points=(i, j, k), circles=tuple(int(d) for d in others[:2]),
                data=(("joining_circles", len(others)),),
            ))
            return False
    if len(sorted_keys) == expected:
        return True
    witness = ()
    for ga, gb, gc in itertools.combinations(range(s.n_gens), 3):
        tri = np.stack(np.broadcast_arrays(G[ga][:, None, None], G[gb][None, :, None],
                                           G[gc][None, None, :]), axis=-1)
        tri = np.sort(tri.reshape(-1, 3), axis=1).astype(np.int32)
        packed = pack(tri)
        at = np.minimum(np.searchsorted(sorted_keys, packed), len(sorted_keys) - 1)
        missing = sorted_keys.take(at) != packed
        if missing.any():
            witness = tuple(int(p) for p in tri[missing.argmax()])
            break
    report.add_violation(Violation(
        "axiom1", points=witness, data=(("joining_circles", 0),)))
    return False


def _axiom2(s: _Structure, report: CheckReport, axiom1: bool) -> bool:
    """For K, p on K and x off K and off p's generator, one circle through
    x meets K exactly in p.

    Needs axiom (3) and uniform rows: m generators of g points, so circles
    of m points, and E = n_p - m - g + 1 eligible x at each point of K.
    Where axiom (1) holds too and m >= 3, axiom (2) is a count (Polster and
    Steinke, Geometries on Surfaces, ch. 5).  Each of the n_p - 2g points z
    off the generators of p and x lies on one circle with p and x, which
    holds m - 2 of them, so g circles join p and x.  Of these, m - 2 meet
    K again, one at each point of K off the generators of p and x (two
    more common points would make the circle K).  So g - m + 2 touch K at
    p, and axiom (2) holds iff g = m - 1, or g = 1, where no x is eligible.

    Otherwise blocks of circles decide, and find the witnesses.  The
    partners L of K at p, each with m - 1 eligible points, cover each
    eligible x once exactly when (m - 1) * n = E for n of them and no two
    meet twice.  A witness, the first x not covered once, recounts them.
    """
    M, n_p, g = s.members, s.n_points, s.gen_members.shape[1]
    n_c, m = M.shape
    n_eligible = n_p - m - g + 1
    if axiom1 and m >= 3 and g in (1, m - 1):
        report.configurations += n_c * m * n_eligible
        return True
    size = n_eligible // (m - 1) if m > 1 else 0
    first, second = np.triu_indices(size, 1)
    ok = True
    for b0 in range(0, n_c, _BLOCK):
        b1 = min(b0 + _BLOCK, n_c)
        report.configurations += (b1 - b0) * m * n_eligible
        L, row = s._partners(b0)
        failed = np.bincount(row, minlength=(b1 - b0) * m) * (m - 1) != n_eligible
        if len(first):
            kept = np.flatnonzero((~failed).take(row))
            pencils = L.take(kept)[np.argsort(row.take(kept), kind="stable")]
            pencils = pencils.reshape(-1, size).astype(np.int32)
            met = s.pair_code.reshape(-1)[pencils[:, first] * n_c + pencils[:, second]]
            met = meet_count(met) != 1
            failed[~failed] = met.any(axis=1)
        if not failed.any():
            continue
        ok = False

        def witness(i: int) -> Violation:
            k, slot = divmod(i, m)
            p = M[b0 + k, slot]
            partners = np.flatnonzero((meet_count(s.pair_code[b0 + k]) == 1) & s.mem[:, p])
            count = np.bincount(M[partners].ravel(), minlength=n_p)
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
    witnesses), never exceptions; a structure past the size limit (module
    docstring) raises ValueError.
    """
    return _validate(_Structure(generators, circles))


class LaguerrePlane(_Structure):
    """Finite Laguerre plane with read-only lookup indexes.

    Its `cached_property` indexes are filled on first read, each in a local
    returned whole: CPython 3.11's `cached_property` reads the instance dict
    before it takes its lock, so a second sweep thread never sees a partial
    index.  From 3.12, unlocked, two threads may fill one twice: equal arrays."""

    def __init__(self, generators, circles, *, coefficients=None, field=None,
                 label: str = "custom", validate: bool = True):
        super().__init__(generators, circles)
        self._axioms = None
        if validate:
            # the exception builds the full report from `self` when read
            for rep in _stages(self):
                if rep.violation_count:
                    raise NotALaguerrePlane(
                        f"candidate structure fails: {rep.violations[0].kind}", self)
            self._axioms = rep
        if self.gen_members is None:
            raise ValueError("every generator must have as many points as the others")
        if self.members is None:
            raise ValueError("every circle must meet every generator once")

        self.label = label
        self.field = field
        self.q = self.members.shape[1] - 1

        self.coef = None if coefficients is None else np.array(coefficients, dtype=np.int16)
        for arr in (self.gen_of, self.gen_members, self.members, self.mem):
            arr.flags.writeable = False

    @functools.cached_property
    def pencil_others(self) -> np.ndarray:
        """(circle K, touch point's generator) -> the q - 1 other circles
        touching K there, in id order: K's partners stable-sorted by row."""
        n_c, q = self.n_circles, self.q
        out = np.empty((n_c, q + 1, q - 1), dtype=np.int16)
        for b0 in range(0, n_c, _BLOCK):
            L, row = self._partners(b0)
            out[b0:b0 + _BLOCK] = L[np.argsort(row, kind="stable")].reshape(-1, q + 1, q - 1)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def triple_circle(self) -> np.ndarray:
        """Mutually non-parallel ordered point triple -> joining circle, -1
        elsewhere: one flat write per first slot."""
        n_p, n_c, q = self.n_points, self.n_circles, self.q
        out = np.full((n_p, n_p, n_p), -1, dtype=np.int16)
        M = self.members.astype(np.int32)
        ids = np.arange(n_c, dtype=np.int16)[:, None]
        jk = np.array(list(itertools.permutations(range(q + 1), 2)))
        for i in range(q + 1):
            j, k = jk[(jk != i).all(axis=1)].T
            out.reshape(-1)[(M[:, i, None] * n_p + M[:, j]) * n_p + M[:, k]] = ids
        out.flags.writeable = False
        return out

    @functools.cached_property
    def vertex_pencils(self) -> np.ndarray:
        """Non-parallel pair -> its q circles in id order, -1 elsewhere."""
        out = np.sort(self.class_pencils, axis=-1)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def pencil_class(self) -> np.ndarray:
        """(circle K, touch point's generator) -> the class of K's pencil at
        its point t there: the position in generator w of the point on w of
        the pencil's circle through r, r the first point of the generator
        after t's and w the generator after r's.  One circle of each pencil
        at t passes through r, and the q circles through t and r meet w in
        its q points, one each."""
        n_c, n_p, n, G = self.n_circles, self.n_points, self.n_gens, self.gen_members
        pos = np.empty(n_p, dtype=np.int16)
        pos[G] = np.arange(G.shape[1], dtype=np.int16)
        g = np.arange(n)
        ref, w = G[(g + 1) % n, :1].astype(np.int32), (g + 2) % n
        out = np.empty((n_c, n), dtype=np.int16)
        for b0 in range(0, n_c, _BLOCK):
            others = self.pencil_others[b0:b0 + _BLOCK]
            K = np.arange(b0, b0 + len(others), dtype=np.int16)
            pencil = np.concatenate(
                [np.broadcast_to(K[:, None, None], (len(K), n, 1)), others], axis=2)
            hit = self.mem.reshape(-1).take(pencil.astype(np.int32) * n_p + ref)
            D = np.take_along_axis(pencil, hit.argmax(axis=2)[..., None], axis=2)[..., 0]
            on_w = self.members.reshape(-1).take(D.astype(np.int32) * n + w)
            out[b0:b0 + _BLOCK] = pos.take(on_w)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def class_pencils(self) -> np.ndarray:
        """(point t, point x, class k) -> the circle through t and x of class
        k at t, -1 where x is parallel to t: one flat write per block of
        circles D, at (t, x, class of D at t) for each two slots of D, and
        then -1 over t = x.  Sorted along its last axis it is `vertex_pencils`."""
        n_c, n_p, q = self.n_circles, self.n_points, self.q
        out = np.full((n_p, n_p, q), -1, dtype=np.int16)
        for b0 in range(0, n_c, _BLOCK):
            M = self.members[b0:b0 + _BLOCK].astype(np.int32)
            k = self.pencil_class[b0:b0 + _BLOCK, :, None]
            ids = np.arange(b0, b0 + len(M), dtype=np.int16)[:, None, None]
            out.reshape(-1)[(M[:, :, None] * n_p + M[:, None, :]) * q + k] = ids
        out[np.arange(n_p), np.arange(n_p)] = -1
        out.flags.writeable = False
        return out

    @functools.cached_property
    def circle_by_coef(self) -> types.MappingProxyType | None:
        """Coefficient triple -> circle id, built on first read; None
        without a coordinate model."""
        return None if self.coef is None else types.MappingProxyType(
            {tuple(co): cid for cid, co in enumerate(self.coef.tolist())})

    # -- basic views ---------------------------------------------------

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
        if self.mem[K, x]:
            raise PointOnCircle(f"point {x} lies on circle {K}")
        if self.gen_of[x] == self.gen_of[p]:
            raise ParallelPoints(f"point {x} is parallel to {p}")
        return self.circle(int(self.class_pencils[p, x, self.pencil_class[K, self.gen_of[p]]]))

    def tangency(self, K, L) -> Tangency:
        """Set-theoretic classification of a circle pair."""
        K, L = _cid(K), _cid(L)
        code = int(self.pair_code[K, L])
        if K == L:
            return Tangency("equal", tuple(int(p) for p in self.members[K]))
        if meet_count(code) == 0:
            return Tangency("disjoint")
        if meet_count(code) == 1:
            return Tangency("tangent", (meet_sum(code),))
        pts = np.intersect1d(self.members[K], self.members[L])
        return Tangency("secant", tuple(int(p) for p in pts))

    def tangent_pencil(self, p: int, K) -> tuple[int, ...]:
        """The ids of all circles tangent to K at p (including K), sorted."""
        K = _cid(K)
        if not self.mem[K, p]:
            raise PointNotOnCircle(f"point {p} not on circle {K}")
        return tuple(sorted([K] + self.pencil_others[K, self.gen_of[p]].tolist()))

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
            # a structure of its own, so that no index of this plane is rebuilt
            self._axioms = _validate(_Structure(self.gen_members, self.members))
        return replace(self._axioms, violations=list(self._axioms.violations))
