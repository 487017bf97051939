"""The plane-axiom validator against its loop reference and pinned reports.

`loop_validate` below is the per-triple, per-(circle, slot) validator the
array passes in `laguerre_lab.plane` replaced; it is kept here, with the
structure it reads, as the second route to every axiom verdict.  The
array validator must give the same report on any structure: verdict,
configuration count, notes, violation count and the recorded witnesses
in order.  `validator_corpus.json` pins reports recorded with the loop
validator for structures that reach every failure branch.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laguerre_lab.errors import NotALaguerrePlane
from laguerre_lab.gf import field_of_order
from laguerre_lab.models import (
    SUPPORTED_PLANE_ORDERS,
    _model_structure,
    miquelian_plane,
    oval_plane,
    oval_table_power,
)
from laguerre_lab.plane import (
    _BLOCK,
    LaguerrePlane,
    _axiom1,
    _axiom2,
    _first_repeat,
    MANY,
    _Structure,
    meet_count,
    meet_sum,
    validate_laguerre_axioms,
)
from laguerre_lab.report import MAX_VIOLATIONS, CheckMode, CheckReport, Violation
from test_relabelling import RELABELLED, plane_for, relabel_structure

CORPUS = Path(__file__).with_name("validator_corpus.json")


# ---------------------------------------------------------------------------
# loop reference
# ---------------------------------------------------------------------------

class LoopStructure:
    """Incidence data built point by point from Python tuples."""

    def __init__(self, generators, circles):
        self.generators = [tuple(int(p) for p in g) for g in generators]
        self.circles = [tuple(sorted(int(p) for p in c)) for c in circles]
        self.n_points = sum(len(g) for g in self.generators)
        self.n_gens = len(self.generators)
        self.n_circles = len(self.circles)

        self.gen_of = np.full(self.n_points, -1, dtype=np.int16)
        self.partition_ok = True
        seen = np.zeros(self.n_points, dtype=bool)
        for gid, g in enumerate(self.generators):
            for p in g:
                if not 0 <= p < self.n_points or seen[p]:
                    self.partition_ok = False
                else:
                    seen[p] = True
                    self.gen_of[p] = gid
        if not seen.all():
            self.partition_ok = False

        self.mem = np.zeros((self.n_circles, self.n_points), dtype=bool)
        self.members_ok = True
        for cid, c in enumerate(self.circles):
            if len(set(c)) != len(c) or any(not 0 <= p < self.n_points for p in c):
                self.members_ok = False
                continue
            self.mem[cid, list(c)] = True

    @property
    def pair_count(self) -> np.ndarray:
        m = self.mem.astype(np.float32)
        return np.rint(m @ m.T).astype(np.uint8)

    @property
    def pair_sum(self) -> np.ndarray:
        m = self.mem.astype(np.float32)
        w = m * np.arange(self.n_points, dtype=np.float32)[None, :]
        return np.rint(m @ w.T).astype(np.int32)


def loop_validate(generators, circles) -> CheckReport:
    s = LoopStructure(generators, circles)
    report = CheckReport(check_id="Axioms", mode=CheckMode.exhaustive())
    notes: list[str] = []

    if not s.partition_ok:
        report.add_violation(Violation("structure", data=(("generators_partition", 0),)))
    if len({len(g) for g in s.generators}) > 1:
        report.add_violation(Violation("structure", data=(("generator_sizes", 0),)))
    if not s.members_ok:
        report.add_violation(Violation("structure", data=(("circle_members", 0),)))
    if report.violation_count:
        report.notes = tuple(["structure=failed"])
        report.verdict = "Fails"
        return report.finalize()

    # Axiom (3): every circle meets every generator exactly once.
    gen_hits = np.zeros((s.n_circles, s.n_gens), dtype=np.int16)
    for cid, c in enumerate(s.circles):
        np.add.at(gen_hits, (cid, s.gen_of[list(c)]), 1)
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
    report.configurations += s.n_circles * s.n_gens

    gen_sizes = {len(g) for g in s.generators}
    uniform = axiom3_ok and len(gen_sizes) == 1 and len({len(c) for c in s.circles}) == 1

    # Axiom (1): every mutually non-parallel triple lies on exactly one circle.
    if uniform:
        cube = np.zeros((s.n_points,) * 3, dtype=np.uint8)
        dup_witness = None
        for cid, c in enumerate(s.circles):
            for i, j, k in itertools.combinations(c, 3):
                if cube[i, j, k]:
                    if dup_witness is None:
                        dup_witness = (i, j, k, cid)
                else:
                    cube[i, j, k] = 1
        n_triples = sum(len(c) * (len(c) - 1) * (len(c) - 2) // 6 for c in s.circles)
        expected = 0
        sizes = [len(g) for g in s.generators]
        for a, b, c in itertools.combinations(range(s.n_gens), 3):
            expected += sizes[a] * sizes[b] * sizes[c]
        report.configurations += expected
        if dup_witness is not None:
            i, j, k, cid = dup_witness
            others = [d for d in range(s.n_circles)
                      if s.mem[d, i] and s.mem[d, j] and s.mem[d, k]]
            report.add_violation(Violation(
                "axiom1", points=(i, j, k), circles=tuple(others[:2]),
                data=(("joining_circles", len(others)),),
            ))
            notes.append("axiom1=failed")
        elif n_triples != expected:
            witness = None
            for ga, gb, gc in itertools.combinations(range(s.n_gens), 3):
                for i in s.generators[ga]:
                    for j in s.generators[gb]:
                        for k in s.generators[gc]:
                            a1, b1, c1 = sorted((i, j, k))
                            if not cube[a1, b1, c1]:
                                witness = (a1, b1, c1)
                                break
                        if witness:
                            break
                    if witness:
                        break
                if witness:
                    break
            report.add_violation(Violation(
                "axiom1", points=witness or (), data=(("joining_circles", 0),)))
            notes.append("axiom1=failed")
        else:
            notes.append("axiom1=ok")
    else:
        notes.append("axiom1=skipped")

    # Axiom (2): the circles meeting K exactly in p partition the points
    # off K and off the generator of p.
    if uniform:
        T = s.pair_count
        W = s.pair_sum
        axiom2_ok = True
        for cid, c in enumerate(s.circles):
            partners = np.nonzero(T[cid] == 1)[0]
            touch = W[cid, partners]
            onehot = np.zeros((len(partners), len(c)), dtype=np.float32)
            for slot, p in enumerate(c):
                onehot[:, slot] = touch == p
            cov = np.rint(s.mem[partners].astype(np.float32).T @ onehot).astype(np.int16)
            for slot, p in enumerate(c):
                eligible = (~s.mem[cid]) & (s.gen_of != s.gen_of[p])
                report.configurations += int(eligible.sum())
                bad = np.nonzero(eligible & (cov[:, slot] != 1))[0]
                if len(bad):
                    x = int(bad[0])
                    report.add_violation(Violation(
                        "axiom2", points=(int(p), x), circles=(cid,),
                        data=(("count", int(cov[x, slot])),),
                    ))
                    axiom2_ok = False
        notes.append("axiom2=ok" if axiom2_ok else "axiom2=failed")
    else:
        notes.append("axiom2=skipped")

    # Axiom (4): some circle has at least three but not all points.
    if any(3 <= len(c) < s.n_points for c in s.circles):
        notes.append("axiom4=ok")
    else:
        report.add_violation(Violation("axiom4"))
        notes.append("axiom4=failed")
    report.configurations += s.n_circles

    report.notes = tuple(notes)
    return report.finalize()


def report_obj(report: CheckReport) -> dict:
    """Everything a validator report says, as plain JSON values."""
    return {
        "verdict": report.verdict,
        "configurations": int(report.configurations),
        "notes": list(report.notes),
        "violation_count": int(report.violation_count),
        "violations": [[v.kind, [int(p) for p in v.points], [int(c) for c in v.circles],
                        [[k, int(x)] for k, x in v.data]] for v in report.violations],
    }


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

def model_rows(q: int, exponent: int = 2):
    """Generators and circles of the coordinate model with o(x) = x^exponent."""
    gens, circles, _ = _model_structure(field_of_order(q), oval_table_power(q, exponent))
    return gens.tolist(), circles.tolist()


def _moved_within(gens, circles, cid, slot):
    """Circle `cid` with its member in `slot` moved along its generator."""
    p = sorted(circles[cid])[slot]
    g = next(g for g in gens if p in g)
    circles[cid] = [r for r in circles[cid] if r != p] + [g[(g.index(p) + 1) % len(g)]]


def corpus_structures() -> dict:
    """Named structures reaching every branch of the validator."""
    out = {}

    g, c = model_rows(3)
    g[0] = g[0][:-1] + [g[1][0]]
    out["structure-partition"] = (g, c)

    g, c = model_rows(3)
    c[0] = c[0][:-1] + [c[0][0]]
    c[5] = c[5] + [len(g) * len(g[0])]
    out["structure-members"] = (g, c)

    g, c = model_rows(3)
    g[0] = g[0][:-1] + [g[1][0]]
    c[0] = c[0][:-1] + [c[0][0]]
    out["structure-both"] = (g, c)

    g, c = model_rows(3)
    c[4] = [c[4][1] + 1 if c[4][1] % 3 < 2 else c[4][1] - 1] + c[4][1:]
    out["axiom3-two-on-a-generator"] = (g, c)

    g, c = model_rows(4)
    c[9] = c[9][:-1]
    out["axiom3-short-circle"] = (g, c)

    g, c = model_rows(4)
    out["axiom1-duplicate-circle"] = (g, c + [list(c[7])])

    g, c = model_rows(5)
    out["axiom1-deleted-circle"] = (g, c[1:])

    g, c = model_rows(5)
    _moved_within(g, c, 10, 2)
    out["axiom1-moved-within-generator"] = (g, c)

    out["axiom2-cap-x3-gf11"] = model_rows(11, 3)
    out["axiom2-x3-gf7"] = model_rows(7, 3)

    out["axiom4-two-points"] = ([[0], [1]], [[0, 1]])
    out["axiom4-whole-plane"] = ([[0], [1], [2]], [[0, 1, 2]])

    g, c = model_rows(3)
    out["ragged-generators"] = (g[:-2] + [g[-2] + g[-1][:1], g[-1][1:]], c)

    out["holds-q2"] = model_rows(2)
    out["holds-x4-gf8"] = model_rows(8, 4)
    return out


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def test_corpus_matches_reports_recorded_with_the_loop_validator():
    pinned = json.loads(CORPUS.read_text(encoding="utf-8"))
    structures = corpus_structures()
    assert sorted(pinned) == sorted(structures)
    for name, (gens, circles) in structures.items():
        assert report_obj(validate_laguerre_axioms(gens, circles)) == pinned[name], name


def test_corpus_reaches_every_branch():
    pinned = json.loads(CORPUS.read_text(encoding="utf-8"))
    kinds = {name: [v[0] for v in rep["violations"]] for name, rep in pinned.items()}
    assert pinned["structure-both"]["notes"] == ["structure=failed"]
    assert len(kinds["structure-both"]) == 2
    assert pinned["axiom3-two-on-a-generator"]["notes"][:3] == [
        "axiom3=failed", "axiom1=skipped", "axiom2=skipped"]
    dup = pinned["axiom1-duplicate-circle"]["violations"][0]
    assert dup[0] == "axiom1" and dup[3] == [["joining_circles", 2]]
    missing = pinned["axiom1-deleted-circle"]["violations"][0]
    assert missing[0] == "axiom1" and missing[3] == [["joining_circles", 0]]
    capped = pinned["axiom2-cap-x3-gf11"]
    assert capped["violation_count"] > MAX_VIOLATIONS == len(capped["violations"])
    assert kinds["axiom4-two-points"] == kinds["axiom4-whole-plane"] == ["axiom4"]
    assert pinned["holds-x4-gf8"]["verdict"] == "Holds"


@pytest.mark.parametrize("name", ["axiom1-deleted-circle", "axiom1-duplicate-circle",
                                  "axiom3-short-circle", "axiom4-whole-plane"])
def test_loop_reference_gives_the_pinned_reports(name):
    pinned = json.loads(CORPUS.read_text(encoding="utf-8"))
    gens, circles = corpus_structures()[name]
    assert report_obj(loop_validate(gens, circles)) == pinned[name]


def witness_holds(gens, circles, v: Violation) -> bool:
    """An axiom (1)-(3) witness is true of the rows read as point sets."""
    rows = [set(c) for c in circles]
    gen = {p: g for g, ps in enumerate(gens) for p in ps}
    data = dict(v.data)
    if v.kind == "axiom1":
        n = sum(set(v.points) <= r for r in rows)
        return len(set(v.points)) == 3 and n == data["joining_circles"] != 1
    if v.kind == "axiom2":
        (K,), (p, x) = v.circles, v.points
        n = sum(x in r and r & rows[K] == {p} for r in rows)
        return (p in rows[K] and x not in rows[K] and gen[x] != gen[p]
                and n == data["count"] != 1)
    if v.kind == "axiom3":
        n = sum(gen[p] == data["generator"] for p in circles[v.circles[0]])
        return n == data["count"] != 1
    return not v.points and not v.circles


@pytest.mark.parametrize("name", sorted(corpus_structures()))
def test_corpus_reports_survive_relabelling(name):
    # verdict, counts and the kinds recorded carry over; which witnesses
    # are recorded follows the new row order, and each one holds
    gens, circles = corpus_structures()[name]
    want = validate_laguerre_axioms(gens, circles)
    gens, circles, *_ = relabel_structure(gens, circles, seed=len(name))
    got = validate_laguerre_axioms(gens, circles)
    assert (got.verdict, got.configurations, got.notes, got.violation_count) == (
        want.verdict, want.configurations, want.notes, want.violation_count)
    assert sorted(v.kind for v in got.violations) == sorted(v.kind for v in want.violations)
    for v in got.violations:
        assert witness_holds(gens, circles, v), v


@pytest.mark.parametrize("name", sorted(
    name for name, rep in json.loads(CORPUS.read_text(encoding="utf-8")).items()
    if rep["verdict"] == "Fails"))
def test_a_refused_build_names_its_first_failing_kind(name):
    # the build stops at the first failing stage, the kind its full report
    # lists first: axiom (2)'s blocks run only after axiom (1) holds.  The
    # report, with the witnesses of every stage, is built when read, once
    pinned = json.loads(CORPUS.read_text(encoding="utf-8"))[name]
    kind = pinned["violations"][0][0]
    gens, circles = corpus_structures()[name]
    with pytest.raises(NotALaguerrePlane) as exc:
        LaguerrePlane(gens, circles)
    assert str(exc.value) == f"candidate structure fails: {kind}"
    # only a refusal at axiom (4) ran axiom (2), which fills the pair codes
    # only where it cannot count: two-point circles
    assert ("pair_code" in vars(exc.value._structure)) == (name == "axiom4-two-points")
    report = exc.value.report
    assert report_obj(report) == pinned
    assert exc.value.report is report


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_array_and_tuple_inputs_agree_with_the_loop_reference(q):
    P = miquelian_plane(q)
    want = report_obj(loop_validate(P.gen_members.tolist(), P.members.tolist()))
    assert report_obj(P.validate_axioms()) == want
    gens = [tuple(g) for g in P.gen_members]
    circles = [tuple(c) for c in P.members[::-1]]
    assert report_obj(validate_laguerre_axioms(gens, circles)) == report_obj(
        loop_validate(gens, circles))


_MUTATIONS = ("delete", "duplicate", "swap", "move-within", "move-anywhere", "drop",
              "extra", "repeat", "out-of-range", "regenerate")


def _mutate(gens, circles, kind, a, b, c):
    n_p = sum(len(g) for g in gens)
    if not circles:
        return
    i = a % len(circles)
    row = circles[i]
    if kind == "delete":
        del circles[i]
    elif kind == "duplicate":
        circles.insert(b % (len(circles) + 1), list(row))
    elif kind == "swap":
        j = b % len(circles)
        circles[i], circles[j] = circles[j], circles[i]
    elif kind == "move-within" and row:
        p = row[b % len(row)]
        g = next((g for g in gens if p in g), None)
        if g is not None:
            row[row.index(p)] = g[(g.index(p) + 1 + c) % len(g)]
    elif kind == "move-anywhere" and row:
        row[b % len(row)] = c % n_p
    elif kind == "drop" and row:
        del row[b % len(row)]
    elif kind == "extra":
        row.append(c % n_p)
    elif kind == "repeat" and row:
        row.append(row[b % len(row)])
    elif kind == "out-of-range" and row:
        row[b % len(row)] = n_p + c % 3 if c % 2 else -1 - c % 3
    elif kind == "regenerate" and len(gens) > 1:
        src, dst = b % len(gens), c % len(gens)
        if src != dst and len(gens[src]) > 1:
            gens[dst].append(gens[src].pop(a % len(gens[src])))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 3, 4, 5]),
       st.lists(st.tuples(st.sampled_from(_MUTATIONS), st.integers(0, 10**6),
                          st.integers(0, 10**6), st.integers(0, 10**6)),
                min_size=0, max_size=3))
def test_array_validator_equals_loop_reference_on_mutated_structures(q, mutations):
    gens, circles = model_rows(q)
    for kind, a, b, c in mutations:
        _mutate(gens, circles, kind, a, b, c)
    assert report_obj(validate_laguerre_axioms(gens, circles)) == report_obj(
        loop_validate(gens, circles))


@pytest.mark.parametrize("q,exponent", [(q, e) for q in (2, 3, 4, 5, 7)
                                        for e in range(1, q)])
def test_monomial_tables_match_the_loop_reference(q, exponent):
    gens, circles = model_rows(q, exponent)
    assert report_obj(validate_laguerre_axioms(gens, circles)) == report_obj(
        loop_validate(gens, circles))


def _pencil_rows(gens, circles):
    """Per (circle, slot) of a structure that holds axiom (3), from the loop
    structure: whether the tangent pencil at the slot's point has a size
    other than E / (m - 1), E the eligible points of the slot, and whether
    two of its circles share a point other than the touch point."""
    s = LoopStructure(gens, circles)
    n_c, m = len(s.circles), len(s.circles[0])
    eligible = s.n_points - m - len(s.generators[0]) + 1
    T, W = s.pair_count, s.pair_sum
    wrong_size = np.zeros((n_c, m), dtype=bool)
    overlap = np.zeros((n_c, m), dtype=bool)
    for cid, c in enumerate(s.circles):
        for slot, p in enumerate(c):
            pencil = [s.circles[d] for d in np.nonzero((T[cid] == 1) & (W[cid] == p))[0]]
            wrong_size[cid, slot] = len(pencil) * (m - 1) != eligible
            met = [x for circle in pencil for x in circle if x != p]
            overlap[cid, slot] = len(met) != len(set(met))
    return s, wrong_size, overlap


def _moved(q):
    """The model of order q with one circle moved off a point along its
    generator: some pencils keep their size, but two of their circles
    meet twice."""
    gens, circles = model_rows(q)
    _mutate(gens, circles, "move-within", 10, 0, 0)
    return gens, circles


@pytest.mark.parametrize("route,structure", [
    ("size", lambda: model_rows(3, 1)),
    ("size", lambda: model_rows(7, 3)),
    ("overlap", lambda: _moved(3)),
    ("overlap", lambda: _moved(4)),
    ("overlap", lambda: _moved(5)),
], ids=["size-x-q3", "size-x3-q7", "overlap-q3", "overlap-q4", "overlap-q5"])
def test_axiom2_failure_routes_match_the_loop_reference(route, structure):
    # each structure has a recorded witness failed by the route: a pencil
    # of the wrong size, or one of the right size whose circles overlap
    gens, circles = structure()
    s, wrong_size, overlap = _pencil_rows(gens, circles)
    report = validate_laguerre_axioms(gens, circles)
    assert report_obj(report) == report_obj(loop_validate(gens, circles))
    rows = [(v.circles[0], s.circles[v.circles[0]].index(v.points[0]))
            for v in report.violations if v.kind == "axiom2"]
    if route == "size":
        assert any(wrong_size[row] for row in rows)
    else:
        assert any(overlap[row] and not wrong_size[row] for row in rows)


ONE_POINT_REPORT = ("Fails", ["axiom3=ok", "axiom1=ok", "axiom2=ok", "axiom4=failed"], 1, 6)


@pytest.mark.parametrize("gens,circles,pinned", [
    ([[0, 1, 2]], [[0], [1], [2]], ONE_POINT_REPORT),
    ([[0, 1, 2]], [[0], [0], [1]], None),
    ([[0, 1], [2, 3]], [[0, 2], [0, 3], [1, 2], [1, 3]], None),
    ([[0, 1], [2, 3]], [[0, 2], [0, 2], [1, 3]], None),
], ids=["one-point", "one-point-repeated", "two-point", "two-point-repeated"])
def test_degenerate_structures_match_the_loop_reference(gens, circles, pinned):
    # one-point circles make m - 1 = 0, so no pencil size follows from the
    # count of eligible points; two-point circles make pencils of one circle
    got = report_obj(validate_laguerre_axioms(gens, circles))
    assert got == report_obj(loop_validate(gens, circles))
    if pinned:
        assert (got["verdict"], got["notes"], got["violation_count"],
                got["configurations"]) == pinned


def test_generators_of_unequal_size_fail_the_structure_stage():
    # {0, 2, 3} is the only circle through 2 and meets {0, 1, 3} twice, so
    # axiom (2) fails; the structure stage refuses the unequal generators
    # before any axiom is read, on both routes
    gens, circles = [[0], [1, 2], [3]], [[0, 1, 3], [0, 2, 3]]
    want = {"verdict": "Fails", "configurations": 0, "notes": ["structure=failed"],
            "violation_count": 1,
            "violations": [["structure", [], [], [["generator_sizes", 0]]]]}
    assert report_obj(validate_laguerre_axioms(gens, circles)) == want
    assert report_obj(loop_validate(gens, circles)) == want
    with pytest.raises(NotALaguerrePlane, match="^candidate structure fails: structure$"):
        LaguerrePlane(gens, circles)


def doubling_first_repeat(keys: np.ndarray) -> int:
    """The first position whose key an earlier position holds, by stable
    sorts of prefixes of doubling length: the search `plane._first_repeat`,
    which reads the sorted keys, replaced."""
    n = 128
    while True:
        head = keys[:n]
        order = np.argsort(head, kind="stable")
        ordered = head.take(order)
        repeats = ordered[1:] == ordered[:-1]
        if repeats.any():
            return int(order[1:][repeats].min())
        n *= 2


def _combos(m: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(m), 3)), dtype=np.intp).reshape(-1, 3)


def _pack(tri, n_p: int):
    return (tri[..., 0] * n_p + tri[..., 1]) * n_p + tri[..., 2]


def triple_keys(s: _Structure) -> np.ndarray:
    """Every member triple's key (i*n + j)*n + k, by circle id, then
    combination order: the keys `plane._axiom1` sorts."""
    M, n_p = np.sort(s.members, axis=1), s.n_points
    return _pack(M.astype(np.int32)[:, _combos(M.shape[1])], n_p).ravel()


def full_sort_axiom1(s: _Structure, report: CheckReport) -> bool:
    """Axiom (1) as one sort of every key: the pass that `plane._axiom1`,
    which sorts growing prefixes of blocks, must match report for report."""
    M, G, n_p = np.sort(s.members, axis=1), s.gen_members, s.n_points
    combos = _combos(M.shape[1])
    keys = triple_keys(s)
    expected = math.comb(s.n_gens, 3) * G.shape[1] ** 3
    report.configurations += expected

    sorted_keys = np.sort(keys)
    if (sorted_keys[1:] == sorted_keys[:-1]).any():
        cid, t = divmod(doubling_first_repeat(keys), len(combos))
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
        tri = np.sort(tri.reshape(-1, 3), axis=1).astype(np.int32)
        packed = _pack(tri, n_p)
        at = np.minimum(np.searchsorted(sorted_keys, packed), len(keys) - 1)
        missing = sorted_keys.take(at) != packed
        if missing.any():
            witness = tuple(int(p) for p in tri[missing.argmax()])
            break
    report.add_violation(Violation(
        "axiom1", points=witness, data=(("joining_circles", 0),)))
    return False


def _axiom1_reports(gens, circles):
    """What `plane._axiom1` and the full-sort reference say of a structure
    that holds axiom (3): each verdict with its report.  Where a triple
    repeats, `plane._first_repeat` must name the position the doubling
    sorts name."""
    s = _Structure(gens, circles)
    assert s.members is not None and s.gen_members is not None
    keys = triple_keys(s)
    sorted_keys = np.sort(keys)
    if (sorted_keys[1:] == sorted_keys[:-1]).any():
        assert _first_repeat(keys, sorted_keys) == doubling_first_repeat(keys)
    out = []
    for axiom1 in (_axiom1, full_sort_axiom1):
        report = CheckReport(check_id="Axioms", mode=CheckMode.exhaustive())
        out.append((axiom1(s, report), report_obj(report.finalize())))
    return out


def _last_circle_repeats(q: int):
    """The model of order q with its last circle replaced by circle 0: the
    only repeated triples are in the last circle, past every shorter prefix."""
    gens, circles = model_rows(q)
    circles[-1] = list(circles[0])
    return gens, circles


@pytest.mark.parametrize("name", sorted(
    name for name, (g, c) in corpus_structures().items()
    if (s := _Structure(g, c)).members is not None and s.gen_members is not None))
def test_axiom1_by_prefixes_equals_the_full_sort_on_the_corpus(name):
    got, want = _axiom1_reports(*corpus_structures()[name])
    assert got == want


@pytest.mark.parametrize("q,exponent", [(q, e) for q in (8, 9, 11, 13) for e in range(3, q)])
def test_axiom1_by_prefixes_equals_the_full_sort_on_monomial_tables(q, exponent):
    got, want = _axiom1_reports(*model_rows(q, exponent))
    assert got == want
    if q == 13 and not got[0]:
        # the first repeat lies in circle q^2 = 169, past the first block
        assert _BLOCK < 169 and got[1]["violations"][0][2][-1] == 169


@pytest.mark.parametrize("q", [9, 11])
def test_axiom1_finds_a_repeat_in_the_last_circle(q):
    gens, circles = _last_circle_repeats(q)
    n_c = len(circles)
    assert n_c > 2 * _BLOCK     # the prefix of one block is sorted alone first
    got, want = _axiom1_reports(gens, circles)
    assert got == want and not got[0]
    (kind, points, joined, data), = got[1]["violations"]
    assert (kind, joined, data) == ("axiom1", [0, n_c - 1], [["joining_circles", 2]])
    assert points == sorted(circles[0])[:3]


def scan_first_repeat(keys: np.ndarray) -> int:
    """The first position whose key occurred earlier, by a plain scan."""
    seen = set()
    for i, key in enumerate(keys.tolist()):
        if key in seen:
            return i
        seen.add(key)
    raise AssertionError("no key repeats")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4000), st.integers(1, 2**31 - 1),
       st.sampled_from([2**30, 2**31]))
def test_first_repeat_equals_a_plain_scan(seed, n, width, top):
    # n int32 keys drawn from the `width` values just under `top`, one of
    # them copied to a later position: a narrow width repeats densely, a
    # wide one sparsely.  top 2^30 is the keys' bound under the size limit
    # (n_p^3 <= 2^30) and 2^31 int32's, both packed as key * n + position
    # in int64
    rng = np.random.default_rng(seed)
    keys = (top - 1 - rng.integers(0, min(width, top), n, dtype=np.int64)).astype(np.int32)
    i, j = np.sort(rng.choice(n, 2, replace=False))
    keys[j] = keys[i]
    assert _first_repeat(keys, np.sort(keys)) == scan_first_repeat(keys)


def _transversal(n_gens: int, size: int, n_circles: int, seed: int):
    """Generators of `size` points, seeded circles with one point on each,
    and for each a partner that meets it on generators 0 and 1 only (its
    other points moved one place along their generators)."""
    rng = np.random.default_rng(seed)
    gens = np.arange(n_gens * size).reshape(n_gens, size)
    slots = rng.integers(0, size, (n_circles, n_gens))
    moved = slots.copy()
    moved[:, 2:] = (moved[:, 2:] + 1) % size
    circles = gens[np.arange(n_gens), np.concatenate([slots, moved])]
    return gens.tolist(), circles.tolist()


@pytest.mark.parametrize("structure", [
    lambda: miquelian_plane(3), lambda: miquelian_plane(4), lambda: miquelian_plane(5),
    lambda: model_rows(8, 4), lambda: plane_for(RELABELLED), lambda: model_rows(11, 3),
    lambda: _transversal(32, 32, 20, seed=11),
], ids=["q3", "q4", "q5", "x4-gf8", RELABELLED, "x3-gf11", "transversal-32x32"])
def test_pair_tables_equal_the_set_intersections(structure):
    # one float32 product yields count * 2^s + 4 * sum + count, s the bit
    # length of m * (4 * n_p - 3), exact while (m + 1) * 2^s <= 2^24, which
    # the size limit's corner of 32 generators of 32 points keeps.  Three
    # or more common points read MANY
    s = structure()
    if isinstance(s, tuple):
        s = _Structure(*s)      # its pair codes are filled on first read
    n_c, m = s.members.shape
    assert (m + 1) << (m * (4 * s.n_points - 3)).bit_length() <= 2**24
    ids = np.arange(s.n_points)
    for K in range(n_c):
        common = s.mem[K] & s.mem
        count, total = common.sum(axis=1), common @ ids
        code = s.pair_code[K]
        assert np.array_equal(meet_count(code), np.minimum(count, MANY)), K
        small = count <= 2
        assert np.array_equal(meet_sum(code[small]), total[small]), K
        assert (code[~small] == MANY).all(), K


def transversals(m: int, g: int):
    """m generators of g points and g^3 circles, one point on each
    generator: for m = 3 every such circle; for m = 4 those whose point on
    the last generator has the sum of the others' indices mod g, so that
    any three of its points fix the fourth.  Axioms (1) and (3) hold."""
    gens = np.arange(m * g).reshape(m, g)
    idx = np.array(list(itertools.product(range(g), repeat=3)))
    if m == 4:
        idx = np.column_stack([idx, idx.sum(axis=1) % g])
    return gens.tolist(), gens[np.arange(m), idx].tolist()


def _axiom2_reports(gens, circles):
    """What `plane._axiom2` says of a structure whose axioms (1) and (3)
    hold, counted and by the tangent blocks: each verdict with its report.
    Counting fills no pair codes where it holds."""
    s = _Structure(gens, circles)
    assert s.members is not None and s.gen_members is not None
    assert _axiom1(s, CheckReport(check_id="Axioms", mode=CheckMode.exhaustive()))
    out = []
    for axiom1 in (True, False):
        report = CheckReport(check_id="Axioms", mode=CheckMode.exhaustive())
        out.append((_axiom2(s, report, axiom1), report_obj(report.finalize())))
        if axiom1:
            counted = out[0][0] and s.members.shape[1] >= 3
            assert ("pair_code" in vars(s)) != counted
    return out


_COUNTED = {
    **{f"model-q{q}": (lambda q=q: model_rows(q)) for q in SUPPORTED_PLANE_ORDERS},
    "x4-gf8": lambda: model_rows(8, 4),
    "x6-gf8": lambda: model_rows(8, 6),
    **{f"corpus-{name}": (lambda name=name: corpus_structures()[name])
       for name, rep in json.loads(CORPUS.read_text(encoding="utf-8")).items()
       if "axiom1=ok" in rep["notes"]},
}


@pytest.mark.parametrize("name", sorted(_COUNTED))
def test_counted_axiom2_equals_the_tangent_blocks(name):
    counted, blocks = _axiom2_reports(*_COUNTED[name]())
    assert counted == blocks


@pytest.mark.parametrize("m,g", [(m, g) for m in (3, 4) for g in range(1, 5)])
def test_transversal_families_hold_axiom2_iff_g_is_one_or_m_minus_one(m, g):
    # g - m + 2 circles through x touch K at p: every eligible (K, p, x)
    # fails alike where that is not 1, and g = 1 leaves no x eligible
    counted, blocks = _axiom2_reports(*transversals(m, g))
    assert counted == blocks
    holds, obj = counted
    assert holds == (g in (1, m - 1))
    assert obj["configurations"] == g**3 * m * (m - 1) * (g - 1)
    if not holds:
        assert obj["violation_count"] == g**3 * m
        assert {v[3][0][1] for v in obj["violations"]} == {g - m + 2}
    if m == 3 and g > 2:
        assert obj["violation_count"] == {3: 81, 4: 192}[g]


def literal_axioms(gens, circles) -> list[bool]:
    """Axioms (1)-(4) read as their text, by brute force over the rows as
    point sets: a third route to each verdict, sharing no pass with the
    validator or its loop reference."""
    gen = {p: i for i, ps in enumerate(gens) for p in ps}
    points = sorted(gen)
    rows = [set(c) for c in circles]

    def apart(*ps):
        return len({gen[p] for p in ps}) == len(ps)

    return [
        # (1) three mutually non-parallel points lie on exactly one circle
        all(sum({a, b, c} <= K for K in rows) == 1
            for a, b, c in itertools.combinations(points, 3) if apart(a, b, c)),
        # (2) for a circle K, p on K and x off K with x non-parallel to p
        # there is exactly one circle through x meeting K exactly in p
        all(sum(x in L and L & K == {p} for L in rows) == 1
            for K in rows for p in K for x in points if x not in K and apart(p, x)),
        # (3) every generator meets every circle exactly once
        all(len(K & set(ps)) == 1 for ps in gens for K in rows),
        # (4) some circle has at least three but not all points
        any(3 <= len(K) < len(points) for K in rows),
    ]


def _assert_the_text_agrees(gens, circles):
    """The validator's verdict is the text's, and so is each axiom it did
    not skip."""
    report = validate_laguerre_axioms(gens, circles)
    axioms = literal_axioms(gens, circles)
    assert report.holds == all(axioms), (gens, circles)
    for note in report.notes:
        name, verdict = note.split("=")
        if name.startswith("axiom") and verdict != "skipped":
            assert (verdict == "ok") == axioms[int(name[-1]) - 1], (note, gens, circles)


def _subsets_of_transversals(sizes):
    """Generators of the given sizes, and each set of circles with one
    point on every generator."""
    gens, start = [], 0
    for size in sizes:
        gens.append(list(range(start, start + size)))
        start += size
    every = list(itertools.product(*gens))
    for mask in range(2 ** len(every)):
        yield gens, [list(c) for i, c in enumerate(every) if mask >> i & 1]


@pytest.mark.parametrize("sizes", [(2, 2, 2), (1, 2, 1), (2, 1, 2), (1, 2, 2), (1, 3, 2),
                                   (1, 1, 2, 2)], ids=str)
def test_the_validator_agrees_with_the_axioms_as_text(sizes):
    # every structure of the family: 256 over 3 generators of 2 points;
    # the ragged shapes fail the structure stage, so the text must fail too
    structures = list(_subsets_of_transversals(sizes))
    assert len(structures) == 2 ** math.prod(sizes)
    for gens, circles in structures:
        _assert_the_text_agrees(gens, circles)
        if len(set(sizes)) > 1:
            assert not validate_laguerre_axioms(gens, circles).holds


@pytest.mark.parametrize("m,g", [(m, g) for m in (3, 4) for g in range(1, 5)])
def test_transversal_families_agree_with_the_axioms_as_text(m, g):
    _assert_the_text_agrees(*transversals(m, g))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]),
       st.lists(st.tuples(st.sampled_from(_MUTATIONS), st.integers(0, 10**6),
                          st.integers(0, 10**6), st.integers(0, 10**6)),
                min_size=1, max_size=2))
def test_perturbed_small_planes_agree_with_the_axioms_as_text(q, mutations):
    # only where the structure stage passes: the text reads no repeated or
    # out-of-range id
    gens, circles = model_rows(q)
    for kind, a, b, c in mutations:
        _mutate(gens, circles, kind, a, b, c)
    if "structure=failed" not in validate_laguerre_axioms(gens, circles).notes:
        _assert_the_text_agrees(gens, circles)


# (verdict, violation count, sha256 of the report as `report_obj` JSON with
# sorted keys) of every monomial oval table x^e, e = 2 ... q - 1, over
# GF(8), GF(9) and GF(11): the candidates the oval-probe benchmark judges.
# Recorded before the tangent blocks kept only failed rows and pencils; the
# digest covers notes, configurations and the witnesses in order.
OVAL_PROBE_REPORTS = {
    (8, 2): ("Holds", 0, "a67b204c5c16f5286a046a8655e74f2a7da3d39facb27891746bd7638ad98224"),
    (8, 3): ("Fails", 3585, "0fed70a43f515ddbf160f139f7741f1642d931cb22291b11ca70ea94f4cf44cc"),
    (8, 4): ("Holds", 0, "a67b204c5c16f5286a046a8655e74f2a7da3d39facb27891746bd7638ad98224"),
    (8, 5): ("Fails", 3585, "9c8448c97e9a666fd4dfa09b28820cbfa7c0899503a5d02b1cd835ff8d4b1acb"),
    (8, 6): ("Holds", 0, "a67b204c5c16f5286a046a8655e74f2a7da3d39facb27891746bd7638ad98224"),
    (8, 7): ("Fails", 3585, "459d328858c2d616c7d420258ba63ed2ed0c91ff7a22874d43787959ac27180f"),
    (9, 2): ("Holds", 0, "a0c339a991d204568481f9e7d32e133c23fe58b928f792e6ccea514b7758329d"),
    (9, 3): ("Fails", 6562, "a2e7fee671499f2aeb38dbf4cccf7e1bcf1c88fe4d3c143c538e47ba979fde07"),
    (9, 4): ("Fails", 5833, "50e9fa03ae1daaef6d633930130f92543d924bd78f1d72c51b713e2c795682b2"),
    (9, 5): ("Fails", 6562, "f6e0fb53c622af4b4ae0fd5676fc4f385acb5fe323ac0ed768bb20be148b7980"),
    (9, 6): ("Fails", 5833, "0234e53d7b01651abf5968b48df58991146057649f7a4c7525383a09f24ad225"),
    (9, 7): ("Fails", 6562, "9e380b418b68e73ab43154ad3a2273bbae82ba506098790da7c5039fdae14b0b"),
    (9, 8): ("Fails", 5833, "acc3b518102c79a928d57b084d859737446ccb8b7d3cb10cd7787c330761088e"),
    (11, 2): ("Holds", 0, "946450f720c3c8c813dec2ce7c4c8246132f6908dab354adf77f10a4968af29a"),
    (11, 3): ("Fails", 14642, "b52acf0429d09a81c0833e6f252fa93c7bd3a3d4c44a2ea710617ae261625091"),
    (11, 4): ("Fails", 13311, "e92aeaae859b9fb91e23e16f50ea9b75812b0dcf5c1eca82d82cffab0eb63e6b"),
    (11, 5): ("Fails", 14642, "b52acf0429d09a81c0833e6f252fa93c7bd3a3d4c44a2ea710617ae261625091"),
    (11, 6): ("Fails", 14642, "2661005b8da0bda4536b02adc272446b2a2cde35b0b043944b09dccb015de05d"),
    (11, 7): ("Fails", 14642, "b52acf0429d09a81c0833e6f252fa93c7bd3a3d4c44a2ea710617ae261625091"),
    (11, 8): ("Fails", 13311, "bdaa5e2538bcc978cad9d5cc7ab070c2755f96b2ff7cc037d1484ad92acba9c0"),
    (11, 9): ("Fails", 14642, "8f4317b90abaf7005195e963c12c2432e3374d5bf75d1465cce1e10c9668bb85"),
    (11, 10): ("Fails", 13311, "0fe36c6a95b1e6b48a11d87c07f4179169983d855406b5e962cf58303d656e46"),
}


def _judged(q: int, exponent: int) -> CheckReport:
    """The axiom report of the oval plane of x^exponent, accepted or not."""
    try:
        return oval_plane(q, oval_table_power(q, exponent)).validate_axioms()
    except NotALaguerrePlane as exc:
        return exc.report


@pytest.mark.parametrize("q,exponent", sorted(OVAL_PROBE_REPORTS))
def test_oval_probe_reports_are_pinned(q, exponent):
    obj = report_obj(_judged(q, exponent))
    digest = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
    assert (obj["verdict"], obj["violation_count"], digest) == OVAL_PROBE_REPORTS[q, exponent]


# traced peak bytes of judging the rejected oval_plane(11, x^10) and
# reading its report: 17.77 MB when each tangent block held a partner and a
# row for every tangent pair, 11.26 MB with only the failed rows and the
# pencils
REJECTED_Q11_PEAK = 11_260_870
# the same rejection with its report never read: 11.26 MB when the build
# ran every stage, 3.63 MB once it stopped at axiom (1), 2.57 MB once
# axiom (1) sorted only the prefix of circles that holds the first repeat
REFUSED_Q11_PEAK = 2_574_099


def _refused(q: int, exponent: int) -> str:
    """The message of refusing the oval plane of x^exponent; its report
    is not read."""
    with pytest.raises(NotALaguerrePlane) as exc:
        oval_plane(q, oval_table_power(q, exponent))
    return str(exc.value)


def _traced_peak(judge):
    """What `judge()` returns, and the traced peak bytes of the call."""
    tracemalloc.start()
    try:
        return judge(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_judging_a_rejected_candidate_stays_within_its_peak():
    _judged(11, 10)             # field tables built outside the traced span
    report, peak = _traced_peak(lambda: _judged(11, 10))
    assert report.verdict == "Fails"
    assert peak <= REJECTED_Q11_PEAK * 1.10, peak
    message, peak = _traced_peak(lambda: _refused(11, 10))
    assert message == "candidate structure fails: axiom1"
    assert peak <= REFUSED_Q11_PEAK * 1.10, peak
