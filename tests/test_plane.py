"""Incidence structure tests.

The derived expectations are recomputed here through independent brute
oracles (coefficient enumeration, raw set scans) rather than through the
plane's own indexes, then compared against the indexed operations.
"""

from __future__ import annotations

import importlib.util
import itertools
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laguerre_lab.plane as plane_mod
from laguerre_lab import checks
from laguerre_lab.errors import NotALaguerrePlane, ParallelPoints, PointNotOnCircle, PointOnCircle
from laguerre_lab.models import (
    SUPPORTED_PLANE_ORDERS,
    miquelian_plane,
    oval_plane,
    oval_table_power,
)
from laguerre_lab.plane import (
    MANY,
    LaguerrePlane,
    Tangency,
    _Structure,
    meet_count,
    meet_sum,
    touch_code,
    validate_laguerre_axioms,
)
from laguerre_lab.report import CheckMode, Violation
from laguerre_lab.symmetry import (
    build_dts,
    find_fixed_point_free_pair,
    moebius_extract,
    sample_nontangent_pairs,
    verify_dts,
)
from test_relabelling import RELABELLED, plane_for
from test_validator import report_obj


def _load_demo(name: str):
    """A script of `demos/` as a module; its walk-through runs only as __main__."""
    path = Path(__file__).resolve().parent.parent / "demos" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


TOUR = _load_demo("demo_plane_tour")


def discriminant_tangency(plane, K, L) -> Tangency:
    """Classify a circle pair from coefficients alone (odd characteristic).

    For (a,b,c) vs (a',b',c') with a != a' the finite intersections are the
    roots of (a-a')x² + (b-b')x + (c-c') and the classification follows the
    discriminant (b-b')² - 4(a-a')(c-c'); pairs with a = a' share the
    infinity point (inf,a) and reduce to the linear case.  The cross-check
    oracle against the set-theoretic `plane.tangency`.
    """
    field = plane.field
    assert field is not None and field.p != 2
    a1, b1, c1 = plane.circle_coef(K)
    a2, b2, c2 = plane.circle_coef(L)
    if (a1, b1, c1) == (a2, b2, c2):
        return Tangency("equal", tuple(int(p) for p in plane.members[K]))
    q = field.q
    da = field.sub(a1, a2)
    db = field.sub(b1, b2)
    dc = field.sub(c1, c2)
    inf1 = q * q + a1

    def xy_point(x):
        y = int(field.add[field.add[field.mul[a1, field.mul[x, x]], field.mul[b1, x]], c1])
        return x * q + y

    if da == 0:
        if db == 0:
            return Tangency("tangent", (inf1,))  # shared infinity point only
        x = field.div(field.neg[dc], db)
        return Tangency("secant", tuple(sorted((xy_point(x), inf1))))
    disc = field.sub(field.mul[db, db], field.mul[field.mul[field.add[2, 2], da], dc])
    if disc == 0:
        x = field.div(field.neg[db], field.add[da, da])
        return Tangency("tangent", (xy_point(x),))
    diag = field.mul[np.arange(q), np.arange(q)]
    roots = np.nonzero(diag == disc)[0]
    if len(roots) == 0:
        return Tangency("disjoint")
    r = int(roots[0])
    two_da = field.add[da, da]
    xs = (field.div(field.sub(r, db), int(two_da)),
          field.div(field.sub(int(field.neg[r]), db), int(two_da)))
    return Tangency("secant", tuple(sorted(xy_point(x) for x in xs)))


def pt(q, x, y):
    return x * q + y


def inf(q, a):
    return q * q + a


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_counts(q):
    P = miquelian_plane(q)
    assert P.n_points == q * q + q
    assert P.n_circles == q**3
    assert P.n_gens == q + 1
    assert P.members.shape[1] == q + 1
    # circles through one fixed point
    assert len(P.circles_through(0)) == q * q


def brute_circles_through_points(P, pts):
    """Coefficient-free oracle: scan every circle's member set."""
    return [cid for cid in range(P.n_circles)
            if all(P.mem[cid, p] for p in pts)]


def test_circle_through_interpolation_oracle():
    # (0,0),(1,1),(2,4) over GF(5): enumerate all 125 coefficient triples
    P = miquelian_plane(5)
    F = P.field
    pts = [pt(5, 0, 0), pt(5, 1, 1), pt(5, 2, 4)]
    sols = []
    for a, b, c in itertools.product(range(5), repeat=3):
        ok = True
        for x, y in [(0, 0), (1, 1), (2, 4)]:
            val = F.add[F.add[F.mul[a, F.mul[x, x]], F.mul[b, x]], c]
            ok = ok and int(val) == y
        if ok:
            sols.append((a, b, c))
    assert sols == [(1, 0, 0)]
    assert P.circle_through(*pts).coef == (1, 0, 0)
    assert brute_circles_through_points(P, pts) == [P.circle_through(*pts).id]


def test_circle_through_zero_polynomial():
    P = miquelian_plane(3)
    C = P.circle_through(pt(3, 0, 0), pt(3, 1, 0), pt(3, 2, 0))
    assert C.coef == (0, 0, 0)


def test_circle_through_parallel_rejection():
    P = miquelian_plane(5)
    with pytest.raises(ParallelPoints):
        P.circle_through(pt(5, 0, 0), pt(5, 0, 1), pt(5, 1, 1))


def test_parallel_point_examples():
    P = miquelian_plane(5)
    K = P.circle_from_coef((1, 0, 0))
    assert P.parallel_point(pt(5, 2, 3), K) == pt(5, 2, 4)  # y = x^2 at x=2
    assert P.parallel_point(inf(5, 0), K) == inf(5, 1)
    # identity on circle points
    for p in K.members:
        assert P.parallel_point(p, K) == p


def test_tangent_circle_pencil_search_oracle():
    P = miquelian_plane(5)
    K = P.circle_from_coef((1, 0, 0))
    p, x = pt(5, 0, 0), pt(5, 1, 2)
    brute = [cid for cid in range(P.n_circles)
             if P.mem[cid, x]
             and P.pair_code[cid, K.id] == touch_code(p)]
    assert len(brute) == 1
    M = P.tangent_circle(p, K, x)
    assert M.id == brute[0]
    assert M.coef == (2, 0, 0)


def test_tangent_circle_rejections():
    P5 = miquelian_plane(5)
    K = P5.circle_from_coef((1, 0, 0))
    with pytest.raises(PointOnCircle):
        P5.tangent_circle(pt(5, 0, 0), K, pt(5, 1, 1))
    P3 = miquelian_plane(3)
    with pytest.raises(ParallelPoints):
        P3.tangent_circle(pt(3, 0, 0), P3.circle_from_coef((1, 0, 0)), pt(3, 0, 1))
    with pytest.raises(PointNotOnCircle):
        P5.tangent_circle(pt(5, 0, 1), K, pt(5, 1, 2))


def test_tangency_examples():
    P = miquelian_plane(5)
    K = P.circle_from_coef((1, 0, 0))
    t = P.tangency(K, P.circle_from_coef((4, 0, 2)))
    assert t.kind == "secant" and t.points == (pt(5, 1, 1), pt(5, 4, 1))
    t = P.tangency(K, P.circle_from_coef((1, 0, 1)))
    assert t.kind == "tangent" and t.points == (inf(5, 1),)
    assert P.tangency(K, P.circle_from_coef((4, 0, 1))).kind == "disjoint"
    assert P.tangency(K, K).kind == "equal"


@pytest.mark.parametrize("q", [3, 5])
def test_tangency_agrees_with_discriminant_oracle_full_scan(q):
    P = miquelian_plane(q)
    for K in range(P.n_circles):
        for L in range(P.n_circles):
            t = P.tangency(K, L)
            d = discriminant_tangency(P, K, L)
            assert (t.kind, t.points) == (d.kind, d.points)


def test_tangency_discriminant_oracle_sampled_q7():
    P = miquelian_plane(7)
    rng = np.random.default_rng(1)
    for _ in range(3000):
        K, L = (int(v) for v in rng.integers(0, P.n_circles, 2))
        t = P.tangency(K, L)
        d = discriminant_tangency(P, K, L)
        assert (t.kind, t.points) == (d.kind, d.points)


def test_tangent_pencil_example_and_membership():
    P = miquelian_plane(5)
    K = P.circle_from_coef((1, 0, 0))
    pen = P.tangent_pencil(pt(5, 0, 0), K)
    assert len(pen) == 5
    assert sorted(P.circle_coef(c) for c in pen) == [(a, 0, 0) for a in range(5)]
    assert K.id in pen
    with pytest.raises(PointNotOnCircle):
        P.tangent_pencil(pt(5, 0, 1), K)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_pencil_sizes_by_enumeration(q):
    P = miquelian_plane(q)
    step = 1 if q <= 3 else P.n_circles // 9  # all (p, K) at tiny orders
    for K in range(0, P.n_circles, step):
        for p in P.members[K]:
            pen = P.tangent_pencil(int(p), K)
            assert len(pen) == q
            # members pairwise intersect exactly in {p}
            for m1, m2 in itertools.combinations(pen, 2):
                t = P.tangency(m1, m2)
                assert t.kind == "tangent" and t.points == (int(p),)
    x, y = 0, q + 1  # first points of generators 0 and 1
    pencil = P.vertex_pencils[x, y]
    assert len(set(pencil.tolist())) == q and P.mem[pencil, x].all() and P.mem[pencil, y].all()



@pytest.mark.parametrize("plane", [(3, 2), (4, 2), (5, 2), (8, 4), RELABELLED], ids=str)
def test_tangent_indexes_by_set_scan(plane):
    # every point p of every circle K, at the row of p's generator: the
    # pencil in id order, and `tangent_circle` at every point x, the circle
    # of the pencil through x off K and off p's generator; p and the rest
    # of K raise PointOnCircle, the rest of p's generator ParallelPoints
    if isinstance(plane, str):
        P = plane_for(plane)
    else:
        q, exponent = plane
        P = oval_plane(q, oval_table_power(q, exponent)) if exponent != 2 else miquelian_plane(q)
    circles = [set(np.flatnonzero(row).tolist()) for row in P.mem]
    gen = P.gen_of.tolist()
    for K in range(P.n_circles):
        touching = {}
        for L, row in enumerate(circles):
            common = row & circles[K]
            if len(common) == 1:
                touching.setdefault(common.pop(), []).append(L)
        for p in sorted(circles[K]):
            slot = gen[p]
            pencil = touching[p]
            assert P.pencil_others[K, slot].tolist() == pencil
            for x in range(P.n_points):
                if x in circles[K]:
                    with pytest.raises(PointOnCircle):
                        P.tangent_circle(p, K, x)
                elif gen[x] == gen[p]:
                    with pytest.raises(ParallelPoints):
                        P.tangent_circle(p, K, x)
                else:
                    (L,) = [L for L in pencil if x in circles[L]]
                    assert P.tangent_circle(p, K, x).id == L


@pytest.mark.parametrize("q", SUPPORTED_PLANE_ORDERS)
def test_class_pencils_sorted_are_the_vertex_pencils(q):
    # the q circles through t and x lie one in each pencil class at t, so
    # the class index holds each circle of `vertex_pencils` once, and -1
    # where x is parallel to t; every class at t numbers one pencil
    P = miquelian_plane(q)
    assert np.array_equal(np.sort(P.class_pencils, axis=2), P.vertex_pencils)
    pencil_class = P.pencil_class
    assert ((0 <= pencil_class) & (pencil_class < q)).all()
    t, k = P.members[:, 0], pencil_class[:, 0]
    for K in range(0, P.n_circles, max(1, P.n_circles // 50)):
        mates = P.pencil_others[K, 0]
        assert (pencil_class[mates, 0] == k[K]).all()
        others = np.flatnonzero((t == t[K]) & (k != k[K]))
        assert not np.isin(others, mates).any()


def test_concyclic_examples():
    P = miquelian_plane(5)
    members = [int(p) for p in P.circle_from_coef((1, 0, 0)).members[:4]]
    assert P.concyclic(*members)
    # generator-pair case in the given ordering
    assert P.concyclic(pt(5, 0, 0), pt(5, 0, 1), pt(5, 1, 1), pt(5, 1, 2))
    # (3,0) is off y=x^2 since 3^2 = 4
    assert not P.concyclic(pt(5, 0, 0), pt(5, 1, 1), pt(5, 2, 4), pt(5, 3, 0))
    # ordering matters for the degenerate branch
    assert not P.concyclic(pt(5, 0, 0), pt(5, 1, 1), pt(5, 0, 1), pt(5, 1, 2))
    assert P.concyclic_some_order(pt(5, 0, 0), pt(5, 1, 1), pt(5, 0, 1), pt(5, 1, 2))


def brute_concyclic(P, a, b, c, d):
    uniq = sorted({a, b, c, d})
    on_circle = any(all(P.mem[cid, p] for p in uniq) for cid in range(P.n_circles))
    return on_circle or (P.parallel(a, b) and P.parallel(c, d) and not P.parallel(a, c))


def test_concyclic_against_brute_oracle():
    P = miquelian_plane(3)
    rng = np.random.default_rng(2)
    for _ in range(400):
        a, b, c, d = (int(v) for v in rng.integers(0, P.n_points, 4))
        assert P.concyclic(a, b, c, d) == brute_concyclic(P, a, b, c, d)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_triple_index_total_and_consistent(q):
    P = miquelian_plane(q)
    for cid in range(P.n_circles):
        for i, j, k in itertools.permutations(range(q + 1), 3):
            a, b, c = (int(P.members[cid, s]) for s in (i, j, k))
            assert int(P.triple_circle[a, b, c]) == cid


@pytest.mark.parametrize("q", [*SUPPORTED_PLANE_ORDERS, "relabelled-3", "relabelled-4",
                               RELABELLED])
def test_axiom3_structural_invariant(q):
    # every circle meets every generator, and its row lists the point on
    # generator g at position g
    P = plane_for(q)
    for cid in range(P.n_circles):
        gens = [int(P.gen_of[p]) for p in P.members[cid]]
        assert gens == list(range(P.q + 1))
        assert set(P.members[cid].tolist()) == set(np.flatnonzero(P.mem[cid]).tolist())


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_derived_affine_plane(q):
    P = miquelian_plane(q)
    A = TOUR.derived_affine_plane(P, 0)
    assert len(A.points) == q * q
    assert len(A.lines) == q * q + q
    assert all(len(l) == q for l in A.lines)
    rep = A.validate()
    assert rep.holds, rep.to_text(P)


def test_validate_axioms_pass_and_deleted_circle_witness():
    P = miquelian_plane(5)
    gens = [tuple(g) for g in P.gen_members]
    circles = [tuple(c) for c in P.members]
    assert validate_laguerre_axioms(gens, circles).holds
    broken = validate_laguerre_axioms(gens, circles[1:])
    assert broken.fails
    kinds = {v.kind for v in broken.violations}
    assert "axiom1" in kinds
    witness = next(v for v in broken.violations if v.kind == "axiom1")
    # the witness triple really is unjoinable in the broken structure
    assert len(witness.points) == 3
    a, b, c = witness.points
    assert sum(1 for circ in circles[1:] if {a, b, c} <= set(circ)) == 0


def test_a_plane_is_validated_once(monkeypatch):
    # the report of the build is kept and copied out; an unvalidated build
    # validates on the first call; the Axioms replay validates afresh.  A
    # validation is one run of the validator's stages, which the build
    # steps through itself and `_validate` runs to the end
    src = miquelian_plane(3)
    gens, circles = src.gen_members.tolist(), src.members.tolist()
    want = validate_laguerre_axioms(gens, circles)
    calls, validate = [], plane_mod._stages

    def counted(s):
        calls.append(s)
        return validate(s)

    monkeypatch.setattr(plane_mod, "_stages", counted)
    for checked, built in ((True, 1), (False, 0)):
        calls.clear()
        P = LaguerrePlane(gens, circles, validate=checked)
        assert len(calls) == built
        first = P.validate_axioms()
        first.violations.append(None)
        first.configurations = -1
        again = P.validate_axioms()
        assert len(calls) == 1
        assert (again.violations, again.verdict, again.configurations) == (
            [], "Holds", want.configurations)
    checks.replay_violation(P, "Axioms", Violation("axiom1"))
    assert len(calls) == 2


def test_an_unvalidated_build_fills_no_pair_table_until_read():
    # no build fills the pair codes or the pencils, validated or not;
    # validating later reads a structure of its own and fills no index
    src = miquelian_plane(5)
    gens, circles = src.gen_members.tolist(), src.members.tolist()
    P = LaguerrePlane(gens, circles, validate=False)
    assert not {"pair_code", "pencil_others"} & set(vars(P))
    codes = P.pair_code
    want = LaguerrePlane(gens, circles).validate_axioms()
    held = set(vars(P))
    assert report_obj(P.validate_axioms()) == report_obj(want)
    assert set(vars(P)) == held and "pencil_others" not in held
    assert P.pair_code is codes
    # a circle that misses a generator has no row by generator, and the
    # unvalidated build refuses it in one line
    circles[0] = circles[0][:-1]
    with pytest.raises(ValueError, match="^every circle must meet every generator once$"):
        LaguerrePlane(gens, circles, validate=False)


@pytest.mark.parametrize("validate", [True, False])
def test_generators_of_unequal_size_are_refused_in_one_line(validate):
    # every circle meets every generator once, but the generators have no
    # matrix of rows: validated, the structure stage refuses it; unvalidated,
    # the build refuses it before reading one
    if validate:
        error, msg = NotALaguerrePlane, "^candidate structure fails: structure$"
    else:
        error, msg = ValueError, "^every generator must have as many points as the others$"
    with pytest.raises(error, match=msg):
        LaguerrePlane([[0], [1, 2], [3]], [[0, 1, 3], [0, 2, 3]], validate=validate)


def test_validate_axioms_oval_model():
    P = oval_plane(8, oval_table_power(8, 4))
    assert P.validate_axioms().holds


def test_tangent_class_indexes_and_circle_by_coef_are_built_on_first_read():
    # a fresh plane (miquelian_plane is cached across tests): the symmetry
    # commands and the closures read neither index, and each appears,
    # read-only, at its first reader
    P = oval_plane(5, oval_table_power(5, 2))

    def built():
        return {"pencil_class", "class_pencils", "circle_by_coef"} & set(vars(P))

    assert not built()
    K, L = sample_nontangent_pairs(P, 1, seed=5)[0]
    assert verify_dts(P, build_dts(P, K, L), K, L).holds
    assert not built()
    moebius_extract(P, find_fixed_point_free_pair(P)[2])
    assert not built()
    for check_id in ("Miquel", "Bundle"):
        checks.CHECKERS[check_id].run(P, CheckMode.sample(2000, 7))
    assert not built()

    checks.CHECKERS["Pi"].run(P, CheckMode.sample(2000, 7))
    assert built() == {"pencil_class", "class_pencils"}
    assert not P.pencil_class.flags.writeable and not P.class_pencils.flags.writeable
    Q = oval_plane(5, oval_table_power(5, 2))
    p = int(Q.members[0, 0])
    x = int(np.flatnonzero(~Q.mem[0] & (Q.gen_of != Q.gen_of[p]))[0])
    assert Q.tangent_circle(p, 0, x).id == P.class_pencils[p, x, P.pencil_class[0, Q.gen_of[p]]]
    for name in ("pencil_class", "class_pencils"):
        assert name in vars(Q) and not getattr(Q, name).flags.writeable

    assert P.circle_from_coef((1, 2, 3)).coef == (1, 2, 3)
    assert built() == {"pencil_class", "class_pencils", "circle_by_coef"}
    with pytest.raises(TypeError):
        P.circle_by_coef[(1, 2, 3)] = 0


def eager_indexes(P):
    """`triple_circle` and `vertex_pencils` as the build once filled them,
    eagerly: the reference for the fills made on first read."""
    n_p, n_c, q = P.n_points, P.n_circles, P.q
    triple = np.full((n_p, n_p, n_p), -1, dtype=np.int16)
    M = P.members.astype(np.int64)
    flat = triple.reshape(-1)
    ids = np.arange(n_c, dtype=np.int16)[:, None]
    jk = np.array(list(itertools.permutations(range(q + 1), 2)))
    for i in range(q + 1):
        j, k = jk[(jk != i).all(axis=1)].T
        flat[(M[:, i, None] * n_p + M[:, j]) * n_p + M[:, k]] = ids
    pencils = np.full((n_p, n_p, q), -1, dtype=np.int16)
    for ga, gb in itertools.permutations(range(P.n_gens), 2):
        gw = min(g for g in range(P.n_gens) if g not in (ga, gb))
        A, B, T = (P.gen_members[g] for g in (ga, gb, gw))
        block = triple[A[:, None, None], B[None, :, None], T[None, None, :]]
        pencils[A[:, None], B[None, :]] = np.sort(block, axis=-1)
    return triple, pencils


def eager_pair_tables(s):
    """|K ∩ L| and the sum of its points for every circle pair of a
    structure, as the build once held them, eagerly, from set scans: the
    reference for the pair codes."""
    mem = s.mem.astype(np.int64)
    return mem @ mem.T, mem @ (mem * np.arange(s.n_points)).T


def eager_pencils(P):
    """`pencil_others` from the set-scan pair tables."""
    count, total = eager_pair_tables(P)
    pencils = np.empty((P.n_circles, P.q + 1, P.q - 1), dtype=np.int16)
    for K in range(P.n_circles):
        partners = np.flatnonzero(count[K] == 1)
        touch = P.gen_of[total[K, partners]]
        for g in range(P.q + 1):
            pencils[K, g] = partners[touch == g]
    return pencils


def assert_pair_codes_decode(code, s):
    """`code`, the pair codes of structure `s`, decode to its set-scan
    tables: the count of every pair (MANY for three or more common points),
    the sum where they share at most two, and the touch code where one."""
    count, total = eager_pair_tables(s)
    few = count <= 2
    assert code.dtype == np.int16
    assert np.array_equal(meet_count(code), np.where(few, count, MANY))
    assert np.array_equal(meet_sum(code)[few], total[few])
    assert np.array_equal(code == touch_code(total), count == 1)
    assert (code[~few] == MANY).all()


LAZY_INDEXES = {"triple_circle", "vertex_pencils", "pair_code", "pencil_others"}


def test_a_judged_plane_holds_no_lazy_index():
    # judging a candidate reads no lazy index: accepted or refused, the
    # build fills none of them.  A refusal's full report, once read, finds
    # its axiom (2) witnesses in the pair tables
    for q, exponent in ((8, 4), (11, 2)):
        P = oval_plane(q, oval_table_power(q, exponent))
        assert not LAZY_INDEXES & set(vars(P))
        assert P.validate_axioms().holds and not LAZY_INDEXES & set(vars(P))
    with pytest.raises(NotALaguerrePlane) as refused:
        oval_plane(8, oval_table_power(8, 3))
    assert not LAZY_INDEXES & set(vars(refused.value._structure))
    assert refused.value.report.verdict == "Fails"
    assert LAZY_INDEXES & set(vars(refused.value._structure)) == {"pair_code"}


@pytest.mark.parametrize("q,exponent", [(3, 2), (4, 2), (8, 2), (8, 4), (9, 2)])
def test_vertex_pencils_read_first_equal_the_eager_fill(q, exponent):
    P = oval_plane(q, oval_table_power(q, exponent))
    pencils = P.vertex_pencils              # fills `triple_circle` on its way
    assert LAZY_INDEXES & set(vars(P)) == {"triple_circle", "vertex_pencils"}
    assert not {"pencil_class", "class_pencils"} & set(vars(P))
    triple, want = eager_indexes(P)
    assert np.array_equal(pencils, want) and np.array_equal(P.triple_circle, triple)
    for name in ("triple_circle", "vertex_pencils"):
        arr = getattr(P, name)
        assert arr.dtype == np.int16 and not arr.flags.writeable
        assert getattr(P, name) is arr


@pytest.mark.parametrize("q,exponent", [(3, 2), (4, 2), (5, 2), (8, 2), (8, 4), (9, 2)])
def test_pair_tables_read_first_equal_the_eager_fill(q, exponent):
    P = oval_plane(q, oval_table_power(q, exponent))
    pencils = P.pencil_others               # fills the pair codes on its way
    assert {"pair_code", "pencil_others"} <= set(vars(P))
    assert_pair_codes_decode(P.pair_code, P)
    want = eager_pencils(P)
    assert pencils.dtype == want.dtype and np.array_equal(pencils, want)
    assert not P.pair_code.flags.writeable and not pencils.flags.writeable


def test_a_refused_candidate_reads_many_where_circles_share_three_points():
    # x³ over GF(8) is no oval: two of its circles share three points or
    # more, and their pair code says so without wrapping
    with pytest.raises(NotALaguerrePlane) as refused:
        oval_plane(8, oval_table_power(8, 3))
    s = refused.value._structure
    count, _ = eager_pair_tables(s)
    assert (count[~np.eye(s.n_circles, dtype=bool)] >= 3).any()
    assert_pair_codes_decode(s.pair_code, s)


def _read_by_two_threads(P, name: str) -> list[np.ndarray]:
    """Copies of index `name` of a fresh plane as two threads read it: one
    reads it, so fills it, while the other reads it the moment it appears
    in the plane's dict.  A short switch interval lets the second thread
    run during the fill."""
    filled, got = threading.Event(), []

    def fill():
        try:
            got.append(getattr(P, name).copy())
        finally:
            filled.set()

    def watch():
        while name not in vars(P) and not filled.is_set():
            pass
        got.append(getattr(P, name).copy())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=f) for f in (watch, fill)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 2
    return got


def test_two_threads_reading_a_fresh_triple_index_get_it_whole():
    # neither thread may see a partly filled array, with -1 at a mutually
    # non-parallel triple
    q = 9
    for _ in range(3):
        P = oval_plane(q, oval_table_power(q, 2))
        got = _read_by_two_threads(P, "triple_circle")
        want, _ = eager_indexes(P)
        gen = P.gen_of
        apart = ((gen[:, None, None] != gen[None, :, None])
                 & (gen[:, None, None] != gen[None, None, :])
                 & (gen[None, :, None] != gen[None, None, :]))
        for arr in got:
            assert (arr[apart] >= 0).all() and np.array_equal(arr, want)


def test_two_threads_reading_fresh_pair_counts_get_them_whole():
    # the pair codes are filled in one local and returned whole, so
    # neither thread sees a block of them unfilled
    for _ in range(3):
        P = oval_plane(9, oval_table_power(9, 2))
        for arr in _read_by_two_threads(P, "pair_code"):
            assert_pair_codes_decode(arr, P)


def test_index_arrays_immutable():
    P = miquelian_plane(3)
    for arr in (P.members, P.mem, P.pair_code, P.triple_circle):
        with pytest.raises(ValueError):
            arr[0] = 0


# the plane's index arrays: int16 wherever they hold a point id, a circle
# id or a pair code
INDEX_DTYPES = {
    "gen_of": np.int16, "gen_members": np.int16, "members": np.int16,
    "triple_circle": np.int16, "pencil_others": np.int16, "pencil_class": np.int16,
    "class_pencils": np.int16, "vertex_pencils": np.int16, "pair_code": np.int16,
    "mem": np.bool_,
}


@pytest.mark.parametrize("q", SUPPORTED_PLANE_ORDERS)
def test_index_arrays_store_ids_as_int16(q):
    P = miquelian_plane(q)
    assert {name: getattr(P, name).dtype for name in INDEX_DTYPES} == INDEX_DTYPES
    if q == 13:
        # every array the plane holds, as the benchmark's plane.index_mb counts them
        assert sum(v.nbytes for v in vars(P).values() if isinstance(v, np.ndarray)) <= 24_971_830


def test_the_tangent_class_fills_peak_under_2_mb_at_order_13():
    # a fresh q=13 plane whose pencils are filled: the class indexes fill in
    # blocks of circles, so their fills peak at about their own 0.9 MB
    src = miquelian_plane(13)
    P = LaguerrePlane(src.gen_members, src.members, validate=False)
    P.pencil_others
    tracemalloc.start()
    try:
        P.class_pencils
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {"pencil_class", "class_pencils"} <= set(vars(P))
    assert peak < 2_000_000, peak
    assert np.array_equal(P.class_pencils, src.class_pencils)


def _generators(n_gens: int, size: int) -> list[list[int]]:
    return [list(range(g * size, (g + 1) * size)) for g in range(n_gens)]


def test_a_structure_whose_ids_overflow_int16_is_refused():
    # the size limit's corners: 2**15 circles, 2**10 points and 32
    # generators are each accepted, and one more of any of them is refused,
    # order 32's 33 generators of 32 points among them
    small = [[0, 1], [2, 3], [4, 5]]
    _Structure(small, [[0, 2, 4]] * 2**15)
    _Structure([list(range(2**10))], [[0]])
    gens = _generators(32, 32)
    _Structure(gens, [[g[0] for g in gens]])
    limit = r"^at most 2\*\*15 circles, 2\*\*10 points and 32 generators, not "
    with pytest.raises(ValueError, match=limit + "32769 circles, 6 points and 3 generators$"):
        LaguerrePlane(small, [[0, 2, 4]] * (2**15 + 1))
    with pytest.raises(ValueError, match=limit + "1 circles, 1025 points and 1 generators$"):
        validate_laguerre_axioms([list(range(2**10 + 1))], [[0]])
    with pytest.raises(ValueError, match=limit + "1 circles, 33 points and 33 generators$"):
        validate_laguerre_axioms(_generators(33, 1), [list(range(33))])
    gens = _generators(33, 32)
    with pytest.raises(ValueError, match=limit + "1 circles, 1056 points and 33 generators$"):
        LaguerrePlane(gens, [[g[0] for g in gens]])


def test_a_structure_of_32_generators_of_32_points_reads_the_largest_pair_codes():
    # generator g holds the points g, g + 32, ..., so K = 992..1023 meets
    # every generator once; L shares K's two largest points and M its
    # largest: the largest pair code the size limit admits is L's with K,
    # and a circle's code with itself reads MANY
    pts = np.arange(2**10).reshape(32, 32)
    K, L, M = pts[31], np.r_[pts[30, :30], pts[31, 30:]], np.r_[pts[30, :31], pts[31, 31:]]
    s = _Structure(pts.T, [K, L, M])
    assert s.n_points == 2**10 and s.members.shape == (3, 32)
    assert (np.diagonal(s.pair_code) == MANY).all()
    assert meet_count(s.pair_code[0, 1]) == 2 and meet_sum(s.pair_code[0, 1]) == 1023 + 1022
    assert s.pair_code[0, 1] == s.pair_code[1, 0] == 4 * (1023 + 1022) + 2
    assert s.pair_code[0, 2] == s.pair_code[2, 0] == touch_code(1023)
    assert s.pair_code[1, 2] == MANY              # 31 common points


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([3, 5]), st.data())
def test_tangent_circle_is_unique_pencil_member_property(q, data):
    P = miquelian_plane(q)
    K = data.draw(st.integers(0, P.n_circles - 1))
    p = int(P.members[K, data.draw(st.integers(0, q))])
    x = data.draw(st.integers(0, P.n_points - 1))
    if P.mem[K, x] or P.parallel(p, x):
        return
    M = P.tangent_circle(p, K, x)
    pen = P.tangent_pencil(p, K)
    assert M.id in pen
    others = [m for m in pen if m != M.id and P.mem[m, x]]
    assert not others


@pytest.mark.parametrize("q", [3, 4])
def test_validate_axioms_reads_the_plane_structure(q):
    # the plane validates itself; a fresh structure from its rows agrees
    P = miquelian_plane(q)
    got, fresh = P.validate_axioms(), validate_laguerre_axioms(P.gen_members, P.members)
    assert (got.verdict, got.configurations, got.notes) == (
        fresh.verdict, fresh.configurations, fresh.notes)
    assert got.notes == ("axiom3=ok", "axiom1=ok", "axiom2=ok", "axiom4=ok")
