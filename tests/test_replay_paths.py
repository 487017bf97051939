"""Replay discipline: fabricated non-violations must be refused.

Every checker's replay function re-derives the configuration through the
scalar incidence operations; feeding it a configuration on which the
statement actually holds has to come back False, otherwise tampered or
stale witness files could masquerade as confirmed.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from laguerre_lab import checks
from laguerre_lab.checks import CHECKERS, SPECS, replay_violation
from laguerre_lab.models import miquelian_plane, oval_plane, oval_table_power
from laguerre_lab.plane import meet_count, validate_laguerre_axioms
from laguerre_lab.report import CheckMode, Violation


@pytest.fixture(scope="module")
def p5():
    return miquelian_plane(5)


def test_replay_refuses_satisfied_tangent_count(p5):
    # any valid (K, L, p) on the odd-order plane has exactly one tangent
    K = p5.circle_from_coef((1, 0, 0)).id
    L = p5.circle_from_coef((4, 0, 2)).id
    p = next(int(x) for x in p5.members[K] if not p5.mem[L, x])
    v = Violation("tangent-count", points=(p,), circles=(K, L), data=(("count", 0),))
    assert not replay_violation(p5, "C", v)


def test_replay_refuses_nonchain_and_good_chain(p5):
    # circles that are not a tangency chain at all
    v = Violation("s-chain", points=(0, 1, 2, 3), circles=(0, 1, 2, 3))
    assert not replay_violation(p5, "S", v)
    assert not replay_violation(p5, "Prop22", v)
    assert not replay_violation(p5, "Cor21", v)


def test_replay_refuses_coincident_touch_trio(p5):
    # a genuine mutually tangent trio here always touches at one point
    K = p5.circle_from_coef((1, 0, 0)).id
    pen = p5.tangent_pencil(0, K)
    trio = tuple(sorted(pen.members))[:3]
    v = Violation("tangent-trio", points=(0, 0, 0), circles=trio)
    assert not replay_violation(p5, "Prop21", v)


def test_replay_refuses_good_pi_configuration(p5):
    # (a, b, c, x) on which the statement holds
    a, b, c, x = 0, 6, 12, 19
    v = Violation("pi-config", points=(a, b, c, x),
                  circles=(p5.circle_through(a, b, c).id,))
    assert not replay_violation(p5, "Pi", v)
    assert not replay_violation(p5, "PiPrime", v)
    assert not replay_violation(p5, "Thm23", v)


def test_replay_refuses_eight_points_without_hypotheses(p5):
    v = Violation("miquel-closure", points=tuple(range(8)), circles=())
    assert not replay_violation(p5, "Miquel", v)
    assert not replay_violation(p5, "Bundle", v)


def test_an_axioms_replay_leaves_the_plane_as_built():
    # the replay validates a structure of the plane's rows, not the plane:
    # its pair codes stay the same read-only array and it fills no index
    plane = miquelian_plane(3)
    codes = plane.pair_code
    held = set(vars(plane))
    assert not replay_violation(plane, "Axioms", Violation("axiom1"))
    assert plane.pair_code is codes and not codes.flags.writeable
    assert set(vars(plane)) == held


def test_replay_unknown_check_raises(p5):
    with pytest.raises(ValueError):
        replay_violation(p5, "NoSuchCheck", Violation("x"))


# -- forged witnesses ------------------------------------------------------
# Each checker's replay must refuse a witness whose hypothesis fails, made
# from a witness that the sweep kept by repeating a point (or circle),
# moving one or swapping two.  Prop11 and Bundle fail on no plane here, so
# their witnesses are hits: those kept by a run whose conclusion is negated.

SAMPLE = CheckMode.sample(20000, 1)


@pytest.fixture(scope="module")
def planes():
    return {"m4": miquelian_plane(4), "oval8": oval_plane(8, oval_table_power(8, 4))}


def _kept(plane, check_id):
    kept = CHECKERS[check_id].run(plane, SAMPLE).violations
    assert kept and all(replay_violation(plane, check_id, v) for v in kept)
    return kept


def _hits(monkeypatch, plane, check_id, conclusion):
    predicate = getattr(checks, conclusion)
    with monkeypatch.context() as m:
        m.setattr(checks, conclusion, lambda *args: ~predicate(*args))
        hits = CHECKERS[check_id].run(plane, SAMPLE).violations
    assert hits and not any(replay_violation(plane, check_id, v) for v in hits)
    return hits


def _forged_axioms(planes, monkeypatch):
    # the witness of a structure with a circle deleted, replayed on the
    # plane whose axioms hold: its kind names no failure there
    P = planes["m4"]
    broken = validate_laguerre_axioms([tuple(g) for g in P.gen_members],
                                      [tuple(c) for c in P.members[1:]])
    return [(P, v) for v in broken.violations if v.kind == "axiom1"][:1]


def _forged_c(planes, monkeypatch):
    # whatever count of tangent members the witness claims
    P = planes["m4"]
    v = _kept(P, "C")[0]
    K, L = v.circles
    return [(P, replace(w, data=(("count", n),))) for n in range(P.q + 2)
            for w in (replace(v, circles=(K, K)),                   # L repeats K
                      replace(v, points=(int(P.members[L][0]),)))]  # p moved onto L


def _forged_chain(check_id, planes, monkeypatch):
    P = planes["m4"]
    v = _kept(P, check_id)[0]
    a, b, c, d = v.points
    K, L, M, N = v.circles
    return [(P, replace(v, points=(b, a, c, d))),     # a and b swapped
            (P, replace(v, points=(a, b, c, a))),     # d repeats a
            (P, replace(v, circles=(K, L, M, L)))]    # N repeats L


def _forged_prop21(planes, monkeypatch):
    # K repeated: (K, K) touches nowhere, though the three touch points of
    # (K, L, K) would read as two
    P = planes["m4"]
    v = _kept(P, "Prop21")[0]
    K, L, M = v.circles
    assert P.tangency(K, L).points[0] != P.members[K][0]
    return [(P, replace(v, circles=(K, L, K)))]


def _forged_prop11(planes, monkeypatch):
    # L moved to a circle X that meets K twice and does not touch M: (K, X)
    # is secant, as a violation's pair is, but X is not tangent to M
    P = planes["m4"]
    v = _hits(monkeypatch, P, "Prop11", "_meet_once")[0]
    M, K, L = v.circles
    X = next(X for X in range(P.n_circles)
             if meet_count(P.pair_code[K, X]) == 2 and meet_count(P.pair_code[M, X]) != 1)
    assert P.tangency(K, X).kind == "secant"
    return [(P, replace(v, circles=(M, K, X))), (P, replace(v, circles=(M, M, L)))]


def _forged_pi_family(check_id, planes, monkeypatch):
    P = planes["oval8"]
    v = _kept(P, check_id)[0]
    a, b, c, x = v.points
    (C1,) = v.circles
    on_c1 = next(int(y) for y in P.members[C1] if y not in (a, b, c))
    by_b = next(int(y) for y in P.gen_members[P.gen_of[b]] if y != b)
    return [(P, replace(v, points=(a, b, c, on_c1))),    # x moved onto C1
            (P, replace(v, points=(a, b, c, by_b))),     # x moved to b's generator: q = x on K′
            (P, replace(v, points=(a, b, b, x)))]        # c repeats b


def _miquel_parts(plane, pts):
    """Whether Miquel's five hypotheses hold on `pts`, and whether its
    conclusion does, read set-wise as the replay reads them."""
    a, b, c, d, e, f, g, h = pts
    hyps = [(a, c, b, d), (a, e, b, h), (a, g, d, h), (b, f, c, e), (c, g, d, f)]
    return (all(plane.concyclic_some_order(*quad) for quad in hyps),
            plane.concyclic_some_order(e, g, f, h))


def _bundle_parts(plane, pts):
    """Whether Bundle's five hypotheses hold on `pts`, whether three of its
    pairs collapse onto one section, and whether its conclusion holds."""
    a, b, c, d, e, f, g, h = pts
    hyps = [(a, c, b, d), (c, e, d, f), (e, g, f, h), (g, a, h, b), (a, e, b, f)]
    sixes = [sum(three, ()) for three in itertools.combinations([(a, b), (c, d), (e, f), (g, h)], 3)]
    return (all(plane.concyclic_some_order(*quad) for quad in hyps),
            any(plane.properly_concyclic(six) or len({int(plane.gen_of[p]) for p in six}) <= 2
                for six in sixes),
            plane.concyclic_some_order(c, g, d, h))


def _repeat(v, i, j):
    """`v` with point i replaced by point j."""
    pts = list(v.points)
    pts[i] = pts[j]
    return replace(v, points=tuple(pts))


def _forged_miquel(planes, monkeypatch):
    # f repeats c where every hypothesis still holds and the conclusion
    # still fails, so that only the repeat refuses it; then a and e swapped
    P = planes["oval8"]
    kept = _kept(P, "Miquel")
    forged = next(w for w in (_repeat(v, 5, 2) for v in kept)
                  if _miquel_parts(P, w.points) == (True, False))
    a, b, c, d, e, f, g, h = kept[0].points
    return [(P, forged), (P, replace(kept[0], points=(e, b, c, d, a, f, g, h)))]


def _forged_bundle(planes, monkeypatch):
    # c repeats d where the hypotheses hold, no three pairs collapse and the
    # conclusion fails (d is parallel to g or h), so that only the repeat
    # refuses it; and, on the order-4 plane, eight distinct points on which
    # all of that holds but three pairs lie over two generators (a, c, e on
    # one, b, d, f on another), which voids the statement
    P = planes["oval8"]
    hits = _hits(monkeypatch, P, "Bundle", "_pairs_concyclic")
    forged = next(w for w in (_repeat(v, 2, 3) for v in hits)
                  if _bundle_parts(P, w.points) == (True, False, False))
    m4, collapsed = planes["m4"], (17, 8, 19, 10, 16, 11, 4, 14)
    assert [int(m4.gen_of[p]) for p in collapsed[:6]] == [4, 2] * 3
    assert len(set(collapsed)) == 8 and _bundle_parts(m4, collapsed) == (True, True, False)
    # a and c swapped: the hypotheses fail, and no pairs collapse to void it
    a, b, c, d, e, f, g, h = hits[0].points
    swapped = replace(hits[0], points=(c, b, a, d, e, f, g, h))
    assert _bundle_parts(P, swapped.points) == (False, False, False)
    return [(P, forged), (m4, Violation("bundle-closure", points=collapsed)), (P, swapped)]


FORGERS = {"Axioms": _forged_axioms, "C": _forged_c, "Prop21": _forged_prop21,
           "Prop11": _forged_prop11, "Miquel": _forged_miquel, "Bundle": _forged_bundle,
           **{c: partial(_forged_chain, c) for c in ("S", "Prop22", "Cor21")},
           **{c: partial(_forged_pi_family, c) for c in ("Pi", "PiPrime", "Thm23")}}


@pytest.mark.parametrize("check_id", SPECS)
def test_replay_refuses_forged_witnesses(planes, monkeypatch, check_id):
    forged = FORGERS[check_id](planes, monkeypatch)
    assert forged
    for plane, v in forged:
        assert not replay_violation(plane, check_id, v), v
