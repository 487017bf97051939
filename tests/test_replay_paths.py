"""Replay discipline: fabricated non-violations must be refused.

Every checker's replay function re-derives the configuration through the
scalar incidence operations; feeding it a configuration on which the
statement actually holds has to come back False, otherwise tampered or
stale witness files could masquerade as confirmed.
"""

from __future__ import annotations

import pytest

from laguerre_lab.checks import replay_violation
from laguerre_lab.models import miquelian_plane
from laguerre_lab.report import Violation


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
    # its tables stay the same read-only arrays and it fills no index
    plane = miquelian_plane(3)
    count, total = plane.pair_count, plane.pair_sum
    held = set(vars(plane))
    assert not replay_violation(plane, "Axioms", Violation("axiom1"))
    assert plane.pair_count is count and plane.pair_sum is total
    assert not count.flags.writeable and not total.flags.writeable
    assert set(vars(plane)) == held


def test_replay_unknown_check_raises(p5):
    with pytest.raises(ValueError):
        replay_violation(p5, "NoSuchCheck", Violation("x"))
