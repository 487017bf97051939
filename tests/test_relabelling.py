"""Relabelling invariance: the answers do not depend on the ids.

A model plane numbers its points generator by generator, so on it a
circle's points sorted by id are also its points by generator, and no
test on a model plane can tell the two row orders apart.  Here the model
plane's export text is edited: point ids are permuted, generators are
listed in another order and each generator's points shuffled, and the
circle lines are listed in another order.  The imported plane is the
same plane under other names, so every exhaustive count, every verdict
and every symmetry must carry over, and every witness must replay on it.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from laguerre_lab.checks import CHECK_IDS, CHECKERS, replay_violation
from laguerre_lab.models import export_plane, import_plane, miquelian_plane
from laguerre_lab.plane import meet_count
from laguerre_lab.report import CheckMode, Violation
from laguerre_lab.symmetry import (
    build_dts,
    classify_symmetry,
    sample_nontangent_pairs,
    tangent_to_second,
    verify_dts,
)

# the key of the relabelled plane of order 5 in the parameters of the
# array-against-loop reference tests, beside the model orders; see `plane_for`
RELABELLED = "relabelled-5"


def relabel_structure(gens, circles, seed: int):
    """The structure under seeded new point ids (ids off the plane kept),
    its generators and circles in another order and every row shuffled:
    the generators, the circles, and the maps from old to new point ids
    and from old to new circle ids."""
    rng = np.random.default_rng(seed)
    n_p = sum(len(g) for g in gens)
    points = rng.permutation(n_p)

    def renamed(row):
        return [int(points[p]) if 0 <= p < n_p else int(p) for p in rng.permutation(row)]

    gens = [renamed(gens[g]) for g in rng.permutation(len(gens))]
    rows = [renamed(c) for c in circles]
    order = rng.permutation(len(rows))      # new circle i is old circle order[i]
    return gens, [rows[i] for i in order], points, np.argsort(order)


def relabel_text(text: str, seed: int) -> tuple[str, np.ndarray, np.ndarray]:
    """The plane text `text` relabelled by `relabel_structure`, each circle
    line listing its new ids sorted, as `export_plane` writes them, and
    keeping its coefficients; and the maps from old to new point and
    circle ids."""
    lines = text.splitlines()
    head = dict(part.partition("=")[::2] for part in lines[0].split()[1:])
    n_g = int(head["points"]) // int(head["q"])
    rows = [ln.partition(" coef ") for ln in lines[1 + n_g:]]
    gens, circles, points, circle_ids = relabel_structure(
        [[int(t) for t in ln.split()] for ln in lines[1:1 + n_g]],
        [[int(t) for t in ids.split()] for ids, _, _ in rows], seed)
    out = [lines[0]] + [" ".join(map(str, g)) for g in gens]
    out += [" ".join(map(str, sorted(c))) + coef + tail
            for c, (_, coef, tail) in zip(circles, (rows[i] for i in np.argsort(circle_ids)))]
    return "\n".join(out) + "\n", points, circle_ids


@functools.cache
def relabelling(q: int) -> tuple:
    """(relabelled plane, its text, point map, circle map) for the
    miquelian plane of order q; the maps send model ids to new ones."""
    text, points, circles = relabel_text(export_plane(miquelian_plane(q)), seed=q)
    return import_plane(text), text, points, circles


def plane_for(key):
    """The plane a reference test runs on: `miquelian_plane(key)` for an
    order, the relabelled plane of order q for the key "relabelled-q"."""
    if isinstance(key, str):
        return relabelling(int(key.rpartition("-")[2]))[0]
    return miquelian_plane(key)


def conjugate(image: np.ndarray, points: np.ndarray) -> np.ndarray:
    """A model point map `image` as a map of the relabelled points."""
    out = np.empty_like(image)
    out[points] = points[image]
    return out


def renamed(v: Violation, points: np.ndarray, circles: np.ndarray) -> Violation:
    return Violation(v.kind, points=tuple(int(points[p]) for p in v.points),
                     circles=tuple(int(circles[c]) for c in v.circles), data=v.data)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_relabelled_rows_are_not_sorted_and_round_trip(q):
    R, text, points, circles = relabelling(q)
    assert export_plane(R) == text
    # the relabelling leaves few rows sorted by id, so sorted rows and rows
    # by generator disagree
    assert (np.diff(R.members, axis=1) < 0).any(axis=1).mean() > 0.5
    assert (R.gen_of[R.members] == np.arange(q + 1)).all()
    P = miquelian_plane(q)
    assert (circles != np.arange(P.n_circles)).mean() > 0.5
    assert np.array_equal(R.mem[circles][:, points], P.mem)


@pytest.mark.parametrize("q", [3, 4])
def test_exhaustive_reports_survive_relabelling(q):
    P = miquelian_plane(q)
    R, _, points, circles = relabelling(q)
    model, relabelled = P.validate_axioms(), R.validate_axioms()
    assert (relabelled.verdict, relabelled.configurations, relabelled.notes) == (
        model.verdict, model.configurations, model.notes)
    failing = 0
    for cid in CHECK_IDS:
        want = CHECKERS[cid].run(P, CheckMode.exhaustive())
        got = CHECKERS[cid].run(R, CheckMode.exhaustive())
        assert (got.verdict, got.configurations, got.hypothesis_hits, got.skipped,
                got.violation_count) == (want.verdict, want.configurations,
                                         want.hypothesis_hits, want.skipped,
                                         want.violation_count), cid
        for v in got.violations:
            assert replay_violation(R, cid, v), (cid, v)
        for v in want.violations:
            assert replay_violation(R, cid, renamed(v, points, circles)), (cid, v)
        failing += got.verdict == "Fails"
    assert failing == (0 if q == 3 else 5)


@pytest.mark.parametrize("q", [3, 5])
def test_build_dts_is_equivariant_under_relabelling(q):
    P = miquelian_plane(q)
    R, _, points, circles = relabelling(q)
    if q == 3:
        pairs = [(K, L) for K in range(P.n_circles) for L in range(K + 1, P.n_circles)
                 if meet_count(P.pair_code[K, L]) != 1]
    else:
        pairs = sample_nontangent_pairs(P, 20, seed=q)
    assert len(pairs) == (243 if q == 3 else 20)
    for K, L in pairs:
        phi = build_dts(P, K, L)
        rK, rL = circles[K], circles[L]
        psi = build_dts(R, rK, rL)
        assert np.array_equal(psi.image[points], points[phi.image]), (K, L)
        assert verify_dts(R, psi, rK, rL).holds, (K, L)
        want, got = classify_symmetry(P, K, L, phi), classify_symmetry(R, rK, rL, psi)
        assert (got.kind, got.fixed_point_count) == (want.kind, want.fixed_point_count)



def _outcome(f):
    """The value of f(), or the type of the error it raises."""
    try:
        return f()
    except Exception as e:  # noqa: BLE001 - the error is the outcome compared
        return type(e)


@pytest.mark.parametrize("q", [3, 4])
def test_scalar_operations_survive_relabelling(q):
    # every circle K, point p and outer point x: the same circles and the
    # same point under their new names, or the same error
    P = miquelian_plane(q)
    R, _, points, circles = relabelling(q)

    def second(plane, p, K, L):
        circle, touch = tangent_to_second(plane, p, K, L)
        return (circle and circle.id), touch

    for K in range(P.n_circles):
        L = (K + 1) % P.n_circles
        rK, rL = int(circles[K]), int(circles[L])
        for p in range(P.n_points):
            rp = int(points[p])
            assert R.parallel_point(rp, rK) == points[P.parallel_point(p, K)]
            assert _outcome(lambda: R.tangent_pencil(rp, rK).members) == _outcome(
                lambda: tuple(sorted(int(circles[m]) for m in P.tangent_pencil(p, K).members)))
            want = _outcome(lambda: second(P, p, K, L))
            if isinstance(want, tuple):
                want = (want[0] if want[0] is None else int(circles[want[0]]),
                        int(points[want[1]]))
            assert _outcome(lambda: second(R, rp, rK, rL)) == want
            for x in range(P.n_points):
                assert _outcome(lambda: R.tangent_circle(rp, rK, int(points[x])).id) == _outcome(
                    lambda: int(circles[P.tangent_circle(p, K, x).id]))
