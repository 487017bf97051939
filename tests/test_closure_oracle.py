"""The constructive closures against the drawing ones they replace.

`checks` derives Miquel's f and Bundle's f and h from the hypothesis that
fixes them; `closure_oracle` keeps the generators and evaluators that drew
those slots and filtered on the hypothesis.  On eight distinct points each
row has at most one such point, except where the derived circle is the
target circle itself, so hits, violations and verdicts carry over exactly.
Only the raw counts change: `configurations` loses the f slot (Miquel) or
the f and h slots (Bundle), and so does Miquel's exhaustive `skipped`,
which counts raw rows.
"""

from __future__ import annotations

import numpy as np
import pytest

import closure_oracle as oracle
from laguerre_lab.checks import (
    _bundle_firsts,
    _completion,
    _eval_bundle,
    _eval_miquel,
    _gather,
    _miquel_firsts,
    _pairs_concyclic,
    _with_tail,
    check_bundle,
    check_miquel,
)
from laguerre_lab.models import miquelian_plane, oval_plane, oval_table_power
from laguerre_lab.report import CheckMode
from test_block_references import exhaustive_blocks

EX = CheckMode.exhaustive()


def outcome(report):
    return (report.verdict, report.hypothesis_hits, report.violation_count, report.violations)


@pytest.mark.parametrize("q", [3, 4])
def test_exhaustive_closures_match_the_drawing_oracle(q):
    P = miquelian_plane(q)
    new, old = check_miquel(P, EX), oracle.drawn_miquel(P, EX)
    assert outcome(new) == outcome(old)
    # f's slot is no raw choice any more: Miquel's raw counts lose a factor q+1
    assert new.configurations * (q + 1) == old.configurations
    assert new.skipped * (q + 1) == old.skipped
    new, old = check_bundle(P, EX), oracle.drawn_bundle(P, EX)
    assert outcome(new) == outcome(old) and new.skipped == old.skipped
    assert new.configurations * (q + 1) ** 2 == old.configurations
    assert new.hypothesis_hits == (10368 if q == 3 else 276480)


def degenerate_slice(P, firsts):
    """The exhaustive head rows of base circle 0 (its first choices, one
    per pencil selector, each one block of its raw configurations) whose
    pencil circle (C2 or C5) is circle 0 itself, with a and c its first
    two points: rows whose derived point is not unique."""
    a, c = P.members[0, :2]
    family = firsts(P)
    for sel in range(P.q):
        ((*cols, tail),) = exhaustive_blocks(family, CheckMode("exhaustive", start=sel, count=1))
        _, A, Cq, _, _, C2 = cols[:6]
        idx = np.nonzero((C2 == 0) & (A == a) & (Cq == c))[0]
        yield (family.raw, *(v[idx] for v in cols), tail)


def with_tail(block):
    """The rows of a constructive block as the drawing blocks list them:
    the head columns from a on, each head once per tail, the tail last."""
    n_raw, _, *cols, tail = block
    _, *rows = _with_tail(tail, np.arange(len(cols[0])), *cols)
    return (n_raw, *rows)


def with_every_slot(P, block, at):
    """`block` with a slot column inserted before its column `at`, each
    row repeated once per slot."""
    n_raw, *cols = block
    k = P.q + 1
    n = len(cols[0])
    cols = [np.repeat(c, k) for c in cols]
    return (n_raw, *cols[:at], np.tile(np.arange(k), n), *cols[at:])


def test_degenerate_rows_match_the_drawing_oracle_at_q7():
    # eight distinct points on one circle need q+1 >= 8, so q <= 4 never
    # reaches the rows whose f (or h) may be any point of its circle
    P = miquelian_plane(7)
    new = oracle.sweep(P, EX, "Miquel", lambda P, mode: degenerate_slice(P, _miquel_firsts),
                       _eval_miquel)
    old = oracle.drawn_miquel(P, EX, lambda P, mode: (
        with_every_slot(P, with_tail(b), 8) for b in degenerate_slice(P, _miquel_firsts)))
    assert outcome(new) == outcome(old) and new.skipped * 8 == old.skipped
    assert new.hypothesis_hits > 0
    # Bundle: f may be any point of C5 = C1, and such rows are all skipped,
    # three pairs of the configuration lying on C1
    new = oracle.sweep(P, EX, "Bundle", lambda P, mode: degenerate_slice(P, _bundle_firsts),
                       _eval_bundle)
    old = oracle.drawn_bundle(P, EX, lambda P, mode: (
        with_every_slot(P, with_every_slot(P, with_tail(b), 6), 9)
        for b in degenerate_slice(P, _bundle_firsts)))
    assert outcome(new) == outcome(old) and new.skipped == old.skipped > 0


@pytest.mark.parametrize("plane", ["oval8", "q5", "q7"])
def test_sampled_closures_match_the_oracle_fed_the_scanned_slots(plane):
    # the drawing evaluators, given for f (and h) the one slot that meets
    # the hypothesis, or the drawn slot where none or every one does, give
    # the constructive report: the same rows, hits, skipped and witnesses
    P = (oval_plane(8, oval_table_power(8, 4)) if plane == "oval8"
         else miquelian_plane(int(plane[1:])))
    mode = CheckMode.sample(30000, 7)
    pairs = ((check_miquel(P, mode), oracle.drawn_miquel(P, mode, oracle.scanned_miquel_blocks)),
             (check_bundle(P, mode), oracle.drawn_bundle(P, mode, oracle.scanned_bundle_blocks)))
    for new, old in pairs:
        assert outcome(new) + (new.skipped, new.configurations) == outcome(old) + (
            old.skipped, old.configurations)
        assert new.hypothesis_hits > 0
    # Miquel fails on the translation-oval plane, Bundle holds everywhere
    assert [new.verdict for new, _ in pairs] == (
        ["Fails", "Holds(sampled)"] if plane == "oval8" else ["Holds(sampled)"] * 2)


@pytest.mark.parametrize("plane", ["q3", "q4", "oval8"])
def test_completion_is_the_one_point_a_slot_scan_finds(plane):
    # every circle C with a point k on it, every P ∦ Q with P = k (the
    # Miquel case: X off C) or X = k (the Bundle case): the points Y ≠ k of
    # C with {P, Q}, {X, Y} concyclic, found by testing each slot, are
    # `_completion`'s points other than k, and all q of them where
    # (P, X, Q)° is C
    P_ = (oval_plane(8, oval_table_power(8, 4)) if plane == "oval8"
          else miquelian_plane(int(plane[1:])))
    rng = np.random.default_rng(P_.q)
    n = 20000
    C = rng.integers(0, P_.n_circles, n)
    k = P_.members[C, rng.integers(0, P_.q + 1, n)]
    Q = rng.integers(0, P_.n_points, n)
    other = rng.integers(0, P_.n_points, n)
    miquel = np.arange(n) % 2 == 0
    P, X = np.where(miquel, k, other), np.where(miquel, other, k)
    ok = P_.gen_of[P] != P_.gen_of[Q]
    C, k, P, Q, X = (v[ok] for v in (C, k, P, Q, X))
    fits = np.stack([_pairs_concyclic(P_, P, Q, X, P_.members[C, j]) & (P_.members[C, j] != k)
                     for j in range(P_.q + 1)], axis=1)
    rows, Y = _completion(P_, P, Q, X, C, k, None)
    keep = Y != k[rows]
    got = np.zeros_like(fits)
    got[rows[keep], P_.gen_of[Y[keep]]] = True
    assert np.array_equal(got, fits)
    assert set(fits.sum(axis=1)) <= {0, 1, P_.q}
    whole = _gather(P_.triple_circle, P, X, Q) == C
    assert np.array_equal(fits.sum(axis=1) == P_.q, whole) and whole.any()
