"""Checker tests: expectations frozen from independent oracles,
determinism, witness replay, and scalar-versus-vectorized cross-checks."""

from __future__ import annotations

import pytest

from laguerre_lab.checks import (
    CHECK_IDS,
    CHECKERS,
    _bundle_blocks,
    _chain_blocks,
    _miquel_blocks,
    check_C,
    check_S,
    check_bundle,
    check_cor_2_1,
    check_miquel,
    check_pi,
    check_pi_prime,
    check_prop_1_1,
    check_prop_2_1,
    check_prop_2_2,
    check_thm_2_3,
    exhaustive_size,
    replay_violation,
)
from laguerre_lab.models import miquelian_plane, oval_plane, oval_table_power
from laguerre_lab.report import CheckMode

EX = CheckMode.exhaustive()


@pytest.fixture(scope="module")
def oval8():
    return oval_plane(8, oval_table_power(8, 4))


# ---------------------------------------------------------------------------
# the unique-tangent axiom
# ---------------------------------------------------------------------------

def brute_check_C(P):
    """Scalar re-derivation through incidence operations only."""
    hits = 0
    violations = []
    for K in range(P.n_circles):
        for L in range(P.n_circles):
            if K == L:
                continue
            for p in P.members[K]:
                p = int(p)
                if P.mem[L, p]:
                    continue
                hits += 1
                count = sum(1 for M in P.tangent_pencil(p, K)
                            if P.tangency(M, L).kind == "tangent")
                if count != 1:
                    violations.append((K, L, p, count))
    return hits, violations


def test_check_C_q3_matches_brute_oracle():
    P = miquelian_plane(3)
    hits, violations = brute_check_C(P)
    rep = check_C(P, EX)
    assert rep.verdict == "Holds"
    assert rep.hypothesis_hits == hits
    assert not violations


def test_check_C_q5_holds():
    rep = check_C(miquelian_plane(5), EX)
    assert rep.verdict == "Holds" and rep.violation_count == 0


@pytest.mark.parametrize("q", [2, 4, 8])
def test_check_C_fails_on_even_order_with_replayable_witness(q):
    P = miquelian_plane(q)
    rep = check_C(P, EX)
    assert rep.verdict == "Fails" and rep.violations
    for v in rep.violations:
        assert replay_violation(P, "C", v)


# ---------------------------------------------------------------------------
# tangency chains
# ---------------------------------------------------------------------------

def brute_chain_reports(P):
    """Scalar chain sweep; returns (closed chains, S hits, S violations,
    parallel-corner hits, parallel violations)."""
    closed = s_hits = s_viol = p_hits = p_viol = 0
    for K in range(P.n_circles):
        for a in (int(v) for v in P.members[K]):
            for L in P.tangent_pencil(a, K):
                if L == K:
                    continue
                for b in (int(v) for v in P.members[L]):
                    for M in P.tangent_pencil(b, L):
                        if M == L:
                            continue
                        for c in (int(v) for v in P.members[M]):
                            for N in P.tangent_pencil(c, M):
                                if N == M:
                                    continue
                                t = P.tangency(N, K)
                                if t.kind != "tangent":
                                    continue
                                closed += 1
                                d = t.points[0]
                                if P.parallel(a, c):
                                    p_hits += 1
                                    if not P.parallel(b, d):
                                        p_viol += 1
                                else:
                                    s_hits += 1
                                    if not P.properly_concyclic((a, b, c, d)):
                                        s_viol += 1
    return closed, s_hits, s_viol, p_hits, p_viol


def test_chain_checks_q3_match_brute_oracle():
    P = miquelian_plane(3)
    closed, s_hits, s_viol, p_hits, p_viol = brute_chain_reports(P)
    rs = check_S(P, EX)
    rp = check_prop_2_2(P, EX)
    rc = check_cor_2_1(P, EX)
    assert (rs.verdict, rp.verdict, rc.verdict) == ("Holds",) * 3
    assert rs.hypothesis_hits == s_hits and s_viol == 0
    assert rp.hypothesis_hits == p_hits and p_viol == 0
    assert rc.hypothesis_hits == closed == s_hits + p_hits


@pytest.mark.parametrize("q,verdict", [(2, "Holds"), (3, "Holds"), (5, "Holds")])
def test_check_S_small_orders(q, verdict):
    assert check_S(miquelian_plane(q), EX).verdict == verdict


def test_chain_checks_char2_monotone_consistency():
    # measured behavior at q=4, frozen: the closure fails, the parallel
    # degeneration fails, and their violation counts add up exactly
    P = miquelian_plane(4)
    rs, rp, rc = check_S(P, EX), check_prop_2_2(P, EX), check_cor_2_1(P, EX)
    assert rs.verdict == rp.verdict == rc.verdict == "Fails"
    assert rs.violation_count == 23040
    assert rp.violation_count == 23040
    assert rc.violation_count == rs.violation_count + rp.violation_count
    for v in rp.violations:
        assert replay_violation(P, "Prop22", v)
        assert replay_violation(P, "Cor21", v)  # same chain violates both


def test_check_S_q7_exhaustive_holds():
    rep = check_S(miquelian_plane(7), EX)
    assert rep.verdict == "Holds"
    assert rep.configurations == 37933056


# ---------------------------------------------------------------------------
# tangent trios and the characteristic-2 transfer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [3, 5])
def test_prop_2_1_holds_odd(q):
    assert check_prop_2_1(miquelian_plane(q), EX).verdict == "Holds"


def test_prop_2_1_fails_char2_with_pinned_witness():
    # hand-derived at q=2: y=0, y=x^2, y=1 pairwise touch at three points
    P = miquelian_plane(2)
    rep = check_prop_2_1(P, EX)
    assert rep.verdict == "Fails"
    K = P.circle_from_coef((0, 0, 0)).id
    L = P.circle_from_coef((1, 0, 0)).id
    M = P.circle_from_coef((0, 0, 1)).id
    touches = {P.tangency(K, L).points, P.tangency(K, M).points, P.tangency(L, M).points}
    assert len(touches) == 3
    for v in rep.violations:
        assert replay_violation(P, "Prop21", v)
    assert check_prop_2_1(miquelian_plane(4), EX).verdict == "Fails"


@pytest.mark.parametrize("q", [2, 4, 8])
def test_prop_1_1_holds_char2(q):
    rep = check_prop_1_1(miquelian_plane(q), EX)
    assert rep.verdict == "Holds" and rep.hypothesis_hits > 0


def test_prop_1_1_not_applicable_odd():
    rep = check_prop_1_1(miquelian_plane(5), EX)
    assert rep.verdict == "NotApplicable"


# ---------------------------------------------------------------------------
# the (a,b,c,x) configuration family
# ---------------------------------------------------------------------------

def brute_check_pi(P):
    hits = viol = 0
    for a in range(P.n_points):
        for b in range(P.n_points):
            if P.parallel(a, b):
                continue
            for c in range(P.n_points):
                if P.parallel(c, a) or P.parallel(c, b):
                    continue
                C1 = P.circle_through(a, b, c)
                for x in range(P.n_points):
                    if (P.parallel(x, a) or P.parallel(x, b) or P.parallel(x, c)
                            or P.mem[C1.id, x]):
                        continue
                    hits += 1
                    p = P.parallel_point(c, P.circle_through(a, b, x))
                    qpt = P.parallel_point(b, P.circle_through(a, c, x))
                    K = P.tangent_circle(a, C1, x)
                    C2 = P.circle_through(p, qpt, x)
                    t = P.tangency(K, C2)
                    if not (t.kind == "tangent" and t.points == (x,)):
                        viol += 1
    return hits, viol


def test_check_pi_q3_matches_brute_oracle():
    P = miquelian_plane(3)
    hits, viol = brute_check_pi(P)
    rep = check_pi(P, EX)
    assert rep.verdict == "Holds" and viol == 0
    assert rep.hypothesis_hits == hits == 1296


@pytest.mark.parametrize("checker", [check_pi, check_pi_prime])
@pytest.mark.parametrize("q", [3, 5])
def test_pi_family_holds_odd(checker, q):
    rep = checker(miquelian_plane(q), EX)
    assert rep.verdict == "Holds" and rep.hypothesis_hits > 0
    if checker is check_pi:
        # measured: the derived points p, q are never parallel to each
        # other or to x, so the degenerate-skip counter stays at zero
        assert rep.skipped == 0


def test_pi_prime_parallel_witness_structure():
    # spot-check the asserted intersection on one configuration
    P = miquelian_plane(5)
    a, b, c, x = 0, 6, 12, 19  # (0,0),(1,1),(2,2),(3,4): mutually non-parallel
    C1 = P.circle_through(a, b, c)
    assert not P.mem[C1.id, x]
    qpt = P.parallel_point(b, P.circle_through(a, c, x))
    K = P.tangent_circle(a, C1, x)
    assert not P.mem[K.id, qpt]
    L = P.tangent_circle(x, K, qpt)
    Cabx = P.circle_through(a, b, x)
    t = P.tangency(L, Cabx)
    assert t.kind == "secant" and x in t.points
    other = next(p for p in t.points if p != x)
    assert P.parallel(other, c)
    assert other == P.parallel_point(c, Cabx)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_thm_2_3_holds_both_characteristics(q):
    rep = check_thm_2_3(miquelian_plane(q), EX)
    assert rep.verdict == "Holds" and rep.hypothesis_hits > 0


# ---------------------------------------------------------------------------
# eight-point closure statements
# ---------------------------------------------------------------------------

def test_miquel_exhaustive_q3_holds():
    rep = check_miquel(miquelian_plane(3), EX)
    assert rep.verdict == "Holds" and rep.hypothesis_hits == 1296


def test_miquel_sampled_q5_holds():
    rep = check_miquel(miquelian_plane(5), CheckMode.sample(100000, 42))
    assert rep.verdict == "Holds(sampled)"
    assert rep.hypothesis_hits > 100


def test_miquel_fails_on_translation_oval_plane(oval8):
    rep = check_miquel(oval8, CheckMode.sample(100000, 42))
    assert rep.verdict == "Fails"
    for v in rep.violations:
        assert replay_violation(oval8, "Miquel", v)


def test_bundle_exhaustive_q3_holds():
    rep = check_bundle(miquelian_plane(3), EX)
    assert rep.verdict == "Holds" and rep.hypothesis_hits == 10368


def test_bundle_sampled_holds_on_both_models(oval8):
    rep5 = check_bundle(miquelian_plane(5), CheckMode.sample(100000, 42))
    assert rep5.verdict == "Holds(sampled)" and rep5.hypothesis_hits > 0
    rep8 = check_bundle(oval8, CheckMode.sample(100000, 42))
    assert rep8.verdict == "Holds(sampled)" and rep8.hypothesis_hits > 0
    assert rep8.skipped > 0  # general-position rejections are counted


def test_oval8_char2_behavior_recorded(oval8):
    # measured and frozen: the translation-oval plane violates the
    # unique-tangent axiom and the chain closure
    rc = check_C(oval8, CheckMode.sample(100000, 42))
    rs = check_S(oval8, CheckMode.sample(100000, 42))
    assert rc.verdict == "Fails"
    assert rs.verdict == "Fails"
    assert check_prop_1_1(oval8, EX).verdict == "Holds"


# ---------------------------------------------------------------------------
# report discipline
# ---------------------------------------------------------------------------

def test_reports_are_deterministic():
    P = miquelian_plane(4)
    a = check_C(P, EX)
    b = check_C(P, EX)
    assert a.to_json(P) == b.to_json(P)
    m1 = check_miquel(P, CheckMode.sample(5000, 11))
    m2 = check_miquel(P, CheckMode.sample(5000, 11))
    assert m1.to_json(P) == m2.to_json(P)
    m3 = check_miquel(P, CheckMode.sample(5000, 12))
    assert m3.mode.seed == 12


def test_violation_cap_keeps_counting():
    P = miquelian_plane(4)
    rep = check_C(P, EX)
    assert len(rep.violations) == 20
    assert rep.violation_count == 15360


def test_sample_mode_counts_draws():
    rep = check_C(miquelian_plane(3), CheckMode.sample(1234, 5))
    assert rep.configurations == 1234
    assert rep.verdict in ("Holds(sampled)", "Fails")


def test_exhaustive_sizes_frozen():
    P7 = miquelian_plane(7)
    assert exhaustive_size(P7, "S") == 37933056
    assert exhaustive_size(P7, "C") == 941192
    assert exhaustive_size(P7, "Pi") == 4840416
    assert set(CHECK_IDS) == set(CHECKERS)


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("mode", [EX, CheckMode.sample(3000, 5)], ids=["exhaustive", "sampled"])
def test_blocks_hold_only_rows_that_can_meet_the_hypothesis(q, mode):
    P = miquelian_plane(q)
    raw = 0
    for n_raw, K, A, L, B, M, C, N, D in _chain_blocks(P, mode):
        raw += n_raw
        # N is tangent to K at d: the chain closes
        assert (P.pair_count[N, K] == 1).all() and P.mem[N, D].all() and P.mem[K, D].all()
    assert raw == check_S(P, mode).configurations
    raw = 0
    for n_raw, A, Cq, B, D, C2, se, sh, sg, sf in _miquel_blocks(P, mode):
        raw += n_raw
        if not mode.is_sample:
            E, H = P.members[C2, se], P.members[C2, sh]
            assert ((E != A) & (E != B) & (H != A) & (H != B) & (se != sh)).all()
    assert raw == check_miquel(P, mode).configurations


@pytest.mark.parametrize("q", [3, 4])
def test_exhaustive_size_is_the_exhaustive_configurations(q):
    P = miquelian_plane(q)
    for cid in CHECK_IDS:
        if (cid, q) == ("Bundle", 4):
            # its sweep takes seconds; `configurations` sums the blocks' raw counts
            got = sum(block[0] for block in _bundle_blocks(P, EX))
        else:
            got = CHECKERS[cid].run(P, EX).configurations
        size = exhaustive_size(P, cid)
        # Prop21 takes each triple once, as K < L < M, a count the labels decide
        assert got <= size if cid == "Prop21" else got == size, cid


def test_every_checker_runs_sampled_everywhere():
    P = miquelian_plane(3)
    for cid in CHECK_IDS:
        rep = CHECKERS[cid].run(P, CheckMode.sample(500, 3))
        assert rep.check_id == cid
        assert rep.configurations == 500 or rep.verdict == "NotApplicable"
