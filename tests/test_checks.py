"""Checker tests: expectations frozen from independent oracles,
determinism, witness replay, and scalar-versus-vectorized cross-checks."""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from laguerre_lab import checks
from laguerre_lab.checks import (
    CHECK_IDS,
    CHECKERS,
    _bundle_blocks,
    _bundle_firsts,
    _c_blocks,
    _chain_blocks,
    _ChainFirsts,
    _gather,
    _miquel_blocks,
    _miquel_firsts,
    _pairs_concyclic,
    _pi_blocks,
    _sampled_tangent_pairs,
    _with_tail,
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
from laguerre_lab.plane import touch_code
from laguerre_lab.models import (SUPPORTED_PLANE_ORDERS, miquelian_plane, oval_plane,
                                 oval_table_power)
from laguerre_lab.report import MAX_VIOLATIONS, CheckMode, CheckReport, Violation
from test_block_references import exhaustive_blocks
from test_relabelling import plane_for

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


@pytest.mark.parametrize("check", [check_miquel, check_bundle], ids=["Miquel", "Bundle"])
def test_a_negated_closure_conclusion_fails_every_hit(monkeypatch, check):
    # both closures hold on every miquelian plane, so only a negated
    # conclusion shows that a violation is recorded where the conclusion
    # fails: every hit then violates, with the counts of the plain run,
    # and the scalar replay refuses every kept witness
    P = miquelian_plane(3)
    plain = check(P, EX)
    pairs_concyclic = checks._pairs_concyclic
    monkeypatch.setattr(checks, "_pairs_concyclic", lambda *args: ~pairs_concyclic(*args))
    rep = check(P, EX)
    pinned = {check_miquel: (124416, 1296, 1296, 7776), check_bundle: (93312, 10368, 10368, 0)}
    counts = (rep.configurations, rep.hypothesis_hits, rep.violation_count, rep.skipped)
    assert counts == pinned[check] == (plain.configurations, plain.hypothesis_hits,
                                       plain.hypothesis_hits, plain.skipped)
    assert len(rep.violations) == MAX_VIOLATIONS == 20
    assert not any(replay_violation(P, rep.check_id, v) for v in rep.violations)


@pytest.mark.parametrize("sampled", [False, True], ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("check,conclusion,pinned,q", [
    (check_C, "_one_tangent", {False: (2916, 1944), True: (20000, 13303)}, 3),
    (check_pi, "_touch_at", {False: (3888, 1296), True: (20000, 1188)}, 3),
    (check_thm_2_3, "_touch_at", {False: (3888, 1296), True: (20000, 1188)}, 3),
    (check_pi_prime, "_meets_at_parallel", {False: (3888, 1296), True: (20000, 1188)}, 3),
    (check_S, "_spans_circle", {False: (13824, 3888), True: (20000, 5697)}, 3),
    (check_prop_2_2, "_bd_parallel", {False: (13824, 1944), True: (20000, 2850)}, 3),
    (check_cor_2_1, "_acbd_concyclic", {False: (13824, 5832), True: (20000, 8547)}, 3),
    (check_prop_2_1, "_one_touch_point", {False: (756, 36), True: (20000, 2378)}, 3),
    (check_prop_1_1, "_meet_once", {False: (6720, 6720), True: (20000, 18663)}, 4),
], ids=["C", "Pi", "Thm23", "PiPrime", "S", "Prop22", "Cor21", "Prop21", "Prop11"])
def test_a_negated_conclusion_fails_every_hit(monkeypatch, check, conclusion, pinned, q, sampled):
    # these statements hold on every miquelian plane of odd order, and
    # Prop11 on the miquelian plane of order 4, so a negated conclusion
    # makes every hit a violation, with the counts of the plain run, and the
    # scalar replay, which reads the statement from the plane's incidences,
    # refuses every kept witness
    P = miquelian_plane(q)
    mode = CheckMode.sample(20000, 2006) if sampled else EX
    configurations, hits = pinned[sampled]

    def counts(rep):
        return rep.configurations, rep.hypothesis_hits, rep.violation_count, rep.skipped

    assert counts(check(P, mode)) == (configurations, hits, 0, 0)
    predicate = getattr(checks, conclusion)
    monkeypatch.setattr(checks, conclusion, lambda *args: ~predicate(*args))
    rep = check(P, mode)
    assert counts(rep) == (configurations, hits, hits, 0)
    assert len(rep.violations) == MAX_VIOLATIONS
    assert not any(replay_violation(P, rep.check_id, v) for v in rep.violations)


def test_bundle_sampled_holds_on_both_models(oval8):
    rep5 = check_bundle(miquelian_plane(5), CheckMode.sample(100000, 42))
    assert rep5.verdict == "Holds(sampled)" and rep5.hypothesis_hits > 0
    rep8 = check_bundle(oval8, CheckMode.sample(100000, 42))
    assert rep8.verdict == "Holds(sampled)" and rep8.hypothesis_hits > 0
    assert rep8.skipped > 0  # general-position rejections are counted


@pytest.mark.parametrize("plane", ["x^4", "x^6", 5, 7, 8, 9, 11, 13], ids=str)
def test_closure_verdicts_with_derived_points(plane):
    # Miquel fails and Bundle holds on the oval planes x^4 and x^6 over
    # GF(8); both hold on the miquelian planes; every witness replays
    if isinstance(plane, str):
        P = oval_plane(8, oval_table_power(8, int(plane[2:])))
    else:
        P = miquelian_plane(plane)
    mode = CheckMode.sample(20000, 2006)
    miquel, bundle = check_miquel(P, mode), check_bundle(P, mode)
    assert (miquel.verdict, bundle.verdict) == (
        "Fails" if isinstance(plane, str) else "Holds(sampled)", "Holds(sampled)")
    assert miquel.hypothesis_hits > 0 and bundle.hypothesis_hits > 0
    for v in miquel.violations:
        assert replay_violation(P, "Miquel", v)


@functools.cache
def _pair_plane(name):
    if name == "oval8":
        return oval_plane(8, oval_table_power(8, 4))
    return miquelian_plane(int(name[1:]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(["q3", "q4", "q5", "oval8"]))
def test_pairs_concyclic_is_concyclic_some_order(data, name):
    # p and q on one circle, as at every call site; r and s drawn towards
    # the cases that hold: parallel to p or q, or on (p,r,q)°
    P = _pair_plane(name)
    K = data.draw(st.integers(0, P.n_circles - 1), label="K")
    p, q = data.draw(st.lists(st.sampled_from(P.members[K].tolist()),
                              min_size=2, max_size=2, unique=True), label="p, q")
    near = st.sampled_from(P.gen_members[[P.gen_of[p], P.gen_of[q]]].ravel().tolist())
    anywhere = st.integers(0, P.n_points - 1)
    r = data.draw(near | anywhere, label="r")
    c = int(P.triple_circle[p, r, q])
    on_circle = [x for x in P.members[c].tolist() if x not in (p, q, r)] if c >= 0 else [p]
    s = data.draw(st.sampled_from(on_circle) | near | anywhere, label="s")
    assume(len({p, q, r, s}) == 4)
    got = _pairs_concyclic(P, *(np.array([v]) for v in (p, q, r, s)))
    assert bool(got[0]) == P.concyclic_some_order(p, r, q, s)


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


@pytest.mark.parametrize("earlier", [0, MAX_VIOLATIONS - 3, MAX_VIOLATIONS, MAX_VIOLATIONS + 2])
def test_record_counts_every_entry_and_keeps_the_first_that_fit(earlier):
    rep = CheckReport("C", EX)
    for j in range(earlier):
        rep.add_violation(Violation("earlier", points=(j,)))
    kept = list(rep.violations)
    mask = np.zeros((6, 8), dtype=bool)
    mask.flat[3::2] = True          # more set entries than the cap
    rep.record(mask, lambda i: Violation("new", points=(i,)))
    assert rep.violation_count == earlier + 23
    room = max(0, MAX_VIOLATIONS - earlier)
    assert rep.violations == kept + [Violation("new", points=(i,)) for i in range(3, 48, 2)][:room]


def test_record_of_an_all_false_mask_changes_nothing():
    rep = CheckReport("C", EX)
    rep.add_violation(Violation("earlier"))
    rep.record(np.zeros((3, 4), dtype=bool), lambda i: pytest.fail("nothing to build"))
    assert (rep.violation_count, rep.violations) == (1, [Violation("earlier")])


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_ranked_records_keep_the_least_ranks_in_any_order(order):
    # two masks of 30 entries whose ranks interleave, the even and the odd
    # ones: the witnesses are the 20 least ranks in rank order, whichever
    # mask comes first, and the second record's rank function is asked for
    # the entries below the first's worst witness alone
    ranks = {0: np.arange(0, 60, 2), 1: np.arange(1, 60, 2)}
    worsts = []

    def rank_of(part):
        def rank(mask, worst):
            worsts.append(worst)
            idx = np.flatnonzero(mask)
            keep = ranks[part][idx] < (60 if worst is None else worst)
            return idx[keep], ranks[part][idx[keep]]
        return rank

    rep = CheckReport("S", EX)
    for part in order:
        rep.record(np.ones(30, dtype=bool), lambda i, part=part: Violation(
            "chain", points=(int(ranks[part][i]),)), rank_of(part))
    assert rep.violation_count == 60
    assert [v.points[0] for v in rep.violations] == list(range(MAX_VIOLATIONS))
    assert worsts == [None, 38 + order[0]]


def test_sample_mode_counts_draws():
    rep = check_C(miquelian_plane(3), CheckMode.sample(1234, 5))
    assert rep.configurations == 1234
    assert rep.verdict in ("Holds(sampled)", "Fails")


def test_exhaustive_sizes_frozen():
    P7 = miquelian_plane(7)
    assert exhaustive_size(P7, "S") == 37933056
    assert exhaustive_size(P7, "C") == 941192
    assert exhaustive_size(P7, "Pi") == 4840416
    assert exhaustive_size(P7, "Prop21") == 343 * 48 * 47 // 2 == 386904
    # the closures: C1, ordered base quadruple, pencil selector, then the
    # slots of e, h and g (Miquel) or of e, the C3 selector and g's slot
    # (Bundle); f and h are derived, not chosen
    assert exhaustive_size(P7, "Miquel") == 343 * 1680 * 7 * 8**3 == 2065244160
    assert exhaustive_size(P7, "Bundle") == 343 * 1680 * (7 * 8) ** 2 == 1807088640
    P5 = miquelian_plane(5)
    assert exhaustive_size(P5, "Miquel") == 48600000
    assert exhaustive_size(P5, "Bundle") == 40500000
    assert set(CHECK_IDS) == set(CHECKERS)


def test_sizing_fills_no_index():
    # a fresh plane: a cached one may hold indexes that another test read
    P = oval_plane(5, oval_table_power(5, 2))
    for check_id in checks.SPECS:
        exhaustive_size(P, check_id)
    filled = {"pencil_others", "pair_code", "triple_circle", "vertex_pencils",
              "pencil_class", "class_pencils"} & set(vars(P))
    assert not filled


# exhaustive_size of ("Axioms", *CHECK_IDS) at each supported order
EXHAUSTIVE_SIZES = {
    2: (0, 192, 216, 24, 216, 216, 24, 96, 96, 96, 0, 0),
    3: (0, 2916, 13824, 756, 13824, 13824, 0, 3888, 3888, 3888, 124416, 93312),
    4: (0, 20480, 216000, 6720, 216000, 216000, 6720, 46080, 46080, 46080, 3840000, 3072000),
    5: (0, 93750, 1728000, 34500, 1728000, 1728000, 0, 300000, 300000, 300000,
        48600000, 40500000),
    7: (0, 941192, 37933056, 386904, 37933056, 37933056, 0, 4840416, 4840416, 4840416,
        2065244160, 1807088640),
    8: (0, 2359296, 128024064, 999936, 128024064, 128024064, 999936, 14450688, 14450688,
        14450688, 9029615616, 8026324992),
    9: (0, 5314410, 373248000, 2303640, 373248000, 373248000, 0, 37791360, 37791360,
        37791360, 33067440000, 29760696000),
    11: (0, 21258732, 2299968000, 9503340, 2299968000, 2299968000, 0, 193261200, 193261200,
         193261200, 300559818240, 275513166720),
    13: (0, 67575326, 10417365504, 30819516, 10417365504, 10417365504, 0, 748526688,
         748526688, 748526688, 1882794129216, 1748308834272),
}


@pytest.mark.parametrize("q", SUPPORTED_PLANE_ORDERS)
def test_exhaustive_sizes_pinned_at_every_order(q):
    P = miquelian_plane(q)
    assert tuple(exhaustive_size(P, c) for c in ("Axioms", *CHECK_IDS)) == EXHAUSTIVE_SIZES[q]


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("mode", [EX, CheckMode.sample(3000, 5)], ids=["exhaustive", "sampled"])
def test_blocks_hold_only_rows_that_can_meet_the_hypothesis(q, mode):
    P = miquelian_plane(q)

    def blocks(sampled, firsts):
        return [sampled(P, mode)] if mode.is_sample else exhaustive_blocks(firsts(P), mode)

    def covered(firsts):
        # the configurations a report counts for these blocks (`_sweep`)
        return mode.count if mode.is_sample else firsts(P).n * firsts(P).raw

    for K, A, L, B, M, C, N, D, *ranks in blocks(_chain_blocks, _ChainFirsts):
        # an exhaustive block's arrays broadcast over its groups' chains;
        # consecutive circles touch at the corners, and N touches K at d:
        # the chain closes
        assert len(ranks) == (not mode.is_sample)
        K, A, L, B, M, C, N, D = np.broadcast_arrays(K, A, L, B, M, C, N, D)
        for X, Y, t in ((K, L, A), (L, M, B), (M, N, C), (N, K, D)):
            assert (P.pair_code[X, Y] == touch_code(t)).all()
    assert covered(_ChainFirsts) == check_S(P, mode).configurations
    # the closures' head rows: a, c, b, d distinct on one circle, C2
    # through a and b, and e (and h) on C2, distinct and off {a, b}; the
    # tail is one choice per row (sampled) or the shape of the choices each
    # head takes (exhaustive), and sampled blocks add the draws of the
    # slots that are read only where a derived point is not unique, one
    # for Miquel and two for Bundle
    def tail_ok(tail, shape, n):
        if mode.is_sample:
            return len(tail) == len(shape) and all(
                len(t) == n and (t < m).all() for t, m in zip(tail, shape))
        return tail == shape

    for C1, A, Cq, B, D, C2, se, sh, tail, *draws in blocks(_miquel_blocks, _miquel_firsts):
        assert len(draws) == mode.is_sample and tail_ok(tail, (q + 1,), len(A))
        assert (P.mem[C1, A] & P.mem[C1, Cq] & P.mem[C1, B] & P.mem[C1, D]).all()
        E, H = P.members[C2, se], P.members[C2, sh]
        assert (P.triple_circle[A, Cq, B] == P.triple_circle[A, D, B]).all()
        assert (P.mem[C2, A] & P.mem[C2, B]).all()
        assert ((E != A) & (E != B) & (H != A) & (H != B) & (se != sh)).all()
    assert covered(_miquel_firsts) == check_miquel(P, mode).configurations
    for C1, A, Cq, B, D, C5, se, tail, *draws in blocks(_bundle_blocks, _bundle_firsts):
        assert len(draws) == 2 * mode.is_sample and tail_ok(tail, (q, q + 1), len(A))
        assert (P.mem[C1, A] & P.mem[C1, Cq] & P.mem[C1, B] & P.mem[C1, D]).all()
        E = P.members[C5, se]
        assert (P.mem[C5, A] & P.mem[C5, B] & (E != A) & (E != B)).all()
    assert covered(_bundle_firsts) == check_bundle(P, mode).configurations


@pytest.mark.parametrize("q", [2, 3, 4])
def test_exhaustive_size_is_the_exhaustive_configurations(q):
    P = miquelian_plane(q)
    for cid in CHECK_IDS:
        assert CHECKERS[cid].run(P, EX).configurations == exhaustive_size(P, cid), cid


def closure_heads(P, n_slots):
    """The exhaustive head rows of a closure, one array in all, by
    itertools: per circle C1 and pencil selector, each ordered quadruple
    (a, c, b, d) of C1's points, C2 the selected circle through a and b in
    id order, and each ordered tuple of `n_slots` distinct slots of C2
    whose points are neither a nor b; each row starts with C1."""
    members = P.members.tolist()
    q = P.q
    pencil = {}
    for K, row in enumerate(members):
        for x, y in itertools.permutations(row, 2):
            pencil.setdefault((x, y), []).append(K)
    heads = []
    for C1 in range(P.n_circles):
        for sel in range(q):
            for a, c, b, d in itertools.permutations(members[C1], 4):
                C2 = pencil[(a, b)][sel]
                for slots in itertools.permutations(range(q + 1), n_slots):
                    if {members[C2][s] for s in slots}.isdisjoint((a, b)):
                        heads.append((C1, a, c, b, d, C2, *slots))
    return np.array(heads)


@pytest.mark.parametrize("check_id,q", [("Miquel", 3), ("Miquel", 4), ("Bundle", 3), ("Bundle", 4)])
def test_exhaustive_closure_rows_follow_the_choice_order(check_id, q):
    # Miquel chooses the slots of e and h, then the slot of g (its tail);
    # Bundle the slot of e, then the selector of C3 and the slot of g (its
    # tail); their evaluators derive the rest.  Each head takes every tail
    # in C order: `_with_tail` repeats it once per tail index tuple.  The
    # head rows are compared across blocks
    P = miquelian_plane(q)
    if check_id == "Miquel":
        firsts, n_slots, tail_shape = _miquel_firsts, 2, (q + 1,)
    else:
        firsts, n_slots, tail_shape = _bundle_firsts, 1, (q, q + 1)
    n_raw = (q + 1) * q * (q - 1) * (q - 2) * (q + 1) ** n_slots * int(np.prod(tail_shape))
    family = firsts(P)
    assert (family.n, family.raw) == (P.n_circles * q, n_raw)
    blocks = list(exhaustive_blocks(family, EX))
    assert all(tail == tail_shape for *_, tail in blocks)
    heads = np.column_stack([np.concatenate(col) for col in zip(*(b[:-1] for b in blocks))])
    assert np.array_equal(heads, closure_heads(P, n_slots))
    tails = np.array(list(itertools.product(*map(range, tail_shape))))
    src, head, *cols = _with_tail(tail_shape, np.array([4, 7]), np.array([40, 70]))
    assert np.array_equal(src, np.repeat([4, 7], len(tails)))
    assert np.array_equal(head, np.repeat([40, 70], len(tails)))
    assert np.array_equal(np.column_stack(cols), np.tile(tails, (2, 1)))


def test_every_checker_runs_sampled_everywhere():
    P = miquelian_plane(3)
    for cid in CHECK_IDS:
        rep = CHECKERS[cid].run(P, CheckMode.sample(500, 3))
        assert rep.check_id == cid
        assert rep.configurations == 500 or rep.verdict == "NotApplicable"


# ---------------------------------------------------------------------------
# the flat-offset gather against numpy's fancy indexing
# ---------------------------------------------------------------------------

# every table the sweeps read through `_gather`
GATHERED = ("triple_circle", "pencil_class", "class_pencils", "pair_code", "mem",
            "members", "vertex_pencils", "pencil_others")


@functools.cache
def _plane7():
    return miquelian_plane(7)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(GATHERED),
       dtype=st.sampled_from([np.int16, np.int32, np.int64]))
def test_gather_matches_fancy_indexing(data, name, dtype):
    # int16 ids (generator ids are int16) address tables beyond int16 range
    table = getattr(_plane7(), name)
    # index the first k axes; the rest are taken whole, as C's pencil rows are
    k = data.draw(st.integers(1, table.ndim), label="axes")
    n = data.draw(st.integers(0, 12), label="rows")
    scalar_axis = data.draw(st.integers(-1, k - 1), label="scalar axis")
    # arrays of n ids each, or the first an (n, 1) column and the later ones
    # (1, n) rows, which widen the offsets to (n, n), as a chain block's
    # corners (s, 1, G) and (1, s, G) do
    widen = data.draw(st.booleans(), label="widen")
    idx = []
    for axis in range(k):
        # -1 in the first axis wraps, as it does in `table[idx]`
        ids = st.integers(-1 if axis == 0 else 0, table.shape[axis] - 1)
        if axis == scalar_axis:
            idx.append(data.draw(ids))
        else:
            a = np.array(data.draw(st.lists(ids, min_size=n, max_size=n)), dtype=dtype)
            first = all(isinstance(i, int) for i in idx)
            idx.append(a.reshape((n, 1) if first else (1, n)) if widen else a)
    got = _gather(table, *idx)
    want = table[tuple(idx)]
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_gather_broadcasts_pencil_rows_against_a_column():
    # C's count: pair_code[pencil_others[K, sp, :], L[:, None]]
    P = _plane7()
    K = np.array([0, 7, 342, 3], dtype=np.int64)
    sp = np.array([5, 0, 7, 2], dtype=np.int64)
    L = np.array([1, 7, 0, 341], dtype=np.int64)
    rows = _gather(P.pencil_others, K, sp)
    assert np.array_equal(_gather(P.pair_code, rows, L[:, None]),
                          P.pair_code[P.pencil_others[K, sp, :], L[:, None]])


@pytest.mark.parametrize("blocks", [
    _c_blocks, _chain_blocks, functools.partial(_chain_blocks, c_parallel_a=True),
    _sampled_tangent_pairs, _pi_blocks, _miquel_blocks, _bundle_blocks],
    ids=["C", "S", "Prop22", "Prop21", "Pi", "Miquel", "Bundle"])
def test_sampled_blocks_hold_int16_ids_and_slots(blocks):
    # every id and slot stays int16 from the draw on, closure tails
    # included; the views of draws not yet made are the only other arrays,
    # and C's pencil counts, uint8, the one array of neither
    plane = miquelian_plane(13)
    parts = blocks(plane, CheckMode.sample(20_000, 5))
    if blocks is _c_blocks:
        *parts, counts = parts
        assert counts.dtype == np.uint8 and len(counts) == 20_000
    arrays = [a for v in parts for a in (v if isinstance(v, tuple) else (v,))
              if not isinstance(a, checks._Draws)]
    assert len(arrays) >= 3 and all(len(a) for a in arrays)
    assert [a.dtype for a in arrays] == [np.int16] * len(arrays)


# ---------------------------------------------------------------------------
# closed forms of exhaustive hit counts, n = q(q+1) points and n_c = q³ circles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_pi_family_hits_have_a_closed_form(q):
    # a; b off a's generator; c off both; x off all three generators and
    # off the q−2 points of (a, b, c)° left on the others.  Pi and PiPrime
    # sweep the rows with b < c and count each twice, Thm23 every row; at
    # q=2 a pair has no x
    n = q * (q + 1)
    P = miquelian_plane(q)
    hits = n * (n - q) * (n - 2 * q) * (q - 1) * (q - 2)
    assert [check(P, EX).hypothesis_hits for check in (check_pi, check_pi_prime, check_thm_2_3)] \
        == [hits] * 3


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13])
def test_c_hits_have_a_closed_form(q):
    # K, p on K, and L none of the q² circles through p: 62,377,224 at q=13
    n_c = q**3
    assert check_C(miquelian_plane(q), EX).hypothesis_hits == n_c * (q + 1) * (n_c - q * q)


def _closed_chains_per_circle(q: int) -> int:
    """R(q), the closed chains from one circle K at odd order: the ordered
    pairs (L, N) of each group of (K, M), q²−1 circles for M = K and q−2,
    q−1 or q+1 for the q²−1 tangent, ½q(q+1)(q−1) secant and ½q(q−1)²
    disjoint circles M."""
    return ((q * q - 1) ** 2 + (q * q - 1) * (q - 2) ** 2 + q * (q + 1) * (q - 1) ** 3 // 2
            + q * (q - 1) ** 2 * (q + 1) ** 2 // 2)


@pytest.mark.parametrize("q, hits", [(3, 5_832), (5, 399_000), (7, 6_042_288)])
def test_closed_chains_have_a_closed_form(q, hits):
    # every closed chain meets Cor21's hypothesis
    assert check_cor_2_1(miquelian_plane(q), EX).hypothesis_hits == hits \
        == q ** 3 * _closed_chains_per_circle(q)


def test_closed_chains_per_circle_beyond_the_swept_orders():
    # from the formula alone: the chains of one circle K at q = 9, 11, 13
    assert [_closed_chains_per_circle(q) for q in (9, 11, 13)] == [62_160, 169_320, 389_256]


def _parallel_chains_per_circle(q: int) -> int:
    """The closed chains from one circle K at odd order with c ∥ a,
    Prop22's hypothesis, a = touch(K, L) and c = touch(M, N): for each kind
    of M, the pairs (L, N) of its group with a ∥ c.
      - M = K: L and N touch K at one point, (q−1)² pairs at each of its
        q+1 points.
      - M tangent to K at t: the group is the q−2 other circles of their
        pencil at t, so a = c = t for all (q−2)² pairs.
      - M secant to or disjoint from K: the group's circles touch K on
        distinct generators and M on the same ones, the q−1 that miss K ∩ M
        or all q+1, so each L has one N: q−1 or q+1 pairs.
    So (q²−1)(q−1) + (q²−1)(q−2)² + ½q(q+1)(q−1)² + ½q(q−1)²(q+1)
    = (q²−1)(2q²−4q+3), and S's a ∦ c takes the rest of R(q),
    q²(q−1)²(q+1)."""
    return ((q * q - 1) * (q - 1) + (q * q - 1) * (q - 2) ** 2
            + q * (q + 1) * (q - 1) ** 2 // 2 + q * (q - 1) ** 2 * (q + 1) // 2)


@pytest.mark.parametrize("q, s, p22", [(3, 3_888, 1_944), (5, 300_000, 99_000),
                                       (7, 4_840_416, 1_201_872)])
def test_s_and_prop22_hits_have_a_closed_form(q, s, p22):
    P = miquelian_plane(q)
    assert (check_S(P, EX).hypothesis_hits, check_prop_2_2(P, EX).hypothesis_hits) == (s, p22)
    assert s == q ** 5 * (q - 1) ** 2 * (q + 1)
    assert p22 == q ** 3 * (q * q - 1) * (2 * q * q - 4 * q + 3)
    assert p22 == q ** 3 * _parallel_chains_per_circle(q)
    assert s + p22 == q ** 3 * _closed_chains_per_circle(q)


@pytest.mark.parametrize("q, s, p22", [(9, 51_840, 10_320), (11, 145_200, 24_120),
                                       (13, 340_704, 48_552)])
def test_s_and_prop22_hits_per_circle_beyond_the_swept_orders(q, s, p22):
    # one circle's exhaustive view
    P, view = miquelian_plane(q), CheckMode("exhaustive", count=1, start=0)
    assert (check_S(P, view).hypothesis_hits, check_prop_2_2(P, view).hypothesis_hits) == (s, p22)
    assert (s, p22) == (q * q * (q - 1) ** 2 * (q + 1), _parallel_chains_per_circle(q))


@pytest.mark.parametrize("key", [3, 4, 5, 7, "relabelled-5"])
def test_s_and_prop22_split_the_closed_chains(key):
    # a ∦ c and c ∥ a: at q=4, 161,280 + 41,280 = 202,560
    P = plane_for(key)
    hits = {c: CHECKERS[c].run(P, EX).hypothesis_hits for c in ("S", "Prop22", "Cor21")}
    assert hits["S"] + hits["Prop22"] == hits["Cor21"]
    if key == 4:
        assert (hits["S"], hits["Prop22"]) == (161_280, 41_280)


@pytest.mark.parametrize("q, violations", [(3, 0), (5, 0), (7, 0), (9, 0), (4, 1920), (8, 301_056)])
def test_prop_2_1_hits_have_a_closed_form(q, violations):
    # the trios touching at one point p lie in one of p's q tangent pencils
    # of q circles; at even order every further trio is a violation
    n = q * (q + 1)
    rep = check_prop_2_1(miquelian_plane(q), EX)
    assert rep.violation_count == violations
    assert rep.hypothesis_hits == n * q * math.comb(q, 3) + violations
