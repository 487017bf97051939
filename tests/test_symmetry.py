"""Double tangency symmetry tests: frozen image values, the defining
properties on full sweeps and samples, classification, uniqueness
through the test reference `symmetry_reference.loop_uniqueness`, and the
inversive-plane extraction goldens."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from laguerre_lab.errors import (
    NotALaguerrePlane,
    NotFixedPointFree,
    NotUnique,
    PointNotOnCircle,
    TangentPair,
)
from laguerre_lab.models import (
    SUPPORTED_PLANE_ORDERS,
    miquelian_plane,
    oval_plane,
    oval_table_power,
)
from laguerre_lab.plane import LaguerrePlane, meet_count
from laguerre_lab.rng import splitmix64
from laguerre_lab.symmetry import (
    Automorphism,
    build_dts,
    classify_symmetry,
    double_tangency_pencil,
    export_automorphism,
    find_fixed_point_free_pair,
    fixed_circles,
    import_automorphism,
    moebius_extract,
    sample_nontangent_pairs,
    tangency_map,
    tangent_to_second,
    verify_dts,
)
from symmetry_reference import loop_uniqueness
from test_relabelling import RELABELLED, plane_for


@pytest.fixture(scope="module")
def p5():
    return miquelian_plane(5)


@pytest.fixture(scope="module")
def secant_pair(p5):
    return (p5.circle_from_coef((1, 0, 0)).id, p5.circle_from_coef((4, 0, 2)).id)


@pytest.fixture(scope="module")
def q3_sweep():
    """All non-tangent pairs of the order-3 plane with their symmetries."""
    P = miquelian_plane(3)
    cache = {}
    for K in range(P.n_circles):
        for L in range(K + 1, P.n_circles):
            if meet_count(P.pair_code[K, L]) != 1:
                cache[(K, L)] = build_dts(P, K, L)
    return P, cache


def test_tangent_to_second_pinned_example(p5, secant_pair):
    K, L = secant_pair
    M, touch = tangent_to_second(p5, 0, K, L)
    assert M.coef == (4, 0, 0)
    assert p5.point_label(touch) == "(inf,4)"
    # oracle: brute pencil scan
    brute = [m for m in p5.tangent_pencil(0, K)
             if p5.tangency(m, L).kind == "tangent"]
    assert brute == [M.id]


def test_tangent_to_second_common_point_convention(p5, secant_pair):
    K, L = secant_pair
    common = p5.tangency(K, L).points
    for p in common:
        _, touch = tangent_to_second(p5, p, K, L)
        assert touch == p


def test_tangent_to_second_not_unique_on_char2():
    P4 = miquelian_plane(4)
    with pytest.raises(NotUnique):
        tangent_to_second(P4, 0, P4.circle_from_coef((0, 0, 0)),
                          P4.circle_from_coef((0, 0, 1)))
    with pytest.raises(PointNotOnCircle):
        tangent_to_second(miquelian_plane(5), 1, 25, 102)


def test_a_circle_is_no_partner_of_itself(p5, secant_pair):
    # every member of K's pencil at p touches K there, so K with itself
    # has no one tangent circle and no tangency map (`double_tangency_pencil`
    # refuses it in its golden test)
    K, _ = secant_pair
    p = int(p5.members[K, 0])
    with pytest.raises(ValueError, match="^circles must be distinct$"):
        tangent_to_second(p5, p, K, K)
    with pytest.raises(TangentPair, match=f"^circles {K},{K} are equal$"):
        tangency_map(p5, K, K)


def test_tangency_map_examples_and_roundtrip(p5, secant_pair):
    K, L = secant_pair
    h = tangency_map(p5, K, L)
    hinv = tangency_map(p5, L, K)
    image = dict(zip(p5.members[K].tolist(), h.tolist()))
    assert p5.point_label(image[0]) == "(inf,4)"
    assert image[6] == 6  # (1,1) is a common point
    # hinv lists the images of L's members by generator, so h's images sit
    # at the slots of their generators
    assert np.array_equal(hinv[p5.gen_of[h]], p5.members[K])
    with pytest.raises(TangentPair):
        tangency_map(p5, p5.circle_from_coef((1, 0, 0)), p5.circle_from_coef((1, 0, 1)))


def test_double_tangency_pencil_golden(p5, secant_pair):
    K, L = secant_pair
    pen = double_tangency_pencil(p5, K, L)
    assert sorted(p5.circle_coef(c) for c in pen) == [
        (0, 1, 1), (0, 4, 1), (1, 0, 2), (4, 0, 0)]
    # oracle identity: members are precisely the circles tangent to both
    brute = [cid for cid in range(p5.n_circles)
             if p5.tangency(cid, K).kind in ("tangent", "equal")
             and p5.tangency(cid, L).kind in ("tangent", "equal")]
    assert list(pen.members) == brute
    with pytest.raises(ValueError):
        double_tangency_pencil(p5, K, K)


def test_double_tangency_pencil_tangent_case_equals_tangent_pencil(p5):
    K = p5.circle_from_coef((1, 0, 0))
    L = p5.circle_from_coef((1, 0, 1))  # tangent to K at (inf,1)
    t = p5.tangency(K, L)
    assert t.kind == "tangent"
    pen = double_tangency_pencil(p5, K, L)
    assert set(pen.members) == set(p5.tangent_pencil(t.points[0], K).members)


def test_build_dts_restriction_is_the_tangency_map(p5, secant_pair):
    K, L = secant_pair
    phi = build_dts(p5, K, L)
    assert np.array_equal(phi.image[p5.members[K]], tangency_map(p5, K, L))
    assert phi.is_involution()


def test_build_dts_fixes_generators_through_common_points(p5, secant_pair):
    K, L = secant_pair
    phi = build_dts(p5, K, L)
    fixed = set(phi.fixed_points())
    gens = {int(p5.gen_of[p]) for p in p5.tangency(K, L).points}
    expected = {int(x) for g in gens for x in p5.gen_members[g]}
    assert fixed == expected  # nothing outside the two generators is fixed


def test_build_dts_rejects_tangent_pair(p5):
    with pytest.raises(TangentPair):
        build_dts(p5, p5.circle_from_coef((1, 0, 0)), p5.circle_from_coef((1, 0, 1)))


def test_build_dts_unordered_pair_invariance(q3_sweep, p5, secant_pair):
    P3, cache = q3_sweep
    for (K, L), phi in itertools.islice(cache.items(), 40):
        assert build_dts(P3, L, K).equals(phi)
    K, L = secant_pair
    assert build_dts(p5, L, K).equals(build_dts(p5, K, L))


def test_verify_dts_all_pairs_q3(q3_sweep):
    P3, cache = q3_sweep
    assert len(cache) == 243
    for (K, L), phi in cache.items():
        rep = verify_dts(P3, phi, K, L)
        assert rep.holds, (P3.circle_coef(K), P3.circle_coef(L),
                           [v.kind for v in rep.violations])


def test_verify_dts_sampled_pairs_q5_q7():
    for q, n in ((5, 30), (7, 12)):
        P = miquelian_plane(q)
        for K, L in sample_nontangent_pairs(P, n, seed=2024):
            phi = build_dts(P, K, L)
            rep = verify_dts(P, phi, K, L)
            assert rep.holds


def test_verify_dts_refuses_the_identity(p5):
    # with nothing moved, properties (1)-(5) hold vacuously; (0) does not
    K, L = sample_nontangent_pairs(p5, 1, seed=5)[0]
    rep = verify_dts(p5, Automorphism.identity(p5), K, L)
    assert rep.verdict == "Fails"
    assert [(v.kind, v.circles) for v in rep.violations] == [
        ("pair-not-exchanged", (K, L)), ("pair-not-exchanged", (L, K))]


def test_dtp_members_swap_touch_points_under_h(p5, secant_pair):
    K, L = secant_pair
    h = dict(zip(p5.members[K].tolist(), tangency_map(p5, K, L).tolist()))
    for C in double_tangency_pencil(p5, K, L):
        tk = p5.tangency(C, K)
        tl = p5.tangency(C, L)
        assert h[tk.points[0]] == tl.points[0]


def test_classify_secant_golden(p5, secant_pair):
    K, L = secant_pair
    cls = classify_symmetry(p5, K, L)
    assert cls.kind == "LaguerreSymmetry"
    assert cls.fixed_generators == (1, 4)
    assert cls.fixed_point_count == 10
    # the witness circle is fixed setwise but not pointwise
    phi = build_dts(p5, K, L)
    w = cls.witness_circle
    assert int(phi.circle_image()[w]) == w
    assert any(phi(int(x)) != int(x) for x in p5.members[w])


def test_classify_disjoint_fixed_point_free(p5):
    K = p5.circle_from_coef((1, 0, 0)).id
    L = p5.circle_from_coef((4, 0, 1)).id
    assert p5.tangency(K, L).kind == "disjoint"
    cls = classify_symmetry(p5, K, L)
    assert cls.kind == "FixedPointFree" and cls.fixed_point_count == 0


@pytest.mark.parametrize("pair, forged, fixed_count, details", [
    (((1, 0, 0), (4, 0, 2)), None, 30, "no setwise-fixed witness circle"),
    (((1, 0, 0), (4, 0, 1)), None, 30, "disjoint pair with fixed points"),
    # (y = 0, y = x² + 1) meets on generators 2 and 3, the classified pair on 1 and 4
    (((1, 0, 0), (4, 0, 2)), ((0, 0, 0), (1, 0, 1)), 10,
     "secant pair without pointwise-fixed generators"),
], ids=["identity-secant", "identity-disjoint", "other-secant-symmetry"])
def test_classify_reports_a_forged_symmetry_as_other(p5, pair, forged, fixed_count, details):
    # a forged phi (the identity, or the symmetry of another pair) reaches
    # each of the three "Other" kinds; they are reported, never asserted
    K, L = (p5.circle_from_coef(c).id for c in pair)
    phi = (Automorphism.identity(p5) if forged is None
           else build_dts(p5, *(p5.circle_from_coef(c).id for c in forged)))
    cls = classify_symmetry(p5, K, L, phi)
    assert (cls.kind, cls.details, cls.fixed_point_count) == ("Other", details, fixed_count)
    assert (cls.fixed_generators, cls.witness_circle) == (None, None)


def test_every_circle_has_disjoint_partners_whose_symmetries_fix_no_point():
    # the two arguments of `find_fixed_point_free_pair`: each circle is
    # disjoint from q(q-1)²/2 others, and a disjoint pair's symmetry moves
    # every point (all 81 pairs at q=3, circle 0's 40 at q=5)
    for q in SUPPORTED_PLANE_ORDERS:
        P = miquelian_plane(q)
        assert ((meet_count(P.pair_code) == 0).sum(axis=1) == q * (q - 1) ** 2 // 2).all(), q
    for q, pairs in ((3, 81), (5, 40)):
        P = miquelian_plane(q)
        disjoint = np.argwhere(np.triu(meet_count(P.pair_code) == 0, k=1))
        disjoint = disjoint if q == 3 else disjoint[disjoint[:, 0] == 0]
        assert len(disjoint) == pairs
        for K, L in disjoint.tolist():
            assert not build_dts(P, K, L).fixed_points(), (q, K, L)


def test_every_oval_plane_of_order_3_builds_every_symmetry():
    # order 3 is the only order where `build_dts` can find no admissible
    # auxiliary for a point; its completion then takes the one point left,
    # on each of the 18 oval planes over GF(3) and each non-tangent pair
    planes = []
    for table in itertools.product(range(3), repeat=3):
        try:
            planes.append(oval_plane(3, table))
        except NotALaguerrePlane:
            pass
    assert len(planes) == 18
    for P in planes:
        pairs = np.argwhere(np.triu(meet_count(P.pair_code) != 1, k=1))
        assert len(pairs) == 243
        for K, L in pairs.tolist():
            phi = build_dts(P, K, L)
            assert phi.is_involution() and (phi.circle_image()[[K, L]] == [L, K]).all()


def test_all_disjoint_pairs_are_fixed_point_free_q3(q3_sweep):
    # measured: the disjoint branch never produces fixed points
    P3, cache = q3_sweep
    for (K, L), phi in cache.items():
        if meet_count(P3.pair_code[K, L]) == 0:
            cls = classify_symmetry(P3, K, L, phi)
            assert cls.kind == "FixedPointFree" and cls.fixed_point_count == 0


def test_classify_rejects_tangent(p5):
    with pytest.raises(TangentPair):
        classify_symmetry(p5, p5.circle_from_coef((1, 0, 0)),
                          p5.circle_from_coef((1, 0, 1)))


def test_classify_all_secant_pairs_q3(q3_sweep):
    P3, cache = q3_sweep
    for (K, L), phi in cache.items():
        if meet_count(P3.pair_code[K, L]) != 2:
            continue
        cls = classify_symmetry(P3, K, L, phi)
        assert cls.kind == "LaguerreSymmetry"
        gens = {int(P3.gen_of[p]) for p in P3.tangency(K, L).points}
        assert set(cls.fixed_generators) == gens
        # measured: nothing outside the two generators is fixed, so every
        # other generator moves pointwise somewhere
        assert cls.fixed_point_count == 2 * P3.q


def test_symmetry_uniqueness_all_q3():
    P3, memo = miquelian_plane(3), {}
    for P, Q in itertools.combinations(range(P3.n_gens), 2):
        for M in range(P3.n_circles):
            rep = loop_uniqueness(P3, P, Q, M, memo)
            assert rep.verdict == "Holds", (P, Q, M)
            assert rep.hypothesis_hits > 0


def test_symmetry_uniqueness_self_consistency(p5, secant_pair):
    # the classify example's own (P, Q, M) admits its pair
    K, L = secant_pair
    cls = classify_symmetry(p5, K, L)
    P, Q = cls.fixed_generators
    rep = loop_uniqueness(p5, P, Q, cls.witness_circle)
    assert rep.verdict == "Holds" and rep.hypothesis_hits >= 1


def test_fixed_circles_identity_and_census(p5, secant_pair):
    ident = Automorphism.identity(p5)
    assert len(fixed_circles(p5, ident)) == p5.n_circles
    K, L = secant_pair
    phi = build_dts(p5, K, L)
    fc = fixed_circles(p5, phi)
    cls = classify_symmetry(p5, K, L, phi)
    assert cls.witness_circle in fc


def test_moebius_extract_golden_q5(p5):
    K, L, phi = find_fixed_point_free_pair(p5)
    assert (p5.circle_coef(K), p5.circle_coef(L)) == ((0, 0, 0), (1, 0, 2))
    assert len(fixed_circles(p5, phi)) == 25
    cand = moebius_extract(p5, phi)
    assert len(cand.points) == 26  # q^2 + 1
    assert len(cand.blocks_a) == 50 and len(cand.blocks_b) == 15
    assert cand.block_size_census() == {"A": {6: 50}, "B": {6: 15}}
    assert cand.parallel_moved_points == 0
    # recorded outcomes: the touching axiom holds, the joining axiom
    # covers exactly half the triples
    assert cand.touching_report.verdict == "Holds"
    assert cand.three_point_report.verdict == "Fails"
    assert cand.three_point_report.configurations == 2600
    assert cand.three_point_report.violation_count == 1300


def test_moebius_extract_rejects_fixed_points(p5, secant_pair):
    K, L = secant_pair
    with pytest.raises(NotFixedPointFree):
        moebius_extract(p5, build_dts(p5, K, L))


def test_automorphism_text_roundtrip(p5, secant_pair):
    K, L = secant_pair
    phi = build_dts(p5, K, L)
    text = export_automorphism(p5, phi)
    head = text.splitlines()[0]
    assert head == "dts q=5 K=1,0,0 L=4,0,2"
    back = import_automorphism(p5, text)
    assert back.equals(phi)
    assert export_automorphism(p5, back) == text
    with pytest.raises(ValueError):
        import_automorphism(miquelian_plane(3), text)


_IMAGE30 = " ".join(str(i) for i in range(30))  # the identity on the q=5 points


_MALFORMED_AUTOMORPHISMS = [
    ("", "found 0 non-empty lines"),
    ("dts q=5 K=1,0,0 L=4,0,2\n", "found 1 non-empty lines"),
    ("auto q=5 K=1,0,0 L=4,0,2\n" + _IMAGE30, "missing 'dts' header"),
    ("dts K=1,0,0 L=4,0,2\n" + _IMAGE30, "lacks q="),
    ("dts q=5 L=4,0,2\n" + _IMAGE30, "lacks K="),
    ("dts q=5 K=1,0,0\n" + _IMAGE30, "lacks L="),
    ("dts q=five K=1,0,0 L=4,0,2\n" + _IMAGE30, "invalid literal for int"),
    ("dts q=5 K=1,x,0 L=4,0,2\n" + _IMAGE30, "invalid literal for int"),
    ("dts q=5 K=1,0,0 L=4,0,9\n" + _IMAGE30, "no circle with coefficients"),
    ("dts q=5 K=1,0,0 L=4,0,2\n0 1 two", "invalid literal for int"),
    ("dts q=5 K=1,0,0 L=4,0,2\n0 1 2", "image length"),
    ("dts q=5 K=1,0,0 L=4,0,2\n" + _IMAGE30[:-2] + str(10**30), "outside 0..29"),
    ("dts q=5 K=1,0,0 L=4,0,2\n" + _IMAGE30 + "\n0", "found 3 non-empty lines"),
]


@pytest.mark.parametrize("text,problem", _MALFORMED_AUTOMORPHISMS,
                         ids=[problem for _, problem in _MALFORMED_AUTOMORPHISMS])
def test_import_automorphism_names_the_problem(p5, text, problem):
    with pytest.raises(ValueError, match=problem):
        import_automorphism(p5, text)


def test_automorphism_validate_rejects_non_automorphism(p5):
    img = np.arange(p5.n_points)
    img[0], img[1] = 1, 0  # swap two points of one generator only
    with pytest.raises(ValueError):
        Automorphism(p5, img).validate()


def test_automorphism_validate_names_a_non_permutation_and_a_split_generator(p5):
    img = np.arange(p5.n_points)
    img[1] = img[0]
    with pytest.raises(ValueError, match="^image is not a permutation of the points$"):
        Automorphism(p5, img).validate()
    a, b = p5.gen_members[0, 0], p5.gen_members[1, 0]
    img = np.arange(p5.n_points)
    img[a], img[b] = b, a       # generators 0 and 1 each go to both
    with pytest.raises(ValueError, match="^generator 0 is not mapped onto one generator$"):
        Automorphism(p5, img).validate()


def test_only_a_double_tangency_symmetry_of_a_coordinate_plane_extracts_and_exports(p5):
    K, L, phi = find_fixed_point_free_pair(p5)
    custom = Automorphism(p5, phi.image)    # the same map, not from build_dts
    with pytest.raises(ValueError, match="^candidate extraction needs a double tangency symmetry$"):
        moebius_extract(p5, custom)
    with pytest.raises(ValueError, match="^only double tangency symmetries carry an exportable pair$"):
        export_automorphism(p5, custom)
    bare = LaguerrePlane(p5.gen_members, p5.members)    # no coordinates
    with pytest.raises(ValueError, match="^export needs a coordinate-model plane$"):
        export_automorphism(bare, build_dts(bare, K, L))


def test_sample_nontangent_pairs_deterministic(p5):
    a = sample_nontangent_pairs(p5, 25, seed=5)
    b = sample_nontangent_pairs(p5, 25, seed=5)
    assert a == b
    # both kinds of non-tangent pair are drawn, secant (2) and disjoint (0)
    assert {meet_count(p5.pair_code[K, L]) for K, L in a} == {0, 2}


def scalar_nontangent_pairs(plane, count: int, seed: int) -> list[tuple[int, int]]:
    """`sample_nontangent_pairs` from `splitmix64`: try i reads words 2i and
    2i+1 mod the circle count, and keeps a new non-tangent pair."""
    out, i = [], 0
    while len(out) < count:
        K, L = sorted(splitmix64(seed, 2 * i + j) % plane.n_circles for j in (0, 1))
        i += 1
        if K != L and meet_count(plane.pair_code[K, L]) != 1 and (K, L) not in out:
            out.append((K, L))
    return out


@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
def test_sampled_pairs_read_the_stream_in_order(seed):
    for q, count in ((3, 243), (3, 10), (5, 25), (9, 20)):
        P = miquelian_plane(q)
        assert sample_nontangent_pairs(P, count, seed) == scalar_nontangent_pairs(P, count, seed)


def test_sample_nontangent_pairs_refuses_impossible_counts():
    P3 = miquelian_plane(3)
    assert len(set(sample_nontangent_pairs(P3, 243, seed=1))) == 243
    for count in (-3, 244):
        with pytest.raises(ValueError, match="the plane has 243 non-tangent pairs"):
            sample_nontangent_pairs(P3, count, seed=1)


@pytest.mark.parametrize("key", [*SUPPORTED_PLANE_ORDERS, "x4-gf8", RELABELLED])
def test_the_pair_count_from_the_pencils_equals_the_pair_table_count(key):
    # the refusal names C(n_c, 2) less half the pencil index's size; here it
    # equals the count of non-tangent pairs read from the decoded pair table
    P = oval_plane(8, oval_table_power(8, 4)) if key == "x4-gf8" else plane_for(key)
    table = int(np.count_nonzero(np.triu(meet_count(P.pair_code) != 1, k=1)))
    with pytest.raises(ValueError, match=f"^cannot sample {table + 1} pairs: "
                                         f"the plane has {table} non-tangent pairs$"):
        sample_nontangent_pairs(P, table + 1, seed=1)
