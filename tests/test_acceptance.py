"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the stated runtime budgets are asserted, not just observed.
"""

from __future__ import annotations

import itertools
import json
import time

from laguerre_lab.checks import (
    check_C,
    check_S,
    check_bundle,
    check_miquel,
    check_pi,
    check_pi_prime,
    check_prop_1_1,
    check_thm_2_3,
    replay_violation,
)
from laguerre_lab.cli import main as cli_main
from laguerre_lab.models import miquelian_plane, oval_plane, oval_table_power
from laguerre_lab.plane import meet_count
from laguerre_lab.report import CheckMode
from laguerre_lab.symmetry import (
    build_dts,
    classify_symmetry,
    find_fixed_point_free_pair,
    moebius_extract,
    sample_nontangent_pairs,
    verify_dts,
)
from symmetry_reference import loop_uniqueness

EX = CheckMode.exhaustive()


def _announce(num: int, text: str, elapsed: float) -> None:
    print(f"\n[PASS] criterion {num:02d}: {text} ({elapsed:.1f}s)")


def test_criterion_01_plane_construction_and_counts():
    miquelian_plane.cache_clear()
    t0 = time.perf_counter()
    for q in (2, 3, 4, 5, 7):
        P = miquelian_plane(q)
        rep = P.validate_axioms()
        assert rep.verdict == "Holds", f"q={q}: {rep.notes}"
        assert P.n_points == q * q + q
        assert P.n_circles == q**3
        assert P.n_gens == q + 1
        assert P.members.shape[1] == q + 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _announce(1, "plane construction and axiom validation for q in {2,3,4,5,7}", elapsed)


def test_criterion_02_unique_tangent_and_chain_closure_hold_odd():
    t0 = time.perf_counter()
    for q in (3, 5, 7):
        tq = time.perf_counter()
        rc = check_C(miquelian_plane(q), EX)
        rs = check_S(miquelian_plane(q), EX)
        assert rc.verdict == "Holds" and rc.violation_count == 0, f"C at q={q}"
        assert rs.verdict == "Holds" and rs.violation_count == 0, f"S at q={q}"
        if q == 7:
            assert time.perf_counter() - tq < 120.0
    elapsed = time.perf_counter() - t0
    _announce(2, "C and S hold exhaustively on q in {3,5,7}", elapsed)


def test_criterion_03_characteristic_2_separation():
    t0 = time.perf_counter()
    for q in (2, 4, 8):
        P = miquelian_plane(q)
        rc = check_C(P, EX)
        assert rc.verdict == "Fails" and rc.violations, f"C must fail at q={q}"
        for v in rc.violations:
            assert replay_violation(P, "C", v), f"witness replay at q={q}"
        rp = check_prop_1_1(P, EX)
        assert rp.verdict == "Holds" and rp.hypothesis_hits > 0, f"Prop11 at q={q}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(3, "C fails with replayable witnesses and Prop11 holds on q in {2,4,8}", elapsed)


def test_criterion_04_symmetry_configuration_statements():
    t0 = time.perf_counter()
    for q in (3, 5, 7):
        r1 = check_pi(miquelian_plane(q), EX)
        r2 = check_pi_prime(miquelian_plane(q), EX)
        assert r1.verdict == "Holds" and r1.violation_count == 0, f"Pi at q={q}"
        assert r2.verdict == "Holds" and r2.violation_count == 0, f"PiPrime at q={q}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(4, "Pi and PiPrime hold exhaustively on q in {3,5,7}", elapsed)


def test_criterion_05_tangent_transfer_theorem():
    t0 = time.perf_counter()
    for q in (3, 4, 5):
        rep = check_thm_2_3(miquelian_plane(q), EX)
        assert rep.verdict == "Holds" and rep.violation_count == 0, f"Thm23 at q={q}"
        assert rep.hypothesis_hits > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(5, "Thm23 holds exhaustively on q in {3,4,5} (both characteristics)", elapsed)


def test_criterion_06_miquel_bundle_separation():
    t0 = time.perf_counter()
    mode = CheckMode.sample(100000, 42)
    P5 = miquelian_plane(5)
    O8 = oval_plane(8, oval_table_power(8, 4))
    rm5 = check_miquel(P5, mode)
    assert rm5.verdict == "Holds(sampled)" and rm5.hypothesis_hits > 0
    rm8 = check_miquel(O8, mode)
    assert rm8.verdict == "Fails" and rm8.violations
    for v in rm8.violations:
        assert replay_violation(O8, "Miquel", v)
        assert len(set(v.points)) == 8
    rb5 = check_bundle(P5, mode)
    rb8 = check_bundle(O8, mode)
    assert rb5.verdict == "Holds(sampled)" and rb5.hypothesis_hits > 0
    assert rb8.verdict == "Holds(sampled)" and rb8.hypothesis_hits > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _announce(6, "Miquel separates the translation-oval plane; Bundle holds on both", elapsed)


def test_criterion_07_double_tangency_symmetry_properties():
    t0 = time.perf_counter()
    P3 = miquelian_plane(3)
    swept = 0
    for K in range(P3.n_circles):
        for L in range(K + 1, P3.n_circles):
            if meet_count(P3.pair_code[K, L]) == 1:
                continue
            phi = build_dts(P3, K, L)  # auxiliary independence verified inside
            rep = verify_dts(P3, phi, K, L)
            assert rep.holds and rep.violation_count == 0, (K, L)
            swept += 1
    assert swept == 243
    sweep_elapsed = time.perf_counter() - t0
    assert sweep_elapsed < 60.0

    t1 = time.perf_counter()
    for q in (5, 7):
        pairs = sample_nontangent_pairs(miquelian_plane(q), 100, seed=20240814)
        assert len(pairs) >= 100
        for K, L in pairs:
            P = miquelian_plane(q)
            phi = build_dts(P, K, L)
            rep = verify_dts(P, phi, K, L)
            assert rep.holds and rep.violation_count == 0, (q, K, L)
    sampled_elapsed = time.perf_counter() - t1
    assert sampled_elapsed < 120.0
    _announce(7, "all five symmetry properties hold: q=3 full sweep and "
                 "100 sampled pairs each at q=5,7", sweep_elapsed + sampled_elapsed)


def test_criterion_08_laguerre_symmetry_classification_and_uniqueness():
    t0 = time.perf_counter()
    P3 = miquelian_plane(3)
    secant = 0
    for K in range(P3.n_circles):
        for L in range(K + 1, P3.n_circles):
            if meet_count(P3.pair_code[K, L]) != 2:
                continue
            cls = classify_symmetry(P3, K, L)
            assert cls.kind == "LaguerreSymmetry", (K, L)
            gens = {int(P3.gen_of[p]) for p in P3.tangency(K, L).points}
            assert set(cls.fixed_generators) == gens
            secant += 1
    assert secant > 0

    P5 = miquelian_plane(5)
    secant = [(K, L) for K, L in sample_nontangent_pairs(P5, 80, seed=8)
              if meet_count(P5.pair_code[K, L]) == 2]
    assert len(secant) >= 40
    for K, L in secant[:40]:
        cls = classify_symmetry(P5, K, L)
        assert cls.kind == "LaguerreSymmetry", (K, L)
        assert cls.fixed_generators is not None and cls.witness_circle is not None

    memo = {}
    for P, Q in itertools.combinations(range(P3.n_gens), 2):
        for M in range(P3.n_circles):
            rep = loop_uniqueness(P3, P, Q, M, memo)
            assert rep.verdict == "Holds", (P, Q, M)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _announce(8, "secant pairs classify as Laguerre symmetries; uniqueness holds "
                 "on all (P,Q,M) at q=3", elapsed)


def test_criterion_09_inversive_candidate_extraction():
    t0 = time.perf_counter()
    P5 = miquelian_plane(5)
    K, L, phi = find_fixed_point_free_pair(P5)
    assert meet_count(P5.pair_code[K, L]) == 0
    assert not phi.fixed_points()
    cand = moebius_extract(P5, phi)
    assert len(cand.points) == 26
    census = cand.block_size_census()
    assert census == {"A": {6: 50}, "B": {6: 15}}
    # recorded outcomes, deterministic; no truth value asserted beyond replay
    assert cand.three_point_report.verdict in ("Holds", "Fails")
    assert cand.touching_report.verdict in ("Holds", "Fails")
    again = moebius_extract(P5, build_dts(P5, K, L))
    assert again.points == cand.points
    assert again.blocks_a == cand.blocks_a and again.blocks_b == cand.blocks_b
    assert again.three_point_report.violation_count == cand.three_point_report.violation_count
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(9, "fixed-point-free pair found; candidate and census reproduce "
                 "deterministically", elapsed)


def test_criterion_10_reproducibility_and_replay(tmp_path, capsys):
    t0 = time.perf_counter()
    commands = [
        ("check", "--q", "5", "--checks", "C,S,Pi", "--mode", "exhaustive"),
        ("check", "--q", "4", "--checks", "C,Prop11,Thm23"),
        ("check", "--q", "5", "--checks", "Miquel,Bundle", "--mode", "sample",
         "--samples", "100000", "--seed", "42"),
        ("moebius", "--q", "5"),
        ("dts", "--q", "5", "--k", "1,0,0", "--l", "4,0,2", "--verify"),
    ]
    replayable = []
    for i, cmd in enumerate(commands):
        a = tmp_path / f"{i}a.json"
        b = tmp_path / f"{i}b.json"
        code_a = cli_main([*cmd, "--out", str(a)])
        code_b = cli_main([*cmd, "--out", str(b)])
        assert code_a == code_b
        assert a.read_bytes() == b.read_bytes(), f"command {cmd} not byte-stable"
        if cmd[0] == "check":
            replayable.append(a)
    # every emitted witness re-validates
    for path in replayable:
        filtered = tmp_path / (path.stem + ".filtered.jsonl")
        keep = [l for l in path.read_text().splitlines()
                if json.loads(l)["verdict"] != "NotApplicable"]
        filtered.write_text("\n".join(keep) + "\n")
        assert cli_main(["replay", "--report", str(filtered)]) == 0
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    _announce(10, "byte-identical reruns and witness replay across commands", elapsed)
