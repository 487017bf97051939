"""Recorded behavior of the symmetry construction on characteristic-2
planes, and the exit-code contract around it."""

from __future__ import annotations

import json

import numpy as np
import pytest

from laguerre_lab import cli
from laguerre_lab.checks import check_S, replay_violation
from laguerre_lab.errors import NotUnique, WellDefinednessFailure
from laguerre_lab.models import miquelian_plane
from laguerre_lab.plane import meet_count
from laguerre_lab.report import CheckMode
from laguerre_lab.symmetry import build_dts


def test_build_dts_refuses_char2():
    # the construction needs the unique-tangent axiom, which fails here
    P = miquelian_plane(4)
    K = P.circle_from_coef((0, 0, 0)).id
    L = P.circle_from_coef((1, 1, 1)).id
    assert P.tangency(K, L).kind == "secant"
    with pytest.raises(NotUnique):
        build_dts(P, K, L)


def test_order_two_has_disjoint_pairs_but_no_symmetry():
    # recorded: four disjoint pairs exist, none admits the construction
    P = miquelian_plane(2)
    T = meet_count(P.pair_code)
    disjoint = [(K, int(L)) for K in range(P.n_circles)
                for L in np.nonzero(T[K] == 0)[0] if L > K]
    assert len(disjoint) == 4
    for K, L in disjoint:
        with pytest.raises(NotUnique):
            build_dts(P, K, L)


def test_cli_moebius_q2_refusal_exit(capsys):
    assert cli.main(["moebius", "--q", "2"]) == 1
    assert "construction unavailable" in capsys.readouterr().err


def test_cli_dts_char2_exit_one(capsys):
    code = cli.main(["dts", "--q", "4", "--k", "0,0,0", "--l", "1,1,1"])
    assert code == 1
    assert "construction unavailable" in capsys.readouterr().err


def test_cli_internal_breach_exit_three(capsys, monkeypatch):
    # a well-definedness failure on an odd-order plane is a code bug by
    # the theory, and must surface as exit code 3
    def broken(*args, **kwargs):
        raise WellDefinednessFailure(0, 1, 2)

    monkeypatch.setattr(cli._symmetry, "build_dts", broken)
    code = cli.main(["dts", "--q", "5", "--k", "1,0,0", "--l", "4,0,2"])
    assert code == 3
    assert "internal invariant breach" in capsys.readouterr().err


def test_cli_dts_notunique_odd_is_breach(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise NotUnique(2)

    monkeypatch.setattr(cli._symmetry, "build_dts", broken)
    code = cli.main(["dts", "--q", "5", "--k", "1,0,0", "--l", "4,0,2"])
    assert code == 3


def test_chain_closure_witnesses_replay_at_q4():
    P = miquelian_plane(4)
    rep = check_S(P, CheckMode.exhaustive())
    assert rep.verdict == "Fails"
    for v in rep.violations:
        assert replay_violation(P, "S", v)


def _dts_verify_line(q, k, l):
    return json.dumps({"check": "DtsVerify", "q": q, "model": "miquelian", "violations": [],
                       "pair": {"K": {"coef": k}, "L": {"coef": l}}}) + "\n"


def test_cli_moebius_and_replay_notunique_exit_by_order(tmp_path, capsys, monkeypatch):
    # NotUnique is a refusal (exit 1) on even order and a breach (exit 3) on
    # odd order for every command; moebius and replay exited 1 on both
    report = tmp_path / "dts.jsonl"
    report.write_text(_dts_verify_line(4, [0, 0, 0], [1, 1, 1]))
    assert cli.main(["replay", "--report", str(report)]) == 1
    assert "construction unavailable" in capsys.readouterr().err

    def broken(*args, **kwargs):
        raise NotUnique(2)

    monkeypatch.setattr(cli._symmetry, "build_dts", broken)
    monkeypatch.setattr(cli._symmetry, "find_fixed_point_free_pair", broken)
    report.write_text(_dts_verify_line(5, [1, 0, 0], [4, 0, 2]))
    for argv in (["moebius", "--q", "5"], ["replay", "--report", str(report)]):
        assert cli.main(argv) == 3, argv
        assert "internal invariant breach" in capsys.readouterr().err
