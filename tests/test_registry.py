"""The check registry: every check id the CLI knows is resolved by one
`CheckerSpec`, for running, sizing and replaying alike, and a report of
each id replays through the `replay` command."""

from __future__ import annotations

import dataclasses
import json

import pytest

from laguerre_lab import cli
from laguerre_lab.checks import (
    CHECK_IDS,
    CHECKERS,
    SPECS,
    _Family,
    exhaustive_size,
    replay_violation,
)
from laguerre_lab.models import miquelian_plane
from laguerre_lab.report import CheckReport, Violation


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_all_checks_are_the_axioms_then_the_statement_checkers():
    assert cli.ALL_CHECKS == ("Axioms",) + CHECK_IDS
    assert tuple(SPECS) == cli.ALL_CHECKS
    assert all(SPECS[c].check_id == c for c in SPECS)
    assert all(SPECS[c] is CHECKERS[c] for c in CHECK_IDS)
    assert exhaustive_size(miquelian_plane(3), "Axioms") == 0   # never refused


@pytest.mark.parametrize("check_id", cli.ALL_CHECKS)
def test_one_spec_runs_sizes_and_replays_each_id(tmp_path, monkeypatch, capsys, check_id):
    calls = []
    points, circles = (range(n or 0) for n in SPECS[check_id].witness)
    witness = Violation("any", tuple(points), tuple(circles),
                        tuple((key, 0) for key in SPECS[check_id].data))

    def run(plane, mode):
        calls.append("run")
        report = CheckReport(check_id=check_id, mode=mode)
        for _ in range(2):
            report.add_violation(witness)
        return report.finalize()

    def firsts(plane):
        calls.append("size")
        return _Family()

    def replay(plane, v):
        calls.append("replay")
        return True

    spec = dataclasses.replace(SPECS[check_id], run=run, firsts=firsts, replay=replay)
    monkeypatch.setitem(SPECS, check_id, spec)

    code, out, err = run_cli(capsys, "check", "--q", "3", "--checks", check_id.lower())
    assert (code, err, json.loads(out)["check"]) == (1, "", check_id)
    assert calls == ["size", "run"]

    # replay sizes the line's run as `check` does, runs it once and
    # replays each of its witnesses
    report = tmp_path / "report.jsonl"
    report.write_text(out)
    code, out, err = run_cli(capsys, "replay", "--report", str(report))
    assert (code, err, json.loads(out)["confirmed"]) == (0, "", True)
    assert calls == ["size", "run", "size", "run", "replay", "replay"]

    plane = miquelian_plane(3)
    assert exhaustive_size(plane, check_id) == 0
    assert replay_violation(plane, check_id, Violation("any")) is True
    assert calls == ["size", "run", "size", "run", "replay", "replay", "size", "replay"]


@pytest.mark.parametrize("check_id", cli.ALL_CHECKS)
def test_a_q4_report_of_each_id_replays(tmp_path, capsys, check_id):
    report = tmp_path / "report.jsonl"
    code, _, err = run_cli(capsys, "check", "--q", "4", "--checks", check_id,
                           "--mode", "sample", "--samples", "3000", "--seed", "4",
                           "--out", str(report))
    obj = json.loads(report.read_text())
    assert err == "" and code == (1 if obj["verdict"] == "Fails" else 0)

    code, out, err = run_cli(capsys, "replay", "--report", str(report))
    line = json.loads(out)
    assert (code, err) == (0, "")
    assert line == {"line": 1, "check": check_id,
                    "witnesses": len(obj["violations"]), "confirmed": True}
