"""CLI surface tests: formats, exit codes, reproducibility, replay."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from laguerre_lab import cli
from laguerre_lab.cli import main
from laguerre_lab.checks import exhaustive_size
from laguerre_lab.models import miquelian_plane
from laguerre_lab.report import EXHAUSTIVE_LIMIT


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_json_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "check", "--q", "3", "--checks", "C")
    assert code == 0
    assert out == ('{"check":"C","q":3,"model":"miquelian","mode":"exhaustive",'
                   '"seed":null,"configurations":2916,"skipped":0,"violations":[],'
                   '"verdict":"Holds","elapsedSeconds":0.0}\n')


def test_check_multi_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "check", "--q", "5", "--checks", "C,S,Pi")
    assert code == 0
    lines = out.strip().splitlines()
    assert [json.loads(l)["check"] for l in lines] == ["C", "S", "Pi"]
    assert all(json.loads(l)["verdict"] == "Holds" for l in lines)

    code, out, _ = run_cli(capsys, "check", "--q", "4", "--checks", "C")
    assert code == 1
    obj = json.loads(out)
    assert obj["verdict"] == "Fails"
    assert obj["violations"][0]["circles"][0]["coef"] is not None


def test_check_all_runs_every_checker(capsys):
    code, out, _ = run_cli(capsys, "check", "--q", "3", "--checks", "all",
                           "--mode", "sample", "--samples", "200", "--seed", "1")
    assert code == 0
    checks = [json.loads(l)["check"] for l in out.strip().splitlines()]
    assert checks[0] == "Axioms" and len(checks) == 12


def test_usage_errors(capsys):
    assert run_cli(capsys, "check", "--q", "3", "--checks", "Nope")[0] == 2
    assert run_cli(capsys, "check", "--q", "9", "--checks", "S")[0] == 2  # over limit
    assert run_cli(capsys, "check", "--q", "3", "--checks", "S",
                   "--mode", "sample")[0] == 2  # seed missing
    assert run_cli(capsys, "check", "--q", "3", "--model", "oval",
                   "--checks", "C")[0] == 2  # a label lists the table: oval:v0,...
    # a malformed value names the model or option it came from
    for argv, err in (
            (("check", "--q", "3", "--model", "oval:a,b,c", "--checks", "C"),
             "error: model oval:a,b,c must list one integer o(x) per x\n"),
            (("check", "--q", "3", "--model", "oval:0,,1", "--checks", "C"),
             "error: model oval:0,,1 must list one integer o(x) per x\n"),
            (("check", "--q", "3", "--model", "oval:0,1,9", "--checks", "C"),
             "error: model oval:0,1,9 must list values in 0..2\n"),
            (("dts", "--q", "3", "--model", "oval:0,1,9", "--sample-pairs", "1", "--seed", "1"),
             "error: model oval:0,1,9 must list values in 0..2\n"),
            (("moebius", "--q", "3", "--model", "oval:0,1,9"),
             "error: model oval:0,1,9 must list values in 0..2\n"),
            (("dts", "--q", "3", "--k", "1,0,x", "--l", "0,0,0"),
             "error: --k expects integer coefficients a,b,c, got '1,0,x'\n"),
            (("moebius", "--q", "3", "--k", "0,0,0", "--l", "1,0"),
             "error: --l expects integer coefficients a,b,c, got '1,0'\n")):
        assert run_cli(capsys, *argv) == (2, "", err), argv


@pytest.mark.parametrize("options, flag", [
    (("--mode", "exhaustive", "--seed", "3", "--samples", "7"), "--seed"),
    (("--seed", "3"), "--seed"),
    (("--samples", "7"), "--samples"),
])
def test_exhaustive_check_refuses_the_options_it_does_not_read(capsys, options, flag):
    # an exhaustive run draws nothing: the seed and sample count were ignored
    code, out, err = run_cli(capsys, "check", "--q", "3", "--checks", "C", *options)
    assert (code, out, err) == (2, "", f"error: {flag} is read only in sample mode\n")


def test_sample_mode_draws_100000_rows_unless_told(capsys):
    args = ("check", "--q", "3", "--checks", "C,S", "--mode", "sample", "--seed", "1")
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and err == ""
    assert {json.loads(line)["configurations"] for line in out.splitlines()} == {100_000}
    assert run_cli(capsys, *args, "--samples", "100000") == (code, out, err)


@pytest.mark.parametrize("count", ["0", "-2"])
def test_a_sample_count_below_one_exits_two_with_one_line(capsys, count):
    code, out, err = run_cli(capsys, "check", "--q", "3", "--checks", "C", "--mode", "sample",
                             "--samples", count, "--seed", "1")
    assert (code, out, err) == (2, "", "error: sample count must be positive\n")


def test_dts_with_a_pair_refuses_a_seed(capsys):
    # an explicit pair draws nothing: the seed was ignored
    code, out, err = run_cli(capsys, "dts", "--q", "5", "--k", "1,0,0", "--l", "4,0,2",
                             "--seed", "3")
    assert (code, out, err) == (2, "", "error: --seed is read only with --sample-pairs\n")


@pytest.mark.parametrize("pairs", [("--k", "1,0,0", "--l", "4,0,2"),
                                   ("--sample-pairs", "2", "--seed", "1")])
def test_dts_without_verify_refuses_timings(capsys, pairs):
    # no DtsClassify line carries a time: the flag changed no byte
    code, out, err = run_cli(capsys, "dts", "--q", "5", *pairs, "--timings")
    assert (code, out, err) == (2, "", "error: --timings is read only with --verify\n")
    assert run_cli(capsys, "dts", "--q", "5", *pairs, "--timings", "--verify")[0] == 0


def test_exhaustive_closures_reach_order_five(capsys):
    # with f (and Bundle's h) derived, the closures' exhaustive choice
    # spaces at q=5 fit under the 10^8 limit, and both run here: Miquel's
    # 4.86e7 configurations in about 1 s, Bundle's 4.05e7 in about 3 s
    for check_id, want in (("Miquel", (48600000, 6750000)), ("Bundle", (40500000, 3360000))):
        assert exhaustive_size(miquelian_plane(5), check_id) == want[0] <= EXHAUSTIVE_LIMIT
        code, out, _ = run_cli(capsys, "check", "--q", "5", "--checks", check_id)
        assert code == 0
        obj = json.loads(out)
        assert (obj["configurations"], obj["skipped"], obj["verdict"]) == (*want, "Holds")
    for check_id in ("Miquel", "Bundle"):
        assert run_cli(capsys, "check", "--q", "7", "--checks", check_id)[0] == 2  # over limit


def test_env_seed(capsys, monkeypatch):
    # the seed comes from --seed alone; the environment was a second route
    monkeypatch.setenv("LAGUERRE_LAB_SEED", "9")
    for argv in (("check", "--q", "3", "--checks", "S", "--mode", "sample", "--samples", "100"),
                 ("dts", "--q", "5", "--sample-pairs", "1")):
        assert run_cli(capsys, *argv) == (2, "", "error: sample mode needs --seed\n"), argv


def test_csv_and_text_formats(capsys):
    code, out, _ = run_cli(capsys, "check", "--q", "3", "--checks", "C,S",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("check,q,model,mode,seed,configurations")
    assert len(lines) == 3
    code, out, _ = run_cli(capsys, "check", "--q", "3", "--checks", "C",
                           "--format", "text")
    assert "Holds" in out


def test_text_format_is_byte_identical_and_timed_only_on_request(capsys):
    args = ("check", "--q", "4", "--checks", "all", "--mode", "sample",
            "--samples", "20000", "--seed", "1", "--format", "text")
    first = run_cli(capsys, *args)
    assert first == run_cli(capsys, *args)
    assert not re.search(r"\(\d+\.\d\ds\)", first[1])
    timed = run_cli(capsys, *args, "--timings")[1]
    assert len(re.findall(r"\(\d+\.\d\ds\)", timed)) == len(cli.ALL_CHECKS)


def test_the_axioms_line_is_timed_on_request(capsys):
    # the report the plane keeps from its validation carries that time
    args = ("check", "--q", "7", "--checks", "Axioms")
    plain = ('{"check":"Axioms","q":7,"model":"miquelian","mode":"exhaustive","seed":null,'
             '"configurations":137543,"skipped":0,"violations":[],"verdict":"Holds",'
             '"elapsedSeconds":0.0}\n')
    assert run_cli(capsys, *args) == (0, plain, "")
    code, out, _ = run_cli(capsys, *args, "--timings")
    timed = json.loads(out)
    assert code == 0 and timed["elapsedSeconds"] > 0
    assert {**timed, "elapsedSeconds": 0.0} == json.loads(plain)
    assert run_cli(capsys, *args) == (0, plain, "")


def test_byte_identical_reruns(tmp_path, capsys):
    args = ("check", "--q", "5", "--checks", "Miquel,Bundle", "--mode", "sample",
            "--samples", "20000", "--seed", "42")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_oval_label(capsys):
    code, out, _ = run_cli(capsys, "check", "--q", "8", "--model", "oval:0,1,6,7,2,3,4,5",
                           "--checks", "Bundle", "--mode", "sample", "--samples", "30000",
                           "--seed", "42")
    assert code == 0
    obj = json.loads(out)
    assert obj["model"] == "oval:0,1,6,7,2,3,4,5"
    assert obj["verdict"] == "Holds(sampled)"


@pytest.mark.parametrize("model", [(), ("--model", "miquelian"), ("--model", "oval:0,1,1")])
@pytest.mark.parametrize("argv", [("check", "--checks", "Axioms"), ("dts",), ("moebius",)])
def test_an_oval_table_without_model_oval_is_a_usage_error(capsys, argv, model):
    # a plane is named by its label alone: the parser knows no table file
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--q", "3", *model, "--oval-table", "oval3.txt", *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments: --oval-table" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("check", "--checks", "Axioms"), ("dts",), ("moebius",)])
def test_an_oval_label_of_another_order_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "--q", "13",
                             "--model", "oval:0,1,6,7,2,3,4,5", *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: model oval:0,1,6,7,2,3,4,5 has order 8, not 13\n"


@pytest.mark.parametrize("argv", [("check", "--checks", "Axioms"), ("dts",), ("moebius",)])
def test_a_label_that_names_no_plane_is_a_usage_error(capsys, argv):
    # the candidate's failed axiom exited 1, which reads as a failed check
    code, out, err = run_cli(capsys, argv[0], "--q", "3", "--model", "oval:0,1,2", *argv[1:])
    assert (code, out, err) == (2, "", "error: candidate structure fails: axiom1\n")


def test_dts_explicit_pair(tmp_path, capsys):
    export = tmp_path / "phi.txt"
    code, out, _ = run_cli(capsys, "dts", "--q", "5", "--k", "1,0,0",
                           "--l", "4,0,2", "--verify", "--export", str(export))
    assert code == 0
    objs = [json.loads(l) for l in out.strip().splitlines()]
    assert objs[0]["check"] == "DtsClassify"
    assert objs[0]["kind"] == "LaguerreSymmetry"
    assert objs[0]["fixedGenerators"] == [1, 4]
    assert objs[1]["check"] == "DtsVerify"
    assert objs[1]["verdict"] == "Holds"
    assert export.read_text().startswith("dts q=5 K=1,0,0 L=4,0,2\n")


def test_dts_sampled_pairs(capsys):
    code, out, _ = run_cli(capsys, "dts", "--q", "5", "--sample-pairs", "5",
                           "--seed", "3", "--verify")
    assert code == 0
    objs = [json.loads(l) for l in out.strip().splitlines()]
    assert len(objs) == 10  # classify + verify per pair
    assert all(o["verdict"] == "Holds" for o in objs if o["check"] == "DtsVerify")


@pytest.mark.parametrize("count", ["244"])
def test_dts_impossible_sample_pair_count_exits_two(capsys, count):
    # q=3 has 243 non-tangent pairs: 244 never ended
    code, out, err = run_cli(capsys, "dts", "--q", "3", "--sample-pairs", count, "--seed", "1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "243 non-tangent pairs" in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_dts_sample_pairs_must_be_positive(capsys, count):
    # 0 read as an absent option, -3 as a count the plane cannot give
    code, out, err = run_cli(capsys, "dts", "--q", "3", "--sample-pairs", count, "--seed", "1")
    assert (code, out, err) == (2, "", "error: --sample-pairs must be positive\n")


def test_dts_tangent_pair_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "dts", "--q", "5", "--k", "1,0,0", "--l", "1,0,1")
    assert code == 2
    assert "tangent" in err


@pytest.mark.parametrize("cmd,err", [
    ("dts", "error: circles 0,0 are equal\n"),
    ("moebius", "error: the selected pair is equal; a disjoint pair is required\n")])
def test_an_equal_pair_is_named_equal(capsys, cmd, err):
    assert run_cli(capsys, cmd, "--q", "5", "--k", "0,0,0", "--l", "0,0,0") == (2, "", err)


def test_moebius_auto_and_explicit(capsys):
    code, out, _ = run_cli(capsys, "moebius", "--q", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] and obj["points"] == 26
    assert obj["blocksTypeA"] == 50 and obj["blocksTypeB"] == 15
    assert obj["touchingAxiom"]["verdict"] == "Holds"
    assert obj["threePointAxiom"]["verdict"] == "Fails"
    # explicit secant pair is rejected
    assert run_cli(capsys, "moebius", "--q", "5", "--k", "1,0,0", "--l", "4,0,2")[0] == 2
    # explicit tangent pair is rejected
    assert run_cli(capsys, "moebius", "--q", "5", "--k", "1,0,0", "--l", "1,0,1")[0] == 2


def test_moebius_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, "moebius", "--q", "5", "--out", str(a))[0] == 0
    assert run_cli(capsys, "moebius", "--q", "5", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_replay_confirms_and_detects_tampering(tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    run_cli(capsys, "check", "--q", "4", "--checks", "C,Prop21,S",
            "--out", str(report))
    code, out, _ = run_cli(capsys, "replay", "--report", str(report))
    assert code == 0
    assert all(json.loads(l)["confirmed"] for l in out.strip().splitlines())

    # tamper with a witness point: the replay must refuse it
    lines = report.read_text().splitlines()
    obj = json.loads(lines[0])
    obj["violations"][0]["points"][0] = (obj["violations"][0]["points"][0] + 1) % 20
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text(json.dumps(obj, separators=(",", ":")) + "\n")
    code, out, _ = run_cli(capsys, "replay", "--report", str(tampered))
    assert code == 1


def test_replay_dts_report(tmp_path, capsys):
    report = tmp_path / "dts.jsonl"
    run_cli(capsys, "dts", "--q", "5", "--k", "1,0,0", "--l", "4,0,2",
            "--verify", "--out", str(report))
    lines = [l for l in report.read_text().splitlines()
             if json.loads(l)["check"] == "DtsVerify"]
    report.write_text("\n".join(lines) + "\n")
    assert run_cli(capsys, "replay", "--report", str(report))[0] == 0


def test_module_entry_point():
    # the child imports the checkout's package, as the test process does
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "laguerre_lab", "check", "--q", "2", "--checks", "Axioms"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "Holds"


def test_replay_malformed_lines_exit_two_with_one_error_line(tmp_path, capsys):
    good = json.loads(run_cli(capsys, "check", "--q", "3", "--checks", "C")[1])
    sampled = json.loads(run_cli(capsys, "check", "--q", "3", "--checks", "C", "--mode",
                                 "sample", "--samples", "100", "--seed", "3")[1])
    bad_lines = [
        {k: v for k, v in good.items() if k != "check"},
        {k: v for k, v in good.items() if k != "q"},
        {k: v for k, v in good.items() if k != "model"},
        # a checker's line holds every key of its report but the time
        *({k: v for k, v in good.items() if k != key}
          for key in ("mode", "seed", "configurations", "skipped", "verdict")),
        dict(good, mode="sample:x"),
        dict(good, mode=5),
        dict(good, skipped="0"),
        dict(good, violations=[{"kind": "C", "circles": [7]}]),
        dict(good, check="DtsVerify"),
        dict(good, model=5),
        dict(good, model="oval:0,1,9"),
        [1, 2],
        # violations that are not a list, or missing where a line lists
        # witnesses: a checker's line or DtsVerify's
        dict(good, violations={}),
        dict(good, violations=""),
        dict(good, violations={"a": 1}),
        {k: v for k, v in good.items() if k != "violations"},
        {"check": "DtsVerify", "q": 3, "model": "miquelian",
         "pair": {"K": {"coef": [0, 0, 0]}, "L": {"coef": [1, 0, 1]}}},
        dict(good, check=["C"]),
        # a sampled line's seed is read as --seed is: an integer in [0, 2^64)
        *(dict(sampled, seed=seed) for seed in (2**70, -1, "3", 3.0)),
        # a mode is read only as `CheckMode.label` writes it
        *(dict(sampled, mode=mode) for mode in ("sample: 5", "sample:5_0", "5")),
    ]
    report = tmp_path / "bad.jsonl"
    for obj in bad_lines:
        report.write_text(json.dumps(good) + "\n" + json.dumps(obj) + "\n")
        code, out, err = run_cli(capsys, "replay", "--report", str(report))
        assert code == 2, obj
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and ":2:" in err, err
    report.write_text(json.dumps(dict(good, model="oval:0,1,9")) + "\n")
    assert run_cli(capsys, "replay", "--report", str(report)) == (
        2, "", f"error: {report}:1: model oval:0,1,9 must list values in 0..2\n")
    report.write_text("{not json\n")
    code, _, err = run_cli(capsys, "replay", "--report", str(report))
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_replay_of_a_report_with_no_line_exits_two(tmp_path, capsys, text):
    report = tmp_path / "empty.jsonl"
    report.write_text(text)
    assert run_cli(capsys, "replay", "--report", str(report)) == (
        2, "", f"error: {report}: holds no report line\n")


def test_replay_malformed_witnesses_name_the_line_and_exit_two(tmp_path, capsys):
    def c_witness(points, circles):
        return {"kind": "tangent-count", "points": points,
                "circles": [{"id": c} for c in circles], "data": {"count": 0}}

    good = json.loads(run_cli(capsys, "check", "--q", "3", "--checks", "C")[1])
    bad_lines = [
        dict(good, violations=[c_witness([0, 1, 2, 3], [5000])]),
        dict(good, violations=[c_witness([0, 1], [0, 1])]),
        dict(good, violations=[c_witness([-7], [0, 1])]),
        dict(good, violations=[c_witness([0], [0, 27])]),
        dict(good, violations=[dict(c_witness([0], [0, 1]), data={})]),
        dict(good, violations=[dict(c_witness([0], [0, 1]), kind=5)]),
        dict(good, check="S", violations=[c_witness([0, 1, 2], [0, 1, 2, 3])]),
        dict(good, check="NoSuchCheck", violations=[c_witness([0], [0, 1])]),
        dict(good, q=6),
        dict(good, q=3.7),
        dict(good, q="3"),
        dict(good, model="oval:0,1,6,7,2,3,4,5"),
        {"check": "DtsVerify", "q": 3, "model": "miquelian", "violations": [],
         "pair": {"K": {"coef": [9, 9, 9]}, "L": {"coef": [0, 0, 0]}}},
        {"check": "DtsVerify", "q": 3, "model": "miquelian", "violations": [],
         "pair": {"K": {"coef": [0, 0, 0]}, "L": {"coef": [0, 0, 0]}}},
    ]
    report = tmp_path / "bad.jsonl"
    for obj in bad_lines:
        report.write_text(json.dumps(good) + "\n" + json.dumps(obj) + "\n")
        code, out, err = run_cli(capsys, "replay", "--report", str(report))
        assert code == 2 and out == "", obj
        assert err.startswith(f"error: {report}:2: ") and err.count("\n") == 1, err

    # well-formed witnesses that show no violation are refused, not errors:
    # point 1 is off circle 0, and the unique tangent at point 0 has count 1
    for witness in (c_witness([1], [0, 5]), c_witness([0], [0, 5])):
        report.write_text(json.dumps(dict(good, violations=[witness])) + "\n")
        code, out, err = run_cli(capsys, "replay", "--report", str(report))
        assert (code, err) == (1, "")
        assert json.loads(out)["confirmed"] is False


C_LINE = ("check", "--q", "4", "--checks", "C")
DTS_LINE = ("dts", "--q", "5", "--k", "1,0,0", "--l", "4,0,2")


@pytest.mark.parametrize("argv, old, new, problem", [
    (C_LINE, '"points":[0]', '"points":[0.9]', "points must be integers, got [0.9]"),
    (C_LINE, '{"id":0,', '{"id":"0",', "circle ids must be integers, got ['0', 1]"),
    (C_LINE, '"count":4}', '"count":4.5}', "data values must be integers, got [4.5]"),
    (DTS_LINE, '"coef":[1,0,0]', '"coef":[1,0,false]', "coef must be integers, got [1, 0, False]"),
    (DTS_LINE, '"coef":[1,0,0]', '"coef":"100"', "coef must be integers, got ['1', '0', '0']"),
], ids=["point", "circle-id", "data-value", "coef-bool", "coef-string"])
def test_replayed_ids_must_be_json_integers(tmp_path, capsys, argv, old, new, problem):
    # each went through int(): the first witness of C at q=4 with point 0.9,
    # circle "0" or count 4.5, and a pair (1, 0, False) or "100", each read
    # as the id or circle it was edited from, and the line was confirmed
    line = run_cli(capsys, *argv)[1].strip()
    assert old in line
    code, out, err = _replay_lines(tmp_path, capsys, line.replace(old, new, 1))
    assert (code, out, err) == (2, [], f"error: R:1: malformed report line (TypeError: {problem})\n")


def test_seed_range_is_checked_on_every_command(capsys):
    sample = ("check", "--q", "3", "--checks", "S", "--mode", "sample", "--samples", "100")
    for seed in ("-1", str(2**64), str(2**64 + 5)):
        for argv in (sample, ("dts", "--q", "5", "--sample-pairs", "1")):
            code, out, err = run_cli(capsys, *argv, "--seed", seed)
            assert code == 2 and out == "", argv
            assert err.startswith("error: --seed must be in [0, 2^64)") and err.count("\n") == 1
    # moebius draws nothing and takes no seed: argparse refuses the option
    with pytest.raises(SystemExit) as exc:
        main(["moebius", "--q", "3", "--seed", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, *sample, "--seed", str(2**64 - 1))
    assert code == 0 and json.loads(out)["seed"] == 2**64 - 1


def test_the_option_surface_is_pinned():
    # a new option must be a deliberate edit of this list
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    surface = {name: [o for a in p._actions for o in a.option_strings
                      if o not in ("-h", "--help")]
               for name, p in subparsers.choices.items()}
    assert surface == {
        "check": ["--q", "--model", "--checks", "--mode", "--samples", "--seed",
                  "--format", "--out", "--timings"],
        "dts": ["--q", "--model", "--k", "--l", "--sample-pairs", "--seed", "--verify",
                "--export", "--format", "--out", "--timings"],
        "moebius": ["--q", "--model", "--k", "--l", "--out", "--timings"],
        "replay": ["--report", "--out"],
    }


def test_parser_is_built_once_and_each_call_parses_afresh(capsys, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        code, csv_out, _ = run_cli(capsys, "check", "--q", "3", "--checks", "C", "--format", "csv")
        assert code == 0 and csv_out.startswith("check,")
        with pytest.raises(SystemExit) as exc:
            main(["check", "--checks", "C"])        # --q missing: argparse exits 2
        assert exc.value.code == 2
        code, out, _ = run_cli(capsys, "check", "--q", "3", "--checks", "C")
        assert code == 0 and json.loads(out)["check"] == "C"
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_check_csv_and_text_bytes_are_pinned(capsys):
    args = ("check", "--q", "3", "--checks", "C,S", "--format")
    assert run_cli(capsys, *args, "csv") == (0, (
        "check,q,model,mode,seed,configurations,skipped,violationCount,verdict,elapsedSeconds\n"
        "C,3,miquelian,exhaustive,,2916,0,0,Holds,0.0\n"
        "S,3,miquelian,exhaustive,,13824,0,0,Holds,0.0\n"), "")
    assert run_cli(capsys, *args, "text") == (0, (
        "[         Holds] C          q=3 model=miquelian mode=exhaustive configs=2916 "
        "hits=1944 skipped=0 violations=0\n"
        "[         Holds] S          q=3 model=miquelian mode=exhaustive configs=13824 "
        "hits=3888 skipped=0 violations=0\n"), "")


def test_dts_text_is_the_indented_json(capsys):
    args = ("dts", "--q", "5", "--k", "1,0,0", "--l", "4,0,2", "--verify")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    code, text, _ = run_cli(capsys, *args, "--format", "text")
    assert code == 0
    assert text == "".join(json.dumps(json.loads(l), indent=2) + "\n"
                           for l in out.splitlines())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8b550bf01d1b3868e1cb225c769c40f7fad49cf23619c941ce034e61c8e2ec32")


@pytest.mark.parametrize("argv, digests", [
    (("dts", "--q", "9", "--sample-pairs", "20", "--seed", "7", "--verify"),
     {"stdout": "f6f6f64239d359fbd846fdf798d7fc05c0866f400553d69d4f759a03ddc61ce4"}),
    (("dts", "--q", "9", "--k", "0,0,0", "--l", "1,0,1", "--verify", "--out", "F", "--export", "G"),
     {"stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
      "F": "d51e4ca9a4c75c6eb0a1c8341af627679f7ae8afc7ba86977cfd01dc7ca0afa1",
      "G": "05a2202b7f00a92d4bc31a067c29b124f290a9cc6bcef54603d29db6dee8245f"}),
    (("dts", "--q", "9", "--k", "0,0,0", "--l", "1,0,4", "--verify", "--out", "F", "--export", "G"),
     {"stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
      "F": "00c6935e7e05bb02e689c20c89ee612e80233ed91d62b6e44d51efa566ae06ea",
      "G": "2f21a19058ee3783c4149b85b3e5ab5d3cf583a6f47b3e1ea001972a65f067fa"}),
    (("moebius", "--q", "7"),
     {"stdout": "045815fd117aac2257dce88d71ac99938356c7de1c1e2f5d363c9f149ddd8a05"}),
], ids=["dts-sampled", "dts-secant-files", "dts-disjoint-files", "moebius"])
def test_symmetry_request_bytes_are_pinned(tmp_path, capsys, monkeypatch, argv, digests):
    # the request that builds, classifies, verifies and exports a symmetry,
    # pinned before its tables came to be read through flat takes; of the
    # explicit pairs at q=9, (0,0,0) and (1,0,1) are secant, (0,0,0) and
    # (1,0,4) disjoint
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    got = {"stdout": out} | {name: (tmp_path / name).read_text()
                             for name in digests if name != "stdout"}
    assert {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in got.items()} == digests


@pytest.mark.parametrize("argv", [
    ("moebius", "--q", "5", "--format", "csv"),
    ("moebius", "--q", "5", "--format", "json"),
    ("replay", "--report", "r.jsonl", "--format", "json"),
    ("replay", "--report", "r.jsonl", "--timings"),
    ("dts", "--q", "5", "--k", "1,0,0", "--l", "4,0,2", "--format", "csv"),
])
def test_options_that_would_change_nothing_are_refused(capsys, argv):
    # each of these was accepted and gave the same bytes as its default
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    option = next(a for a in reversed(argv) if a.startswith("--"))
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dts", "moebius"])
@pytest.mark.parametrize("given", [("--k", "1,0,0"), ("--l", "4,0,2")])
def test_a_lone_k_or_l_is_a_usage_error(capsys, command, given):
    # moebius ignored a lone --k, searched for a pair of its own and exited 0
    code, out, err = run_cli(capsys, command, "--q", "5", *given)
    assert (code, out) == (2, "")
    assert err == "error: give --k a,b,c and --l a,b,c together\n"


def test_dts_takes_a_pair_or_sampled_pairs_not_both(capsys):
    # the pair was read and then ignored in favour of the sampled pairs
    code, out, err = run_cli(capsys, "dts", "--q", "5", "--k", "1,0,0", "--l", "4,0,2",
                             "--sample-pairs", "2", "--seed", "1")
    assert (code, out) == (2, "")
    assert err == "error: give --k a,b,c and --l a,b,c, or --sample-pairs N\n"


@pytest.mark.parametrize("q,count", [(5, 1), (7, 100)])
def test_dts_export_needs_an_explicit_pair(tmp_path, capsys, q, count):
    # one sampled pair was exported; a hundred were built and verified first
    export = tmp_path / "phi.txt"
    code, out, err = run_cli(capsys, "dts", "--q", str(q), "--sample-pairs", str(count),
                             "--seed", "7", "--verify", "--export", str(export))
    assert (code, out, err) == (2, "", "error: --export works with a single explicit pair\n")
    assert not export.exists()


def _replay_lines(tmp_path, capsys, *lines):
    report = tmp_path / "lines.jsonl"
    report.write_text("".join(line + "\n" for line in lines))
    code, out, err = run_cli(capsys, "replay", "--report", str(report))
    return code, [json.loads(l) for l in out.splitlines()], err.replace(str(report), "R")


def test_replay_rebuilds_dts_classify_and_moebius_lines(tmp_path, capsys):
    # both lines were confirmed without a field being checked
    code, out, err = _replay_lines(
        tmp_path, capsys,
        '{"check":"Moebius","q":5,"model":"miquelian","found":true,"points":999}')
    assert (code, out) == (2, [])
    assert err == "error: R:1: malformed report line (KeyError: 'pair')\n"
    code, out, err = _replay_lines(
        tmp_path, capsys,
        '{"check":"DtsClassify","q":5,"model":"miquelian","kind":"Other",'
        '"pair":{"K":{"id":0,"coef":[0,0,0]},"L":{"id":0,"coef":[0,0,0]}}}')
    assert (code, out, err) == (2, [], "error: R:1: pair: circles 0,0 are equal\n")

    moebius = run_cli(capsys, "moebius", "--q", "5", "--timings")[1].strip()
    assert json.loads(moebius)["touchingAxiom"]["elapsedSeconds"] > 0
    classify, verify = run_cli(capsys, "dts", "--q", "5", "--k", "1,0,0", "--l", "4,0,2",
                               "--verify", "--timings")[1].split()
    assert json.loads(verify)["elapsedSeconds"] > 0
    # genuine lines confirm, elapsed times aside; one changed field does not.
    # A DtsVerify line's witnesses were looked up alone, so its verdict and
    # counts were confirmed whatever they said; a count written as a float
    # was equal to the integer
    configurations = '"configurations":841'
    for line, changed in ((moebius, re.sub(r'"points":\d+', '"points":999', moebius)),
                          (classify, classify.replace('"LaguerreSymmetry"', '"Other"')),
                          (verify, verify.replace('"Holds"', '"Fails"')),
                          (verify, verify.replace(configurations, '"configurations":7')),
                          (verify, verify.replace(configurations, configurations + ".0")),
                          (verify, verify.replace('"skipped":0', '"skipped":12345'))):
        assert line != changed
        code, out, _ = _replay_lines(tmp_path, capsys, line, changed)
        assert code == 1
        assert [o["confirmed"] for o in out] == [True, False]
    # no plane lacks a disjoint pair, so no run writes a line saying so
    code, out, err = _replay_lines(
        tmp_path, capsys,
        '{"check":"Moebius","q":5,"model":"miquelian","found":false,"certifiedAbsent":true}')
    assert (code, out, err) == (2, [], "error: R:1: a Moebius line records no disjoint "
                                       "pair, but every plane has one\n")


def _edited(line: str, edit) -> str:
    obj = json.loads(line)
    edit(obj)
    return json.dumps(obj, separators=(",", ":"))


def test_replay_rebuilds_checker_lines_whole(tmp_path, capsys):
    # each edit was confirmed when a checker line's witnesses were replayed
    # alone: its verdict, counts, witness kinds and coefficients unread.
    # The seed and skipped edits were confirmed while skipped was copied
    # from the line; now the run the line names writes it again
    c, s = run_cli(capsys, "check", "--q", "4", "--checks", "C,S")[1].split()
    sampled, miquel = run_cli(capsys, "check", "--q", "4", "--checks", "S,Miquel", "--mode",
                              "sample", "--samples", "3000", "--seed", "1")[1].split()
    assert json.loads(c)["violations"] and json.loads(sampled)["violations"]
    assert json.loads(miquel)["skipped"] and not json.loads(miquel)["violations"]

    def first(key, value):
        return lambda obj: obj["violations"][0].update({key: value})

    for line, edit in (
            (c, lambda obj: obj.update(verdict="Holds", configurations=1)),
            (c, lambda obj: obj.update(configurations=float(obj["configurations"]))),
            (c, lambda obj: obj.update(violations=[])),
            (s, first("kind", "whatever")),
            (c, lambda obj: obj["violations"][0]["circles"][0].update(coef=[3, 3, 3])),
            (c, lambda obj: obj["violations"][0]["data"].update(extra=1)),
            (sampled, lambda obj: obj.update(configurations=3001)),
            (sampled, lambda obj: obj.update(mode="exhaustive", seed=None)),
            *((line, edit) for line in (sampled, miquel) for edit in (
                lambda obj: obj.update(seed=2),
                lambda obj: obj.update(skipped=obj["skipped"] + 1))),
            (s, lambda obj: obj.update(skipped=obj["skipped"] + 1))):
        changed = _edited(line, edit)
        assert changed != line
        code, out, err = _replay_lines(tmp_path, capsys, line, changed)
        assert (code, err) == (1, "")
        assert [o["confirmed"] for o in out] == [True, False]
    code, out, err = _replay_lines(tmp_path, capsys, _edited(c, first("kind", 5)))
    assert (code, out, err) == (2, [], "error: R:1: malformed report line "
                                       "(TypeError: kind must be a string, got 5)\n")


def test_replay_confirms_a_rerun_line_only_when_its_witnesses_replay(
        tmp_path, capsys, monkeypatch):
    # the rerun writes the same line; the scalar route must still agree
    line = run_cli(capsys, *C_LINE)[1].strip()
    assert _replay_lines(tmp_path, capsys, line)[0] == 0
    monkeypatch.setattr(cli._checks, "replay_violation", lambda plane, check_id, v: False)
    code, out, err = _replay_lines(tmp_path, capsys, line)
    assert (code, err) == (1, "")
    assert out == [{"line": 1, "check": "C", "witnesses": 20, "confirmed": False}]


def test_replay_refuses_an_oversized_exhaustive_line_before_any_sweep(
        tmp_path, capsys, monkeypatch):
    # a forged line that names an exhaustive S sweep at q=13, 1.04e10
    # configurations, is refused as `check` refuses the run
    code, out, refusal = run_cli(capsys, "check", "--q", "13", "--checks", "S")
    assert (code, out) == (2, "")

    def run(plane, mode):
        raise AssertionError("swept")

    monkeypatch.setitem(cli._checks.SPECS, "S",
                        dataclasses.replace(cli._checks.SPECS["S"], run=run))
    line = json.dumps({"check": "S", "q": 13, "model": "miquelian", "mode": "exhaustive",
                       "seed": None, "configurations": 10417365504, "skipped": 0,
                       "violations": [], "verdict": "Holds", "elapsedSeconds": 0.0})
    code, out, err = _replay_lines(tmp_path, capsys, line)
    assert (code, out) == (2, [])
    assert err == "error: R:1: " + refusal.removeprefix("error: ")
    assert refusal == ("error: exhaustive S needs 10417365504 configurations at q=13 "
                       "(limit 100000000); use --mode sample\n")


@pytest.mark.parametrize("argv", [
    ("check", "--q", "3"),
    ("check", "--q", "4"),
    ("check", "--q", "4", "--mode", "sample", "--samples", "3000", "--seed", "2"),
    ("check", "--q", "5", "--checks", "Axioms,Prop11,C", "--mode", "sample",
     "--samples", "500", "--seed", "3"),
    ("dts", "--q", "5", "--k", "1,0,0", "--l", "4,0,2", "--verify"),
    ("dts", "--q", "5", "--k", "1,0,0", "--l", "4,0,2", "--verify", "--timings"),
    ("dts", "--q", "5", "--sample-pairs", "3", "--seed", "2", "--verify"),
    ("moebius", "--q", "5"),
    ("moebius", "--q", "5", "--k", "0,0,0", "--l", "1,0,2"),
], ids=["check-holds", "check-witnesses", "check-sampled", "check-odd-sampled", "dts",
        "dts-timed", "dts-sampled", "moebius", "moebius-pair"])
def test_every_line_the_cli_writes_replays_confirmed(tmp_path, capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == (1 if argv[:3] == ("check", "--q", "4") else 0)
    lines = out.splitlines()
    # a blank line is skipped
    code, out, err = _replay_lines(tmp_path, capsys, *lines, "")
    assert (code, err) == (0, "")
    assert [o["check"] for o in out] == [json.loads(line)["check"] for line in lines]
    assert all(o["confirmed"] for o in out)
    assert (sum(o["witnesses"] for o in out) > 0) == (argv[:3] == ("check", "--q", "4"))


def test_replay_of_an_unknown_check_is_a_usage_error(tmp_path, capsys):
    # with no violations to look up, an unknown id was confirmed
    report = tmp_path / "bogus.jsonl"
    report.write_text('{"check":"Bogus","q":3,"model":"miquelian"}\n')
    code, out, err = run_cli(capsys, "replay", "--report", str(report))
    assert (code, out, err) == (2, "", f"error: {report}:1: no replay known for check 'Bogus'\n")


def test_replay_of_witness_free_lines_confirms_them(tmp_path, capsys):
    report = tmp_path / "moebius.jsonl"
    assert run_cli(capsys, "moebius", "--q", "3", "--out", str(report))[0] == 0
    code, out, _ = run_cli(capsys, "dts", "--q", "3", "--k", "1,0,0", "--l", "2,0,1")
    assert code == 0
    report.write_text(report.read_text() + out)
    code, out, _ = run_cli(capsys, "replay", "--report", str(report))
    assert code == 0
    assert [json.loads(l) for l in out.splitlines()] == [
        {"line": 1, "check": "Moebius", "witnesses": 0, "confirmed": True},
        {"line": 2, "check": "DtsClassify", "witnesses": 0, "confirmed": True},
    ]


# -- output files ---------------------------------------------------------------

# (subcommand arguments, whether --export is added) of every --out; the
# replay reads a report the test writes first
WRITTEN = {
    "check-json": (("check", "--q", "4", "--checks", "C,S"), False),
    "check-csv": (("check", "--q", "4", "--checks", "C,S", "--format", "csv"), False),
    "check-text": (("check", "--q", "4", "--checks", "C,S", "--format", "text"), False),
    "dts-pair": (("dts", "--q", "9", "--k", "0,0,0", "--l", "1,0,1", "--verify"), True),
    "dts-sampled": (("dts", "--q", "5", "--sample-pairs", "3", "--seed", "2"), False),
    "moebius": (("moebius", "--q", "3"), False),
    "replay": (("replay", "--report"), False),
}


def _written_argv(tmp_path, capsys, name):
    argv, export = WRITTEN[name]
    if name == "replay":
        report = tmp_path / "report.jsonl"
        assert run_cli(capsys, "check", "--q", "4", "--checks", "C,Prop11",
                       "--out", str(report))[0] == 1
        argv += (str(report),)
    return argv, export


@pytest.mark.parametrize("target", ["longer", "shorter", "missing"])
@pytest.mark.parametrize("name", WRITTEN)
def test_output_files_hold_exactly_the_new_bytes(tmp_path, capsys, name, target):
    # a file is written in place and cut to the new length, so an old
    # file's tail is never left behind it
    argv, export = _written_argv(tmp_path, capsys, name)
    code, out, err = run_cli(capsys, *argv)
    want = {"out": out.encode("utf-8")}
    if export:
        plane = cli.build_plane(9, "miquelian")
        K, L = (plane.circle_from_coef(c).id for c in ((0, 0, 0), (1, 0, 1)))
        phi = cli._symmetry.build_dts(plane, K, L)
        want["export"] = cli._symmetry.export_automorphism(plane, phi).encode("utf-8")
    paths = {key: tmp_path / key for key in want}
    for key, path in paths.items():
        if target != "missing":
            size = len(want[key]) + 1000 if target == "longer" else 1
            path.write_bytes(b"x" * size)
    extra = ("--export", str(paths["export"])) if export else ()
    assert run_cli(capsys, *argv, "--out", str(paths["out"]), *extra) == (code, "", err)
    assert {key: path.read_bytes() for key, path in paths.items()} == want


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_a_new_output_file_takes_the_mode_open_gives_it(tmp_path, capsys, umask):
    out, export = tmp_path / "out.json", tmp_path / "phi.txt"
    old = os.umask(umask)
    try:
        assert run_cli(capsys, "dts", "--q", "5", "--k", "1,0,0", "--l", "4,0,2",
                       "--out", str(out), "--export", str(export))[0] == 0
    finally:
        os.umask(old)
    assert {os.stat(p).st_mode & 0o777 for p in (out, export)} == {0o666 & ~umask}


@pytest.mark.parametrize("argv, code", [
    (("check", "--q", "3", "--checks", "C"), 0),
    (("check", "--q", "4", "--checks", "C"), 1),
    (("moebius", "--q", "3"), 0),
])
def test_out_to_dev_null_keeps_the_exit_code(capsys, argv, code):
    # /dev/null is no regular file: it is written and not cut
    assert run_cli(capsys, *argv, "--out", os.devnull) == (code, "", "")


def test_out_naming_a_directory_exits_two_with_one_line(tmp_path, capsys):
    for argv in (("moebius", "--q", "3", "--out", str(tmp_path)),
                 ("dts", "--q", "5", "--k", "1,0,0", "--l", "4,0,2",
                  "--export", str(tmp_path))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_no_output_file_is_truncated_to_zero_first(tmp_path, capsys, monkeypatch):
    # truncating the file the previous request wrote cost more than the
    # write on ext4; every --out and --export opens without O_TRUNC
    opened = []
    os_open = os.open

    def recording(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags))
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    expected = {str(tmp_path / "report.jsonl")}     # the report replay reads
    for name in WRITTEN:
        argv, export = _written_argv(tmp_path, capsys, name)
        extra = ("--export", str(tmp_path / f"{name}.txt")) if export else ()
        run_cli(capsys, *argv, "--out", str(tmp_path / f"{name}.out"), *extra)
        expected |= {str(tmp_path / f"{name}.out"), *extra[1:]}
    assert {path for path, _ in opened} == expected
    assert all(flags & os.O_CREAT and not flags & os.O_TRUNC for _, flags in opened)


def test_the_cli_has_one_file_writer():
    # `_write_file` is the one place a file is opened for writing
    doc = cli._write_file.__doc__
    source = inspect.getsource(cli).replace(doc, "")
    writer = inspect.getsource(cli._write_file).replace(doc, "")
    assert source.count("os.open(") == writer.count("os.open(") == 1
    writes = re.findall(r"open\([^\n]*[\"'](?:[wax]b?|r\+)[\"']", source)
    assert len(writes) == 1 and writes[0] in writer
    assert not re.search(r"\.write_(?:text|bytes)\(|os\.write\(|os\.replace\(", source)
