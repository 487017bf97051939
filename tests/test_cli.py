"""CLI surface tests: formats, exit codes, reproducibility, replay."""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys

import pytest

from laguerre_lab import cli
from laguerre_lab.cli import main
from laguerre_lab.models import oval_table_power


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
                   "--checks", "C")[0] == 2  # table missing


def test_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("LAGUERRE_LAB_SEED", "9")
    code, out, _ = run_cli(capsys, "check", "--q", "3", "--checks", "S",
                           "--mode", "sample", "--samples", "100")
    assert code == 0
    assert json.loads(out)["seed"] == 9


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


def test_byte_identical_reruns(tmp_path, capsys):
    args = ("check", "--q", "5", "--checks", "Miquel,Bundle", "--mode", "sample",
            "--samples", "20000", "--seed", "42")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_oval_table_file(tmp_path, capsys):
    table = oval_table_power(8, 4)
    path = tmp_path / "oval8.txt"
    path.write_text("".join(f"{x} {v}\n" for x, v in enumerate(table)))
    code, out, _ = run_cli(capsys, "check", "--q", "8", "--model", "oval",
                           "--oval-table", str(path), "--checks", "Bundle",
                           "--mode", "sample", "--samples", "30000", "--seed", "42")
    assert code == 0
    obj = json.loads(out)
    assert obj["model"] == "oval:0,1,6,7,2,3,4,5"
    assert obj["verdict"] == "Holds(sampled)"
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n2 3\n")
    assert run_cli(capsys, "check", "--q", "8", "--model", "oval",
                   "--oval-table", str(bad), "--checks", "C")[0] == 2
    for line in ("1 1 5", "x 1"):
        bad.write_text(f"# x o(x)\n0 0\n{line}\n")
        code, out, err = run_cli(capsys, "check", "--q", "3", "--model", "oval",
                                 "--oval-table", str(bad), "--checks", "C")
        assert (code, out) == (2, ""), line
        assert err.startswith(f"error: {bad}:3: ") and err.count("\n") == 1, err
    # a second line for x = 1 was accepted, and its value won
    bad.write_text("0 0\n1 1\n1 0\n")
    code, out, err = run_cli(capsys, "check", "--q", "2", "--model", "oval",
                             "--oval-table", str(bad), "--checks", "C")
    assert (code, out, err) == (2, "", f"error: {bad}:3: x listed twice\n")


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


@pytest.mark.parametrize("count", ["244", "-3"])
def test_dts_impossible_sample_pair_count_exits_two(capsys, count):
    # q=3 has 243 non-tangent pairs: 244 never ended, -3 printed nothing
    code, out, err = run_cli(capsys, "dts", "--q", "3", "--sample-pairs", count, "--seed", "1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "243 non-tangent pairs" in err


def test_dts_tangent_pair_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "dts", "--q", "5", "--k", "1,0,0", "--l", "1,0,1")
    assert code == 2
    assert "tangent" in err


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
    proc = subprocess.run(
        [sys.executable, "-m", "laguerre_lab", "check", "--q", "2", "--checks", "Axioms"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "Holds"


def test_replay_malformed_lines_exit_two_with_one_error_line(tmp_path, capsys):
    good = {"check": "C", "q": 3, "model": "miquelian", "violations": []}
    bad_lines = [
        {k: v for k, v in good.items() if k != "check"},
        {k: v for k, v in good.items() if k != "q"},
        {k: v for k, v in good.items() if k != "model"},
        dict(good, violations=[{"kind": "C", "circles": [7]}]),
        dict(good, check="DtsVerify"),
        dict(good, model=5),
        [1, 2],
    ]
    report = tmp_path / "bad.jsonl"
    for obj in bad_lines:
        report.write_text(json.dumps(good) + "\n" + json.dumps(obj) + "\n")
        code, out, err = run_cli(capsys, "replay", "--report", str(report))
        assert code == 2, obj
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and ":2:" in err, err
    report.write_text("{not json\n")
    code, _, err = run_cli(capsys, "replay", "--report", str(report))
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


def test_replay_malformed_witnesses_name_the_line_and_exit_two(tmp_path, capsys):
    def c_witness(points, circles):
        return {"kind": "tangent-count", "points": points,
                "circles": [{"id": c} for c in circles], "data": {"count": 0}}

    good = {"check": "C", "q": 3, "model": "miquelian", "violations": []}
    bad_lines = [
        dict(good, violations=[c_witness([0, 1, 2, 3], [5000])]),
        dict(good, violations=[c_witness([0, 1], [0, 1])]),
        dict(good, violations=[c_witness([-7], [0, 1])]),
        dict(good, violations=[c_witness([0], [0, 27])]),
        dict(good, violations=[dict(c_witness([0], [0, 1]), data={})]),
        dict(good, check="S", violations=[c_witness([0, 1, 2], [0, 1, 2, 3])]),
        dict(good, check="NoSuchCheck", violations=[c_witness([0], [0, 1])]),
        dict(good, q=6),
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


def test_seed_range_is_checked_on_every_command(capsys, monkeypatch):
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
    monkeypatch.setenv("LAGUERRE_LAB_SEED", "-1")
    code, _, err = run_cli(capsys, *sample)
    assert code == 2 and err.startswith("error: LAGUERRE_LAB_SEED must be in [0, 2^64)")


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
    assert (code, out, err) == (2, [], "error: R:1: pair: circles 0,0 are tangent\n")

    moebius = run_cli(capsys, "moebius", "--q", "5", "--timings")[1].strip()
    assert json.loads(moebius)["touchingAxiom"]["elapsedSeconds"] > 0
    classify = run_cli(capsys, "dts", "--q", "5", "--k", "1,0,0", "--l", "4,0,2")[1].strip()
    # genuine lines confirm, elapsed times aside; one changed field does not
    for line, changed in ((moebius, re.sub(r'"points":\d+', '"points":999', moebius)),
                          (classify, classify.replace('"LaguerreSymmetry"', '"Other"'))):
        assert line != changed
        code, out, _ = _replay_lines(tmp_path, capsys, line, changed)
        assert code == 1
        assert [o["confirmed"] for o in out] == [True, False]
    # a plane with a fixed-point-free symmetry cannot record that it has none
    code, out, _ = _replay_lines(
        tmp_path, capsys,
        '{"check":"Moebius","q":5,"model":"miquelian","found":false,"certifiedAbsent":true}')
    assert (code, out) == (1, [{"line": 1, "check": "Moebius", "witnesses": 0,
                                "confirmed": False}])


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
