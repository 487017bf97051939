"""The four workloads of the laguerre-lab benchmark and the gate on their outputs.

A workload builds its planes once (its set-up) and then runs passes.  A pass
is the fixed request list the workload stands for, drawn from the workload
seed and the pass number, so equal seeds give equal inputs.  Requests run
back to back in one process: a closed loop with one client.

Each request has a timed part, `run`, which is the work a user of the
library or its command line waits for, and an untimed part, `check`, which
compares the output with the values in expected.json and says why it does
not match.  Sampled hit counts, `configurations` and `skipped` are not
pinned: a later change to the generators may redefine them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import inputs

CHECK_IDS = ("C", "S", "Prop21", "Prop22", "Cor21", "Prop11",
             "Pi", "PiPrime", "Thm23", "Miquel", "Bundle")


@dataclass
class Outcome:
    hits: int = 0                 # hypothesis hits, for hits_per_s
    sweep_s: float | None = None  # time in the hit-producing call; None: the whole request
    bytes: int = 0                # report bytes written
    errors: list[str] = field(default_factory=list)


@dataclass
class Request:
    name: str
    run: Callable[[], Any]           # timed
    check: Callable[[Any], Outcome]  # untimed gate
    op: bool = False                 # one of the workload's unit operations
    hits: bool = False               # counts towards hits_per_s


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op: str                       # what one unit operation is
    planes: tuple[int, ...]       # miquelian orders built in the set-up
    checker_runs: tuple[tuple[str, int], ...]  # (check, q) pairs a pass runs
    nominal_pass_s: float         # pass time at the seed commit, sets the pass count
    make_pass: Callable


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    """The input stream of one pass: a pure function of workload, seed and pass."""
    return random.Random(f"{workload}:{seed}:{index}")


# ---------------------------------------------------------------------------
# request builders
# ---------------------------------------------------------------------------

def _expect(out: Outcome, what: str, got, want) -> None:
    if got != want:
        out.errors.append(f"{what}: got {got!r}, expected {want!r}")


def _violation(lib, obj):
    return lib.report.Violation(
        kind=obj["kind"],
        points=tuple(int(p) for p in obj["points"]),
        circles=tuple(int(c["id"]) for c in obj["circles"]),
        data=tuple((k, int(v)) for k, v in sorted(obj["data"].items())),
    )


def _checker(ctx, name: str, plane_fn, check_id: str, mode, want: dict,
             replay: bool, op: bool = True) -> Request:
    """One checker run on `plane_fn()`, its JSON report written and, with
    `replay`, every witness read back from that report and replayed."""
    lib = ctx.lib

    def run():
        plane = plane_fn()
        tag = {"check": check_id, "q": plane.q, "sample": mode.is_sample}
        t0 = time.perf_counter()
        rep = ctx.call("checks.run", lib.checks.CHECKERS[check_id].run, plane, mode, tag=tag)
        sweep = time.perf_counter() - t0
        tag.update(hits=rep.hypothesis_hits, configs=rep.configurations)
        line = rep.to_json(plane)
        nbytes = ctx.write_report(line)
        confirmed = []
        if replay:
            for obj in json.loads(line)["violations"]:
                rtag = {"check": check_id}
                ok = ctx.call("checks.replay", lib.checks.replay_violation,
                              plane, check_id, _violation(lib, obj), tag=rtag)
                rtag["confirmed"] = bool(ok)
                confirmed.append(bool(ok))
        return rep, sweep, nbytes, confirmed

    def check(res):
        rep, sweep, nbytes, confirmed = res
        out = Outcome(hits=rep.hypothesis_hits, sweep_s=sweep, bytes=nbytes)
        _expect(out, f"{name} verdict", rep.verdict, want["verdict"])
        if "hits" in want:
            _expect(out, f"{name} hits", rep.hypothesis_hits, want["hits"])
            _expect(out, f"{name} violations", rep.violation_count, want["violations"])
        if not all(confirmed):
            out.errors.append(f"{name}: {confirmed.count(False)} witnesses did not replay")
        return out

    return Request(name, run, check, op=op, hits=True)


def _axioms(ctx, plane, want: dict) -> Request:
    def run():
        rep = ctx.call("plane.validate_axioms", plane.validate_axioms)
        line = rep.to_json(plane)
        return rep, ctx.write_report(line)

    def check(res):
        rep, nbytes = res
        out = Outcome(bytes=nbytes)
        _expect(out, f"Axioms q={plane.q} verdict", rep.verdict, want["verdict"])
        return out

    return Request(f"Axioms@q{plane.q}", run, check, op=True)


def _coef(c) -> str:
    return ",".join(str(v) for v in c)


def _dts(ctx, K, L, kind: str, pair_log: list, pass_digest: str | None) -> Request:
    """One `dts --verify --export` request through the command line.

    Its check compares the classification with the benchmark's own
    intersection count (secant pairs give a Laguerre symmetry, disjoint
    ones a fixed-point-free symmetry) and, on the last pair of a pass whose
    seed has a recorded digest, the digest of every image of the pass.
    """
    out_json = os.path.join(ctx.out_dir, "dts.jsonl")
    out_aut = os.path.join(ctx.out_dir, "dts.aut")
    argv = ["dts", "--q", "9", "--k", _coef(K), "--l", _coef(L), "--verify",
            "--out", out_json, "--export", out_aut]

    def run():
        return ctx.call("cli.main", ctx.lib.cli.main, argv, tag={"cmd": "dts"})

    def check(rc):
        out = Outcome()
        _expect(out, "dts exit code", rc, 0)
        with open(out_json, "rb") as fh:
            raw = fh.read()
        out.bytes = len(raw)
        cls, ver = (json.loads(line) for line in raw.splitlines())
        want = "LaguerreSymmetry" if kind == "secant" else "FixedPointFree"
        _expect(out, f"kind of {argv[4]}|{argv[6]}", cls["kind"], want)
        _expect(out, "DtsVerify verdict", ver["verdict"], "Holds")
        _expect(out, "DtsVerify violations", len(ver["violations"]), 0)
        out.hits = int(ver["configurations"])
        with open(out_aut, encoding="utf-8") as fh:
            image = fh.read().splitlines()[1]
        pair_log.append(f"{argv[4]}|{argv[6]}|{cls['kind']}|"
                        f"{hashlib.sha256(image.encode()).hexdigest()}")
        if pass_digest is not None:
            got = hashlib.sha256("\n".join(pair_log).encode()).hexdigest()[:16]
            _expect(out, "digest of the pass's symmetries", got, pass_digest)
        return out

    return Request("dts@q9", run, check, op=True, hits=True)


_CENSUS_KEYS = ("found", "points", "blocksTypeA", "blocksTypeB", "blockSizes",
                "parallelMovedPoints")


def moebius_census(obj: dict) -> dict:
    """The part of a `moebius` output the gate pins."""
    census = {k: obj[k] for k in _CENSUS_KEYS}
    census["pair"] = [obj["pair"]["K"]["coef"], obj["pair"]["L"]["coef"]]
    census["fixedCircles"] = len(obj["fixedCircles"])
    for axiom in ("threePointAxiom", "touchingAxiom"):
        census[axiom] = {k: obj[axiom][k] for k in ("verdict", "violations")}
    return census


def _moebius(ctx, want: dict) -> Request:
    out_json = os.path.join(ctx.out_dir, "moebius.json")
    argv = ["moebius", "--q", "7", "--out", out_json]

    def run():
        return ctx.call("cli.main", ctx.lib.cli.main, argv, tag={"cmd": "moebius"})

    def check(rc):
        out = Outcome()
        _expect(out, "moebius exit code", rc, 0)
        with open(out_json, "rb") as fh:
            raw = fh.read()
        out.bytes = len(raw)
        _expect(out, "moebius census", moebius_census(json.loads(raw)), want)
        return out

    return Request("moebius@q7", run, check)


def _candidate(ctx, q: int, exponent: int, accepted: bool, kept: dict) -> Request:
    table = inputs.power_table(q, exponent)
    lib = ctx.lib

    def run():
        tag = {"q": q, "e": exponent}
        try:
            plane = ctx.call("models.oval_plane", lib.models.oval_plane, q, table, tag=tag)
        except lib.errors.NotALaguerrePlane:
            plane = None
        tag["accepted"] = plane is not None
        if plane is not None and (q, exponent) in kept:
            kept[(q, exponent)] = plane
        return plane is not None

    def check(got):
        out = Outcome()
        _expect(out, f"oval x^{exponent} over GF({q}) accepted", got, accepted)
        return out

    return Request(f"oval@q{q}", run, check, op=True)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

SAMPLES_Q13 = 1_000_000
SAMPLES_OVAL = 500_000
PAIRS_PER_PASS = 60
EXHAUSTIVE_RUNS = (
    tuple((c, 7) for c in CHECK_IDS if c not in ("Miquel", "Bundle"))  # under the 10^8 limit
    + tuple((c, 4) for c in CHECK_IDS if c != "Bundle")
    + (("Bundle", 3),)
)
# The generator-bound sweeps (over 10^6 configurations at the seed commit) are the
# unit operations of exhaustive-small.  The others take a few milliseconds and ride
# along for the characteristic-2 failures and their replay; as operations they would
# put the median latency on millisecond requests that mostly measure noise.
EXHAUSTIVE_OPS = (("S", 7), ("Prop22", 7), ("Cor21", 7), ("Pi", 7), ("PiPrime", 7),
                  ("Thm23", 7), ("Miquel", 4), ("Bundle", 3))
OVAL_ORDERS = (8, 9, 11)
OVAL_CHECKED = ((8, 4), (8, 6))   # (q, exponent) planes the closures are sampled on


def _sample_q13(ctx, rng, pass_index):
    want = ctx.expected["sample-q13"]
    plane = ctx.plane(13)
    reqs = [_axioms(ctx, plane, want["Axioms"])]
    for check_id in CHECK_IDS:
        mode = ctx.lib.report.CheckMode.sample(SAMPLES_Q13, rng.getrandbits(32))
        reqs.append(_checker(ctx, f"{check_id}@q13", lambda: plane, check_id, mode,
                             want[check_id], replay=False))
    rng.shuffle(reqs)
    return reqs


def _exhaustive_small(ctx, rng, pass_index):
    want = ctx.expected["exhaustive-small"]
    mode = ctx.lib.report.CheckMode.exhaustive()
    reqs = [_checker(ctx, f"{c}@q{q}", functools.partial(ctx.plane, q), c, mode,
                     want[f"{c}@q{q}"], replay=True, op=(c, q) in EXHAUSTIVE_OPS)
            for c, q in EXHAUSTIVE_RUNS]
    rng.shuffle(reqs)
    return reqs


def _symmetry_q9(ctx, rng, pass_index):
    want = ctx.expected["symmetry-q9"]
    recorded = want["pass_digests"].get(str(ctx.seed), [])
    digest = recorded[pass_index] if pass_index < len(recorded) else None
    pairs = inputs.circle_pairs(9, rng, PAIRS_PER_PASS)
    log: list[str] = []
    reqs = [_dts(ctx, K, L, kind, log, digest if i == len(pairs) - 1 else None)
            for i, (K, L, kind) in enumerate(pairs)]
    reqs.insert(rng.randrange(len(reqs) + 1), _moebius(ctx, want["moebius"]))
    return reqs


def _oval_probe(ctx, rng, pass_index):
    want = ctx.expected["oval-probe"]
    kept = {key: None for key in OVAL_CHECKED}
    cands = [(q, e) for q in OVAL_ORDERS for e in range(2, q)]
    rng.shuffle(cands)
    reqs = [_candidate(ctx, q, e, e in want["accepted"][str(q)], kept) for q, e in cands]
    for key in OVAL_CHECKED:
        for check_id in ("Miquel", "Bundle"):
            mode = ctx.lib.report.CheckMode.sample(SAMPLES_OVAL, rng.getrandbits(32))
            name = f"{check_id}@q{key[0]}x{key[1]}"
            reqs.append(_checker(ctx, name, functools.partial(kept.__getitem__, key), check_id,
                                 mode, want[name], replay=True, op=False))
    return reqs


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sample-q13",
        # Largest order: the heaviest set-up (~1.6 s build, ~0.9 s of it
        # _validate, ~90 MB of indexes) and sampled sweeps that gather from
        # those indexes; Axioms re-validates from scratch.  Uses rng and the
        # sample path of checks; bypasses symmetry and the exhaustive generators.
        why="largest order: heaviest plane build and indexes, Axioms plus all 11 checkers "
            "sampled; uses rng, bypasses symmetry and the exhaustive generators",
        op="one checker request (Axioms or a sampled checker) at q=13",
        planes=(13,),
        checker_runs=tuple((c, 13) for c in CHECK_IDS),
        nominal_pass_s=5.0,
        make_pass=_sample_q13,
    ),
    Workload(
        name="exhaustive-small",
        # Generator-bound (set-up ~0.3 s of ~14 s): holds the Miquel/Bundle
        # slot filter (0.12% hit rate for Miquel at q=4) and the Python (a, b)
        # loop of the Pi family; the characteristic-2 failures at q=4 exercise
        # violation counting and scalar replay.  Bypasses rng and symmetry.
        why="exhaustive sweeps at q=7, 4 and 3 with witness replay: generator-bound, "
            "holds the Miquel/Bundle slot filter; bypasses rng and symmetry",
        op="one of the 8 generator-bound exhaustive sweeps, with its report and replay",
        planes=(7, 4, 3),
        checker_runs=tuple(EXHAUSTIVE_RUNS),
        nominal_pass_s=14.0,
        make_pass=_exhaustive_small,
    ),
    Workload(
        name="symmetry-q9",
        # The only workload where symmetry does the work: verify_dts (~0.1 s a
        # pair, mostly scalar tangent_to_second) and moebius_extract.  Requests
        # go through cli.main, so CLI-only work such as the second build_dts of
        # every single-pair request is timed.  Bypasses checks and rng.
        why="dts --verify through the CLI on seeded non-tangent pairs at q=9, plus moebius "
            "at q=7: the only symmetry work; bypasses checks and rng",
        op="one `dts --verify --export` request for one circle pair at q=9",
        planes=(9, 7),
        checker_runs=(),
        nominal_pass_s=8.0,
        make_pass=_symmetry_q9,
    ),
    Workload(
        name="oval-probe",
        # The same models/plane layer used the other way round: many builds,
        # few reads (the inverse of sample-q13).  A gain bought with more index
        # work or slower validation shows here.  The only workload that runs
        # _validate's rejection path and the uncached oval_plane build.
        why="22 monomial oval tables through oval_plane (5 accepted, 17 rejected) and sampled "
            "closures at q=8: many builds and few reads, the inverse of sample-q13",
        op="one oval_plane candidate judged",
        planes=(),
        checker_runs=(("Miquel", 8), ("Bundle", 8)),
        nominal_pass_s=7.5,
        make_pass=_oval_probe,
    ),
)}
