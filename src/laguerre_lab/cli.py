"""Command-line runner: build planes, run check suites, emit reports.

Output is deterministic for equal (q, model, checks, mode, samples, seed):
JSON reports carry elapsedSeconds 0.0 unless --timings is given, keys are
emitted in a pinned order, and sampling is a pure function of the seed.

Exit codes: 0 all requested checks hold, 1 at least one Fails (or a
replayed line is not confirmed), 2 usage or configuration error,
3 internal invariant breach (the construction failed where the theory
says it cannot).  A pencil without a unique tangent circle (NotUnique)
is expected on planes of even order and exits 1 there, 3 on odd order.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import stat
import sys

from . import checks as _checks
from . import symmetry as _symmetry
from .errors import (
    LaguerreError,
    NotALaguerrePlane,
    NotFixedPointFree,
    NotUnique,
    TangentPair,
    WellDefinednessFailure,
)
from .models import build_plane
from .report import (CSV_FIELDS, EXHAUSTIVE_LIMIT, CheckMode, Violation, circle_obj, pair_obj,
                     report_csv_row)

SEED_LIMIT = 1 << 64  # the sampling stream is keyed by a 64-bit seed

ALL_CHECKS = tuple(_checks.SPECS)
_ALIASES = {c.lower(): c for c in ALL_CHECKS}


class UsageError(Exception):
    pass


def _parse_seed(args) -> int:
    if args.seed is None:
        raise UsageError("sample mode needs --seed")
    return args.seed


def _checked_seed(name: str, seed) -> int:
    """`seed`, refused unless an integer in [0, 2^64): two seeds outside
    that range would alias one stream."""
    if type(seed) is not int or not 0 <= seed < SEED_LIMIT:
        raise UsageError(f"{name} must be in [0, 2^64), got {seed!r}")
    return seed


def _refuse_oversize(plane, check_id: str, mode: CheckMode) -> None:
    """Refuse an exhaustive run of `check_id` past `EXHAUSTIVE_LIMIT`."""
    if not mode.is_sample:
        size = _checks.exhaustive_size(plane, check_id)
        if size > EXHAUSTIVE_LIMIT:
            raise UsageError(
                f"exhaustive {check_id} needs {size} configurations at q={plane.q} "
                f"(limit {EXHAUSTIVE_LIMIT}); use --mode sample")


def _coef_triple(flag: str, text: str) -> tuple[int, int, int]:
    try:
        a, b, c = (int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects integer coefficients a,b,c, got {text!r}") from None
    return a, b, c


def _pair_arg(args, plane) -> tuple[int, int] | None:
    """The circle ids named by --k and --l, or None when neither is given."""
    if args.k is None and args.l is None:
        return None
    if args.k is None or args.l is None:
        raise UsageError("give --k a,b,c and --l a,b,c together")
    return (plane.circle_from_coef(_coef_triple("--k", args.k)).id,
            plane.circle_from_coef(_coef_triple("--l", args.l)).id)


def _write_file(path: str, text: str) -> None:
    """Write `text` in UTF-8 over `path` and cut a regular file (not a FIFO
    or device) to its length: the bytes and new-file mode of `open(path,
    "w")`, without its truncate to zero.  On ext4 that truncate frees the
    blocks the previous request wrote and forces their writeback at close
    (`auto_da_alloc`): a 3 KB rewrite took 59-66 µs, against 7-12 µs in
    place and 47-55 µs through a temp file and `os.replace`."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _emit(args, lines: list[str]) -> None:
    payload = "\n".join(lines) + "\n"
    if args.out:
        _write_file(args.out, payload)
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    if args.mode == "exhaustive":
        for flag, value in (("--seed", args.seed), ("--samples", args.samples)):
            if value is not None:
                raise UsageError(f"{flag} is read only in sample mode")
    plane = build_plane(args.q, args.model)
    requested = []
    for token in args.checks.split(","):
        token = token.strip()
        if token.lower() == "all":
            requested.extend(ALL_CHECKS)
            continue
        if token.lower() not in _ALIASES:
            raise UsageError(f"unknown check {token!r}; known: {', '.join(ALL_CHECKS)}")
        requested.append(_ALIASES[token.lower()])

    mode = (CheckMode.sample(100_000 if args.samples is None else args.samples, _parse_seed(args))
            if args.mode == "sample" else CheckMode.exhaustive())
    for check_id in requested:
        _refuse_oversize(plane, check_id, mode)

    reports = [_checks.SPECS[check_id].run(plane, mode) for check_id in requested]

    if args.format == "json":
        lines = [r.to_json(plane, timings=args.timings) for r in reports]
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for r in reports:
            writer.writerow(report_csv_row(r, plane, timings=args.timings))
        lines = buf.getvalue().splitlines()
    else:
        lines = [r.to_text(plane, timings=args.timings) for r in reports]
    _emit(args, lines)
    return 1 if any(r.fails for r in reports) else 0


# ---------------------------------------------------------------------------
# the symmetry lines: dts, moebius
# ---------------------------------------------------------------------------

def _symmetry_of(plane, K, L, disjoint: bool) -> _symmetry.Automorphism:
    """The symmetry of (K, L); with `disjoint`, another pair is a usage error."""
    if disjoint and plane.tangency(K, L).kind != "disjoint":
        raise UsageError(f"the selected pair is {plane.tangency(K, L).kind}; "
                         "a disjoint pair is required")
    return _symmetry.build_dts(plane, K, L)


def _classify_obj(plane, K, L, phi, timings: bool) -> dict:
    cls = _symmetry.classify_symmetry(plane, K, L, phi)
    return {
        "check": "DtsClassify",
        "q": int(plane.q),
        "model": plane.label,
        "pair": pair_obj(plane, K, L),
        "kind": cls.kind,
        "fixedGenerators": None if cls.fixed_generators is None else list(cls.fixed_generators),
        "witnessCircle": None if cls.witness_circle is None else circle_obj(plane, cls.witness_circle),
        "fixedPointCount": cls.fixed_point_count,
        "details": cls.details,
    }


def _verify_obj(plane, K, L, phi, timings: bool) -> dict:
    obj = _symmetry.verify_dts(plane, phi, K, L).to_obj(plane, timings=timings)
    obj["pair"] = pair_obj(plane, K, L)
    return obj


def _report_summary(rep, timings: bool) -> dict:
    return {
        "verdict": rep.verdict,
        "configurations": int(rep.configurations),
        "violations": int(rep.violation_count),
        "elapsedSeconds": rep.elapsed(timings),
    }


def _moebius_obj(plane, K, L, phi, timings: bool) -> dict:
    cand = _symmetry.moebius_extract(plane, phi)
    census = cand.block_size_census()
    return {
        "check": "Moebius",
        "q": int(plane.q),
        "model": plane.label,
        "found": True,
        "pair": pair_obj(plane, K, L),
        "points": len(cand.points),
        "fixedCircles": [int(c) for c in cand.points if c != _symmetry.INFINITY],
        "blocksTypeA": len(cand.blocks_a),
        "blocksTypeB": len(cand.blocks_b),
        "blockSizes": {
            "A": {str(k): v for k, v in sorted(census["A"].items())},
            "B": {str(k): v for k, v in sorted(census["B"].items())},
        },
        "parallelMovedPoints": cand.parallel_moved_points,
        "threePointAxiom": _report_summary(cand.three_point_report, timings),
        "touchingAxiom": _report_summary(cand.touching_report, timings),
    }


# The symmetry lines, each written once per pair: check id -> (whether its
# pair must be disjoint (`_symmetry_of`), its writer from (plane, K, L,
# symmetry, timings)).  `dts` writes DtsClassify and, with --verify,
# DtsVerify; `moebius` writes Moebius.  `replay` rebuilds a line from its
# pair through the same entry, and the rebuilt line must equal the recorded
# one, elapsedSeconds aside.
_SYMMETRY_LINES = {
    "DtsClassify": (False, _classify_obj),
    "DtsVerify": (False, _verify_obj),
    "Moebius": (True, _moebius_obj),
}


def _cmd_dts(args) -> int:
    plane = build_plane(args.q, args.model)
    pair = _pair_arg(args, plane)
    if args.sample_pairs is not None and args.sample_pairs <= 0:
        raise UsageError("--sample-pairs must be positive")
    if (args.sample_pairs is not None) == (pair is not None):
        raise UsageError("give --k a,b,c and --l a,b,c, or --sample-pairs N")
    if args.export and pair is None:
        raise UsageError("--export works with a single explicit pair")
    if args.seed is not None and pair is not None:
        raise UsageError("--seed is read only with --sample-pairs")
    if args.timings and not args.verify:    # only a DtsVerify line carries a time
        raise UsageError("--timings is read only with --verify")
    if pair is not None:
        pairs = [pair]
    else:
        pairs = _symmetry.sample_nontangent_pairs(plane, args.sample_pairs, _parse_seed(args))

    written = [_SYMMETRY_LINES[c] for c in ("DtsClassify", "DtsVerify")[:1 + args.verify]]
    objs = []
    for K, L in pairs:
        phi = _symmetry_of(plane, K, L, written[0][0])  # shared by the pair's lines
        objs.extend(write(plane, K, L, phi, args.timings) for _, write in written)

    if args.export:
        _write_file(args.export, _symmetry.export_automorphism(plane, phi))

    if args.format == "text":
        lines = [json.dumps(o, indent=2) for o in objs]
    else:
        lines = [json.dumps(o, separators=(",", ":")) for o in objs]
    _emit(args, lines)
    return 1 if any(o.get("kind") == "Other" or o.get("verdict") == "Fails" for o in objs) else 0


def _cmd_moebius(args) -> int:
    """The Moebius line of the disjoint pair --k, --l or, without one, of
    the first disjoint pair (`find_fixed_point_free_pair`)."""
    plane = build_plane(args.q, args.model)
    pair = _pair_arg(args, plane)
    disjoint, write = _SYMMETRY_LINES["Moebius"]
    if pair is None:
        K, L, phi = _symmetry.find_fixed_point_free_pair(plane)
    else:
        K, L = pair
        phi = _symmetry_of(plane, K, L, disjoint)
    _emit(args, [json.dumps(write(plane, K, L, phi, args.timings), separators=(",", ":"))])
    return 0


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def _ints(what: str, values) -> tuple[int, ...]:
    """`values`, refused unless each is a JSON integer (`int` would truncate
    a float and parse a string, and a bool is an int to Python)."""
    values = tuple(values)
    if any(type(v) is not int for v in values):
        raise TypeError(f"{what} must be integers, got {list(values)!r}")
    return values


def _violation_from_obj(obj) -> Violation:
    data = dict(sorted(obj.get("data", {}).items()))
    if not isinstance(obj.get("kind", ""), str):
        raise TypeError(f"kind must be a string, got {obj['kind']!r}")
    return Violation(
        kind=obj.get("kind", ""),
        points=_ints("points", obj.get("points", ())),
        circles=_ints("circle ids", (c["id"] for c in obj.get("circles", ()))),
        data=tuple(zip(data, _ints("data values", data.values()))),
    )


# the keys a line holds beside check, q and model: a checker's line those of
# its report, DtsVerify's its witnesses
_LINE_KEYS = {"DtsVerify": ("violations",)} | dict.fromkeys(
    _checks.SPECS, ("mode", "seed", "configurations", "skipped", "violations", "verdict"))


def _parse_report_line(where: str, line: str):
    """(object, violations, source) of a line, the source being what
    writes it again: a symmetry line's pair coefficients, or the mode of
    a checker line."""
    try:
        obj = json.loads(line)
    except ValueError as e:
        raise UsageError(f"{where}: not JSON ({e})") from e
    if not isinstance(obj, dict):
        raise UsageError(f"{where}: a report line must be a JSON object")
    missing = [k for k in ("check", "q", "model") if k not in obj]
    if not missing and isinstance(obj["check"], str):
        missing = [k for k in _LINE_KEYS.get(obj["check"], ()) if k not in obj]
    if missing:
        raise UsageError(f"{where}: report line lacks {', '.join(repr(k) for k in missing)}")
    for key in ("check", "model"):
        if not isinstance(obj[key], str):
            raise UsageError(f"{where}: {key} must be a string, got {obj[key]!r}")
    if type(obj["q"]) is not int:    # a float or a string would be truncated or parsed
        raise UsageError(f"{where}: q must be an integer, got {obj['q']!r}")
    if not isinstance(obj.get("violations", []), list):
        raise UsageError(f"{where}: violations must be a list, got {obj['violations']!r}")
    if obj["check"] == "Moebius" and obj.get("found") is False:
        raise UsageError(f"{where}: a Moebius line records no disjoint pair, "
                         "but every plane has one")
    try:
        violations = [_violation_from_obj(v) for v in obj.get("violations", [])]
        source = None
        if obj["check"] in _SYMMETRY_LINES:
            source = tuple(_ints("coef", obj["pair"][c]["coef"]) for c in "KL")
        elif obj["check"] in _checks.SPECS:
            _ints("skipped", [obj["skipped"]])
            mode = obj["mode"].removeprefix("sample:")
            source = CheckMode.exhaustive() if mode == "exhaustive" else CheckMode.sample(
                int(mode), _checked_seed(f"{where}: seed", obj["seed"]))
            if source.label() != obj["mode"]:   # int() reads " 5", "5_0" and "05"
                raise ValueError(f"mode {obj['mode']!r} is no mode label")
        return obj, violations, source
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise UsageError(f"{where}: malformed report line ({type(e).__name__}: {e})") from e


def _canonical(obj) -> str:
    """A JSON value as text with sorted keys and no elapsedSeconds key, so
    that lines compare as written: 1.0 and true are not 1."""
    return json.dumps(json.loads(json.dumps(obj), object_hook=lambda d: {
        k: v for k, v in d.items() if k != "elapsedSeconds"}), sort_keys=True)


def _symmetry_line(where: str, plane, obj: dict, pair) -> dict:
    """A symmetry line as its registry entry rebuilds it from its pair."""
    disjoint, write = _SYMMETRY_LINES[obj["check"]]
    try:
        K, L = (plane.circle_from_coef(coef).id for coef in pair)
        phi = _symmetry_of(plane, K, L, disjoint)
    except (UsageError, ValueError, TangentPair) as e:
        raise UsageError(f"{where}: pair: {e}") from e
    return write(plane, K, L, phi, False)


def _checker_line(where: str, plane, check_id: str, mode: CheckMode, violations) -> dict | None:
    """The line `check` writes of `check_id` in `mode`, or None unless
    each of `violations` replays through the scalar operations."""
    try:
        for i, v in enumerate(violations, 1):
            problem = _checks.witness_problem(plane, check_id, v)
            if problem:
                raise UsageError(f"violation {i}: {problem}")
        _refuse_oversize(plane, check_id, mode)
    except UsageError as e:
        raise UsageError(f"{where}: {e}") from e
    fresh = _checks.SPECS[check_id].run(plane, mode).to_obj(plane)
    return fresh if all(_checks.replay_violation(plane, check_id, v) for v in violations) else None


def _cmd_replay(args) -> int:
    """Replay every report line: it is confirmed when the run it names
    writes it again, elapsedSeconds aside, and each of its witnesses
    replays (`_checker_line`); a symmetry line is written again from its
    pair through its `_SYMMETRY_LINES` entry (`_symmetry_line`).  A report
    with no line confirms nothing and is refused."""
    lines_out = []
    all_ok = True
    with open(args.report, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{args.report}:{lineno}"
            obj, violations, source = _parse_report_line(where, line)
            check_id, q = obj["check"], obj["q"]
            if check_id not in _checks.SPECS and check_id not in _SYMMETRY_LINES:
                raise UsageError(f"{where}: no replay known for check {check_id!r}")
            args.q = q  # the order `main` reads when a symmetry is NotUnique
            try:
                plane = build_plane(q, obj["model"])
            except (ValueError, LaguerreError) as e:
                raise UsageError(f"{where}: {e}") from e
            if check_id in _checks.SPECS:
                fresh = _checker_line(where, plane, check_id, source, violations)
            else:
                fresh = _symmetry_line(where, plane, obj, source)
            confirmed = fresh is not None and _canonical(fresh) == _canonical(obj)
            all_ok = all_ok and confirmed
            lines_out.append(json.dumps({
                "line": lineno,
                "check": check_id,
                "witnesses": len(violations),
                "confirmed": bool(confirmed),
            }, separators=(",", ":")))
    if not lines_out:
        raise UsageError(f"{args.report}: holds no report line")
    _emit(args, lines_out)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------

def _add_plane_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, required=True, help="plane order")
    p.add_argument("--model", default="miquelian",
                   help="miquelian | oval:v0,v1,... (the oval function's values o(x))")


def _add_output_args(p: argparse.ArgumentParser, formats: tuple[str, ...] = (),
                     timings: bool = True) -> None:
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", help="write output to a file instead of stdout")
    if timings:
        p.add_argument("--timings", action="store_true",
                       help="emit real elapsed seconds (breaks byte-reproducibility)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="laguerre-lab",
        description="Construct finite Laguerre planes and verify their "
                    "tangency axioms and symmetries.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run axiom/statement checkers")
    _add_plane_args(p)
    p.add_argument("--checks", default="all",
                   help=f"comma list from: all, {', '.join(ALL_CHECKS)}")
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p.add_argument("--samples", type=int, help="sample rows (sample mode; default 100000)")
    p.add_argument("--seed", type=int, help="sampling seed (sample mode)")
    _add_output_args(p, ("json", "csv", "text"))
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("dts", help="build and verify double tangency symmetries")
    _add_plane_args(p)
    p.add_argument("--k", help="coefficients a,b,c of the first circle")
    p.add_argument("--l", help="coefficients a,b,c of the second circle")
    p.add_argument("--sample-pairs", type=int,
                   help="verify this many seeded-sampled non-tangent pairs")
    p.add_argument("--seed", type=int, help="sampling seed (with --sample-pairs)")
    p.add_argument("--verify", action="store_true",
                   help="run the full property verification per pair")
    p.add_argument("--export", help="write the automorphism text format here")
    _add_output_args(p, ("json", "text"))
    p.set_defaults(func=_cmd_dts)

    p = sub.add_parser("moebius", help="extract the inversive-plane candidate "
                                       "of a fixed-point-free symmetry")
    _add_plane_args(p)
    p.add_argument("--k", help="coefficients a,b,c of the first circle")
    p.add_argument("--l", help="coefficients a,b,c of the second circle")
    _add_output_args(p)
    p.set_defaults(func=_cmd_moebius)

    p = sub.add_parser("replay", help="rerun the lines of a JSON report and replay their witnesses")
    p.add_argument("--report", required=True, help="JSON-lines report file")
    _add_output_args(p, timings=False)
    p.set_defaults(func=_cmd_replay)
    return ap


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing keeps no state in the parser, and
    # each call still gets a fresh Namespace
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:
            _checked_seed("--seed", args.seed)
        return args.func(args)
    except WellDefinednessFailure as e:
        print(f"internal invariant breach: {e}", file=sys.stderr)
        return 3
    except NotUnique as e:
        if args.q % 2:
            # the unique-tangent axiom holds on planes of odd order, so a
            # failed pencil search means the code, not the mathematics, is wrong
            print(f"internal invariant breach: {e}", file=sys.stderr)
            return 3
        # expected refusal on planes of characteristic 2
        print(f"construction unavailable on this plane: {e}", file=sys.stderr)
        return 1
    except (UsageError, NotALaguerrePlane, TangentPair, NotFixedPointFree,
            ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
