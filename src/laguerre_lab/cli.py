"""Command-line runner: build planes, run check suites, emit reports.

Output is deterministic for equal (q, model, checks, mode, samples, seed):
JSON reports carry elapsedSeconds 0.0 unless --timings is given, keys are
emitted in a pinned order, and sampling is a pure function of the seed.

Exit codes: 0 all requested checks hold, 1 at least one Fails (or a
replayed witness does not re-validate), 2 usage or configuration error,
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
import sys

from . import checks as _checks
from . import symmetry as _symmetry
from .errors import (
    LaguerreError,
    NoAdmissibleAuxiliary,
    NoDisjointPair,
    NotFixedPointFree,
    NotUnique,
    TangentPair,
    WellDefinednessFailure,
)
from .models import build_plane
from .report import (CSV_FIELDS, EXHAUSTIVE_LIMIT, CheckMode, Violation, circle_obj,
                     report_csv_row)

SEED_ENV = "LAGUERRE_LAB_SEED"
SEED_LIMIT = 1 << 64  # the sampling stream is keyed by a 64-bit seed

ALL_CHECKS = tuple(_checks.SPECS)
_ALIASES = {c.lower(): c for c in ALL_CHECKS}


class UsageError(Exception):
    pass


def _checked_seed(seed: int, source: str) -> int:
    """`seed` if it is in [0, 2^64); two seeds outside would alias one stream."""
    if not 0 <= seed < SEED_LIMIT:
        raise UsageError(f"{source} must be in [0, 2^64), got {seed}")
    return seed


def _parse_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return _checked_seed(int(env), SEED_ENV)
        except ValueError as e:
            raise UsageError(f"{SEED_ENV} must be an integer, got {env!r}") from e
    raise UsageError(f"sample mode needs --seed or {SEED_ENV}")


def _load_oval_table(path: str) -> list[int]:
    """Parse the `x o(x)` per-line table, one line per element in index order."""
    table: dict[int, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                x_tok, v_tok = line.split()
                x, v = int(x_tok), int(v_tok)
            except ValueError as e:
                raise UsageError(f"{path}:{lineno}: expected two integers 'x o(x)', "
                                 f"got {line!r}") from e
            if x in table:
                raise UsageError(f"{path}:{lineno}: x listed twice")
            table[x] = v
    if sorted(table) != list(range(len(table))):
        raise UsageError(f"oval table {path} must list every x in 0..q-1 exactly once")
    return [table[x] for x in range(len(table))]


def _make_plane(args):
    oval_table = None
    if args.model == "oval":
        if not getattr(args, "oval_table", None):
            raise UsageError("--model oval requires --oval-table FILE")
        oval_table = _load_oval_table(args.oval_table)
    return build_plane(args.q, args.model, oval_table)


def _coef_triple(text: str) -> tuple[int, int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise UsageError(f"expected a,b,c coefficients, got {text!r}")
    return tuple(int(p) for p in parts)


def _pair_arg(args, plane) -> tuple[int, int] | None:
    """The circle ids named by --k and --l, or None when neither is given."""
    if args.k is None and args.l is None:
        return None
    if args.k is None or args.l is None:
        raise UsageError("give --k a,b,c and --l a,b,c together")
    return (plane.circle_from_coef(_coef_triple(args.k)).id,
            plane.circle_from_coef(_coef_triple(args.l)).id)


def _emit(args, lines: list[str]) -> None:
    payload = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    plane = _make_plane(args)
    requested = []
    for token in args.checks.split(","):
        token = token.strip()
        if token.lower() == "all":
            requested.extend(ALL_CHECKS)
            continue
        if token.lower() not in _ALIASES:
            raise UsageError(f"unknown check {token!r}; known: {', '.join(ALL_CHECKS)}")
        requested.append(_ALIASES[token.lower()])

    if args.mode == "sample":
        mode = CheckMode.sample(args.samples, _parse_seed(args))
    else:
        mode = CheckMode.exhaustive()
        for check_id in requested:
            size = _checks.exhaustive_size(plane, check_id)
            if size > EXHAUSTIVE_LIMIT:
                raise UsageError(
                    f"exhaustive {check_id} needs {size} configurations at q={plane.q} "
                    f"(limit {EXHAUSTIVE_LIMIT}); use --mode sample")

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
# dts
# ---------------------------------------------------------------------------

def _classify_obj(plane, K, L, phi) -> dict:
    """The DtsClassify object of the pair (K, L) and its symmetry `phi`."""
    cls = _symmetry.classify_symmetry(plane, K, L, phi)
    return {
        "check": "DtsClassify",
        "q": int(plane.q),
        "model": plane.label,
        "pair": {"K": circle_obj(plane, K), "L": circle_obj(plane, L)},
        "kind": cls.kind,
        "fixedGenerators": None if cls.fixed_generators is None else list(cls.fixed_generators),
        "witnessCircle": None if cls.witness_circle is None else circle_obj(plane, cls.witness_circle),
        "fixedPointCount": cls.fixed_point_count,
        "details": cls.details,
    }


def _dts_objects(plane, K, L, verify: bool, timings: bool
                 ) -> tuple[list[dict], bool, _symmetry.Automorphism]:
    """The output objects of one pair, whether they pass, and the symmetry."""
    phi = _symmetry.build_dts(plane, K, L)
    obj = _classify_obj(plane, K, L, phi)
    out = [obj]
    ok = obj["kind"] != "Other"
    if verify:
        rep = _symmetry.verify_dts(plane, phi, K, L)
        robj = rep.to_obj(plane, timings=timings)
        robj["pair"] = {"K": circle_obj(plane, K), "L": circle_obj(plane, L)}
        out.append(robj)
        ok = ok and rep.holds
    return out, ok, phi


def _cmd_dts(args) -> int:
    plane = _make_plane(args)
    pair = _pair_arg(args, plane)
    if bool(args.sample_pairs) == (pair is not None):
        raise UsageError("give --k a,b,c and --l a,b,c, or --sample-pairs N")
    if args.export and pair is None:
        raise UsageError("--export works with a single explicit pair")
    if pair is not None:
        pairs = [pair]
    else:
        pairs = _symmetry.sample_nontangent_pairs(plane, args.sample_pairs, _parse_seed(args))

    objs, all_ok = [], True
    for K, L in pairs:
        out, ok, phi = _dts_objects(plane, K, L, args.verify, args.timings)
        objs.extend(out)
        all_ok = all_ok and ok

    if args.export:
        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write(_symmetry.export_automorphism(plane, phi))

    if args.format == "text":
        lines = [json.dumps(o, indent=2) for o in objs]
    else:
        lines = [json.dumps(o, separators=(",", ":")) for o in objs]
    _emit(args, lines)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# moebius
# ---------------------------------------------------------------------------

def _report_summary(rep, timings: bool) -> dict:
    return {
        "verdict": rep.verdict,
        "configurations": int(rep.configurations),
        "violations": int(rep.violation_count),
        "elapsedSeconds": rep.elapsed(timings),
    }


def _moebius_obj(plane, pair: tuple[int, int] | None, timings: bool) -> dict:
    """The Moebius object of the disjoint pair's symmetry or, when `pair` is
    None, of the first fixed-point-free one (`found: false` if none is)."""
    if pair is not None:
        t = plane.tangency(*pair)
        if t.kind in ("tangent", "equal"):
            raise UsageError("the selected pair is tangent; a disjoint pair is required")
        if t.kind != "disjoint":
            raise UsageError("the selected pair is secant; a disjoint pair is required")
        phi = _symmetry.build_dts(plane, *pair)
    else:
        try:
            _, _, phi = _symmetry.find_fixed_point_free_pair(plane)
        except NoDisjointPair:
            return {
                "check": "Moebius",
                "q": int(plane.q),
                "model": plane.label,
                "found": False,
                "certifiedAbsent": True,
            }
    cand = _symmetry.moebius_extract(plane, phi)

    census = cand.block_size_census()
    return {
        "check": "Moebius",
        "q": int(plane.q),
        "model": plane.label,
        "found": True,
        "pair": {"K": circle_obj(plane, cand.pair[0]), "L": circle_obj(plane, cand.pair[1])},
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


def _cmd_moebius(args) -> int:
    plane = _make_plane(args)
    obj = _moebius_obj(plane, _pair_arg(args, plane), args.timings)
    _emit(args, [json.dumps(obj, separators=(",", ":"))])
    return 0


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def _violation_from_obj(obj) -> Violation:
    return Violation(
        kind=obj.get("kind", ""),
        points=tuple(int(p) for p in obj.get("points", ())),
        circles=tuple(int(c["id"]) for c in obj.get("circles", ())),
        data=tuple((k, int(v)) for k, v in sorted(obj.get("data", {}).items())),
    )


def _parse_report_line(where: str, line: str):
    """(object, q, violations, pair coefficients) of a line; the pair is
    read from the symmetry lines that name one, else None."""
    try:
        obj = json.loads(line)
    except ValueError as e:
        raise UsageError(f"{where}: not JSON ({e})") from e
    if not isinstance(obj, dict):
        raise UsageError(f"{where}: a report line must be a JSON object")
    missing = [k for k in ("check", "q", "model") if k not in obj]
    if missing:
        raise UsageError(f"{where}: report line lacks {', '.join(repr(k) for k in missing)}")
    if not isinstance(obj["model"], str):
        raise UsageError(f"{where}: model must be a string, got {obj['model']!r}")
    try:
        violations = [_violation_from_obj(v) for v in obj.get("violations", [])]
        pair = None
        # a Moebius line names a pair unless it records that none was found
        if obj["check"] in ("DtsVerify", "DtsClassify") or (
                obj["check"] == "Moebius" and obj.get("found") is not False):
            pair = (obj["pair"]["K"]["coef"], obj["pair"]["L"]["coef"])
        return obj, int(obj["q"]), violations, pair
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise UsageError(f"{where}: malformed report line ({type(e).__name__}: {e})") from e


def _without_elapsed(obj):
    """A JSON value with every elapsedSeconds key dropped."""
    if isinstance(obj, dict):
        return {k: _without_elapsed(v) for k, v in obj.items() if k != "elapsedSeconds"}
    if isinstance(obj, list):
        return [_without_elapsed(v) for v in obj]
    return obj


def _same_object(fresh: dict, recorded: dict) -> bool:
    """`fresh`, as it would be written, equals `recorded` up to elapsed times."""
    return _without_elapsed(json.loads(json.dumps(fresh))) == _without_elapsed(recorded)


# The report lines `replay` reads: one per checker, then the symmetry lines.
_REPLAYABLE = frozenset(_checks.SPECS) | {"DtsVerify", "DtsClassify", "Moebius"}


def _replay_symmetry_line(where: str, plane, obj: dict, violations, pair) -> bool:
    """Whether a DtsVerify, DtsClassify or Moebius line holds on `plane`.

    Each is rebuilt from its pair by the code that wrote it: DtsVerify
    lines have their witnesses looked up in a fresh verification, the
    others are compared whole, elapsed times aside.  A Moebius line
    without a pair holds only if the search still finds no pair.
    """
    try:
        ids = None if pair is None else (plane.circle_from_coef(pair[0]).id,
                                         plane.circle_from_coef(pair[1]).id)
        if obj["check"] == "Moebius":
            return _same_object(_moebius_obj(plane, ids, False), obj)
        phi = _symmetry.build_dts(plane, *ids)
    except (UsageError, ValueError, TypeError, TangentPair, NotFixedPointFree) as e:
        raise UsageError(f"{where}: pair: {e}") from e
    if obj["check"] == "DtsClassify":
        return _same_object(_classify_obj(plane, *ids, phi), obj)
    fresh = _symmetry.verify_dts(plane, phi, *ids)
    fresh_set = {(v.kind, v.points, v.circles) for v in fresh.violations}
    return all((v.kind, v.points, v.circles) in fresh_set for v in violations)


def _cmd_replay(args) -> int:
    """Replay every report line.

    A check id goes through its `CheckerSpec`, one witness at a time.
    The symmetry lines are rebuilt from their pairs instead
    (`_replay_symmetry_line`).
    """
    lines_out = []
    all_ok = True
    with open(args.report, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{args.report}:{lineno}"
            obj, q, violations, pair = _parse_report_line(where, line)
            check_id = obj["check"]
            if check_id not in _REPLAYABLE:
                raise UsageError(f"{where}: no replay known for check {check_id!r}")
            args.q = q  # the order `main` reads when a symmetry is NotUnique
            try:
                plane = build_plane(q, obj["model"])
            except (ValueError, LaguerreError) as e:
                raise UsageError(f"{where}: {e}") from e
            if check_id in _checks.SPECS:
                for i, v in enumerate(violations, 1):
                    problem = _checks.witness_problem(plane, check_id, v)
                    if problem:
                        raise UsageError(f"{where}: violation {i}: {problem}")
                confirmed = all(
                    _checks.replay_violation(plane, check_id, v) for v in violations)
            else:
                confirmed = _replay_symmetry_line(where, plane, obj, violations, pair)
            all_ok = all_ok and confirmed
            lines_out.append(json.dumps({
                "line": lineno,
                "check": check_id,
                "witnesses": len(violations),
                "confirmed": bool(confirmed),
            }, separators=(",", ":")))
    _emit(args, lines_out)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------

def _add_plane_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, required=True, help="plane order")
    p.add_argument("--model", default="miquelian",
                   help="miquelian | oval (see --oval-table) | oval:v0,v1,...")
    p.add_argument("--oval-table", help="file with one 'x o(x)' line per element")


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
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int)
    _add_output_args(p, ("json", "csv", "text"))
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("dts", help="build and verify double tangency symmetries")
    _add_plane_args(p)
    p.add_argument("--k", help="coefficients a,b,c of the first circle")
    p.add_argument("--l", help="coefficients a,b,c of the second circle")
    p.add_argument("--sample-pairs", type=int,
                   help="verify this many seeded-sampled non-tangent pairs")
    p.add_argument("--seed", type=int)
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

    p = sub.add_parser("replay", help="re-validate the witnesses of a JSON report")
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
            _checked_seed(args.seed, "--seed")
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (WellDefinednessFailure, NoAdmissibleAuxiliary) as e:
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
    except (TangentPair, NotFixedPointFree, NoDisjointPair) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except LaguerreError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
