"""Spans for the traced run, and the per-module metrics computed from them.

Spans are recorded by the benchmark's own code, never by src/: around the
calls the benchmark makes into the library (`Tracer.call`) and, in the
traced process only, by rebinding the library functions that the library
calls internally (`instrument`).  Each span has a name, start, end, parent
span and the request it belongs to; spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

import workloads

# spans: [id, parent id, name, start, end, request, tag]
_ID, _PARENT, _NAME, _START, _END, _REQUEST, _TAG = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = None   # id shared by the spans of one request
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, tag: dict | None = None, **kwargs):
        span = [len(self.spans), self._stack[-1] if self._stack else None, name,
                0.0, 0.0, self.request, tag]
        self.spans.append(span)
        self._stack.append(span[_ID])
        span[_START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[_END] = time.perf_counter()
            self._stack.pop()

    def patch(self, owner, attr: str, name: str, tagger=None) -> None:
        """Rebind `owner.attr` to a wrapper that records a span per call."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = {}
            result = self.call(name, fn, *args, tag=tag, **kwargs)
            if tagger is not None:
                tag.update(tagger(result))
            return result

        setattr(owner, attr, traced)

    def write(self, path: str) -> None:
        """One JSON array per span, after a first line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "name", "start", "end", "request", "tag"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def instrument(tracer: Tracer, lib) -> None:
    """Wrap the library functions that are called from inside the library."""
    sym = lib.symmetry
    for attr, name in (("build_dts", "symmetry.build_dts"),
                       ("classify_symmetry", "symmetry.classify"),
                       ("verify_dts", "symmetry.verify_dts"),
                       ("tangent_to_second", "symmetry.tangent_to_second"),
                       ("find_fixed_point_free_pair", "symmetry.find_pair")):
        tracer.patch(sym, attr, name)
    tracer.patch(sym, "moebius_extract", "symmetry.moebius_extract",
                 lambda cand: {"three_point_s": cand.three_point_report.elapsed_seconds,
                               "touching_s": cand.touching_report.elapsed_seconds})
    tracer.patch(lib.checks, "draw_block", "rng.draw_block", lambda raw: {"draws": int(raw.size)})
    tracer.patch(lib.report.CheckReport, "to_json", "report.to_json")
    tracer.patch(lib.report.CheckReport, "to_obj", "report.to_obj")


def probe_planes(tracer: Tracer, lib, planes) -> None:
    """Time validation and index building apart, on each set-up plane."""
    for plane in planes:
        gens = [tuple(g) for g in plane.gen_members]
        circles = [tuple(c) for c in plane.members]
        tag = {"q": plane.q}
        tracer.call("plane.validate_laguerre_axioms", lib.plane.validate_laguerre_axioms,
                    gens, circles, tag=tag)
        tracer.call("plane.index_build", lib.plane.LaguerrePlane, gens, circles,
                    coefficients=[tuple(c) for c in plane.coef], field=plane.field,
                    label=plane.label, validate=False, tag=tag)
        tag["index_bytes"] = sum(v.nbytes for v in vars(plane).values()
                                 if hasattr(v, "nbytes"))


# ---------------------------------------------------------------------------
# per-module metrics
# ---------------------------------------------------------------------------

def _checker_runs() -> list[tuple[str, int]]:
    runs = []
    for w in workloads.WORKLOADS.values():
        runs.extend(r for r in w.checker_runs if r not in runs)
    return runs


def _orders() -> list[int]:
    return sorted({q for w in workloads.WORKLOADS.values() for q in w.planes})


def per_layer_units() -> dict[str, str]:
    """Every per-module metric name with its unit, in report order."""
    units = {f"models.plane_build_s.q{q}": "s" for q in _orders()}
    units.update({"models.oval_accept_ms": "ms", "models.oval_reject_ms": "ms"})
    for q in _orders():
        units.update({f"plane.validate_s.q{q}": "s", f"plane.index_build_s.q{q}": "s",
                      f"plane.index_mb.q{q}": "MB"})
    units.update({"plane.validate_axioms_s": "s", "rng.draws_per_s": "1/s",
                  "rng.sweep_share": "ratio"})
    for check, q in _checker_runs():
        units.update({f"checks.{check}.q{q}.s": "s", f"checks.{check}.q{q}.hit_rate": "ratio"})
    units.update({
        "checks.replay.witness_ms": "ms", "checks.replay.confirmed_frac": "ratio",
        "checks.replay.witnesses": "count",
        "symmetry.build_dts_ms": "ms", "symmetry.build_dts_calls": "count",
        "symmetry.classify_ms": "ms", "symmetry.verify_dts_ms": "ms",
        "symmetry.tangent_to_second_calls": "count", "symmetry.find_pair_s": "s",
        "symmetry.moebius_extract_s": "s", "symmetry.moebius_three_point_s": "s",
        "symmetry.moebius_touching_s": "s",
        "report.serialize_ms": "ms", "report.bytes": "bytes",
        "cli.self_ms": "ms", "cli.moebius_request_s": "s",
        "trace.spans": "count", "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
    })
    return units


def _dur(span) -> float:
    return span[_END] - span[_START]


def _median(values, scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def per_layer(spans: list[list], report_bytes: int) -> dict[str, float]:
    """Per-module metrics of one traced pass; a layer the workload does not
    reach reads 0.  Counts and hit rates are exact; times are medians per
    call unless the name says otherwise."""
    m = dict.fromkeys(per_layer_units(), 0.0)
    by = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by[s[_NAME]].append(s)
        if s[_PARENT] is not None:
            children[s[_PARENT]].append(s)

    def self_time(s):
        return _dur(s) - sum(_dur(c) for c in children[s[_ID]])

    # models and plane
    for s in by["models.miquelian_plane"]:
        m[f"models.plane_build_s.q{s[_TAG]['q']}"] = _dur(s)
    ovals = by["models.oval_plane"]
    m["models.oval_accept_ms"] = _median([_dur(s) for s in ovals if s[_TAG]["accepted"]], 1e3)
    m["models.oval_reject_ms"] = _median([_dur(s) for s in ovals if not s[_TAG]["accepted"]], 1e3)
    for s in by["plane.validate_laguerre_axioms"]:
        m[f"plane.validate_s.q{s[_TAG]['q']}"] = _dur(s)
    for s in by["plane.index_build"]:
        q = s[_TAG]["q"]
        m[f"plane.index_build_s.q{q}"] = _dur(s)
        m[f"plane.index_mb.q{q}"] = s[_TAG]["index_bytes"] / 1e6
    m["plane.validate_axioms_s"] = _median([_dur(s) for s in by["plane.validate_axioms"]])

    # rng, as seen from the sampled sweeps
    draws = by["rng.draw_block"]
    draw_s = sum(_dur(s) for s in draws)
    sampled_s = sum(_dur(s) for s in by["checks.run"] if s[_TAG]["sample"])
    if draws:
        m["rng.draws_per_s"] = sum(s[_TAG]["draws"] for s in draws) / draw_s
        m["rng.sweep_share"] = draw_s / sampled_s

    # checks
    sweeps = defaultdict(lambda: [0.0, 0, 0])
    for s in by["checks.run"]:
        acc = sweeps[(s[_TAG]["check"], s[_TAG]["q"])]
        acc[0] += _dur(s)
        acc[1] += s[_TAG]["hits"]
        acc[2] += s[_TAG]["configs"]
    for (check, q), (secs, hits, configs) in sweeps.items():
        m[f"checks.{check}.q{q}.s"] = secs
        m[f"checks.{check}.q{q}.hit_rate"] = hits / configs if configs else 0.0
    replays = by["checks.replay"]
    m["checks.replay.witnesses"] = len(replays)
    m["checks.replay.witness_ms"] = _median([_dur(s) for s in replays], 1e3)
    if replays:
        m["checks.replay.confirmed_frac"] = (
            sum(s[_TAG]["confirmed"] for s in replays) / len(replays))

    # symmetry and cli: the dts requests, then the moebius request
    requests = by["cli.main"]
    dts = [s for s in requests if s[_TAG]["cmd"] == "dts"]
    dts_ids = {s[_REQUEST] for s in dts}

    def in_dts(name):
        return [_dur(s) for s in by[name] if s[_REQUEST] in dts_ids]

    if dts:
        m["symmetry.build_dts_calls"] = len(in_dts("symmetry.build_dts")) / len(dts)
        m["cli.self_ms"] = _median([self_time(s) for s in dts], 1e3)
    m["symmetry.build_dts_ms"] = _median(in_dts("symmetry.build_dts"), 1e3)
    m["symmetry.classify_ms"] = _median(in_dts("symmetry.classify"), 1e3)
    m["symmetry.verify_dts_ms"] = _median(in_dts("symmetry.verify_dts"), 1e3)
    m["symmetry.tangent_to_second_calls"] = len(by["symmetry.tangent_to_second"])
    m["symmetry.find_pair_s"] = sum(_dur(s) for s in by["symmetry.find_pair"])
    for s in by["symmetry.moebius_extract"]:
        m["symmetry.moebius_extract_s"] += _dur(s)
        m["symmetry.moebius_three_point_s"] += s[_TAG]["three_point_s"]
        m["symmetry.moebius_touching_s"] += s[_TAG]["touching_s"]
    m["cli.moebius_request_s"] = sum(_dur(s) for s in requests if s[_TAG]["cmd"] == "moebius")

    # report: outermost serialization spans only, so to_obj inside to_json counts once
    report_ids = {s[_ID] for name in ("report.to_json", "report.to_obj") for s in by[name]}
    m["report.serialize_ms"] = 1e3 * sum(
        _dur(s) for name in ("report.to_json", "report.to_obj") for s in by[name]
        if s[_PARENT] not in report_ids)
    m["report.bytes"] = report_bytes
    m["trace.spans"] = len(spans)
    return m
