"""The library names that the benchmark's traced run rebinds.

`perfbench/tracing.py`'s `instrument` wraps library functions by name
(`build_dts`, `classify_symmetry`, `verify_dts`, `tangent_to_second`,
`find_fixed_point_free_pair`, `moebius_extract`, `checks.draw_block` and
two `CheckReport` methods), so renaming one of them breaks
`perfbench/run.py --trace 1`.  Here `instrument` runs on copies of the
module namespaces and on a subclass of `CheckReport`, so nothing real is
rebound, and each wrapper is called once to show its span and tag.
"""

from __future__ import annotations

import importlib
import pathlib
import types

from laguerre_lab import checks, report, symmetry
from laguerre_lab.models import miquelian_plane

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_instrument_finds_every_name_it_rebinds(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    real = {name: getattr(symmetry, name) for name in dir(symmetry)}
    lib = types.SimpleNamespace(
        symmetry=types.SimpleNamespace(**vars(symmetry)),
        checks=types.SimpleNamespace(**vars(checks)),
        report=types.SimpleNamespace(CheckReport=type("Report", (report.CheckReport,), {})))
    tracer = tracing.Tracer()
    tracing.instrument(tracer, lib)
    assert {name: getattr(symmetry, name) for name in dir(symmetry)} == real
    assert checks.draw_block is lib.checks.draw_block.__wrapped__
    assert not hasattr(report.CheckReport.to_json, "__wrapped__")

    P = miquelian_plane(3)
    K, L, _ = lib.symmetry.find_fixed_point_free_pair(P)
    phi = lib.symmetry.build_dts(P, K, L)
    lib.symmetry.verify_dts(P, phi, K, L)
    lib.symmetry.classify_symmetry(P, K, L, phi)
    lib.symmetry.tangent_to_second(P, int(P.members[K, 0]), K, L)
    lib.symmetry.moebius_extract(P, phi)
    lib.checks.draw_block(1, 0, 4)
    rep = lib.report.CheckReport(check_id="C", mode=report.CheckMode.exhaustive())
    rep.finalize().to_json(P)
    names = {span[2]: span[6] for span in tracer.spans}
    assert set(names) >= {
        "symmetry.find_pair", "symmetry.build_dts", "symmetry.verify_dts", "symmetry.classify",
        "symmetry.tangent_to_second", "symmetry.moebius_extract", "rng.draw_block",
        "report.to_json", "report.to_obj"}
    assert names["rng.draw_block"] == {"draws": 4}
    assert set(names["symmetry.moebius_extract"]) == {"three_point_s", "touching_s"}
