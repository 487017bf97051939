"""Record the values the benchmark's gate compares against (expected.json).

Run from the root of a checkout, at the commit whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/record.py [--seeds 100] [--passes 4]

Verdicts, exact hit and violation counts of the exhaustive sweeps, the
Moebius census and the accepted oval tables do not depend on the seed.
The digest of every symmetry of a symmetry-q9 pass does; it is recorded
for seeds 0 .. seeds-1 and the first `passes` passes of each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import workloads as W  # noqa: E402
from laguerre_lab import checks, cli, errors, models, symmetry  # noqa: E402
from laguerre_lab.report import CheckMode  # noqa: E402


def _pass_digest(plane, seed: int, index: int) -> str:
    rng = W.pass_rng("symmetry-q9", seed, index)
    log = []
    for K, L, _ in inputs.circle_pairs(9, rng, W.PAIRS_PER_PASS):
        k, l = plane.circle_from_coef(K).id, plane.circle_from_coef(L).id
        phi = symmetry.build_dts(plane, k, l)
        kind = symmetry.classify_symmetry(plane, k, l, phi).kind
        image = symmetry.export_automorphism(plane, phi).splitlines()[1]
        log.append(f"{W._coef(K)}|{W._coef(L)}|{kind}|"
                   f"{hashlib.sha256(image.encode()).hexdigest()}")
    return hashlib.sha256("\n".join(log).encode()).hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=100)
    ap.add_argument("--passes", type=int, default=4)
    args = ap.parse_args()
    sample = CheckMode.sample(100_000, 0)
    exhaustive = CheckMode.exhaustive()

    q13 = models.miquelian_plane(13)
    expected = {"sample-q13": {"Axioms": {"verdict": q13.validate_axioms().verdict}}}
    for c in W.CHECK_IDS:
        expected["sample-q13"][c] = {"verdict": checks.CHECKERS[c].run(q13, sample).verdict}

    expected["exhaustive-small"] = {}
    for c, q in W.EXHAUSTIVE_RUNS:
        rep = checks.CHECKERS[c].run(models.miquelian_plane(q), exhaustive)
        expected["exhaustive-small"][f"{c}@q{q}"] = {
            "verdict": rep.verdict, "hits": rep.hypothesis_hits,
            "violations": rep.violation_count}

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "moebius.json")
        cli.main(["moebius", "--q", "7", "--out", out])
        with open(out, encoding="utf-8") as fh:
            census = W.moebius_census(json.load(fh))
    q9 = models.miquelian_plane(9)
    expected["symmetry-q9"] = {"moebius": census, "pass_digests": {
        str(seed): [_pass_digest(q9, seed, i) for i in range(args.passes)]
        for seed in range(args.seeds)}}

    oval = {"accepted": {}}
    for q in W.OVAL_ORDERS:
        oval["accepted"][str(q)] = []
        for e in range(2, q):
            try:
                plane = models.oval_plane(q, inputs.power_table(q, e))
            except errors.NotALaguerrePlane:
                continue
            oval["accepted"][str(q)].append(e)
            if (q, e) in W.OVAL_CHECKED:
                for c in ("Miquel", "Bundle"):
                    oval[f"{c}@q{q}x{e}"] = {"verdict": checks.CHECKERS[c].run(plane, sample).verdict}
    expected["oval-probe"] = oval

    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
