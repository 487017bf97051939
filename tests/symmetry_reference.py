"""The paper's symmetry uniqueness statement, as a test reference.

`loop_uniqueness` checks that all double tangency symmetries fixing the
generators P and Q pointwise and the circle M setwise coincide as point
maps.  It builds each secant pair's symmetry once per memo (`memo_dts`),
so a sweep over many (P, Q, M) with one memo builds each pair once.
"""

from __future__ import annotations

import itertools

from laguerre_lab import symmetry
from laguerre_lab.plane import meet_count
from laguerre_lab.report import CheckMode, CheckReport, Violation


def memo_dts(memo: dict, plane, K, L):
    """`symmetry.build_dts` of (K, L), built once per memo."""
    if (K, L) not in memo:
        memo[K, L] = symmetry.build_dts(plane, K, L)
    return memo[K, L]


def loop_uniqueness(plane, P, Q, M, memo=None) -> CheckReport:
    """All double tangency symmetries fixing P, Q pointwise and M setwise
    coincide as point maps; the symmetries built go into `memo`, by pair.

    A pair (K, L) can qualify only when K ∩ L consists of one point on P
    and one on Q: the symmetry restricted to K is the tangency map, which
    fixes exactly K ∩ L, so the points of K on P and Q must lie in K ∩ L.
    The scan therefore runs over the secant pairs, in `combinations`
    order, of the pencil of each point pair of P x Q; the first qualifying
    symmetry is compared with every later one.
    """
    memo = {} if memo is None else memo
    report = CheckReport(check_id="SymmetryUniqueness", mode=CheckMode.exhaustive())
    qualifying = []
    pq = plane.gen_members[[P, Q]]
    for p in plane.gen_members[P]:
        for qpt in plane.gen_members[Q]:
            pencil = plane.vertex_pencils[p, qpt]
            for i, j in itertools.combinations(range(plane.q), 2):
                K, L = int(pencil[i]), int(pencil[j])
                if meet_count(plane.pair_code[K, L]) != 2:
                    continue
                report.configurations += 1
                phi = memo_dts(memo, plane, K, L)
                if (phi.image[pq] != pq).any():
                    continue
                if int(phi.circle_image()[M]) != M:
                    continue
                qualifying.append(((K, L), phi))
    report.hypothesis_hits = len(qualifying)
    if not qualifying:
        report.verdict = "Inconclusive"
        report.notes = ("NoneFound: no qualifying pair",)
    else:
        base_pair, base = qualifying[0]
        for pair, phi in qualifying[1:]:
            if not base.equals(phi):
                report.add_violation(Violation(
                    "symmetry-mismatch",
                    circles=(base_pair[0], base_pair[1], pair[0], pair[1])))
    return report.finalize()
