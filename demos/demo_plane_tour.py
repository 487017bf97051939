"""Walk through the order-5 coordinate plane: points, circles, pencils,
tangency, and the derived affine plane.

Run:  python demos/demo_plane_tour.py

`derived_affine_plane` and `AffineIncidence` live here, not in the
package: the derived affine plane is a sight of this tour, and no command
or checker reads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from laguerre_lab import CheckMode, CheckReport, LaguerrePlane, Violation, miquelian_plane


@dataclass(frozen=True)
class AffineIncidence:
    """A point/line incidence structure checked against the affine axioms."""

    points: tuple[int, ...]
    lines: tuple[tuple[int, ...], ...]

    def validate(self) -> CheckReport:
        report = CheckReport(check_id="AffineAxioms", mode=CheckMode.exhaustive())
        point_set = set(self.points)
        line_sets = [frozenset(l) for l in self.lines]

        joined: dict[tuple[int, int], int] = {}
        ok_join = True
        for l in self.lines:
            for a, b in itertools.combinations(sorted(l), 2):
                joined[(a, b)] = joined.get((a, b), 0) + 1
        for a, b in itertools.combinations(sorted(point_set), 2):
            report.configurations += 1
            if joined.get((a, b), 0) != 1:
                report.add_violation(Violation(
                    "affine-join", points=(a, b),
                    data=(("count", joined.get((a, b), 0)),)))
                ok_join = False

        # Playfair: exactly one line through an outside point missing the line.
        ok_par = True
        for li, l in enumerate(line_sets):
            for x in point_set - l:
                report.configurations += 1
                count = sum(1 for m in line_sets if x in m and not (m & l))
                if count != 1:
                    report.add_violation(Violation(
                        "affine-parallel", points=(x,), circles=(li,),
                        data=(("count", count),)))
                    ok_par = False

        triangle = False
        for a, b, c in itertools.combinations(sorted(point_set), 3):
            if not any({a, b, c} <= l for l in line_sets):
                triangle = True
                break
        if not triangle:
            report.add_violation(Violation("affine-triangle"))
        report.notes = (
            f"join={'ok' if ok_join else 'failed'}",
            f"parallel={'ok' if ok_par else 'failed'}",
        )
        return report.finalize()


def derived_affine_plane(plane: LaguerrePlane, p: int) -> AffineIncidence:
    """Affine plane on the points non-parallel to p.

    Lines are the circles through p (with p removed) together with the
    generators avoiding p.
    """
    keep = np.nonzero(plane.gen_of != plane.gen_of[p])[0]
    lines = []
    for cid in plane.circles_through(p):
        lines.append(tuple(int(x) for x in plane.members[cid] if x != p))
    g_p = int(plane.gen_of[p])
    for gid in range(plane.n_gens):
        if gid != g_p:
            lines.append(tuple(int(x) for x in plane.gen_members[gid]))
    return AffineIncidence(tuple(int(x) for x in keep), tuple(lines))


def main() -> None:
    P = miquelian_plane(5)
    q = 5
    pt = lambda x, y: x * q + y

    print(P)
    print(f"points {P.n_points} = q^2+q, circles {P.n_circles} = q^3, "
          f"generators {P.n_gens} = q+1, points per circle {P.members.shape[1]} = q+1")

    print("\nThe circle through (0,0), (1,1), (2,4) is the parabola y = x^2:")
    K = P.circle_through(pt(0, 0), pt(1, 1), pt(2, 4))
    print(f"  coefficients {K.coef}, members {[P.point_label(p) for p in K.members]}")

    print("\nEvery generator meets it exactly once; the point parallel to (2,3) is:")
    print(f"  {P.point_label(P.parallel_point(pt(2, 3), K))}")

    print("\nTangency classification against a few partners:")
    for coef in [(4, 0, 2), (1, 0, 1), (4, 0, 1)]:
        t = P.tangency(K, P.circle_from_coef(coef))
        print(f"  vs {coef}: {t.kind:8s} {[P.point_label(p) for p in t.points]}")

    print("\nThe tangent pencil at (0,0) consists of the parabolas y = a x^2:")
    pen = P.tangent_pencil(pt(0, 0), K)
    print(f"  size {len(pen)}: {sorted(P.circle_coef(c) for c in pen)}")

    print("\nThe unique pencil member through (1,2):")
    print(f"  {P.tangent_circle(pt(0, 0), K, pt(1, 2)).coef}")

    print("\nDeriving the affine plane at (0,0): circles through the point become"
          "\nlines, generators avoiding it stay lines:")
    A = derived_affine_plane(P, pt(0, 0))
    rep = A.validate()
    print(f"  {len(A.points)} points, {len(A.lines)} lines, affine axioms: {rep.verdict}")


if __name__ == "__main__":
    main()
