"""Build the involutory symmetry attached to a non-tangent circle pair.

Points of K map to L along common tangents; everything else follows by
one interpolation step.  Secant pairs give the classical symmetry fixing
two generators pointwise; disjoint pairs give a fixed-point-free
involution.

Run:  python demos/demo_double_tangency_symmetry.py
"""

from laguerre_lab import (
    build_dts,
    classify_symmetry,
    double_tangency_pencil,
    export_automorphism,
    miquelian_plane,
    tangency_map,
    verify_dts,
)

P = miquelian_plane(5)
K = P.circle_from_coef((1, 0, 0))
L = P.circle_from_coef((4, 0, 2))
t = P.tangency(K, L)
print(f"K = y=x^2, L = y=4x^2+2: {t.kind} at {[P.point_label(p) for p in t.points]}")

h = tangency_map(P, K, L)
print("\nThe tangency map K -> L (fixed exactly on the common points):")
for x, hx in zip(K.members, h.tolist()):
    print(f"  {P.point_label(x):8s} -> {P.point_label(hx)}")

phi = build_dts(P, K, L)
print(f"\nsymmetry built; involution: {phi.is_involution()}, "
      f"fixed points: {len(phi.fixed_points())}")

cls = classify_symmetry(P, K, L, phi)
print(f"classification: {cls.kind}, pointwise-fixed generators x={cls.fixed_generators}, "
      f"witness circle {P.circle_coef(cls.witness_circle)}")

rep = verify_dts(P, phi, K, L)
print(f"verification of all five properties: {rep.verdict} "
      f"({rep.configurations} assertions, {rep.skipped} skipped)")

pen = double_tangency_pencil(P, K, L)
print(f"\ncommon tangent circles (all fixed by the symmetry): "
      f"{sorted(P.circle_coef(c) for c in pen)}")

print("\nportable text form (first 60 chars):")
print(" ", export_automorphism(P, phi)[:60], "...")

Ld = P.circle_from_coef((4, 0, 1))
print(f"\nA disjoint pair instead: K vs {Ld.coef} -> "
      f"{classify_symmetry(P, K, Ld).kind}")
