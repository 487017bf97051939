"""Which monomials x^e give a Laguerre plane over GF(q)?

A value table o(x) over GF(q) gives a candidate plane whose circles are
{(x, a·o(x) + b·x + c)} ∪ {(inf, a)}, and `oval_plane` judges it against
the plane axioms.  By Segre's theorem every oval of odd order is a conic,
so over GF(9), GF(11) and GF(13) only x^2 is accepted; in characteristic
2 there are more ovals, and over GF(8) x^2, x^4 and x^6 are accepted.  A
refused candidate raises NotALaguerrePlane at its first failing axiom,
and the exception's report, built when read, lists that axiom's witness
first.

Run:  python demos/demo_oval_monomials.py
"""

from laguerre_lab import NotALaguerrePlane
from laguerre_lab.models import oval_plane, oval_table_power

EXPECTED = {8: [2, 4, 6], 9: [2], 11: [2], 13: [2]}

accepted = {}
for q in EXPECTED:
    print(f"GF({q}):")
    accepted[q] = []
    for e in range(2, q):
        table = oval_table_power(q, e)
        try:
            plane = oval_plane(q, table)
        except NotALaguerrePlane as refusal:
            v = refusal.report.violations[0]
            print(f"  x^{e:<2} refused at {v.kind}: points {list(v.points)}, "
                  f"circles {list(v.circles)}, {dict(v.data)}")
            continue
        accepted[q].append(e)
        print(f"  x^{e:<2} accepted: o = {table}, {plane.n_circles} circles")

print("\naccepted exponents:", accepted)
assert accepted == EXPECTED, f"expected {EXPECTED}"
