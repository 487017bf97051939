"""Concrete finite Laguerre planes over GF(q), plus the plane text format.

The coordinate model has points (GF(q) ∪ {inf}) × GF(q), parallel meaning
equal first coordinate, and one circle per coefficient triple (a,b,c):

    { (x, a*o(x) + b*x + c) : x in GF(q) }  ∪  { (inf, a) }

with o(x) = x² for the classical (miquelian) plane and an arbitrary value
table o for the generalized oval model.  Point and circle indexes are
pinned (x-major points with the infinity generator last, coefficient-
lexicographic circles) so witnesses are reproducible across runs.
"""

from __future__ import annotations

import functools

import numpy as np

from .gf import FiniteField, field_of_order
from .plane import LaguerrePlane, Tangency, _cid

__all__ = [
    "SUPPORTED_PLANE_ORDERS",
    "miquelian_plane",
    "oval_plane",
    "oval_table_power",
    "export_plane",
    "import_plane",
    "discriminant_tangency",
]

SUPPORTED_PLANE_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13)


def _model_structure(field: FiniteField, table):
    """Generators and circles of the coordinate model with value table o."""
    q = field.q
    point = lambda x, y: x * q + y          # finite points, x-major
    inf_point = lambda a: q * q + a         # infinity generator is last

    generators = [[point(x, y) for y in range(q)] for x in range(q)]
    generators.append([inf_point(a) for a in range(q)])

    circles = []
    coefficients = []
    mul, add = field.mul, field.add
    for a in range(q):
        ao = [int(mul[a, table[x]]) for x in range(q)]
        for b in range(q):
            abx = [int(add[ao[x], mul[b, x]]) for x in range(q)]
            for c in range(q):
                members = [point(x, int(add[abx[x], c])) for x in range(q)]
                members.append(inf_point(a))
                circles.append(members)
                coefficients.append((a, b, c))
    return generators, circles, coefficients


@functools.lru_cache(maxsize=None)
def miquelian_plane(q: int) -> LaguerrePlane:
    """The classical Laguerre plane of order q, with o(x) = x²."""
    if q not in SUPPORTED_PLANE_ORDERS:
        raise ValueError(f"order {q} not supported; choose from {SUPPORTED_PLANE_ORDERS}")
    field = field_of_order(q)
    table = [int(field.mul[x, x]) for x in range(q)]
    generators, circles, coefficients = _model_structure(field, table)
    return LaguerrePlane(generators, circles, coefficients=coefficients,
                         field=field, label="miquelian")


def oval_plane(q: int, table) -> LaguerrePlane:
    """Coordinate plane for an arbitrary oval-function value table.

    `table` lists o(x) for every field element index x.  The structure is
    accepted only if it passes the plane axioms; otherwise
    NotALaguerrePlane carries the failed axiom and witness.
    """
    if q not in SUPPORTED_PLANE_ORDERS:
        raise ValueError(f"order {q} not supported; choose from {SUPPORTED_PLANE_ORDERS}")
    table = [int(v) for v in table]
    if len(table) != q or any(not 0 <= v < q for v in table):
        raise ValueError(f"oval table must list {q} values in range 0..{q - 1}")
    field = field_of_order(q)
    generators, circles, coefficients = _model_structure(field, table)
    label = "oval:" + ",".join(str(v) for v in table)
    return LaguerrePlane(generators, circles, coefficients=coefficients,
                         field=field, label=label)


def oval_table_power(q: int, exponent: int) -> list[int]:
    """Value table of the monomial x -> x^exponent over GF(q)."""
    field = field_of_order(q)
    return [field.pow(x, exponent) for x in range(q)]


def plane_from_label(label: str) -> LaguerrePlane:
    """Rebuild a model plane from its report label, e.g. 'oval:0,1,4,4,1'."""
    if label.startswith("oval:"):
        table = [int(v) for v in label[5:].split(",")]
        return oval_plane(len(table), table)
    raise ValueError(f"cannot rebuild plane from label {label!r}")


def build_plane(q: int, model: str = "miquelian", oval_table=None) -> LaguerrePlane:
    if model == "miquelian":
        return miquelian_plane(q)
    if model == "oval":
        if oval_table is None:
            raise ValueError("oval model requires a value table")
        return oval_plane(q, oval_table)
    if model.startswith("oval:"):
        order = model.count(",") + 1     # the table lists o(x) for each x
        if order != q:
            raise ValueError(f"model {model} has order {order}, not {q}")
        return plane_from_label(model)
    raise ValueError(f"unknown model {model!r}")


# -- tangency via the coefficient discriminant ---------------------------

def discriminant_tangency(plane: LaguerrePlane, K, L) -> Tangency:
    """Classify a circle pair from coefficients alone (odd characteristic).

    For (a,b,c) vs (a',b',c') with a != a' the finite intersections are the
    roots of (a-a')x² + (b-b')x + (c-c') and the classification follows the
    discriminant (b-b')² - 4(a-a')(c-c'); pairs with a = a' share the
    infinity point (inf,a) and reduce to the linear case.  Used as the
    cross-check oracle against the set-theoretic path.
    """
    field = plane.field
    if field is None:
        raise ValueError("discriminant path needs a coordinate model")
    if field.p == 2:
        raise ValueError("discriminant path is only valid in odd characteristic")
    K, L = _cid(K), _cid(L)
    a1, b1, c1 = plane.circle_coef(K)
    a2, b2, c2 = plane.circle_coef(L)
    if (a1, b1, c1) == (a2, b2, c2):
        return Tangency("equal", tuple(int(p) for p in plane.members[K]))
    q = field.q
    da = field.sub(a1, a2)
    db = field.sub(b1, b2)
    dc = field.sub(c1, c2)
    inf1, inf2 = q * q + a1, q * q + a2

    def xy_point(x):
        y = int(field.add[field.add[field.mul[a1, field.mul[x, x]], field.mul[b1, x]], c1])
        return x * q + y

    if da == 0:
        if db == 0:
            return Tangency("tangent", (inf1,))  # shared infinity point only
        x = field.div(field.neg[dc], db)
        return Tangency("secant", tuple(sorted((xy_point(x), inf1))))
    disc = field.sub(field.mul[db, db], field.mul[field.mul[field.add[2, 2], da], dc])
    if disc == 0:
        x = field.div(field.neg[db], field.add[da, da])
        return Tangency("tangent", (xy_point(x),))
    diag = field.mul[np.arange(q), np.arange(q)]
    roots = np.nonzero(diag == disc)[0]
    if len(roots) == 0:
        return Tangency("disjoint")
    r = int(roots[0])
    two_da = field.add[da, da]
    xs = (field.div(field.sub(r, db), int(two_da)),
          field.div(field.sub(int(field.neg[r]), db), int(two_da)))
    return Tangency("secant", tuple(sorted(xy_point(x) for x in xs)))


# -- plain-text plane format ---------------------------------------------

def export_plane(plane: LaguerrePlane) -> str:
    """Serialize a plane to the line-oriented text format.

    Header `laguerre q=<q> points=<n> circles=<m>`, then one line of point
    indexes per generator, then one line per circle (sorted indexes, plus
    `coef a b c` for coordinate models).  Round-trips bit-exactly.
    """
    lines = [f"laguerre q={plane.q} points={plane.n_points} circles={plane.n_circles}"]
    for g in plane.gen_members:
        lines.append(" ".join(str(int(p)) for p in g))
    for cid in range(plane.n_circles):
        row = " ".join(str(int(p)) for p in plane.members[cid])
        coef = plane.circle_coef(cid)
        if coef is not None:
            row += " coef " + " ".join(str(v) for v in coef)
        lines.append(row)
    return "\n".join(lines) + "\n"


def import_plane(text: str) -> LaguerrePlane:
    """Parse the text format back into a validated plane (inverse of export_plane)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty plane text: missing 'laguerre' header")
    head = lines[0].split()
    if head[0] != "laguerre":
        raise ValueError("missing 'laguerre' header")
    fields = dict(part.partition("=")[::2] for part in head[1:])
    missing = [k for k in ("q", "points", "circles") if k not in fields]
    if missing:
        raise ValueError(f"plane header lacks {', '.join(k + '=' for k in missing)}")
    q = int(fields["q"])
    n_points = int(fields["points"])
    n_circles = int(fields["circles"])
    if q < 1:
        raise ValueError(f"plane header has q={q}; the order must be positive")
    n_gens = n_points // q
    if len(lines) != 1 + n_gens + n_circles:
        raise ValueError(f"expected {1 + n_gens + n_circles} lines, found {len(lines)}")

    generators = [[int(tok) for tok in lines[1 + i].split()] for i in range(n_gens)]
    circles = []
    coefficients = []
    for i in range(n_circles):
        toks = lines[1 + n_gens + i].split()
        if "coef" in toks:
            cut = toks.index("coef")
            coefficients.append(tuple(int(t) for t in toks[cut + 1:cut + 4]))
            toks = toks[:cut]
        circles.append([int(t) for t in toks])
    if coefficients and len(coefficients) != n_circles:
        raise ValueError("either all or no circles must carry coefficients")

    field = None
    if coefficients:
        try:
            field = field_of_order(q)
        except ValueError:
            field = None
    return LaguerrePlane(generators, circles,
                         coefficients=coefficients or None,
                         field=field, label="imported")
