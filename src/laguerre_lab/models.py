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
from .plane import LaguerrePlane

__all__ = [
    "SUPPORTED_PLANE_ORDERS",
    "build_plane",
    "miquelian_plane",
    "oval_plane",
    "oval_table_power",
    "export_plane",
    "import_plane",
]

SUPPORTED_PLANE_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13)


def _model_structure(field: FiniteField, table):
    """Generators, circles and coefficients of the coordinate model with
    value table o, as integer arrays in the pinned order.

    Generators (q+1, q): generator x holds the points x*q + y, and the
    infinity generator, last, holds q*q + a.  Circles (q³, q+1): the row of
    coefficient triple (a, b, c), at index (a*q + b)*q + c, lists the point
    (x, a*o(x) + b*x + c) for each x, then (inf, a).  Coefficients (q³, 3):
    the triple (a, b, c) of each circle row.
    """
    q = field.q
    x = np.arange(q)
    add, mul = field.add.astype(np.int64), field.mul.astype(np.int64)
    generators = np.vstack([np.arange(q * q).reshape(q, q), q * q + x])
    ao = mul[:, np.asarray(table)]                          # (a, x)
    abx = add[ao[:, None, :], mul[None, :, :]]              # (a, b, x)
    y = add[abx[:, :, None, :], x[None, None, :, None]]     # (a, b, c, x)
    circles = np.empty((q, q, q, q + 1), dtype=np.int64)
    circles[..., :q] = x * q + y
    circles[..., q] = (q * q + x)[:, None, None]
    coefficients = np.indices((q, q, q)).reshape(3, -1).T
    return generators, circles.reshape(q ** 3, q + 1), coefficients


@functools.lru_cache(maxsize=None)
def miquelian_plane(q: int) -> LaguerrePlane:
    """The classical Laguerre plane of order q, with o(x) = x²."""
    if q not in SUPPORTED_PLANE_ORDERS:
        raise ValueError(f"order {q} not supported; choose from {SUPPORTED_PLANE_ORDERS}")
    field = field_of_order(q)
    table = np.diagonal(field.mul)
    generators, circles, coefficients = _model_structure(field, table)
    return LaguerrePlane(generators, circles, coefficients=coefficients,
                         field=field, label="miquelian")


def oval_plane(q: int, table) -> LaguerrePlane:
    """Coordinate plane for an arbitrary oval-function value table.

    `table` lists o(x) for every field element index x.  The structure is
    accepted only if it passes the plane axioms; otherwise it is refused
    at its first failing axiom with NotALaguerrePlane, whose message names
    that axiom and whose `report`, built when read, lists every failed
    axiom with witnesses.
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


def build_plane(q: int, model: str = "miquelian") -> LaguerrePlane:
    """The plane of order q named by a report label: 'miquelian' or
    'oval:v0,...,v(q-1)', the value table o(x) of an oval plane."""
    if model == "miquelian":
        return miquelian_plane(q)
    if not model.startswith("oval:"):
        raise ValueError(f"unknown model {model!r}")
    values = model[5:].split(",")
    if len(values) != q:
        raise ValueError(f"model {model} has order {len(values)}, not {q}")
    try:
        table = [int(v) for v in values]
    except ValueError:
        raise ValueError(f"model {model} must list one integer o(x) per x") from None
    if any(not 0 <= v < q for v in table):
        raise ValueError(f"model {model} must list values in 0..{q - 1}")
    return oval_plane(q, table)


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
        row = " ".join(str(int(p)) for p in np.sort(plane.members[cid]))
        coef = plane.circle_coef(cid)
        if coef is not None:
            row += " coef " + " ".join(str(v) for v in coef)
        lines.append(row)
    return "\n".join(lines) + "\n"


def import_plane(text: str) -> LaguerrePlane:
    """Parse the text format back into a validated plane (inverse of export_plane)."""
    numbered = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    lines = [ln for _, ln in numbered]
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
    circles, coefficients = [], []
    first_line: dict[tuple[int, ...], int] = {}
    repeat = None
    for lineno, line in numbered[1 + n_gens:]:
        toks = line.split()
        if "coef" in toks:
            cut = toks.index("coef")
            coef = tuple(int(t) if t.isdecimal() else -1 for t in toks[cut + 1:])
            if len(coef) != 3 or not all(0 <= v < q for v in coef):
                raise ValueError(f"line {lineno}: expected 'coef a b c' with a, b, c "
                                 f"in 0..{q - 1}, got {line!r}")
            if coef in first_line and repeat is None:
                repeat = (f"line {lineno}: coef {' '.join(toks[cut + 1:])} repeats "
                          f"line {first_line[coef]}")
            first_line.setdefault(coef, lineno)
            coefficients.append(coef)
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
    plane = LaguerrePlane(generators, circles, coefficients=coefficients or None,
                          field=field, label="imported")
    if repeat:      # raised after validation: a repeated circle fails axiom (1) first
        raise ValueError(repeat)
    return plane
