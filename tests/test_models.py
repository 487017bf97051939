"""Model construction, validity decisions, and the plane text format."""

from __future__ import annotations

import pytest

from laguerre_lab.errors import NotALaguerrePlane
from laguerre_lab.gf import field_of_order
from laguerre_lab.models import (
    SUPPORTED_PLANE_ORDERS,
    _model_structure,
    build_plane,
    export_plane,
    import_plane,
    miquelian_plane,
    oval_plane,
    oval_table_power,
)


def loop_model_structure(field, table):
    """The coordinate model built point by point: the reference for the
    array build of `_model_structure`."""
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
                coefficients.append([a, b, c])
    return generators, circles, coefficients


def _assert_model_matches_the_loop(q, table):
    field = field_of_order(q)
    got = _model_structure(field, table)
    assert [part.shape for part in got] == [(q + 1, q), (q**3, q + 1), (q**3, 3)]
    assert [part.tolist() for part in got] == list(loop_model_structure(field, table))


@pytest.mark.parametrize("q", SUPPORTED_PLANE_ORDERS)
def test_model_structure_of_the_square_map_matches_the_loop(q):
    _assert_model_matches_the_loop(q, oval_table_power(q, 2))


@pytest.mark.parametrize("q,exponent", [(q, e) for q in (8, 9, 11) for e in range(q)])
def test_model_structure_of_every_monomial_matches_the_loop(q, exponent):
    _assert_model_matches_the_loop(q, oval_table_power(q, exponent))


def test_order_two_plane():
    P = miquelian_plane(2)
    assert P.n_points == 6
    assert P.n_circles == 8
    assert all(len(set(c)) == 3 for c in P.members)


def test_every_circle_has_q_plus_one_points():
    P = miquelian_plane(3)
    assert P.members.shape == (27, 4)


def test_unsupported_order():
    with pytest.raises(ValueError):
        miquelian_plane(6)
    with pytest.raises(ValueError):
        oval_plane(10, list(range(10)))


def test_oval_square_table_equals_miquelian():
    P = miquelian_plane(5)
    O = oval_plane(5, oval_table_power(5, 2))
    assert (O.members == P.members).all()
    assert (O.coef == P.coef).all()


def test_oval_translation_model_accepted():
    O = oval_plane(8, oval_table_power(8, 4))
    assert O.label == "oval:0,1,6,7,2,3,4,5"
    assert O.n_points == 72 and O.n_circles == 512


def test_oval_cubic_rejected_at_q5():
    with pytest.raises(NotALaguerrePlane) as exc:
        oval_plane(5, oval_table_power(5, 3))
    report = exc.value.report
    assert report.fails
    assert any(v.kind.startswith("axiom") for v in report.violations)


def test_monomial_oval_probe_frozen():
    # measured with the axiom validator and frozen: odd orders accept only
    # the square map, GF(8) also accepts the two non-conic oval exponents
    accepted = {}
    for q in (4, 5, 7, 8, 9):
        good = []
        for e in range(2, q):
            try:
                oval_plane(q, oval_table_power(q, e))
                good.append(e)
            except NotALaguerrePlane:
                pass
        accepted[q] = good
    assert accepted == {4: [2], 5: [2], 7: [2], 8: [2, 4, 6], 9: [2]}


def test_inversion_oval_plane_is_another_separating_model():
    from laguerre_lab.checks import check_bundle, check_miquel
    from laguerre_lab.report import CheckMode

    P6 = oval_plane(8, oval_table_power(8, 6))
    P4 = oval_plane(8, oval_table_power(8, 4))
    assert not (P6.members == P4.members).all()
    mode = CheckMode.sample(100000, 42)
    assert check_miquel(P6, mode).verdict == "Fails"
    assert check_bundle(P6, mode).verdict == "Holds(sampled)"


def test_oval_table_validation():
    with pytest.raises(ValueError):
        oval_plane(5, [0, 1, 2])  # wrong length
    with pytest.raises(ValueError):
        oval_plane(5, [0, 1, 2, 3, 9])  # out of range


@pytest.mark.parametrize("q", [2, 3, 5])
def test_plane_text_roundtrip_bit_exact(q):
    P = miquelian_plane(q)
    text = export_plane(P)
    head = text.splitlines()[0]
    assert head == f"laguerre q={q} points={P.n_points} circles={P.n_circles}"
    Q = import_plane(text)
    assert export_plane(Q) == text
    assert Q.n_points == P.n_points
    assert (Q.members == P.members).all()
    assert Q.circle_coef(0) == P.circle_coef(0)


def test_plane_text_roundtrip_oval():
    P = oval_plane(8, oval_table_power(8, 4))
    text = export_plane(P)
    assert export_plane(import_plane(text)) == text


def test_import_rejects_garbage():
    with pytest.raises(ValueError):
        import_plane("nonsense q=3\n")
    good = export_plane(miquelian_plane(2))
    with pytest.raises(ValueError):
        import_plane(good + "0 1 2\n")  # extra line


def test_build_plane_and_label_rebuild():
    P = build_plane(3, "miquelian")
    assert P.label == "miquelian"
    O = oval_plane(8, oval_table_power(8, 4))
    O2 = build_plane(8, O.label)
    assert (O2.members == O.members).all()
    with pytest.raises(ValueError):
        build_plane(3, "mystery")
    with pytest.raises(ValueError):
        build_plane(3, "oval")  # a label lists the table: oval:v0,...


@pytest.mark.parametrize("q", [3, 13])
def test_build_plane_refuses_an_oval_label_of_another_order(q):
    with pytest.raises(ValueError, match=f"has order 8, not {q}$"):
        build_plane(q, "oval:0,1,6,7,2,3,4,5")
    assert build_plane(8, "oval:0,1,6,7,2,3,4,5").q == 8


@pytest.mark.parametrize("text,message", [
    ("", "empty plane text"),
    ("\n  \n", "empty plane text"),
    ("laguerre q=3", "lacks points=, circles="),
    ("laguerre q=3 points=12\n", "lacks circles="),
    ("laguerre points=12 circles=27\n", "lacks q="),
    ("laguerre q=0 points=0 circles=0\n", "must be positive"),
])
def test_import_rejects_truncated_headers_with_value_error(text, message):
    with pytest.raises(ValueError, match=message):
        import_plane(text)


@pytest.mark.parametrize("coef,message", [
    ("1 2 9", r"^line 33: expected 'coef a b c' with a, b, c in 0\.\.2, got '.* coef 1 2 9'$"),
    ("1 2", r"^line 33: expected 'coef a b c'.*got '.* coef 1 2'$"),
    ("1 2 0 0", r"^line 33: expected 'coef a b c'"),
    ("1 x 2", r"^line 33: expected 'coef a b c'"),
    ("-1 0 0", r"^line 33: expected 'coef a b c'"),
    ("0 0 0", r"^line 33: coef 0 0 0 repeats line 7$"),
])
def test_import_refuses_malformed_or_repeated_coefficients(coef, message):
    # the last circle's triple, on line 33 of a text with one blank line
    lines = export_plane(miquelian_plane(3)).splitlines()
    lines[-1] = lines[-1].partition(" coef ")[0] + " coef " + coef
    lines.insert(1, "")
    with pytest.raises(ValueError, match=message):
        import_plane("\n".join(lines) + "\n")


def test_import_refuses_coefficients_on_some_circles_only():
    lines = export_plane(miquelian_plane(3)).splitlines()
    lines[-1] = lines[-1].partition(" coef ")[0]
    with pytest.raises(ValueError, match="^either all or no circles must carry coefficients$"):
        import_plane("\n".join(lines) + "\n")


def test_import_validates_the_plane():
    # a circle listed twice joins its triples twice: axiom (1) fails
    lines = export_plane(miquelian_plane(3)).splitlines()
    lines[-1] = lines[-2]
    with pytest.raises(NotALaguerrePlane, match="axiom1"):
        import_plane("\n".join(lines) + "\n")
