"""Field table tests: pinned arithmetic facts, full axiom scans, and the
independent polynomial-division and square-enumeration oracles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, Poly, Symbol, isprime

from laguerre_lab.gf import (
    IRREDUCIBLE,
    MAX_ORDER,
    SUPPORTED_ORDERS,
    FiniteField,
    field_of_order,
    make_field,
    square_roots,
)

t = Symbol("t")


def idx_to_poly(field: FiniteField, index: int) -> Poly:
    digits = []
    for _ in range(field.k):
        digits.append(index % field.p)
        index //= field.p
    return Poly(list(reversed(digits)), t, domain=GF(field.p))


def poly_to_idx(field: FiniteField, poly: Poly) -> int:
    coeffs = list(reversed(poly.all_coeffs()))
    return sum(int(c) % field.p * field.p**i for i, c in enumerate(coeffs))


def test_prime_field_arithmetic():
    F = make_field(5)
    assert F.add[2, 4] == 1
    assert F.mul[3, 4] == 2


def test_gf4_against_polynomial_division_oracle():
    # t * t reduced by the pinned polynomial must match the table
    F = make_field(2, 2)
    modulus = Poly([1, 1, 1], t, domain=GF(2))  # t^2 + t + 1
    for a, b in itertools.product(range(4), repeat=2):
        prod = (idx_to_poly(F, a) * idx_to_poly(F, b)) % modulus
        assert int(F.mul[a, b]) == poly_to_idx(F, prod)
    assert F.mul[2, 2] == 3  # t * t = t + 1


def test_gf8_against_polynomial_division_oracle():
    F = make_field(2, 3)
    modulus = Poly([1, 0, 1, 1], t, domain=GF(2))  # t^3 + t + 1
    for a, b in itertools.product(range(8), repeat=2):
        prod = (idx_to_poly(F, a) * idx_to_poly(F, b)) % modulus
        assert int(F.mul[a, b]) == poly_to_idx(F, prod)


def test_gf9_minus_one_is_a_square():
    # -1 has index 2; enumerate all squares as the oracle
    F = make_field(3, 2)
    squares = {int(F.mul[x, x]) for x in range(9)}
    assert 2 in squares
    assert square_roots(F, 2) == (3, 6)


@pytest.mark.parametrize("q", [q for q in SUPPORTED_ORDERS if q <= 16])
def test_field_axiom_scan(q):
    F = field_of_order(q)
    add, mul = F.add, F.mul
    elems = range(q)
    assert (add == add.T).all()
    assert (mul == mul.T).all()
    for a, b, c in itertools.product(elems, repeat=3):
        assert add[add[a, b], c] == add[a, add[b, c]]
        assert mul[mul[a, b], c] == mul[a, mul[b, c]]
        assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]
    # identities, inverses, characteristic
    assert (add[0] == np.arange(q)).all()
    assert (mul[1] == np.arange(q)).all()
    for a in range(1, q):
        assert mul[a, F.inv[a]] == 1
    for a in elems:
        acc = 0
        for _ in range(F.p):
            acc = int(add[acc, a])
        assert acc == 0


@pytest.mark.parametrize("q", [25, 27, 32, 49, 64])
def test_large_field_spot_checks(q):
    F = field_of_order(q)
    assert F.q == q
    # inverse law over every element, associativity spot checks
    for a in range(1, q):
        assert F.mul[a, F.inv[a]] == 1
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b, c = (int(v) for v in rng.integers(0, q, 3))
        assert F.mul[F.mul[a, b], c] == F.mul[a, F.mul[b, c]]
        assert F.add[F.add[a, b], c] == F.add[a, F.add[b, c]]


def test_square_roots_pinned_examples():
    F5, F7 = make_field(5), make_field(7)
    assert square_roots(F5, 4) == (2, 3)
    assert square_roots(F5, 3) == ()  # squares mod 5 are {0,1,4}
    assert square_roots(F7, 2) == (3, 4)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_square_roots_oracle_identity(q):
    F = field_of_order(q)
    for e in range(q):
        brute = tuple(x for x in range(q) if F.mul[x, x] == e)
        assert square_roots(F, e) == brute
        if F.p == 2:
            assert len(brute) == 1  # squaring is a bijection
        else:
            assert len(brute) in (0, 2) or (e == 0 and len(brute) == 1)


def test_make_field_rejections():
    for p in (1, 6):
        with pytest.raises(ValueError, match=f"^p={p} is not prime$"):
            make_field(p)
    with pytest.raises(ValueError, match="^order 128 exceeds the supported maximum 64$"):
        make_field(2, 7)
    with pytest.raises(ValueError, match="^order 169 exceeds"):
        make_field(13, 2)
    with pytest.raises(ValueError, match="^extension degree must be >= 1$"):
        make_field(2, 0)
    with pytest.raises(ValueError):
        field_of_order(12)


def test_every_extension_field_up_to_the_maximum_has_a_pinned_polynomial():
    # so `make_field` needs no refusal of an unpinned GF(p^k)
    pinned = {(p, k) for p in range(2, MAX_ORDER + 1) if isprime(p)
              for k in range(2, 7) if p**k <= MAX_ORDER}
    assert set(IRREDUCIBLE) == pinned
    for (p, k), coeffs in IRREDUCIBLE.items():
        poly = Poly(list(reversed(coeffs)), t, domain=GF(p))
        assert poly.is_irreducible and poly.is_monic and poly.degree() == k


def test_zero_has_no_inverse_and_an_index_off_the_field_no_roots():
    F = make_field(5)
    with pytest.raises(ZeroDivisionError, match="^zero has no multiplicative inverse$"):
        F.invert(0)
    for e in (-1, 5):
        with pytest.raises(ValueError, match=f"^element index {e} out of range for GF\\(5\\)$"):
            square_roots(F, e)


def test_pinned_polynomials_documented():
    assert IRREDUCIBLE[(2, 2)] == (1, 1, 1)
    assert IRREDUCIBLE[(2, 3)] == (1, 1, 0, 1)
    assert IRREDUCIBLE[(3, 2)] == (1, 0, 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 5, 7, 8, 9]), st.data())
def test_field_laws_property(q, data):
    F = field_of_order(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    assert F.add[a, b] == F.add[b, a]
    assert F.mul[a, b] == F.mul[b, a]
    assert F.add[a, F.neg[a]] == 0
    if a != 0:
        assert F.mul[a, F.inv[a]] == 1
    assert F.sub(F.add[a, b], b) == a
