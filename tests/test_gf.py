"""Field table tests: pinned arithmetic facts, full axiom scans, and the
independent polynomial-division and square-enumeration oracles."""

from __future__ import annotations

import hashlib
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


# the moduli of the extension fields, written apart from `IRREDUCIBLE`,
# highest degree first as sympy takes them
MODULI = {
    4: [1, 1, 1],                   # t^2 + t + 1
    8: [1, 0, 1, 1],                # t^3 + t + 1
    9: [1, 0, 1],                   # t^2 + 1
    16: [1, 0, 0, 1, 1],            # t^4 + t + 1
    25: [1, 0, 2],                  # t^2 + 2
    27: [1, 0, 2, 1],               # t^3 + 2t + 1
    32: [1, 0, 0, 1, 0, 1],         # t^5 + t^2 + 1
    49: [1, 0, 1],                  # t^2 + 1
    64: [1, 0, 0, 0, 0, 1, 1],      # t^6 + t + 1
}

# sha256 of each field's add, mul, neg and inv bytes, in that order: element
# indexes reach every report and golden, so no table may change
TABLE_SHA256 = {
    2: "e79137bf2149c7d1dc14cb6f00a61efafab0ad8ba5597b1e7648cc4251c9659b",
    3: "0cfbcb5926b4e7437ae8d33ee358d02aa11806bb32750f5ee5433d295986b9e4",
    4: "be3768ff42d1c6df14b1d3ff365a8c3e18445c5ce22dc0d98cb81e34075e2c72",
    5: "ba166c49a24eaf45e58b175405fe11a1972461049df134a6cc95a583e1d2d19b",
    7: "ac5bcca3c46429128361420c9cc61fb04da89bdb4ae80f04846b6098b994cd52",
    8: "9dc30e01aec45be43bee2bd04ca701905d446aa47340fd154fb738f7f90cd96f",
    9: "8a52fc4606ab9be73a29fb483fdac205c1258fbf9d40f30db48414f55ca38d3a",
    11: "1c697aadbb0ee389c87dc3e815b748dee0a55a1b7fe0788188f42c52c090e34f",
    13: "279ad02c7a25343c0e3766f2b95f65e76d143d6cb732bf46f51d6cd1e6b8b0a2",
    16: "0046fa46959f1b7afb92cadad2972cc4752782058281ed6e463b835b7bbeec9e",
    25: "0edec5dd4660d0e84a536bba69f19e14cff2a66739febab5ebdb8c9d70250498",
    27: "d9d46e1702dad18942cc349173c0d09c8334bbe68898dab5d25b4928d9636cfa",
    32: "0855e7f46f7b2573c02d4a1605552ba25205a2b8c4d5c2571d08403cc36480b8",
    49: "3c0e5b97a854c15008d5d83f60b4958903f4cb12d24f7bf100bcf69070154fb1",
    64: "78288bcf58c861793e5e770498669489ee2633d92a31c4734904b12c6742030b",
}


@pytest.mark.parametrize("q", sorted(MODULI))
def test_tables_against_polynomial_division_oracle(q):
    F = field_of_order(q)
    modulus = Poly(MODULI[q], t, domain=GF(F.p))
    polys = [idx_to_poly(F, a) for a in range(q)]
    for a, b in itertools.product(range(q), repeat=2):
        assert int(F.add[a, b]) == poly_to_idx(F, polys[a] + polys[b])
        assert int(F.mul[a, b]) == poly_to_idx(F, (polys[a] * polys[b]) % modulus)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_tables_keep_their_pinned_digests(q):
    F = field_of_order(q)
    tables = b"".join(table.tobytes() for table in (F.add, F.mul, F.neg, F.inv))
    assert hashlib.sha256(tables).hexdigest() == TABLE_SHA256[q]


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
    assert make_field(2, 2).mul[2, 2] == 3  # t * t = t + 1


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
