"""Exact arithmetic in small Galois fields GF(p^k) via precomputed tables.

Elements are plain integer indexes 0..q-1.  The index encodes the
coefficient vector of the residue polynomial in base p, least significant
digit first, so 0 is the zero element and 1 is the multiplicative unit for
every field.  All arithmetic goes through dense numpy lookup tables
(q <= 64 keeps every table under a few KB), which is what the incidence
search loops want.

One construction builds the tables of every order: GF(p^k) is
GF(p)[t]/(f), and a prime field is its k = 1 case, with nothing to reduce.
The reduction polynomial f for each extension field is fixed below, so
element indexes are reproducible across runs and across implementations
in other languages.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FiniteField", "make_field", "field_of_order", "square_roots", "SUPPORTED_ORDERS"]

MAX_ORDER = 64

# Pinned monic irreducible polynomials for the extension fields, written as
# coefficient tuples (c0, c1, ..., ck) for c0 + c1*t + ... + ck*t^k: one for
# every GF(p^k) with k > 1 up to MAX_ORDER.
IRREDUCIBLE = {
    (2, 2): (1, 1, 1),          # t^2 + t + 1
    (2, 3): (1, 1, 0, 1),       # t^3 + t + 1
    (2, 4): (1, 1, 0, 0, 1),    # t^4 + t + 1
    (2, 5): (1, 0, 1, 0, 0, 1), # t^5 + t^2 + 1
    (2, 6): (1, 1, 0, 0, 0, 0, 1),  # t^6 + t + 1
    (3, 2): (1, 0, 1),          # t^2 + 1
    (3, 3): (1, 2, 0, 1),       # t^3 + 2t + 1
    (5, 2): (2, 0, 1),          # t^2 + 2
    (7, 2): (1, 0, 1),          # t^2 + 1
}

SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FiniteField:
    """GF(p^k) with dense addition/multiplication/negation/inverse tables.

    Immutable after construction; safe to share freely.  Use
    :func:`make_field` rather than calling this directly.
    """

    def __init__(self, p: int, k: int):
        if not _is_prime(p):
            raise ValueError(f"p={p} is not prime")
        q = p**k
        if q > MAX_ORDER:
            raise ValueError(f"order {q} exceeds the supported maximum {MAX_ORDER}")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.q = q
        self.irreducible: tuple[int, ...] | None = IRREDUCIBLE.get((p, k))

        # each element's base-p digit vector, least significant first
        weights = p ** np.arange(k)
        d = np.arange(q)[:, None] // weights % p
        add = (d[:, None] + d[None, :]) % p @ weights
        # schoolbook product of every pair, then long division by the monic
        # pinned polynomial from degree 2k-2 down to k
        prod = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
        for i in range(k):
            prod[..., i:i + k] += d[:, None, i, None] * d[None, :, :]
        for deg in range(2 * k - 2, k - 1, -1):
            prod[..., deg - k:deg] -= prod[..., deg, None] * self.irreducible[:k]
        mul = prod[..., :k] % p @ weights

        # -a is the unique b with a + b = 0, and 1/a the unique b with a * b = 1
        unit = mul == 1
        lacking = np.flatnonzero(unit[1:].sum(axis=1) != 1)
        if lacking.size:
            raise AssertionError(f"element {lacking[0] + 1} of GF({q}) lacks a unique inverse")
        self.add, self.mul = add.astype(np.uint8), mul.astype(np.uint8)
        self.neg = (add == 0).argmax(axis=1).astype(np.uint8)
        self.inv = unit.argmax(axis=1).astype(np.uint8)  # inv[0] is a sentinel 0; invert() rejects zero

        for t in (self.add, self.mul, self.neg, self.inv):
            t.flags.writeable = False

    def sub(self, a: int, b: int) -> int:
        return int(self.add[a, self.neg[b]])

    def invert(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return int(self.inv[a])

    def div(self, a: int, b: int) -> int:
        return int(self.mul[a, self.invert(b)])

    def pow(self, a: int, n: int) -> int:
        acc = 1
        for _ in range(n):
            acc = int(self.mul[acc, a])
        return acc


_FIELD_CACHE: dict[tuple[int, int], FiniteField] = {}


def make_field(p: int, k: int = 1) -> FiniteField:
    """Return the (cached) field GF(p^k) built over the pinned polynomial."""
    key = (p, k)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FiniteField(p, k)
    return _FIELD_CACHE[key]


def field_of_order(q: int) -> FiniteField:
    """Return GF(q) for a supported prime power q."""
    for p in range(2, q + 1):
        if _is_prime(p):
            k, n = 0, 1
            while n < q:
                n *= p
                k += 1
            if n == q:
                return make_field(p, k)
    raise ValueError(f"{q} is not a prime power")


def square_roots(field: FiniteField, e: int) -> tuple[int, ...]:
    """All x with x*x = e, by scanning the multiplication-table diagonal.

    The result has size 0, 1 or 2; size 1 happens only for e = 0 in odd
    characteristic, and always in characteristic 2 where squaring is a
    bijection.
    """
    if not 0 <= e < field.q:
        raise ValueError(f"element index {e} out of range for GF({field.q})")
    diag = field.mul[np.arange(field.q), np.arange(field.q)]
    return tuple(int(x) for x in np.nonzero(diag == e)[0])
