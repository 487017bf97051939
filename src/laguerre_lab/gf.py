"""Exact arithmetic in small Galois fields GF(p^k) via precomputed tables.

Elements are plain integer indexes 0..q-1.  The index encodes the
coefficient vector of the residue polynomial in base p, least significant
digit first, so 0 is the zero element and 1 is the multiplicative unit for
every field.  All arithmetic goes through dense numpy lookup tables
(q <= 64 keeps every table under a few KB), which is what the incidence
search loops want.

The reduction polynomial for each extension field is fixed below, so
element indexes are reproducible across runs and across implementations
in other languages.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FiniteField", "make_field", "square_roots", "SUPPORTED_ORDERS"]

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


def _digits(index: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(index % p)
        index //= p
    return out


def _poly_mul_mod(u: list[int], v: list[int], mod: tuple[int, ...], p: int) -> list[int]:
    """Multiply coefficient vectors and reduce by the monic polynomial `mod`."""
    k = len(mod) - 1
    prod = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                prod[i + j] = (prod[i + j] + ui * vj) % p
    for deg in range(len(prod) - 1, k - 1, -1):
        c = prod[deg]
        if c:
            prod[deg] = 0
            for j in range(k):
                prod[deg - k + j] = (prod[deg - k + j] - c * mod[j]) % p
    return [c % p for c in prod[:k]] + [0] * max(0, k - len(prod))


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

        if k == 1:
            idx = np.arange(q, dtype=np.int64)
            add = (idx[:, None] + idx[None, :]) % p
            mul = (idx[:, None] * idx[None, :]) % p
        else:
            vecs = [_digits(i, p, k) for i in range(q)]
            add = np.zeros((q, q), dtype=np.int64)
            mul = np.zeros((q, q), dtype=np.int64)
            weights = [p**i for i in range(k)]
            for a in range(q):
                for b in range(q):
                    s = [(vecs[a][i] + vecs[b][i]) % p for i in range(k)]
                    add[a, b] = sum(c * w for c, w in zip(s, weights))
                    m = _poly_mul_mod(vecs[a], vecs[b], self.irreducible, p)
                    mul[a, b] = sum(c * w for c, w in zip(m, weights))

        self.add = add.astype(np.uint8)
        self.mul = mul.astype(np.uint8)

        # -a is the unique b with a + b = 0
        neg = np.zeros(q, dtype=np.uint8)
        for a in range(q):
            neg[a] = int(np.nonzero(self.add[a] == 0)[0][0])
        self.neg = neg

        inv = np.zeros(q, dtype=np.uint8)
        for a in range(1, q):
            hits = np.nonzero(self.mul[a] == 1)[0]
            if len(hits) != 1:
                raise AssertionError(f"element {a} of GF({q}) lacks a unique inverse")
            inv[a] = int(hits[0])
        self.inv = inv  # inv[0] is a sentinel 0; invert() rejects zero

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
