"""Input generation for the benchmark, independent of the library under test.

Oval tables and circle pairs are computed here with the benchmark's own
small field arithmetic, so the library receives only generated inputs and
the gate has a second route to the facts it checks (which oval tables
exist, whether a circle pair is secant or disjoint).  Element indexes
follow the library's documented encoding: base-p digits of the residue
polynomial, least significant first, reduced by the pinned polynomials
GF(8): t^3+t+1 and GF(9): t^2+1.
"""

from __future__ import annotations

import functools

# order -> (characteristic, monic reduction polynomial c0..ck)
_EXTENSIONS = {8: (2, (1, 1, 0, 1)), 9: (3, (1, 0, 1))}
_PRIMES = (3, 5, 7, 11, 13)


def _digits(x: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        x, d = divmod(x, p)
        out.append(d)
    return out


def _index(digits: list[int], p: int) -> int:
    return sum(d * p**i for i, d in enumerate(digits))


def _poly_mul(u: list[int], v: list[int], p: int, mod: tuple[int, ...]) -> list[int]:
    k = len(mod) - 1
    prod = [0] * (2 * k - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            prod[i + j] = (prod[i + j] + a * b) % p
    for deg in range(len(prod) - 1, k - 1, -1):
        c = prod[deg]
        if c:
            for j in range(k + 1):
                prod[deg - k + j] = (prod[deg - k + j] - c * mod[j]) % p
    return prod[:k]


@functools.lru_cache(maxsize=None)
def field(q: int) -> tuple[list[list[int]], list[list[int]]]:
    """Addition and multiplication tables of GF(q)."""
    if q in _PRIMES:
        rows = range(q)
        return ([[(a + b) % q for b in rows] for a in rows],
                [[(a * b) % q for b in rows] for a in rows])
    p, mod = _EXTENSIONS[q]
    k = len(mod) - 1
    digits = [_digits(x, p, k) for x in range(q)]
    add = [[_index([(s + t) % p for s, t in zip(digits[a], digits[b])], p)
            for b in range(q)] for a in range(q)]
    mul = [[_index(_poly_mul(digits[a], digits[b], p, mod), p)
            for b in range(q)] for a in range(q)]
    return add, mul


def power_table(q: int, exponent: int) -> list[int]:
    """Value table of x -> x^exponent over GF(q)."""
    _, mul = field(q)
    table = []
    for x in range(q):
        y = 1
        for _ in range(exponent):
            y = mul[y][x]
        table.append(y)
    return table


def intersection_kind(q: int, K: tuple[int, int, int], L: tuple[int, int, int]) -> str:
    """equal, tangent, secant or disjoint, for two circles y = a x^2 + b x + c.

    Counts the common finite points by trying every x, plus the common
    point at infinity (inf, a) when the leading coefficients agree.
    """
    if K == L:
        return "equal"
    add, mul = field(q)

    def y(c, x):
        return add[add[mul[c[0]][mul[x][x]]][mul[c[1]][x]]][c[2]]

    common = int(K[0] == L[0]) + sum(y(K, x) == y(L, x) for x in range(q))
    return {0: "disjoint", 1: "tangent", 2: "secant"}[common]


def circle_pairs(q: int, rng, count: int) -> list[tuple[tuple, tuple, str]]:
    """`count` distinct non-tangent circle pairs (K, L, kind) of the miquelian plane."""
    seen = set()
    out = []
    while len(out) < count:
        K = tuple(rng.randrange(q) for _ in range(3))
        L = tuple(rng.randrange(q) for _ in range(3))
        kind = intersection_kind(q, K, L)
        key = (min(K, L), max(K, L))
        if kind in ("equal", "tangent") or key in seen:
            continue
        seen.add(key)
        out.append((K, L, kind))
    return out
