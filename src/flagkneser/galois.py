"""Exact arithmetic tables for GF(q), q a small prime power.

Field elements are integer codes 0..q-1.  For q = p^e a code is the base-p
digit vector of the polynomial representative, least significant digit first
(constant term), so code 0 is the additive identity and code 1 the
multiplicative identity for every supported order.  All arithmetic is done
through dense lookup tables; nothing here is floating point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)

# Pinned irreducible modulus per (p, e): Conway polynomial coefficients,
# constant term first.  Pinning the modulus keeps element codes stable
# across runs and implementations.
_MODULUS = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),        # x^2 + 2x + 2
    (5, 1): (3, 1),
    (7, 1): (4, 1),
    (11, 1): (9, 1),
    (13, 1): (11, 1),
}


@dataclass(frozen=True)
class FieldTable:
    """Dense add/mul/neg/inv tables for GF(q), immutable once built."""

    q: int
    p: int
    e: int
    modulus: tuple[int, ...]
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    neg: tuple[int, ...]
    inv: tuple[int, ...]  # inv[0] is a placeholder 0, never a real inverse

    def sub(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by the zero element of GF(%d)" % self.q)
        return self.mul[a][self.inv[b]]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            raise ValueError("negative exponent")
        out = 1
        for _ in range(k):
            out = self.mul[out][a]
        return out


def _prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, for a prime power q."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    while q > 1:
        q //= p
        e += 1
    return p, e


def _digits(code: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        out.append(code % p)
        code //= p
    return out


def _encode(digits: list[int], p: int) -> int:
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


def _poly_mul_mod(a: list[int], b: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    e = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce modulo the pinned monic irreducible
    for deg in range(len(prod) - 1, e - 1, -1):
        c = prod[deg]
        if c == 0:
            continue
        prod[deg] = 0
        for k in range(e + 1):
            prod[deg - e + k] = (prod[deg - e + k] - c * modulus[k]) % p
    prod = prod[:e] + [0] * max(0, e - len(prod))
    return prod[:e]


@functools.lru_cache(maxsize=None)
def build_field(q: int) -> FieldTable:
    """Build (and cache) the arithmetic tables for GF(q).

    Raises ValueError when q is not one of SUPPORTED_ORDERS, the prime
    powers 2..16.
    """
    # the supported list comes first: _prime_power trial-divides up to
    # sqrt(q), which never ends for a large prime q
    if q not in SUPPORTED_ORDERS:
        raise ValueError(
            "q=%d is outside the supported orders %s" % (q, list(SUPPORTED_ORDERS))
        )
    p, e = _prime_power(q)
    modulus = _MODULUS[(p, e)]

    if e == 1:
        add = tuple(tuple((a + b) % p for b in range(q)) for a in range(q))
        mul = tuple(tuple((a * b) % p for b in range(q)) for a in range(q))
    else:
        vec = {c: _digits(c, p, e) for c in range(q)}
        add = tuple(
            tuple(_encode([(x + y) % p for x, y in zip(vec[a], vec[b])], p) for b in range(q))
            for a in range(q)
        )
        mul = tuple(
            tuple(_encode(_poly_mul_mod(vec[a], vec[b], modulus, p), p) for b in range(q))
            for a in range(q)
        )

    neg = tuple(next(b for b in range(q) if add[a][b] == 0) for a in range(q))
    inv_list = [0]
    for a in range(1, q):
        inv_list.append(next(b for b in range(1, q) if mul[a][b] == 1))
    return FieldTable(q=q, p=p, e=e, modulus=modulus, add=add, mul=mul,
                      neg=neg, inv=tuple(inv_list))
