"""Exact matrix routines over the table-driven fields, and the point-bitset
layout with its kernels.

A matrix is a tuple of rows, each row a tuple of element codes; the row
routines are exact integer work.

Point sets of subspaces of PG(n,q) have one array layout: a C-contiguous
uint64 array of shape (W, N), word-major, whose row k holds points
64k..64k+63 of N subspaces, W = ceil(#points / 64).  One subspace is a (W,)
column.  batch_point_bitsets builds such arrays from integer basis arrays
over any supported field; the kernels disjoint, subset, superset and
popcount take two arrays that broadcast over their trailing axes, compare
them word by word and AND the results; least_pair scans the column pairs of
one array for the least one a kernel flags.

Integer arrays of element codes are multiplied by field_matmul, a batch at
a time; prime q uses plain integer arithmetic mod q, the extension fields
the FieldTable tables.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

from .galois import FieldTable, build_field

Row = tuple[int, ...]
Matrix = tuple[Row, ...]

# vectors per pass of batch_point_bitsets (bounds its scratch arrays)
_BITSET_CHUNK = 1 << 15


def rref(rows: Iterable[Sequence[int]], fld: FieldTable) -> Matrix:
    """Reduced row echelon form; zero rows dropped, pivots normalized to 1."""
    work = [list(r) for r in rows]
    if not work:
        return ()
    m = len(work[0])
    add, mul, neg, inv = fld.add, fld.mul, fld.neg, fld.inv
    out: list[list[int]] = []
    col = 0
    r = 0
    nrows = len(work)
    while r < nrows and col < m:
        piv = next((i for i in range(r, nrows) if work[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        work[r], work[piv] = work[piv], work[r]
        row = work[r]
        s = inv[row[col]]
        if s != 1:
            work[r] = row = [mul[s][x] for x in row]
        for i in range(nrows):
            if i == r or work[i][col] == 0:
                continue
            c = neg[work[i][col]]
            tgt = work[i]
            for j in range(col, m):
                if row[j]:
                    tgt[j] = add[tgt[j]][mul[c][row[j]]]
        r += 1
        col += 1
    for i in range(r):
        out.append(work[i])
    return tuple(tuple(row) for row in out)


def rank(rows: Iterable[Sequence[int]], fld: FieldTable) -> int:
    return len(rref(rows, fld))


def mat_from_combo(combo: Sequence[int], rows: Matrix, fld: FieldTable) -> Row:
    """Linear combination sum_i combo[i] * rows[i]."""
    m = len(rows[0])
    add, mul = fld.add, fld.mul
    out = [0] * m
    for c, row in zip(combo, rows):
        if c == 0:
            continue
        for j in range(m):
            if row[j]:
                out[j] = add[out[j]][mul[c][row[j]]]
    return tuple(out)


def in_rowspace(v: Sequence[int], rows: Matrix, fld: FieldTable) -> bool:
    """Membership test against an RREF matrix."""
    add, mul, neg = fld.add, fld.mul, fld.neg
    res = list(v)
    for row in rows:
        piv = next(j for j, x in enumerate(row) if x)
        c = res[piv]
        if c == 0:
            continue
        c = neg[c]
        for j in range(piv, len(res)):
            if row[j]:
                res[j] = add[res[j]][mul[c][row[j]]]
    return not any(res)


def nullspace(rows: Matrix, fld: FieldTable, m: int) -> Matrix:
    """RREF basis of the right kernel {x : rows @ x = 0} in GF(q)^m."""
    red = rref(rows, fld) if rows else ()
    pivots = [next(j for j, x in enumerate(row) if x) for row in red]
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for c in free:
        vec = [0] * m
        vec[c] = 1
        for i, p in enumerate(pivots):
            vec[p] = fld.neg[red[i][c]]
        basis.append(vec)
    return rref(basis, fld)


# ---------------------------------------------------------------------------
# Batched arithmetic on integer arrays of element codes


@functools.lru_cache(maxsize=None)
def field_arrays(q: int) -> tuple[np.ndarray, np.ndarray]:
    """add and mul of GF(q) as int64 lookup arrays."""
    fld = build_field(q)
    return np.array(fld.add, dtype=np.int64), np.array(fld.mul, dtype=np.int64)


def field_matmul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a @ b over GF(q) with numpy matmul broadcasting; int64 codes."""
    if build_field(q).e == 1:
        return np.matmul(a, b, dtype=np.int64) % q
    add, mul = field_arrays(q)
    out = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
                   + (a.shape[-2], b.shape[-1]), dtype=np.int64)
    for j in range(a.shape[-1]):
        out = add[out, mul[a[..., :, j:j + 1], b[..., j:j + 1, :]]]
    return out


# ---------------------------------------------------------------------------
# Word-major point bitsets


def coefficient_reps(r: int, q: int) -> np.ndarray:
    """All coefficient vectors in GF(q)^r with last nonzero entry 1.

    One representative per projective point of the row space, so a rank-r
    matrix hit with these yields each point exactly once.
    """
    reps = []
    for last in range(r):
        base = np.zeros(r, dtype=np.int64)
        base[last] = 1
        if last == 0:
            reps.append(base[None, :])
            continue
        grid = np.indices((q,) * last).reshape(last, -1).T
        block = np.zeros((grid.shape[0], r), dtype=np.int64)
        block[:, :last] = grid
        block[:, last] = 1
        reps.append(block)
    return np.concatenate(reps, axis=0)


def batch_point_bitsets(mats: np.ndarray, q: int, point_codes: np.ndarray,
                        n_points: int) -> np.ndarray:
    """Point bitsets for a batch of full-rank r x m matrices over GF(q).

    mats: int array (N, r, m); any basis of each row space will do, RREF is
    not needed.  point_codes: lookup from the base-q encoding of every
    nonzero vector to its point index (size q^m), so the vectors the
    coefficient representatives produce are looked up as they are, without
    scaling.  Returns the word-major (W, N) uint64 array with
    W = ceil(n_points / 64).
    """
    if mats.ndim != 3:
        raise ValueError("expected a (N, r, m) batch")
    n, r, m = mats.shape
    coeffs = coefficient_reps(r, q)
    powers = q ** np.arange(m, dtype=np.int64)
    bits = np.zeros(((n_points + 63) // 64, n), dtype=np.uint64)
    step = max(1, _BITSET_CHUNK // len(coeffs))
    for a in range(0, n, step):
        chunk = mats[a:a + step]
        idx = point_codes[field_matmul(coeffs, chunk, q) @ powers]
        # point p of column c is bit p & 63 of word (p >> 6, c)
        at = (idx >> 6) * n + np.arange(a, a + len(chunk))[:, None]
        np.bitwise_or.at(bits.reshape(-1), at.ravel(),
                         (np.uint64(1) << (idx & 63).astype(np.uint64)).ravel())
    return bits


def disjoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where the point sets a and b share no point."""
    out = (a[0] & b[0]) == 0
    for k in range(1, len(a)):
        out &= (a[k] & b[k]) == 0
    return out


def subset(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where every point of a lies in b."""
    out = (a[0] & ~b[0]) == 0
    for k in range(1, len(a)):
        out &= (a[k] & ~b[k]) == 0
    return out


def superset(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where every point of b lies in a."""
    out = (a[0] & b[0]) == b[0]
    for k in range(1, len(a)):
        out &= (a[k] & b[k]) == b[k]
    return out


def popcount(a: np.ndarray) -> np.ndarray:
    """Number of points in each set of a (int64)."""
    out = np.bitwise_count(a[0]).astype(np.int64)
    for k in range(1, len(a)):
        out += np.bitwise_count(a[k])
    return out


def least_pair(bits: np.ndarray, bad) -> tuple[int, int] | None:
    """Least column pair (i, j), i < j, of a word-major array that the
    kernel `bad` flags; bad gets column i as (W, 1) and the columns after
    it."""
    for i in range(bits.shape[1] - 1):
        hit = bad(bits[:, i:i + 1], bits[:, i + 1:])
        j = int(np.argmax(hit))
        if hit[j]:  # argmax is 0 when nothing is flagged
            return i, i + 1 + j
    return None
