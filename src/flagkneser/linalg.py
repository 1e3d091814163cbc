"""Exact matrix routines over the table-driven fields, and the point-bitset
layout with its kernels.

A matrix is a tuple of rows, each row a tuple of element codes; the row
routines are exact integer work.

Point sets of subspaces of PG(n,q) have one array layout: a C-contiguous
uint64 array of shape (W, N), word-major, whose row k holds points
64k..64k+63 of N subspaces, W = ceil(#points / 64).  One subspace is a (W,)
column.  batch_point_ids lists the point indices of each matrix of an
integer basis array over any supported field, scatter_point_ids sets them
as bits in such an array, point_bits reads the bits back as a bool row
per subspace and point_ids as its ascending point indices, and
batch_point_bitsets does the first two a chunk at a time; a caller that
needs the points of the subspaces of each row space as well (the planes
of a solid) gathers them from the same ids.  The kernels disjoint and
subset take two arrays that broadcast over their trailing axes, compare
them word by word and AND the results.  Against a single (W,) constraint
column (ndim 1; for subset, its first argument) they read only the words
where that column is nonzero, since no test can fail on the others: a
point or a line of PG(5,3) fills 1-4 of its 6 words.  Other calls read every word, through the same loop.  popcount
counts the points of each set and meet_count, a word row at a time, the
points two sets share; least_pair scans the column pairs of one array for
the least one a kernel flags.

batch_point_ids does no field arithmetic per point.  An element code is
its base-p digit string, so adding vectors adds digits mod p with no carry
between digits: each basis row's multiples are looked up once as lifted
codes, one spaced-out field per digit, each point is one integer add (an
XOR at p = 2), and a small table takes the digits mod p back to a base-q
code.  Other integer arrays of element codes are multiplied by
field_matmul, a batch at a time; prime q uses plain integer arithmetic mod
q, the extension fields the FieldTable tables.
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
# batch_point_ids: most vector codes in one column group's lift table, and
# the bits of lifted digits one reducer lookup takes
_GROUP_CODES = 1 << 14
_REDUCER_BITS = 12


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
    matrix hit with these yields each point exactly once; r = 0 has none.
    """
    blocks = [np.zeros((0, r), dtype=np.int64)]
    for last in range(r):
        block = np.zeros((q ** last, r), dtype=np.int64)
        block[:, :last] = np.indices((q,) * last).reshape(last, q ** last).T
        block[:, last] = 1
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


def code_positions(reps: np.ndarray, q: int) -> np.ndarray:
    """Lookup from the base-q code (LSB = coordinate 0) of every vector in
    GF(q)^m to the row of reps, one representative per point of PG(m-1,q),
    of which it is a nonzero multiple; the zero vector maps to -1."""
    mul = field_arrays(q)[1]
    powers = q ** np.arange(reps.shape[1], dtype=np.int64)
    table = np.full(q ** reps.shape[1], -1, dtype=np.int64)
    for scalar in range(1, q):
        table[mul[scalar][reps] @ powers] = np.arange(len(reps))
    return table


@functools.lru_cache(maxsize=None)
def _lift_table(q: int, w: int, b: int) -> np.ndarray:
    """lift[c, x] is the lifted code of c * v, v the vector of GF(q)^w with
    base-q code x: base-p digit t of c * v (digit d of coordinate j,
    t = e*j + d) in bits b*t .. b*t + b - 1."""
    fld = build_field(q)
    p, e = fld.p, fld.e
    digits = np.arange(q)[:, None] // p ** np.arange(e) % p
    lifted = digits @ (1 << b * np.arange(e))
    mul = field_arrays(q)[1]
    codes = np.arange(q ** w)
    lift = np.zeros((q, q ** w), dtype=np.int64)
    # a coordinate at a time: a freed (q, q^w, w) temporary raises malloc's
    # mmap threshold, which kept the PG(6,4) solids oracle 3.7 MB higher
    for j in range(w):
        lift |= lifted[mul[:, codes // q ** j % q]] << b * e * j
    return lift


@functools.lru_cache(maxsize=None)
def _digit_reducer(p: int, b: int) -> np.ndarray:
    """red[x]: the base-p number whose digit t is field t of x mod p, for x
    over the fields of b bits that fit in _REDUCER_BITS bits."""
    f = _REDUCER_BITS // b
    fields = np.arange(1 << b * f)[:, None] >> b * np.arange(f) & (1 << b) - 1
    return fields % p @ p ** np.arange(f)


def batch_point_ids(mats: np.ndarray, q: int, point_codes: np.ndarray) -> np.ndarray:
    """Point indices of a batch of full-rank r x m matrices over GF(q).

    mats: int array (N, r, m); any basis of each row space will do, RREF is
    not needed, and r = 0 gives no points.  point_codes: lookup from the
    base-q encoding of every nonzero vector to its point index (size q^m),
    so the vectors the coefficient representatives produce are looked up
    as they are, without scaling.  Returns an int64 (N, k) array: entry
    (i, j) is the point coefficient_reps(r, q)[j] @ mats[i].

    No field arithmetic is done per point.  An element's code is its
    base-p digit string, and a sum of vectors adds their digits mod p with
    no carry from one digit to the next.  So each digit gets a field of b
    bits, wide enough that a sum of r digits never carries (b = 1 and XOR
    at p = 2); _lift_table gives the lifted code of every multiple of each
    basis row, and each coefficient vector is one integer sum of them.
    Block l of coefficient_reps is every sum of multiples of the rows < l
    (c_0 slowest) plus row l, and those sums are the ones of block l-1,
    each plus every multiple of row l-1.  _digit_reducer takes the digits
    mod p back to a base-q code.  The coordinates go in groups whose lift
    table has at most _GROUP_CODES columns and whose lifted code fits in
    an int64.
    """
    if mats.ndim != 3:
        raise ValueError("expected a (N, r, m) batch")
    n, r, m = mats.shape
    fld = build_field(q)
    p, e = fld.p, fld.e
    b = 1 if p == 2 else (max(r, 1) * (p - 1)).bit_length()
    combine = np.bitwise_xor if p == 2 else np.add
    width = 1
    while q ** (width + 1) <= _GROUP_CODES and b * e * (width + 1) < 64:
        width += 1
    f = _REDUCER_BITS // b  # digits per reducer lookup
    mask = (1 << b * f) - 1
    for start in range(0, m, width):
        w = min(width, m - start)
        # multiples[c, i, l]: lifted code of c times row l of basis i
        multiples = _lift_table(q, w, b)[:, mats[:, :, start:start + w]
                                         @ q ** np.arange(w, dtype=np.int64)]
        lifted = np.empty((n, (q ** r - 1) // (q - 1)), dtype=np.int64)
        sums = np.zeros((n, 1), dtype=np.int64)
        at = 0
        for l in range(r):
            block = lifted[:, at:at + sums.shape[1]]
            combine(sums, multiples[1, :, l, None], out=block)
            at += sums.shape[1]
            if l + 1 < r:
                sums = combine(sums[:, :, None], multiples[:, :, l].T[:, None]
                               ).reshape(n, q * sums.shape[1])
        if p == 2:
            part = lifted
            part <<= e * start
        else:
            # digits t .. t + f - 1 at a time, scaled into place by the table
            reducer = _digit_reducer(p, b)
            part = (reducer * q ** start)[lifted & mask]
            chunk = np.empty_like(lifted)
            for t in range(f, e * w, f):
                np.right_shift(lifted, b * t, out=chunk)
                chunk &= mask
                part += (reducer * p ** (e * start + t))[chunk]
        if start == 0:
            codes = part
        else:
            codes += part
    return point_codes[codes]


def scatter_point_ids(bits: np.ndarray, ids: np.ndarray, start: int = 0) -> None:
    """Set the points of row i of the int (N', k) array ids in column
    start + i of the C-contiguous word-major uint64 array bits, in place."""
    n = bits.shape[1]
    # point p of column c is bit p & 63 of word (p >> 6, c)
    at = (ids >> 6) * n + np.arange(start, start + len(ids))[:, None]
    np.bitwise_or.at(bits.reshape(-1), at.ravel(),
                     (np.uint64(1) << (ids & 63).astype(np.uint64)).ravel())


def point_bits(words: np.ndarray) -> np.ndarray:
    """Bool (N, 64W) array of the sets of a (W, N) word-major array or one
    (W,) column: row i holds set i's points, point p in column p."""
    cols = np.ascontiguousarray(words.reshape(len(words), -1).T, dtype="<u8")
    return np.unpackbits(cols.view(np.uint8), axis=1,
                         bitorder="little").view(bool)


def point_ids(words: np.ndarray, k: int) -> np.ndarray:
    """The points of each set of a (W, N) word-major array of sets of k
    points: an int64 (N, k) array, ascending along each row."""
    bits = point_bits(words)
    return (np.flatnonzero(bits) % bits.shape[1]).reshape(-1, k)


def batch_point_bitsets(mats: np.ndarray, q: int, point_codes: np.ndarray,
                        n_points: int) -> np.ndarray:
    """Point bitsets for a batch of full-rank r x m matrices over GF(q):
    the batch_point_ids of each chunk scattered into the word-major (W, N)
    uint64 array, W = ceil(n_points / 64)."""
    if mats.ndim != 3:
        raise ValueError("expected a (N, r, m) batch")
    n, r = mats.shape[:2]
    bits = np.zeros(((n_points + 63) // 64, n), dtype=np.uint64)
    step = max(1, _BITSET_CHUNK // max(1, (q ** r - 1) // (q - 1)))
    for a in range(0, n, step):
        scatter_point_ids(bits, batch_point_ids(mats[a:a + step], q, point_codes), a)
    return bits


def _on_words(a: np.ndarray, b: np.ndarray, words, test) -> np.ndarray:
    """The AND of test(a[k], b[k]) over the word rows `words`: all True,
    in the broadcast shape, for none (a bool scalar for two columns)."""
    if not words:
        return np.ones(np.broadcast_shapes(a.shape[1:], b.shape[1:]), dtype=bool)[()]
    out = test(a[words[0]], b[words[0]])
    for k in words[1:]:
        out &= test(a[k], b[k])
    return out


def disjoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where the point sets a and b share no point.  Against a single (W,)
    column only its nonzero words are read: no test fails on the others."""
    col = a if a.ndim == 1 else b
    words = col.nonzero()[0].tolist() if col.ndim == 1 else range(len(a))
    return _on_words(a, b, words, lambda x, y: (x & y) == 0)


def subset(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where every point of a lies in b.  A single (W,) column a is read
    on its nonzero words only: no test fails on the others."""
    words = a.nonzero()[0].tolist() if a.ndim == 1 else range(len(a))
    return _on_words(a, b, words, lambda x, y: (x & y) == x)


def popcount(a: np.ndarray) -> np.ndarray:
    """Number of points in each set of a (int64)."""
    return meet_count(a, a)


def meet_count(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Number of points the sets a and b share (int64), a word row at a
    time, so that no full AND of a and b is held."""
    out = np.bitwise_count(a[0] & b[0]).astype(np.int64)
    for k in range(1, len(a)):
        out += np.bitwise_count(a[k] & b[k])
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
