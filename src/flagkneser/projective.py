"""Subspaces of PG(n,q): canonical form, lattice operations, enumeration.

A projective d-space is stored as the unique reduced row echelon basis of
its underlying (d+1)-dimensional vector subspace of GF(q)^(n+1), so equal
subspaces are equal objects.  The empty subspace has d = -1 and no rows.

Points of PG(n,q) carry a pinned order: representatives are normalized so
the last nonzero coordinate is 1, then sorted lexicographically by code
vector.  point_bitset() is an integer whose bit k is point k in this order;
point_bitsets() and basis_bitsets() give many subspaces at once in the
word-major uint64 layout that the kernels in linalg work on, looking every
nonzero vector up directly in PointIndexer.point_codes().

Subspaces under constraints come in two forms with one order, the
canonical order of rref_patterns: enumerate_subspaces() streams Subspace
objects, is the scalar reference and lists the members of a Lambda family
or a coloring scheme, and subspace_array() returns the bases of the same
subspaces as one integer array, which is what the counting and oracle
layers work on.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import linalg
from .galois import FieldTable, build_field

MAX_INDEXED_POINTS = 6_000_000


@dataclass(frozen=True)
class Subspace:
    """A subspace of PG(n,q) in canonical (RREF) form."""

    n: int
    q: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_vectors(cls, n: int, q: int, vectors: Iterable[Sequence[int]]) -> "Subspace":
        fld = build_field(q)
        vecs = [tuple(v) for v in vectors]
        for v in vecs:
            if len(v) != n + 1:
                raise ValueError("vector length %d does not match PG(%d,%d)" % (len(v), n, q))
            if any(not (0 <= c < q) for c in v):
                raise ValueError("coordinate outside 0..%d" % (q - 1))
        return cls(n=n, q=q, rows=linalg.rref(vecs, fld))

    @classmethod
    def empty(cls, n: int, q: int) -> "Subspace":
        return cls(n=n, q=q, rows=())

    @classmethod
    def full(cls, n: int, q: int) -> "Subspace":
        rows = tuple(tuple(1 if j == i else 0 for j in range(n + 1)) for i in range(n + 1))
        return cls(n=n, q=q, rows=rows)

    @property
    def d(self) -> int:
        """Projective dimension; -1 for the empty subspace."""
        return len(self.rows) - 1

    @property
    def field(self) -> FieldTable:
        return build_field(self.q)

    def contains_point(self, v: Sequence[int]) -> bool:
        return linalg.in_rowspace(v, self.rows, self.field)

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(linalg.in_rowspace(r, self.rows, self.field) for r in other.rows)

    def _check_ambient(self, other: "Subspace") -> None:
        if (self.n, self.q) != (other.n, other.q):
            raise ValueError("ambient spaces differ: PG(%d,%d) vs PG(%d,%d)"
                             % (self.n, self.q, other.n, other.q))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Subspace(PG(%d,%d), d=%d)" % (self.n, self.q, self.d)


def span(a: Subspace, b: Subspace) -> Subspace:
    a._check_ambient(b)
    fld = a.field
    return Subspace(a.n, a.q, linalg.rref(a.rows + b.rows, fld))


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, computed through duals: (A^perp + B^perp)^perp."""
    a._check_ambient(b)
    return dualize(span(dualize(a), dualize(b)))


def dualize(a: Subspace) -> Subspace:
    """Orthogonal complement for the standard dot product on GF(q)^(n+1)."""
    return Subspace(a.n, a.q, linalg.nullspace(a.rows, a.field, a.n + 1))


def intersect_trivially(a: Subspace, b: Subspace) -> bool:
    """True when the two subspaces are disjoint as point sets."""
    a._check_ambient(b)
    return linalg.rank(a.rows + b.rows, a.field) == len(a.rows) + len(b.rows)


class PointIndexer:
    """Pinned enumeration of the points of PG(n,q)."""

    def __init__(self, n: int, q: int):
        self.n = n
        self.q = q
        count = sum(q ** j for j in range(n + 1))
        if count > MAX_INDEXED_POINTS:
            raise ValueError(
                "PG(%d,%d) has %d points, above the indexing cutoff %d"
                % (n, q, count, MAX_INDEXED_POINTS))
        vecs: list[tuple[int, ...]] = []
        for last in range(n + 1):
            tail = (1,) + (0,) * (n - last)
            for head in itertools.product(range(q), repeat=last):
                vecs.append(head + tail)
        vecs.sort()
        self.vectors = vecs
        self.index = {v: k for k, v in enumerate(vecs)}
        self.count = len(vecs)
        # base-q code of every nonzero vector -> index, for the vectorized
        # paths (built on first use)
        self._codes: np.ndarray | None = None

    def normalize(self, v: Sequence[int]) -> tuple[int, ...]:
        fld = build_field(self.q)
        last = max(j for j, c in enumerate(v) if c)
        s = fld.inv[v[last]]
        if s == 1:
            return tuple(v)
        return tuple(fld.mul[s][c] for c in v)

    def index_of(self, v: Sequence[int]) -> int:
        return self.index[self.normalize(v)]

    def point_codes(self) -> np.ndarray:
        """Lookup array: base-q encoding (LSB = coordinate 0) of every
        vector -> index of its point; every nonzero scalar multiple of a
        representative maps to it, and the zero vector to -1."""
        if self._codes is None:
            mul = linalg.field_arrays(self.q)[1]
            reps = np.array(self.vectors, dtype=np.int64)
            powers = self.q ** np.arange(self.n + 1, dtype=np.int64)
            table = np.full(self.q ** (self.n + 1), -1, dtype=np.int64)
            for scalar in range(1, self.q):
                table[mul[scalar][reps] @ powers] = np.arange(self.count)
            self._codes = table
        return self._codes


@functools.lru_cache(maxsize=None)
def point_indexer(n: int, q: int) -> PointIndexer:
    build_field(q)  # validates q
    return PointIndexer(n, q)


def point_bitset(a: Subspace) -> int:
    """Integer bitset of the points of a, bit k = point k of PG(n,q)."""
    idx = point_indexer(a.n, a.q)
    if a.d < 0:
        return 0
    fld = a.field
    bits = 0
    for combo in linalg.coefficient_reps(a.d + 1, a.q).tolist():
        v = linalg.mat_from_combo(combo, a.rows, fld)
        bits |= 1 << idx.index_of(v)
    return bits


def point_bitsets(subs: Sequence[Subspace], n: int, q: int) -> np.ndarray:
    """Word-major (W, len(subs)) uint64 point bitsets of equal-dimension
    subspaces of PG(n,q): bit j of row k is point 64k + j."""
    if not subs or subs[0].d < 0:
        return np.zeros(((point_indexer(n, q).count + 63) // 64, len(subs)),
                        dtype=np.uint64)
    return basis_bitsets(np.array([sub.rows for sub in subs], dtype=np.int64), n, q)


def basis_bitsets(bases: np.ndarray, n: int, q: int) -> np.ndarray:
    """point_bitsets of a (B, r, n+1) integer array of bases, r >= 1."""
    idx = point_indexer(n, q)
    return linalg.batch_point_bitsets(bases, q, idx.point_codes(), idx.count)


def point_words(a: Subspace) -> np.ndarray:
    """The (W,) word column of one subspace in the point_bitsets layout."""
    return point_bitsets([a], a.n, a.q)[:, 0]


@functools.lru_cache(maxsize=None)
def _point_perps(n: int, q: int) -> np.ndarray:
    """Word-major point sets of the hyperplanes x^perp, column x for point x."""
    return point_bitsets([dualize(Subspace.from_vectors(n, q, [v]))
                          for v in point_indexer(n, q).vectors], n, q)


def perp_bitsets(bits: np.ndarray, n: int, q: int) -> np.ndarray:
    """Orthogonal complements of word-major point sets of PG(n,q).

    Column i of the result is the point set of dualize(span(column i)):
    point x lies in it iff column i lies in the hyperplane x^perp.  A set
    has the complement of its span, so the columns need not be subspaces.
    """
    perps = _point_perps(n, q)
    out = np.zeros_like(bits)
    for x in range(perps.shape[1]):
        inside = linalg.subset(bits, perps[:, x])
        out[x >> 6] |= inside.astype(np.uint64) << np.uint64(x & 63)
    return out


# ---------------------------------------------------------------------------
# Enumeration


def rref_patterns(m: int, r: int, q: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All RREF matrices of rank r with m columns, in pinned order.

    Order: pivot column tuples lexicographically, free entries in row-major
    lexicographic order of code vectors.  This order is the canonical
    subspace order used everywhere downstream.
    """
    if r == 0:
        yield ()
        return
    if r < 0 or r > m:
        return
    for pivots in itertools.combinations(range(m), r):
        cells = [(i, c) for i in range(r) for c in range(pivots[i] + 1, m)
                 if c not in pivots]
        base = [[0] * m for _ in range(r)]
        for i, p in enumerate(pivots):
            base[i][p] = 1
        if not cells:
            yield tuple(tuple(row) for row in base)
            continue
        for values in itertools.product(range(q), repeat=len(cells)):
            for (i, c), val in zip(cells, values):
                base[i][c] = val
            yield tuple(tuple(row) for row in base)


def _pattern_array(m: int, r: int, q: int) -> np.ndarray:
    """rref_patterns(m, r, q), 0 <= r <= m, as one int8 (B, r, m) array: per
    pivot tuple, the free cells run through np.indices, whose row-major
    order is the lexicographic order of itertools.product.  Built on each
    call: 33880 patterns take about a millisecond, and a cache would hold
    them for the life of the process."""
    blocks = []
    for pivots in itertools.combinations(range(m), r):
        cells = [(i, c) for i in range(r) for c in range(pivots[i] + 1, m)
                 if c not in pivots]
        block = np.zeros((q ** len(cells), r, m), dtype=np.int8)
        block[:, np.arange(r), np.array(pivots, dtype=np.intp)] = 1
        if cells:
            rows, cols = zip(*cells)
            grid = np.indices((q,) * len(cells), dtype=np.int8)
            block[:, rows, cols] = grid.reshape(len(cells), -1).T
        blocks.append(block)
    return np.concatenate(blocks)


class PatternCodec:
    """Rank/unrank canonical RREF patterns (m columns, rank r) in the
    rref_patterns order, so subspace ordinals never need a lookup table."""

    def __init__(self, m: int, r: int, q: int):
        self.m, self.r, self.q = m, r, q
        self.combos = list(itertools.combinations(range(m), r))
        self.cells = [
            [(i, c) for i in range(r) for c in range(pv[i] + 1, m) if c not in pv]
            for pv in self.combos
        ]
        self.prefix = [0]
        for cells in self.cells:
            self.prefix.append(self.prefix[-1] + q ** len(cells))
        self.total = self.prefix[-1]
        self._combo_index = {pv: j for j, pv in enumerate(self.combos)}

    def rank(self, rows: tuple[tuple[int, ...], ...]) -> int:
        pivots = tuple(next(j for j, x in enumerate(row) if x) for row in rows)
        try:
            j = self._combo_index[pivots]
        except KeyError:
            raise ValueError("rows are not a rank-%d RREF pattern" % self.r) from None
        val = 0
        for i, c in self.cells[j]:
            val = val * self.q + rows[i][c]
        return self.prefix[j] + val

    def unrank(self, t: int) -> tuple[tuple[int, ...], ...]:
        if not (0 <= t < self.total):
            raise IndexError("pattern ordinal %d out of range" % t)
        j = bisect.bisect_right(self.prefix, t) - 1
        val = t - self.prefix[j]
        cells = self.cells[j]
        rows = [[0] * self.m for _ in range(self.r)]
        for i, p in enumerate(self.combos[j]):
            rows[i][p] = 1
        for i, c in reversed(cells):
            rows[i][c] = val % self.q
            val //= self.q
        return tuple(tuple(row) for row in rows)


def local_coords(v: Sequence[int], w: Subspace) -> tuple[int, ...]:
    """Coordinates of v in the RREF basis of w (v must lie in w)."""
    pivots = [next(j for j, x in enumerate(row) if x) for row in w.rows]
    return tuple(v[p] for p in pivots)


def _superspace_patterns(m: int, base: tuple[tuple[int, ...], ...], r: int, q: int,
                         fld: FieldTable) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Rank-r RREF matrices over GF(q)^m whose row space contains base.

    Subspaces containing the base correspond bijectively to subspaces of a
    fixed complement; the complement spanned by the unit vectors on the
    non-pivot columns of the base is used.
    """
    k = len(base)
    if r < k:
        return
    if k == 0:
        yield from rref_patterns(m, r, q)
        return
    pivots = [next(j for j, x in enumerate(row) if x) for row in base]
    free_cols = [j for j in range(m) if j not in pivots]
    for pat in rref_patterns(len(free_cols), r - k, q):
        rows = list(base)
        for prow in pat:
            amb = [0] * m
            for j, val in zip(free_cols, prow):
                amb[j] = val
            rows.append(tuple(amb))
        yield linalg.rref(rows, fld)


def _constraints(n: int, q: int, d: int, contains: Subspace | None,
                 within: Subspace | None) -> tuple[Subspace, Subspace]:
    """Check d and the ambient of the constraints; (within, contains) with
    the whole space and the empty subspace standing in for None."""
    if not (-1 <= d <= n):
        raise ValueError("d=%d outside -1..%d" % (d, n))
    w = within if within is not None else Subspace.full(n, q)
    k = contains if contains is not None else Subspace.empty(n, q)
    for s in (w, k):
        if (s.n, s.q) != (n, q):
            raise ValueError("constraint lives in PG(%d,%d), not PG(%d,%d)"
                             % (s.n, s.q, n, q))
    return w, k


def enumerate_subspaces(n: int, q: int, d: int, *,
                        contains: Subspace | None = None,
                        within: Subspace | None = None) -> Iterator[Subspace]:
    """Stream the d-subspaces of PG(n,q) through `contains` and inside
    `within`.

    Contradictory constraints yield an empty stream, not an error.  The
    stream follows the canonical order induced by rref_patterns, mapped
    through the basis of `within` when that constraint is present.
    """
    w, k = _constraints(n, q, d, contains, within)
    fld = build_field(q)
    if not w.contains(k) or d < k.d or d > w.d:
        return

    m = w.d + 1
    k_local = linalg.rref([local_coords(row, w) for row in k.rows], fld)
    full_ambient = w.d == n
    for pat in _superspace_patterns(m, k_local, d + 1, q, fld):
        if full_ambient:
            rows = pat
        else:
            rows = linalg.rref(
                [linalg.mat_from_combo(prow, w.rows, fld) for prow in pat], fld)
        yield Subspace(n, q, rows)


def subspace_array(n: int, q: int, d: int, *,
                   contains: Subspace | None = None,
                   within: Subspace | None = None) -> np.ndarray:
    """Bases of the d-subspaces of PG(n,q) through `contains` and inside
    `within`, as an int64 (B, d+1, n+1) array in enumerate_subspaces order.

    Row block b spans the b-th subspace enumerate_subspaces yields; it is
    a basis, not its RREF.  Within W the subspaces through K are K plus a
    subspace of the complement spanned by the rows of W on the non-pivot
    columns of K's local RREF, so the bases are K's rows followed by the
    rref_patterns of that complement mapped through those rows, one matmul
    for all of them.  Contradictory constraints give a (0, d+1, n+1) array.
    """
    w, k = _constraints(n, q, d, contains, within)
    if not w.contains(k) or d < k.d or d > w.d:
        return np.zeros((0, d + 1, n + 1), dtype=np.int64)
    k_local = linalg.rref([local_coords(row, w) for row in k.rows], build_field(q))
    pivots = {next(j for j, x in enumerate(row) if x) for row in k_local}
    free = [j for j in range(w.d + 1) if j not in pivots]
    pats = _pattern_array(len(free), d - k.d, q)
    out = np.zeros((len(pats), d + 1, n + 1), dtype=np.int64)
    out[:, :k.d + 1] = np.array(k.rows, dtype=np.int64).reshape(-1, n + 1)
    if w.d == n:  # W's rows are unit vectors: place the columns, 4x faster
        out[:, k.d + 1:, free] = pats
    else:
        comp = np.array([w.rows[j] for j in free], dtype=np.int64).reshape(-1, n + 1)
        out[:, k.d + 1:] = linalg.field_matmul(pats, comp, q)
    return out


# ---------------------------------------------------------------------------
# Text form: "d;row1;row2;..." with comma-separated codes per row


def subspace_to_text(a: Subspace) -> str:
    parts = [str(a.d)]
    parts.extend(",".join(str(c) for c in row) for row in a.rows)
    return ";".join(parts)


def subspace_from_text(text: str, n: int, q: int) -> Subspace:
    parts = text.strip().split(";")
    try:
        d = int(parts[0])
    except ValueError as exc:
        raise ValueError("malformed subspace text %r: bad dimension" % text) from exc
    rows = []
    for chunk in parts[1:]:
        if not chunk:
            continue
        try:
            rows.append(tuple(int(c) for c in chunk.split(",")))
        except ValueError as exc:
            raise ValueError("malformed subspace text %r: bad row %r" % (text, chunk)) from exc
    sub = Subspace.from_vectors(n, q, rows)
    if sub.d != d:
        raise ValueError("subspace text %r declares d=%d but rows span d=%d"
                         % (text, d, sub.d))
    return sub
