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
basis_point_ids() gives the point indices those bitsets are made of, and
pattern_point_table() says where the points of each local pattern sit
among a basis's points, so the points of every plane of a solid are
gathered from the solid's ids.

Subspaces have one enumeration order, the pattern order of PatternCodec:
PatternCodec(n+1, d+1, q).array() holds the int8 bases of all d-spaces of
PG(n,q), which the universe build and the oracles read.  subspace_array()
returns the bases of the d-spaces through K inside W as one int64 array,
for count_lambda's members, and refuses more than MAX_ENUMERATED before it
starts; enumerate_subspaces() lists the same subspaces as Subspace objects,
for the member lists of a Lambda family or a coloring scheme.
check_subspace_bitsets() makes the enumeration refusal and
basis_bitsets()'s byte refusal for all the d-spaces of PG(n,q) from the
Gaussian coefficient, before either runs.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import linalg
from .counting import gaussian
from .galois import FieldTable, build_field

MAX_INDEXED_POINTS = 6_000_000
MAX_ENUMERATED = 3_000_000
# bytes of one basis_bitsets result: 1 GiB, an eighth of a desk machine
MAX_BITSET_BYTES = 1 << 30


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
    """Pinned enumeration of the points of PG(n,q): row k of the int64
    array vectors is the representative of point k, its last nonzero
    coordinate 1, and the rows are in lexicographic order."""

    def __init__(self, n: int, q: int):
        self.n = n
        self.q = q
        count = gaussian(n + 1, 1, q)
        if count > MAX_INDEXED_POINTS:
            raise ValueError(
                "PG(%d,%d) has %d points, above the indexing cutoff %d"
                % (n, q, count, MAX_INDEXED_POINTS))
        reps = linalg.coefficient_reps(n + 1, q)
        # lexsort's last key is its primary one, so coordinate 0 goes last
        self.vectors = reps[np.lexsort(reps.T[::-1])]
        self.count = count
        self._codes = linalg.code_positions(self.vectors, q)

    def index_of(self, v: Sequence[int]) -> int:
        """Index of the point spanned by v, a nonzero vector of GF(q)^(n+1)."""
        if len(v) != self.n + 1:
            raise ValueError("vector length %d does not match PG(%d,%d)"
                             % (len(v), self.n, self.q))
        code = 0
        for c in reversed(v):
            if not (0 <= c < self.q):
                raise ValueError("coordinate outside 0..%d" % (self.q - 1))
            code = code * self.q + c
        if code == 0:
            raise ValueError("the zero vector spans no point")
        return self._codes.item(code)

    def point_codes(self) -> np.ndarray:
        """Lookup array: base-q encoding (LSB = coordinate 0) of every
        vector -> index of its point; every nonzero scalar multiple of a
        representative maps to it, and the zero vector to -1."""
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


def _check_bitset_bytes(count: int, n: int, q: int) -> None:
    """Refuse the point bitsets of `count` subspaces of PG(n,q) if they
    would take more than MAX_BITSET_BYTES; nothing is built to decide."""
    nbytes = count * 8 * ((gaussian(n + 1, 1, q) + 63) // 64)
    if nbytes > MAX_BITSET_BYTES:
        raise ValueError(
            "point bitsets of %d subspaces of PG(%d,%d) take %d bytes, above "
            "the cutoff %d" % (count, n, q, nbytes, MAX_BITSET_BYTES))


def check_subspace_bitsets(n: int, q: int, d: int) -> None:
    """Refuse basis_bitsets(PatternCodec(n+1, d+1, q).array(), n, q), the
    point bitsets of every d-space of PG(n,q), from the Gaussian coefficient
    alone: with subspace_array's message above the enumeration cutoff,
    else with basis_bitsets's above the byte cutoff."""
    count = gaussian(n + 1, d + 1, q)
    _check_enumerable(count, n, q, d, -1, n)
    _check_bitset_bytes(count, n, q)


def basis_bitsets(bases: np.ndarray, n: int, q: int) -> np.ndarray:
    """point_bitsets of a (B, r, n+1) integer array of bases, r >= 0.
    A result above MAX_BITSET_BYTES is refused before it is allocated,
    and before the point index is built."""
    _check_bitset_bytes(len(bases), n, q)
    return linalg.batch_point_bitsets(bases, q, point_indexer(n, q).point_codes(),
                                      gaussian(n + 1, 1, q))


def basis_point_ids(bases: np.ndarray, n: int, q: int) -> np.ndarray:
    """Point indices of a (B, r, n+1) integer array of bases, r >= 0: the
    int64 (B, k) array whose row b lists the points of basis b in the
    coefficient_reps(r, q) order, which basis_bitsets sets as bits."""
    return linalg.batch_point_ids(bases, q, point_indexer(n, q).point_codes())


def pattern_point_table(m: int, r: int, q: int) -> np.ndarray:
    """Where the points of each pattern of PatternCodec(m, r, q) sit among
    the points of GF(q)^m: an int64 (T, k) array whose entry (t, j) is the
    row of coefficient_reps(m, q) that is a nonzero multiple of point j of
    pattern t.  So if ids are the basis_point_ids of rank-m bases,
    ids[b, table[t]] are the points of the subspace that pattern t spans
    in the row space of basis b: one gather gives all of them, with no
    matmul.  The table is the batch_point_ids of the patterns themselves,
    looked up by code_positions, so a vector whose last nonzero entry is
    not 1 (q > 2) finds its representative."""
    local_codes = linalg.code_positions(linalg.coefficient_reps(m, q), q)
    return linalg.batch_point_ids(PatternCodec(m, r, q).array(), q, local_codes)


def point_words(a: Subspace) -> np.ndarray:
    """The (W,) word column of one subspace in the point_bitsets layout."""
    return point_bitsets([a], a.n, a.q)[:, 0]


@functools.lru_cache(maxsize=None)
def _point_perps(n: int, q: int) -> np.ndarray:
    """Word-major point sets of the hyperplanes x^perp, column x for point x."""
    return point_bitsets([dualize(Subspace.from_vectors(n, q, [v]))
                          for v in point_indexer(n, q).vectors.tolist()], n, q)


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


class PatternCodec:
    """The rank-r RREF patterns with m columns, in the pinned order that
    is the canonical subspace order everywhere downstream: pivot column
    tuples lexicographically, then the free cells of each tuple (the
    entries right of a row's pivot, off the pivot columns) row-major, as
    code vectors in lexicographic order.  rank and unrank convert between
    a pattern and its ordinal, so subspace ordinals never need a lookup
    table; array lists every pattern."""

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

    def array(self) -> np.ndarray:
        """Every pattern, in order, as one int8 (total, r, m) array: per
        pivot tuple, the free cells run through np.indices, whose row-major
        order is the lexicographic order of the code vectors.  Built on
        each call: 33880 patterns take about a millisecond, and a cache
        would hold them for the life of the process."""
        out = np.zeros((self.total, self.r, self.m), dtype=np.int8)
        for j, (pivots, cells) in enumerate(zip(self.combos, self.cells)):
            block = out[self.prefix[j]:self.prefix[j + 1]]
            block[:, np.arange(self.r), np.array(pivots, dtype=np.intp)] = 1
            if cells:
                rows, cols = zip(*cells)
                grid = np.indices((self.q,) * len(cells), dtype=np.int8)
                block[:, rows, cols] = grid.reshape(len(cells), -1).T
        return out


def local_coords(v: Sequence[int], w: Subspace) -> tuple[int, ...]:
    """Coordinates of v in the RREF basis of w (v must lie in w)."""
    pivots = [next(j for j, x in enumerate(row) if x) for row in w.rows]
    return tuple(v[p] for p in pivots)


def _check_enumerable(total: int, n: int, q: int, d: int, k_d: int,
                      w_d: int) -> None:
    """Refuse to list the `total` d-spaces of PG(n,q) through a k_d-space
    inside a w_d-space if they are more than MAX_ENUMERATED."""
    if total > MAX_ENUMERATED:
        raise ValueError(
            "PG(%d,%d) has %d %d-spaces%s%s, above the enumeration cutoff %d"
            % (n, q, total, d, " through a %d-space" % k_d if k_d >= 0 else "",
               " inside a %d-space" % w_d if w_d < n else "", MAX_ENUMERATED))


def subspace_array(n: int, q: int, d: int, *,
                   contains: Subspace | None = None,
                   within: Subspace | None = None) -> np.ndarray:
    """Bases of the d-subspaces of PG(n,q) through `contains` and inside
    `within`, as an int64 (B, d+1, n+1) array in the PatternCodec order.

    Row block b is a basis of the b-th subspace, not its RREF.  Within W
    the subspaces through K are K plus a subspace of the complement
    spanned by the rows of W on the non-pivot columns of K's local RREF,
    so the bases are K's rows followed by the patterns of that complement
    mapped through those rows, one matmul for all of them.  Contradictory
    constraints give a (0, d+1, n+1) array.  More than MAX_ENUMERATED
    subspaces are refused, counted by the Gaussian coefficient before any
    pattern is listed.
    """
    if not (-1 <= d <= n):
        raise ValueError("d=%d outside -1..%d" % (d, n))
    w = within if within is not None else Subspace.full(n, q)
    k = contains if contains is not None else Subspace.empty(n, q)
    for s in (w, k):
        if (s.n, s.q) != (n, q):
            raise ValueError("constraint lives in PG(%d,%d), not PG(%d,%d)"
                             % (s.n, s.q, n, q))
    if not w.contains(k) or d < k.d or d > w.d:
        return np.zeros((0, d + 1, n + 1), dtype=np.int64)
    k_local = linalg.rref([local_coords(row, w) for row in k.rows], build_field(q))
    pivots = {next(j for j, x in enumerate(row) if x) for row in k_local}
    free = [j for j in range(w.d + 1) if j not in pivots]
    total = gaussian(len(free), d - k.d, q)
    _check_enumerable(total, n, q, d, k.d, w.d)
    pats = PatternCodec(len(free), d - k.d, q).array()
    out = np.zeros((len(pats), d + 1, n + 1), dtype=np.int64)
    out[:, :k.d + 1] = np.array(k.rows, dtype=np.int64).reshape(-1, n + 1)
    if w.d == n:  # W's rows are unit vectors: place the columns, 4x faster
        out[:, k.d + 1:, free] = pats
    else:
        comp = np.array([w.rows[j] for j in free], dtype=np.int64).reshape(-1, n + 1)
        out[:, k.d + 1:] = linalg.field_matmul(pats, comp, q)
    return out


def enumerate_subspaces(n: int, q: int, d: int, *,
                        contains: Subspace | None = None,
                        within: Subspace | None = None) -> Iterator[Subspace]:
    """List the d-subspaces of PG(n,q) through `contains` and inside
    `within`, from every basis of subspace_array, built first, in its order.
    Contradictory constraints yield none, not an error."""
    fld = build_field(q)
    for basis in subspace_array(n, q, d, contains=contains, within=within).tolist():
        yield Subspace(n, q, linalg.rref(basis, fld))


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
