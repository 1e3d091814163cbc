"""Plane-solid flags of PG(6,q) and their Kneser adjacency.

A flag is an incident pair (plane, solid).  Two flags are adjacent when
they are in general position: every pair of subspaces, one from each flag,
is either disjoint or spans the whole space.  For this flag type that is
equivalent to the two disjointness conditions

    plane(f) `meets` solid(g) == empty  and  plane(g) `meets` solid(f) == empty,

which adjacent_bits() states once for point bitsets: it is the reference
predicate that the tests hold the faster routes below to, and
general_position() follows the four-pair definition.  The DIMACS export
factors it through the distinct planes and solids: D[p, s] says that
plane p misses solid s, and flags i, j are adjacent iff
D[pid_i, sid_j] and D[pid_j, sid_i]; it fills D with _disjointness_table,
counts its edges in closed form over pairs of solids and writes them a
solid at a time, as bytes.  adjacent_mask factors it through solid meets:
if the plane E of (E, S) misses a solid S', S meets S' in one point p (in
vector dimensions at least 4 + 4 - 7 = 1, at most dim S - dim E = 1), so
(E', S') is adjacent iff E misses S' and p is off E'.  p's rank among
the points of S' and the order in which S' lists its points pick the row
of off_plane that says which planes of S' miss p.

Flag ordinals run through solids in canonical order and, inside each solid,
through its planes in canonical local order.  The universe, q in {2, 3},
keeps planes and solids by id only: plane_words and solid_words hold each
distinct one once as word-major point bitsets (see linalg: (2, 11811)
uint64 at q = 2, (18, 925771) at q = 3, column g for id g); a flag's
plane id is plane_gid[ordinal], numbered in order of first occurrence,
and its solid id ordinal // planes_per_solid.  They are built together on
first graph-scale use, so flag, ordinal_of and dual_ordinal do without
them.  The build gathers the point ids of each plane from its solid's
(batch_point_ids per chunk of solids, then pattern_point_table) and names
the plane by its q+2 least point ids packed in one int64: a line holds
only q+1 points, so they span the plane.  At q = 2 the duality
(E, S) -> (S^perp, E^perp) is one int32 permutation of the ordinals,
built on first use from the orthogonal complements of the solid columns
alone, found among the planes by key: perp maps the flags of a solid onto
the flags on its dual plane, matched by rank.  At q = 3, where it would
take 148 MB that no check reads, dual_ordinal dualizes one flag through
the codecs.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from . import linalg
from .counting import universe_size_formula
from .galois import build_field
from .linalg import disjoint, point_ids, scatter_point_ids
from .projective import (PatternCodec, Subspace, basis_point_ids, dualize,
                         local_coords, pattern_point_table, perp_bitsets, point_bitset,
                         point_indexer, subspace_from_text, subspace_to_text)

N_AMBIENT = 6
MATERIALIZABLE_Q = (2, 3)
# solids per chunk of the by-id build (bounds its scratch)
_SOLID_CHUNK = 1024
# rows per chunk of the disjointness table fill and of the export's edge
# count (bounds their scratch)
_ROW_CHUNK = 64


@dataclass(frozen=True)
class Flag:
    """An incident plane-solid pair of PG(6,q)."""

    plane: Subspace
    solid: Subspace

    def __post_init__(self):
        if (self.plane.n, self.plane.q) != (self.solid.n, self.solid.q):
            raise ValueError("plane and solid live in different ambient spaces")
        if self.plane.n != N_AMBIENT:
            raise ValueError("flags live in PG(6,q)")
        if self.plane.d != 2 or self.solid.d != 3:
            raise ValueError("expected a plane-solid pair, got dims (%d, %d)"
                             % (self.plane.d, self.solid.d))
        if not self.solid.contains(self.plane):
            raise ValueError("plane is not contained in the solid")

    @property
    def q(self) -> int:
        return self.plane.q


def dualize_flag(f: Flag) -> Flag:
    """Orthogonal-complement duality; an involution on flags."""
    return Flag(plane=dualize(f.solid), solid=dualize(f.plane))


def general_position(f: Flag, g: Flag) -> bool:
    """Kneser adjacency: each of the four cross pairs of subspaces is
    disjoint or spans PG(6,q)."""
    if f.q != g.q:
        raise ValueError("flags over different fields")
    fld = build_field(f.q)
    for a in (f.plane, f.solid):
        for b in (g.plane, g.solid):
            rk = linalg.rank(a.rows + b.rows, fld)
            if rk != len(a.rows) + len(b.rows) and rk != N_AMBIENT + 1:
                return False
    return True


def adjacent(f: Flag, g: Flag) -> bool:
    """The two-disjointness shortcut; agrees with general_position."""
    return (point_bitset(f.plane) & point_bitset(g.solid) == 0
            and point_bitset(g.plane) & point_bitset(f.solid) == 0)


def adjacent_bits(plane1: np.ndarray, solid1: np.ndarray,
                  plane2: np.ndarray, solid2: np.ndarray) -> np.ndarray:
    """Flag adjacency on word-major point bitsets (broadcasting): each
    plane misses the other flag's solid."""
    return disjoint(plane1, solid2) & disjoint(plane2, solid1)


class FlagUniverse:
    """All plane-solid flags of PG(6,q) in canonical order."""

    def __init__(self, q: int):
        # a q that is no field order is refused as such, before any count
        self.field = build_field(q)
        if q not in MATERIALIZABLE_Q:
            raise ValueError(
                "full flag enumeration is limited to q in %s; q=%d has %d flags "
                "and the per-flag bitset arrays would not fit in memory"
                % (list(MATERIALIZABLE_Q), q, universe_size_formula(q)))
        self.q = q
        self.n = N_AMBIENT
        self.solid_codec = PatternCodec(self.n + 1, 4, q)
        self.local_plane_codec = PatternCodec(4, 3, q)
        self.n_solids = self.solid_codec.total
        self.planes_per_solid = self.local_plane_codec.total
        self.flag_count = self.n_solids * self.planes_per_solid
        self._local_patterns = self.local_plane_codec.array().tolist()
        # row t: the local indices of the points of local plane t in a solid
        self._local = pattern_point_table(4, 3, q)

    def __getattr__(self, name: str):
        if name not in ("solid_words", "plane_words", "plane_gid", "off_plane", "order_row"):
            raise AttributeError(name)
        self._build_arrays()
        return getattr(self, name)

    # -- generic single-flag interface ------------------------------------

    def _check_ordinal(self, ordinal: int) -> None:
        if not (0 <= ordinal < self.flag_count):
            raise IndexError("flag ordinal %d out of range 0..%d"
                             % (ordinal, self.flag_count - 1))

    def flag(self, ordinal: int) -> Flag:
        self._check_ordinal(ordinal)
        s_ord, loc = divmod(ordinal, self.planes_per_solid)
        solid_rows = self.solid_codec.unrank(s_ord)
        solid = Subspace(self.n, self.q, solid_rows)
        plane = self._local_plane(solid_rows, loc)
        return Flag(plane=plane, solid=solid)

    def _local_plane(self, solid_rows, loc: int) -> Subspace:
        pat = self._local_patterns[loc]
        rows = [linalg.mat_from_combo(prow, solid_rows, self.field) for prow in pat]
        return Subspace(self.n, self.q, linalg.rref(rows, self.field))

    def ordinal_of(self, f: Flag) -> int:
        if f.q != self.q:
            raise ValueError("flag belongs to PG(6,%d), universe is PG(6,%d)"
                             % (f.q, self.q))
        # the plane in the solid's RREF basis is its local pattern, once reduced
        coords = linalg.rref([local_coords(row, f.solid) for row in f.plane.rows],
                             self.field)
        return (self.solid_codec.rank(f.solid.rows) * self.planes_per_solid
                + self.local_plane_codec.rank(coords))

    def dual_ordinal(self, ordinal: int) -> int:
        """Ordinal of the dual flag (S^perp, E^perp) of flag (E, S) (see above)."""
        if self.q == 3:
            return self.ordinal_of(dualize_flag(self.flag(ordinal)))
        self._check_ordinal(ordinal)  # the array lookup would wrap -1
        return int(self.dual_permutation[ordinal])

    # -- by-id arrays, built on first use ------------------------------------

    def _build_arrays(self) -> None:
        """The by-id arrays (see above), a chunk of solids at a time.  seen
        holds the plane keys met so far, sorted, beside their ids; its last
        entry, above every key, ends each search.  A chunk's new keys take
        the next ids in order of first occurrence, their planes go into
        plane_words (as many as solids, by duality), and they join seen."""
        n, q, pps = self.n, self.q, self.planes_per_solid
        solids = self.solid_codec.array()
        count = point_indexer(n, q).count
        solid_words = np.zeros(((count + 63) // 64, self.n_solids), dtype=np.uint64)
        plane_words = np.zeros_like(solid_words)
        plane_gid = np.empty(self.flag_count, dtype=np.int32)
        ranked = np.empty((self.n_solids, self._local.max() + 1), dtype=np.uint8)
        seen, seen_ids = np.array([np.iinfo(np.int64).max]), np.array([-1], dtype=np.int32)
        for a in range(0, self.n_solids, _SOLID_CHUNK):
            ids, ranked[a:a + _SOLID_CHUNK] = _solid_points(solids[a:a + _SOLID_CHUNK], n, q)
            scatter_point_ids(solid_words, ids, a)
            # the point ids of each plane, sorted in the least dtype of an id
            points = np.sort(ids.astype(np.min_scalar_type(count))[:, self._local])
            # the plane with local pattern t in solid s is flag s * pps + t
            keys, first, inv = np.unique(_plane_keys(points, n, q).reshape(-1),
                                         return_index=True, return_inverse=True)
            at, known = np.searchsorted(seen, keys), len(seen) - 1
            gid, new = seen_ids[at], np.flatnonzero(seen[at] != keys)
            by_first = new[np.argsort(first[new])]
            gid[by_first] = np.arange(known, known + len(new))
            plane_gid[a * pps:a * pps + len(inv)] = gid[inv]
            s, t = np.divmod(first[by_first], pps)
            scatter_point_ids(plane_words, ids[s[:, None], self._local[t]], known)
            seen = np.insert(seen, at[new], keys[new])
            seen_ids = np.insert(seen_ids, at[new], gid[new])
        self.solid_words, self.plane_words, self.plane_gid = solid_words, plane_words, plane_gid
        self.off_plane, self.order_row = _rank_table(ranked, self._local)

    @functools.cached_property
    def dual_permutation(self) -> np.ndarray:
        """int32 array: the dual ordinal of every flag, built on first use.

        The dual of (E, S) is (S^perp, E^perp).  One perp_bitsets pass and
        the plane keys give dual_plane, the plane id of S^perp for each
        solid S; perp maps solids one to one onto planes, so its inverse
        gives the solid E^perp of each plane E.  The flags of S go to the
        planes_per_solid flags on S^perp: ranked by dual solid, the r-th
        flag of S to the r-th on S^perp in ordinal order.
        """
        # allocated before the scratch arrays, so that freeing them can
        # return the top of the heap
        perm = np.empty((self.n_solids, self.planes_per_solid), dtype=np.int32)
        n, q = self.n, self.q
        keys, perp_keys = (_plane_keys(point_ids(words, q * q + q + 1), n, q) for words in (
            self.plane_words, perp_bitsets(self.solid_words, n, q)))
        by_key, by_perp = np.argsort(keys), np.argsort(perp_keys)
        if not np.array_equal(keys[by_key], perp_keys[by_perp]):
            raise AssertionError("the perps of the solids are not the planes")
        dual_plane = by_key[np.argsort(by_perp)]
        dual_solid = np.argsort(dual_plane).astype(np.int32)
        # row g: the flags on plane g, in ordinal order
        on_plane = np.argsort(self.plane_gid, kind="stable").astype(np.int32)
        # row s: the local planes of S_s in order of their dual solids
        rank = np.argsort(dual_solid.take(self.plane_gid).reshape(perm.shape),
                          axis=1)
        np.put_along_axis(perm, rank, on_plane.reshape(perm.shape)[dual_plane],
                          axis=1)
        return perm.reshape(-1)

    def adjacent_mask(self, ordinal: int) -> np.ndarray:
        """Boolean mask over all flags: adjacency to the given flag, read
        through the point its solid shares with each solid that its plane
        misses (_adjacent_rows)."""
        return _adjacent_rows(self.plane_words[:, self.plane_gid[ordinal]],
                              self.solid_words[:, ordinal // self.planes_per_solid],
                              self.solid_words, self.off_plane, self.order_row).reshape(-1)

    def degree(self, ordinal: int) -> int:
        return int(np.count_nonzero(self.adjacent_mask(ordinal)))


def _solid_points(bases: np.ndarray, n: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The build's step on a chunk of solid bases: the point ids of each
    solid, in coefficient_reps order, and its point order, uint8: row s
    lists the local indices of its points from the least id up."""
    ids = basis_point_ids(bases, n, q)
    return ids, np.argsort(ids, axis=1).astype(np.uint8)


def _rank_table(ranked: np.ndarray, local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """off_plane and order_row from the point orders of the solids (the
    C-contiguous rows of ranked, see _solid_points).  With R points to a
    solid, row k R + r of off_plane says which local planes miss the r-th
    least point of a solid in order k (one order at q = 2, 18763 at
    q = 3); its last row, all False, is for a solid that the flag's plane
    meets.  order_row[s], in the least dtype that holds every row, is k R
    for the order k of solid s."""
    size, pps = ranked.shape[1], len(local)
    off = np.ones((size, pps), dtype=bool)  # local point j is off local plane t
    off[local, np.arange(pps)[:, None]] = False
    orders, order = np.unique(ranked.view(np.dtype((np.void, size))), return_inverse=True)
    table = np.append(off[orders.view(np.uint8).reshape(-1, size)].reshape(-1, pps),
                      np.zeros((1, pps), dtype=bool), axis=0)
    return table, (order.reshape(-1) * size).astype(np.min_scalar_type(len(table)))


def _adjacent_rows(plane: np.ndarray, solid: np.ndarray, solid_words: np.ndarray,
                   off_plane: np.ndarray, order_row: np.ndarray) -> np.ndarray:
    """Adjacency of the flag (E, S), given by the (W,) point sets plane
    and solid, to the flags of the solids S' of solid_words: a bool
    (N, planes per solid) array, row s for the local planes of solid s.
    p's rank among the points of S' (see above) is counted on every word:
    the points of S' below p count on the words where S has none too."""
    rank, before_p = 0, np.ones(solid_words.shape[1], dtype=bool)
    for words, w in zip(solid_words, solid):
        meet = words & w
        # points of S' below p: in meet - 1 on p's word, all before it, none after
        rank = rank + np.bitwise_count(words & (meet - 1)) * before_p
        before_p &= meet == 0
    row = order_row + rank
    # where E meets S', the last row of off_plane, all False
    np.maximum(row, ~disjoint(plane, solid_words) * row.dtype.type(len(off_plane) - 1), out=row)
    return off_plane.take(row, axis=0)


def _plane_keys(ids: np.ndarray, n: int, q: int) -> np.ndarray:
    """int64 key of each plane of PG(n,q) from its point ids, ascending
    along the last axis: its q+2 least ids packed, the least one highest.
    A line holds q+1 points, so q+2 points of a plane span it: two planes
    share a key exactly when they are equal."""
    width = point_indexer(n, q).count.bit_length()
    key = np.zeros(ids.shape[:-1], dtype=np.int64)
    for j in range(q + 2):
        key = key << width | ids[..., j]
    return key


@functools.lru_cache(maxsize=None)
def build_universe(q: int) -> FlagUniverse:
    """Build (and cache per process) the flag universe for q in {2, 3}."""
    return FlagUniverse(q)


# ---------------------------------------------------------------------------
# Flag sets


@dataclass
class FlagSet:
    """A set of flags of one universe, stored as a boolean membership mask."""

    universe: FlagUniverse
    mask: np.ndarray
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_ordinals(cls, universe: FlagUniverse, ordinals: Iterable[int],
                      meta: dict | None = None) -> "FlagSet":
        ords = list(ordinals)
        # compared as Python ints, so that no ordinal overflows on the way
        if ords and not (0 <= min(ords) and max(ords) < universe.flag_count):
            bad = next(o for o in ords if not 0 <= o < universe.flag_count)
            raise ValueError("flag ordinal %d out of range" % bad)
        mask = np.zeros(universe.flag_count, dtype=bool)
        mask[ords] = True
        return cls(universe=universe, mask=mask, meta=dict(meta or {}))

    @property
    def cardinality(self) -> int:
        return int(np.count_nonzero(self.mask))

    def ordinals(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __contains__(self, ordinal: int) -> bool:
        return 0 <= ordinal < len(self.mask) and bool(self.mask[ordinal])

    def flags(self) -> Iterator[Flag]:
        for o in self.ordinals():
            yield self.universe.flag(int(o))

    def union(self, other: "FlagSet") -> "FlagSet":
        if other.universe is not self.universe:
            raise ValueError("flag sets over different universes")
        return FlagSet(self.universe, self.mask | other.mask,
                       {"kind": "union"})


def adjacency_scan(fset: FlagSet, f: Flag | int) -> tuple[int, int | None]:
    """How many members of fset are adjacent to f; also the least witness.

    Returns (count, least adjacent member ordinal or None).
    """
    uni = fset.universe
    ordinal = uni.ordinal_of(f) if isinstance(f, Flag) else int(f)
    hits = uni.adjacent_mask(ordinal) & fset.mask
    count = int(np.count_nonzero(hits))
    witness = int(np.argmax(hits)) if count else None
    return count, witness


# ---------------------------------------------------------------------------
# FlagSet files: header lines, then one sorted ordinal per line


def save_flagset(fset: FlagSet, path: str) -> None:
    """Write the set; a meta key must be one word and a value's text one
    line without outer whitespace, so that load_flagset reads it back."""
    header = ["# flagkneser flag set", "q %d" % fset.universe.q]
    for key, val in sorted(fset.meta.items()):
        text = subspace_to_text(val) if isinstance(val, Subspace) else str(val)
        if key.split() != [key]:
            raise ValueError("meta key %r must be one word" % key)
        if text != text.strip() or "\n" in text or "\r" in text:
            raise ValueError("meta %r: value %r must be one line without "
                             "outer whitespace" % (key, text))
        tag = ("kind" if key == "kind" else
               "anchor " + key if isinstance(val, Subspace) else "meta " + key)
        header.append("%s %s" % (tag, text))
    ords = fset.ordinals().tolist()
    header.append("count %d" % len(ords))
    with open(path, "w") as fh:
        fh.write("\n".join(header + list(map(str, ords))) + "\n")


def load_flagset(path: str, universe: FlagUniverse | None = None) -> FlagSet:
    q = None
    meta: dict = {}
    count = None
    with open(path) as fh:
        lines = fh.readlines()
    entries = ((ln, text) for ln, text in enumerate(map(str.strip, lines), 1)
               if text and not text.startswith("#"))
    ln = 0
    for ln, text in entries:
        tag, _, rest = text.partition(" ")
        if tag == "q":
            q = int(rest)
        elif tag == "kind":
            meta["kind"] = rest
        elif tag == "anchor":
            name, _, sub = rest.partition(" ")
            if q is None:
                raise ValueError("%s:%d: anchor before q declaration" % (path, ln))
            meta[name] = subspace_from_text(sub, N_AMBIENT, q)
        elif tag == "meta":
            name, _, val = rest.partition(" ")
            meta[name] = val
        elif tag == "count":
            count = int(rest)
            break
        else:
            raise ValueError("%s:%d: unknown header line %r" % (path, ln, text))
    # int() strips each body line itself; only a body with blank or
    # comment lines, or a bad line, is read again entry by entry
    try:
        ordinals = list(map(int, lines[ln:]))
    except ValueError:
        ordinals = []
        for at, text in entries:
            try:
                ordinals.append(int(text))
            except ValueError:
                raise ValueError("%s:%d: expected a flag ordinal, got %r"
                                 % (path, at, text)) from None
    if q is None or count is None:
        raise ValueError("%s: missing q or count header" % path)
    if len(ordinals) != count:
        raise ValueError("%s: header declares %d ordinals, found %d (body starts at line %d)"
                         % (path, count, len(ordinals), ln + 1))
    if not all(map(operator.lt, ordinals, ordinals[1:])):
        raise ValueError("%s: ordinals must be strictly increasing" % path)
    if universe is None:
        universe = build_universe(q)
    elif universe.q != q:
        raise ValueError("%s declares q=%d but universe has q=%d" % (path, q, universe.q))
    return FlagSet.from_ordinals(universe, ordinals, meta)


# ---------------------------------------------------------------------------
# DIMACS export


def _disjointness_table(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Bool array D[p, s]: point set column p of rows misses column s of
    cols.  Filled a chunk of rows at a time, which bounds the broadcast's
    uint64 scratch.  The DIMACS export reads adjacency off it."""
    table = np.empty((rows.shape[1], cols.shape[1]), dtype=bool)
    for a in range(0, rows.shape[1], _ROW_CHUNK):
        table[a:a + _ROW_CHUNK] = disjoint(rows[:, a:a + _ROW_CHUNK, None],
                                           cols[:, None, :])
    return table


def export_dimacs(universe: FlagUniverse, path: str, *,
                  max_vertices: int | None = None) -> dict:
    """Write the Kneser graph (or the subgraph induced by the first
    max_vertices flags) in DIMACS edge format.

    Vertex v is flag ordinal v-1; edges are emitted with i < j, sorted by
    (i, j), each line ending in a bare newline.  Flags (E, S) and (E', S')
    are adjacent iff E misses S' and E' misses S, so adjacency is read off
    the disjointness table D[p, s] of the exported planes and solids.
    Plane and solid ids count in order of first occurrence, so D needs
    only the first columns of plane_words and solid_words.

    The header's edge count is closed form: with y[s, t] the number of
    exported flags of solid s whose plane misses solid t (at most pps, so
    uint8), solids s and t share y[s, t] * y[t, s] edges, and a plane meets
    its own solid, so the count is the sum of y * y^T over 2.  The edges
    are then written a solid at a time: the flags of solid s share it, so
    its rows against every later flag j are D[pid_i, sid_j] & D[pid_j, s],
    a row of D repeated over the planes of each later solid and one column
    of D.  The written count is checked against the header, which comes by
    an independent route.  Returns a summary dict with vertices, edges and
    path.
    """
    n_all = universe.flag_count
    nv = n_all if max_vertices is None else min(max_vertices, n_all)
    if nv < 1:
        raise ValueError("need at least one vertex")

    pps = universe.planes_per_solid
    pid = universe.plane_gid[:nv]
    n_s = (nv - 1) // pps + 1
    table = _disjointness_table(universe.plane_words[:, :pid.max() + 1],
                                universe.solid_words[:, :n_s])
    whole, step = nv // pps, max(1, _ROW_CHUNK // pps)
    y = np.empty((n_s, n_s), dtype=np.uint8)
    for a in range(0, whole, step):
        b = min(a + step, whole)
        y[a:b] = table[pid[a * pps:b * pps]].reshape(b - a, pps, n_s).sum(
            axis=1, dtype=np.uint8)
    if whole < n_s:  # the last solid is cut short
        y[whole] = table[pid[whole * pps:]].sum(axis=0, dtype=np.uint8)
    # each product is at most pps^2 <= 225, so it fits in uint8 too
    n_edges = sum(int((y[a:a + step] * y[:, a:a + step].T).sum(dtype=np.int64))
                  for a in range(0, n_s, step)) // 2
    del y  # freed before the edges are written
    labels = np.array([b"%d\n" % (k + 1) for k in range(nv)], dtype=object)
    written = 0
    with open(path, "wb") as fh:
        fh.write(b"c plane-solid flag Kneser graph of PG(6,%d)\n" % universe.q)
        fh.write(b"c vertex v corresponds to flag ordinal v-1 in canonical order\n")
        if nv < n_all:
            fh.write(b"c induced subgraph on the first %d of %d flags\n" % (nv, n_all))
        fh.write(b"p edge %d %d\n" % (nv, n_edges))
        # a solid with a later flag is whole, so its rows are a..a+pps-1
        for s, a in enumerate(range(0, nv - pps, pps)):
            b = a + pps
            rows = (np.repeat(table[pid[a:b], s + 1:], pps, axis=1)[:, :nv - b]
                    & table[pid[b:], s])
            later = labels[b:]
            lines = []
            for r, row in enumerate(rows):
                js = later[row.nonzero()[0]].tolist()
                if js:
                    head = b"e %d " % (a + r + 1)
                    lines.append(head + head.join(js))
                    written += len(js)
            fh.write(b"".join(lines))
    if written != n_edges:
        raise AssertionError("streamed %d edges but header says %d" % (written, n_edges))
    return {"vertices": nv, "edges": n_edges, "path": path}
