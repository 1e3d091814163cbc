"""Plane-solid flags of PG(6,q) and their Kneser adjacency.

A flag is an incident pair (plane, solid).  Two flags are adjacent when
they are in general position: every pair of subspaces, one from each flag,
is either disjoint or spans the whole space.  For this flag type that is
equivalent to the two disjointness conditions

    plane(f) `meets` solid(g) == empty  and  plane(g) `meets` solid(f) == empty,

which adjacent_bits() states once for point bitsets and every vectorized
scan uses; general_position() itself follows the four-pair definition.

Flag ordinals run through solids in canonical order and, inside each solid,
through its planes in canonical local order.  At q = 2 the universe carries
the plane and the solid of every flag as word-major point bitsets (see
linalg: a (2, 177165) uint64 array each, row k holding points
64k..64k+63), which is what makes whole-graph scans cheap.  It also
stores the duality (E, S) -> (S^perp, E^perp) as one int32 permutation of
the ordinals, built on first use from the orthogonal complements of the
distinct planes and solids.  Full materialization is limited to q in
{2, 3}; at q = 3 per-flag data, the dual included, is produced on demand
instead of being held in memory.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from . import linalg
from .counting import universe_size_formula
from .galois import build_field
from .linalg import disjoint
from .projective import (PatternCodec, Subspace, basis_bitsets, dualize,
                         local_coords, perp_bitsets, point_bitset,
                         point_indexer, subspace_array, subspace_from_text,
                         subspace_to_text)

N_AMBIENT = 6
MATERIALIZABLE_Q = (2, 3)
# solids per plane batch in the q=2 build (bounds its scratch)
_SOLID_CHUNK = 128


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
        self._local_patterns = [self.local_plane_codec.unrank(i)
                                for i in range(self.planes_per_solid)]
        self.has_masks = q == 2
        if self.has_masks:
            self._build_q2_arrays()

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
        """Ordinal of the dual flag (S^perp, E^perp) of flag (E, S)."""
        if not self.has_masks:
            return self.ordinal_of(dualize_flag(self.flag(ordinal)))
        self._check_ordinal(ordinal)  # the array lookup would wrap -1
        return int(self.dual_permutation[ordinal])

    # -- q = 2 materialized arrays -----------------------------------------

    def _build_q2_arrays(self) -> None:
        """Per-flag word-major point bitsets of planes and solids, and plane
        ids numbered in order of first occurrence."""
        n, q, pps = self.n, self.q, self.planes_per_solid
        solids = subspace_array(n, q, 3)
        patterns = np.array(self._local_patterns, dtype=np.int64)
        nwords = (point_indexer(n, q).count + 63) // 64
        plane_bits = np.empty((nwords, self.n_solids, pps), dtype=np.uint64)
        solid_bits = np.empty((nwords, self.n_solids), dtype=np.uint64)
        for a in range(0, self.n_solids, _SOLID_CHUNK):
            chunk = solids[a:a + _SOLID_CHUNK]
            solid_bits[:, a:a + len(chunk)] = basis_bitsets(chunk, n, q)
            # the plane with local pattern t in solid s is row (s, t)
            planes = linalg.field_matmul(patterns, chunk[:, None], q)
            plane_bits[:, a:a + len(chunk)] = basis_bitsets(
                planes.reshape(-1, 3, n + 1), n, q).reshape(nwords, len(chunk), pps)
        del solids, chunk, planes  # freed before the id pass, which peaks
        self.plane_bits = plane_bits.reshape(nwords, self.flag_count)
        self.plane_gid = _first_occurrence_ids(self.plane_bits)
        self.solid_bits = np.repeat(solid_bits, pps, axis=1)

    @functools.cached_property
    def dual_permutation(self) -> np.ndarray:
        """int32 array: the dual ordinal of every flag, built on first use.

        The dual of (E, S) is (S^perp, E^perp).  perp_bitsets of the
        distinct solids gives the dual planes, of the distinct planes the
        dual solids; each is looked up among the distinct columns of the
        other kind, and the pair (dual solid, dual plane id) among the
        flags through one sorted key.
        """
        self._need_masks()
        # allocated before the scratch arrays, so that freeing them can
        # return the top of the heap
        perm = np.empty(self.flag_count, dtype=np.int32)
        n, q, pps = self.n, self.q, self.planes_per_solid
        solids = self.solid_bits[:, ::pps]  # column k: solid ordinal k
        _, first = np.unique(self.plane_gid, return_index=True)
        n_planes = len(first)
        planes = self.plane_bits.take(first, axis=1)  # column g: plane id g
        dual_solid = _column_index(solids, perp_bitsets(planes, n, q))
        dual_plane = _column_index(planes, perp_bitsets(solids, n, q))
        # int32 keys: n_solids * n_planes is 11811^2 < 2^31
        s_ord = np.arange(self.flag_count, dtype=np.int32) // pps
        key = s_ord * np.int32(n_planes) + self.plane_gid
        order = np.argsort(key).astype(np.int32)
        dual_key = dual_solid[self.plane_gid] * np.int32(n_planes)
        dual_key += dual_plane[s_ord]
        return np.take(order, np.searchsorted(key, dual_key, sorter=order),
                       out=perm)

    def _need_masks(self) -> None:
        if not self.has_masks:
            raise ValueError(
                "graph-scale scans need the materialized q=2 arrays; "
                "q=%d keeps per-flag data on demand" % self.q)

    def adjacent_mask(self, ordinal: int) -> np.ndarray:
        """Boolean mask over all flags: adjacency to the given flag."""
        self._need_masks()
        return adjacent_bits(self.plane_bits[:, ordinal], self.solid_bits[:, ordinal],
                             self.plane_bits, self.solid_bits)

    def degree(self, ordinal: int) -> int:
        return int(np.count_nonzero(self.adjacent_mask(ordinal)))


def _first_occurrence_ids(bits: np.ndarray) -> np.ndarray:
    """int32 id per column of a word-major bitset array: equal columns share
    an id, and ids count distinct columns in order of first occurrence."""
    order = np.lexsort(bits)  # stable, so equal columns keep their order
    new = np.zeros(bits.shape[1], dtype=bool)
    new[0] = True
    for row in bits:
        srt = row.take(order)
        new[1:] |= srt[1:] != srt[:-1]
    first = order[new]
    rank = np.empty(len(first), dtype=np.int32)
    rank[np.argsort(first)] = np.arange(len(first), dtype=np.int32)
    ids = np.empty(bits.shape[1], dtype=np.int32)
    ids[order] = rank[np.cumsum(new) - 1]
    return ids


def _column_index(ref: np.ndarray, query: np.ndarray) -> np.ndarray:
    """int32 index in ref, whose columns are distinct, of each query column
    (every query column must occur in ref)."""
    ids = _first_occurrence_ids(np.concatenate([ref, query], axis=1))
    return ids[ref.shape[1]:]


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
        mask = np.zeros(universe.flag_count, dtype=bool)
        for o in ordinals:
            if not (0 <= o < universe.flag_count):
                raise ValueError("flag ordinal %d out of range" % o)
            mask[o] = True
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
    uni._need_masks()
    ordinal = f if isinstance(f, int) else uni.ordinal_of(f)
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
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        ords = fset.ordinals()
        fh.write("count %d\n" % len(ords))
        for o in ords:
            fh.write("%d\n" % o)


def load_flagset(path: str, universe: FlagUniverse | None = None) -> FlagSet:
    q = None
    meta: dict = {}
    count = None
    ordinals: list[int] = []
    with open(path) as fh:
        lines = fh.readlines()
    body_at = None
    for ln, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if count is None:
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
                body_at = ln
            else:
                raise ValueError("%s:%d: unknown header line %r" % (path, ln, text))
            continue
        try:
            ordinals.append(int(text))
        except ValueError:
            raise ValueError("%s:%d: expected a flag ordinal, got %r"
                             % (path, ln, text)) from None
    if q is None or count is None:
        raise ValueError("%s: missing q or count header" % path)
    if len(ordinals) != count:
        raise ValueError("%s: header declares %d ordinals, found %d (body starts at line %d)"
                         % (path, count, len(ordinals), (body_at or 0) + 1))
    if any(b <= a for a, b in zip(ordinals, ordinals[1:])):
        raise ValueError("%s: ordinals must be strictly increasing" % path)
    if universe is None:
        universe = build_universe(q)
    elif universe.q != q:
        raise ValueError("%s declares q=%d but universe has q=%d" % (path, q, universe.q))
    return FlagSet.from_ordinals(universe, ordinals, meta)


# ---------------------------------------------------------------------------
# DIMACS export


def export_dimacs(universe: FlagUniverse, path: str, *,
                  max_vertices: int | None = None) -> dict:
    """Write the Kneser graph (or the subgraph induced by the first
    max_vertices flags) in DIMACS edge format.

    Vertex v is flag ordinal v-1; edges are emitted with i < j, sorted by
    (i, j).  One pass counts the edges for the exact header, a second
    writes them a row at a time, and the written count is checked against
    the header.  Returns a summary dict with vertices, edges and path.
    """
    universe._need_masks()
    n_all = universe.flag_count
    nv = n_all if max_vertices is None else min(max_vertices, n_all)
    if nv < 1:
        raise ValueError("need at least one vertex")

    planes = universe.plane_bits[:, :nv]
    solids = universe.solid_bits[:, :nv]

    def row_after(i: int) -> np.ndarray:
        return adjacent_bits(planes[:, i], solids[:, i],
                             planes[:, i + 1:], solids[:, i + 1:])

    n_edges = sum(int(np.count_nonzero(row_after(i))) for i in range(nv))
    labels = ["%d\n" % (k + 1) for k in range(nv)]
    written = 0
    with open(path, "w") as fh:
        fh.write("c plane-solid flag Kneser graph of PG(6,%d)\n" % universe.q)
        fh.write("c vertex v corresponds to flag ordinal v-1 in canonical order\n")
        if nv < n_all:
            fh.write("c induced subgraph on the first %d of %d flags\n" % (nv, n_all))
        fh.write("p edge %d %d\n" % (nv, n_edges))
        for i in range(nv):
            js = np.flatnonzero(row_after(i)) + (i + 1)
            if js.size:
                head = "e %d " % (i + 1)
                fh.write(head + head.join([labels[j] for j in js.tolist()]))
                written += js.size
    if written != n_edges:
        raise AssertionError("streamed %d edges but header says %d" % (written, n_edges))
    return {"vertices": nv, "edges": n_edges, "path": path}
