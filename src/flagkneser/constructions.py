"""Extremal flag families and colorings.

The workhorse families have the shape Lambda(H, E-family) = all flags whose
solid lies in the hyperplane H plus all flags on one of the chosen planes
of H, and the dual shape Lambda(P, S-family).  Mixed anchors (point plus
hyperplane, point plus line, hyperplane plus 4-space) are special cases
where the family is the full pencil determined by the second anchor.  Every
one of them has cardinality s(3,5) s(3) + m q^3 where m is the family size.

Families are materialized against the q=2 universe as boolean masks;
count_lambda() counts the same sets for q in {2,3} by direct constrained
enumeration without touching the universe, which is what the formula
cross-checks use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .counting import lambda_family_size, s_count
from .flags import FlagSet, FlagUniverse
from .linalg import subset, superset
from .projective import (Subspace, bit_indices, enumerate_subspaces,
                         point_bitset, point_bitsets, point_indexer,
                         point_words, span)

LAMBDA_KINDS = ("H_empty", "P_empty", "H_E", "P_S", "P_H", "H_P", "P_l", "H_U")


def unit_span(n: int, q: int, count: int) -> Subspace:
    """Span of the first `count` unit vectors of GF(q)^(n+1)."""
    rows = [[1 if j == i else 0 for j in range(n + 1)] for i in range(count)]
    return Subspace.from_vectors(n, q, rows)


def unit_point(n: int, q: int, i: int) -> Subspace:
    return Subspace.from_vectors(n, q, [[1 if j == i else 0 for j in range(n + 1)]])


def canonical_frame(q: int, n: int = 6) -> dict[str, Subspace]:
    """The pinned anchor frame: hyperplane = last coordinate zero, point =
    first unit point, line/plane/4-space = spans of leading unit points,
    second point = first unit point outside the plane."""
    return {
        "point": unit_point(n, q, 0),
        "line": unit_span(n, q, 2),
        "plane": unit_span(n, q, 3),
        "four_space": unit_span(n, q, 5),
        "hyperplane": unit_span(n, q, n),
        "second_point": unit_point(n, q, 3),
    }


@dataclass(frozen=True)
class LambdaSpec:
    """Anchors for one Lambda-style family."""

    kind: str
    hyperplane: Subspace | None = None
    point: Subspace | None = None
    line: Subspace | None = None
    four_space: Subspace | None = None
    plane_family: tuple[Subspace, ...] | None = None
    solid_family: tuple[Subspace, ...] | None = None

    def validate(self, q: int) -> None:
        if self.kind not in LAMBDA_KINDS:
            raise ValueError("unknown family kind %r (valid: %s)"
                             % (self.kind, ", ".join(LAMBDA_KINDS)))
        need = {
            "H_empty": ("hyperplane",),
            "P_empty": ("point",),
            "H_E": ("hyperplane", "plane_family"),
            "P_S": ("point", "solid_family"),
            "P_H": ("point", "hyperplane"),
            "H_P": ("hyperplane", "point"),
            "P_l": ("point", "line"),
            "H_U": ("hyperplane", "four_space"),
        }[self.kind]
        dims = {"hyperplane": 5, "point": 0, "line": 1, "four_space": 4}
        for name in need:
            val = getattr(self, name)
            if val is None:
                raise ValueError("%s requires anchor %r" % (self.kind, name))
            if name in dims:
                if (val.n, val.q) != (6, q):
                    raise ValueError("anchor %r lives in PG(%d,%d), expected PG(6,%d)"
                                     % (name, val.n, val.q, q))
                if val.d != dims[name]:
                    raise ValueError("anchor %r must have dimension %d, got %d"
                                     % (name, dims[name], val.d))
        if self.kind == "H_E":
            for e in self.plane_family:
                if e.d != 2 or not self.hyperplane.contains(e):
                    raise ValueError("plane family members must be planes inside the hyperplane")
        if self.kind == "P_S":
            for t in self.solid_family:
                if t.d != 3 or not t.contains(self.point):
                    raise ValueError("solid family members must be solids through the point")
        if self.kind in ("P_H", "H_P") and not self.hyperplane.contains(self.point):
            raise ValueError("point must lie in the hyperplane")
        if self.kind == "P_l" and not self.line.contains(self.point):
            raise ValueError("point must lie on the line")
        if self.kind == "H_U" and not self.hyperplane.contains(self.four_space):
            raise ValueError("4-space must lie in the hyperplane")

    def member(self, plane: Subspace, solid: Subspace) -> bool:
        """Generic (slow) membership predicate; the vectorized builder and
        the enumerating counter both have to agree with this."""
        k = self.kind
        if k == "H_empty":
            return self.hyperplane.contains(solid)
        if k == "P_empty":
            return plane.contains(self.point)
        if k == "H_E":
            return self.hyperplane.contains(solid) or plane in self.plane_family
        if k == "P_S":
            return plane.contains(self.point) or solid in self.solid_family
        if k == "P_H":
            return plane.contains(self.point) or (
                solid.contains(self.point) and self.hyperplane.contains(solid))
        if k == "H_P":
            return self.hyperplane.contains(solid) or (
                plane.contains(self.point) and self.hyperplane.contains(plane))
        if k == "P_l":
            return plane.contains(self.point) or solid.contains(self.line)
        if k == "H_U":
            return self.hyperplane.contains(solid) or self.four_space.contains(plane)
        raise AssertionError(k)

    def anchors(self) -> dict[str, Subspace]:
        out = {}
        for name in ("hyperplane", "point", "line", "four_space"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        return out

    def expected_size(self, q: int) -> int:
        """Closed-form cardinality of the family."""
        k = self.kind
        if k == "H_empty":
            return lambda_family_size(0, q)
        if k == "P_empty":
            return s_count(-1, 0, 2, 6, q) * s_count(-1, 2, 3, 6, q)
        m = {
            "H_E": lambda: len(self.plane_family),
            "P_S": lambda: len(self.solid_family),
            "P_H": lambda: s_count(-1, 0, 3, 5, q),
            "H_P": lambda: s_count(-1, 0, 2, 5, q),
            "P_l": lambda: s_count(-1, 1, 3, 6, q),
            "H_U": lambda: s_count(-1, -1, 2, 4, q),
        }[k]()
        return lambda_family_size(m, q)


# ---------------------------------------------------------------------------
# Vectorized construction over the q=2 universe


def _plane_family_mask(universe: FlagUniverse, family: Sequence[Subspace]) -> np.ndarray:
    """Flags whose plane is in the family, matched by point set (a plane's
    point set determines the plane)."""
    _, first = np.unique(universe.plane_gid, return_index=True)
    planes = universe.plane_bits.take(first, axis=1)  # column g: plane id g
    fam = point_bitsets(family, universe.n, universe.q)
    gids = [g for i in range(fam.shape[1])
            for g in np.flatnonzero((planes == fam[:, i:i + 1]).all(axis=0))]
    return np.isin(universe.plane_gid, np.asarray(sorted(gids), dtype=np.int32))


def build_lambda(spec: LambdaSpec, universe: FlagUniverse) -> FlagSet:
    """Materialize the family as a flag set of the q=2 universe."""
    spec.validate(universe.q)
    universe._need_masks()
    k = spec.kind
    planes, solids = universe.plane_bits, universe.solid_bits

    def solid_in(sub: Subspace) -> np.ndarray:
        return subset(solids, point_words(sub))

    def plane_in(sub: Subspace) -> np.ndarray:
        return subset(planes, point_words(sub))

    def plane_on(pt: Subspace) -> np.ndarray:
        return superset(planes, point_words(pt))

    def solid_on(sub: Subspace) -> np.ndarray:
        return superset(solids, point_words(sub))

    if k == "H_empty":
        mask = solid_in(spec.hyperplane)
    elif k == "P_empty":
        mask = plane_on(spec.point)
    elif k == "H_E":
        mask = solid_in(spec.hyperplane) | _plane_family_mask(universe, spec.plane_family)
    elif k == "P_S":
        s_ords = sorted(universe.solid_codec.rank(t.rows) for t in spec.solid_family)
        flag_solid = np.repeat(np.arange(universe.n_solids),
                               universe.planes_per_solid)
        mask = plane_on(spec.point) | np.isin(flag_solid, np.asarray(s_ords))
    elif k == "P_H":
        mask = plane_on(spec.point) | (solid_on(spec.point) & solid_in(spec.hyperplane))
    elif k == "H_P":
        mask = solid_in(spec.hyperplane) | (plane_on(spec.point) & plane_in(spec.hyperplane))
    elif k == "P_l":
        mask = plane_on(spec.point) | solid_on(spec.line)
    elif k == "H_U":
        mask = solid_in(spec.hyperplane) | plane_in(spec.four_space)
    else:  # pragma: no cover
        raise AssertionError(k)

    meta: dict = {"kind": k}
    meta.update(spec.anchors())
    return FlagSet(universe=universe, mask=mask, meta=meta)


# ---------------------------------------------------------------------------
# Enumerating counter (no universe; works for q in {2, 3})


def count_lambda(spec: LambdaSpec, q: int) -> int:
    """Cardinality of the family by direct constrained enumeration.

    Solids are enumerated one by one; the planes inside a fixed solid are
    parametrized once by the local RREF patterns of its coordinate frame
    (the same parametrization the flag universe uses), so each flag is
    counted exactly once.
    """
    spec.validate(q)
    k = spec.kind
    planes_per_solid = sum(1 for _ in enumerate_subspaces(3, q, 2))

    def solids_within(h: Subspace) -> int:
        return sum(1 for _ in enumerate_subspaces(6, q, 3, within=h))

    def solids_on_plane_outside(e: Subspace, h: Subspace) -> int:
        return sum(1 for t in enumerate_subspaces(6, q, 3, contains=e)
                   if not h.contains(t))

    def planes_in_solid_missing_point(t: Subspace, p: Subspace) -> int:
        return sum(1 for e in enumerate_subspaces(6, q, 2, within=t)
                   if not e.contains(p))

    def planes_on_point_total(p: Subspace) -> int:
        total = 0
        for e in enumerate_subspaces(6, q, 2, contains=p):
            total += sum(1 for _ in enumerate_subspaces(6, q, 3, contains=e))
        return total

    if k == "H_empty":
        return solids_within(spec.hyperplane) * planes_per_solid
    if k == "H_E":
        extra = sum(solids_on_plane_outside(e, spec.hyperplane)
                    for e in spec.plane_family)
        return solids_within(spec.hyperplane) * planes_per_solid + extra
    if k == "P_empty":
        return planes_on_point_total(spec.point)
    if k == "P_S":
        extra = sum(planes_in_solid_missing_point(t, spec.point)
                    for t in spec.solid_family)
        return planes_on_point_total(spec.point) + extra
    if k == "P_H":
        extra = sum(planes_in_solid_missing_point(t, spec.point)
                    for t in enumerate_subspaces(6, q, 3, contains=spec.point,
                                                 within=spec.hyperplane))
        return planes_on_point_total(spec.point) + extra
    if k == "H_P":
        extra = sum(solids_on_plane_outside(e, spec.hyperplane)
                    for e in enumerate_subspaces(6, q, 2, contains=spec.point,
                                                 within=spec.hyperplane))
        return solids_within(spec.hyperplane) * planes_per_solid + extra
    if k == "P_l":
        extra = sum(planes_in_solid_missing_point(t, spec.point)
                    for t in enumerate_subspaces(6, q, 3, contains=spec.line))
        return planes_on_point_total(spec.point) + extra
    if k == "H_U":
        extra = sum(solids_on_plane_outside(e, spec.hyperplane)
                    for e in enumerate_subspaces(6, q, 2, within=spec.four_space))
        return solids_within(spec.hyperplane) * planes_per_solid + extra
    raise AssertionError(k)


# ---------------------------------------------------------------------------
# Extremal plane and solid families


def build_ekr_plane_family(kind: str, *, within: Subspace,
                           point: Subspace | None = None,
                           four_space: Subspace | None = None) -> tuple[Subspace, ...]:
    """A largest pairwise-intersecting family of planes of the 5-space
    `within`: all planes through a point, or all planes of a 4-space."""
    if within.d != 5:
        raise ValueError("the family lives inside a 5-space")
    n, q = within.n, within.q
    if kind == "point_pencil":
        if point is None or point.d != 0 or not within.contains(point):
            raise ValueError("point_pencil needs a point of the 5-space")
        return tuple(enumerate_subspaces(n, q, 2, contains=point, within=within))
    if kind == "subspace_full":
        if four_space is None or four_space.d != 4 or not within.contains(four_space):
            raise ValueError("subspace_full needs a 4-space inside the 5-space")
        return tuple(enumerate_subspaces(n, q, 2, within=four_space))
    raise ValueError("kind must be point_pencil or subspace_full, got %r" % kind)


def build_intersecting_solid_family(kind: str, *, point: Subspace,
                                    hyperplane: Subspace | None = None,
                                    line: Subspace | None = None) -> tuple[Subspace, ...]:
    """Dual counterpart: solids through `point` pairwise meeting in at
    least a line: all solids of a hyperplane on the point, or all solids
    through a line on the point."""
    if point.d != 0:
        raise ValueError("anchor must be a point")
    n, q = point.n, point.q
    if kind == "hyperplane_full":
        if hyperplane is None or hyperplane.d != n - 1 or not hyperplane.contains(point):
            raise ValueError("hyperplane_full needs a hyperplane through the point")
        return tuple(enumerate_subspaces(n, q, 3, contains=point, within=hyperplane))
    if kind == "line_star":
        if line is None or line.d != 1 or not line.contains(point):
            raise ValueError("line_star needs a line through the point")
        return tuple(enumerate_subspaces(n, q, 3, contains=line))
    raise ValueError("kind must be hyperplane_full or line_star, got %r" % kind)


def build_line_meeting_plane_family(kind: str, n: int, q: int, *,
                                    line: Subspace | None = None,
                                    solid: Subspace | None = None) -> tuple[Subspace, ...]:
    """A largest family of planes of PG(n,q), n >= 5, pairwise meeting in a
    line: all planes through a line, or all planes of a 3-space."""
    if n < 5:
        raise ValueError("need n >= 5")
    if kind == "line_star":
        if line is None:
            line = unit_span(n, q, 2)
        if line.d != 1 or (line.n, line.q) != (n, q):
            raise ValueError("line_star needs a line of PG(%d,%d)" % (n, q))
        return tuple(enumerate_subspaces(n, q, 2, contains=line))
    if kind == "solid_full":
        if solid is None:
            solid = unit_span(n, q, 4)
        if solid.d != 3 or (solid.n, solid.q) != (n, q):
            raise ValueError("solid_full needs a 3-space of PG(%d,%d)" % (n, q))
        return tuple(enumerate_subspaces(n, q, 2, within=solid))
    raise ValueError("kind must be line_star or solid_full, got %r" % kind)


# ---------------------------------------------------------------------------
# Colorings


@dataclass(frozen=True)
class ColoringScheme:
    """Class specs of the point-line coloring built from a chain
    P < l < E < V and an auxiliary point Q of V outside E.

    classes[j] is a P_l spec Lambda(X, <X,Q_i>); the class list is already
    deduplicated (all q copies of the class at X = P coincide) and has
    exactly q^4 + q^3 + q^2 + 1 entries.
    """

    q: int
    point: Subspace
    line: Subspace
    plane: Subspace
    four_space: Subspace
    second_point: Subspace
    classes: tuple[LambdaSpec, ...]
    cover_sets: tuple[tuple[int, ...], ...]  # point indices of M_1..M_q


def _points_of(sub: Subspace) -> list[int]:
    return sorted(bit_indices(point_bitset(sub)))


def build_coloring_scheme(point: Subspace, line: Subspace, plane: Subspace,
                          four_space: Subspace,
                          second_point: Subspace) -> ColoringScheme:
    """Construct the q^4+q^3+q^2+1 class specs of the point-line coloring."""
    q = point.q
    n = point.n
    for sub, d, name in ((point, 0, "point"), (line, 1, "line"),
                         (plane, 2, "plane"), (four_space, 4, "four_space"),
                         (second_point, 0, "second_point")):
        if sub.d != d:
            raise ValueError("%s must have dimension %d, got %d" % (name, d, sub.d))
    if not (line.contains(point) and plane.contains(line)
            and four_space.contains(plane)):
        raise ValueError("need a chain point < line < plane < 4-space")
    if not four_space.contains(second_point) or plane.contains(second_point):
        raise ValueError("second point must lie in the 4-space but outside the plane")

    idx = point_indexer(n, q)
    pq_line = span(point, second_point)

    def members_without(container: Subspace, excluded: Subspace, d: int,
                        within: Subspace) -> list[Subspace]:
        out = [s for s in enumerate_subspaces(n, q, d, contains=container,
                                              within=within)
               if not s.contains(excluded)]
        if len(out) != q:
            raise AssertionError("expected %d members, got %d" % (q, len(out)))
        return out

    lines_i = members_without(point, second_point, 1, span(line, second_point))
    planes_i = members_without(line, second_point, 2, span(plane, second_point))
    solids_i = members_without(plane, second_point, 3, four_space)

    l_bits = point_bitset(line)
    e_bits = point_bitset(plane)
    m_sets = []
    for li, ei, si in zip(lines_i, planes_i, solids_i):
        bits = point_bitset(li) | (point_bitset(ei) & ~l_bits) | (point_bitset(si) & ~e_bits)
        m_sets.append(tuple(sorted(bit_indices(bits))))

    q_points = [Subspace.from_vectors(n, q, [v]) for v in
                (idx.vectors[k] for k in _points_of(pq_line))
                if not point.contains_point(v)]
    if len(q_points) != q:
        raise AssertionError("expected %d auxiliary points" % q)

    classes: list[LambdaSpec] = []
    seen = set()
    for qi, m_i in zip(q_points, m_sets):
        for k in m_i:
            x = Subspace.from_vectors(n, q, [idx.vectors[k]])
            cls_line = span(x, qi)
            key = (x.rows, cls_line.rows)
            if key in seen:
                continue
            seen.add(key)
            classes.append(LambdaSpec(kind="P_l", point=x, line=cls_line))
    return ColoringScheme(q=q, point=point, line=line, plane=plane,
                          four_space=four_space, second_point=second_point,
                          classes=tuple(classes), cover_sets=tuple(m_sets))


def trivial_coloring_scheme(four_space: Subspace) -> tuple[LambdaSpec, ...]:
    """One class Lambda(P, empty) per point P of the 4-space."""
    if four_space.d != 4:
        raise ValueError("anchor must be a 4-space")
    n, q = four_space.n, four_space.q
    idx = point_indexer(n, q)
    return tuple(
        LambdaSpec(kind="P_empty",
                   point=Subspace.from_vectors(n, q, [idx.vectors[k]]))
        for k in _points_of(four_space))


def realize_coloring(classes: Iterable[LambdaSpec],
                     universe: FlagUniverse) -> list[FlagSet]:
    return [build_lambda(spec, universe) for spec in classes]
