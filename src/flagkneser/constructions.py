"""Extremal flag families and colorings.

Every Lambda family has one of two dual shapes.  On side H, Lambda(H, E)
is every flag whose solid lies in the hyperplane H plus every flag whose
plane is in a family E of planes of H; on side P, Lambda(P, S) is every
flag whose plane passes through the point P plus every flag whose solid is
in a family S of solids through P.  The family is given (H_E, P_S), empty
(H_empty, P_empty), or fixed by incidence: the planes of H through a point
(H_P) or inside a 4-space (H_U), the solids through P inside a hyperplane
(P_H) or through a line (P_l).  The given families the CLI names are the
members of incidence kinds (GIVEN_FAMILIES): the planes through a point or
inside a 4-space of H are those of H_P and H_U, the solids of a hyperplane
or through a line those of P_H and P_l.  Every family has cardinality
s(3,5) s(3) + m q^3, where m is the family size.

The polarity (E, S) -> (S^perp, E^perp) maps each side onto the other:
LambdaSpec.dual() is the spec of the image family, with H_empty, H_E, H_P
and H_U swapped for P_empty, P_S, P_H and P_l.

Families are materialized against the q=2 universe as boolean masks;
count_lambda() counts the same sets for q in {2,3} by direct constrained
enumeration on subspace basis arrays without touching the universe, which
is what the formula cross-checks use.  It enumerates side P only and
reaches side H through LambdaSpec.dual.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, NamedTuple

import numpy as np

from .counting import lambda_family_size, s_count
from .flags import FlagSet, FlagUniverse
from .linalg import field_matmul, subset, superset
from .projective import (Subspace, basis_bitsets, dualize, enumerate_subspaces,
                         point_bitsets, point_indexer, point_words, span,
                         subspace_array)

# kind -> (side, family).  The family is None when empty, the name of a
# given tuple, or a (contains, within) pair of anchor names: every member
# through the first and inside the second, None dropping a constraint.
_SHAPES = {
    "H_empty": ("H", None),
    "P_empty": ("P", None),
    "H_E": ("H", "plane_family"),
    "P_S": ("P", "solid_family"),
    "P_H": ("P", ("point", "hyperplane")),
    "H_P": ("H", ("point", "hyperplane")),
    "P_l": ("P", ("line", None)),
    "H_U": ("H", (None, "four_space")),
}
LAMBDA_KINDS = tuple(_SHAPES)
# the given families of H_E (planes) and P_S (solids) by name, each the
# member list of an incidence kind: LambdaSpec(kind=...).members(q)
GIVEN_FAMILIES = {"point_pencil": "H_P", "subspace_full": "H_U",
                  "hyperplane_full": "P_H", "line_star": "P_l"}
_SIDES = {"H": ("hyperplane", 2), "P": ("point", 3)}  # base anchor, member dim
_ANCHOR_DIMS = {"hyperplane": 5, "point": 0, "line": 1, "four_space": 4}  # anchors() order
# the polarity (E, S) -> (S^perp, E^perp) swaps the sides: the kinds and
# the LambdaSpec anchor fields in dual pairs, both ways round
_DUAL = {a: b for x, y in [("H_empty", "P_empty"), ("H_E", "P_S"), ("H_P", "P_H"),
                           ("H_U", "P_l"), ("hyperplane", "point"),
                           ("four_space", "line"), ("plane_family", "solid_family")]
         for a, b in ((x, y), (y, x))}


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


class _Shape(NamedTuple):
    """A spec resolved into its side and family.  On side H (`on_h`) `base`
    is the hyperplane and the members are planes (d = 2); on side P `base`
    is the point and the members are solids (d = 3).  The members are
    `given`, or, when that is None, every d-space through `contains` and
    inside `within`."""

    on_h: bool
    base: Subspace
    d: int
    given: tuple[Subspace, ...] | None
    contains: Subspace | None
    within: Subspace | None


@dataclass(frozen=True)
class LambdaSpec:
    """Anchors for one Lambda family.  `kind` picks the side (H: the base
    anchor `hyperplane` and a family of planes inside it; P: the base
    anchor `point` and a family of solids through it) and the family:
    `plane_family` or `solid_family` as given, empty, or fixed by incidence
    with `point`, `line`, `four_space` or `hyperplane`.  Anchors the kind
    does not use are carried along unchecked."""

    kind: str
    hyperplane: Subspace | None = None
    point: Subspace | None = None
    line: Subspace | None = None
    four_space: Subspace | None = None
    plane_family: tuple[Subspace, ...] | None = None
    solid_family: tuple[Subspace, ...] | None = None

    def _shape(self) -> _Shape:
        side, family = _SHAPES[self.kind]
        base, d = _SIDES[side]
        head = (side == "H", getattr(self, base), d)
        if not isinstance(family, tuple):
            return _Shape(*head, getattr(self, family) if family else (), None, None)
        return _Shape(*head, None, *(getattr(self, a) if a else None for a in family))

    def validate(self, q: int) -> None:
        if self.kind not in _SHAPES:
            raise ValueError("unknown family kind %r (valid: %s)"
                             % (self.kind, ", ".join(LAMBDA_KINDS)))
        side, family = _SHAPES[self.kind]
        base = _SIDES[side][0]
        incidence = [a for a in family if a and a != base] if isinstance(family, tuple) else []
        for name in [base] + ([family] if isinstance(family, str) else incidence):
            val = getattr(self, name)
            if val is None:
                raise ValueError("%s requires anchor %r" % (self.kind, name))
            if name in _ANCHOR_DIMS:
                if (val.n, val.q) != (6, q):
                    raise ValueError("anchor %r lives in PG(%d,%d), expected PG(6,%d)"
                                     % (name, val.n, val.q, q))
                if val.d != _ANCHOR_DIMS[name]:
                    raise ValueError("anchor %r must have dimension %d, got %d"
                                     % (name, _ANCHOR_DIMS[name], val.d))
        shape = self._shape()
        if any(x.d != shape.d for x in shape.given or ()):
            raise ValueError("%s members must have dimension %d" % (family, shape.d))
        # every family anchor lies in the hyperplane, or passes through the point
        named = [("the " + a.replace("_", "-"), getattr(self, a)) for a in incidence]
        named += [("%s member %d" % (family, i), x) for i, x in enumerate(shape.given or ())]
        for label, x in named:
            if shape.on_h and not shape.base.contains(x):
                raise ValueError("%s must lie inside the hyperplane" % label)
            if not shape.on_h and not x.contains(shape.base):
                raise ValueError("the point must lie in %s" % label)

    def members(self, q: int) -> tuple[Subspace, ...]:
        """The family's planes (side H) or solids (side P), in the
        enumerate_subspaces order for an incidence family."""
        self.validate(q)
        shape = self._shape()
        if shape.given is not None:
            return shape.given
        return tuple(enumerate_subspaces(6, q, shape.d, contains=shape.contains,
                                         within=shape.within))

    def member(self, plane: Subspace, solid: Subspace) -> bool:
        """Generic (slow) membership predicate; the vectorized builder and
        the enumerating counter both have to agree with this."""
        on_h, base, _, given, contains, within = self._shape()
        if (base.contains(solid) if on_h else plane.contains(base)):
            return True
        x = plane if on_h else solid
        if given is not None:
            return x in given
        return ((contains is None or x.contains(contains))
                and (within is None or within.contains(x)))

    def dual(self) -> "LambdaSpec":
        """The spec of the dual family, the image of this one under the
        polarity (E, S) -> (S^perp, E^perp): the kind moves to the other
        side, and every anchor that is set is dualized into its partner
        (hyperplane and point, four_space and line, plane_family and
        solid_family).  An involution."""
        out = {}
        for f in fields(self)[1:]:  # the anchors, after kind
            val = getattr(self, f.name)
            if val is not None:
                out[_DUAL[f.name]] = (tuple(map(dualize, val)) if isinstance(val, tuple)
                                      else dualize(val))
        return LambdaSpec(kind=_DUAL[self.kind], **out)

    def anchors(self) -> dict[str, Subspace]:
        return {a: getattr(self, a) for a in _ANCHOR_DIMS if getattr(self, a) is not None}

    def expected_size(self, q: int) -> int:
        """Closed-form cardinality s(3,5) s(3) + m q^3, m the family size:
        for an incidence family, the d-spaces through one anchor inside
        another.  P_empty has m = 0 by duality: s(0,2,6) s(2,3,6) =
        s(3,5) s(3)."""
        side, family = _SHAPES[self.kind]
        if isinstance(family, tuple):
            contains, within = family
            m = s_count(-1, _ANCHOR_DIMS.get(contains, -1), _SIDES[side][1],
                        _ANCHOR_DIMS.get(within, 6), q)
        else:
            m = len(getattr(self, family)) if family else 0
        return lambda_family_size(m, q)


# ---------------------------------------------------------------------------
# Vectorized construction over the q=2 universe


def build_lambda(spec: LambdaSpec, universe: FlagUniverse) -> FlagSet:
    """Materialize the family as a flag set of the q=2 universe."""
    spec.validate(universe.q)
    universe._need_masks()
    shape = spec._shape()
    planes, solids = universe.plane_bits, universe.solid_bits
    if shape.on_h:
        base, bits = subset(solids, point_words(shape.base)), planes
    else:
        base, bits = superset(planes, point_words(shape.base)), solids
    if shape.given is None:
        fam = np.ones(universe.flag_count, dtype=bool)
        if shape.contains is not None:
            fam &= superset(bits, point_words(shape.contains))
        if shape.within is not None:
            fam &= subset(bits, point_words(shape.within))
    else:
        # a plane or solid is determined by its point set: match the given
        # members against the distinct ones, then spread to their flags
        ids = (universe.plane_gid if shape.on_h
               else np.arange(universe.flag_count) // universe.planes_per_solid)
        distinct = bits[:, np.unique(ids, return_index=True)[1]]
        words = point_bitsets(shape.given, universe.n, universe.q)
        fam = (distinct[:, :, None] == words[:, None, :]).all(axis=0).any(axis=1)[ids]
    return FlagSet(universe=universe, mask=base | fam,
                   meta={"kind": spec.kind, **spec.anchors()})


# ---------------------------------------------------------------------------
# Enumerating counter (no universe; works for q in {2, 3})


def count_lambda(spec: LambdaSpec, q: int) -> int:
    """Cardinality of the family by direct constrained enumeration.

    Only side P is enumerated: a side-H spec is replaced by its dual
    (LambdaSpec.dual), whose family is the image under the polarity, a
    bijection on flags.  Every flag whose plane passes through the point
    is a member, s(3) solids per plane; the member solids come as basis
    arrays from subspace_array, and each adds its planes that miss the
    point, found by one superset test on the point bitsets of all of them
    at once, so each flag is counted once.
    """
    spec.validate(q)
    if _SHAPES[spec.kind][0] == "H":
        spec = spec.dual()
    _, point, d, given, contains, within = spec._shape()
    n = 6
    if given is None:
        members = subspace_array(n, q, d, contains=contains, within=within)
    else:
        members = np.array([x.rows for x in given], dtype=np.int64).reshape(-1, d + 1, n + 1)
    # the solids through a plane are the points of the quotient PG(3,q)
    total = len(subspace_array(n, q, 2, contains=point)) * len(subspace_array(3, q, 0))
    # the planes of each member: those of PG(3,q) mapped through its basis
    planes = field_matmul(subspace_array(3, q, 2), members[:, None], q)
    bits = basis_bitsets(planes.reshape(-1, 3, n + 1), n, q)
    return total + int(np.count_nonzero(~superset(bits, point_words(point))))


# ---------------------------------------------------------------------------
# Extremal plane families of PG(n,q)


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


def _points_of(words: np.ndarray) -> list[int]:
    """The points of a (W,) word column in ascending order: bit j of word
    k is point 64k + j."""
    bits = (words[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    return np.flatnonzero(bits).tolist()


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

    l_bits = point_words(line)
    e_bits = point_words(plane)
    m_sets = []
    for li, ei, si in zip(lines_i, planes_i, solids_i):
        bits = point_words(li) | (point_words(ei) & ~l_bits) | (point_words(si) & ~e_bits)
        m_sets.append(tuple(_points_of(bits)))

    q_points = [Subspace.from_vectors(n, q, [v]) for v in
                (idx.vectors[k] for k in _points_of(point_words(pq_line)))
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
        for k in _points_of(point_words(four_space)))


def realize_coloring(classes: Iterable[LambdaSpec],
                     universe: FlagUniverse) -> list[FlagSet]:
    return [build_lambda(spec, universe) for spec in classes]
