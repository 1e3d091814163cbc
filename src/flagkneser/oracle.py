"""Brute-force counting oracles.

Everything here counts by enumeration and bitset filtering, never through
the closed-form layer, so the two routes stay independent: the formulas in
`counting` are the claims, the functions here are the checks.  Every
enumeration is of all d-spaces of some PG(n,q): _all_d_space_bits reads
them as the int8 patterns of projective.PatternCodec, turns them into numpy
bitset arrays in bounded batches, which keeps even the 30k-subspace sweeps
at q=3 well under a second, and caches the bitsets.  The two oracles
anchored at a point P of PG(6,q) count the subspaces through P as the
subspaces of PG(5,q) they project to from P (see _project), so they share
the planes and lines of PG(5,q) with the skew-count grid.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .counting import (complement_count, planes_meeting_two_solids_bound,
                       planes_meeting_two_solids_exact, s,
                       solids_meeting_three_planes_bound)
from .constructions import build_line_meeting_plane_family
from .galois import build_field
from .linalg import (disjoint, least_pair, mat_from_combo, meet_count, rref,
                     subset)
from .projective import (PatternCodec, Subspace, basis_bitsets,
                         check_subspace_bitsets, intersect_trivially, meet,
                         point_bitsets, point_words, span, subspace_to_text)

@dataclass
class OracleResult:
    name: str
    q: int
    parameters: dict
    count: int
    expected: int
    relation: str               # "==" or "<="
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _result(name: str, q: int, parameters: dict, count: int, expected: int,
            relation: str, details: dict | None = None,
            extra_ok: bool = True) -> OracleResult:
    ok = (count == expected) if relation == "==" else (count <= expected)
    return OracleResult(name, q, parameters, count, expected, relation,
                        ok and extra_ok, details or {})


# ---------------------------------------------------------------------------
# Batched enumeration


@functools.lru_cache(maxsize=64)
def _all_d_space_bits(n: int, q: int, d: int) -> np.ndarray:
    """Word-major point bitsets of every d-space of PG(n,q), in the
    PatternCodec order, refused from the Gaussian coefficient before
    anything is enumerated."""
    check_subspace_bitsets(n, q, d)
    return basis_bitsets(PatternCodec(n + 1, d + 1, q).array(), n, q)


def _project(sub: Subspace, point: Subspace) -> Subspace:
    """The projection of sub from the point P onto the coordinate
    hyperplane x_j = 0 of PG(n,q), j the pivot of P's row (P_j = 1), as a
    subspace of PG(n-1,q): each row v goes to v - v_j P with coordinate j
    dropped.  It has one dimension less than sub if P lies in sub, the
    same otherwise.

    The (d+1)-spaces through P are the spans <P, X> of the d-spaces X of
    that hyperplane, one each, and <P, X> meets a subspace A avoiding P if
    and only if X meets the projection of A.  A vector a of A in <P, X> is
    cP + x with x in X; then c = a_j, so x is the projection of a, and x is
    not 0 since A avoids P.  Conversely, if x in X is the projection of a
    in A, then a = a_j P + x lies in <P, X>."""
    p = point.rows[0]
    j = next(i for i, c in enumerate(p) if c)
    fld = point.field
    rows = []
    for v in sub.rows:
        w = [fld.sub(c, fld.mul[v[j]][pc]) for c, pc in zip(v, p)]
        del w[j]
        rows.append(w)
    return Subspace.from_vectors(sub.n - 1, sub.q, rows)


# ---------------------------------------------------------------------------
# Skew counting: d-spaces through K avoiding L


def count_skew_constrained(n: int, q: int, d: int,
                           contains: Subspace | None = None,
                           skew_to: Subspace | None = None) -> OracleResult:
    """Count d-spaces of PG(n,q) containing K and disjoint from L by full
    enumeration, against the closed form s(l,k,d,n)."""
    if d < 0 or d > n:
        raise ValueError("d=%d outside 0..%d" % (d, n))
    k = contains.d if contains is not None else -1
    l = skew_to.d if skew_to is not None else -1
    if contains is not None and skew_to is not None and k >= 0 and l >= 0 \
            and not intersect_trivially(contains, skew_to):
        raise ValueError("the fixed subspaces must be skew")
    return _count_skew(n, q, d, contains, skew_to,
                       point_words(contains) if k >= 0 else None,
                       point_words(skew_to) if l >= 0 else None)


def _count_skew(n: int, q: int, d: int, contains: Subspace | None,
                skew_to: Subspace | None, contains_words: np.ndarray | None,
                skew_words: np.ndarray | None) -> OracleResult:
    """count_skew_constrained on checked arguments, given the point word
    columns of K and L (None for an absent or empty constraint).

    Containment is tested first, and skewness only on the d-spaces that
    pass it.  The count is that of the columns passing both tests, and each
    column's tests read that column alone, so testing L on fewer columns
    drops no column that passes both.  Few d-spaces contain K (1210 of
    the 33880 planes of PG(5,3) pass through a point), so the second test
    reads a small gathered array."""
    k = contains.d if contains is not None else -1
    l = skew_to.d if skew_to is not None else -1
    bits = _all_d_space_bits(n, q, d)
    if contains_words is not None:
        bits = bits.compress(subset(contains_words, bits), axis=1)
    count = (bits.shape[1] if skew_words is None
             else int(np.count_nonzero(disjoint(bits, skew_words))))
    params = {"n": n, "d": d, "k": k, "l": l,
              "contains": subspace_to_text(contains) if contains else None,
              "skew_to": subspace_to_text(skew_to) if skew_to else None}
    return _result("skew_count", q, params, count, s(l, k, d, n, q=q), "==")


def complement_count_check(n: int, q: int, d: int,
                           subspace: Subspace | None = None) -> OracleResult:
    """Count the complements of a d-space: the (n-d-1)-spaces skew to it."""
    if d < -1 or d > n:
        raise ValueError("d=%d outside -1..%d" % (d, n))
    u = subspace if subspace is not None else Subspace.from_vectors(
        n, q, _unit_rows(n, range(d + 1)))
    if u.d != d:
        raise ValueError("subspace has dimension %d, expected %d" % (u.d, d))
    bits = _all_d_space_bits(n, q, n - d - 1)
    count = int(np.count_nonzero(disjoint(bits, point_words(u))))
    params = {"n": n, "d": d, "subspace": subspace_to_text(u)}
    return _result("complement_count", q, params, count,
                   complement_count(d, n, q), "==")


def _unit_rows(n: int, idxs) -> list[tuple[int, ...]]:
    rows = []
    for i in idxs:
        row = [0] * (n + 1)
        row[i] = 1
        rows.append(tuple(row))
    return rows


# ---------------------------------------------------------------------------
# Solids through a point meeting three pairwise almost-disjoint planes


@dataclass(frozen=True)
class ThreePlanesConfig:
    """Three planes of PG(6,q) meeting pairwise exactly in a common point,
    plus a second point outside all three pairwise spans."""
    point: Subspace
    planes: tuple[Subspace, Subspace, Subspace]
    outside_point: Subspace

    def validate(self) -> None:
        if self.point.d != 0 or self.outside_point.d != 0:
            raise ValueError("anchors must be points")
        if len(self.planes) != 3 or any(e.d != 2 for e in self.planes):
            raise ValueError("need exactly three planes")
        for e in self.planes:
            if not e.contains(self.point):
                raise ValueError("every plane must pass through the point")
        for i in range(3):
            for j in range(i + 1, 3):
                sp = span(self.planes[i], self.planes[j])
                if sp.d != 4:
                    raise ValueError(
                        "planes %d and %d share more than the point" % (i, j))
                if sp.contains(self.outside_point):
                    raise ValueError(
                        "outside point lies in the span of planes %d and %d"
                        % (i, j))

    def to_params(self) -> dict:
        return {"point": subspace_to_text(self.point),
                "planes": [subspace_to_text(e) for e in self.planes],
                "outside_point": subspace_to_text(self.outside_point)}


def canonical_three_planes_config(q: int) -> ThreePlanesConfig:
    n = 6
    p1 = Subspace.from_vectors(n, q, _unit_rows(n, [0]))
    e1 = Subspace.from_vectors(n, q, _unit_rows(n, [0, 1, 2]))
    e2 = Subspace.from_vectors(n, q, _unit_rows(n, [0, 3, 4]))
    mixed = [0] * (n + 1)
    mixed[1] = mixed[3] = 1
    e3 = Subspace.from_vectors(n, q, _unit_rows(n, [0, 5]) + [tuple(mixed)])
    p2 = Subspace.from_vectors(n, q, _unit_rows(n, [6]))
    cfg = ThreePlanesConfig(p1, (e1, e2, e3), p2)
    cfg.validate()
    return cfg


def count_solids_meeting_three_planes(q: int,
                                      config: ThreePlanesConfig | None = None
                                      ) -> OracleResult:
    """Count solids through the outside point meeting all three planes;
    must stay below the closed-form bound.

    By projection from the outside point P (_project), the solids through P
    are <P, pi> for the planes pi of PG(5,q), and <P, pi> meets a plane E
    if and only if pi meets the projection of E: validate() puts P in no
    span of two planes, so in none of the planes.  So the count is that of
    the planes of PG(5,q) meeting the three projected planes."""
    cfg = config if config is not None else canonical_three_planes_config(q)
    cfg.validate()
    bits = _all_d_space_bits(5, q, 2)
    keep = np.ones(bits.shape[1], dtype=bool)
    for e in cfg.planes:
        keep &= ~disjoint(bits, point_words(_project(e, cfg.outside_point)))
    count = int(np.count_nonzero(keep))
    bound = solids_meeting_three_planes_bound(q)
    return _result("solids_meeting_three_planes", q, cfg.to_params(),
                   count, bound, "<=",
                   details={"solids_through_point": bits.shape[1]})


# ---------------------------------------------------------------------------
# Planes through a point meeting two solids


@dataclass(frozen=True)
class TwoSolidsConfig:
    """Two solids of PG(6,q) and a point outside both. The count below is
    controlled by u, the dimension of u1 = meet(span(point, solid2), solid1)."""
    solid1: Subspace
    solid2: Subspace
    point: Subspace

    @functools.cached_property
    def u1(self) -> Subspace:
        return meet(span(self.point, self.solid2), self.solid1)

    @property
    def u(self) -> int:
        return self.u1.d

    def validate(self) -> None:
        if self.solid1.d != 3 or self.solid2.d != 3:
            raise ValueError("both anchors must be solids")
        if self.point.d != 0:
            raise ValueError("the anchor point must be a point")
        if self.solid1.contains(self.point) or self.solid2.contains(self.point):
            raise ValueError("the point must avoid both solids")
        if self.u not in (1, 2):
            raise ValueError("configuration has u=%d, supported u are 1 and 2"
                             % self.u)

    def to_params(self) -> dict:
        return {"solid1": subspace_to_text(self.solid1),
                "solid2": subspace_to_text(self.solid2),
                "point": subspace_to_text(self.point), "u": self.u}


def canonical_two_solids_config(q: int, u: int) -> TwoSolidsConfig:
    n = 6
    s1 = Subspace.from_vectors(n, q, _unit_rows(n, [0, 1, 2, 3]))
    if u == 2:
        mixed = [0] * (n + 1)
        mixed[3] = mixed[4] = 1
        s2 = Subspace.from_vectors(n, q, _unit_rows(n, [0, 1, 5]) + [tuple(mixed)])
        p = Subspace.from_vectors(n, q, _unit_rows(n, [4]))
    elif u == 1:
        s2 = Subspace.from_vectors(n, q, _unit_rows(n, [0, 1, 4, 5]))
        p = Subspace.from_vectors(n, q, _unit_rows(n, [6]))
    else:
        raise ValueError("supported u are 1 and 2")
    cfg = TwoSolidsConfig(s1, s2, p)
    cfg.validate()
    if cfg.u != u:
        raise AssertionError("canonical configuration drifted")
    return cfg


def count_planes_meeting_two_solids(q: int,
                                    config: TwoSolidsConfig | None = None,
                                    u: int = 2) -> OracleResult:
    """Count planes through the point meeting both solids and compare with
    the exact closed form for the configuration's u; also verify the
    per-class counts behind the formula and the u-independent bound.

    By projection from the point P (_project), the planes through P are
    <P, l> for the lines l of PG(5,q), and <P, l> meets a solid avoiding P
    if and only if l meets its projection.  The classes are by how a plane
    meets v = <u1, P>, u1 = meet(<P, solid2>, solid1): in P alone, in a
    line or in all of itself.  Since v contains P, the plane <P, l> meets
    v in <P, X> for X the meet of l with the projection of v (of dimension
    u), so the classes are l missing it, meeting it in a point or lying in
    it: the thresholds 1, q+1 and q^2+q+1 on the points of the plane in v
    become 0, 1 and q+1 on the points of the line in the projection."""
    cfg = config if config is not None else canonical_two_solids_config(q, u)
    cfg.validate()
    uu = cfg.u
    bits = _all_d_space_bits(5, q, 1)
    keep = ~disjoint(bits, point_words(_project(cfg.solid1, cfg.point))) \
        & ~disjoint(bits, point_words(_project(cfg.solid2, cfg.point)))

    v = _project(span(cfg.u1, cfg.point), cfg.point)
    overlap = meet_count(bits, point_words(v)[:, None])
    classes = {
        "meet_v_in_point": int(np.count_nonzero(keep & (overlap == 0))),
        "meet_v_in_line": int(np.count_nonzero(keep & (overlap == 1))),
        "inside_v": int(np.count_nonzero(keep & (overlap == q + 1))),
    }
    terms = {
        "meet_v_in_point": (s(3, q=q) - s(uu, q=q)) ** 2,
        "meet_v_in_line": s(0, 1, uu + 1, q=q) * (s(1, 2, 6, q=q) - s(1, 2, uu + 1, q=q)),
        "inside_v": s(0, 2, uu + 1, q=q),
    }
    count = int(np.count_nonzero(keep))
    bound = planes_meeting_two_solids_bound(q)
    extra_ok = classes == terms and count <= bound
    return _result("planes_meeting_two_solids", q, cfg.to_params(),
                   count, planes_meeting_two_solids_exact(uu, q), "==",
                   details={"classes": classes, "class_terms": terms,
                            "bound": bound},
                   extra_ok=extra_ok)


# ---------------------------------------------------------------------------
# Plane families in PG(5,q) pairwise meeting in lines


def line_meeting_family_check(q: int, planes: Sequence[Subspace] | None = None,
                              kind: str = "line_star") -> OracleResult:
    """Check a family of planes of PG(5,q) pairwise meeting in lines: its
    size against the extremal value s(3), and maximality by sweeping every
    plane of the space as a candidate extension.  The sweep is refused
    before the family is built, and it keeps the candidates meeting each
    member in a line, one member at a time."""
    n = 5
    bits = _all_d_space_bits(n, q, 2)
    if planes is None:
        planes = build_line_meeting_plane_family(kind, n=n, q=q)
    planes = list(planes)
    for e in planes:
        if (e.n, e.q, e.d) != (n, q, 2):
            raise ValueError("family members must be planes of PG(5,%d)" % q)
    member = point_bitsets(planes, n, q)
    line_size = q + 1

    pair_ok = least_pair(member,
                         lambda a, b: meet_count(a, b) != line_size) is None

    cand = bits
    for j in range(member.shape[1]):
        cand = cand.compress(
            meet_count(cand, member[:, j:j + 1]) == line_size, axis=1)
    # a member meets itself in q^2+q+1 points, so no member extends
    extensions = cand.shape[1]

    common = planes[0]
    hull = planes[0]
    for e in planes[1:]:
        common = meet(common, e)
        hull = span(hull, e)
    if common.d == 1:
        family_type = "line_star"
    elif hull.d == 3:
        family_type = "solid_full"
    else:
        family_type = "other"

    return _result("line_meeting_family", q,
                   {"n": n, "kind": kind, "size": len(planes)},
                   len(planes), s(3, q=q), "==",
                   details={"pairwise_meet_in_lines": pair_ok,
                            "extensions_found": extensions,
                            "maximal": extensions == 0,
                            "planes_swept": bits.shape[1],
                            "family_type": family_type},
                   extra_ok=pair_ok and extensions == 0)


def skew_count_tuples(n_max: int) -> list[tuple[int, int, int, int]]:
    """All (n, d, k, l) with 1 <= n <= n_max, 0 <= d <= n-1, a k-space to
    contain (k <= d) and an l-space skew to it that fits (k + l <= n - 1).
    k or l may be -1, dropping that constraint."""
    out = []
    for n in range(1, n_max + 1):
        for d in range(n):
            for k in range(-1, d + 1):
                for l in range(-1, n - k):
                    out.append((n, d, k, l))
    return out


def skew_count_grid(q: int, n_max: int = 5, samples: int = 10,
                    seed: int = 0) -> list[OracleResult]:
    """Run the skew-count oracle on every parameter tuple up to n_max: the
    canonical nested-units configuration plus `samples` seeded random
    configurations each.  The configurations of one (n, d) are built
    first, their constraint subspaces get their point words from one
    point_bitsets call per dimension, and then each is counted.  Groups of
    one n hold several times as many sampled subspaces at once, and raised
    the peak RSS of repeated q=3 grids by about 0.2 MB."""
    results = []
    for (n, d), tuples in itertools.groupby(skew_count_tuples(n_max),
                                            key=lambda t: t[:2]):
        configs: list[tuple[Subspace | None, Subspace | None]] = []
        for (_, _, k, l) in tuples:
            # unit rows in increasing position are already in RREF
            canon_k = (Subspace(n, q, tuple(_unit_rows(n, range(k + 1))))
                       if k >= 0 else None)
            canon_l = (Subspace(n, q, tuple(_unit_rows(n, range(k + 1, k + l + 2))))
                       if l >= 0 else None)
            configs.append((canon_k, canon_l))
            rng = np.random.default_rng((seed, q, n, d, k + 1, l + 1))
            for _ in range(samples):
                configs.append(sample_skew_pair(n, q, k, l, rng))
        words = _grouped_point_words([sub for pair in configs for sub in pair],
                                     n, q)
        for (kk, ll), kw, lw in zip(configs, words[0::2], words[1::2]):
            results.append(_count_skew(n, q, d, kk, ll, kw, lw))
    return results


def _grouped_point_words(subs: Sequence[Subspace | None], n: int,
                         q: int) -> list[np.ndarray | None]:
    """The point_words of each subspace of PG(n,q), None for None or the
    empty subspace, from one point_bitsets call per dimension."""
    by_dim: dict[int, list[int]] = {}
    for i, sub in enumerate(subs):
        if sub is not None and sub.d >= 0:
            by_dim.setdefault(sub.d, []).append(i)
    out: list[np.ndarray | None] = [None] * len(subs)
    for at in by_dim.values():
        bits = point_bitsets([subs[i] for i in at], n, q)
        for col, i in enumerate(at):
            out[i] = bits[:, col]
    return out


# ---------------------------------------------------------------------------
# Seeded random configurations


def random_subspace(n: int, q: int, d: int, rng: np.random.Generator, *,
                    contains: Subspace | None = None,
                    within: Subspace | None = None) -> Subspace:
    """A random d-space through `contains` (K) inside `within` (W, K inside
    W): K's rows plus d - dim K random combinations of W's rows (random
    vectors when W is the whole space), retried until the rank is right.
    The distribution is uniform because every d-space through K in W is
    reached by the same number of tuples of combinations.

    Each attempt draws its coefficients in one rng.integers call of shape
    (rows, width).  That gives the values, and leaves the generator in the
    state, of one call per row (tests/test_oracle.py checks this for
    q <= 9 and widths 2-7), and the golden skew3.json and skew4.json
    digests pin the draws.  The entries lie in 0..q-1 by construction, so
    the rows go to rref without the range checks of from_vectors."""
    if d < 0:
        return Subspace.empty(n, q)
    fld = build_field(q)
    head = list(contains.rows) if contains is not None else []
    width = len(within.rows) if within is not None else n + 1
    while True:
        combos = rng.integers(0, q, size=(d + 1 - len(head), width)).tolist()
        if within is not None:
            combos = [mat_from_combo(c, within.rows, fld) for c in combos]
        rows = rref(head + combos, fld)
        if len(rows) == d + 1:
            return Subspace(n, q, rows)


def sample_skew_pair(n: int, q: int, k: int, l: int,
                     rng: np.random.Generator) -> tuple[Subspace, Subspace]:
    if (k + 1) + (l + 1) > n + 1:
        raise ValueError("no skew pair of dimensions %d and %d fits in PG(%d,%d)"
                         % (k, l, n, q))
    while True:
        a = random_subspace(n, q, k, rng)
        b = random_subspace(n, q, l, rng)
        if k < 0 or l < 0 or intersect_trivially(a, b):
            return a, b


def sample_three_planes_config(q: int,
                               rng: np.random.Generator) -> ThreePlanesConfig:
    n = 6
    p1 = random_subspace(n, q, 0, rng)
    planes: list[Subspace] = []
    while len(planes) < 3:
        e = random_subspace(n, q, 2, rng, contains=p1)
        if all(span(e, f).d == 4 for f in planes):
            planes.append(e)
    spans = [span(planes[i], planes[j])
             for i in range(3) for j in range(i + 1, 3)]
    while True:
        p2 = random_subspace(n, q, 0, rng)
        if not any(sp.contains(p2) for sp in spans):
            cfg = ThreePlanesConfig(p1, tuple(planes), p2)
            cfg.validate()
            return cfg


def sample_two_solids_config(q: int, u: int,
                             rng: np.random.Generator) -> TwoSolidsConfig:
    if u not in (1, 2):
        raise ValueError("supported u are 1 and 2")
    n = 6
    while True:
        if u == 2:
            # u=2 needs the point and both solids inside a common hyperplane
            h = random_subspace(n, q, 5, rng)
            s1, s2, p = (random_subspace(n, q, d, rng, within=h) for d in (3, 3, 0))
        else:
            s1 = random_subspace(n, q, 3, rng)
            s2 = random_subspace(n, q, 3, rng)
            p = random_subspace(n, q, 0, rng)
        if s1.contains(p) or s2.contains(p):
            continue
        cfg = TwoSolidsConfig(s1, s2, p)
        if cfg.u == u:
            cfg.validate()
            return cfg
