"""Brute-force counting oracles.

Everything here counts by enumeration and bitset filtering, never through
the closed-form layer, so the two routes stay independent: the formulas in
`counting` are the claims, the functions here are the checks.  Enumerations
come from projective.subspace_array as integer basis arrays and are turned
into numpy bitset arrays in bounded batches, which keeps even the
30k-subspace sweeps at q=3 well under a second.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .counting import (complement_count, gaussian,
                       planes_meeting_two_solids_bound,
                       planes_meeting_two_solids_exact, s,
                       solids_meeting_three_planes_bound)
from .constructions import build_line_meeting_plane_family
from .galois import build_field
from .linalg import disjoint, least_pair, mat_from_combo, popcount, superset
from .projective import (Subspace, basis_bitsets, intersect_trivially, meet,
                         point_bitsets, point_words, span, subspace_array,
                         subspace_to_text)

MAX_ENUMERATED = 3_000_000


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


def _check_cutoff(n: int, q: int, d: int, contains: Subspace | None = None) -> None:
    """Refuse, before it starts, an enumeration of the d-spaces of PG(n,q)
    through `contains` (all of them when None) above MAX_ENUMERATED."""
    k = contains.d if contains is not None else -1
    total = gaussian(n - k, d - k, q)
    if total > MAX_ENUMERATED:
        raise ValueError(
            "PG(%d,%d) has %d %d-spaces%s, above the enumeration cutoff %d"
            % (n, q, total, d, " through a %d-space" % k if k >= 0 else "",
               MAX_ENUMERATED))


@functools.lru_cache(maxsize=64)
def _all_d_space_bits(n: int, q: int, d: int) -> np.ndarray:
    """Word-major point bitsets of every d-space of PG(n,q), rref_patterns
    order."""
    _check_cutoff(n, q, d)
    return basis_bitsets(subspace_array(n, q, d), n, q)


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
    bits = _all_d_space_bits(n, q, d)
    keep = np.ones(bits.shape[1], dtype=bool)
    if contains is not None and k >= 0:
        keep &= superset(bits, point_words(contains))
    if skew_to is not None and l >= 0:
        keep &= disjoint(bits, point_words(skew_to))
    count = int(np.count_nonzero(keep))
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
    must stay below the closed-form bound."""
    cfg = config if config is not None else canonical_three_planes_config(q)
    cfg.validate()
    n = 6
    _check_cutoff(n, q, 3, cfg.outside_point)
    bits = basis_bitsets(subspace_array(n, q, 3, contains=cfg.outside_point), n, q)
    keep = np.ones(bits.shape[1], dtype=bool)
    for e in cfg.planes:
        keep &= ~disjoint(bits, point_words(e))
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
    controlled by u, the dimension of meet(span(point, solid2), solid1)."""
    solid1: Subspace
    solid2: Subspace
    point: Subspace

    @property
    def u(self) -> int:
        return meet(span(self.point, self.solid2), self.solid1).d

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
    per-class counts behind the formula and the u-independent bound."""
    cfg = config if config is not None else canonical_two_solids_config(q, u)
    cfg.validate()
    uu = cfg.u
    n = 6
    _check_cutoff(n, q, 2, cfg.point)
    bits = basis_bitsets(subspace_array(n, q, 2, contains=cfg.point), n, q)
    keep = ~disjoint(bits, point_words(cfg.solid1)) \
        & ~disjoint(bits, point_words(cfg.solid2))

    u1 = meet(span(cfg.point, cfg.solid2), cfg.solid1)
    v = span(u1, cfg.point)
    overlap = popcount(bits & point_words(v)[:, None])
    classes = {
        "meet_v_in_point": int(np.count_nonzero(keep & (overlap == 1))),
        "meet_v_in_line": int(np.count_nonzero(keep & (overlap == q + 1))),
        "inside_v": int(np.count_nonzero(keep & (overlap == q * q + q + 1))),
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
    plane of the space as a candidate extension."""
    n = 5
    if planes is None:
        planes = build_line_meeting_plane_family(kind, n=n, q=q)
    planes = list(planes)
    for e in planes:
        if (e.n, e.q, e.d) != (n, q, 2):
            raise ValueError("family members must be planes of PG(5,%d)" % q)
    member = point_bitsets(planes, n, q)
    line_size = q + 1

    pair_ok = least_pair(member,
                         lambda a, b: popcount(a & b) != line_size) is None

    bits = _all_d_space_bits(n, q, 2)
    cuts = popcount(bits[:, :, None] & member[:, None, :])
    extends = (cuts == line_size).all(axis=1)
    is_member = np.zeros(bits.shape[1], dtype=bool)
    for i in range(len(planes)):
        is_member |= (bits == member[:, i:i + 1]).all(axis=0)
    extensions = int(np.count_nonzero(extends & ~is_member))

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
    configurations each."""
    results = []
    for (n, d, k, l) in skew_count_tuples(n_max):
        configs: list[tuple[Subspace | None, Subspace | None]] = []
        canon_k = (Subspace.from_vectors(n, q, _unit_rows(n, range(k + 1)))
                   if k >= 0 else None)
        canon_l = (Subspace.from_vectors(n, q, _unit_rows(n, range(k + 1, k + l + 2)))
                   if l >= 0 else None)
        configs.append((canon_k, canon_l))
        rng = np.random.default_rng((seed, q, n, d, k + 1, l + 1))
        for _ in range(samples):
            configs.append(sample_skew_pair(n, q, k, l, rng))
        for kk, ll in configs:
            results.append(count_skew_constrained(n, q, d, contains=kk,
                                                  skew_to=ll))
    return results


# ---------------------------------------------------------------------------
# Seeded random configurations


def random_subspace(n: int, q: int, d: int, rng: np.random.Generator, *,
                    contains: Subspace | None = None,
                    within: Subspace | None = None) -> Subspace:
    """A random d-space through `contains` (K) inside `within` (W, K inside
    W): K's rows plus d - dim K random combinations of W's rows (random
    vectors when W is the whole space), retried until the rank is right.
    The distribution is uniform because every d-space through K in W is
    reached by the same number of tuples of combinations."""
    if d < 0:
        return Subspace.empty(n, q)
    fld = build_field(q)
    head = list(contains.rows) if contains is not None else []
    width = len(within.rows) if within is not None else n + 1
    while True:
        combos = [tuple(int(c) for c in rng.integers(0, q, size=width))
                  for _ in range(d + 1 - len(head))]
        if within is not None:
            combos = [mat_from_combo(c, within.rows, fld) for c in combos]
        sub = Subspace.from_vectors(n, q, head + combos)
        if sub.d == d:
            return sub


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
