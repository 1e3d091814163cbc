"""Checkers for flag families: independence, maximality, saturation
structure, trace bounds and colorings.

Every checker returns a VerificationReport whose checks carry minimal
witnesses: the lexicographically least offending ordinal or ordinal pair.
Reports serialize to a stable JSON shape

    {subject, q, cardinality, expected, checks: [{name, pass, witness, ms}]}

(expected is always null) and are byte-stable for fixed inputs once
timings are stripped (the default; pass include_timing=True to keep them).
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .counting import (chromatic_lower_poly, independence_number_formula,
                       plane_disjoint_solid_meeting_bound, s,
                       universe_size_formula)
from .flags import Flag, FlagSet, FlagUniverse, adjacency_scan
from .linalg import (disjoint, least_pair, meet_count, point_bits, point_ids,
                     popcount, subset)
from .projective import Subspace, perp_bitsets, point_words, subspace_to_text


class PreconditionError(ValueError):
    """A checker's hypothesis failed; distinct from the bound failing."""


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: object = None
    ms: float | None = None


@dataclass
class VerificationReport:
    subject: str
    q: int
    cardinality: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "subject": self.subject,
            "q": self.q,
            "cardinality": self.cardinality,
            "expected": None,  # kept so that the report shape stays fixed
            "checks": [
                {"name": c.name, "pass": c.passed, "witness": c.witness,
                 "ms": (round(c.ms, 3) if include_timing and c.ms is not None else None)}
                for c in self.checks
            ],
        }

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)


def _timed(name: str, check) -> CheckResult:
    """Run check() -> (passed, witness) as the check `name`, timed."""
    t0 = time.perf_counter()
    passed, witness = check()
    return CheckResult(name, passed, witness,
                       (time.perf_counter() - t0) * 1000.0)


def _member_arrays(fset: FlagSet):
    """The universe, the member ordinals, and their plane and solid words."""
    uni = fset.universe
    ords = fset.ordinals()
    return (uni, ords, uni.plane_words.take(uni.plane_gid[ords], axis=1),
            uni.solid_words.take(ords // uni.planes_per_solid, axis=1))


# uint64 words of scratch per block, 512 KB: a block of check_independent
# holds member solids times planes per solid times words per packed row
_BLOCK_WORDS = 1 << 16


def _solids_per_block(k: int, pps: int) -> int:
    """Member solids per block of check_independent over k member solids,
    a multiple of 64 so that a block's columns start on a packed word."""
    return max(64, (_BLOCK_WORDS // (pps * ((k + 63) // 64 or 1))) & -64)


def _least_conflicting_solid(uni: FlagUniverse, ords: np.ndarray) -> int | None:
    """The Z & Z^T test of check_independent on the member ordinals: the
    least solid ordinal of a member in an adjacent member pair, or None."""
    # ords ascend, so the members are grouped by solid: the k distinct
    # solids are numbered 0..k-1, solid s holding members starts[s]:starts[s+1]
    sid = ords // uni.planes_per_solid
    starts = np.flatnonzero(np.diff(sid, prepend=-1))
    k = len(starts)
    # inc[p]: the member solids through point p, packed over s
    inc = np.zeros((64 * len(uni.solid_words), (k + 63) & -64), dtype=bool)
    inc[:, :k] = point_bits(uni.solid_words.take(sid[starts], axis=1)).T
    inc = np.packbits(inc, axis=1, bitorder="little").view(np.uint64)
    starts = np.append(starts, len(ords))
    # meets[a]: the member solids that the a-th distinct member plane meets
    # (at most n_solids rows, as many as Z can have); row: each member's a
    gids = uni.plane_gid[ords]
    seen = np.zeros(uni.plane_words.shape[1], dtype=bool)
    seen[gids] = True
    points = point_ids(uni.plane_words[:, seen], uni.q * uni.q + uni.q + 1)
    meets = inc[points[:, 0]]
    for col in points[:, 1:].T:
        meets |= inc[col]
    row = (np.cumsum(seen) - 1)[gids]
    z = np.empty((k, inc.shape[1]), dtype=np.uint64)
    step = _solids_per_block(k, uni.planes_per_solid)
    least = k
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        # Z[s]: the member solids that some member plane of S_s misses
        z[lo:hi] = ~np.bitwise_and.reduceat(meets[row[starts[lo]:starts[hi]]],
                                            starts[lo:hi] - starts[lo])
        # Z[t, s] for every t < hi and the block's s, as rows s packed over t
        cols = np.unpackbits(z[:hi, lo >> 6:(hi + 63) >> 6].view(np.uint8),
                             axis=1, bitorder="little", count=hi - lo)
        back = np.packbits(cols.T.copy(), axis=1, bitorder="little")
        # the lesser solid of each pair found here is a set column
        hit = np.unpackbits(np.bitwise_or.reduce(
            z[lo:hi].view(np.uint8)[:, :back.shape[1]] & back), bitorder="little")
        if hit.any():
            least = min(least, int(hit.argmax()))
            if least == 0:  # no solid is less
                break
    return None if least == k else int(sid[starts[least]])


def check_independent(fset: FlagSet, subject: str = "flag set") -> VerificationReport:
    """No two members are adjacent.  Fail witness: least ordinal pair.

    Members (E_a, S_s) and (E_b, S_t) are adjacent iff E_a misses S_t and
    E_b misses S_s.  With inc[p] the member solids through point p, meets[a]
    the OR of inc over the points of a distinct member plane E_a, and Z[s]
    the complement of the AND of meets over the member planes of S_s, all
    packed over the k distinct member solids, Z[s, t] says that some member
    plane of S_s misses S_t, and the set is independent iff Z & Z^T is
    empty (Z[s, s] is 0: a plane lies in its own solid).  Blocks of solids,
    in order, compute their Z rows from their own members and test them
    against the rows so far; the lesser solid of each pair a block finds is
    a set column of its Z & Z^T rows, so the blocks give the least member
    solid in a conflicting pair.  Members of lesser solids are adjacent to
    no member, so the least pair is the first member i of that solid with
    an adjacent member, and its least adjacent member, greater than i.
    """
    uni = fset.universe
    ords = fset.ordinals()

    def run():
        solid = _least_conflicting_solid(uni, ords)
        if solid is None:
            return True, None
        for i in ords[ords // uni.planes_per_solid == solid].tolist():
            count, j = adjacency_scan(fset, i)
            if count:
                return False, {"adjacent_pair": [i, j]}

    report = VerificationReport(subject=subject, q=uni.q,
                                cardinality=fset.cardinality)
    report.checks.append(_timed("independent", run))
    return report


def check_maximal(fset: FlagSet, subject: str = "flag set") -> VerificationReport:
    """No flag outside the set is non-adjacent to every member.

    Fail witness: the least ordinal that could be added.  The candidates
    start as the non-members; each step drops those adjacent to one member
    (its adjacent_mask), and the scan stops as soon as none is left, so
    Lambda(P,l) at q = 2 is settled in 44 steps and 3 scans.  Members are
    visited with a stride coprime to their number, because consecutive
    members in ordinal order share a solid and cover nearly the same
    flags.  A step that drops no candidate, or the end of the members,
    settles the least live candidate c with adjacency_scan: if no member
    covers it, every smaller candidate is covered and c is the witness;
    else its least adjacent member takes the next step, which drops c.  So
    a set that is not maximal settles in a few steps.  What is left at the
    end, the non-members adjacent to no member, does not depend on the
    visit order, and neither do the verdict and the least witness.
    """
    uni = fset.universe
    ords = fset.ordinals()

    def run():
        m = len(ords)
        # a stride coprime to m visits every member once, far apart
        stride = max(1, round(m * 0.618))
        while math.gcd(stride, m) != 1:
            stride += 1
        visits = (int(ords[k * stride % m]) for k in range(m))
        alive = ~fset.mask  # members never extend the set
        left, member = np.count_nonzero(alive), next(visits, None)
        while left:
            now = left
            if member is not None:
                alive &= ~uni.adjacent_mask(member)
                now = np.count_nonzero(alive)
            if now == left:  # stalled or out of members: settle the least one
                c = int(np.argmax(alive))
                covering, member = adjacency_scan(fset, c)
                if not covering:
                    return False, {"extending_flag": c}
            else:
                member = next(visits, None)
            left = now
        return True, None

    report = VerificationReport(subject=subject, q=uni.q,
                                cardinality=fset.cardinality)
    report.checks.append(_timed("maximal", run))
    return report


def max_flags_per_solid(fset: FlagSet) -> int:
    """The largest number of member flags sharing one solid."""
    ords = fset.ordinals()
    if ords.size == 0:
        return 0
    s_ords = ords // fset.universe.planes_per_solid
    return int(np.bincount(s_ords).max())


# ---------------------------------------------------------------------------
# Saturation structure


@dataclass
class PlaneEntry:
    flag_ordinal: int       # the least member flag on the plane
    members: int
    is_quotient_subspace: bool
    saturated: bool         # every solid on the plane occurs
    universe: FlagUniverse = field(repr=False, compare=False)

    @functools.cached_property
    def plane(self) -> Subspace:
        """Built on first use: the checks name a plane only in a witness."""
        return self.universe.flag(self.flag_ordinal).plane


@dataclass
class SolidEntry:
    ordinal: int            # solid ordinal in the universe's canonical order
    members: int
    is_pencil: bool
    saturated: bool         # every plane of the solid occurs
    universe: FlagUniverse = field(repr=False, compare=False)

    @functools.cached_property
    def solid(self) -> Subspace:
        """Built on first use, like PlaneEntry.plane."""
        uni = self.universe
        return Subspace(uni.n, uni.q, uni.solid_codec.unrank(self.ordinal))


@dataclass
class SaturationProfile:
    plane_entries: list[PlaneEntry]
    solid_entries: list[SolidEntry]

    @property
    def all_pencils(self) -> bool:
        return all(e.is_pencil for e in self.solid_entries)

    @property
    def all_quotient_subspaces(self) -> bool:
        return all(e.is_quotient_subspace for e in self.plane_entries)

    def saturated_solids(self) -> list[Subspace]:
        return [e.solid for e in self.solid_entries if e.saturated]


def _group_reduce(ufunc, bits: np.ndarray, keys: np.ndarray):
    """For the groups of equal keys, in ascending key order: the first
    column of each, its size, and ufunc reduced over its columns of the
    word-major array bits."""
    order = np.argsort(keys, kind="stable")
    _, starts, sizes = np.unique(keys[order], return_index=True,
                                 return_counts=True)
    return (order[starts], sizes,
            ufunc.reduceat(bits.take(order, axis=1), starts, axis=1))


def _group_size_test(bits: np.ndarray, sizes: np.ndarray, q: int):
    """Whether the group of each subspace in bits, of dimension d (from its
    point count), has (q^(3-d) - 1)/(q - 1) members."""
    point_counts = [(q ** k - 1) // (q - 1) for k in range(8)]
    dims = np.searchsorted(point_counts, popcount(bits)) - 1
    return sizes == (q ** (3 - dims) - 1) // (q - 1)


def saturation_profile(fset: FlagSet) -> SaturationProfile:
    """Per-plane and per-solid structure of a flag set.

    The member planes inside a solid S meet in base(S), the AND of their
    point sets; they are the pencil of planes of S through base(S) iff they
    number (q^(3-d) - 1)/(q - 1), d = dim base(S).  Dually, the member
    solids on a plane E span hull(E), whose orthogonal complement is the
    set of points orthogonal to the OR of their point sets; they are all
    the solids between E and hull(E) iff they number (q^(3-d) - 1)/(q - 1),
    d = dim hull(E)^perp.
    """
    uni, ords, planes, solids = _member_arrays(fset)
    q, pps = uni.q, uni.planes_per_solid

    firsts, s_sizes, bases = _group_reduce(np.bitwise_and, planes, ords // pps)
    pencils = _group_size_test(bases, s_sizes, q)
    solid_entries = [
        SolidEntry(ordinal=s_ord, members=size, is_pencil=ok,
                   saturated=size == pps, universe=uni)
        for s_ord, size, ok in zip((ords[firsts] // pps).tolist(),
                                   s_sizes.tolist(), pencils.tolist())]

    firsts, p_sizes, hulls = _group_reduce(np.bitwise_or, solids,
                                           uni.plane_gid[ords])
    quotients = _group_size_test(perp_bitsets(hulls, uni.n, q), p_sizes, q)
    solids_on_plane = s(2, 3, 6, q=q)
    plane_entries = [
        PlaneEntry(flag_ordinal=o, members=size, is_quotient_subspace=ok,
                   saturated=size == solids_on_plane, universe=uni)
        for o, size, ok in zip(ords[firsts].tolist(), p_sizes.tolist(),
                               quotients.tolist())]
    return SaturationProfile(plane_entries=plane_entries,
                             solid_entries=solid_entries)


def check_saturation(fset: FlagSet, subject: str = "flag set") -> VerificationReport:
    """Structure checks on the saturation profile: per-solid plane sets are
    pencils, per-plane solid sets are quotient subspaces, and saturated
    solids pairwise share at least a line."""
    uni = fset.universe
    report = VerificationReport(subject=subject, q=uni.q,
                                cardinality=fset.cardinality)
    profile = saturation_profile(fset)

    def pencils():
        bad = next((e for e in profile.solid_entries if not e.is_pencil), None)
        return bad is None, None if bad is None else {
            "solid": subspace_to_text(bad.solid), "members": bad.members}

    def quotients():
        bad = next((e for e in profile.plane_entries
                    if not e.is_quotient_subspace), None)
        return bad is None, None if bad is None else {
            "plane": subspace_to_text(bad.plane), "members": bad.members}

    def lines():
        sats = [e for e in profile.solid_entries if e.saturated]
        bits = uni.solid_words.take([e.ordinal for e in sats], axis=1)
        pair = least_pair(bits, lambda a, b: meet_count(a, b) < 2)
        return pair is None, None if pair is None else {
            "solids": [subspace_to_text(sats[i].solid) for i in pair]}

    report.checks += [
        _timed("solid_plane_sets_are_pencils", pencils),
        _timed("plane_solid_sets_are_quotient_subspaces", quotients),
        _timed("saturated_solids_pairwise_meet_in_line", lines)]
    return report


# ---------------------------------------------------------------------------
# Trace bounds


def _trace_planes(fset: FlagSet, hyperplane: Subspace):
    """Sorted plane gids E with some member (E,S), E inside H, S not inside
    H (equivalently the trace of S on H is exactly E), and their bitsets."""
    uni, ords, planes, solids = _member_arrays(fset)
    h = point_words(hyperplane)
    gids = np.unique(uni.plane_gid[ords[subset(planes, h) & ~subset(solids, h)]])
    return gids.tolist(), uni.plane_words.take(gids, axis=1)


def check_hyperplane_trace_ekr(fset: FlagSet, hyperplane: Subspace,
                               subject: str = "flag set") -> VerificationReport:
    """The planes cut out on H by member solids not inside H pairwise
    intersect and number at most s(1,4)."""
    if hyperplane.d != 5:
        raise PreconditionError("trace anchor must be a hyperplane")
    uni = fset.universe
    gids, bits = _trace_planes(fset, hyperplane)
    report = VerificationReport(subject=subject, q=uni.q, cardinality=len(gids))
    bound = s(1, 4, q=uni.q)

    def intersecting():
        pair = least_pair(bits, disjoint)
        return pair is None, None if pair is None else {
            "disjoint_planes": [gids[i] for i in pair]}

    report.checks += [
        _timed("trace_size_at_most_s14", lambda: (
            len(gids) <= bound, {"trace_size": len(gids), "bound": bound})),
        _timed("trace_pairwise_intersecting", intersecting)]
    return report


def check_point_trace_ekr(fset: FlagSet, point: Subspace,
                          subject: str = "flag set") -> VerificationReport:
    """Dual trace: member solids through the point whose plane misses it
    pairwise meet in at least a line and number at most s(1,4)."""
    if point.d != 0:
        raise PreconditionError("trace anchor must be a point")
    uni, ords, planes, solids = _member_arrays(fset)
    p = point_words(point)
    pick = subset(p, solids) & ~subset(p, planes)
    s_ords = np.unique(ords[pick] // uni.planes_per_solid)
    bits = uni.solid_words.take(s_ords, axis=1)

    report = VerificationReport(subject=subject, q=uni.q, cardinality=len(s_ords))
    bound = s(1, 4, q=uni.q)

    def meet_in_lines():
        pair = least_pair(bits, lambda a, b: meet_count(a, b) < 2)
        return pair is None, None if pair is None else {
            "solids_meeting_in_at_most_a_point": [int(s_ords[i]) for i in pair]}

    report.checks += [
        _timed("trace_size_at_most_s14", lambda: (
            len(s_ords) <= bound, {"trace_size": len(s_ords), "bound": bound})),
        _timed("trace_pairwise_meet_in_line", meet_in_lines)]
    return report


def check_disjoint_plane_meeting_solid(fset: FlagSet, f: Flag | int,
                                       xi: int | None = None,
                                       subject: str = "flag set") -> VerificationReport:
    """Members whose plane misses plane(f) while their solid meets it are
    at most s(2) s(1,4) xi.

    xi defaults to the measured maximum of member flags per solid; passing
    a smaller xi than measured is a precondition violation, as is f not
    being a member.
    """
    uni, ords, planes, solids = _member_arrays(fset)
    ordinal = uni.ordinal_of(f) if isinstance(f, Flag) else int(f)
    if ordinal not in fset:
        raise PreconditionError("reference flag %d is not a member" % ordinal)
    measured = max_flags_per_solid(fset)
    if xi is None:
        xi = measured
    elif measured > xi:
        raise PreconditionError(
            "a solid carries %d member flags, above the declared xi=%d"
            % (measured, xi))

    e = uni.plane_words[:, uni.plane_gid[ordinal]]
    bound = plane_disjoint_solid_meeting_bound(xi, uni.q)

    def bounded():
        count = int(np.count_nonzero(disjoint(planes, e)
                                     & ~disjoint(solids, e)))
        return count <= bound, {"count": count, "bound": bound, "xi": xi,
                                "flag": ordinal}

    report = VerificationReport(subject=subject, q=uni.q,
                                cardinality=fset.cardinality)
    report.checks.append(_timed("disjoint_plane_meeting_solid_bound", bounded))
    return report


# ---------------------------------------------------------------------------
# Colorings


def check_coloring(classes: Sequence[FlagSet],
                   subject: str = "coloring") -> VerificationReport:
    """Every class is independent and the classes cover the universe."""
    if not classes:
        raise PreconditionError("no classes given")
    uni = classes[0].universe
    for c in classes:
        if c.universe is not uni:
            raise PreconditionError("classes over different universes")
    report = VerificationReport(subject=subject, q=uni.q,
                                cardinality=len(classes))

    def independent():
        for i, c in enumerate(classes):
            rep = check_independent(c)
            if not rep.passed:
                return False, {"class": i, "witness": rep.checks[0].witness}
        return True, None

    def cover():
        covered = np.zeros(uni.flag_count, dtype=bool)
        for c in classes:
            covered |= c.mask
        missing = np.flatnonzero(~covered)
        return missing.size == 0, None if missing.size == 0 else {
            "uncovered_flag": int(missing[0])}

    report.checks += [_timed("classes_independent", independent),
                      _timed("classes_cover_universe", cover)]
    return report


def chromatic_lower_report(q: int, universe: FlagUniverse | None = None) -> dict:
    """Compare ceil(|universe| / independence number) with the closed form
    q^4 - q^2 + 2q + 1; the ratio bounds chi only if alpha is that number."""
    n = universe_size_formula(q)
    cross_checked = False
    if universe is not None:
        if universe.q != q:
            raise ValueError("universe is for q=%d" % universe.q)
        if universe.flag_count != n:
            raise AssertionError("universe size disagrees with the formula")
        cross_checked = True
    alpha = independence_number_formula(q)
    ratio = -(-n // alpha)
    poly = chromatic_lower_poly(q)
    return {
        "q": q,
        "universe_size": n,
        "independence_number": alpha,
        "ratio_lower_bound": ratio,
        "ratio_lower_bound_condition": "only if alpha equals independence_number",
        "polynomial_lower_bound": poly,
        "agree": ratio == poly,
        "universe_cross_checked": cross_checked,
    }
