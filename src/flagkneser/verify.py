"""Checkers for flag families: independence, maximality, saturation
structure, trace bounds and colorings.

Every checker returns a VerificationReport whose checks carry minimal
witnesses: the lexicographically least offending ordinal or ordinal pair.
Reports serialize to a stable JSON shape

    {subject, q, cardinality, expected, checks: [{name, pass, witness, ms}]}

and are byte-stable for fixed inputs once timings are stripped (the
default; pass include_timing=True to keep them).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .counting import (chromatic_lower_poly, independence_number_formula,
                       plane_disjoint_solid_meeting_bound, s,
                       universe_size_formula)
from .flags import Flag, FlagSet, FlagUniverse, adjacent_bits
from .linalg import disjoint, least_pair, popcount, subset, superset
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
    expected: int | None = None
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        ok = all(c.passed for c in self.checks)
        if self.expected is not None:
            ok = ok and self.cardinality == self.expected
        return ok

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "subject": self.subject,
            "q": self.q,
            "cardinality": self.cardinality,
            "expected": self.expected,
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
    """The universe, the member ordinals, and the members' word-major plane
    and solid bitsets."""
    uni = fset.universe
    uni._need_masks()
    ords = fset.ordinals()
    return (uni, ords, uni.plane_bits.take(ords, axis=1),
            uni.solid_bits.take(ords, axis=1))


def _independent_by_planes(gids: np.ndarray, planes: np.ndarray,
                           solids: np.ndarray) -> bool:
    """The C & C^T test of check_independent on member plane ids and
    word-major plane and solid bitsets."""
    order = np.argsort(gids, kind="stable")
    starts = np.flatnonzero(np.diff(gids[order], prepend=-1))
    m = len(starts)
    group_planes = planes.take(order[starts], axis=1)
    group_solids = solids.take(order, axis=1)
    packed = np.zeros((m, (m + 7) // 8), dtype=np.uint8)
    for a in range(m):
        row = np.logical_or.reduceat(disjoint(group_planes[:, a], group_solids),
                                     starts)
        # C[b, a] of the earlier rows b, read from their packed bits
        earlier = (packed[:a, a >> 3] & (0x80 >> (a & 7))) != 0
        if np.any(row[:a] & earlier):
            return False
        packed[a] = np.packbits(row)
    return True


def check_independent(fset: FlagSet, subject: str = "flag set") -> VerificationReport:
    """No two members are adjacent.  Fail witness: least ordinal pair.

    Members (E, S) and (E', S') are adjacent iff E misses S' and E' misses
    S, so the test runs over the distinct member planes E_1..E_m: C[a, b]
    says that E_a misses some member solid on E_b, and the set is
    independent iff C & C^T is empty.  Row a is one disjoint() of E_a
    against the member solids and one logical_or.reduceat over the plane
    groups; rows are kept bit-packed and filled in order until one
    conflicts with an earlier row, so a dependent set stops early.  Only a
    failing set pays for the least_pair scan that names its least pair.
    """
    uni, ords, planes, solids = _member_arrays(fset)
    w = len(planes)

    def run():
        if _independent_by_planes(uni.plane_gid[ords], planes, solids):
            return True, None
        # each column: a member's plane words over its solid words
        pair = least_pair(np.concatenate([planes, solids]),
                          lambda a, b: adjacent_bits(a[:w], a[w:], b[:w], b[w:]))
        return False, {"adjacent_pair": [int(ords[i]) for i in pair]}

    report = VerificationReport(subject=subject, q=uni.q,
                                cardinality=fset.cardinality)
    report.checks.append(_timed("independent", run))
    return report


# members per step of check_maximal times candidate columns: bounds the
# step's (members, columns) scratch arrays at 512 KB of uint64 words
_SCAN_BLOCK = 1 << 16


def check_maximal(fset: FlagSet, subject: str = "flag set") -> VerificationReport:
    """No flag outside the set is non-adjacent to every member.

    Fail witness: the least ordinal that could be added.  The candidates
    start as the non-members; each step drops those adjacent to a block of
    members, and the scan stops as soon as none is left, so a maximal
    family is settled in about twenty steps.  Members are visited with a
    stride coprime to their number, because consecutive members in ordinal
    order share a solid and cover nearly the same flags.  A block is one
    member while the candidates are many and grows as they thin out,
    keeping members times columns under _SCAN_BLOCK; the candidate columns
    are compacted once half of them are dead.  What is left at the end,
    the non-members adjacent to no member, does not depend on the visit
    order, and neither do the verdict and the least witness.
    """
    uni, ords, member_planes, member_solids = _member_arrays(fset)

    def run():
        m = len(ords)
        # a stride coprime to m visits every member once, far apart
        stride = max(1, round(m * 0.618))
        while math.gcd(stride, m) != 1:
            stride += 1
        order = np.arange(m) * stride % m
        cand = np.arange(uni.flag_count)
        planes, solids = uni.plane_bits, uni.solid_bits
        alive = ~fset.mask  # members never extend the set
        left, start = np.count_nonzero(alive), 0
        while start < len(order) and left:
            block = order[start:start + max(1, _SCAN_BLOCK // cand.size)]
            start += len(block)
            alive &= ~adjacent_bits(member_planes[:, block, None],
                                    member_solids[:, block, None],
                                    planes[:, None],
                                    solids[:, None]).any(axis=0)
            left = np.count_nonzero(alive)
            if 2 * left <= cand.size:  # compact once half the columns died
                cand = cand[alive]
                planes = np.compress(alive, planes, axis=1)
                solids = np.compress(alive, solids, axis=1)
                alive = np.ones(left, dtype=bool)
        if left:  # cand stays ascending
            return False, {"extending_flag": int(cand[alive][0])}
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
    plane: Subspace
    hull_dim: int           # dimension of the span of the member solids on it
    members: int
    is_quotient_subspace: bool
    saturated: bool         # every solid on the plane occurs


@dataclass
class SolidEntry:
    solid: Subspace
    ordinal: int            # solid ordinal in the universe's canonical order
    base_dim: int           # dimension of the meet of the member planes in it
    members: int
    is_pencil: bool
    saturated: bool         # every plane of the solid occurs


@dataclass
class SaturationProfile:
    q: int
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
    """Dimension d of each subspace in bits (from its point count), and
    whether its group has (q^(3-d) - 1)/(q - 1) members."""
    point_counts = [(q ** k - 1) // (q - 1) for k in range(8)]
    dims = np.searchsorted(point_counts, popcount(bits)) - 1
    return dims, sizes == (q ** (3 - dims) - 1) // (q - 1)


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
    base_dims, pencils = _group_size_test(bases, s_sizes, q)
    solid_entries = [
        SolidEntry(solid=Subspace(uni.n, q, uni.solid_codec.unrank(s_ord)),
                   ordinal=s_ord, base_dim=d, members=size, is_pencil=ok,
                   saturated=size == pps)
        for s_ord, d, size, ok in zip((ords[firsts] // pps).tolist(),
                                      base_dims.tolist(), s_sizes.tolist(),
                                      pencils.tolist())]

    firsts, p_sizes, hulls = _group_reduce(np.bitwise_or, solids,
                                           uni.plane_gid[ords])
    perp_dims, quotients = _group_size_test(perp_bitsets(hulls, uni.n, q),
                                             p_sizes, q)
    solids_on_plane = s(2, 3, 6, q=q)
    plane_entries = [
        PlaneEntry(plane=uni.flag(o).plane, hull_dim=uni.n - 1 - d,
                   members=size, is_quotient_subspace=ok,
                   saturated=size == solids_on_plane)
        for o, d, size, ok in zip(ords[firsts].tolist(), perp_dims.tolist(),
                                  p_sizes.tolist(), quotients.tolist())]
    return SaturationProfile(q=q, plane_entries=plane_entries,
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
        bits = uni.solid_bits.take(
            np.array([e.ordinal for e in sats], dtype=np.int64)
            * uni.planes_per_solid, axis=1)
        pair = least_pair(bits, lambda a, b: popcount(a & b) < 2)
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
    pick = subset(planes, h) & ~subset(solids, h)
    gids, first = np.unique(uni.plane_gid[ords[pick]], return_index=True)
    return [int(g) for g in gids], np.compress(pick, planes, axis=1).take(first, axis=1)


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
    pick = superset(solids, p) & ~superset(planes, p)
    s_ords = np.unique(ords[pick] // uni.planes_per_solid)
    bits = uni.solid_bits.take(s_ords * uni.planes_per_solid, axis=1)

    report = VerificationReport(subject=subject, q=uni.q, cardinality=len(s_ords))
    bound = s(1, 4, q=uni.q)

    def meet_in_lines():
        pair = least_pair(bits, lambda a, b: popcount(a & b) < 2)
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
    ordinal = f if isinstance(f, int) else uni.ordinal_of(f)
    if ordinal not in fset:
        raise PreconditionError("reference flag %d is not a member" % ordinal)
    measured = max_flags_per_solid(fset)
    if xi is None:
        xi = measured
    elif measured > xi:
        raise PreconditionError(
            "a solid carries %d member flags, above the declared xi=%d"
            % (measured, xi))

    e = uni.plane_bits[:, ordinal]
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
    """Compare ceil(|universe| / independence number) with the closed-form
    lower estimate q^4 - q^2 + 2q + 1."""
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
        "polynomial_lower_bound": poly,
        "agree": ratio == poly,
        "universe_cross_checked": cross_checked,
    }
