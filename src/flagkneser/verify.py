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
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .counting import (chromatic_lower_poly, independence_number_formula,
                       plane_disjoint_solid_meeting_bound, s,
                       universe_size_formula)
from .flags import Flag, FlagSet, FlagUniverse, adjacent_bits
from .linalg import disjoint, popcount, subset, superset
from .projective import (Subspace, meet, point_bitsets, point_words, span,
                         subspace_to_text)


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


def _timed(check_fn):
    t0 = time.perf_counter()
    out = check_fn()
    out.ms = (time.perf_counter() - t0) * 1000.0
    return out


def _member_arrays(fset: FlagSet):
    """The universe, the member ordinals, and the members' word-major plane
    and solid bitsets."""
    uni = fset.universe
    uni._need_masks()
    ords = fset.ordinals()
    return (uni, ords, uni.plane_bits.take(ords, axis=1),
            uni.solid_bits.take(ords, axis=1))


def _least_pair(bits: np.ndarray, bad) -> tuple[int, int] | None:
    """Least column pair (i, j), i < j, of a word-major array that the
    kernel `bad` flags; bad gets column i as (W, 1) and the columns after
    it."""
    for i in range(bits.shape[1] - 1):
        hit = np.flatnonzero(bad(bits[:, i:i + 1], bits[:, i + 1:]))
        if hit.size:
            return i, i + 1 + int(hit[0])
    return None


def check_independent(fset: FlagSet, subject: str = "flag set") -> VerificationReport:
    """No two members are adjacent.  Fail witness: least ordinal pair."""
    uni, ords, planes, solids = _member_arrays(fset)

    def run() -> CheckResult:
        for i in range(len(ords) - 1):
            bad = adjacent_bits(planes[:, i], solids[:, i],
                                planes[:, i + 1:], solids[:, i + 1:])
            j = int(np.argmax(bad))
            if bad[j]:
                pair = [int(ords[i]), int(ords[i + 1 + j])]
                return CheckResult("independent", False,
                                   {"adjacent_pair": pair})
            # np.argmax returns 0 on all-false; bad[0] re-checks that case
        return CheckResult("independent", True)

    report = VerificationReport(subject=subject, q=uni.q,
                                cardinality=fset.cardinality)
    report.checks.append(_timed(run))
    return report


def check_maximal(fset: FlagSet, subject: str = "flag set") -> VerificationReport:
    """No flag outside the set is non-adjacent to every member.

    Fail witness: the least ordinal that could be added.  The scan keeps a
    shrinking array of still-uncoverable candidates, so it is fast even
    though it touches every member once.
    """
    uni, ords, member_planes, member_solids = _member_arrays(fset)

    def run() -> CheckResult:
        cand = np.arange(uni.flag_count)
        planes, solids = uni.plane_bits, uni.solid_bits
        for i in range(len(ords)):
            adj = adjacent_bits(member_planes[:, i], member_solids[:, i],
                                planes, solids)
            if adj.any():
                keep = ~adj
                cand = cand[keep]
                planes = np.compress(keep, planes, axis=1)
                solids = np.compress(keep, solids, axis=1)
        extend = cand[~np.isin(cand, ords)]
        if extend.size:
            return CheckResult("maximal", False,
                               {"extending_flag": int(extend.min())})
        return CheckResult("maximal", True)

    report = VerificationReport(subject=subject, q=uni.q,
                                cardinality=fset.cardinality)
    report.checks.append(_timed(run))
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
    hull: Subspace          # span of the member solids on this plane
    members: int
    is_quotient_subspace: bool
    saturated: bool         # every solid on the plane occurs


@dataclass
class SolidEntry:
    solid: Subspace
    base: Subspace          # meet of the member planes in this solid
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

    def saturated_planes(self) -> list[Subspace]:
        return [e.plane for e in self.plane_entries if e.saturated]

    def saturated_solids(self) -> list[Subspace]:
        return [e.solid for e in self.solid_entries if e.saturated]


def saturation_profile(fset: FlagSet) -> SaturationProfile:
    """Per-plane and per-solid structure of a flag set.

    For each plane E of the set, the member solids on E span a subspace
    hull(E); the solids are exactly the solids between E and the hull iff
    their number matches the point count of the quotient.  Dually, the
    member planes inside a solid S meet in base(S) and form the pencil of
    planes of S through base(S) iff the count matches.
    """
    uni = fset.universe
    uni._need_masks()
    ords = fset.ordinals()
    q = uni.q
    pps = uni.planes_per_solid

    solid_entries: list[SolidEntry] = []
    plane_groups: dict[int, list[int]] = {}
    for s_ord, group in _group_by(ords // pps, ords):
        solid = Subspace(uni.n, q, uni.solid_codec.unrank(int(s_ord)))
        planes = [uni.flag(int(o)).plane for o in group]
        base = planes[0]
        for e in planes[1:]:
            base = meet(base, e)
        # planes of the solid through `base`: (q^(3-u) - 1)/(q - 1)
        u = base.d
        expect = (q ** (3 - u) - 1) // (q - 1)
        solid_entries.append(SolidEntry(
            solid=solid, base=base, members=len(planes),
            is_pencil=len(planes) == expect,
            saturated=len(planes) == pps))
        for o in group:
            plane_groups.setdefault(int(uni.plane_gid[o]), []).append(int(o))

    plane_entries: list[PlaneEntry] = []
    solids_on_plane = s(2, 3, 6, q=q)
    for gid in sorted(plane_groups):
        group = plane_groups[gid]
        plane = uni.flag(group[0]).plane
        hull = plane
        for o in group:
            hull = span(hull, uni.flag(o).solid)
        t = hull.d - 2  # quotient of hull by the plane, as a vector space rank
        expect = (q ** t - 1) // (q - 1) if t >= 0 else 0
        plane_entries.append(PlaneEntry(
            plane=plane, hull=hull, members=len(group),
            is_quotient_subspace=len(group) == expect,
            saturated=len(group) == solids_on_plane))
    return SaturationProfile(q=q, plane_entries=plane_entries,
                             solid_entries=solid_entries)


def _group_by(keys: np.ndarray, values: np.ndarray):
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    if keys.size == 0:
        return
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    for a, b in zip(starts, np.r_[starts[1:], keys.size]):
        yield keys[a], values[a:b]


def check_saturation(fset: FlagSet, subject: str = "flag set") -> VerificationReport:
    """Structure checks on the saturation profile: per-solid plane sets are
    pencils, per-plane solid sets are quotient subspaces, and saturated
    solids pairwise share at least a line."""
    report = VerificationReport(subject=subject, q=fset.universe.q,
                                cardinality=fset.cardinality)

    t0 = time.perf_counter()
    profile = saturation_profile(fset)
    bad_solid = next((e for e in profile.solid_entries if not e.is_pencil), None)
    report.checks.append(CheckResult(
        "solid_plane_sets_are_pencils", bad_solid is None,
        None if bad_solid is None else {"solid": subspace_to_text(bad_solid.solid),
                                        "members": bad_solid.members},
        (time.perf_counter() - t0) * 1000))

    t0 = time.perf_counter()
    bad_plane = next((e for e in profile.plane_entries if not e.is_quotient_subspace), None)
    report.checks.append(CheckResult(
        "plane_solid_sets_are_quotient_subspaces", bad_plane is None,
        None if bad_plane is None else {"plane": subspace_to_text(bad_plane.plane),
                                        "members": bad_plane.members},
        (time.perf_counter() - t0) * 1000))

    t0 = time.perf_counter()
    sats = profile.saturated_solids()
    pair = _least_pair(point_bitsets(sats, fset.universe.n, fset.universe.q),
                       lambda a, b: popcount(a & b) < 2)
    witness = None if pair is None else {
        "solids": [subspace_to_text(sats[i]) for i in pair]}
    report.checks.append(CheckResult(
        "saturated_solids_pairwise_meet_in_line", witness is None, witness,
        (time.perf_counter() - t0) * 1000))
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
    report = VerificationReport(subject=subject, q=uni.q,
                                cardinality=len(gids),
                                expected=None)

    t0 = time.perf_counter()
    bound = s(1, 4, q=uni.q)
    report.checks.append(CheckResult(
        "trace_size_at_most_s14", len(gids) <= bound,
        {"trace_size": len(gids), "bound": bound},
        (time.perf_counter() - t0) * 1000))

    t0 = time.perf_counter()
    pair = _least_pair(bits, disjoint)
    witness = None if pair is None else {
        "disjoint_planes": [gids[i] for i in pair]}
    report.checks.append(CheckResult(
        "trace_pairwise_intersecting", witness is None, witness,
        (time.perf_counter() - t0) * 1000))
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
    s_ords = sorted(set(int(x) for x in (ords[pick] // uni.planes_per_solid)))
    bits = uni.solid_bits.take(np.asarray(s_ords, dtype=np.int64)
                               * uni.planes_per_solid, axis=1)

    report = VerificationReport(subject=subject, q=uni.q, cardinality=len(s_ords))
    bound = s(1, 4, q=uni.q)
    report.checks.append(CheckResult(
        "trace_size_at_most_s14", len(s_ords) <= bound,
        {"trace_size": len(s_ords), "bound": bound}))
    pair = _least_pair(bits, lambda a, b: popcount(a & b) < 2)
    witness = None if pair is None else {
        "solids_meeting_in_at_most_a_point": [s_ords[i] for i in pair]}
    report.checks.append(CheckResult(
        "trace_pairwise_meet_in_line", witness is None, witness))
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
    plane_misses = disjoint(planes, e)
    solid_meets = ~disjoint(solids, e)
    count = int(np.count_nonzero(plane_misses & solid_meets))
    bound = plane_disjoint_solid_meeting_bound(xi, uni.q)

    report = VerificationReport(subject=subject, q=uni.q,
                                cardinality=fset.cardinality)
    report.checks.append(CheckResult(
        "disjoint_plane_meeting_solid_bound", count <= bound,
        {"count": count, "bound": bound, "xi": xi, "flag": ordinal}))
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

    t0 = time.perf_counter()
    witness = None
    for i, c in enumerate(classes):
        rep = check_independent(c)
        if not rep.passed:
            witness = {"class": i, "witness": rep.checks[0].witness}
            break
    report.checks.append(CheckResult(
        "classes_independent", witness is None, witness,
        (time.perf_counter() - t0) * 1000))

    t0 = time.perf_counter()
    covered = np.zeros(uni.flag_count, dtype=bool)
    for c in classes:
        covered |= c.mask
    missing = np.flatnonzero(~covered)
    report.checks.append(CheckResult(
        "classes_cover_universe", missing.size == 0,
        None if missing.size == 0 else {"uncovered_flag": int(missing[0])},
        (time.perf_counter() - t0) * 1000))
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
