import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagkneser import verify
from flagkneser.constructions import (LambdaSpec, build_coloring_scheme,
                                      build_lambda, realize_coloring,
                                      trivial_coloring_scheme)
from flagkneser.flags import FlagSet, adjacency_scan, adjacent_bits
from flagkneser.linalg import disjoint, least_pair
from flagkneser.projective import Subspace, enumerate_subspaces
from flagkneser.verify import (PreconditionError, _solids_per_block,
                               check_coloring,
                               check_disjoint_plane_meeting_solid,
                               check_hyperplane_trace_ekr, check_independent,
                               check_maximal, check_point_trace_ekr,
                               check_saturation, chromatic_lower_report,
                               max_flags_per_solid, saturation_profile)


@pytest.fixture(scope="module")
def lam_pl(uni2, frame2):
    return build_lambda(LambdaSpec(kind="P_l", point=frame2["point"],
                                   line=frame2["line"]), uni2)


@pytest.fixture(scope="module")
def lam_he(uni2, frame2):
    fam = LambdaSpec(kind="H_P", hyperplane=frame2["hyperplane"],
                     point=frame2["point"]).members(2)
    return build_lambda(LambdaSpec(kind="H_E", hyperplane=frame2["hyperplane"],
                                   plane_family=fam), uni2)


def test_lambda_family_is_independent_and_maximal(lam_pl):
    assert check_independent(lam_pl).passed
    assert check_maximal(lam_pl).passed


def test_doctored_set_fails_with_least_witness(uni2):
    adj = uni2.adjacent_mask(0)
    j = int(np.flatnonzero(adj)[0])
    j2 = int(np.flatnonzero(adj)[1])
    bad = FlagSet.from_ordinals(uni2, [0, j, j2])
    rep = check_independent(bad)
    assert not rep.passed
    assert rep.checks[0].witness == {"adjacent_pair": [0, j]}


@pytest.fixture(scope="module")
def mi_classes(uni2, frame2):
    scheme = build_coloring_scheme(frame2["point"], frame2["line"],
                                   frame2["plane"], frame2["four_space"],
                                   frame2["second_point"])
    return realize_coloring(scheme.classes, uni2)


def _least_adjacent_pair(flag_bits, ords):
    """The least adjacent member pair by a plain scan over all pairs, on
    the per-flag reference bitsets."""
    planes, solids = flag_bits
    w = len(planes)
    bits = np.concatenate([planes[:, ords], solids[:, ords]])
    pair = least_pair(bits, lambda a, b: adjacent_bits(a[:w], a[w:],
                                                       b[:w], b[w:]))
    return None if pair is None else [int(ords[k]) for k in pair]


def _assert_matches_scan(uni, flag_bits, ords):
    """check_independent gives the plain scan's verdict and least pair."""
    ords = np.array(sorted(ords), dtype=np.int64)
    rep = check_independent(FlagSet.from_ordinals(uni, ords))
    want = _least_adjacent_pair(flag_bits, ords)
    assert rep.passed == (want is None)
    assert rep.checks[0].witness == (None if want is None
                                     else {"adjacent_pair": want})
    return rep


_ORDINAL = st.integers(0, 177164)


@pytest.mark.parametrize("shape", ["small", "random", "one_plane"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_factored_independence_matches_least_pair_scan(uni2, flag_bits, shape,
                                                       data):
    if shape == "small":  # sizes 0, 1 and 2
        ords = data.draw(st.sets(_ORDINAL, max_size=2))
    elif shape == "random":
        ords = data.draw(st.sets(_ORDINAL, min_size=3, max_size=12))
    else:  # several solids on one plane, and a few more flags
        gid = uni2.plane_gid[data.draw(_ORDINAL)]
        on_plane = np.flatnonzero(uni2.plane_gid == gid).tolist()
        ords = (data.draw(st.sets(st.sampled_from(on_plane), min_size=2))
                | data.draw(st.sets(_ORDINAL, max_size=4)))
    _assert_matches_scan(uni2, flag_bits, ords)


@pytest.mark.parametrize("add_adjacent", [False, True])
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_factored_independence_on_mi_classes(uni2, flag_bits, mi_classes,
                                             add_adjacent, data):
    cls = mi_classes[data.draw(st.integers(0, len(mi_classes) - 1))]
    ords = set(cls.ordinals().tolist())
    if add_adjacent:
        member = data.draw(st.sampled_from(sorted(ords)))
        ords.add(data.draw(st.sampled_from(
            np.flatnonzero(uni2.adjacent_mask(member))[:50].tolist())))
    assert _assert_matches_scan(uni2, flag_bits, ords).passed != add_adjacent


def test_full_universe_fails_at_once_with_least_witness(uni2):
    full = FlagSet(uni2, np.ones(uni2.flag_count, dtype=bool))
    rep = check_independent(full)
    first = int(np.flatnonzero(uni2.adjacent_mask(0))[0])
    assert rep.checks[0].witness == {"adjacent_pair": [0, first]}
    # solid 0 is the least solid of a conflicting pair, so the blocks stop
    # at the first one, where a scan of every pair of the 177165 members
    # would not finish in the bound
    assert rep.checks[0].ms < 3000


def test_conflict_across_a_block_boundary(uni2, flag_bits, mi_classes):
    """An mi class and a flag adjacent to its last member, chosen so that
    the flag's solid lies in another block of check_independent than the
    solid of every member it is adjacent to: in each conflicting pair the
    later solid is in a later block, so only the test of a block against
    the rows of the earlier blocks can find the conflict."""
    cls = mi_classes[0]
    pps = uni2.planes_per_solid
    last = int(cls.ordinals()[-1])
    for x in np.flatnonzero(uni2.adjacent_mask(last)).tolist():
        ords = np.union1d(cls.ordinals(), [x])
        solids = np.unique(ords // pps)
        step = _solids_per_block(len(solids), pps)
        block = np.searchsorted(solids, ords // pps) // step
        hits = np.flatnonzero(uni2.adjacent_mask(x)[ords])
        if not np.any(block[hits] == block[np.searchsorted(ords, x)]):
            break
    else:
        pytest.fail("no flag adjacent to the last member across blocks")
    assert step < len(solids)
    rep = _assert_matches_scan(uni2, flag_bits, ords)
    assert not rep.passed and x in rep.checks[0].witness["adjacent_pair"]


def test_least_conflict_found_in_a_later_block(uni2, flag_bits, mi_classes):
    """An mi class and two flags: x conflicts with members inside the
    first block of check_independent, and y, whose solid lies in a later
    block, with a member on the second member solid, less than the solids
    of x's pairs.  The least pair is y's, so a test that stopped at the
    first block with a conflict would name a pair of x."""
    cls = mi_classes[0]
    pps = uni2.planes_per_solid
    ords = cls.ordinals()
    solids = np.unique(ords // pps)
    step = _solids_per_block(len(solids), pps)

    def conflicts(f):  # the solids of the members adjacent to f
        return ords[uni2.adjacent_mask(f)[ords]] // pps

    # x and y lie on no member solid of the first block, so each moves
    # the block boundaries by at most one solid
    x = next(f for f in range((solids[1] + 1) * pps, solids[step - 2] * pps)
             if f // pps not in solids and conflicts(f).size
             and conflicts(f).min() > solids[1]
             and conflicts(f).min() < solids[step - 2])
    y = next(f for f in range((solids[step] + 1) * pps, uni2.flag_count)
             if f not in cls and conflicts(f).size
             and conflicts(f).min() == solids[1])
    ords = np.union1d(ords, [x, y])
    solids = np.unique(ords // pps)
    step = _solids_per_block(len(solids), pps)
    block = np.searchsorted(solids, ords // pps) // step
    assert block[np.searchsorted(ords, x)] == 0
    assert block[np.searchsorted(ords, y)] > 0
    rep = _assert_matches_scan(uni2, flag_bits, ords)
    first, second = rep.checks[0].witness["adjacent_pair"]
    assert first // pps == solids[1] and second == y


def test_independence_memory_is_bounded(lam_pl):
    # the member solids' point incidence, one meets row per distinct member
    # plane and one block's gathered member rows at a time: no meets row per
    # member and no table of every member solid against every member plane
    check_independent(lam_pl)
    tracemalloc.start()
    try:
        assert check_independent(lam_pl).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2 ** 20


def test_maximality_memory_is_bounded(lam_pl):
    # a bool mask of the candidates and one adjacent_mask at a time: no
    # gathered plane and solid columns of the candidates (8.99 MB before)
    check_maximal(lam_pl)
    tracemalloc.start()
    try:
        assert check_maximal(lam_pl).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2 ** 20


def test_dependent_random_set_matches_least_pair_scan(uni2, flag_bits):
    rng = np.random.default_rng(20000)
    ords = rng.choice(uni2.flag_count, 20000, replace=False)
    assert not _assert_matches_scan(uni2, flag_bits, ords).passed


def test_same_solid_flags_are_independent_but_not_maximal(uni2):
    small = FlagSet.from_ordinals(uni2, [0, 1, 2])
    assert check_independent(small).passed
    rep = check_maximal(small)
    assert not rep.passed
    # least extension: the next flag of the same solid
    assert rep.checks[0].witness == {"extending_flag": 3}


@pytest.fixture(scope="module")
def pl_cover(uni2, lam_pl):
    """How many members of Λ(P,l) each flag is adjacent to: a plain sum of
    adjacent_mask over the 11005 members (about 10 s on 2 cores)."""
    cover = np.zeros(uni2.flag_count, dtype=np.int32)
    for o in lam_pl.ordinals():
        cover += uni2.adjacent_mask(int(o))
    return cover


def _least_uncovered(uni, ords, cover=None, base=()):
    """The least non-member adjacent to no member, or None: the non-members
    minus the OR of adjacent_mask over the members.  `cover` may hold the
    sum of adjacent_mask over the member set `base`; the flags that `ords`
    adds to or drops from `base` are counted one by one."""
    ords, base = set(map(int, ords)), set(map(int, base))
    outside = np.ones(uni.flag_count, dtype=bool)
    outside[list(ords)] = False
    if not outside.any():
        return None
    cover = (np.zeros(uni.flag_count, dtype=np.int32) if cover is None
             else cover.copy())
    for o in ords - base:
        cover += uni.adjacent_mask(o)
    for o in base - ords:
        cover -= uni.adjacent_mask(o)
    free = np.flatnonzero(outside & (cover == 0))
    return int(free[0]) if free.size else None


def _assert_maximal_matches_cover(uni, ords, cover=None, base=()):
    """check_maximal gives the plain reference's verdict and witness."""
    rep = check_maximal(FlagSet.from_ordinals(uni, sorted(ords)))
    want = _least_uncovered(uni, ords, cover, base)
    assert rep.passed == (want is None)
    assert rep.checks[0].witness == (None if want is None
                                     else {"extending_flag": want})


def test_proper_subset_of_maximal_set_is_not_maximal(uni2, lam_pl, pl_cover):
    ords = lam_pl.ordinals()
    rep = check_maximal(FlagSet.from_ordinals(uni2, ords[:-10]))
    assert not rep.passed
    want = _least_uncovered(uni2, ords[:-10], pl_cover, base=ords)
    assert rep.checks[0].witness == {"extending_flag": want}


def test_stalled_step_drops_a_covered_candidate(uni2, lam_pl, pl_cover,
                                                monkeypatch):
    """Λ(P,l)'s scan stalls while candidates are left: a step drops none,
    adjacency_scan finds the least live candidate covered by some member,
    and that member's step drops it; the verdicts and the least witness
    still hold."""
    covers = []

    def scan(fset, c):
        count, member = adjacency_scan(fset, c)
        covers.append(count)
        return count, member

    monkeypatch.setattr(verify, "adjacency_scan", scan)
    ords = lam_pl.ordinals()
    assert check_maximal(lam_pl).passed
    assert covers and all(covers)
    covers.clear()
    rep = check_maximal(FlagSet.from_ordinals(uni2, ords[:-10]))
    want = _least_uncovered(uni2, ords[:-10], pl_cover, base=ords)
    assert rep.checks[0].witness == {"extending_flag": want} == {
        "extending_flag": 167063}
    # settled by a scan that finds no cover, after stalls that found one
    assert len(covers) > 1 and all(covers[:-1]) and covers[-1] == 0


def test_greedy_maximal_set_is_maximal(uni2):
    """A maximal independent set that is no Λ family: flags taken in a
    seeded random order whenever no member taken so far is adjacent."""
    blocked = np.zeros(uni2.flag_count, dtype=bool)
    members = []
    for o in np.random.default_rng(30).permutation(uni2.flag_count).tolist():
        if not blocked[o]:
            members.append(o)
            blocked |= uni2.adjacent_mask(o)
            blocked[o] = True
    members.sort()
    fam = FlagSet.from_ordinals(uni2, members)
    assert check_independent(fam).passed
    assert check_maximal(fam).passed
    assert _least_uncovered(uni2, members) is None
    # without one member, that member at least extends it
    smaller = members[:len(members) // 2] + members[len(members) // 2 + 1:]
    assert not check_maximal(FlagSet.from_ordinals(uni2, smaller)).passed
    _assert_maximal_matches_cover(uni2, smaller)


@pytest.mark.parametrize("shape", ["small", "minus", "plus_adjacent"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_maximal_matches_plain_cover(uni2, lam_pl, pl_cover, shape, data):
    ords = lam_pl.ordinals().tolist()
    if shape == "small":  # 0 to 30 seeded flags anywhere
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        k = data.draw(st.integers(0, 30))
        _assert_maximal_matches_cover(
            uni2, rng.choice(uni2.flag_count, k, replace=False).tolist())
    elif shape == "minus":  # Λ(P,l) without k of its members
        drop = data.draw(st.sets(st.sampled_from(ords), min_size=1,
                                 max_size=30))
        _assert_maximal_matches_cover(uni2, set(ords) - drop, pl_cover, ords)
    else:  # Λ(P,l) and one flag adjacent to a member
        member = data.draw(st.sampled_from(ords))
        extra = data.draw(st.sampled_from(
            np.flatnonzero(uni2.adjacent_mask(member)).tolist()))
        _assert_maximal_matches_cover(uni2, set(ords) | {extra}, pl_cover,
                                      ords)


@pytest.mark.parametrize("kind", ["P_empty", "H_empty"])
def test_non_maximal_kind_settles_with_least_witness(uni2, frame2, kind):
    """P_empty and H_empty leave 11160 flags uncovered; the scan settles
    its least live candidate when a step drops none, so it stops early.
    The witness is checked directly: every non-member below it is adjacent
    to a member, and it is adjacent to none."""
    anchor = ({"point": frame2["point"]} if kind == "P_empty"
              else {"hyperplane": frame2["hyperplane"]})
    fam = build_lambda(LambdaSpec(kind=kind, **anchor), uni2)
    rep = check_maximal(fam)
    assert not rep.passed
    w = rep.checks[0].witness["extending_flag"]
    covered = [bool(np.any(uni2.adjacent_mask(o) & fam.mask))
               for o in range(w + 1) if o not in fam]
    assert covered == [True] * (len(covered) - 1) + [False]
    # visiting all 9765 members took about 0.5 s
    assert rep.checks[0].ms < 300


def test_maximal_on_edge_sets(uni2):
    empty = check_maximal(FlagSet.from_ordinals(uni2, []))
    assert empty.checks[0].witness == {"extending_flag": 0}
    assert _least_uncovered(uni2, []) == 0
    # one flag adjacent to flag 0: its witness is not 0, so the scan must
    # visit that one member
    _assert_maximal_matches_cover(
        uni2, [int(np.flatnonzero(uni2.adjacent_mask(0))[0])])
    full = FlagSet(uni2, np.ones(uni2.flag_count, dtype=bool))
    assert check_maximal(full).passed
    assert _least_uncovered(uni2, range(uni2.flag_count)) is None


def test_max_flags_per_solid(uni2, lam_pl):
    assert max_flags_per_solid(lam_pl) == 15
    assert max_flags_per_solid(FlagSet.from_ordinals(uni2, [0, 1, 99])) == 2
    assert max_flags_per_solid(FlagSet.from_ordinals(uni2, [])) == 0


def test_saturation_profile_of_hyperplane_family(uni2, frame2, lam_he):
    """The solids of the family living inside H are exactly all solids of
    H, all saturated; plane sets per solid form pencils."""
    profile = saturation_profile(lam_he)
    assert profile.all_pencils
    assert profile.all_quotient_subspaces
    saturated = {t.rows for t in profile.saturated_solids()}
    solids_of_h = {t.rows for t in
                   enumerate_subspaces(6, 2, 3, within=frame2["hyperplane"])}
    assert saturated == solids_of_h
    assert len(saturated) == 651


def test_saturation_checks_pass(lam_he, lam_pl):
    assert check_saturation(lam_he).passed
    assert check_saturation(lam_pl).passed


def test_saturation_members_counts(uni2, lam_he):
    profile = saturation_profile(lam_he)
    # solids inside H carry all 15 planes; solids meeting H in a plane of the
    # pencil carry just that one
    members = {e.members for e in profile.solid_entries}
    assert members == {1, 15}
    by_plane = {e.members for e in profile.plane_entries}
    # plane multiplicities are point counts of quotient subspaces
    assert by_plane <= {1, 3, 7, 15, 31, 63}


def test_hyperplane_trace(uni2, frame2, lam_he, lam_pl):
    rep = check_hyperplane_trace_ekr(lam_he, frame2["hyperplane"])
    assert rep.passed
    assert rep.cardinality == 155  # the trace attains the bound
    rep = check_hyperplane_trace_ekr(lam_pl, frame2["hyperplane"])
    assert rep.passed
    with pytest.raises(PreconditionError):
        check_hyperplane_trace_ekr(lam_he, frame2["plane"])


def test_point_trace(uni2, frame2, lam_pl):
    rep = check_point_trace_ekr(lam_pl, frame2["point"])
    assert rep.passed
    assert rep.cardinality <= 155
    with pytest.raises(PreconditionError):
        check_point_trace_ekr(lam_pl, frame2["line"])


def test_xi_bound(uni2, lam_pl):
    first = int(lam_pl.ordinals()[0])
    rep = check_disjoint_plane_meeting_solid(lam_pl, first)
    assert rep.passed
    w = rep.checks[0].witness
    assert w["xi"] == 15 and w["count"] <= w["bound"]
    # the flag as FlagSet.ordinals() gives it, a numpy integer
    assert (check_disjoint_plane_meeting_solid(lam_pl, lam_pl.ordinals()[0])
            .to_json() == rep.to_json())
    nonmember = int(np.flatnonzero(~lam_pl.mask)[0])
    with pytest.raises(PreconditionError, match="not a member"):
        check_disjoint_plane_meeting_solid(lam_pl, nonmember)
    with pytest.raises(PreconditionError, match="above the declared"):
        check_disjoint_plane_meeting_solid(lam_pl, first, xi=3)


def test_xi_bound_count_matches_the_per_flag_reference(lam_pl, flag_bits):
    """The members whose plane misses plane(f) and whose solid meets it,
    counted on the per-flag reference bitsets, for reference flags spread
    over the family."""
    planes, solids = flag_bits
    ords = lam_pl.ordinals()
    counts = set()
    for f in ords[::len(ords) // 6].tolist():
        e = planes[:, f]
        want = int(np.count_nonzero(disjoint(planes[:, ords], e)
                                    & ~disjoint(solids[:, ords], e)))
        rep = check_disjoint_plane_meeting_solid(lam_pl, f)
        assert rep.checks[0].witness["count"] == want, f
        counts.add(want)
    assert len(counts) > 1


def test_coloring_checker(uni2, frame2):
    scheme = build_coloring_scheme(frame2["point"], frame2["line"],
                                   frame2["plane"], frame2["four_space"],
                                   frame2["second_point"])
    classes = realize_coloring(scheme.classes, uni2)
    rep = check_coloring(classes)
    assert rep.passed
    assert rep.cardinality == 29
    # dropping classes must break the cover and name an uncovered flag
    rep = check_coloring(classes[:3])
    assert not rep.passed
    missing = rep.checks[1].witness["uncovered_flag"]
    assert not any(missing in c for c in classes[:3])
    with pytest.raises(PreconditionError):
        check_coloring([])


def test_coloring_checker_flags_dependent_class(uni2):
    bad = FlagSet.from_ordinals(
        uni2, [0, int(np.flatnonzero(uni2.adjacent_mask(0))[0])])
    rep = check_coloring([bad, FlagSet.from_ordinals(uni2, [1])])
    assert not rep.checks[0].passed


def test_trivial_coloring_covers(uni2, frame2):
    classes = realize_coloring(trivial_coloring_scheme(frame2["four_space"]),
                               uni2)
    rep = check_coloring(classes)
    assert rep.passed and rep.cardinality == 31


def test_chromatic_lower_report(uni2):
    rep = chromatic_lower_report(2, uni2)
    assert rep["ratio_lower_bound"] == 17
    assert rep["polynomial_lower_bound"] == 17
    assert rep["agree"] and rep["universe_cross_checked"]
    assert "only if alpha" in rep["ratio_lower_bound_condition"]
    rep3 = chromatic_lower_report(3)
    assert rep3["ratio_lower_bound"] == 79 == rep3["polynomial_lower_bound"]
    assert not rep3["universe_cross_checked"]
    with pytest.raises(ValueError):
        chromatic_lower_report(3, uni2)


def test_report_json_is_byte_stable(uni2):
    fset = FlagSet.from_ordinals(uni2, [0, 1])
    a = check_independent(fset).to_json()
    b = check_independent(fset).to_json()
    assert a == b
    assert '"ms": null' in a
    timed = check_independent(fset).to_json(include_timing=True)
    assert '"ms": null' not in timed
