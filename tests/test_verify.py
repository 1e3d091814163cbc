import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagkneser.constructions import (LambdaSpec, build_coloring_scheme,
                                      build_lambda, realize_coloring,
                                      trivial_coloring_scheme)
from flagkneser.flags import FlagSet, adjacent_bits
from flagkneser.linalg import least_pair
from flagkneser.projective import Subspace, enumerate_subspaces
from flagkneser.verify import (PreconditionError, check_coloring,
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


def _least_adjacent_pair(uni, ords):
    """The least adjacent member pair by a plain scan over all pairs."""
    w = len(uni.plane_bits)
    bits = np.concatenate([uni.plane_bits[:, ords], uni.solid_bits[:, ords]])
    pair = least_pair(bits, lambda a, b: adjacent_bits(a[:w], a[w:],
                                                       b[:w], b[w:]))
    return None if pair is None else [int(ords[k]) for k in pair]


def _assert_matches_scan(uni, ords):
    """check_independent gives the plain scan's verdict and least pair."""
    ords = np.array(sorted(ords), dtype=np.int64)
    rep = check_independent(FlagSet.from_ordinals(uni, ords))
    want = _least_adjacent_pair(uni, ords)
    assert rep.passed == (want is None)
    assert rep.checks[0].witness == (None if want is None
                                     else {"adjacent_pair": want})
    return rep


_ORDINAL = st.integers(0, 177164)


@pytest.mark.parametrize("shape", ["small", "random", "one_plane"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_factored_independence_matches_least_pair_scan(uni2, shape, data):
    if shape == "small":  # sizes 0, 1 and 2
        ords = data.draw(st.sets(_ORDINAL, max_size=2))
    elif shape == "random":
        ords = data.draw(st.sets(_ORDINAL, min_size=3, max_size=12))
    else:  # several solids on one plane, and a few more flags
        gid = uni2.plane_gid[data.draw(_ORDINAL)]
        on_plane = np.flatnonzero(uni2.plane_gid == gid).tolist()
        ords = (data.draw(st.sets(st.sampled_from(on_plane), min_size=2))
                | data.draw(st.sets(_ORDINAL, max_size=4)))
    _assert_matches_scan(uni2, ords)


@pytest.mark.parametrize("add_adjacent", [False, True])
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_factored_independence_on_mi_classes(uni2, mi_classes, add_adjacent,
                                             data):
    cls = mi_classes[data.draw(st.integers(0, len(mi_classes) - 1))]
    ords = set(cls.ordinals().tolist())
    if add_adjacent:
        member = data.draw(st.sampled_from(sorted(ords)))
        ords.add(data.draw(st.sampled_from(
            np.flatnonzero(uni2.adjacent_mask(member))[:50].tolist())))
    assert _assert_matches_scan(uni2, ords).passed != add_adjacent


def test_full_universe_fails_at_once_with_least_witness(uni2):
    full = FlagSet(uni2, np.ones(uni2.flag_count, dtype=bool))
    rep = check_independent(full)
    first = int(np.flatnonzero(uni2.adjacent_mask(0))[0])
    assert rep.checks[0].witness == {"adjacent_pair": [0, first]}
    # the plane-factored test stops at its first conflicting row; filling
    # all 11811 rows over 177165 members takes about 9 s on 2 cores
    assert rep.checks[0].ms < 3000


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
    nonmember = int(np.flatnonzero(~lam_pl.mask)[0])
    with pytest.raises(PreconditionError, match="not a member"):
        check_disjoint_plane_meeting_solid(lam_pl, nonmember)
    with pytest.raises(PreconditionError, match="above the declared"):
        check_disjoint_plane_meeting_solid(lam_pl, first, xi=3)


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
