import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagkneser.constructions import (LambdaSpec, build_coloring_scheme,
                                      build_ekr_plane_family, build_lambda,
                                      realize_coloring,
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
    fam = build_ekr_plane_family("point_pencil", within=frame2["hyperplane"],
                                 point=frame2["point"])
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


def test_proper_subset_of_maximal_set_is_not_maximal(uni2, lam_pl):
    ords = lam_pl.ordinals()
    sub = FlagSet.from_ordinals(uni2, ords[:-10])
    rep = check_maximal(sub)
    assert not rep.passed
    assert rep.checks[0].witness["extending_flag"] in set(map(int, ords[-10:]))


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
