import itertools

import numpy as np
import pytest

from flagkneser.constructions import (GIVEN_FAMILIES, LAMBDA_KINDS,
                                      LambdaSpec, build_coloring_scheme,
                                      build_lambda,
                                      build_line_meeting_plane_family,
                                      canonical_frame, count_lambda,
                                      realize_coloring,
                                      trivial_coloring_scheme)
from flagkneser.counting import ekr_planes_max, lambda_family_size, s
from flagkneser.projective import (Subspace, enumerate_subspaces,
                                   intersect_trivially, meet, point_bitset,
                                   span)


_ANCHORS = ("hyperplane", "point", "line", "four_space")


def _given(name, frame):
    """The given family `name` over the frame: the members of its
    incidence kind."""
    spec = LambdaSpec(kind=GIVEN_FAMILIES[name], **{a: frame[a] for a in _ANCHORS})
    return spec.members(frame["point"].q)


def _spec(kind, frame, ekr=None, solid_kind=None):
    """Assemble a LambdaSpec over the canonical frame."""
    plane_family = None
    solid_family = None
    if kind == "H_E":
        plane_family = _given(ekr or "point_pencil", frame)
    if kind == "P_S":
        solid_family = _given(solid_kind or "hyperplane_full", frame)
    return LambdaSpec(kind=kind, **{a: frame.get(a) for a in _ANCHORS},
                      plane_family=plane_family, solid_family=solid_family)


def test_canonical_frame_incidences(frame2):
    f = frame2
    assert f["point"].d == 0 and f["line"].d == 1 and f["plane"].d == 2
    assert f["four_space"].d == 4 and f["hyperplane"].d == 5
    assert f["line"].contains(f["point"])
    assert f["plane"].contains(f["line"])
    assert f["four_space"].contains(f["plane"])
    assert f["hyperplane"].contains(f["four_space"])
    assert f["four_space"].contains(f["second_point"])
    assert not f["plane"].contains(f["second_point"])


@pytest.mark.parametrize("kind", LAMBDA_KINDS)
def test_lambda_build_count_and_formula_agree(kind, uni2, frame2):
    """Three routes to every family size: vectorized build over the
    universe, direct constrained enumeration, closed form."""
    spec = _spec(kind, frame2)
    spec.validate(2)
    fset = build_lambda(spec, uni2)
    assert fset.cardinality == spec.expected_size(2)
    assert count_lambda(spec, 2) == fset.cardinality


@pytest.mark.parametrize("kind", LAMBDA_KINDS)
def test_dual_spec_builds_the_dual_family(kind, uni2, frame2):
    """LambdaSpec.dual is an involution onto the other side, and its family
    is the image of the spec's family under the polarity, flag for flag."""
    spec = _spec(kind, frame2)
    dual = spec.dual()
    assert dual.dual() == spec
    assert dual.kind[0] != kind[0]
    mask = build_lambda(spec, uni2).mask
    image = np.zeros_like(mask)
    image[uni2.dual_permutation[mask]] = True
    assert np.array_equal(build_lambda(dual, uni2).mask, image)


@pytest.mark.parametrize("kind,size", [
    ("P_H", 11005), ("H_P", 11005), ("P_l", 11005), ("H_U", 11005),
    ("H_empty", 9765), ("P_empty", 9765),
])
def test_lambda_sizes_q2(kind, size, uni2, frame2):
    assert build_lambda(_spec(kind, frame2), uni2).cardinality == size


@pytest.mark.parametrize("ekr", ["point_pencil", "subspace_full"])
def test_lambda_he_reaches_independence_number(ekr, uni2, frame2):
    spec = _spec("H_E", frame2, ekr=ekr)
    assert len(spec.plane_family) == ekr_planes_max(2) == 155
    assert build_lambda(spec, uni2).cardinality == 11005


@pytest.mark.parametrize("solid_kind", ["hyperplane_full", "line_star"])
def test_lambda_ps_reaches_independence_number(solid_kind, uni2, frame2):
    spec = _spec("P_S", frame2, solid_kind=solid_kind)
    assert len(spec.solid_family) == 155
    assert build_lambda(spec, uni2).cardinality == 11005


def _given_and_incidence(name, frame):
    """The H_E or P_S spec of the given family `name`, and the spec of the
    incidence kind whose members it lists."""
    kind = GIVEN_FAMILIES[name]
    given = (_spec("H_E", frame, ekr=name) if kind[0] == "H"
             else _spec("P_S", frame, solid_kind=name))
    return given, _spec(kind, frame)


@pytest.mark.parametrize("name", GIVEN_FAMILIES)
def test_given_family_builds_its_incidence_kind(name, uni2, frame2):
    given, incidence = _given_and_incidence(name, frame2)
    assert given.members(2) == incidence.members(2)
    assert np.array_equal(build_lambda(given, uni2).mask,
                          build_lambda(incidence, uni2).mask)
    assert _spec(incidence.kind[0] + "_empty", frame2).members(2) == ()


@pytest.mark.parametrize("name", GIVEN_FAMILIES)
def test_given_family_counts_as_its_incidence_kind_q3(name, frame3):
    given, incidence = _given_and_incidence(name, frame3)
    assert count_lambda(given, 3) == count_lambda(incidence, 3) == 473110


def test_member_predicate_agrees_with_mask(uni2, frame2):
    rng = np.random.default_rng(17)
    for kind in LAMBDA_KINDS:
        spec = _spec(kind, frame2)
        mask = build_lambda(spec, uni2).mask
        base = build_lambda(_spec(kind[0] + "_empty", frame2), uni2).mask
        # the least member, least nonmember and least member outside the
        # base, then a random sample
        picks = [np.flatnonzero(m)[:1] for m in (mask, ~mask, mask & ~base)]
        picks.append(rng.integers(0, uni2.flag_count, 60))
        for t in map(int, np.concatenate(picks)):
            f = uni2.flag(t)
            assert spec.member(f.plane, f.solid) == bool(mask[t]), (kind, t)


@pytest.mark.parametrize("kind,q,expected", [
    ("H_empty", 3, 440440),
    ("H_E", 3, 473110),
])
def test_count_lambda_q3(kind, q, expected):
    """Enumerated family sizes at q=3 without materializing the universe."""
    frame = canonical_frame(q)
    if kind == "H_E":
        fam = _given("point_pencil", frame)
        assert len(fam) == ekr_planes_max(3) == 1210
        spec = LambdaSpec(kind="H_E", hyperplane=frame["hyperplane"],
                          plane_family=fam)
    else:
        spec = LambdaSpec(kind="H_empty", hyperplane=frame["hyperplane"])
    assert count_lambda(spec, q) == expected
    assert spec.expected_size(q) == expected


def _moved_frame(frame, q, seed):
    """The frame under a seeded random collineation x -> xG, so that no
    anchor is spanned by unit vectors."""
    rng = np.random.default_rng(seed)
    while True:
        g = rng.integers(0, q, size=(7, 7))
        if Subspace.from_vectors(6, q, g.tolist()).d == 6:
            break
    return {name: Subspace.from_vectors(6, q, (np.array(sub.rows) @ g % q).tolist())
            for name, sub in frame.items()}


@pytest.mark.parametrize("moved", [False, True], ids=["canonical", "moved"])
@pytest.mark.parametrize("kind", LAMBDA_KINDS)
def test_count_lambda_q3_every_kind(kind, moved, frame3):
    """Every kind at q=3 by enumeration, against the closed form: 473110
    flags, or 440440 for the empty families.  H_E and P_S take the
    point_pencil and hyperplane_full families of _spec."""
    frame = _moved_frame(frame3, 3, 7) if moved else frame3
    spec = _spec(kind, frame)
    assert count_lambda(spec, 3) == spec.expected_size(3)
    assert spec.expected_size(3) == (440440 if kind.endswith("empty") else 473110)


def test_count_lambda_q3_four_space_family():
    frame = canonical_frame(3)
    fam = _given("subspace_full", frame)
    assert len(fam) == 1210
    spec = LambdaSpec(kind="H_E", hyperplane=frame["hyperplane"],
                      plane_family=fam)
    assert count_lambda(spec, 3) == 473110


def test_ekr_families_pairwise_intersect(frame2):
    for kind in ("point_pencil", "subspace_full"):
        fam = _given(kind, frame2)
        assert len(fam) == 155
        bits = [point_bitset(e) for e in fam]
        for i in range(0, len(fam), 9):
            for j in range(i + 1, len(fam), 7):
                assert bits[i] & bits[j]


def test_intersecting_solid_families(frame2):
    for kind in ("hyperplane_full", "line_star"):
        fam = _given(kind, frame2)
        assert len(fam) == 155
        for t in fam:
            assert t.contains(frame2["point"])
        bits = [point_bitset(t) for t in fam]
        for i in range(0, len(fam), 11):
            for j in range(i + 1, len(fam), 13):
                # solids pairwise meet in at least a line (q+1 = 3 points)
                assert (bits[i] & bits[j]).bit_count() >= 3


def test_line_meeting_plane_families():
    for q, kind, size in ((2, "line_star", 15), (2, "solid_full", 15),
                          (3, "solid_full", 40)):
        fam = build_line_meeting_plane_family(kind, n=5, q=q)
        assert len(fam) == size
        for a, b in itertools.combinations(fam, 2):
            assert meet(a, b).d == 1
    with pytest.raises(ValueError):
        build_line_meeting_plane_family("line_star", n=4, q=2)


def test_lambda_spec_validation_errors(frame2):
    with pytest.raises(ValueError, match="unknown family kind"):
        LambdaSpec(kind="X_Y").validate(2)
    with pytest.raises(ValueError, match="requires anchor"):
        LambdaSpec(kind="P_H", point=frame2["point"]).validate(2)
    with pytest.raises(ValueError, match="dimension"):
        LambdaSpec(kind="H_empty", hyperplane=frame2["plane"]).validate(2)
    # point off the hyperplane
    off = Subspace.from_vectors(6, 2, [(0, 0, 0, 0, 0, 0, 1)])
    with pytest.raises(ValueError, match="lie in the hyperplane"):
        LambdaSpec(kind="P_H", point=off,
                   hyperplane=frame2["hyperplane"]).validate(2)
    # plane family member outside the hyperplane
    bad_plane = Subspace.from_vectors(6, 2, [(1, 0, 0, 0, 0, 0, 0),
                                             (0, 1, 0, 0, 0, 0, 0),
                                             (0, 0, 0, 0, 0, 0, 1)])
    with pytest.raises(ValueError, match="inside the hyperplane"):
        LambdaSpec(kind="H_E", hyperplane=frame2["hyperplane"],
                   plane_family=(bad_plane,)).validate(2)
    # 4-space outside the hyperplane, point off the line
    bad_four = Subspace.from_vectors(6, 2, [(0, 1, 0, 0, 0, 0, 0),
                                            (0, 0, 1, 0, 0, 0, 0),
                                            (0, 0, 0, 1, 0, 0, 0),
                                            (0, 0, 0, 0, 1, 0, 0),
                                            (0, 0, 0, 0, 0, 0, 1)])
    with pytest.raises(ValueError, match="inside the hyperplane"):
        LambdaSpec(kind="H_U", hyperplane=frame2["hyperplane"],
                   four_space=bad_four).validate(2)
    with pytest.raises(ValueError, match="lie in the line"):
        LambdaSpec(kind="P_l", point=off, line=frame2["line"]).validate(2)
    # a plane where the family holds solids
    with pytest.raises(ValueError, match="dimension 3"):
        LambdaSpec(kind="P_S", point=frame2["point"],
                   solid_family=(frame2["plane"],)).validate(2)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_p_empty_size_by_duality(q, frame2):
    """P_empty is the m = 0 family: s(0,2,6) s(2,3,6) = s(3,5) s(3)."""
    spec = LambdaSpec(kind="P_empty", point=frame2["point"])
    assert spec.expected_size(q) == s(0, 2, 6, q=q) * s(2, 3, 6, q=q)


def test_coloring_scheme_structure(frame2):
    scheme = build_coloring_scheme(frame2["point"], frame2["line"],
                                   frame2["plane"], frame2["four_space"],
                                   frame2["second_point"])
    q = 2
    assert len(scheme.classes) == q ** 4 + q ** 3 + q ** 2 + 1 == 29
    # the q cover sets have q^3+q^2+q+1 members each and pairwise share
    # exactly the base point
    assert len(scheme.cover_sets) == q
    from flagkneser.projective import point_indexer
    base_point_index = point_indexer(6, q).index_of(frame2["point"].rows[0])
    for m in scheme.cover_sets:
        assert len(m) == q ** 3 + q ** 2 + q + 1
        assert base_point_index in m
    for a, b in itertools.combinations(scheme.cover_sets, 2):
        assert set(a) & set(b) == {base_point_index}
    # every class is a P_l spec anchored at a cover-set point
    for spec in scheme.classes:
        assert spec.kind == "P_l"
        assert spec.line.contains(spec.point)


def test_coloring_scheme_class_count_q3(frame3):
    scheme = build_coloring_scheme(frame3["point"], frame3["line"],
                                   frame3["plane"], frame3["four_space"],
                                   frame3["second_point"])
    assert len(scheme.classes) == 3 ** 4 + 3 ** 3 + 3 ** 2 + 1 == 118
    for spec in scheme.classes:
        spec.validate(3)


def test_coloring_rejects_bad_chain(frame2):
    with pytest.raises(ValueError):
        build_coloring_scheme(frame2["second_point"], frame2["line"],
                              frame2["plane"], frame2["four_space"],
                              frame2["point"])


def test_trivial_scheme(frame2, uni2):
    specs = trivial_coloring_scheme(frame2["four_space"])
    assert len(specs) == 31
    for spec in specs:
        assert spec.kind == "P_empty"
        assert frame2["four_space"].contains(spec.point)
    classes = realize_coloring(specs[:2], uni2)
    assert all(c.cardinality == 9765 for c in classes)
