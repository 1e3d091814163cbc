"""Brute-force oracle layer.

Everything here counts by enumeration and bitset filtering, so agreement
with the closed forms is a genuine cross-check, not a tautology.
"""
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from flagkneser import constructions, flags, oracle, projective
from flagkneser.constructions import (LambdaSpec, build_line_meeting_plane_family,
                                      canonical_frame, count_lambda, unit_span)
from flagkneser.counting import (planes_meeting_two_solids_bound,
                                 planes_meeting_two_solids_exact, s, s_count,
                                 solids_meeting_three_planes_bound)
from flagkneser.linalg import coefficient_reps, disjoint, meet_count
from flagkneser.oracle import (OracleResult, ThreePlanesConfig,
                               TwoSolidsConfig, canonical_three_planes_config,
                               canonical_two_solids_config,
                               complement_count_check, count_skew_constrained,
                               count_planes_meeting_two_solids,
                               count_solids_meeting_three_planes,
                               line_meeting_family_check, random_subspace,
                               sample_skew_pair, sample_three_planes_config,
                               sample_two_solids_config, skew_count_grid,
                               skew_count_tuples)
from flagkneser.projective import (MAX_ENUMERATED, Subspace, basis_bitsets,
                                   intersect_trivially, meet, point_bitsets,
                                   point_words, span, subspace_array)


def test_skew_count_canonical_cases():
    # planes skew to a plane in PG(5,q), counted two ways
    for q in (2, 3):
        r = count_skew_constrained(5, q, 2, skew_to=Subspace.from_vectors(
            5, q, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]))
        assert r.passed and r.count == s_count(2, -1, 2, 5, q=q)
    assert count_skew_constrained(5, 2, 2, skew_to=None).count == 1395


def test_skew_count_with_containment():
    q = 2
    l = Subspace.from_vectors(4, q, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    m = Subspace.from_vectors(4, q, [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0]])
    r = count_skew_constrained(4, q, 2, contains=l, skew_to=m)
    assert r.passed
    assert r.expected == s_count(1, 1, 2, 4, q=q)


def test_skew_count_with_no_d_space_through_k():
    # no plane of PG(5,q) contains a solid: the containment test keeps no
    # column, and the skewness test then runs on none
    for q in (2, 3):
        solid = unit_span(5, q, 4)
        line = Subspace.from_vectors(5, q, [[0, 0, 0, 0, 1, 0],
                                            [0, 0, 0, 0, 0, 1]])
        for skew_to in (None, line):
            r = count_skew_constrained(5, q, 2, contains=solid, skew_to=skew_to)
            assert r.passed and r.count == r.expected == 0


def test_skew_count_grid_q2_small():
    results = skew_count_grid(2, n_max=3, samples=2, seed=7)
    assert results and all(r.passed for r in results)
    # canonical plus 2 sampled configurations per parameter tuple
    assert len(results) == 3 * len(skew_count_tuples(3))


@pytest.mark.parametrize("q", [2, 3])
def test_skew_count_grid_full(q):
    results = skew_count_grid(q, n_max=5, samples=10, seed=0)
    assert all(r.passed for r in results)
    assert len(results) == 11 * len(skew_count_tuples(5))


@pytest.mark.parametrize("q", [2, 3])
def test_skew_count_grid_matches_per_configuration_route(q):
    """The grid's batched constraint words give, case for case and in the
    same order, the results of count_skew_constrained on the same canonical
    and sampled configurations."""
    seed, samples = 7, 2
    expected = []
    for n, d, k, l in skew_count_tuples(3):
        units = [[1 if j == i else 0 for j in range(n + 1)] for i in range(n + 1)]
        configs = [(Subspace.from_vectors(n, q, units[:k + 1]) if k >= 0 else None,
                    Subspace.from_vectors(n, q, units[k + 1:k + l + 2])
                    if l >= 0 else None)]
        rng = np.random.default_rng((seed, q, n, d, k + 1, l + 1))
        configs += [sample_skew_pair(n, q, k, l, rng) for _ in range(samples)]
        expected += [count_skew_constrained(n, q, d, contains=kk,
                                            skew_to=ll).to_dict()
                     for kk, ll in configs]
    grid = [r.to_dict() for r in skew_count_grid(q, n_max=3, samples=samples,
                                                 seed=seed)]
    assert grid == expected
    line = unit_span(3, q, 2)
    with pytest.raises(ValueError, match="skew"):
        count_skew_constrained(3, q, 2, contains=unit_span(3, q, 1),
                               skew_to=line)


def test_skew_count_tuples_shape():
    tuples = skew_count_tuples(5)
    assert all(1 <= n <= 5 and -1 <= k <= d <= n - 1 and -1 <= l <= n - 1 - k
               for n, d, k, l in tuples)
    assert (5, 4, -1, -1) in tuples
    assert (1, 0, -1, -1) in tuples


def test_two_solids_exact_counts_q2():
    for u, expect, classes in [
        (1, 235, {"meet_v_in_point": 144, "meet_v_in_line": 90, "inside_v": 1}),
        (2, 267, {"meet_v_in_point": 64, "meet_v_in_line": 196, "inside_v": 7}),
    ]:
        r = count_planes_meeting_two_solids(2, u=u)
        assert r.passed and r.count == expect
        assert r.details["classes"] == classes
        assert r.details["class_terms"] == classes
        assert r.count <= r.details["bound"] == 267


def test_two_solids_exact_counts_q3():
    for u, expect in [(1, 1777), (2, 2263)]:
        r = count_planes_meeting_two_solids(3, u=u)
        assert r.passed and r.count == expect
        assert r.details["bound"] == 2263
    # bound 2q^6+2q^5+3q^4+2q^3+2q^2+q+1 is attained at u=2
    assert 2263 == 2 * 3**6 + 2 * 3**5 + 3 * 3**4 + 2 * 3**3 + 2 * 3**2 + 3 + 1


@pytest.mark.parametrize("q,u", [(2, 1), (2, 2), (3, 2)])
def test_two_solids_sampled_configs(q, u):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        cfg = sample_two_solids_config(q, u, rng)
        r = count_planes_meeting_two_solids(q, config=cfg, u=u)
        assert r.passed, r.to_dict()


def test_two_solids_config_validation():
    q = 2
    cfg = canonical_two_solids_config(q, 2)
    # a supplied config is self-describing: the u argument is ignored
    r = count_planes_meeting_two_solids(q, config=cfg, u=1)
    assert r.passed and r.parameters["u"] == 2 and r.count == 267
    bad = TwoSolidsConfig(point=cfg.point, solid1=cfg.solid1,
                          solid2=cfg.solid1)
    with pytest.raises(ValueError, match="u=3"):
        count_planes_meeting_two_solids(q, config=bad)


def test_three_planes_canonical_count_q2():
    r = count_solids_meeting_three_planes(2)
    assert r.passed and r.relation == "<="
    assert r.count == 371
    assert r.expected == 539
    assert r.details["solids_through_point"] == 1395


def test_three_planes_bound_q3_structural():
    # at q=3 only the configuration is exercised; enumeration stays at q=2
    cfg = canonical_three_planes_config(3)
    cfg.validate()
    assert cfg.point.d == 0 and all(p.d == 2 for p in cfg.planes)


def test_three_planes_seeded_configs_respect_bound():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cfg = sample_three_planes_config(2, rng)
        r = count_solids_meeting_three_planes(2, config=cfg)
        assert r.passed and r.count <= 539, r.to_dict()


def _full_space_three_planes(q, cfg):
    """count_solids_meeting_three_planes over the solids of PG(6,q)
    through the outside point, with no projection."""
    bits = basis_bitsets(subspace_array(6, q, 3, contains=cfg.outside_point), 6, q)
    keep = np.ones(bits.shape[1], dtype=bool)
    for e in cfg.planes:
        keep &= ~disjoint(bits, point_words(e))
    count = int(np.count_nonzero(keep))
    bound = solids_meeting_three_planes_bound(q)
    return OracleResult("solids_meeting_three_planes", q, cfg.to_params(),
                        count, bound, "<=", count <= bound,
                        {"solids_through_point": bits.shape[1]}).to_dict()


def _full_space_two_solids(q, cfg):
    """count_planes_meeting_two_solids over the planes of PG(6,q) through
    the point, classed by their points in v = <u1, P>: 1, q+1 or all."""
    bits = basis_bitsets(subspace_array(6, q, 2, contains=cfg.point), 6, q)
    keep = ~disjoint(bits, point_words(cfg.solid1)) \
        & ~disjoint(bits, point_words(cfg.solid2))
    v = span(meet(span(cfg.point, cfg.solid2), cfg.solid1), cfg.point)
    overlap = meet_count(bits, point_words(v)[:, None])
    classes = {name: int(np.count_nonzero(keep & (overlap == size)))
               for name, size in (("meet_v_in_point", 1),
                                  ("meet_v_in_line", q + 1),
                                  ("inside_v", q * q + q + 1))}
    u = cfg.u
    terms = {"meet_v_in_point": (s(3, q=q) - s(u, q=q)) ** 2,
             "meet_v_in_line": s(0, 1, u + 1, q=q)
             * (s(1, 2, 6, q=q) - s(1, 2, u + 1, q=q)),
             "inside_v": s(0, 2, u + 1, q=q)}
    count = int(np.count_nonzero(keep))
    bound = planes_meeting_two_solids_bound(q)
    expected = planes_meeting_two_solids_exact(u, q)
    return OracleResult("planes_meeting_two_solids", q, cfg.to_params(),
                        count, expected, "==",
                        count == expected and classes == terms and count <= bound,
                        {"classes": classes, "class_terms": terms,
                         "bound": bound}).to_dict()


@pytest.mark.parametrize("q", [2, 3])
def test_point_anchored_oracles_match_the_full_space_route(q):
    """Counting by projection from the anchor point over PG(5,q) gives the
    results of enumerating the solids and planes through it in PG(6,q), on
    the canonical and on seeded configurations, for u=1 and u=2."""
    three = [canonical_three_planes_config(q)]
    two = [canonical_two_solids_config(q, u) for u in (1, 2)]
    for seed in range(8):
        rng = np.random.default_rng((seed, q))
        three.append(sample_three_planes_config(q, rng))
        two += [sample_two_solids_config(q, u, rng) for u in (1, 2)]
    for cfg in three:
        assert count_solids_meeting_three_planes(q, cfg).to_dict() \
            == _full_space_three_planes(q, cfg)
    for cfg in two:
        assert count_planes_meeting_two_solids(q, cfg).to_dict() \
            == _full_space_two_solids(q, cfg)


def test_three_planes_config_validation():
    q = 2
    cfg = canonical_three_planes_config(q)
    e1, e2, e3 = cfg.planes
    with pytest.raises(ValueError, match="share more than the point"):
        count_solids_meeting_three_planes(q, config=ThreePlanesConfig(
            point=cfg.point, planes=(e1, e1, e3),
            outside_point=cfg.outside_point))


def test_line_meeting_families():
    for kind in ("line_star", "solid_full"):
        r = line_meeting_family_check(2, kind=kind)
        assert r.passed and r.count == 15 == r.expected
        assert r.details["pairwise_meet_in_lines"]
        assert r.details["maximal"] and r.details["extensions_found"] == 0
        assert r.details["planes_swept"] == 1395
        assert r.details["family_type"] == kind


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("kind", ["line_star", "solid_full"])
@pytest.mark.parametrize("k", [1, 2])
def test_line_meeting_family_minus_k_planes_has_k_extensions(q, kind, k):
    """The planes taken out are the only extensions: no member counts as
    one, since a member meets itself in a plane, not a line."""
    family = build_line_meeting_plane_family(kind, n=5, q=q)
    r = line_meeting_family_check(q, planes=family[k:], kind=kind)
    assert r.details["pairwise_meet_in_lines"]
    assert r.details["extensions_found"] == k
    assert not r.details["maximal"] and not r.passed


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("kind", ["line_star", "solid_full"])
@pytest.mark.parametrize("keep", [slice(0, 2), slice(None, None, 3)])
def test_line_meeting_extensions_match_a_direct_count(q, kind, keep):
    """The member-by-member sweep finds as many extensions of a family with
    members dropped as a table of every plane against every member."""
    family = build_line_meeting_plane_family(kind, n=5, q=q)[keep]
    bits = basis_bitsets(subspace_array(5, q, 2), 5, q)
    member = point_bitsets(family, 5, q)
    cuts = meet_count(bits[:, :, None], member[:, None, :])
    direct = int(np.count_nonzero((cuts == q + 1).all(axis=1)))
    r = line_meeting_family_check(q, planes=family, kind=kind)
    assert r.details["extensions_found"] == direct > len(family)


def test_line_meeting_family_rejects_broken_input():
    q = 2
    a = Subspace.from_vectors(5, q, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                                     [0, 0, 1, 0, 0, 0]])
    b = Subspace.from_vectors(5, q, [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0],
                                     [0, 0, 0, 0, 0, 1]])
    assert intersect_trivially(a, b)
    r = line_meeting_family_check(q, planes=[a, b])
    assert not r.passed
    assert not r.details["pairwise_meet_in_lines"]


def test_complement_counts():
    r = complement_count_check(6, 2, 3)
    assert r.passed and r.count == 4096
    r = complement_count_check(4, 3, 1)
    assert r.passed and r.count == 3 ** 6


@pytest.mark.parametrize("q", [2, 3, 4])
def test_complement_of_the_whole_space_is_the_empty_subspace(q):
    # d = n: the one complement is the empty subspace, whose point set is empty
    r = complement_count_check(3, q, 3)
    assert r.passed and r.count == r.expected == 1
    bits = projective.basis_bitsets(np.zeros((2, 0, 4), dtype=np.int64), 3, q)
    assert bits.shape[1] == 2 and not bits.any()
    assert coefficient_reps(0, q).shape == (0, 0)


def test_random_subspace_and_skew_pair_determinism():
    a = random_subspace(6, 2, 3, np.random.default_rng(42))
    b = random_subspace(6, 2, 3, np.random.default_rng(42))
    assert a.rows == b.rows and a.d == 3
    p1 = sample_skew_pair(5, 2, 1, 2, np.random.default_rng(9))
    p2 = sample_skew_pair(5, 2, 1, 2, np.random.default_rng(9))
    assert p1[0].rows == p2[0].rows and p1[1].rows == p2[1].rows
    assert intersect_trivially(p1[0], p1[1])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_block_draw_matches_row_draws(q):
    """random_subspace draws an attempt's rows in one integers call of
    shape (rows, width).  It must give the values of one call per row and
    leave the generator in the same state, so the next draws match too."""
    for width in range(2, 8):
        for rows in range(0, 6):
            block = np.random.default_rng((q, width, rows))
            single = np.random.default_rng((q, width, rows))
            got = block.integers(0, q, size=(rows, width))
            want = [single.integers(0, q, size=width).tolist()
                    for _ in range(rows)]
            assert got.tolist() == want
            assert block.bit_generator.state == single.bit_generator.state
            assert (block.integers(0, q, size=(2, width)).tolist()
                    == [single.integers(0, q, size=width).tolist()
                        for _ in range(2)])
            assert block.integers(1 << 62) == single.integers(1 << 62)


@pytest.mark.parametrize("q,digest", [
    (2, "1c47602877735d180da39c4130a84582d774b4749c9a58edb22e2c403228d2d7"),
    (3, "d8a27e0fb10fedd9dca87f7d96911238023eca96f39494d4028094580d1a79b1"),
])
def test_sampled_configs_are_pinned(q, digest):
    """The seeded configurations, and the generator state each sampler
    leaves behind, hash to fixed values: seeds 0-3, one generator per seed
    drawing the u=1, u=2 and three-planes configurations in turn."""
    h = hashlib.sha256()
    for seed in range(4):
        rng = np.random.default_rng(seed)
        for cfg in (sample_two_solids_config(q, 1, rng),
                    sample_two_solids_config(q, 2, rng),
                    sample_three_planes_config(q, rng)):
            h.update(json.dumps(cfg.to_params(), sort_keys=True).encode())
        h.update(str(int(rng.integers(1 << 62))).encode())
    assert h.hexdigest() == digest


def test_whole_space_enumerations_read_the_codec(monkeypatch):
    """subspace_array lists only constrained enumerations: the q=2
    universe and the oracles' d-spaces of a whole PG(n,q) are read from
    PatternCodec, and count_lambda enumerates its members alone."""
    calls = []

    def patch_subspace_array(fn):
        for mod in (projective, flags, oracle, constructions):
            if hasattr(mod, "subspace_array"):
                monkeypatch.setattr(mod, "subspace_array", fn)

    def refused(*args, **kwargs):
        raise AssertionError("subspace_array called for a whole space")

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return subspace_array(*args, **kwargs)

    patch_subspace_array(refused)
    assert flags.FlagUniverse(2).solid_words.shape == (2, 11811)
    oracle._all_d_space_bits.cache_clear()
    assert oracle._all_d_space_bits(5, 3, 2).shape == (6, 33880)
    patch_subspace_array(counted)
    fr = canonical_frame(3)
    spec = LambdaSpec(kind="H_U", hyperplane=fr["hyperplane"],
                      four_space=fr["four_space"])
    assert count_lambda(spec, 3) == 473110
    # one call, for the member solids of the dual P_l family
    assert [(args, sorted(kwargs)) for args, kwargs in calls] == [
        ((6, 3, 3), ["contains", "within"])]


def test_all_d_space_bits_memory_is_bounded():
    # the planes of PG(5,3): 33880 int8 patterns (0.6 MB) and their 1.6 MB
    # of bitsets, where an int64 copy of the patterns alone takes 4.9 MB
    oracle._all_d_space_bits.cache_clear()
    tracemalloc.start()
    try:
        oracle._all_d_space_bits(5, 3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20  # 5 MiB; it measures 3.6 MiB


def test_enumeration_cutoff(monkeypatch):
    # 24 208 613 planes in PG(6,4): refused before any enumeration starts
    with pytest.raises(ValueError, match="above the enumeration cutoff"):
        count_skew_constrained(6, 4, 2)
    assert MAX_ENUMERATED < 4_000_000
    # counted inside W: the 48 177 200 planes of a hyperplane of PG(6,7)
    # are refused, the 5797 planes of a 4-space of PG(6,4) are not
    with pytest.raises(ValueError, match="inside a 5-space, above the enumeration cutoff"):
        subspace_array(6, 7, 2, within=unit_span(6, 7, 6))
    assert len(subspace_array(6, 4, 2, within=unit_span(6, 4, 5))) == 5797

    # refused from the Gaussian coefficient alone: a codec would list the
    # C(101, 51) pivot tuples of PG(100,2) first, so building one fails here
    def no_codec(*args):
        raise AssertionError("PatternCodec built before the cutoff check")

    monkeypatch.setattr(projective, "PatternCodec", no_codec)
    with pytest.raises(ValueError, match="above the enumeration cutoff"):
        subspace_array(100, 2, 50)


def test_subspace_bitsets_check_gives_the_first_refusal():
    # the 24 208 613 planes of PG(6,4) are above both cutoffs (16.7 GB of
    # bitsets): the enumeration one is named, as subspace_array would
    with pytest.raises(ValueError, match="above the enumeration cutoff"):
        projective.check_subspace_bitsets(6, 4, 2)
    # the 1 118 481 points of PG(5,16) may be listed, not stored as bitsets
    with pytest.raises(ValueError, match="156381539496 bytes, above the cutoff"):
        projective.check_subspace_bitsets(5, 16, 0)
    projective.check_subspace_bitsets(5, 3, 2)


def test_bitset_byte_cutoff(monkeypatch):
    # a zero-copy basis array: one solid of PG(6,5), 306 words per bitset
    bases = np.broadcast_to(np.eye(7, dtype=np.int64)[:4], (2558556, 4, 7))
    # the cutoff is on the bytes of the result: at it passes, above refuses
    monkeypatch.setattr(projective, "MAX_BITSET_BYTES", 3 * 306 * 8)
    assert projective.basis_bitsets(bases[:3], 6, 5).shape == (306, 3)
    with pytest.raises(ValueError, match="above the cutoff"):
        projective.basis_bitsets(bases[:4], 6, 5)
    monkeypatch.undo()
    # the 2558556 solids through a point of PG(6,5) would take 6.3 GB:
    # refused before allocating
    with pytest.raises(ValueError, match="6263345088 bytes, above the cutoff"):
        projective.basis_bitsets(bases, 6, 5)
    # the three-planes oracle counts them as the 2558556 planes of PG(5,5)
    # they project to from the point, 62 words each: still refused
    planes = np.broadcast_to(np.eye(6, dtype=np.int64)[:3], (2558556, 3, 6))
    with pytest.raises(ValueError, match="1269043776 bytes, above the cutoff"):
        projective.basis_bitsets(planes, 5, 5)
    # at q=4 the 376805 solids through a point of PG(6,4) (86 words) stay
    # under it, and so do as many planes of PG(5,4) (22 words)
    assert s_count(-1, 0, 3, 6, 4) * 86 * 8 <= projective.MAX_BITSET_BYTES
    assert s_count(-1, -1, 2, 5, 4) == s_count(-1, 0, 3, 6, 4)


def test_bitset_byte_cutoff_comes_before_the_point_index(monkeypatch):
    # the 1118481 points of PG(5,16) are not indexed to refuse their bitsets
    def no_index(*args):
        raise AssertionError("point index built before the cutoff check")

    monkeypatch.setattr(projective, "point_indexer", no_index)
    points = np.broadcast_to(np.eye(6, dtype=np.int64)[:1], (1118481, 1, 6))
    with pytest.raises(ValueError, match="156381539496 bytes, above the cutoff"):
        projective.basis_bitsets(points, 5, 16)


def test_oracle_result_to_dict_roundtrip():
    r = complement_count_check(4, 2, 1)
    d = r.to_dict()
    assert d["name"] == r.name and d["count"] == r.count
    assert set(d) == {"name", "q", "parameters", "count", "expected",
                      "relation", "passed", "details"}
