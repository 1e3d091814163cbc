import types

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from flagkneser.counting import gaussian, universe_size_formula
from flagkneser.flags import (Flag, FlagSet, FlagUniverse, adjacency_scan,
                              adjacent, adjacent_bits, build_universe,
                              dualize_flag, export_dimacs, general_position,
                              load_flagset, save_flagset)
from flagkneser.projective import Subspace, dualize, meet, span


def _unit(n, q, idxs):
    return Subspace.from_vectors(
        n, q, [[1 if j == i else 0 for j in range(n + 1)] for i in idxs])


def test_flag_validation():
    plane = _unit(6, 2, [0, 1, 2])
    solid = _unit(6, 2, [0, 1, 2, 3])
    Flag(plane, solid)  # fine
    with pytest.raises(ValueError):
        Flag(solid, plane)  # dimensions swapped
    with pytest.raises(ValueError):
        Flag(plane, _unit(6, 2, [1, 2, 3, 4]))  # not incident
    with pytest.raises(ValueError):
        Flag(_unit(5, 2, [0, 1, 2]), _unit(5, 2, [0, 1, 2, 3]))  # wrong ambient


def test_universe_counts(uni2):
    assert uni2.flag_count == 177165
    assert uni2.flag_count == universe_size_formula(2)
    assert uni2.planes_per_solid == 15
    assert uni2.solid_codec.total == gaussian(7, 4, 2) == 11811


def test_universe_q3_spine_without_materialization():
    uni = build_universe(3)
    assert uni.flag_count == 37030840
    assert not uni.has_masks
    f = uni.flag(12345678)
    assert uni.ordinal_of(f) == 12345678
    g = uni.flag(uni.dual_ordinal(12345678))
    assert g.plane == dualize(f.solid) and g.solid == dualize(f.plane)
    with pytest.raises(ValueError, match="materialized q=2 arrays"):
        uni._need_masks()


def test_universe_rejects_large_q():
    with pytest.raises(ValueError, match="flags"):
        build_universe(4)
    with pytest.raises(ValueError):
        build_universe(5)
    # a q that is no field order has no flag count to report
    for q in (6, 2 ** 61 - 1):
        with pytest.raises(ValueError, match="outside the supported orders") as err:
            build_universe(q)
        assert "flags" not in str(err.value)


def test_flag_ordinal_roundtrip(uni2):
    for uni, step in ((uni2, 4211), (build_universe(3), 880007)):
        pps = uni.planes_per_solid
        # every step-th flag, the last local plane of the first and of a
        # middle solid, and the last flag
        edge = [pps - 1, (uni.n_solids // 2) * pps + pps - 1,
                uni.flag_count - 1]
        for t in [*range(0, uni.flag_count, step), *edge]:
            f = uni.flag(t)
            assert f.solid.contains(f.plane)
            assert uni.ordinal_of(f) == t


def test_flag_ordinal_layout(uni2):
    # ordinal = solid ordinal * planes_per_solid + local plane index
    f0 = uni2.flag(0)
    f14 = uni2.flag(14)
    f15 = uni2.flag(15)
    assert f0.solid == f14.solid
    assert f0.solid != f15.solid
    assert f0.plane != f14.plane


def test_dualize_flag_is_involution(uni2):
    rng = np.random.default_rng(3)
    for t in map(int, rng.integers(0, uni2.flag_count, 40)):
        f = uni2.flag(t)
        assert dualize_flag(dualize_flag(f)) == f
        assert uni2.dual_ordinal(uni2.dual_ordinal(t)) == t


def test_dual_permutation_against_the_codec_path(uni2):
    perm = uni2.dual_permutation
    every = np.arange(uni2.flag_count)
    assert perm.dtype == np.int32 and np.array_equal(perm[perm], every)
    rng = np.random.default_rng(20261018)
    sample = [0, uni2.flag_count - 1,
              *map(int, rng.integers(0, uni2.flag_count, 300))]
    for t in sample:
        want = uni2.ordinal_of(dualize_flag(uni2.flag(t)))
        assert uni2.dual_ordinal(t) == want == perm[t]
    # duality preserves adjacency, and non-adjacency, on seeded pairs
    i, j = rng.integers(0, uni2.flag_count, size=(2, 20000))
    i[:200] = 0  # some adjacent pairs among them
    j[:200] = np.flatnonzero(uni2.adjacent_mask(0))[:200]
    planes, solids = uni2.plane_bits, uni2.solid_bits

    def adj(a, b):
        return adjacent_bits(planes[:, a], solids[:, a],
                             planes[:, b], solids[:, b])

    before = adj(i, j)
    assert before[:200].all() and not before.all()
    assert np.array_equal(before, adj(perm[i], perm[j]))


def test_dual_ordinal_range(uni2):
    for bad in (-1, uni2.flag_count):
        with pytest.raises(IndexError, match="out of range"):
            uni2.dual_ordinal(bad)


def test_general_position_matches_disjointness_shortcut(uni2):
    rng = np.random.default_rng(5)
    pairs = rng.integers(0, uni2.flag_count, size=(150, 2))
    for a, b in pairs:
        f, g = uni2.flag(int(a)), uni2.flag(int(b))
        fast = adjacent(f, g)
        slow = general_position(f, g)
        assert fast == slow
        # rank-additivity spelling of the fast route
        disjoint = (meet(f.plane, g.solid).d == -1
                    and meet(g.plane, f.solid).d == -1)
        assert fast == disjoint


def test_adjacency_is_never_within_a_shared_subspace(uni2):
    # flags sharing their solid (consecutive ordinals) are never adjacent
    for t in (0, 45, 177150):
        f, g = uni2.flag(t), uni2.flag(t + 1)
        assert f.solid == g.solid
        assert not adjacent(f, g)


def test_degree_is_q_to_the_15(uni2):
    rng = np.random.default_rng(11)
    samples = {0, uni2.flag_count - 1}
    samples.update(map(int, rng.integers(0, uni2.flag_count, 6)))
    for t in samples:
        assert uni2.degree(t) == 2 ** 15


def test_adjacent_mask_agrees_with_flag_level_test(uni2):
    t = 31337
    mask = uni2.adjacent_mask(t)
    f = uni2.flag(t)
    js = np.flatnonzero(mask)
    for j in map(int, js[:: max(1, len(js) // 23)]):
        assert adjacent(f, uni2.flag(j))
    assert not mask[t]


def test_flagset_ops(uni2):
    a = FlagSet.from_ordinals(uni2, [5, 1, 9])
    assert a.cardinality == 3
    assert list(a.ordinals()) == [1, 5, 9]
    assert 5 in a and 6 not in a
    b = FlagSet.from_ordinals(uni2, [9, 20])
    u = a.union(b)
    assert list(u.ordinals()) == [1, 5, 9, 20]
    flags = list(a.flags())
    assert all(isinstance(f, Flag) for f in flags)
    with pytest.raises(ValueError):
        FlagSet.from_ordinals(uni2, [-1])
    with pytest.raises(ValueError):
        FlagSet.from_ordinals(uni2, [uni2.flag_count])


def test_adjacency_scan(uni2):
    fam = FlagSet.from_ordinals(uni2, [0, 1, 2])
    count, witness = adjacency_scan(fam, uni2.flag(0))
    assert count == 0 and witness is None
    neighbor = int(np.flatnonzero(uni2.adjacent_mask(0))[0])
    count, witness = adjacency_scan(fam, uni2.flag(neighbor))
    assert count >= 1 and witness == 0


def test_save_load_roundtrip(tmp_path, uni2):
    fset = FlagSet.from_ordinals(uni2, [3, 77, 4096],
                                 meta={"kind": "sample", "note": "x"})
    path = tmp_path / "sample.flags"
    save_flagset(fset, str(path))
    text = path.read_text()
    assert text.startswith("# flagkneser flag set")
    loaded = load_flagset(str(path))
    assert list(loaded.ordinals()) == [3, 77, 4096]
    assert loaded.meta.get("kind") == "sample"
    assert loaded.universe.q == 2


@pytest.mark.parametrize("meta", [{"note": "a\nb"}, {"my key": "v"},
                                  {"note": " padded "}, {"": "v"},
                                  {"kind": "a\rb"}])
def test_save_rejects_meta_it_cannot_read_back(tmp_path, uni2, meta):
    path = tmp_path / "bad.flags"
    with pytest.raises(ValueError):
        save_flagset(FlagSet.from_ordinals(uni2, [1], meta), str(path))
    assert not path.exists()


_ANCHORS = {"point": _unit(6, 2, [0]), "line": _unit(6, 2, [1, 5]),
            "hyperplane": _unit(6, 2, range(6)), "empty": _unit(6, 2, [])}
_KEYS = st.text(min_size=1, max_size=8).filter(
    lambda k: k.split() == [k] and k != "kind" and k not in _ANCHORS)
_VALUES = st.text(max_size=12).filter(
    lambda v: v == v.strip() and "\n" not in v and "\r" not in v)


@given(ordinals=st.sets(st.integers(0, 177164), max_size=12),
       kind=_VALUES, anchors=st.sets(st.sampled_from(sorted(_ANCHORS))),
       text_meta=st.dictionaries(_KEYS, _VALUES, max_size=3))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_save_load_round_trip_property(tmp_path, uni2, ordinals, kind,
                                       anchors, text_meta):
    meta = dict(text_meta, kind=kind, **{a: _ANCHORS[a] for a in anchors})
    path = tmp_path / "prop.flags"
    save_flagset(FlagSet.from_ordinals(uni2, ordinals, meta), str(path))
    loaded = load_flagset(str(path), uni2)
    assert list(loaded.ordinals()) == sorted(ordinals)
    assert loaded.meta == meta


_TAGS = ("q", "kind", "anchor", "meta", "count")
_HEADER = st.one_of(
    st.sampled_from(["q 2", "q 3", "count 0", "count 2", "anchor p 0;1,0,0,0,0,0,0"]),
    st.integers(17, 1 << 64).map("q {}".format),
    st.tuples(st.sampled_from(_TAGS), st.text(max_size=20)).map(" ".join),
    st.text(max_size=20))
_BODY = st.one_of(st.integers(-3, 177167).map(str), st.text(max_size=8))


@given(header=st.lists(_HEADER, max_size=6), body=st.lists(_BODY, max_size=4))
# 2^61 - 1 is prime: factoring it before the supported-order check, at the
# anchor line that builds the field, would not finish
@example(header=["q 2305843009213693951", "anchor p 0;1,0,0,0,0,0,0",
                 "count 0"], body=[])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_raises_only_value_error(tmp_path, uni2, header, body):
    path = tmp_path / "fuzz.flags"
    path.write_text("\n".join(header + body) + "\n", encoding="utf-8")
    try:
        load_flagset(str(path), uni2)
    except ValueError:
        pass


def test_load_errors_cite_line(tmp_path):
    path = tmp_path / "bad.flags"
    path.write_text("# flagkneser flag set\nq 2\ncount 2\n5\nfour\n")
    with pytest.raises(ValueError, match=r"bad\.flags:5"):
        load_flagset(str(path))
    path.write_text("# flagkneser flag set\nq 2\ncount 2\n9\n5\n")
    with pytest.raises(ValueError, match="increasing"):
        load_flagset(str(path))
    path.write_text("not a flag set\n")
    with pytest.raises(ValueError, match="header"):
        load_flagset(str(path))


def test_export_dimacs_induced(tmp_path, uni2):
    path = tmp_path / "g.dimacs"
    nv = 12000
    summary = export_dimacs(uni2, str(path), max_vertices=nv)
    assert summary["vertices"] == nv
    lines = path.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("p ")][0]
    assert header == "p edge %d %d" % (nv, summary["edges"])
    edges = [ln for ln in lines if ln.startswith("e ")]
    assert len(edges) == summary["edges"] > 0
    # spot-check edges against the adjacency predicate, 1-based vertices
    for ln in edges[:: max(1, len(edges) // 29)]:
        _, a, b = ln.split()
        i, j = int(a) - 1, int(b) - 1
        assert i < j < nv
        assert adjacent(uni2.flag(i), uni2.flag(j))
    # determinism
    path2 = tmp_path / "g2.dimacs"
    export_dimacs(uni2, str(path2), max_vertices=nv)
    assert path.read_text() == path2.read_text()


def _dimacs_edges(path):
    lines = path.read_text().splitlines()
    return lines, [tuple(int(x) - 1 for x in ln.split()[1:])
                   for ln in lines if ln.startswith("e ")]


def test_export_dimacs_edges_are_the_adjacent_pairs(tmp_path, uni2):
    # the first edge of the graph lies between flags 800 and 1000
    nv = 1000
    path = tmp_path / "g.dimacs"
    summary = export_dimacs(uni2, str(path), max_vertices=nv)
    lines, edges = _dimacs_edges(path)
    want = [(i, int(j)) for i in range(nv)
            for j in np.flatnonzero(uni2.adjacent_mask(i)[:nv]) if j > i]
    assert len(want) == 3840
    assert edges == want
    assert "p edge %d %d" % (nv, len(want)) in lines
    assert summary == {"vertices": nv, "edges": len(want), "path": str(path)}

    export_dimacs(uni2, str(path), max_vertices=1)
    lines, edges = _dimacs_edges(path)
    assert lines[-1] == "p edge 1 0" and edges == []


def test_export_dimacs_full_graph_of_a_small_universe(tmp_path, uni2):
    # a stand-in universe of 64 flags spread over the q=2 universe, so the
    # whole-graph export (no induced line, exact header) runs in a moment
    cols = np.arange(64) * (uni2.flag_count // 64)
    small = types.SimpleNamespace(
        q=2, flag_count=64, plane_bits=uni2.plane_bits[:, cols],
        solid_bits=uni2.solid_bits[:, cols], _need_masks=lambda: None)
    path = tmp_path / "small.dimacs"
    summary = export_dimacs(small, str(path))
    lines, edges = _dimacs_edges(path)
    want = [(i, j) for i in range(64) for j in range(i + 1, 64)
            if adjacent(uni2.flag(int(cols[i])), uni2.flag(int(cols[j])))]
    assert len(want) == 400
    assert not any(ln.startswith("c induced") for ln in lines)
    assert "p edge 64 400" in lines and edges == want
    assert summary["edges"] == 400


def test_export_dimacs_full_header_math(uni2):
    # the full-graph header edge count is degree * V / 2 with constant
    # sampled degree; verified without writing the 2.9e9 edge lines
    degree = uni2.degree(0)
    assert uni2.flag_count * degree // 2 == 2902671360
