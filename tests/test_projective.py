import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flagkneser import linalg
from flagkneser.counting import gaussian, s_count
from flagkneser.galois import build_field
from flagkneser.projective import (PatternCodec, Subspace, basis_bitsets,
                                   basis_point_ids, dualize,
                                   enumerate_subspaces, intersect_trivially,
                                   local_coords, meet, pattern_point_table,
                                   point_bitset, point_indexer, span,
                                   subspace_array, subspace_from_text,
                                   subspace_to_text)


# ---------------------------------------------------------------------------
# Scalar reference for the enumeration order, kept apart from the package


def rref_patterns(m, r, q):
    """All RREF matrices of rank r with m columns, in the pinned order:
    pivot column tuples lexicographically, then the free entries in
    row-major order, as code vectors in lexicographic order."""
    for pivots in itertools.combinations(range(m), r):
        cells = [(i, c) for i in range(r) for c in range(pivots[i] + 1, m)
                 if c not in pivots]
        for values in itertools.product(range(q), repeat=len(cells)):
            rows = [[int(c == p) for c in range(m)] for p in pivots]
            for (i, c), val in zip(cells, values):
                rows[i][c] = val
            yield tuple(tuple(row) for row in rows)


def reference_subspaces(n, q, d, contains=None, within=None):
    """The d-spaces of PG(n,q) through K inside W, one at a time: K's RREF
    in the coordinates of W plus each of rref_patterns placed on its
    non-pivot columns, mapped through the rows of W and reduced."""
    fld = build_field(q)
    w = within if within is not None else Subspace.full(n, q)
    k = contains if contains is not None else Subspace.empty(n, q)
    if not w.contains(k) or not k.d <= d <= w.d:
        return []
    k_local = linalg.rref([local_coords(row, w) for row in k.rows], fld)
    pivots = [next(j for j, x in enumerate(row) if x) for row in k_local]
    free = [j for j in range(w.d + 1) if j not in pivots]
    out = []
    for pat in rref_patterns(len(free), d - k.d, q):
        local = list(k_local)
        for prow in pat:
            amb = [0] * (w.d + 1)
            for j, val in zip(free, prow):
                amb[j] = val
            local.append(amb)
        out.append(Subspace.from_vectors(
            n, q, [linalg.mat_from_combo(c, w.rows, fld) for c in local]))
    return out


matrices = st.integers(2, 4).flatmap(
    lambda q: st.tuples(
        st.just(q),
        st.lists(st.lists(st.integers(0, q - 1), min_size=5, max_size=5),
                 min_size=1, max_size=4)))


@given(matrices)
@settings(max_examples=120, deadline=None)
def test_rref_is_idempotent_and_spans(case):
    q, rows = case
    fld = build_field(q)
    r = linalg.rref(rows, fld)
    assert linalg.rref(r, fld) == r
    for v in rows:
        assert linalg.in_rowspace(v, r, fld)
    # canonical shape: strictly increasing pivots, pivot columns reduced
    pivots = [next(j for j, x in enumerate(row) if x) for row in r]
    assert pivots == sorted(set(pivots))
    for i, p in enumerate(pivots):
        assert r[i][p] == 1
        assert all(r[k][p] == 0 for k in range(len(r)) if k != i)


@st.composite
def subspaces(draw):
    """A subspace of PG(6,q), q in {2, 3, 4}, of each dimension -1..6: random
    rows, then unit vectors, kept while they raise the rank."""
    q = draw(st.sampled_from((2, 3, 4)))
    d = draw(st.integers(-1, 6))
    vec = st.lists(st.integers(0, q - 1), min_size=7, max_size=7)
    rows = []
    for v in draw(st.lists(vec, max_size=d + 1)) + [
            [int(j == i) for j in range(7)] for i in range(7)]:
        if len(rows) <= d and Subspace.from_vectors(6, q, rows + [v]).d == len(rows):
            rows.append(v)
    return Subspace.from_vectors(6, q, rows)


@given(subspaces())
@settings(max_examples=60, deadline=None)
def test_subspace_text_round_trip(sub):
    assert subspace_from_text(subspace_to_text(sub), 6, sub.q) == sub


def test_rref_canonical_within_span():
    # two different bases of one subspace reduce to the same matrix
    fld = build_field(3)
    a = linalg.rref([(1, 2, 0, 1), (0, 1, 1, 1)], fld)
    # row combos of the same two vectors: v1+v2 and 2*v1+v2
    b = linalg.rref([(1, 0, 1, 2), (2, 2, 1, 0)], fld)
    assert a == b


def test_nullspace_is_the_orthogonal_complement():
    fld = build_field(2)
    rows = linalg.rref([(1, 0, 1, 1, 0), (0, 1, 1, 0, 1)], fld)
    ns = linalg.nullspace(rows, fld, 5)
    assert len(ns) == 3
    for v in ns:
        for r in rows:
            assert sum(a * b for a, b in zip(v, r)) % 2 == 0


@pytest.mark.parametrize("q", [2, 3, 4])
def test_pattern_count_matches_gaussian(q):
    for m in range(1, 6):
        for r in range(0, m + 1):
            got = sum(1 for _ in rref_patterns(m, r, q))
            assert got == gaussian(m, r, q) == PatternCodec(m, r, q).total


@pytest.mark.parametrize("q,m,r", [(2, 7, 4), (3, 5, 2), (4, 4, 2), (5, 4, 3),
                                   (3, 4, 0), (2, 3, 3)])
def test_codec_roundtrip_and_order(q, m, r):
    codec = PatternCodec(m, r, q)
    pats = list(rref_patterns(m, r, q))
    assert codec.total == len(pats)
    arr = codec.array()
    assert arr.dtype == np.int8 and arr.shape == (len(pats), r, m)
    assert np.array_equal(arr, np.array(pats, dtype=np.int8).reshape(len(pats), r, m))
    for t in range(0, codec.total, max(1, codec.total // 97)):
        assert codec.rank(pats[t]) == t
        assert codec.unrank(t) == pats[t]
    assert codec.unrank(codec.total - 1) == pats[-1]
    with pytest.raises(IndexError):
        codec.unrank(codec.total)


def reference_points(n, q):
    """The points of PG(n,q) in the pinned order, built apart from the
    package: every nonzero vector scaled by the inverse of its last nonzero
    entry, as sorted tuples."""
    fld = build_field(q)
    reps = set()
    for v in itertools.product(range(q), repeat=n + 1):
        if any(v):
            s = fld.inv[next(c for c in reversed(v) if c)]
            reps.add(tuple(fld.mul[s][c] for c in v))
    return sorted(reps)


def test_point_indexer_is_sorted_lex():
    for n, q in ((3, 3), (3, 4), (4, 2), (2, 5)):
        idx = point_indexer(n, q)
        ref = reference_points(n, q)
        assert idx.count == len(ref) == gaussian(n + 1, 1, q)
        assert idx.vectors.dtype == np.int64
        assert idx.vectors.tolist() == [list(v) for v in ref]
        for k, v in enumerate(ref):
            assert idx.index_of(v) == k


def test_point_indexer_scaled_vectors():
    idx = point_indexer(3, 3)
    assert idx.count == 40
    # scaled representatives map to the same point
    assert idx.index_of((2, 2, 0, 0)) == idx.index_of((1, 1, 0, 0))
    # in GF(4), 2 * 3 = 1, so (0, 2, 0, 2) spans the point (0, 1, 0, 1)
    idx4 = point_indexer(3, 4)
    assert idx4.index_of((0, 2, 0, 2)) == idx4.index_of((0, 1, 0, 1))
    assert idx4.index_of(np.array([0, 3, 3, 0])) == idx4.index_of((0, 1, 1, 0))


@pytest.mark.parametrize("v,match", [
    ((0, 0, 0, 0), "zero vector"),
    ((1, 0, 0), "length 3 does not match"),
    ((1, 0, 0, 0, 0), "length 5 does not match"),
    ((1, 0, 3, 0), "coordinate outside 0..2"),
    ((1, -1, 0, 0), "coordinate outside 0..2"),
])
def test_index_of_refuses_invalid_vectors(v, match):
    with pytest.raises(ValueError, match=match):
        point_indexer(3, 3).index_of(v)


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 2)])
def test_point_bitset_popcount(q, n):
    for d in range(-1, n + 1):
        sub = Subspace.from_vectors(
            n, q, [[1 if j == i else 0 for j in range(n + 1)]
                   for i in range(d + 1)])
        expect = sum(q ** j for j in range(d + 1))
        assert point_bitset(sub).bit_count() == expect


def test_span_meet_dualize_laws():
    q, n = 2, 4
    subs = [
        Subspace.from_vectors(n, q, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)]),
        Subspace.from_vectors(n, q, [(0, 0, 1, 1, 0), (0, 0, 0, 1, 1)]),
        Subspace.from_vectors(n, q, [(1, 1, 1, 1, 1)]),
    ]
    for a, b in itertools.product(subs, subs):
        sp, mt = span(a, b), meet(a, b)
        assert sp.contains(a) and sp.contains(b)
        assert a.contains(mt) and b.contains(mt)
        # modular law on projective dimensions
        assert sp.d + mt.d == a.d + b.d
        assert dualize(dualize(a)) == a
        assert dualize(sp) == meet(dualize(a), dualize(b))
        assert dualize(mt) == span(dualize(a), dualize(b))
        assert intersect_trivially(a, b) == (mt.d == -1)


def test_dual_dimension():
    for q, n in ((2, 6), (3, 4)):
        for d in range(-1, n + 1):
            sub = Subspace.from_vectors(
                n, q, [[1 if j == i else 0 for j in range(n + 1)]
                       for i in range(d + 1)])
            assert dualize(sub).d == n - d - 1


@pytest.mark.parametrize("q", [2, 3])
def test_enumerate_counts_match_closed_form(q):
    n = 4
    k_sub = Subspace.from_vectors(n, q, [(1, 0, 0, 0, 0)])
    for d in range(n):
        assert sum(1 for _ in enumerate_subspaces(n, q, d)) == gaussian(n + 1, d + 1, q)
        got = sum(1 for _ in enumerate_subspaces(n, q, d, contains=k_sub))
        assert got == s_count(-1, 0, d, n, q)


def test_enumerate_within_and_contradictions(frame2):
    got = list(enumerate_subspaces(6, 2, 2, within=frame2["four_space"]))
    assert len(got) == gaussian(5, 3, 2)
    assert all(frame2["four_space"].contains(e) for e in got)
    # contains outside within: empty stream, not an error
    outside = Subspace.from_vectors(6, 2, [(0, 0, 0, 0, 0, 1, 0)])
    assert list(enumerate_subspaces(6, 2, 2, within=frame2["plane"],
                                    contains=outside)) == []
    with pytest.raises(ValueError):
        list(enumerate_subspaces(6, 2, 9))


def test_subspace_text_roundtrip():
    sub = Subspace.from_vectors(6, 3, [(1, 0, 2, 0, 0, 1, 0),
                                       (0, 1, 1, 0, 2, 0, 0)])
    text = subspace_to_text(sub)
    assert subspace_from_text(text, 6, 3) == sub
    with pytest.raises(ValueError, match="bad dimension"):
        subspace_from_text("x;1,0", 6, 3)
    with pytest.raises(ValueError, match="declares d="):
        subspace_from_text("2;1,0,0,0,0,0,0", 6, 3)
    with pytest.raises(ValueError, match="bad row"):
        subspace_from_text("1;1,0,zz,0,0,0,0", 6, 3)


def test_subspace_validation():
    with pytest.raises(ValueError):
        Subspace.from_vectors(3, 2, [(1, 0)])  # wrong width
    a = Subspace.from_vectors(3, 2, [(1, 0, 0, 0)])
    b = Subspace.from_vectors(4, 2, [(1, 0, 0, 0, 0)])
    with pytest.raises(ValueError):
        span(a, b)


def test_batch_point_bitsets_agree_with_scalar_path():
    n, q = 4, 3
    idx = point_indexer(n, q)
    subs = list(itertools.islice(enumerate_subspaces(n, q, 1), 40))
    mats = np.array([s.rows for s in subs], dtype=np.int64)
    bits = linalg.batch_point_bitsets(mats, q, idx.point_codes(), idx.count)
    for k, sub in enumerate(subs):
        assert sum(int(w) << (64 * i)
                   for i, w in enumerate(bits[:, k])) == point_bitset(sub)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_point_codes_cover_every_nonzero_vector(q):
    """The code of lambda*v maps to the point of v for every nonzero v and
    every lambda in GF(q)*; the zero vector maps to -1."""
    n = 3
    codes = point_indexer(n, q).point_codes()
    index = {v: k for k, v in enumerate(reference_points(n, q))}
    fld = build_field(q)
    assert codes.shape == (q ** (n + 1),) and codes[0] == -1
    for v in itertools.product(range(q), repeat=n + 1):
        if not any(v):
            continue
        s = fld.inv[next(c for c in reversed(v) if c)]
        k = index[tuple(fld.mul[s][c] for c in v)]
        for lam in range(1, q):
            w = [fld.mul[lam][c] for c in v]
            assert codes[sum(c * q ** i for i, c in enumerate(w))] == k


def _combos_of(draw, rows, q, dim):
    """A subspace of dimension dim spanned by random combinations of rows
    (independent rows of one ambient space), topped up from rows itself."""
    fld = build_field(q)
    n = len(rows[0]) - 1
    coeffs = st.lists(st.integers(0, q - 1), min_size=len(rows), max_size=len(rows))
    picked = []
    for v in [linalg.mat_from_combo(c, rows, fld) for c in
              draw(st.lists(coeffs, max_size=dim + 1))] + list(rows):
        if len(picked) <= dim and Subspace.from_vectors(n, q, picked + [v]).d == len(picked):
            picked.append(v)
    return Subspace.from_vectors(n, q, picked)


@st.composite
def constraint_cases(draw):
    """(n, q, d, K, W): W random in PG(n,q), n <= 4, q in {2, 3}.  Mostly K
    inside W and dim K <= d <= dim W; otherwise K and d anywhere, so K may
    miss W."""
    q = draw(st.sampled_from((2, 3)))
    n = 5 - draw(st.integers(1, 4))
    full = Subspace.full(n, q).rows
    w = _combos_of(draw, full, q, n - draw(st.integers(0, n)))
    if draw(st.integers(0, 3)):
        k = _combos_of(draw, w.rows, q, draw(st.integers(-1, w.d)))
        gap = w.d - k.d  # the simplest draw is the middle, the largest stream
        return n, q, k.d + (gap // 2 + draw(st.integers(0, gap))) % (gap + 1), k, w
    k = _combos_of(draw, full, q, draw(st.integers(-1, n)))
    return n, q, draw(st.integers(-1, n)), k, w


def _same_stream(n, q, d, contains, within):
    arr = subspace_array(n, q, d, contains=contains, within=within)
    ref = reference_subspaces(n, q, d, contains, within)
    assert arr.dtype == np.int64 and arr.shape == (len(ref), d + 1, n + 1)
    # each row block is a basis of the subspace the reference yields there
    assert [Subspace.from_vectors(n, q, block) for block in arr] == ref
    assert list(enumerate_subspaces(n, q, d, contains=contains, within=within)) == ref
    return ref


@given(constraint_cases())
@settings(max_examples=150, deadline=None)
def test_subspace_array_follows_enumerate_subspaces(case):
    n, q, d, k, w = case
    ref = _same_stream(n, q, d, k, w)
    if not w.contains(k):
        assert ref == []


@pytest.mark.parametrize("q", [2, 3])
def test_subspace_array_edge_cases(q):
    n = 4
    full = Subspace.full(n, q)
    empty = Subspace.empty(n, q)
    w = Subspace.from_vectors(n, q, [(1, 2 % q, 0, 1, 0), (0, 1, 1, 0, 0),
                                     (0, 0, 0, 1, 1)])
    k = Subspace.from_vectors(n, q, [linalg.mat_from_combo((1, 0, 1), w.rows,
                                                           build_field(q))])
    assert w.contains(k) and k.d == 0
    for d in range(-1, n + 1):
        _same_stream(n, q, d, empty, w)     # K empty
        _same_stream(n, q, d, k, w)         # K inside W, both proper
        _same_stream(n, q, d, k, full)      # W full
        _same_stream(n, q, d, None, None)   # neither
    for d in range(-1, n + 1):                        # K = W
        assert len(_same_stream(n, q, d, w, w)) == (d == w.d)
    assert len(_same_stream(n, q, k.d, k, w)) == 1   # d = dim K
    outside = Subspace.from_vectors(n, q, [(0, 0, 0, 0, 1)])
    assert not w.contains(outside)
    for d in range(0, n + 1):                         # K not inside W
        assert subspace_array(n, q, d, contains=outside, within=w).shape == (0, d + 1, n + 1)
    with pytest.raises(ValueError):
        subspace_array(n, q, n + 1)


@pytest.mark.parametrize("q,sample", [(3, 600), (4, 300)])
def test_plane_ids_gathered_from_solid_ids_match_the_plane_matmul(q, sample):
    """The points of the planes of a solid, gathered from the solid's point
    ids through pattern_point_table, are the points of the planes that the
    local patterns span in the solid's basis.  Seeded solids of PG(6,q); q
    = 4 has local vectors whose last nonzero entry is not 1."""
    n = 6
    codec = PatternCodec(n + 1, 4, q)
    rng = np.random.default_rng(q)
    ords = np.sort(rng.choice(codec.total, size=sample, replace=False))
    solids = np.array([codec.unrank(int(t)) for t in ords], dtype=np.int64)
    local = pattern_point_table(4, 3, q)
    assert local.shape == (gaussian(4, 3, q), q * q + q + 1)
    ids = basis_point_ids(solids, n, q)
    got = np.zeros((len(basis_bitsets(solids[:1], n, q)), sample * len(local)),
                   dtype=np.uint64)
    linalg.scatter_point_ids(got, ids[:, local].reshape(-1, local.shape[1]))
    patterns = PatternCodec(4, 3, q).array().astype(np.int64)
    planes = linalg.field_matmul(patterns, solids[:, None], q).reshape(-1, 3, n + 1)
    assert np.array_equal(got, basis_bitsets(planes, n, q))


matrix_batches = st.sampled_from((2, 3, 4)).flatmap(
    lambda q: st.tuples(
        st.just(q),
        st.integers(1, 4).flatmap(lambda r: st.lists(
            st.lists(st.lists(st.integers(0, q - 1), min_size=5, max_size=5),
                     min_size=r, max_size=r), min_size=1, max_size=6))))


@given(matrix_batches)
@settings(max_examples=100, deadline=None)
def test_batched_arithmetic_matches_row_routines(case):
    q, mats = case
    fld = build_field(q)
    arr = np.array(mats, dtype=np.int64)
    coeffs = np.array(mats[0], dtype=np.int64)[:, :len(mats[0])]
    prod = linalg.field_matmul(coeffs.T[:2], arr, q)
    for got, rows in zip(prod, mats):
        assert [tuple(r) for r in got] == [
            linalg.mat_from_combo(c, tuple(map(tuple, rows)), fld) for c in coeffs.T[:2]]
