"""The word-major point-bitset layout and its kernels against the scalar
references: point_bitset (a Python int per subspace), int `&` and
bit_count, dualize and span, and the flag-level adjacent(); and the point
ids of batch_point_ids against the coefficient matmul."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagkneser import linalg
from flagkneser.galois import SUPPORTED_ORDERS
from flagkneser.flags import _disjointness_table, adjacent, adjacent_bits
from flagkneser.linalg import disjoint, least_pair, meet_count, popcount, subset
from flagkneser.projective import (Subspace, dualize, perp_bitsets,
                                   point_bitset, point_bitsets, point_indexer,
                                   point_words, span)


def _to_int(column) -> int:
    return sum(int(w) << (64 * k) for k, w in enumerate(column))


@st.composite
def subspace_batches(draw):
    """(q, n, rows): 1-6 random full-rank (d+1) x (n+1) matrices over
    GF(q), q in {2, 3, 4}, all of one rank.  Rows are not reduced."""
    q = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(2, 5))
    d = draw(st.integers(0, n - 1))
    k = draw(st.integers(1, 6))
    coords = st.lists(st.integers(0, q - 1), min_size=n + 1, max_size=n + 1)
    mats = draw(st.lists(st.lists(coords, min_size=d + 1, max_size=d + 1),
                         min_size=k, max_size=k))
    full = [m for m in mats if Subspace.from_vectors(n, q, m).d == d]
    return q, n, full or [[[1 if j == i else 0 for j in range(n + 1)]
                           for i in range(d + 1)]]


@given(subspace_batches())
@settings(max_examples=150, deadline=None)
def test_batched_route_matches_scalar_point_bitset(case):
    q, n, mats = case
    subs = [Subspace.from_vectors(n, q, m) for m in mats]
    bits = point_bitsets(subs, n, q)
    nwords = (point_indexer(n, q).count + 63) // 64
    assert bits.shape == (nwords, len(subs))
    assert bits.dtype == np.uint64 and bits.flags.c_contiguous
    for i, sub in enumerate(subs):
        assert _to_int(bits[:, i]) == point_bitset(sub)
        assert _to_int(point_words(sub)) == point_bitset(sub)
    # the batch takes any basis, reduced or not
    idx = point_indexer(n, q)
    raw = linalg.batch_point_bitsets(np.array(mats), q, idx.point_codes(),
                                     idx.count)
    assert np.array_equal(raw, bits)
    # point_bits reads the bits back, a row per subspace, one column alone too
    rows = linalg.point_bits(bits)
    assert rows.shape == (len(subs), 64 * nwords) and rows.dtype == bool
    for i, sub in enumerate(subs):
        assert sum(1 << int(p) for p in np.flatnonzero(rows[i])) == point_bitset(sub)
        assert np.array_equal(linalg.point_bits(bits[:, i]), rows[i:i + 1])


@given(subspace_batches(), st.data())
@settings(max_examples=150, deadline=None)
def test_kernels_match_int_operations(case, data):
    q, n, mats = case
    subs = [Subspace.from_vectors(n, q, m) for m in mats]
    # pair every subspace with a partner of any dimension
    partners = []
    for _ in subs:
        d = data.draw(st.integers(0, n))
        partners.append(Subspace.from_vectors(n, q, data.draw(st.lists(
            st.lists(st.integers(0, q - 1), min_size=n + 1, max_size=n + 1),
            min_size=d + 1, max_size=d + 1))))
    a = point_bitsets(subs, n, q)
    b = np.stack([point_words(t) for t in partners], axis=1)
    ints_a = [point_bitset(t) for t in subs]
    ints_b = [point_bitset(t) for t in partners]
    pairs = list(zip(ints_a, ints_b))
    assert disjoint(a, b).tolist() == [x & y == 0 for x, y in pairs]
    assert subset(a, b).tolist() == [x & ~y == 0 for x, y in pairs]
    assert subset(b, a).tolist() == [x & y == y for x, y in pairs]
    assert popcount(a).tolist() == [x.bit_count() for x in ints_a]
    assert popcount(a & b).tolist() == [(x & y).bit_count() for x, y in pairs]
    assert meet_count(a, b).tolist() == [(x & y).bit_count() for x, y in pairs]
    # one (W,) column broadcasts against every column
    w, y = b[:, 0], ints_b[0]
    assert disjoint(a, w).tolist() == [x & y == 0 for x in ints_a]
    assert subset(w, a).tolist() == [y & ~x == 0 for x in ints_a]
    assert subset(a, w).tolist() == [x & ~y == 0 for x in ints_a]
    assert meet_count(a, w).tolist() == [(x & y).bit_count() for x in ints_a]


@st.composite
def subspace_pairs(draw):
    """(q, n, X, Y): two random subspaces of PG(n,q), q in {2, 3, 4}, each
    of dimension 0..n."""
    q = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(2, {2: 6, 3: 4, 4: 3}[q]))
    coords = st.lists(st.integers(0, q - 1), min_size=n + 1, max_size=n + 1)
    subs = [Subspace.from_vectors(n, q, draw(st.lists(
        coords, min_size=1, max_size=n + 1))) for _ in range(2)]
    return (q, n, *[t if t.d >= 0 else Subspace.from_vectors(
        n, q, [[1] + [0] * n]) for t in subs])


@given(subspace_pairs())
@settings(max_examples=150, deadline=None)
def test_perp_bitsets_matches_dualize(case):
    q, n, x, y = case
    bits = np.stack([point_words(x), point_words(y)], axis=1)
    perp = perp_bitsets(bits, n, q)
    assert np.array_equal(perp[:, 0], point_words(dualize(x)))
    assert np.array_equal(perp[:, 1], point_words(dualize(y)))
    # a point set has the complement of its span: the saturation profile
    # takes hull(E)^perp from the OR of the member solids
    union = perp_bitsets(bits[:, :1] | bits[:, 1:], n, q)
    assert np.array_equal(union[:, 0], point_words(dualize(span(x, y))))


@given(subspace_batches(), st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_least_pair_is_the_least_flagged_pair(case, cut):
    q, n, mats = case
    subs = [Subspace.from_vectors(n, q, m) for m in mats]
    ints = [point_bitset(t) for t in subs]
    bits = point_bitsets(subs, n, q)
    flagged = [(i, j) for i in range(len(ints)) for j in range(i + 1, len(ints))
               if (ints[i] & ints[j]).bit_count() <= cut]
    got = least_pair(bits, lambda a, b: popcount(a & b) <= cut)
    assert got == (flagged[0] if flagged else None)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_adjacent_mask_matches_flag_adjacency(uni2, flag_bits, data):
    a = data.draw(st.integers(0, uni2.flag_count - 1))
    mask = uni2.adjacent_mask(a)
    neighbours = np.flatnonzero(mask)
    b = data.draw(st.one_of(
        st.integers(0, uni2.flag_count - 1),
        st.sampled_from(neighbours.tolist())))
    f, g = uni2.flag(a), uni2.flag(b)
    assert bool(mask[b]) == adjacent(f, g) == adjacent(g, f)
    planes, solids = flag_bits
    assert bool(adjacent_bits(planes[:, a], solids[:, a],
                              planes[:, b], solids[:, b])) == adjacent(f, g)
    assert _to_int(planes[:, a]) == point_bitset(f.plane)
    assert _to_int(solids[:, b]) == point_bitset(g.solid)


def _all_words(test, a, b):
    """A kernel's reference: test every word of a and b (broadcast against
    each other) and AND over the word axis."""
    return test(a, b).all(axis=0)


def _sparse_words(rng, shape):
    """uint64 words with about one bit in 16 set and half the words zero,
    so that random columns are disjoint, or contain one another, often
    enough to test both verdicts."""
    words = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
    for _ in range(3):
        words &= rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
    words[rng.random(shape) < 0.5] = 0
    return words


@pytest.mark.parametrize("nonzero", [[3, 4, 5], [0, 5], [0, 1, 2], [2], []],
                         ids=["zeros_first", "zeros_middle", "zeros_last",
                              "one_word", "empty_set"])
def test_single_column_kernels_match_all_words(nonzero):
    """A single (W,) column is read on its nonzero words only; the verdicts
    are those of the test over all W words, whichever words are zero."""
    rng = np.random.default_rng(22 + len(nonzero))
    bits = _sparse_words(rng, (6, 400))
    col = np.zeros(6, dtype=np.uint64)
    for k in nonzero:
        col[k] = np.uint64(1) << np.uint64(rng.integers(64)) | \
            np.uint64(1) << np.uint64(rng.integers(64))
    bits[:, :40] |= col[:, None]  # columns containing col
    meets = lambda x, y: (x & y) == 0
    within = lambda x, y: (x & y) == x
    cases = [(disjoint(bits, col), _all_words(meets, bits, col[:, None])),
             (disjoint(col, bits), _all_words(meets, col[:, None], bits)),
             (subset(col, bits), _all_words(within, col[:, None], bits)),
             (subset(bits, col), _all_words(within, bits, col[:, None]))]
    for got, want in cases:
        assert got.dtype == bool and got.shape == (400,)
        assert np.array_equal(got, want)
    if nonzero:
        for got, want in cases[:3]:
            assert want.any() and not want.all()
    else:  # the empty set misses and lies in every column
        assert cases[0][0].all() and cases[1][0].all() and cases[2][0].all()


def test_kernels_on_two_single_columns_return_a_bool():
    rng = np.random.default_rng(22)
    cols = _sparse_words(rng, (6, 40))
    cols[:, 20:] |= cols[:, :20]
    for i in range(20):
        a, b = cols[:, i], cols[:, 20 + i]
        for got, want in ((disjoint(a, b), not (a & b).any()),
                          (subset(a, b), ((a & b) == a).all()),
                          (subset(b, a), ((a & b) == b).all())):
            assert isinstance(got, np.bool_) and got == want
    empty = np.zeros(6, dtype=np.uint64)  # no word to read: still a bool
    for got in (disjoint(empty, cols[:, 0]), disjoint(cols[:, 0], empty),
                subset(empty, cols[:, 0])):
        assert isinstance(got, np.bool_) and got


def test_broadcast_kernels_match_all_words():
    """The 3-D broadcast of flags._disjointness_table, and a single column
    against a 3-D array, agree with the all-words reference."""
    rng = np.random.default_rng(23)
    rows, cols = _sparse_words(rng, (6, 150)), _sparse_words(rng, (6, 70))
    meets = lambda x, y: (x & y) == 0
    want = _all_words(meets, rows[:, :, None], cols[:, None, :])
    assert np.array_equal(_disjointness_table(rows, cols), want)
    assert np.array_equal(disjoint(rows[:, :, None], cols[:, None, :]), want)
    col = cols[:, 0]
    assert np.array_equal(disjoint(rows[:, :, None], col),
                          _all_words(meets, rows[:, :, None], col[:, None, None]))
    assert np.array_equal(subset(col, rows[:, :, None]),
                          _all_words(lambda x, y: (x & y) == x,
                                     col[:, None, None], rows[:, :, None]))


def _reference_point_ids(mats, q, point_codes):
    """Point ids by the coefficient matmul: every coefficient_reps(r, q)
    row times each basis over GF(q), looked up by its base-q code."""
    vecs = linalg.field_matmul(linalg.coefficient_reps(mats.shape[1], q), mats, q)
    return point_codes[vecs @ q ** np.arange(mats.shape[2], dtype=np.int64)]


def _unreduced_bases(rng, count, r, m, q):
    """count random rank-r bases of GF(q)^m that are not in RREF: [I | X]
    with its columns shuffled, mixed by an upper triangular matrix with a
    nonzero diagonal, so the rank stays r and the pivots are not 1."""
    eye = np.broadcast_to(np.eye(r, dtype=np.int64), (count, r, r))
    base = np.concatenate([eye, rng.integers(0, q, (count, r, m - r))], axis=2)
    mix = np.triu(rng.integers(0, q, (count, r, r)), 1)
    mix[:, np.arange(r), np.arange(r)] = rng.integers(1, q, (count, r))
    return linalg.field_matmul(mix, base[:, :, rng.permutation(m)], q)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_batch_point_ids_match_the_coefficient_matmul(q):
    """Every rank r = 0..m of GF(q)^m, q^m up to 4096, on batches of 0, 1
    and 5 unreduced bases: the same ids in the same columns."""
    rng = np.random.default_rng(q)
    m = 1
    while q ** m <= 4096:
        point_codes = point_indexer(m - 1, q).point_codes()
        for r in range(m + 1):
            for count in (0, 1, 5):
                mats = _unreduced_bases(rng, count, r, m, q)
                want = _reference_point_ids(mats, q, point_codes)
                got = linalg.batch_point_ids(mats, q, point_codes)
                assert got.dtype == np.int64 and got.shape == want.shape
                assert np.array_equal(got, want), (q, m, r, count)
                assert (got >= 0).all()
        m += 1


@pytest.mark.parametrize("m,q,r,count", [
    (13, 3, 8, 4),    # lifted digits of all 13 coordinates overflow 63 bits
    (13, 3, 13, 1),   # every point of PG(12,3)
    (5, 16, 5, 1),    # every point of PG(4,16), lift tables of 16^3 codes
])
def test_batch_point_ids_over_column_groups(m, q, r, count):
    """Spaces whose coordinates split into column groups, exact against the
    coefficient matmul.  The lookup is code_positions itself, the point
    numbering of PointIndexer up to order, which these sizes do without
    sorting every point."""
    rng = np.random.default_rng(m * q)
    point_codes = linalg.code_positions(linalg.coefficient_reps(m, q), q)
    mats = _unreduced_bases(rng, count, r, m, q)
    got = linalg.batch_point_ids(mats, q, point_codes)
    assert np.array_equal(got, _reference_point_ids(mats, q, point_codes))
    if r == m:
        assert np.array_equal(np.sort(got[0]), np.arange(got.shape[1]))
