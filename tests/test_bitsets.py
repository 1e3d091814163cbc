"""The word-major point-bitset layout and its kernels against the scalar
references: point_bitset (a Python int per subspace), int `&` and
bit_count, dualize and span, and the flag-level adjacent()."""
import numpy as np
from hypothesis import given, settings, strategies as st

from flagkneser import linalg
from flagkneser.flags import adjacent, adjacent_bits
from flagkneser.linalg import disjoint, least_pair, popcount, subset, superset
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
    if q != 4:
        # the batch takes any basis, reduced or not
        idx = point_indexer(n, q)
        raw = linalg.batch_point_bitsets(np.array(mats), q, idx.point_codes(),
                                         idx.count)
        assert np.array_equal(raw, bits)


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
    assert superset(a, b).tolist() == [x & y == y for x, y in pairs]
    assert popcount(a).tolist() == [x.bit_count() for x in ints_a]
    assert popcount(a & b).tolist() == [(x & y).bit_count() for x, y in pairs]
    # one (W,) column broadcasts against every column
    w, y = b[:, 0], ints_b[0]
    assert disjoint(a, w).tolist() == [x & y == 0 for x in ints_a]
    assert subset(w, a).tolist() == [y & ~x == 0 for x in ints_a]
    assert superset(a, w).tolist() == [x & y == y for x in ints_a]


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
def test_adjacent_mask_matches_flag_adjacency(uni2, data):
    a = data.draw(st.integers(0, uni2.flag_count - 1))
    mask = uni2.adjacent_mask(a)
    neighbours = np.flatnonzero(mask)
    b = data.draw(st.one_of(
        st.integers(0, uni2.flag_count - 1),
        st.sampled_from(neighbours.tolist())))
    f, g = uni2.flag(a), uni2.flag(b)
    assert bool(mask[b]) == adjacent(f, g) == adjacent(g, f)
    planes, solids = uni2.plane_bits, uni2.solid_bits
    assert bool(adjacent_bits(planes[:, a], solids[:, a],
                              planes[:, b], solids[:, b])) == adjacent(f, g)
    assert _to_int(planes[:, a]) == point_bitset(f.plane)
    assert _to_int(solids[:, b]) == point_bitset(g.solid)
