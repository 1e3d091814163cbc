import hashlib
import itertools

import pytest
from hypothesis import given, strategies as st

from flagkneser.galois import SUPPORTED_ORDERS, build_field


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_field_axioms(q):
    """Exhaustive field axioms; the whole table is tiny even at q=16."""
    fld = build_field(q)
    els = range(q)
    for a, b in itertools.product(els, els):
        assert fld.add[a][b] == fld.add[b][a]
        assert fld.mul[a][b] == fld.mul[b][a]
    for a, b, c in itertools.product(els, els, els):
        assert fld.add[fld.add[a][b]][c] == fld.add[a][fld.add[b][c]]
        assert fld.mul[fld.mul[a][b]][c] == fld.mul[a][fld.mul[b][c]]
        assert fld.mul[a][fld.add[b][c]] == fld.add[fld.mul[a][b]][fld.mul[a][c]]
    for a in els:
        assert fld.add[a][0] == a
        assert fld.mul[a][1] == a
        assert fld.mul[a][0] == 0
        assert fld.add[a][fld.neg[a]] == 0
        if a:
            assert fld.mul[a][fld.inv[a]] == 1


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_characteristic(q):
    fld = build_field(q)
    p = fld.p
    acc = 0
    for _ in range(p):
        acc = fld.add[acc][1]
    assert acc == 0
    assert q == p ** fld.e


def test_prime_subfield_matches_mod_arithmetic():
    for q in (2, 3, 5, 7, 11, 13):
        fld = build_field(q)
        for a in range(q):
            for b in range(q):
                assert fld.add[a][b] == (a + b) % q
                assert fld.mul[a][b] == (a * b) % q


def test_extension_field_pinned_entries():
    # pinned products fixing the modulus choice, so tables cannot silently
    # drift: x*x in GF(4) and GF(9) under the stored moduli
    assert build_field(4).mul[2][2] == 3
    assert build_field(9).mul[3][3] == 4


# sha256 over q, add, mul, neg and inv of every supported order, one byte
# per entry, frozen from the long-hand polynomial product so the tables
# cannot drift when the construction changes
_FIELD_TABLES_SHA256 = "67351d89e4ba54d692401c20ff6c614f17fe007e39c1b46cbd731c0e44f21f76"


def test_field_tables_are_pinned():
    h = hashlib.sha256()
    for q in SUPPORTED_ORDERS:
        fld = build_field(q)
        h.update(bytes(itertools.chain([q], *fld.add, *fld.mul, fld.neg, fld.inv)))
    assert h.hexdigest() == _FIELD_TABLES_SHA256


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_sub_div_power(q):
    fld = build_field(q)
    for a in range(q):
        for b in range(q):
            assert fld.add[fld.sub(a, b)][b] == a
            if b:
                assert fld.mul[fld.div(a, b)][b] == a
    # a^(q-1) = 1 for a != 0
    for a in range(1, q):
        assert fld.power(a, q - 1) == 1
    assert fld.power(0, 0) == 1


@pytest.mark.parametrize("bad", [0, 1, 6, 10, 12, 100, 32])
def test_rejects_unsupported_orders(bad):
    with pytest.raises(ValueError):
        build_field(bad)


def test_build_field_is_cached():
    assert build_field(8) is build_field(8)


@given(st.sampled_from(SUPPORTED_ORDERS), st.data())
def test_frobenius_is_additive(q, data):
    """(a+b)^p = a^p + b^p, a property only true because the tables really
    implement a field of characteristic p."""
    fld = build_field(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    lhs = fld.power(fld.add[a][b], fld.p)
    rhs = fld.add[fld.power(a, fld.p)][fld.power(b, fld.p)]
    assert lhs == rhs
