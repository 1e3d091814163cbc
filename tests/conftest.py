import numpy as np
import pytest

from flagkneser import build_universe, canonical_frame
from flagkneser.linalg import field_matmul
from flagkneser.projective import PatternCodec, basis_bitsets, subspace_array


@pytest.fixture(scope="session")
def uni2():
    """The fully materialized q=2 flag universe (177165 flags)."""
    return build_universe(2)


@pytest.fixture(scope="session")
def flag_bits():
    """Per-flag word-major point bitsets of the q=2 flags, (planes, solids),
    a (2, 177165) uint64 array each, column t for flag ordinal t.  Built by
    the per-plane route, independent of the universe build: every local
    plane pattern is multiplied through every solid, and the bitsets are
    those of the products."""
    solids = subspace_array(6, 2, 3)
    patterns = PatternCodec(4, 3, 2).array().astype(np.int64)
    planes = field_matmul(patterns, solids[:, None], 2).reshape(-1, 3, 7)
    return (basis_bitsets(planes, 6, 2),
            np.repeat(basis_bitsets(solids, 6, 2), len(patterns), axis=1))


@pytest.fixture(scope="session")
def frame2():
    return canonical_frame(2)


@pytest.fixture(scope="session")
def frame3():
    return canonical_frame(3)
