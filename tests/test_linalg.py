"""Modular ranks of single matrices, against the pure-Python oracle."""

import numpy as np
import pytest

from relhom.linalg import rank_mod_p

from conftest import oracle_rank_mod_p

PRIMES = [2, 3, 32003, 2**31 - 1]


def _random_matrix(rng, p, m, n):
    """A random m x n matrix with entries in [0, p), of full or deliberately low rank."""
    if rng.random() < 0.5:
        return rng.integers(0, p, size=(m, n), dtype=np.int64)
    k = int(rng.integers(0, min(m, n) + 1))
    left = rng.integers(0, p, size=(m, k)).astype(object)
    right = rng.integers(0, p, size=(k, n)).astype(object)
    return (left.dot(right) % p if k else np.zeros((m, n), dtype=object)).astype(np.int64)


@pytest.mark.parametrize("p", PRIMES)
def test_ranks_match_the_oracle(p):
    # random shapes, zero rows or columns among them, tall and wide; each
    # matrix is ranked alone and inside a zero-padded frame, which changes
    # no rank
    rng = np.random.default_rng(p % 1000)
    for _ in range(40):
        count, m, n = (int(v) for v in rng.integers(1, [7, 10, 10]))
        for _ in range(count):
            h, w = int(rng.integers(0, m + 1)), int(rng.integers(0, n + 1))
            corner = _random_matrix(rng, p, h, w)
            framed = np.zeros((m, n), dtype=np.int64)
            framed[:h, :w] = corner
            expected = oracle_rank_mod_p(corner.tolist(), p)
            assert rank_mod_p(corner, p) == rank_mod_p(framed, p) == expected
            assert rank_mod_p(corner.T, p) == expected and type(rank_mod_p(corner, p)) is int


@pytest.mark.parametrize("p", PRIMES)
def test_signed_entries_reduce_before_elimination(p):
    rng = np.random.default_rng(5)
    for _ in range(20):
        for mat in rng.integers(-1, 2, size=(5, 6, 4), dtype=np.int64):
            assert rank_mod_p(mat, p) == rank_mod_p(mat.T, p) == oracle_rank_mod_p(mat.tolist(), p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", [(0, 4), (3, 0), (4, 0), (0, 0), (5, 5), (1, 1)])
def test_empty_and_all_zero_matrices(p, shape):
    assert rank_mod_p(np.zeros(shape, dtype=np.int64), p) == 0


@pytest.mark.parametrize("p", [0, 1, 2**31, 2**40])
def test_modulus_outside_the_exact_range_is_rejected(p):
    with pytest.raises(ValueError):
        rank_mod_p(np.eye(2, dtype=np.int64), p)


@pytest.mark.parametrize("shape", [(3,), (2, 3, 4), (1, 1, 1), ()])
def test_anything_but_a_matrix_is_rejected(shape):
    with pytest.raises(ValueError):
        rank_mod_p(np.zeros(shape, dtype=np.int64), 3)


def test_entries_are_read_exactly():
    # every integer dtype and Python ints up to the int64 range reduce
    # exactly mod p; 2**63 - 1 = 2 mod 5, -2**63 = 0 mod 2
    assert rank_mod_p(np.array([[2**63 - 1]], dtype=np.uint64), 5) == 1
    assert rank_mod_p(np.array([[2**63 - 1]], dtype=np.uint64), 7) == 0
    assert rank_mod_p([[-(2**63)]], 2) == 0 and rank_mod_p([[-(2**63)]], 3) == 1
    assert rank_mod_p(np.array([[True, False], [False, True]]), 2) == 2
    assert rank_mod_p(np.array([[5, 10]], dtype=np.uint8), 5) == 0
    assert rank_mod_p([[np.int16(3), 1], [6, 2]], 32003) == 1
    assert rank_mod_p([[]], 3) == 0
