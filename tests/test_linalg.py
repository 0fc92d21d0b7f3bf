"""Modular ranks of single matrices and of stacks, against the pure-Python oracle."""

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
def test_stacked_ranks_match_the_oracle(p):
    rng = np.random.default_rng(p % 1000)
    for _ in range(40):
        count, m, n = (int(v) for v in rng.integers(1, [7, 10, 10]))
        stack = np.zeros((count, m, n), dtype=np.int64)
        expected = []
        for b in range(count):
            # each matrix fills only a corner; the rest is zero padding
            h, w = int(rng.integers(0, m + 1)), int(rng.integers(0, n + 1))
            stack[b, :h, :w] = _random_matrix(rng, p, h, w)
            expected.append(oracle_rank_mod_p(stack[b, :h, :w].tolist(), p))
        got = rank_mod_p(stack, p)
        assert got.shape == (count,) and got.tolist() == expected
        assert [rank_mod_p(mat, p) for mat in stack] == expected


@pytest.mark.parametrize("p", PRIMES)
def test_signed_entries_reduce_before_elimination(p):
    rng = np.random.default_rng(5)
    for _ in range(20):
        stack = rng.integers(-1, 2, size=(5, 6, 4), dtype=np.int64)
        expected = [oracle_rank_mod_p(mat.tolist(), p) for mat in stack]
        assert rank_mod_p(stack, p).tolist() == expected


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (4, 5, 5), (1, 1, 1)])
def test_empty_and_all_zero_stacks(p, shape):
    assert rank_mod_p(np.zeros(shape, dtype=np.int64), p).tolist() == [0] * shape[0]


@pytest.mark.parametrize("p", [0, 1, 2**31, 2**40])
def test_modulus_outside_the_exact_range_is_rejected(p):
    with pytest.raises(ValueError):
        rank_mod_p(np.eye(2, dtype=np.int64), p)


def test_neither_a_matrix_nor_a_stack_is_rejected():
    with pytest.raises(ValueError):
        rank_mod_p(np.zeros(3, dtype=np.int64), 3)
