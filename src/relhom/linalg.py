"""Exact rank computation over prime fields."""

from __future__ import annotations

import operator

import numpy as np

from .monomials import _is_prime

__all__ = ["rank_mod_p"]


def rank_mod_p(matrix, p: int):
    """Rank over GF(p) of an integer matrix, or of every matrix of a stack.

    A 3-d (B, m, n) stack returns the B ranks as an int64 array, from one
    elimination that steps through the n columns of all B matrices
    together.  Matrices of different shapes share a stack by zero padding,
    which changes no rank.  The elimination updates at most about
    B*m*n*n/2 cells, so a caller should orient its matrices with n <= m.
    A 2-d matrix is ranked as a stack of one and its rank returned as an
    int, so there is one elimination.

    The elimination is exact in int64: entries are reduced into [0, p) with
    p < 2**31, each update combines products of two such entries, and every
    product stays below 2**62, so no sum or difference of two wraps.
    """
    p = operator.index(p)
    if not _is_prime(p):
        raise ValueError("modulus must be a prime below 2**31")
    a = np.array(matrix, dtype=np.int64, copy=True)
    a %= p
    if a.ndim == 2:
        return int(_stack_rank(a[None], p)[0])
    if a.ndim != 3:
        raise ValueError("expected a 2-d matrix or a 3-d stack")
    return _stack_rank(a, p)


def _stack_rank(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a reduced (B, m, n) stack, eliminating column by column in lock step.

    A row that has served as a pivot is retired.  In each column every
    matrix picks its first unretired row with a nonzero entry, and each
    other unretired row with a nonzero entry there becomes
    pivot * row - entry * pivot_row, which clears the entry without a
    modular inverse.  Columns up to the current one are never read again,
    so only the columns to its right are updated.
    """
    count, m, n = a.shape
    free = np.ones((count, m), dtype=bool)
    batch = np.arange(count)
    for c in range(n):
        col = a[:, :, c]
        hit = free & (col != 0)
        has = hit.any(axis=1)
        if not has.any():
            continue
        piv = hit.argmax(axis=1)
        free[batch[has], piv[has]] = False
        hit[batch[has], piv[has]] = False
        mat, row = np.nonzero(hit)
        if mat.size and c + 1 < n:
            top = piv[mat]
            rows = a[mat, row, c + 1:]
            rows *= col[mat, top][:, None]
            pivot_rows = a[mat, top, c + 1:]
            pivot_rows *= col[mat, row][:, None]
            rows -= pivot_rows
            rows %= p
            a[mat, row, c + 1:] = rows
    return m - free.sum(axis=1, dtype=np.int64)
