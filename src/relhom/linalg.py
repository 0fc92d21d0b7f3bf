"""Exact rank computation over prime fields."""

from __future__ import annotations

import numpy as np

__all__ = ["rank_mod_p"]


def rank_mod_p(matrix, p: int):
    """Rank over GF(p) of an integer matrix, or of every matrix of a stack.

    A 2-d matrix is row-reduced serially and its rank returned as an int.
    The Betti matrices of ``taylor`` are many and tiny; on those of the
    default corpus this loop is about 2.5x faster than a stack of one.

    A 3-d (B, m, n) stack returns the B ranks as an int64 array, from one
    elimination that steps through the n columns of all B matrices
    together.  Matrices of different shapes share a stack by zero padding,
    which changes no rank.  The elimination updates at most about
    B*m*n*n/2 cells, so a caller should orient its matrices with n <= m.

    Both forms are exact in int64: entries are reduced into [0, p) with
    p < 2**31, each update combines products of two such entries, and every
    product stays below 2**62, so no sum or difference of two wraps.
    """
    if not 2 <= p < 2**31:
        raise ValueError("modulus must be a prime below 2**31")
    a = np.array(matrix, dtype=np.int64, copy=True)
    a %= p
    if a.ndim == 3:
        return _stack_rank(a, p)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix or a 3-d stack")
    m, n = a.shape
    if m == 0 or n == 0:
        return 0
    rank = 0
    for col in range(n):
        pivots = np.nonzero(a[rank:, col])[0]
        if pivots.size == 0:
            continue
        piv = rank + int(pivots[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), -1, p)
        a[rank] = a[rank] * inv % p
        below = np.nonzero(a[rank + 1:, col])[0] + rank + 1
        if below.size:
            a[below] = (a[below] - np.outer(a[below, col], a[rank])) % p
        rank += 1
        if rank == m:
            break
    return rank


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
