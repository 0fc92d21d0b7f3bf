"""Exact rank computation over prime fields."""

from __future__ import annotations

import operator

import numpy as np

from .monomials import _is_prime

__all__ = ["rank_mod_p"]


def rank_mod_p(matrix, p: int) -> int:
    """Rank over GF(p) of a 2-d integer matrix.

    Entries are read exactly: one that is not an integer raises TypeError,
    and an integer outside int64 ValueError, before any elimination, so no
    entry is truncated or wraps around.  A wide matrix is ranked as its
    transpose, so the elimination steps through at most as many columns as
    there are rows.

    The elimination is exact in int64: entries are reduced into [0, p) with
    p < 2**31, each update combines products of two such entries, and every
    product stays below 2**62, so no sum or difference of two wraps.
    """
    p = operator.index(p)
    if not _is_prime(p):
        raise ValueError("modulus must be a prime below 2**31")
    a = matrix if isinstance(matrix, np.ndarray) else np.array(matrix, dtype=object)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    int64 = np.iinfo(np.int64)
    if a.dtype == object:
        values = [operator.index(v) for v in a.flat]
        if not all(int64.min <= v <= int64.max for v in values):
            raise ValueError("matrix entries must lie in the int64 range")
        a = np.array(values, dtype=np.int64).reshape(a.shape)
    elif a.dtype.kind not in "biu":
        raise TypeError(f"matrix entries must be integers, not {a.dtype}")
    elif a.dtype == np.uint64 and a.size and a.max() > int64.max:
        raise ValueError("matrix entries must lie in the int64 range")
    a = np.array(a.T if a.shape[1] > a.shape[0] else a, dtype=np.int64, order="C")
    a %= p
    return _eliminate(a, p)


def _eliminate(a: np.ndarray, p: int) -> int:
    """Rank of a reduced (m, n) matrix, eliminating column by column in place.

    A row that has served as a pivot is retired.  In each column the first
    unretired row with a nonzero entry is the pivot, and each other
    unretired row with a nonzero entry there becomes
    pivot * row - entry * pivot_row, which clears the entry without a
    modular inverse.  Columns up to the current one are never read again,
    so only the columns to its right are updated.
    """
    m, n = a.shape
    free = np.ones(m, dtype=bool)
    for c in range(n):
        hit = free & (a[:, c] != 0)
        if not hit.any():
            continue
        piv = int(hit.argmax())
        free[piv] = hit[piv] = False
        rows = np.flatnonzero(hit)
        if rows.size and c + 1 < n:
            a[rows, c + 1 :] = (a[rows, c + 1 :] * a[piv, c] - a[piv, c + 1 :] * a[rows, c, None]) % p
    return m - int(free.sum())
