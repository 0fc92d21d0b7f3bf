"""Betti numbers via the subset-lcm resolution of a monomial quotient.

The resolution is indexed by subsets of the minimal generators, with the
componentwise max (lcm exponent) as the multidegree of each subset.  Mapping
it into the residue field keeps exactly the differential entries whose lcm
ratio is the unit monomial; graded ranks of those sign matrices give the
Betti numbers, hence projective dimension and (by Auslander-Buchsbaum)
depth.  The resolution is used un-minimized: Betti numbers do not depend on
the chosen resolution.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .linalg import rank_mod_p
from .monomials import MonomialIdeal

__all__ = [
    "betti_numbers",
    "pd_quotient",
    "depth_quotient",
    "differential_matrices_over_field",
    "subset_lcms",
    "masks_by_size",
    "incidence_sign",
]


@lru_cache(maxsize=None)
def masks_by_size(r: int) -> tuple[tuple[int, ...], ...]:
    """Subset bitmasks of {0..r-1} grouped by popcount."""
    levels = [[] for _ in range(r + 1)]
    for mask in range(1 << r):
        levels[mask.bit_count()].append(mask)
    return tuple(tuple(level) for level in levels)


def incidence_sign(mask: int, bit: int) -> int:
    """Sign of the face map inserting ``bit`` into ``mask`` (alternating)."""
    return -1 if (mask & (bit - 1)).bit_count() & 1 else 1


def subset_lcms(gens, n: int) -> np.ndarray:
    """(2^r, n) array of componentwise maxima over every generator subset."""
    r = len(gens)
    alpha = np.zeros((1 << r, n), dtype=np.int16)
    if r:
        g = np.asarray(gens, dtype=np.int16).reshape(r, n)
        for mask in range(1, 1 << r):
            low = mask & -mask
            alpha[mask] = np.maximum(alpha[mask ^ low], g[low.bit_length() - 1])
    return alpha


def differential_matrices_over_field(I: MonomialIdeal) -> list[np.ndarray]:
    """Sign matrices d_1..d_r of the subset-lcm complex mapped into the field.

    Entry (T-minus-t, T) is the incidence sign when the two subsets share
    the same lcm exponent, otherwise 0.
    """
    r = len(I.gens)
    alpha = subset_lcms(I.gens, I.ring.n)
    levels = masks_by_size(r)
    mats = []
    for i in range(1, r + 1):
        rows = {m: a for a, m in enumerate(levels[i - 1])}
        mat = np.zeros((len(levels[i - 1]), len(levels[i])), dtype=np.int64)
        for col, mask in enumerate(levels[i]):
            rem = mask
            while rem:
                bit = rem & -rem
                rem ^= bit
                face = mask ^ bit
                if (alpha[mask] == alpha[face]).all():
                    mat[rows[face], col] = incidence_sign(face, bit)
        mats.append(mat)
    return mats


# bounded for long-running processes; the default corpus fills about 3 000 entries
@lru_cache(maxsize=32_768)
def betti_numbers(I: MonomialIdeal) -> tuple[int, ...]:
    """Total Betti numbers (beta_0..beta_r) of S/I over GF(char)."""
    if I.is_unit:
        raise ValueError("the unit ideal presents the zero module")
    p = I.ring.char
    if p == 0:
        raise ValueError("prime characteristic required by the rank engine")
    r = len(I.gens)
    if r == 0:
        return (1,)
    ranks = [rank_mod_p(m, p) for m in differential_matrices_over_field(I)]
    betti = []
    for i in range(r + 1):
        incoming = ranks[i] if i < r else 0
        outgoing = ranks[i - 1] if i >= 1 else 0
        betti.append(comb(r, i) - incoming - outgoing)
    return tuple(betti)


def pd_quotient(I: MonomialIdeal) -> int:
    """Projective dimension of S/I: the top nonvanishing Betti index."""
    betti = betti_numbers(I)
    return max(i for i, b in enumerate(betti) if b)


def depth_quotient(I: MonomialIdeal) -> int:
    """Depth of S/I via the Auslander-Buchsbaum formula."""
    return I.ring.n - pd_quotient(I)
