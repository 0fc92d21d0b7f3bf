"""Betti numbers via the subset-lcm resolution of a monomial quotient.

The resolution is indexed by subsets of the minimal generators, with the
componentwise max (lcm exponent) as the multidegree of each subset.  Mapping
it into the residue field keeps exactly the differential entries between
subsets with the same lcm, so the complex splits into one strand per
distinct lcm, and beta_i is the sum over strands of dim H_i of the strand.
A strand is a subset complex whose activity pattern is one column, which is
what the slice kernel ``_lattice_dims`` ranks; a strand of a single subset
has no differential and adds 1 to beta of its size.  Betti numbers give the
projective dimension and (by Auslander-Buchsbaum) depth.  The resolution is
used un-minimized: Betti numbers do not depend on the chosen resolution.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .monomials import MonomialIdeal
from .slices import _check_scan_size, _lattice_dims, _level_layout, subset_lcms

__all__ = ["betti_numbers", "pd_quotient", "depth_quotient"]


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
    # (r + 1) levels of 2^r subsets bound every Taylor scan from below; check before allocating
    _check_scan_size((r + 1,), r, "Taylor complex")
    alpha = subset_lcms(I.gens, I.ring.n)
    keys = alpha.view(np.dtype((np.void, alpha.shape[1] * alpha.itemsize))).ravel()
    _, strand, size = np.unique(keys, return_inverse=True, return_counts=True)
    shared = size[strand] > 1
    order, offsets, _, _ = _level_layout(r)
    betti = np.add.reduceat(~shared[order], offsets[:-1], dtype=np.int64)
    if shared.any():
        # one activity column per strand of two or more subsets
        column = np.cumsum(size > 1) - 1
        count = int(column[-1]) + 1
        _check_scan_size((count,), r, "Taylor complex")
        members = np.flatnonzero(shared)
        active = np.zeros((1 << r, count), dtype=bool)
        active[members, column[strand[members]]] = True
        betti += _lattice_dims(active, p).sum(axis=1)
    return tuple(betti.tolist())


def pd_quotient(I: MonomialIdeal) -> int:
    """Projective dimension of S/I: the top nonvanishing Betti index."""
    betti = betti_numbers(I)
    return max(i for i, b in enumerate(betti) if b)


def depth_quotient(I: MonomialIdeal) -> int:
    """Depth of S/I via the Auslander-Buchsbaum formula."""
    return I.ring.n - pd_quotient(I)
