"""Betti numbers via the Lyubeznik resolution of a monomial quotient.

The Lyubeznik complex (``slices.lyubeznik_layout``) is a subcomplex of the
Taylor complex on the minimal generators, with the componentwise max (lcm
exponent) as the multidegree of each face, and with the restricted Taylor
differential it is a free resolution of S/I.  Mapping it into the residue
field keeps exactly the differential entries between faces with the same
lcm, so the complex splits into one strand per distinct lcm, and beta_i is
the sum over strands of dim H_i of the strand.  A strand is a face complex
whose activity pattern is one column, which is what the slice kernel
``_lattice_dims`` ranks; a strand of a single face has no differential and
adds 1 to beta of its size.  Betti numbers give the projective dimension
and (by Auslander-Buchsbaum) depth.  The resolution is used un-minimized:
Betti numbers do not depend on the chosen resolution.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .monomials import MonomialIdeal
from .slices import _check_scan_size, _lattice_dims, _row_groups, lyubeznik_layout

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
    if not I.gens:
        return (1,)
    layout = lyubeznik_layout(I.gens, I.ring.n)
    faces = layout.faces
    _, strand = _row_groups(layout.lcms)
    size = np.bincount(strand)
    shared = size[strand] > 1
    betti = faces.per_level(~shared)
    if shared.any():
        # one activity column per strand of two or more faces
        column = np.cumsum(size > 1) - 1
        count = int(column[-1]) + 1
        _check_scan_size((count,), faces.size, f"Lyubeznik complex on {len(I.gens)} generators")
        members = np.flatnonzero(shared)
        active = np.zeros((faces.size, count), dtype=bool)
        active[members, column[strand[members]]] = True
        betti += _lattice_dims(active, faces, p).sum(axis=1)
    return tuple(betti.tolist())


def pd_quotient(I: MonomialIdeal) -> int:
    """Projective dimension of S/I: the top nonvanishing Betti index."""
    betti = betti_numbers(I)
    return max(i for i, b in enumerate(betti) if b)


def depth_quotient(I: MonomialIdeal) -> int:
    """Depth of S/I via the Auslander-Buchsbaum formula."""
    return I.ring.n - pd_quotient(I)
