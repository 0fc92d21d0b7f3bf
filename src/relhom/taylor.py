"""Betti numbers via the Lyubeznik resolution of a monomial quotient.

The Lyubeznik complex (``slices.lyubeznik_layout``) is a subcomplex of the
Taylor complex on the minimal generators, with the componentwise max (lcm
exponent) as the multidegree of each face, and with the restricted Taylor
differential it is a free resolution of S/I.  Mapping it into the residue
field keeps exactly the differential entries between faces with the same
lcm, so the complex splits into one strand per distinct lcm, and beta_i is
the sum over strands of dim H_i of the strand.  The tables' iterated element
matching (``slices._unmatched``) runs once over all the faces, on the
``FaceSet.element_pairs`` within a strand, which is convex in the faces, so
by algebraic discrete Morse theory (Batzies-Welker, J. reine angew. Math.
543, 2002) a strand whose critical faces never sit in two adjacent levels,
such as one of a single face, has its critical counts as homology.  Only the
others are ranked (``slices._morse_dims``), after every strand is held to
the rank ceiling: none on the default corpus, one each on the squarefree 8-
to 10-cycles.  The strands are the layout's one face grouping
(``FaceLayout.lcm_groups``), kept with the cached layout, so Ext tables on
the same generators reuse it.  Betti numbers give the projective dimension
and (by Auslander-Buchsbaum) depth.  The resolution is used un-minimized:
Betti numbers do not depend on it.

Betti numbers do not change when the variables are relabelled or unused
variables are added, so they are computed and cached on a relabelled form
of the generators (``relabelled``): the unused variables dropped, the rest
ordered by their sorted exponent columns, the rows sorted.  Equal forms
are the same ideal up to relabelling, so a hit is always sound; the
default corpus asks for the Betti numbers of 564 distinct generator
tuples, which have 374 forms.  The localization grade reads pd on these
forms directly (``pd_relabelled``), without building a ring or an ideal.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .monomials import MonomialIdeal, _check_module
from .slices import _check_rank_ceiling, _morse_dims, _unmatched, lyubeznik_layout

__all__ = ["betti_numbers", "pd_quotient", "depth_quotient"]


def relabelled(gens) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Minimal generators of a proper ideal up to relabelling the variables, and the variables kept.

    The variables no generator uses are dropped, the rest are ordered by
    their sorted exponent columns, and the rows are sorted.  Betti numbers
    depend only on this form: two ideals with equal forms are the same
    ideal after a relabelling, however ties between columns are broken.
    """
    columns = sorted((column for column in zip(*gens) if any(column)), key=sorted)
    return tuple(sorted(zip(*columns))), len(columns)


# bounded for long-running processes; the default corpus fills 374 entries
@lru_cache(maxsize=32_768)
def _betti_relabelled(rows: tuple, k: int, p: int) -> tuple[int, ...]:
    """Total Betti numbers of S/I over GF(p), for I generated by the rows of ``relabelled`` in k variables
    (the callers have checked the module rule)."""
    layout = lyubeznik_layout(rows, k)
    faces = layout.faces
    _, strand = layout.lcm_groups
    strands, levels = int(strand.max()) + 1, faces.offsets.size - 1
    if strands == faces.size:  # every strand one face: no differential
        return tuple(np.diff(faces.offsets).tolist())
    cell = strand * levels + np.repeat(np.arange(levels), np.diff(faces.offsets))  # one per (strand, level)
    sizes = np.bincount(cell, minlength=strands * levels).reshape(strands, levels).T
    _check_rank_ceiling(sizes)
    within = (pairs[:, strand[pairs[0]] == strand[pairs[1]]] for pairs in faces.element_pairs)
    free = _unmatched(np.ones(faces.size, dtype=bool), within)
    critical = np.bincount(cell[free], minlength=sizes.size).reshape(strands, levels).T
    dims = _morse_dims(critical, sizes, faces, p, lambda columns: strand[:, None] == columns)
    return tuple(dims.sum(axis=1).tolist())


def pd_relabelled(rows: tuple, k: int, p: int) -> int:
    """Projective dimension of S/I for I given as by ``relabelled``: the top nonvanishing Betti index
    (the localization engines read it on checked pairs)."""
    return max(i for i, b in enumerate(_betti_relabelled(rows, k, p)) if b)


def betti_numbers(I: MonomialIdeal) -> tuple[int, ...]:
    """Total Betti numbers (beta_0..beta_r) of S/I over GF(char).

    Cached up to relabelling (see ``relabelled``): ``cache_info`` and
    ``cache_clear`` are those of that cache.
    """
    _check_module(I)
    return _betti_relabelled(*relabelled(I.gens), I.ring.char)


betti_numbers.cache_info = _betti_relabelled.cache_info
betti_numbers.cache_clear = _betti_relabelled.cache_clear


def pd_quotient(I: MonomialIdeal) -> int:
    """Projective dimension of S/I: the top nonvanishing Betti index."""
    return max(i for i, b in enumerate(betti_numbers(I)) if b)


def depth_quotient(I: MonomialIdeal) -> int:
    """Depth of S/I via the Auslander-Buchsbaum formula."""
    return I.ring.n - pd_quotient(I)
