"""Degreewise Ext and local-cohomology slices over a finite stabilization box.

Both kinds of table are one computation, Hom(L, S/I) for a free resolution
L of a monomial quotient.  In a fixed multidegree b its components are
indexed by the faces of a simplicial complex on a generating set; every
component is 0- or 1-dimensional, and each differential entry is an
incidence sign exactly when both endpoints are nonzero.  So a degree is
fully described by its activity pattern (which faces are nonzero),
cohomology dimensions are rank computations over GF(char), and degrees
sharing a pattern share all ranks.

L is the Lyubeznik complex of the generators, smaller than the full Taylor
complex on 2^r subsets: the subsets T = {i1 < ... < is} such that no
generator m_q with q < i_t divides lcm(m_{i_t}, ..., m_{i_s}), for every
t < s.  L is closed under subsets, and the Taylor differential restricted
to it is a free resolution of S/J (Lyubeznik, JPAA 1988; Mermin, "Three
simplicial resolutions", 2012), so every Ext dimension is unchanged.

Local cohomology is Ext against a Frobenius power: the powers rad(a)^[k]
(each minimal generator raised to the k-th power) are cofinal with the
powers of a, so H^i_a(S/I) = lim_k Ext^i(S/rad(a)^[k], S/I) (Brodmann-Sharp,
Local Cohomology, Thm 1.3.8; Mustata, "Local cohomology at monomial
ideals", 2000).  Once k passes every exponent and box bound, a face of lcm
k*F is active at b iff b_j >= 0 off F and b restricted off F avoids I with
the axes of F erased: the Cech piece inverting F, so in each degree the
limit is reached.  The tables take k = ``_LEFT_OUT`` on the Lyubeznik faces
of rad(a), which are those of rad(a)^[k] (scaling keeps how exponents
compare within each variable), and pad to len(a.gens) + 1 levels.

A ``FaceSet`` lists a complex's faces level by level, never as 2^r rows,
with each face's boundary in the level below; a ``FaceLayout`` adds the lcm
of every face.  The size of L depends on the generator order (its
cohomology does not), so ``lyubeznik_layout`` keeps the first order with
the fewest faces of two candidates: the divisibility order (the generators
that divide the most lcms of two generators first, since a face is dropped
when an earlier generator divides its lcm), then recursive bisection, which
ignores the exponents.  One enumerator lists the faces of both complexes:
the Taylor faces are the Lyubeznik faces of pairwise coprime rows, of which
none is dropped.  Lyubeznik face sets depend on the generators only through
how exponents compare within each variable, so they are cached per
column-rank pattern, and Lyubeznik layouts per generator tuple, in bounded
caches.  A complex of more than ``_MAX_FACES`` faces is refused while it is
enumerated.

The engines evaluate one degree per threshold class, not every degree.
Face T is active at b iff b + s_T >= 0 and x^(b + s_T) is outside I, for
s_T its lcm (scaled for local cohomology), which depends on each b_j only
through comparisons b_j >= c - s, c in {0} u {I-exponents on x_j} and s in
the column j of the face shifts; a threshold c - ``_LEFT_OUT`` lies outside
every box.  Values of b_j that pass the same thresholds form one class, an
interval from one threshold to the next, and a product of classes has one
activity pattern, hence one set of slice dimensions.  This is the
combinatorics behind Takayama's formula for the local cohomology of S/I
(Miller-Sturmfels, Combinatorial Commutative Algebra, ch. 13).  The box
-rho_j <= b_j <= rho_j, with rho_j = 1 + (largest x_j-exponent among the
participating minimal generators), holds every threshold strictly inside,
so it meets every class of Z^n and decides module vanishing exactly.  Each
class is represented by its member of least |b_j|, which is the same for
every pad: padding only widens the two edge classes of an axis.  So
profiles, and every invariant read from them, take no box; ``pad`` belongs
only to the listings of ``ext_table`` and ``lc_table``.  A SliceTable keeps
each class's interval per axis and, from the walk it runs on first read, the
dimensions per distinct activity pattern and the per-axis maps leading each
class to its pattern: ``profile`` reads the pattern dimensions alone,
``dim_at`` follows the maps from its class, and only ``hilbert``, ``total``
and ``dump`` gather the dimensions to every class, on first use, and read the
nonzero classes (``dump_tables`` refuses a class grid past
``_MAX_ACTIVITY_CELLS`` before any walk, and a listing of more than
``_MAX_LISTING_RECORDS`` records, over all its tables, before any record).  A
single degree (``ext_slice``, ``local_cohomology_slice``) is exact anywhere in
the int16 range.

The dense scan over every degree of the unpadded box (``_dense_profiles``)
stays as an independent engine: it runs on the full Taylor complex of the
relative ideal's own generators for Ext and of their supports for local
cohomology, both kinds in one walk, and the corpus cross-check compares it
with the class engine, which covers all of Z^n.  ``_MAX_ACTIVITY_CELLS``
bounds what is built: the activity a walk ANDs in per axis (shifts x values
x states, refused as soon as the states an axis leaves provably pass what
the next axis admits), the dense scan (2^r Taylor faces x box degrees), and
the one entry per class degree that the listings and
``first_shifted_mismatch`` gather (faces x class degrees).

Each table runs its layers in bulk, on its per-axis values (a ``_Product``)
rather than on a (degrees, n) grid.  Activity depends on a face T only through
lcm_T, so it is evaluated once per distinct face lcm, one row each, and every
face reads the row of its lcm; each layout groups its faces by lcm once, on
first use, and keeps the grouping.  One kernel entry, ``_slice_dims``, walks
the module once for a list of complexes on one grid: it stacks their shift
rows (face lcms, times ``_LEFT_OUT`` for local cohomology) and hands each
complex its block of the activity.  A single table is its one-complex case;
the dense scan passes both Taylor complexes, and ``pair_profiles`` (the
grade's cross-check reads both profiles of a pair) both class complexes on
the Ext grid, which refines the local-cohomology one, when that grid has at
most ``_STATE_SPAN`` classes; past it each kind keeps its own grid, where
its walk is narrower.  Activity is one membership kernel
(``_member_states``), which serves the tables, the dense scan, the single
degrees and ``SliceTable.first_shifted_mismatch``: the staircase of I factors
axis by axis, so the bit sets of the generators a degree passes are the AND of
one small table row per axis (the tables built once per generator tuple, in a
bounded cache).  The kernel ANDs the axes in from the last one outward, every
shift at once; once an axis other than the first takes the span past
``_STATE_SPAN`` it keeps only the distinct columns, the states, and the first
axis keeps only the distinct activity patterns of its results, keyed by their
packed bits (an unsigned integer for up to 64 rows, whose sort is much faster
than that of bytes).  Each axis keeps its map from (value, state after it) to
its new column, the first to its pattern: a layered diagram of the product
(Bryant, IEEE Trans. Computers 1986) whose size is the sum of values x states
over the axes.  The big box of the benchmark holds 51 450 class degrees but
10 532 map cells and 75 patterns, the 12-cycle's Ext grid 2 985 984 degrees
but 72 440 map cells and 587 patterns.  Only the patterns are gathered to the
faces, and the dimensions stay per pattern.  The dimensions of a pattern
depend only on p, the face set's incidence structure and which faces are
active, so each pattern's column of dimensions is looked up in one memo,
bounded in entries and in bytes, keyed by p, the digest of the whole face set
(every level's size and every boundary map) and the pattern's packed bits.
The default corpus looks up about 19 000 patterns, of which about 3 700 miss.

The missed patterns are decided by a matching before any rank.  Every
caller's pattern is convex in the face poset (F and H active, F in G in H,
give G active): table activity is the up-set b + lcm_F >= 0 meet the
down-set x^(b + lcm_F) outside I, as lcm_F grows with F.  So the incidence
maps restricted to a pattern form a cochain complex, a subquotient of the
simplicial one.  On its faces the iterated element matching pairs, for each
generator position g of the order in turn, every unmatched active face G
that holds g with G without g when that face is unmatched and active
too.  It is acyclic (Jonsson, Simplicial Complexes of Graphs, LNM 1928,
Lemmas 4.1-4.2), and every matched entry is +-1, a unit mod p, so by
algebraic discrete Morse theory (Skoldberg, Trans. AMS 2006;
Joellenbeck-Welker, Mem. AMS 2009) the cohomology is that of a complex on
the unmatched (critical) faces whose differential goes from each level to
the next.  Where no two adjacent levels hold critical faces the dimensions
are the critical counts, with no rank: 3 553 of the default corpus's 3 653
missed patterns, all but 3 of the 1 386 of the benchmark's ``wide`` pairs
and all 637 of K8's.  Only the rest are ranked, one incidence matrix at a
time (``rank_mod_p``): 144 level pairs on the whole default corpus, none of
more than 49 cells.  An incidence matrix above ``_MAX_RANK_MATRIX_CELLS``,
in any missed pattern, is refused before the matching runs.
"""

from __future__ import annotations

import hashlib
import math
import operator
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial
from typing import Callable, Optional

import numpy as np

from .linalg import rank_mod_p
from .monomials import MAX_EXPONENT, MonomialIdeal, _check_exponents, _check_module, _check_pair, radical

__all__ = [
    "DegreeBox",
    "SliceTable",
    "ext_table",
    "lc_table",
    "ext_slice",
    "ext_vanishes",
    "ext_vanishes_below",
    "ext_profile",
    "local_cohomology_slice",
    "lc_profile",
    "pair_profiles",
    "clear_slice_caches",
    "FaceSet",
    "FaceLayout",
    "lyubeznik_layout",
    "taylor_layout",
]


# ceiling on the faces of one complex; it bounds a layout's memory (its
# boundary maps hold one int32 per face and level) and its enumeration
_MAX_FACES = 1 << 20

# byte cap of the working memory of the bulk steps: the divisibility tests of
# the face enumeration, the table the walk of ``_member_states`` holds before
# a dedup, and the chunk of pattern columns the element matching of
# ``_critical_counts`` works on
_MAX_WORKING_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class FaceSet:
    """The faces of a simplicial complex on r ordered generators, level by level.

    Level k holds the faces of size k at positions ``offsets[k]`` to
    ``offsets[k + 1]``, so a (faces, ...) array has one row per face in this
    order.  Taking the generators in ``order``, a face of size k + 1 is its
    least member put in front of a face of size k: per nonempty level above
    the empty face, ``tails`` holds the position of that face in the level
    below and ``firsts`` the least member's position in the order.  The
    boundary maps and the digest are derived on first use, once for every
    generator tuple that shares these faces.
    """

    order: tuple[int, ...]
    offsets: np.ndarray
    tails: tuple[np.ndarray, ...]
    firsts: tuple[np.ndarray, ...]

    @property
    def size(self) -> int:
        return int(self.offsets[-1])

    def per_level(self, rows: np.ndarray) -> np.ndarray:
        """Sums over each level of a (faces, ...) array, as int64; an empty level sums to 0."""
        nonempty = np.flatnonzero(np.diff(self.offsets))
        totals = np.zeros((self.offsets.size - 1, *rows.shape[1:]), dtype=np.int64)
        totals[nonempty] = np.add.reduceat(rows, self.offsets[nonempty], axis=0, dtype=np.int64)
        return totals

    @cached_property
    def down(self) -> tuple[np.ndarray, ...]:
        """``down[k][i, t]``: the position within level k - 1 of face i of
        level k without its t-th member in the order; that face map has sign
        (-1)^t.  Up to the last nonempty level."""
        r = len(self.order)
        keys = np.zeros(1, dtype=np.int64)  # tail * r + least position of each face of the last level
        down = [np.zeros((1, 0), dtype=np.int32)]
        for tails, first in zip(self.tails, self.firsts):
            faces = np.empty((tails.size, len(down)), dtype=np.int32)
            faces[:, 0] = tails
            # without member t >= 1: the least member in front of the tail's face without its member t - 1
            faces[:, 1:] = np.searchsorted(keys, down[-1][tails].astype(np.int64) * r + first[:, None])
            keys = tails.astype(np.int64) * r + first
            down.append(faces)
        return tuple(down)

    @cached_property
    def element_pairs(self) -> tuple[np.ndarray, ...]:
        """Per position g of the order, a (2, faces) int32 array: the index
        of every face G that holds g, over the whole face list, and of its
        face G without g below it.  The pairs of one position are disjoint."""
        members = np.zeros((1, 0), dtype=np.int32)  # the positions of every face of a level, least first
        pairs = []
        for k, (tails, first, faces) in enumerate(zip(self.tails, self.firsts, self.down[1:]), start=1):
            members = np.concatenate([first[:, None].astype(np.int32), members[tails]], axis=1)
            upper = np.arange(self.offsets[k], self.offsets[k + 1], dtype=np.int32).repeat(k)
            pairs.append((members.ravel(), upper, faces.ravel() + np.int32(self.offsets[k - 1])))
        if not pairs:
            return tuple(np.zeros((2, 0), dtype=np.int32) for _ in self.order)
        member, upper, lower = (np.concatenate(part) for part in zip(*pairs))
        by = np.argsort(member, kind="stable")
        cuts = np.searchsorted(member[by], np.arange(len(self.order) + 1))
        both = np.stack([upper[by], lower[by]])
        return tuple(both[:, lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:]))

    @cached_property
    def digest(self) -> bytes:
        """Names the whole incidence structure: the size of every level, so
        also the level count and the shape of every boundary map, and every
        boundary map.  Equal digests give equal incidence matrices on equal
        activity bits."""
        return hashlib.blake2b(b"".join(a.tobytes() for a in (self.offsets, *self.down)), digest_size=16).digest()


@dataclass(frozen=True, eq=False)
class FaceLayout:
    """A face set on particular generators, with the lcm exponent of every face.

    Table activity (on the lcms, or for local cohomology on the lcms
    scaled by ``_LEFT_OUT``) and Betti strands read a face through its lcm,
    so the faces are grouped by lcm on first use, and the grouping is kept
    with the layout, which is cached per generator tuple.
    """

    faces: FaceSet
    lcms: np.ndarray

    @cached_property
    def lcm_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct face lcms and the row of every face among them."""
        first, rows = _row_groups(self.lcms)
        return self.lcms[first], rows


def _candidate_orders(G: np.ndarray) -> list[tuple[int, ...]]:
    """The generator orders tried for the Lyubeznik complex of the generator rows G, in preference order.

    First the divisibility order: the generators by how many lcms of two
    generators each divides, most first, ties by position.  A face is
    dropped when an earlier generator divides its lcm, so the generators
    that divide the most lcms go first.  It is skipped for r <= 2, where
    every order gives the same faces.  Then recursive bisection (the lower
    middle, then the same for the part below it and for the part above it),
    which keeps a chain of generators small where the divisibility order
    does not.  Divisibility depends only on how exponents compare within
    each variable, so a column-rank pattern of the generators gives the
    same orders as their exponents.
    """
    r = G.shape[0]

    def bisection(lo: int, hi: int) -> list[int]:
        if lo >= hi:
            return []
        m = (lo + hi - 1) // 2
        return [m, *bisection(lo, m), *bisection(m + 1, hi)]

    orders = [tuple(bisection(0, r))]
    if r > 2:
        # per generator, the ordered pairs (j, k) whose lcm it divides: twice
        # the pairs j < k, plus one for j = k (only itself, as the generators
        # are minimal), so the same order; counted in chunks of generators
        # whose comparison, one byte per cell, stays under the working cap
        lcms = np.maximum(G[:, None], G[None])
        step = max(1, _MAX_WORKING_BYTES // max(1, lcms.size))
        counts = np.concatenate(
            [(G[lo : lo + step, None, None] <= lcms).all(axis=3).sum(axis=(1, 2)) for lo in range(0, r, step)]
        )
        orders.insert(0, tuple(np.argsort(-counts, kind="stable").tolist()))
    return list(dict.fromkeys(orders))


def _face_levels(G: np.ndarray, order: tuple[int, ...], cap: int) -> Optional[FaceSet]:
    """The faces of the Lyubeznik complex on the generator rows G taken in ``order``, or None past ``cap`` faces.

    A face T = {i1 < ... < is} of positions in the order is a face iff for
    every t < s no row before i_t divides lcm(m_{i_t}, ..., m_{i_s}).  Its
    tail {i2, ..., is} is then a face as well, so level k + 1 is built by
    putting a smaller position in front of a face of level k, and only the
    new condition at t = 1 is tested: that no row before i1 divides the
    lcm of the whole.  On pairwise coprime rows no face is dropped.
    """
    G = G[list(order)]
    r, n = G.shape
    below = np.tri(r + 1, r, -1, dtype=bool)  # below[h, q]: q < h
    # row q divides an lcm iff the lcm reaches its entries on its support;
    # all supports side by side, so one comparison tests every row.  The
    # test runs only for r >= 2, where no row is zero: a zero row would
    # divide every other row, and the generators are minimal.
    row, column = np.nonzero(G)
    starts, needed = np.searchsorted(row, np.arange(r)), G[row, column]
    least, lcms = np.array([r]), np.zeros((1, n), dtype=G.dtype)
    tails, firsts, total, step = [], [], 1, max(1, _MAX_WORKING_BYTES // (max(r, 1) * max(row.size, 1) * G.itemsize))
    while least.any():
        parts = []
        for lo in range(0, least.size, step):
            tail, first = np.nonzero(below[least[lo : lo + step]])
            tail += lo
            lcm = np.maximum(lcms[tail], G[first])
            if tails:
                divides = np.logical_and.reduceat(lcm[:, column] >= needed, starts, axis=1)
                kept = ~(divides & below[first]).any(axis=1)
                tail, first, lcm = tail[kept], first[kept], lcm[kept]
            total += tail.size
            if total > cap:
                return None
            parts.append((tail, first, lcm))
        tail, least, lcms = parts[0] if len(parts) == 1 else (np.concatenate(part) for part in zip(*parts))
        if tail.size:
            tails.append(tail)
            firsts.append(least)
    sizes = [1, *(tail.size for tail in tails)]
    offsets = np.cumsum([0, *sizes, *[0] * (r + 1 - len(sizes))])
    return FaceSet(tuple(order), offsets, tuple(tails), tuple(firsts))


def _face_lcms(faces: FaceSet, G: np.ndarray) -> np.ndarray:
    """The lcm exponent of every face, on the generator rows G."""
    G = G[list(faces.order)]
    lcms = [np.zeros((1, G.shape[1]), dtype=np.int16)]
    for tails, first in zip(faces.tails, faces.firsts):
        lcms.append(np.maximum(lcms[-1][tails], G[first]))
    return np.concatenate(lcms)


@lru_cache(maxsize=1024)
def _lyubeznik_faces(pattern: bytes, r: int, n: int) -> FaceSet:
    """The Lyubeznik faces of generators with the given column-rank pattern (see ``lyubeznik_layout``)."""
    G = np.frombuffer(pattern, dtype=np.min_scalar_type(r)).reshape(r, n)
    too_large = f"Lyubeznik complex on {r} generators has over {_MAX_FACES} faces: too large to scan"
    if 1 << r > _MAX_FACES:
        # a generator that does not divide the lcm of all the others divides
        # no lcm of a face; if none does, L is every subset in every order
        top = np.sort(G, axis=0)[-2:]
        others = np.where(G < top[1], top[1], top[0])
        if not (G <= others).all(axis=1).any():
            raise ValueError(too_large)
    best, cap = None, _MAX_FACES
    for order in reversed(_candidate_orders(G)):
        faces = _face_levels(G, order, cap)
        if faces is not None:
            best, cap = faces, faces.size
    if best is None:
        raise ValueError(too_large)
    return best


@lru_cache(maxsize=64)
def _taylor_faces(r: int) -> FaceSet:
    """Every subset of r generators: the Lyubeznik faces of r pairwise coprime rows."""
    _check_scan_size((), 1 << r, f"Taylor complex on {r} generators")
    return _face_levels(np.eye(r, dtype=np.int16), tuple(range(r)), _MAX_FACES)


def _generator_rows(gens, n: int) -> np.ndarray:
    return np.array(_check_exponents(gens, n), dtype=np.int16).reshape(len(gens), n)


# the layouts of recent generator tuples; the default corpus asks 1 887 times
# for 818 distinct Lyubeznik layouts, which share 359 face sets
@lru_cache(maxsize=4096)
def lyubeznik_layout(gens, n: int) -> FaceLayout:
    """The Lyubeznik complex of the generators, a subcomplex of the Taylor complex.

    With the restricted Taylor differential it is a free resolution of
    S/(gens) (Lyubeznik 1988; Mermin, "Three simplicial resolutions",
    2012).  Its size depends on the generator order, its (co)homology does
    not: of the orders of ``_candidate_orders`` (the divisibility order,
    then bisection) the first with the fewest faces is kept.  Bisection is
    enumerated first and the divisibility order under its face count as
    the cap, so a large complex is abandoned as soon as it passes the
    smaller one.

    Whether a generator divides the lcm of others depends only on how the
    exponents compare within each variable, so the candidate orders, the
    faces and the order chosen are computed once per column-rank pattern of
    the generators and shared; only the lcms are per generator tuple.
    """
    G = _generator_rows(gens, n)
    # each exponent replaced by the number of smaller ones in its column
    pattern = (G[None, :, :] < G[:, None, :]).sum(axis=1, dtype=np.min_scalar_type(len(gens)))
    faces = _lyubeznik_faces(pattern.tobytes(), len(gens), n)
    return FaceLayout(faces, _face_lcms(faces, G))


def taylor_layout(gens, n: int) -> FaceLayout:
    """The full simplex on the generators (in n variables) in their given order: the Taylor complex."""
    G = _generator_rows(gens, n)
    faces = _taylor_faces(len(gens))
    return FaceLayout(faces, _face_lcms(faces, G))


@dataclass(frozen=True)
class DegreeBox:
    """Per-variable scan bounds; the region is -rho_j <= b_j <= rho_j."""

    rho: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rho", tuple(map(operator.index, self.rho)))
        if any(r < 1 for r in self.rho):
            raise ValueError("box bounds must be positive")
        # a scanned degree plus a subset lcm stays within int16
        if any(r > MAX_EXPONENT + 1 for r in self.rho):
            raise ValueError(f"box {self.rho} is too large: bounds above {MAX_EXPONENT + 1} overflow int16")

    @staticmethod
    def for_ideals(*ideals: MonomialIdeal, pad: int = 0) -> "DegreeBox":
        """The stabilization box of the ideals, every bound widened by ``pad``, which is at least 0."""
        if operator.index(pad) < 0:
            raise ValueError(f"box pad {pad} is negative: a box narrower than the stabilization box drops slices")
        n = ideals[0].ring.n
        rho = [1] * n
        for A in ideals:
            for g in A.gens:
                for j, e in enumerate(g):
                    rho[j] = max(rho[j], e + 1)
        return DegreeBox(tuple(r + pad for r in rho))

    def contains(self, b) -> bool:
        return len(b) == len(self.rho) and all(-r <= x <= r for x, r in zip(b, self.rho))


class _Product(tuple):
    """Per-axis int16 value arrays standing for their product grid, in
    lexicographic order.  ``shape`` is that of the (degrees, n) grid, which
    is never built."""

    @property
    def shape(self) -> tuple[int, int]:
        return math.prod(len(values) for values in self), len(self)


def _axis_classes(r: int, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Threshold classes of the box values -r..r on one axis.

    A value's class is the set of thresholds it passes (v >= t), so each
    class is an interval: it starts at -r or at a threshold in (-r, r] and
    ends before the next start.  Returns each class's first value, in
    increasing order, and its representative, its member of least absolute
    value.
    """
    starts = [-r, *sorted({int(t) for t in thresholds if -r < t <= r})]
    ends = [start - 1 for start in starts[1:]] + [r]
    reps = [min(max(0, start), end) for start, end in zip(starts, ends)]
    return np.array(starts), np.array(reps, dtype=np.int16)


def _thresholds(I: MonomialIdeal, shifts: np.ndarray, j: int) -> set[int]:
    """The thresholds of axis j for faces shifted by the rows of ``shifts``:
    c - s for c in {0} u {I-exponents on x_j} and s in the shift column j."""
    column = set(shifts[:, j].tolist())
    return {c - s for c in {0, *(g[j] for g in I.gens)} for s in column}


# the Frobenius exponent of the local-cohomology tables: a shift past every
# int16 exponent, so an axis shifted by it passes both tests of
# ``_member_states`` and every threshold c - _LEFT_OUT lies outside the box
_LEFT_OUT = 1 << 20

# span (product columns) past which the walk of ``_member_states`` keeps
# only the distinct columns of its table.  Set from measurement (2-vCPU
# Xeon): the big box's slice dimensions took 1.5-2.0 ms at spans 1 024 to
# 4 096, 4.4-5.1 ms at 8 192 (no dedup before the first axis) and 3.8-5.4 ms
# without the walk; the default corpus, none of whose tables pass 4 096
# before the first axis, was level across 1 024 to 4 096.  Tables of several
# kinds share one walk on a grid of at most this many classes (``_class_tables``):
# every default-corpus pair's grid does (3 584 at most), while the big box's
# Ext grid of 51 450 classes would widen its local-cohomology walk from 1 296
_STATE_SPAN = 4096


def _pack(covered: np.ndarray) -> np.ndarray:
    """Bit sets (..., words) of uint64 of a (..., bits) boolean array, one bit per entry."""
    words = -(-covered.shape[-1] // 64)
    packed = np.zeros((*covered.shape[:-1], words * 8), dtype=np.uint8)
    packed[..., : -(-covered.shape[-1] // 8)] = np.packbits(covered, axis=-1, bitorder="little")
    return packed.view(np.uint64)


# the tables of recent generator tuples; the default corpus makes 1 983
# kernel calls on 533 distinct ones
@lru_cache(maxsize=4096)
def _member_tables(gens: tuple, n: int):
    """The per-axis tables of ``_member_states`` for the generators.

    Per axis the sorted distinct values {0} u {g_j}, and the bit set of each
    count of them passed (row k: the first k passed); then the bit sets of
    every bit and of the last bit alone.  Read-only, since they are shared.
    """
    bits = len(gens) + 1
    thresholds, sets = [], []
    for j in range(n):
        column = [g[j] for g in gens]
        t = sorted({0, *column})
        covered = np.ones((len(t) + 1, bits), dtype=bool)
        covered[0] = False
        covered[1:, :-1] = np.asarray(column, dtype=np.int64) <= np.asarray(t, dtype=np.int64)[:, None]
        thresholds.append(np.array(t, dtype=np.int64))
        sets.append(_pack(covered))
    full, alone = _pack(np.ones(bits, dtype=bool)), _pack(np.arange(bits) == len(gens))
    for array in (*thresholds, *sets, full, alone):
        array.flags.writeable = False
    return tuple(thresholds), tuple(sets), full, alone


# the unsigned integer of each row width (bytes) that is a key without a copy
_INTEGER_KEYS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row of a 2-d array, made of its raw bytes: equal keys iff equal rows.

    A row of 1, 2, 4 or 8 bytes is viewed in place as one unsigned integer,
    which sorts much faster than bytes (``_packed_columns`` pads every
    activity pattern of up to 64 rows to such a width); a row of any other
    width is its bytes as one ``void`` value.  Rows of no bytes (a ring
    without variables) are all equal, so their keys are zeros.
    """
    rows = np.ascontiguousarray(rows)
    width = rows.shape[1] * rows.itemsize
    if not width:
        return np.zeros(rows.shape[0], dtype=np.uint8)
    return rows.view(_INTEGER_KEYS.get(width, np.dtype((np.void, width)))).ravel()


def _row_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A row of each distinct value of a 2-d array, and the group of every row.

    Rows are keyed by ``_row_keys`` and sorted by an unstable sort, so any
    row of a group stands for it, and groups come in the order of the keys:
    callers read only the pairing of the representatives and the groups.
    """
    keys = _row_keys(rows)
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.empty(order.size, dtype=bool)
    new[:1] = True
    new[1:] = ordered[1:] != ordered[:-1]
    group = np.empty(order.size, dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return order[new], group


def _lanes(sets: np.ndarray, bits: int, per: int) -> np.ndarray:
    """The (shifts, words, m) bit sets of ``bits`` bits each as (lanes, m) uint64 lanes, ``per`` shifts to a lane.

    With per = 1 the words are the lanes, each shift's words in turn.
    Otherwise a bit set is one word and fills only its low ``bits`` bits,
    so per <= 64 // bits shifts share a lane, shift u at offset (u % per) x
    bits of lane u // per.  Bits at different offsets never meet under AND,
    so the lanes AND as the bit sets do.
    """
    shifts, words, m = sets.shape
    if per == 1:
        return sets.reshape(shifts * words, m)
    lanes = np.zeros((-(-shifts // per) * per, m), dtype=np.uint64)
    lanes[:shifts] = sets[:, 0]
    offsets = np.arange(per, dtype=np.uint64)[:, None] * np.uint64(bits)
    return np.bitwise_or.reduce(lanes.reshape(-1, per, m) << offsets, axis=1)


def _merged_states(parts, key, limit: Optional[int] = None, what: str = "") -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns of a table given by chunks of its columns, and the group of every column.

    Each chunk is grouped on its own by ``_row_groups`` of ``key(chunk)``, one
    row per column (``np.transpose`` of lanes, ``_packed_columns`` of results),
    so only one chunk is held whole; the chunks' distinct columns are merged.
    Given a ``limit``, once the chunks' distinct columns number more than
    ``limit`` their hashes are counted after every chunk: equal columns hash
    equal, so more than ``limit`` distinct hashes prove more than ``limit``
    distinct columns, and the table ``what`` is refused before the rest of
    its chunks, or the merge, are built.
    """
    kept, groups, hashes, done = [], [], [], 0
    for part in parts:
        first, group = _row_groups(key(part))
        kept.append(part[:, first])
        groups.append(group + done)
        done += first.size
        if limit is not None and done > limit:
            hashes += [_column_hashes(columns) for columns in kept[len(hashes) :]]
            states = np.unique(np.concatenate(hashes)).size
            if states > limit:
                raise ValueError(f"{what} x at least {states} states is too large to scan")
    if len(kept) == 1:
        return kept[0], groups[0]
    table = np.concatenate(kept, axis=1)
    first, merged = _row_groups(key(table))
    return table[:, first], merged[np.concatenate(groups)]


def _column_hashes(table: np.ndarray) -> np.ndarray:
    """A uint64 hash of every column of a (lanes, columns) uint64 table, equal on equal columns.

    Each entry, offset by a constant of its lane, goes through the splitmix64
    finalizer, a bijection that spreads every bit over the word, and a
    column's hash is the sum of its entries'; the columns go in chunks under
    ``_MAX_WORKING_BYTES``.
    """
    lanes, columns = table.shape
    offsets = np.random.default_rng(0).integers(0, 1 << 64, size=(lanes, 1), dtype=np.uint64)
    hashes = np.empty(columns, dtype=np.uint64)
    step = max(1, _MAX_WORKING_BYTES // (8 * lanes))
    for lo in range(0, columns, step):
        v = table[:, lo : lo + step] + offsets
        v = (v ^ v >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
        v = (v ^ v >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
        hashes[lo : lo + step] = (v ^ v >> np.uint64(31)).sum(axis=0, dtype=np.uint64)
    return hashes


def _member_states(axes, gens, shifts: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Which shifted degrees of a product grid are monomials of S/I, for I
    generated by ``gens``: the (shifts, patterns) result on the distinct
    activity patterns and the per-axis maps leading each degree to its own.

    ``axes`` holds one array of values per variable; the grid is their
    product in lexicographic order.  Entry (u, c) of the result is True iff
    b + s >= 0 and x^(b + s) is not in I, for b any degree of the product
    whose pattern (``_compose`` of the maps) is c and s = shifts[u].  An axis
    shifted by ``_LEFT_OUT`` passes both tests, which leaves it out.

    Both tests factor axis by axis.  A bit set holds one bit per generator
    and a last bit for "nonnegative": on axis j the value v sets the bit of
    every generator g with v >= g_j, and the last bit if v >= 0.  A degree
    passes iff the AND of its axes' bit sets is the last bit alone.  Per
    axis only the sorted distinct values {0} u {g_j} matter, so one small
    table per axis holds every bit set that axis can give; the tables are
    built once per generator tuple (``_member_tables``).

    The walk ANDs the axes in from the last one outward, over all shifts at
    once: the (lanes, span) table of ``_lanes`` holds the bit sets of the
    states of the axes done so far, and the next axis goes in front of it,
    so each AND runs over the whole span as its inner loop.  Two columns
    that are equal stay equal under every axis still to come, so when an
    axis other than the first takes the span past ``_STATE_SPAN`` only the
    distinct columns (the states) are kept, grouped by ``_row_groups``; the
    (values, states after it) map of the axis is that grouping, or (v, c) ->
    v x states + c.  The first axis turns its columns into their results and
    keeps the distinct ones, grouped by their packed bits
    (``_packed_columns``), so its map leads to the patterns.  The table held
    stays under ``_MAX_WORKING_BYTES``, or one value of the axis over the
    states when that is larger: past it an axis goes in by chunks of its
    values, each chunk deduplicated on its own, and the chunks' distinct
    columns are merged (``_merged_states``).  Activity past
    ``_MAX_ACTIVITY_CELLS`` is refused: where an axis other than the first
    is deduplicated, as soon as a count of hashes proves it leaves more
    states than the next axis admits, before its merge is built.

    The lane width follows the product.  Where states are deduplicated,
    bit sets of one word are packed 64 // bits shifts to a lane, which
    shortens the keys the dedup sorts; elsewhere each shift keeps its own
    words, and no lane is packed or unpacked.  A product without axes (a
    ring without variables) is its one degree, the bit set of every bit.
    """
    thresholds, sets, full, alone = _member_tables(tuple(map(tuple, gens)), len(axes))
    shifts = np.asarray(shifts, dtype=np.int64)
    count, bits = shifts.shape[0], len(gens) + 1
    per = 64 // bits if full.size == 1 and math.prod(len(values) for values in axes[1:]) > _STATE_SPAN else 1
    table = _lanes(full[None, :, None].repeat(count, axis=0), bits, per)
    maps = []
    for j in reversed(range(len(axes))):
        shifted = np.asarray(axes[j], dtype=np.int64) + shifts[:, j, None]
        rows = _lanes(sets[j][np.searchsorted(thresholds[j], shifted, side="right")].transpose(0, 2, 1), bits, per)
        values, states = rows.shape[1], table.shape[1]
        if count * values * states > _MAX_ACTIVITY_CELLS:
            raise ValueError(f"activity of {count} shifts over {values} values x {states} states is too large to scan")
        step = max(1, _MAX_WORKING_BYTES // table.nbytes)
        cuts = range(0, values, step)
        parts = ((rows[:, lo : lo + step, None] & table[:, None, :]).reshape(table.shape[0], -1) for lo in cuts)
        if not j:
            table, group = _merged_states((_lane_results(part, count, bits, per, alone) for part in parts), _packed_columns)
        elif step < values or values * states > _STATE_SPAN:
            # refused past the most states the check of the next axis, of ``ahead`` values, admits
            ahead = len(axes[j - 1])
            limit, what = _MAX_ACTIVITY_CELLS // (count * ahead), f"activity of {count} shifts over {ahead} values"
            table, group = _merged_states(parts, np.transpose, limit, what)
        else:
            table, group = next(parts), np.arange(values * states)
        maps.insert(0, group.reshape(values, states))
    if not axes:
        table = _lane_results(table, count, bits, per, alone)
    return table, tuple(maps)


def _compose(maps, indices) -> np.ndarray:
    """The pattern, through the maps of ``_member_states``, of every degree of a product of per-axis indices."""
    column = np.zeros(1, dtype=np.intp)
    for group, index in zip(reversed(maps), reversed(list(indices))):
        column = group[np.asarray(index)[:, None], column].ravel()
    return column


def _lane_results(table: np.ndarray, count: int, bits: int, per: int, alone: np.ndarray) -> np.ndarray:
    """Whether each shift's bit set in a (lanes, span) table of ``_lanes`` is ``alone``, as (shifts, span)."""
    if per > 1:
        results = np.empty((count, table.shape[1]), dtype=bool)
        for slot in range(min(per, count)):
            lanes = table[: -(-(count - slot) // per)]
            results[slot::per] = lanes >> np.uint64(slot * bits) & np.uint64((1 << bits) - 1) == alone[0]
        return results
    if alone.size == 1:
        return table == alone[0]
    return (table.reshape(count, alone.size, -1) == alone[:, None]).all(axis=1)


class _Activity(tuple):
    """The (rows, patterns) activity of the distinct patterns of a product
    grid and the per-axis maps of ``_member_states``.  ``size`` is that of
    the activity: rows x patterns, not the cells the kernel ANDed."""

    @property
    def size(self) -> int:
        return self[0].size


def _ext_activity(J: MonomialIdeal, I: MonomialIdeal, axes: _Product, lcms: np.ndarray) -> _Activity:
    """Component activity of Hom(L, S/I) per distinct face lcm, for complexes L of faces on the generators of J
    (or of its radical), the walk of every ``_slice_dims`` call.

    Face T is active at b iff b + lcm_T >= 0 and x^(b + lcm_T) is not in I,
    so it depends on T only through lcm_T.  Row u of the (lcms, patterns)
    activity is that of the faces of lcm ``lcms[u]``, every axis shifted by
    it, at the distinct patterns of ``_member_states``, whose maps lead each
    degree to its pattern.  The rows may stack the lcms of several complexes.
    """
    return _Activity(_member_states(axes, I.gens, lcms))


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _BoundedCache:
    """A thread-safe mapping that drops the oldest entries first.

    It holds at most ``maxsize`` entries and, given ``maxbytes``, keys and
    values (both bytes) of at most ``maxbytes`` bytes in all.
    """

    def __init__(self, maxsize: int, maxbytes: Optional[int] = None):
        self.maxsize, self.maxbytes = maxsize, maxbytes
        self._entries: OrderedDict = OrderedDict()  # oldest first
        self._lock = threading.Lock()
        self._hits = self._misses = self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _weight(self, key, value) -> int:
        return 0 if self.maxbytes is None else len(key) + len(value)

    def get(self, key):
        """The entry of ``key``, or None; counts a hit or a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
            else:
                self._hits += 1
            return value

    def put(self, key, value):
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= self._weight(key, old)
            self._entries[key] = value
            self._bytes += self._weight(key, value)
            while len(self._entries) > self.maxsize or (self.maxbytes is not None and self._bytes > self.maxbytes):
                self._bytes -= self._weight(*self._entries.popitem(last=False))

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(self._hits, self._misses, self.maxsize, len(self._entries))

    def cache_clear(self):
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._bytes = 0


# the dimensions column (int32 per level) of each face-activity pattern,
# keyed by p, the face set's digest and the pattern's packed bits; the
# default corpus leaves about 3 700 entries.  Keys and values grow with the
# faces (the 100-generator chain's 3 734 faces give 467 pattern bytes plus
# a prefix of at most 27, and a 404-byte column), so the payload is capped
# in bytes as well: at worst 8 MiB of keys and values plus about 140 bytes
# of Python objects per entry, about 13 MB in all
_DIMS_CACHE = _BoundedCache(32_768, maxbytes=1 << 23)

# ceiling on the cells of a single incidence matrix (128 MiB as int64), so a
# near-full subset complex on many generators is refused at once instead of
# ranked for many minutes
_MAX_RANK_MATRIX_CELLS = 1 << 24


def _incidence_rank(by_size: np.ndarray, sizes: np.ndarray, faces: FaceSet, p: int) -> np.ndarray:
    """Ranks over GF(p) of the signed incidence maps of a face complex.

    ``by_size`` is a (faces, U) boolean array with one activity pattern per
    column, its rows in the order of ``faces``; ``sizes`` (levels, U)
    counts each pattern's active faces per level.  Entry (k, u) of the
    result is the rank of the map from the active faces of size k to the
    active faces of size k + 1 in pattern u.

    Each pair of consecutive levels that are both active in a pattern is one
    matrix, with a row per active face of size k + 1 and a column per active
    face of size k, built from each face's boundary and ranked on its own by
    ``rank_mod_p``.
    ``cache_info`` and ``cache_clear`` are those of the memo of
    ``_lattice_dims``, which calls this on the missed patterns its matching
    leaves undecided (``_morse_dims``, which ``taylor`` calls on the lcm
    strands), after the rank ceiling; on any pattern it stays the oracle.
    """
    offsets, down = faces.offsets, faces.down
    ranks = np.zeros((sizes.shape[0] - 1, by_size.shape[1]), dtype=np.int64)
    for k, u in zip(*np.nonzero((sizes[:-1] > 0) & (sizes[1:] > 0))):
        lo = by_size[offsets[k] : offsets[k + 1], u]
        boundary = down[k + 1][by_size[offsets[k + 1] : offsets[k + 2], u]]
        # face i without its t-th member has sign (-1)^t
        row, t = np.nonzero(lo[boundary])
        matrix = np.zeros((boundary.shape[0], sizes[k, u]), dtype=np.int64)
        matrix[row, np.cumsum(lo)[boundary[row, t]] - 1] = 1 - 2 * (t & 1)
        ranks[k, u] = rank_mod_p(matrix, p)
    return ranks


_incidence_rank.cache_info = _DIMS_CACHE.cache_info
_incidence_rank.cache_clear = _DIMS_CACHE.cache_clear


def _check_rank_ceiling(sizes: np.ndarray):
    """Refuse patterns, given by their active faces per level (levels,
    patterns), one of whose incidence matrices between consecutive levels
    has more than ``_MAX_RANK_MATRIX_CELLS`` cells."""
    largest = int((sizes[:-1].astype(np.int64) * sizes[1:]).max(initial=0))
    if largest > _MAX_RANK_MATRIX_CELLS:
        raise ValueError(
            f"an incidence matrix of {largest} cells on {sizes.shape[0] - 1} generators is too large to rank"
        )


def _unmatched(free: np.ndarray, pairs) -> np.ndarray:
    """The iterated element matching, in place on the boolean (faces, ...) ``free``: for each
    position's (2, k) array of (G, G without g) face pairs in turn (``FaceSet.element_pairs``,
    or a subset of them), both faces of a pair still free are matched and cleared."""
    for upper, lower in pairs:
        both = free[upper]
        both &= free[lower]
        free[upper] ^= both
        free[lower] ^= both
    return free


def _critical_counts(by_size: np.ndarray, faces: FaceSet) -> np.ndarray:
    """Per level, the active faces of each pattern (a column of the (faces,
    U) boolean ``by_size``) that the iterated element matching
    (``_unmatched`` on every pair) leaves critical, as (levels, U).  The
    columns go in chunks whose copy and per-position temporaries, at most
    four bytes per face and column, stay under ``_MAX_WORKING_BYTES``.
    """
    step = max(1, _MAX_WORKING_BYTES // (4 * faces.size))
    chunks = (by_size[:, lo : lo + step].copy() for lo in range(0, by_size.shape[1], step))
    counts = [faces.per_level(_unmatched(free, faces.element_pairs)) for free in chunks]
    return counts[0] if len(counts) == 1 else np.concatenate(counts, axis=1)


def _morse_dims(critical: np.ndarray, sizes: np.ndarray, faces: FaceSet, p: int, active) -> np.ndarray:
    """Cohomology dimensions of patterns from their critical and active faces per level, both
    (levels, U), written into ``critical``: only patterns with critical faces in two adjacent
    levels are ranked (``_incidence_rank``), on the (faces, columns) activity ``active(columns)``."""
    ranked = np.flatnonzero(((critical[:-1] > 0) & (critical[1:] > 0)).any(axis=0))
    if ranked.size:
        ranks = _incidence_rank(active(ranked), sizes[:, ranked], faces, p)
        critical[:, ranked] = sizes[:, ranked]
        critical[:-1, ranked] -= ranks
        critical[1:, ranked] -= ranks
    return critical


# the place of each of eight rows within a byte of ``_packed_columns``
_BIT_PLACES = np.arange(8, dtype=np.uint8)[:, None]


def _packed_columns(active: np.ndarray) -> np.ndarray:
    """The columns of a 2-d boolean array as C-ordered rows of bytes, eight
    entries to a byte, the first in the lowest bit.  Rows are packed eight
    at a time, each an OR over the columns written straight into its byte
    of every row.  A row of at most 8 bytes is zero-padded to 1, 2, 4 or 8
    bytes, so ``_row_groups`` keys it as an integer without a copy."""
    bits = active.view(np.uint8)
    used = -(-active.shape[0] // 8)
    width = used if used > 8 else next(w for w in _INTEGER_KEYS if w >= used)
    packed = np.empty((active.shape[1], width), dtype=np.uint8)
    packed[:, used:] = 0
    for k in range(used):
        block = bits[8 * k : 8 * k + 8]
        np.bitwise_or.reduce(block << _BIT_PLACES[: block.shape[0]], axis=0, out=packed[:, k])
    return packed


def _lattice_dims(active: np.ndarray, faces: FaceSet, p: int, rows: np.ndarray) -> np.ndarray:
    """Cohomology dimensions of face complexes, one per column of activity.

    ``active`` is a (rows, patterns) boolean array, and ``rows`` gives each
    face, in the order of ``faces``, the row it reads: face f is active in
    pattern u iff ``active[rows[f], u]``.  Returns the dimensions (levels
    of ``faces``, patterns).  The walk of ``_member_states`` hands over
    distinct patterns; a column that repeats another is looked up once.

    The dimensions of a pattern depend only on p, the face set's incidence
    structure and which faces are active, so each pattern's column is
    looked up in a bounded memo keyed by p, ``faces.digest`` (every level,
    the level count and every boundary map) and the pattern's packed bits.

    The patterns the memo misses must each be convex in the face poset, as
    every caller's is (an up-set of the faces meet a down-set), so that
    their incidence maps form a cochain complex; on any other pattern "size
    minus ranks" is no cohomology.  After the rank ceiling is checked on
    all of them, the iterated element matching (``_critical_counts``) runs
    on them: it is acyclic with unit matched entries (Jonsson, LNM 1928,
    Lemmas 4.1-4.2; Skoldberg 2006; Joellenbeck-Welker 2009), so a pattern
    whose critical faces never sit in two adjacent levels has a zero Morse
    differential, and its dimensions are its critical counts.
    ``_incidence_rank`` ranks the other missed patterns, one level pair at
    a time.
    """
    by_size = active[rows]
    packed = _packed_columns(by_size)
    width, data = packed.shape[1], packed.tobytes()
    prefix = b"%d," % p + faces.digest
    keys = [prefix + data[u * width : (u + 1) * width] for u in range(by_size.shape[1])]
    column_of = dict(zip(keys, range(len(keys))))  # one column of every distinct key
    values = {key: _DIMS_CACHE.get(key) for key in column_of}
    missing = [key for key, value in values.items() if value is None]
    if missing:
        picked = by_size[:, [column_of[key] for key in missing]]
        sizes = faces.per_level(picked)
        _check_rank_ceiling(sizes)
        critical = _critical_counts(picked, faces).astype(np.int32)
        dims = _morse_dims(critical, sizes, faces, p, lambda columns: picked[:, columns])
        for key, column in zip(missing, dims.T):
            values[key] = column.tobytes()
            _DIMS_CACHE.put(key, values[key])
    dims = np.frombuffer(b"".join(values[key] for key in keys), dtype=np.int32)
    return dims.reshape(len(keys), faces.offsets.size - 1).T


def _nonzero_levels(dims: np.ndarray) -> frozenset[int]:
    return frozenset(int(i) for i in np.flatnonzero(dims.any(axis=1)))


@dataclass(frozen=True, eq=False)
class SliceTable:
    """All slice dimensions of one complex over a degree box, stored per activity pattern.

    Axis j splits the box values into intervals: class k starts at
    ``_starts[j][k]`` and ends before the next start (the last at rho_j).
    ``_walk``, the table's block of a ``_slice_dims`` call that the tables
    of ``_class_tables`` share, runs on first read: it gives ``_walked``,
    the dimensions (levels, patterns) of the distinct activity patterns and
    the per-axis maps of the activity walk (``_member_states``) to the
    pattern of each class of the product of the axes' classes
    (``_compose``).  ``profile`` and ``dim_at`` read these;
    the listings read ``_class_dims``, the dimensions (levels, classes)
    gathered on first use, refused when ``_faces`` x classes pass
    ``_MAX_ACTIVITY_CELLS`` (before the walk, if nothing has run it)."""

    box: DegreeBox
    _starts: tuple[np.ndarray, ...]
    _faces: int
    _walk: Callable[[], tuple[np.ndarray, tuple[np.ndarray, ...]]]

    @cached_property
    def _walked(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        return self._walk()

    @cached_property
    def _class_dims(self) -> np.ndarray:
        """The dimensions (levels, classes) of every class, those at its first value, for the listings."""
        self._check_grid(tuple(len(starts) for starts in self._starts))
        return self._product_dims(self._starts)

    def _check_grid(self, shape: tuple[int, ...]):
        _check_scan_size(shape, self._faces, f"class grid {shape} of the stabilization box {self.box.rho}")

    def profile(self) -> frozenset[int]:
        """Indices with a nonvanishing slice somewhere in the box."""
        return _nonzero_levels(self._walked[0])

    def _level(self, i: int) -> Optional[int]:
        """Level i as an int, or None for an integer level the table lacks."""
        i = operator.index(i)
        return i if 0 <= i < self._walked[0].shape[0] else None

    def dim_at(self, i: int, b) -> int:
        b = tuple(map(operator.index, b))
        if not self.box.contains(b):
            raise ValueError("degree outside the stabilization box")
        i = self._level(i)
        return 0 if i is None else int(self._product_dims([[v] for v in b])[i, 0])

    def _product_dims(self, axes) -> np.ndarray:
        """The dimensions (levels, degrees) at the product of per-axis box
        values, in lexicographic order: each value is looked up in its
        axis's classes."""
        classes = (np.searchsorted(starts, values, side="right") - 1 for starts, values in zip(self._starts, axes))
        dims, maps = self._walked
        return dims[:, _compose(maps, classes)]

    def first_shifted_mismatch(self, i: int, target: MonomialIdeal, shift) -> Optional[tuple]:
        """The lexicographically first box degree b where level i differs
        from the indicator of x^(b + shift) being a monomial of S/target,
        with the expected and the tabled dimension; None if none.  Both are
        constant on each class of the table's starts merged with the
        indicator's thresholds (those of a face of lcm ``shift``), so they
        are compared once per class, at its first degree (a class grid,
        checked as ``_class_dims``).  A level the table lacks reads as zero.
        """
        i = self._level(i)
        shifts = np.array([shift], dtype=np.int64)
        axes = enumerate(zip(self._starts, self.box.rho))
        starts = [_axis_classes(r, [*own.tolist(), *_thresholds(target, shifts, j)])[0] for j, (own, r) in axes]
        shape = tuple(map(len, starts))
        self._check_grid(shape)
        active, maps = _member_states(starts, target.gens, shifts)
        expected = active[0, _compose(maps, map(np.arange, shape))]
        tabled = np.zeros(expected.size, dtype=np.int32) if i is None else self._product_dims(starts)[i]
        bad = np.flatnonzero(tabled != expected)
        if not bad.size:
            return None
        cell = np.unravel_index(bad[0], shape)
        return tuple(int(values[k]) for values, k in zip(starts, cell)), int(expected[bad[0]]), int(tabled[bad[0]])

    def hilbert(self, i: int) -> dict[tuple[int, ...], int]:
        """Nonzero slice dimensions of level i, keyed by multidegree."""
        i = self._level(i)
        if i is None:
            return {}
        level = self._class_dims[i]
        _check_listing(int(self._class_sizes()[level != 0].sum()), self.box)
        degrees, dims = self._records(level)
        return dict(zip(map(tuple, degrees.tolist()), dims.tolist()))

    def total(self, i: int) -> int:
        """Sum of the slice dimensions of level i over the box."""
        i = self._level(i)
        return 0 if i is None else int((self._class_dims[i].astype(object) * self._class_sizes()).sum())

    def _class_bounds(self, axis: int) -> np.ndarray:
        """First value of each class of the axis, plus rho + 1, the end of the last."""
        return np.append(self._starts[axis], self.box.rho[axis] + 1)

    def _class_sizes(self) -> np.ndarray:
        """Box degrees in each class, in the flat class order, as exact Python ints."""
        sizes = np.ones(1, dtype=object)
        for axis in range(len(self._starts)):
            sizes = np.multiply.outer(sizes, np.diff(self._class_bounds(axis)).astype(object)).ravel()
        return sizes

    def _record_count(self) -> int:
        """Number of {i, b, dim} records of :meth:`dump`: the box degrees of
        every nonzero class, summed over the levels."""
        dims, sizes = self._class_dims, self._class_sizes()
        return sum(int(sizes[level != 0].sum()) for level in dims)

    def _records(self, level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Degrees (lexicographic) and dims of the nonzero slices of one level of class dims.

        Axis by axis, each degree prefix is extended by the values of every
        class of the next axis under which some slice is nonzero, so only
        prefixes of listed degrees are ever built.  ``prefix`` is the flat
        class index of each row's prefix.
        """
        degrees = np.zeros((1, 0), dtype=np.int32)
        prefix = np.zeros(1, dtype=np.int64)
        rest = level.size  # classes per prefix over the axes still to come
        for axis in range(len(self._starts)):
            classes = len(self._starts[axis])
            rest //= classes
            live = (level.reshape(-1, classes, rest) != 0).any(axis=2)
            rows, cls = np.nonzero(live[prefix])
            bounds = self._class_bounds(axis)
            starts, lengths = bounds[cls], bounds[cls + 1] - bounds[cls]
            take = np.repeat(np.arange(rows.size), lengths)
            values = np.arange(take.size) - np.repeat(np.cumsum(lengths) - lengths, lengths) + starts[take]
            degrees = np.hstack([degrees[rows[take]], values.astype(np.int32)[:, None]])
            prefix = (prefix[rows] * classes + cls)[take]
        return degrees, level[prefix]

    def dump(self) -> list[dict]:
        """All nonzero slices as {i, b, dim} records, ordered by (i, b); see :func:`dump_tables`."""
        return dump_tables(self)[0]

    def _listing(self) -> list[dict]:
        out = []
        for i, level in enumerate(self._class_dims):
            degrees, dims = self._records(level)
            out.extend({"i": i, "b": b, "dim": d} for b, d in zip(degrees.tolist(), dims.tolist()))
        return out


def dump_tables(*tables: SliceTable) -> list[list[dict]]:
    """The :meth:`SliceTable.dump` listing of each table.

    Walks the nonzero classes only, never the whole box.  Listings of more
    than ``_MAX_LISTING_RECORDS`` records in all are refused before any
    record of any table is built.
    """
    _check_listing(sum(table._record_count() for table in tables), tables[0].box)
    return [table._listing() for table in tables]


def _check_listing(count: int, box: DegreeBox):
    if count > _MAX_LISTING_RECORDS:
        raise ValueError(
            f"stabilization box {box.rho} lists {count} nonzero slices, over {_MAX_LISTING_RECORDS}: too large to scan"
        )


# hard ceiling on activity cells so oversized requests fail fast instead of
# exhausting memory; generous for the intended desk scale.  It bounds the
# activity the walk ANDs in (shifts x values x states of one axis), the
# dense scan (Taylor faces x box degrees), and the arrays of one entry per
# class degree (faces x class degrees) that only listings build
_MAX_ACTIVITY_CELLS = 600_000_000

# ceiling on the records of one slice listing (``dump_tables``): each
# record is a Python dict, and ``analyze --slices --json`` peaks near 1.4 kB
# per record (345 MB RSS for 250 000 records in two variables)
_MAX_LISTING_RECORDS = 250_000


def _check_scan_size(shape, faces: int, what: str):
    """Refuse a complex of more than ``_MAX_FACES`` faces, or a grid of the
    given per-axis sizes whose activity matrix (faces x degrees) exceeds the
    ceiling."""
    if faces > _MAX_FACES or math.prod(shape) * faces > _MAX_ACTIVITY_CELLS:
        raise ValueError(f"{what} with {faces} faces is too large to scan")


def _complex(kind: str, A: MonomialIdeal) -> tuple[FaceLayout, int]:
    """The complex of a kind of table on A and the scale of its face lcms:
    the Lyubeznik complex of A for Ext ("ext"), and for local cohomology
    ("lc") that of rad(A) scaled by ``_LEFT_OUT``, its Frobenius power."""
    if kind == "ext":
        return lyubeznik_layout(A.gens, A.ring.n), 1
    return lyubeznik_layout(radical(A).gens, A.ring.n), _LEFT_OUT


def _shifts(complexes) -> np.ndarray:
    """The shift rows of complexes given as (layout, scale): each layout's
    distinct face lcms times its scale, stacked in turn."""
    return np.concatenate([layout.lcm_groups[0].astype(np.int64) * scale for layout, scale in complexes])


def _slice_dims(
    A: MonomialIdeal, B: MonomialIdeal, axes: _Product, complexes
) -> tuple[list[np.ndarray], tuple[np.ndarray, ...]]:
    """Slice dimensions of Hom into S/B of each complex on A, given as
    (layout, scale), its face lcms scaled by ``scale``, over the product
    ``axes``: one (levels 0..len(A.gens), distinct activity patterns) array
    per complex, levels it lacks (one on the radical of A may have fewer)
    zero, and the walk's per-axis maps to the pattern of each degree.

    Activity depends on a face only through its scaled lcm, so one walk
    serves every complex: the kernel runs once on the stacked shift rows
    (``_shifts``), and ``_lattice_dims`` reads each complex's block of rows,
    each face the row of its lcm.  A column that repeats within a block is
    looked up once, so the blocks need no regrouping.
    """
    active, maps = _ext_activity(A, B, axes, _shifts(complexes))
    levels, dims, lo = len(A.gens) + 1, [], 0
    for layout, _ in complexes:
        lcms, rows = layout.lcm_groups
        block = _lattice_dims(active[lo : lo + len(lcms)], layout.faces, A.ring.char, rows)
        lo += len(lcms)
        if block.shape[0] < levels:
            block = np.concatenate([block, np.zeros((levels - block.shape[0], block.shape[1]), dtype=block.dtype)])
        dims.append(block)
    return dims, maps


def _block(walk, k: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Complex k's dimensions and the maps of ``walk``, the cached ``_slice_dims`` walk one grid's tables share."""
    dims, maps = walk()
    return dims[k], maps


def _class_tables(kinds, A: MonomialIdeal, B: MonomialIdeal, pad: int) -> list[SliceTable]:
    """A table of each kind on (A, B), on one representative degree per threshold class.

    The tables share the class grid of their complexes' stacked shifts and
    one walk (``_grid_tables``).  That grid refines each complex's own, so
    every table keeps its dimensions; for Ext and local cohomology it is the
    Ext grid, as the empty face's lcm is 0 and every other local-cohomology
    threshold lies outside the box.  A finer grid widens the walk of the
    coarser kinds, so tables of several kinds whose grid has more than
    ``_STATE_SPAN`` classes go on their own grids instead, one walk each.
    """
    _check_pair(A, B)
    _check_module(B)
    box = DegreeBox.for_ideals(A, B, pad=pad)
    complexes = [_complex(kind, A) for kind in kinds]
    tables = _grid_tables(A, B, box, complexes)
    if len(complexes) > 1 and math.prod(map(len, tables[0]._starts)) > _STATE_SPAN:
        tables = [table for one in complexes for table in _grid_tables(A, B, box, [one])]
    return tables


def _grid_tables(A: MonomialIdeal, B: MonomialIdeal, box: DegreeBox, complexes) -> list[SliceTable]:
    """The tables of the complexes on the class grid of their stacked shifts,
    sharing one ``_slice_dims`` walk, which runs on the first read of any of them."""
    shifts = _shifts(complexes)
    classes = [_axis_classes(r, _thresholds(B, shifts, j)) for j, r in enumerate(box.rho)]
    starts = tuple(starts for starts, _ in classes)
    walk = cache(partial(_slice_dims, A, B, _Product(rep for _, rep in classes), complexes))
    return [SliceTable(box, starts, layout.faces.size, partial(_block, walk, k)) for k, (layout, _) in enumerate(complexes)]


def _dense_profiles(A: MonomialIdeal, B: MonomialIdeal) -> tuple[frozenset[int], frozenset[int]]:
    """The Ext and local-cohomology profiles from one walk on every degree of the unpadded box.

    The engine the class grid replaced, kept as the independent side of the
    corpus cross-check.  It runs on the full Taylor complex of A's own
    generators for Ext, and of their supports, in A's order, scaled by
    ``_LEFT_OUT`` for local cohomology (localizing at x^g is localizing at
    x^supp(g)), so it shares neither the class grid nor the Lyubeznik
    complex or the radical with the class tables.  The box and the module
    are those of both kinds, so one ``_slice_dims`` walk serves both
    complexes.
    """
    _check_pair(A, B)
    _check_module(B)
    box = DegreeBox.for_ideals(A, B)
    _check_scan_size([2 * r + 1 for r in box.rho], 1 << len(A.gens), f"stabilization box {box.rho}")
    axes = _Product(np.arange(-r, r + 1, dtype=np.int16) for r in box.rho)
    supports = tuple(tuple(int(e > 0) for e in g) for g in A.gens)
    complexes = [(taylor_layout(A.gens, A.ring.n), 1), (taylor_layout(supports, A.ring.n), _LEFT_OUT)]
    ext, lc = _slice_dims(A, B, axes, complexes)[0]
    return _nonzero_levels(ext), _nonzero_levels(lc)


def ext_table(J: MonomialIdeal, I: MonomialIdeal, pad: int = 0) -> SliceTable:
    """Slice dimensions of Ext^i(S/J, S/I), listed over the stabilization box widened by ``pad``."""
    return _class_tables(("ext",), J, I, pad)[0]


def lc_table(a: MonomialIdeal, I: MonomialIdeal, pad: int = 0) -> SliceTable:
    """Slice dimensions of the local cohomology of S/I supported on a, listed
    over the stabilization box widened by ``pad``."""
    return _class_tables(("lc",), a, I, pad)[0]


# profiles keyed by (kind, A, B)
_PROFILE_CACHE = _BoundedCache(65_536)


def clear_slice_caches():
    _PROFILE_CACHE.cache_clear()
    _DIMS_CACHE.cache_clear()
    for cached in (lyubeznik_layout, _lyubeznik_faces, _taylor_faces, _member_tables):
        cached.cache_clear()


def _cached_profiles(kinds, A: MonomialIdeal, B: MonomialIdeal) -> tuple[frozenset[int], ...]:
    """The profile of each kind of table on (A, B), kept in ``_PROFILE_CACHE``;
    those it misses are read off ``_class_tables``, from one walk."""
    keys = [(kind, A, B) for kind in kinds]
    profiles = [_PROFILE_CACHE.get(key) for key in keys]
    missing = [k for k, profile in enumerate(profiles) if profile is None]
    if missing:
        tables = _class_tables([kinds[k] for k in missing], A, B, 0)
        for k in missing:
            # each table is dropped once read, so a table's walk is not held while the next one walks
            profiles[k] = tables.pop(0).profile()
            _PROFILE_CACHE.put(keys[k], profiles[k])
    return tuple(profiles)


def ext_profile(J: MonomialIdeal, I: MonomialIdeal) -> frozenset[int]:
    """Indices i with Ext^i(S/J, S/I) != 0."""
    return _cached_profiles(("ext",), J, I)[0]


def lc_profile(a: MonomialIdeal, I: MonomialIdeal) -> frozenset[int]:
    """Indices i with nonvanishing i-th local cohomology of S/I supported on a."""
    return _cached_profiles(("lc",), a, I)[0]


def pair_profiles(a: MonomialIdeal, I: MonomialIdeal) -> tuple[frozenset[int], frozenset[int]]:
    """(``ext_profile(a, I)``, ``lc_profile(a, I)``), the two from one walk on
    the Ext class grid when it has at most ``_STATE_SPAN`` classes."""
    return _cached_profiles(("ext", "lc"), a, I)


def ext_vanishes(J: MonomialIdeal, I: MonomialIdeal, i: int) -> bool:
    """Whether Ext^i(S/J, S/I) vanishes as a module."""
    return operator.index(i) not in ext_profile(J, I)


def ext_vanishes_below(J: MonomialIdeal, I: MonomialIdeal, k: int) -> bool:
    """Whether Ext^i(S/J, S/I) = 0 for every i < k."""
    k = operator.index(k)
    return all(i >= k for i in ext_profile(J, I))


def _slice_at(kind: str, A: MonomialIdeal, B: MonomialIdeal, i: int, b) -> int:
    """Level i of a kind of table at the single degree b, exact for any b the int16 grid holds."""
    _check_pair(A, B)
    _check_module(B)
    i, b = operator.index(i), tuple(map(operator.index, b))
    if len(b) != A.ring.n:
        raise ValueError("multidegree does not match the ring")
    if any(abs(x) > MAX_EXPONENT + 1 for x in b):
        raise ValueError(f"degree {b} is out of range: entries beyond +-{MAX_EXPONENT + 1} overflow int16")
    (dims,), _ = _slice_dims(A, B, _Product(np.array([x], dtype=np.int16) for x in b), [_complex(kind, A)])
    return int(dims[i, 0]) if 0 <= i < dims.shape[0] else 0  # one degree: one pattern


def ext_slice(J: MonomialIdeal, I: MonomialIdeal, i: int, b) -> int:
    """Dimension of the degree-b slice of Ext^i(S/J, S/I)."""
    return _slice_at("ext", J, I, i, b)


def local_cohomology_slice(a: MonomialIdeal, I: MonomialIdeal, i: int, b) -> int:
    """Dimension of the degree-b slice of the i-th local cohomology of S/I supported on a."""
    return _slice_at("lc", a, I, i, b)
