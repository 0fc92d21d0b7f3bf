"""Degreewise Ext and local-cohomology slices over a finite stabilization box.

Both engines share one mechanism.  In a fixed multidegree b, each complex
has components indexed by subsets of a generating set; every component is
0- or 1-dimensional, and each differential entry is an incidence sign
exactly when both endpoints are nonzero.  So a degree is fully described by
its activity pattern (which subsets are nonzero), cohomology dimensions are
rank computations over GF(char), and degrees sharing a pattern share all
ranks.

The engines evaluate one degree per threshold class, not every degree.
Whether a subset is active at b depends on each b_j only through
comparisons b_j >= t against a finite set of thresholds per axis:

- Ext (b + lcm_T >= 0 and x^(b + lcm_T) outside I): t = c - alpha with
  c in {0} u {I-exponents on x_j} and alpha in {0} u {J-exponents on x_j};
- Cech (b_j >= 0 off the inverted support, restriction outside the erased
  I): t in {0} u {I-exponents on x_j}.

Values of b_j that pass the same thresholds form one class, and a product
of classes has one activity pattern, hence one set of slice dimensions.
This is the combinatorics behind Takayama's formula for the local
cohomology of S/I (Miller-Sturmfels, Combinatorial Commutative Algebra,
ch. 13).  The box -rho_j <= b_j <= rho_j, with rho_j = 1 + (largest
x_j-exponent among the participating minimal generators), holds every
threshold strictly inside, so it meets every class of Z^n and decides
module vanishing exactly; padding only widens the two edge classes of an
axis.  Each class is represented by its member of least |b_j|, so a class
meets a smaller centred box exactly when its representative does and
``profile_within`` stays exact.  A SliceTable keeps the dimensions per
class and expands them to every box degree only when ``degrees`` or
``dims`` is read (``dim_at`` looks its class up directly).

The dense scan over every box degree (``_dense_profile``) stays as an
independent engine: the corpus cross-check compares it at pad 0 against
the class engine at pad 2, and the tests run the same kernels densely as
the oracle for the class tables.  The activity matrix of a class grid is
bounded by ``_MAX_ACTIVITY_CELLS`` (subsets x class degrees); the dense
scan and the expansion of a table to every box degree are bounded by the
same ceiling over the whole box.

Each table runs its layers in bulk.  Ext activity depends on a subset T
only through lcm_T, so it is evaluated once per distinct lcm and gathered
to the subsets.  Degrees are grouped by activity pattern under a
one-value key per degree.  Then the ranks for the whole table are computed
together: each distinct pair of consecutive active levels is looked up in
a bounded cache, and the missing incidence matrices go to ``rank_mod_p``
in zero-padded stacks of bounded size, eliminated in lock step.  A single
incidence matrix above ``_MAX_RANK_MATRIX_CELLS`` is refused before any
stack is built.

The same kernel has a third caller besides the Ext and Cech tables:
``taylor.betti_numbers`` ranks the lcm strands of the Taylor complex, each
strand one activity column.  The subset helpers (``masks_by_size``,
``incidence_sign``, ``subset_lcms``) live here for all three.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import rank_mod_p
from .monomials import MAX_EXPONENT, MonomialIdeal, _check_pair, support

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
    "clear_slice_caches",
    "masks_by_size",
    "incidence_sign",
    "subset_lcms",
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
    """(2^r, n) array of componentwise maxima over every generator subset.

    The subsets whose top element is k are those below 1 << k with k added,
    so each generator fills one block from the block before it.
    """
    r = len(gens)
    alpha = np.zeros((1 << r, n), dtype=np.int16)
    for k, g in enumerate(np.asarray(gens, dtype=np.int16).reshape(r, n)):
        alpha[1 << k : 2 << k] = np.maximum(alpha[: 1 << k], g)
    return alpha


@dataclass(frozen=True)
class DegreeBox:
    """Per-variable scan bounds; the region is -rho_j <= b_j <= rho_j."""

    rho: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rho", tuple(int(r) for r in self.rho))
        if any(r < 1 for r in self.rho):
            raise ValueError("box bounds must be positive")
        # a scanned degree plus a subset lcm stays within int16
        if any(r > MAX_EXPONENT + 1 for r in self.rho):
            raise ValueError(f"box {self.rho} is too large: bounds above {MAX_EXPONENT + 1} overflow int16")

    @staticmethod
    def for_ideals(*ideals: MonomialIdeal, pad: int = 0) -> "DegreeBox":
        n = ideals[0].ring.n
        rho = [1] * n
        for A in ideals:
            for g in A.gens:
                for j, e in enumerate(g):
                    rho[j] = max(rho[j], e + 1)
        return DegreeBox(tuple(r + pad for r in rho))

    def contains(self, b) -> bool:
        return len(b) == len(self.rho) and all(-r <= x <= r for x, r in zip(b, self.rho))

    def degree_grid(self) -> np.ndarray:
        """All box degrees as an (D, n) int16 array, lexicographic order."""
        return _product_grid([np.arange(-r, r + 1, dtype=np.int16) for r in self.rho])


def _product_grid(axes) -> np.ndarray:
    """The product of per-axis int16 value arrays as a (D, n) array, lexicographic order."""
    if not axes:
        return np.zeros((1, 0), dtype=np.int16)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _axis_classes(r: int, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Threshold classes of the box values -r..r on one axis.

    Returns the class id of each value (indexed by value + r; ids increase
    with the value) and each class's representative, its member of least
    absolute value.
    """
    values = np.arange(-r, r + 1)
    passed = np.searchsorted(np.unique(thresholds), values, side="right")
    ids = np.unique(passed, return_inverse=True)[1]
    nearest_first = np.argsort(np.abs(values), kind="stable")
    first = np.unique(ids[nearest_first], return_index=True)[1]
    return ids, values[nearest_first[first]].astype(np.int16)


def _ext_thresholds(J: MonomialIdeal, I: MonomialIdeal, j: int) -> list[int]:
    return [c - alpha for c in {0, *(g[j] for g in I.gens)} for alpha in {0, *(h[j] for h in J.gens)}]


def _cech_thresholds(a: MonomialIdeal, I: MonomialIdeal, j: int) -> list[int]:
    return [0, *(g[j] for g in I.gens)]


def _member_rows(C: np.ndarray, gens) -> np.ndarray:
    """Membership of each row of C in the monomial ideal with the given generators."""
    if not gens:
        return np.zeros(C.shape[0], dtype=bool)
    if C.shape[1] == 0:
        return np.ones(C.shape[0], dtype=bool)
    G = np.asarray(gens, dtype=np.int16)
    return (C[:, None, :] >= G[None, :, :]).all(axis=2).any(axis=1)


def _ext_activity(J: MonomialIdeal, I: MonomialIdeal, grid: np.ndarray, max_level: int) -> np.ndarray:
    """Component activity of Hom(subset-lcm complex of J, S/I) per degree.

    Subset T is active at b iff b + lcm_T >= 0 and x^(b + lcm_T) is not in I.
    That depends on T only through lcm_T, so activity is evaluated once per
    distinct lcm and gathered to the subsets.
    """
    r = len(J.gens)
    alpha = subset_lcms(J.gens, J.ring.n)
    rows = alpha.tolist()
    sharing: dict[tuple, list[int]] = {}  # the subsets of each distinct lcm
    for level in masks_by_size(r)[: max_level + 1]:
        for mask in level:
            sharing.setdefault(tuple(rows[mask]), []).append(mask)
    act = np.zeros((1 << r, grid.shape[0]), dtype=bool)
    for masks in sharing.values():
        shifted = grid + alpha[masks[0]]
        act[masks] = (shifted >= 0).all(axis=1) & ~_member_rows(shifted, I.gens)
    return act


def _cech_activity(a: MonomialIdeal, I: MonomialIdeal, grid: np.ndarray, max_level: int) -> np.ndarray:
    """Component activity of the Cech complex on the generators of a, with S/I coefficients.

    For subset T let F be the union of the generator supports.  The localized
    piece at b is nonzero iff b_j >= 0 away from F and the restriction of b
    away from F avoids the ideal obtained from I by inverting F.
    """
    n = a.ring.n
    r = len(a.gens)
    supp_bits = [sum(1 << j for j in support(g)) for g in a.gens]
    act = np.zeros((1 << r, grid.shape[0]), dtype=bool)
    by_f: dict[int, np.ndarray] = {}
    for mask in range(1 << r):
        if mask.bit_count() > max_level:
            continue
        fbits = 0
        rem = mask
        while rem:
            low = rem & -rem
            rem ^= low
            fbits |= supp_bits[low.bit_length() - 1]
        if fbits not in by_f:
            outside = [j for j in range(n) if not (fbits >> j) & 1]
            sub = grid[:, outside]
            erased = [tuple(g[j] for j in outside) for g in I.gens]
            by_f[fbits] = (sub >= 0).all(axis=1) & ~_member_rows(sub, erased)
        act[mask] = by_f[fbits]
    return act


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _BoundedCache:
    """A thread-safe mapping of at most ``maxsize`` entries that drops the oldest first."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()  # oldest first
        self._lock = threading.Lock()
        self._hits = self._misses = 0

    def __len__(self) -> int:
        return len(self._entries)

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
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(self._hits, self._misses, self.maxsize, len(self._entries))

    def cache_clear(self):
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = 0


# ranks of level pairs, keyed by p, r, k and the packed activity of levels k and k + 1
_RANK_CACHE = _BoundedCache(200_000)

# byte cap of one stack of incidence matrices handed to rank_mod_p; it bounds
# the elimination's working memory; a single larger matrix goes alone, up to
# the ceiling below
_MAX_RANK_STACK_BYTES = 1 << 20

# ceiling on the cells of a single incidence matrix (128 MiB as int64), so a
# near-full subset complex on many generators is refused at once instead of
# ranked for many minutes
_MAX_RANK_MATRIX_CELLS = 1 << 24


@lru_cache(maxsize=32)
def _level_layout(r: int):
    """Subsets of {0..r-1} by size, with the incidence maps between sizes.

    Returns the masks ordered by (size, mask), the offsets of each size in
    that order, and for each size k < r two (C(r,k), r-k) arrays: the
    position within size k + 1 of T | bit for each bit outside T, and the
    incidence sign of that face.
    """
    levels = masks_by_size(r)
    order = np.array([m for level in levels for m in level], dtype=np.intp)
    offsets = np.cumsum([0] + [len(level) for level in levels])
    neighbours, signs = [], []
    for k in range(r):
        position = {m: i for i, m in enumerate(levels[k + 1])}
        faces = [[(T, 1 << j) for j in range(r) if not (T >> j) & 1] for T in levels[k]]
        neighbours.append(np.array([[position[T | b] for T, b in up] for up in faces], dtype=np.intp))
        signs.append(np.array([[incidence_sign(T, b) for T, b in up] for up in faces], dtype=np.int64))
    return order, offsets, neighbours, signs


def _incidence_rank(by_size: np.ndarray, sizes: np.ndarray, p: int) -> np.ndarray:
    """Ranks over GF(p) of the signed incidence maps of subset complexes.

    ``by_size`` is a (2^r, U) boolean array with one activity pattern per
    column, its rows in the (size, mask) order of ``_level_layout``;
    ``sizes`` (r + 1, U) counts each pattern's active subsets by size.
    Entry (k, u) of the result is the rank of the map from the active
    subsets of size k to the active subsets of size k + 1 in pattern u.

    Each distinct pair of active levels is looked up once in the bounded
    rank cache.  The missing ones are built from each subset's upper
    neighbours, oriented with no more columns than rows, sorted by shape
    and ranked by ``rank_mod_p`` in zero-padded stacks of at most
    ``_MAX_RANK_STACK_BYTES``.  A missing matrix of more than
    ``_MAX_RANK_MATRIX_CELLS`` cells raises ValueError before any stack is
    built.
    """
    two_r, count = by_size.shape
    r = two_r.bit_length() - 1
    _, offsets, neighbours, signs = _level_layout(r)
    ranks = np.zeros((r, count), dtype=np.int64)
    found = []  # per level: k, live columns, class of each, rank of each class
    missing = []  # per uncached class: its level's rank array, class, k, a column, key
    for k in range(r):
        lo, hi = by_size[offsets[k] : offsets[k + 1]], by_size[offsets[k + 1] : offsets[k + 2]]
        live = np.flatnonzero(lo.any(axis=0) & hi.any(axis=0))
        if not live.size:
            continue
        rows = np.ascontiguousarray(np.packbits(by_size[offsets[k] : offsets[k + 2], live], axis=0).T)
        keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        level_ranks = np.zeros(first.size, dtype=np.int64)
        prefix = b"%d,%d,%d:" % (p, r, k)
        for j, f in enumerate(first.tolist()):
            key = prefix + rows[f].tobytes()
            hit = _RANK_CACHE.get(key)
            if hit is None:
                missing.append((level_ranks, j, k, live[f], key))
            else:
                level_ranks[j] = hit
        found.append((k, live, inverse.ravel(), level_ranks))
    if missing:
        level_of = np.array([m[2] for m in missing])
        column = np.array([m[3] for m in missing])
        width, height = sizes[level_of, column], sizes[level_of + 1, column]
        tall, short = np.maximum(width, height), np.minimum(width, height)
        largest = int((tall * short).max())
        if largest > _MAX_RANK_MATRIX_CELLS:
            raise ValueError(f"an incidence matrix of {largest} cells on {r} generators is too large to rank")
        # cut the pairs, ordered by shape, into int64 stacks under the byte cap
        sequence = np.lexsort((short, tall))
        chunks, start, cols = [], 0, 0
        for pos, idx in enumerate(sequence.tolist()):
            cols = max(cols, int(short[idx]))
            if pos > start and (pos - start + 1) * int(tall[idx]) * cols * 8 > _MAX_RANK_STACK_BYTES:
                chunks.append(sequence[start:pos])
                start, cols = pos, int(short[idx])
        chunks.append(sequence[start:])
        for chunk in chunks:
            stack = np.zeros((chunk.size, tall[chunk].max(), short[chunk].max()), dtype=np.int64)
            for k in np.unique(level_of[chunk]).tolist():
                slots = np.flatnonzero(level_of[chunk] == k)
                picked = column[chunk[slots]]
                lo = by_size[offsets[k] : offsets[k + 1], picked]
                hi = by_size[offsets[k + 1] : offsets[k + 2], picked]
                lo_at = np.cumsum(lo, axis=0, dtype=np.int32) - 1
                hi_at = np.cumsum(hi, axis=0, dtype=np.int32) - 1
                flip = height[chunk[slots]] < width[chunk[slots]]
                # one upper neighbour slot at a time keeps the index arrays small
                for t in range(r - k):
                    up = neighbours[k][:, t]
                    i, b = np.nonzero(lo & hi[up])
                    row, col, f = hi_at[up[i], b], lo_at[i, b], flip[b]
                    stack[slots[b], np.where(f, col, row), np.where(f, row, col)] = signs[k][i, t]
            for idx, value in zip(chunk.tolist(), rank_mod_p(stack, p).tolist()):
                level_ranks, j, _, _, key = missing[idx]
                level_ranks[j] = value
                _RANK_CACHE.put(key, value)
    for k, live, inverse, level_ranks in found:
        ranks[k, live] = level_ranks[inverse]
    return ranks


_incidence_rank.cache_info = _RANK_CACHE.cache_info
_incidence_rank.cache_clear = _RANK_CACHE.cache_clear


def _lattice_dims(active: np.ndarray, p: int) -> np.ndarray:
    """Cohomology dimensions (levels 0..r, per degree) of subset-indexed complexes.

    Degrees are grouped by identical activity pattern under a one-value key
    per degree, the raw bytes of its packed column.  One ``_incidence_rank``
    call ranks the level pairs of every distinct pattern.
    """
    r = active.shape[0].bit_length() - 1
    rows = np.ascontiguousarray(np.packbits(active, axis=0).T)
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order, offsets, _, _ = _level_layout(r)
    by_size = active[np.ix_(order, first)]
    sizes = np.stack([np.count_nonzero(by_size[lo:hi], axis=0) for lo, hi in zip(offsets[:-1], offsets[1:])])
    ranks = _incidence_rank(by_size, sizes, p)
    dims = sizes.astype(np.int32)
    dims[:-1] -= ranks
    dims[1:] -= ranks
    return dims[:, inverse.ravel()]


def _nonzero_levels(dims: np.ndarray) -> frozenset[int]:
    return frozenset(int(i) for i in np.flatnonzero(dims.any(axis=1)))


@dataclass(frozen=True, eq=False)
class SliceTable:
    """All slice dimensions of one complex over a degree box, stored per class.

    Axis j splits the box values into classes (``_ids[j][v + rho_j]`` is
    the class of value v) with representatives ``_reps[j]``; ``_class_dims``
    holds the dimensions (levels, classes) at the product of the
    representatives, in lexicographic order.
    """

    box: DegreeBox
    _reps: tuple[np.ndarray, ...]
    _ids: tuple[np.ndarray, ...]
    _class_dims: np.ndarray

    def _flat(self, per_axis) -> np.ndarray:
        """Flat class indices of the product of per-axis class-id lists."""
        shape = tuple(len(rep) for rep in self._reps)
        return np.ravel(np.ravel_multi_index(np.ix_(*per_axis), shape))

    @cached_property
    def degrees(self) -> np.ndarray:
        """Every box degree, (D, n), lexicographic order."""
        return self.box.degree_grid()

    @cached_property
    def dims(self) -> np.ndarray:
        """Slice dimensions (levels, D) at every box degree."""
        _check_box_size(self.box, self._class_dims.shape[0] - 1)
        return self._class_dims[:, self._flat(self._ids)]

    def profile(self) -> frozenset[int]:
        """Indices with a nonvanishing slice somewhere in the box."""
        return _nonzero_levels(self._class_dims)

    def profile_within(self, rho) -> frozenset[int]:
        inside = [np.flatnonzero(np.abs(rep) <= r) for rep, r in zip(self._reps, rho)]
        return _nonzero_levels(self._class_dims[:, self._flat(inside)])

    def dim_at(self, i: int, b) -> int:
        if i < 0 or i >= self._class_dims.shape[0]:
            return 0
        if not self.box.contains(b):
            raise ValueError("degree outside the stabilization box")
        cls = self._flat([[ids[int(v) + r]] for ids, v, r in zip(self._ids, b, self.box.rho)])
        return int(self._class_dims[i, cls[0]])

    def hilbert(self, i: int) -> dict[tuple[int, ...], int]:
        """Nonzero slice dimensions of level i, keyed by multidegree."""
        if i < 0 or i >= self.dims.shape[0]:
            return {}
        out = {}
        for idx in np.nonzero(self.dims[i])[0]:
            out[tuple(int(x) for x in self.degrees[idx])] = int(self.dims[i, idx])
        return out

    def total(self, i: int) -> int:
        if i < 0 or i >= self.dims.shape[0]:
            return 0
        return int(self.dims[i].sum())

    def dump(self) -> list[dict]:
        """All nonzero slices as {i, b, dim} records, deterministically ordered."""
        out = []
        for i in range(self.dims.shape[0]):
            for idx in np.nonzero(self.dims[i])[0]:
                out.append(
                    {
                        "i": int(i),
                        "b": [int(x) for x in self.degrees[idx]],
                        "dim": int(self.dims[i, idx]),
                    }
                )
        out.sort(key=lambda rec: (rec["i"], rec["b"]))
        return out


def _check_scan(A: MonomialIdeal, B: MonomialIdeal):
    """A pair the degree-box engines can scan: both ideals proper, prime characteristic."""
    _check_pair(A, B)
    if B.is_unit:
        raise ValueError("both ideals must be proper")
    if A.ring.char == 0:
        raise ValueError("prime characteristic required by the rank engine")


# hard ceiling on (subsets x box degrees) cells so oversized requests fail
# fast instead of exhausting memory; generous for the intended desk scale
_MAX_ACTIVITY_CELLS = 600_000_000


def _check_scan_size(shape, generator_count: int, what: str):
    """Refuse a grid of the given per-axis sizes whose activity matrix exceeds the ceiling."""
    if math.prod(shape) << generator_count > _MAX_ACTIVITY_CELLS:
        raise ValueError(f"{what} with {generator_count} generators is too large to scan")


def _check_box_size(box: DegreeBox, generator_count: int):
    """The ceiling for work on every box degree: the dense scan and a table's expansion."""
    _check_scan_size([2 * r + 1 for r in box.rho], generator_count, f"stabilization box {box.rho}")


def _class_table(activity, thresholds, A: MonomialIdeal, B: MonomialIdeal, pad: int, max_level: int):
    """Run an activity kernel on one representative degree per threshold class."""
    _check_scan(A, B)
    box = DegreeBox.for_ideals(A, B, pad=pad)
    classes = [_axis_classes(r, thresholds(A, B, j)) for j, r in enumerate(box.rho)]
    reps = tuple(rep for _, rep in classes)
    shape = tuple(len(rep) for rep in reps)
    _check_scan_size(shape, len(A.gens), f"class grid {shape} of the stabilization box {box.rho}")
    act = activity(A, B, _product_grid(reps), max_level=max_level)
    return SliceTable(box, reps, tuple(ids for ids, _ in classes), _lattice_dims(act, A.ring.char))


def _dense_profile(activity, A: MonomialIdeal, B: MonomialIdeal, pad: int = 0) -> frozenset[int]:
    """The profile from an activity kernel run on every degree of the box.

    The engine the class grid replaced, kept as the independent pad-0 side
    of the corpus cross-check.
    """
    _check_scan(A, B)
    box = DegreeBox.for_ideals(A, B, pad=pad)
    _check_box_size(box, len(A.gens))
    act = activity(A, B, box.degree_grid(), max_level=len(A.gens))
    return _nonzero_levels(_lattice_dims(act, A.ring.char))


def ext_table(J: MonomialIdeal, I: MonomialIdeal, pad: int = 0) -> SliceTable:
    """Slice dimensions of Ext^i(S/J, S/I) over the stabilization box."""
    return _class_table(_ext_activity, _ext_thresholds, J, I, pad, len(J.gens))


def lc_table(a: MonomialIdeal, I: MonomialIdeal, pad: int = 0) -> SliceTable:
    """Slice dimensions of the local cohomology of S/I supported on a."""
    return _class_table(_cech_activity, _cech_thresholds, a, I, pad, len(a.gens))


# profiles keyed by (kind, A, B, pad)
_PROFILE_CACHE = _BoundedCache(65_536)


def clear_slice_caches():
    _PROFILE_CACHE.cache_clear()
    _RANK_CACHE.cache_clear()


def _cached_profile(kind: str, builder, A: MonomialIdeal, B: MonomialIdeal, pad: int) -> frozenset[int]:
    key = (kind, A, B, pad)
    hit = _PROFILE_CACHE.get(key)
    if hit is not None:
        return hit
    table = builder(A, B, pad=pad)
    profile = table.profile()
    _PROFILE_CACHE.put(key, profile)
    # a padded scan contains the unpadded box, whose profile the reports read
    if pad:
        _PROFILE_CACHE.put((kind, A, B, 0), table.profile_within(DegreeBox.for_ideals(A, B).rho))
    return profile


def ext_profile(J: MonomialIdeal, I: MonomialIdeal, pad: int = 0) -> frozenset[int]:
    """Indices i with Ext^i(S/J, S/I) != 0, decided on the (padded) box."""
    return _cached_profile("ext", ext_table, J, I, pad)


def lc_profile(a: MonomialIdeal, I: MonomialIdeal, pad: int = 0) -> frozenset[int]:
    """Indices i with nonvanishing i-th local cohomology of S/I supported on a."""
    return _cached_profile("lc", lc_table, a, I, pad)


def ext_slice(J: MonomialIdeal, I: MonomialIdeal, i: int, b, pad: int = 0) -> int:
    """Dimension of the degree-b slice of Ext^i(S/J, S/I)."""
    _check_scan(J, I)
    box = DegreeBox.for_ideals(J, I, pad=pad)
    if not box.contains(b):
        raise ValueError(f"degree {tuple(b)} violates the stabilization box {box.rho}")
    grid = np.asarray([b], dtype=np.int16)
    act = _ext_activity(J, I, grid, max_level=len(J.gens))
    dims = _lattice_dims(act, J.ring.char)
    return int(dims[i, 0]) if 0 <= i < dims.shape[0] else 0


def ext_vanishes(J: MonomialIdeal, I: MonomialIdeal, i: int, pad: int = 0) -> bool:
    """Whether Ext^i(S/J, S/I) vanishes as a module."""
    return i not in ext_profile(J, I, pad)


def ext_vanishes_below(J: MonomialIdeal, I: MonomialIdeal, k: int, pad: int = 0) -> bool:
    """Whether Ext^i(S/J, S/I) = 0 for every i < k (levels above k are not computed)."""
    if k <= 0:
        return True
    table = _class_table(_ext_activity, _ext_thresholds, J, I, pad, min(k, len(J.gens)))
    return not table._class_dims[:k].any()


def local_cohomology_slice(a: MonomialIdeal, I: MonomialIdeal, i: int, b) -> int:
    """Dimension of the degree-b slice of the i-th local cohomology of S/I supported on a."""
    _check_scan(a, I)
    b = tuple(int(x) for x in b)
    if len(b) != a.ring.n:
        raise ValueError("multidegree does not match the ring")
    if any(abs(x) > MAX_EXPONENT + 1 for x in b):
        raise ValueError(f"degree {b} is out of range: entries beyond +-{MAX_EXPONENT + 1} overflow int16")
    grid = np.asarray([b], dtype=np.int16)
    act = _cech_activity(a, I, grid, max_level=len(a.gens))
    dims = _lattice_dims(act, a.ring.char)
    return int(dims[i, 0]) if 0 <= i < dims.shape[0] else 0
