"""Degreewise Ext and local-cohomology slices over a finite stabilization box.

Both engines share one mechanism.  In a fixed multidegree b, each complex
has components indexed by subsets of a generating set; every component is
0- or 1-dimensional, and each differential entry is an incidence sign
exactly when both endpoints are nonzero.  So a degree is fully described by
its activity pattern (which subsets are nonzero), cohomology dimensions are
rank computations over GF(char), and degrees sharing a pattern share all
ranks.

The box with rho_j = 1 + (largest x_j-exponent among the participating
minimal generators), optionally padded, decides module vanishing: beyond
rho_j the slice complexes repeat under translation by x_j, and below -rho_j
they are degreewise zero (Ext) or translation-invariant (local cohomology).
That claim is property-tested (box enlargement must never change a
profile), not trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import rank_mod_p
from .monomials import MAX_EXPONENT, MonomialIdeal, _check_pair, support
from .taylor import incidence_sign, masks_by_size, subset_lcms

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
]


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
        n = len(self.rho)
        if n == 0:
            return np.zeros((1, 0), dtype=np.int16)
        axes = [np.arange(-r, r + 1, dtype=np.int16) for r in self.rho]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


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
    """
    r = len(J.gens)
    alpha = subset_lcms(J.gens, J.ring.n)
    act = np.zeros((1 << r, grid.shape[0]), dtype=bool)
    for mask in range(1 << r):
        if mask.bit_count() > max_level:
            continue
        shifted = grid + alpha[mask]
        act[mask] = (shifted >= 0).all(axis=1) & ~_member_rows(shifted, I.gens)
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


@lru_cache(maxsize=200_000)
def _incidence_rank(lo: tuple[int, ...], hi: tuple[int, ...], p: int) -> int:
    """Rank over GF(p) of the signed incidence matrix between two active subset levels."""
    if not lo or not hi:
        return 0
    rows = {m: i for i, m in enumerate(hi)}
    mat = np.zeros((len(hi), len(lo)), dtype=np.int64)
    for col, T in enumerate(lo):
        for h, row in rows.items():
            diff = h ^ T
            if (h & T) == T and diff.bit_count() == 1:
                mat[row, col] = incidence_sign(T, diff)
    return rank_mod_p(mat, p)


def _lattice_dims(active: np.ndarray, p: int) -> np.ndarray:
    """Cohomology dimensions (levels 0..r, per degree) of subset-indexed complexes.

    Degrees are grouped by identical activity pattern; each distinct pattern
    costs one pass of small rank computations.
    """
    two_r, ndeg = active.shape
    r = two_r.bit_length() - 1
    levels = masks_by_size(r)
    packed = np.packbits(active, axis=0, bitorder="little")
    uniq, inverse = np.unique(np.ascontiguousarray(packed.T), axis=0, return_inverse=True)
    dims_u = np.zeros((r + 1, len(uniq)), dtype=np.int32)
    for u in range(len(uniq)):
        bits = np.unpackbits(uniq[u], bitorder="little", count=two_r).astype(bool)
        if not bits.any():
            continue
        per_level = [tuple(m for m in level if bits[m]) for level in levels]
        ranks = [_incidence_rank(per_level[k], per_level[k + 1], p) for k in range(r)]
        for k in range(r + 1):
            out_rank = ranks[k] if k < r else 0
            in_rank = ranks[k - 1] if k > 0 else 0
            dims_u[k, u] = len(per_level[k]) - out_rank - in_rank
    return dims_u[:, inverse.ravel()]


@dataclass(frozen=True, eq=False)
class SliceTable:
    """All slice dimensions of one complex over a degree box."""

    box: DegreeBox
    degrees: np.ndarray  # (D, n)
    dims: np.ndarray     # (levels, D)

    def profile(self) -> frozenset[int]:
        """Indices with a nonvanishing slice somewhere in the box."""
        return frozenset(int(i) for i in range(self.dims.shape[0]) if self.dims[i].any())

    def profile_within(self, rho) -> frozenset[int]:
        rho = np.asarray(rho, dtype=np.int16)
        inside = (np.abs(self.degrees) <= rho).all(axis=1)
        return frozenset(int(i) for i in range(self.dims.shape[0]) if self.dims[i][inside].any())

    def dim_at(self, i: int, b) -> int:
        if i < 0 or i >= self.dims.shape[0]:
            return 0
        hit = (self.degrees == np.asarray(b, dtype=np.int16)).all(axis=1)
        idx = np.nonzero(hit)[0]
        if idx.size == 0:
            raise ValueError("degree outside the stabilization box")
        return int(self.dims[i, idx[0]])

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


def _check_scan_size(box: DegreeBox, generator_count: int):
    cells = 1 << generator_count
    for r in box.rho:
        cells *= 2 * r + 1
    if cells > _MAX_ACTIVITY_CELLS:
        raise ValueError(
            f"stabilization box {box.rho} with {generator_count} generators is too large to scan"
        )


def ext_table(J: MonomialIdeal, I: MonomialIdeal, pad: int = 0) -> SliceTable:
    """Slice dimensions of Ext^i(S/J, S/I) over the stabilization box."""
    _check_scan(J, I)
    box = DegreeBox.for_ideals(J, I, pad=pad)
    _check_scan_size(box, len(J.gens))
    grid = box.degree_grid()
    act = _ext_activity(J, I, grid, max_level=len(J.gens))
    return SliceTable(box, grid, _lattice_dims(act, J.ring.char))


def lc_table(a: MonomialIdeal, I: MonomialIdeal, pad: int = 0) -> SliceTable:
    """Slice dimensions of the local cohomology of S/I supported on a."""
    _check_scan(a, I)
    box = DegreeBox.for_ideals(a, I, pad=pad)
    _check_scan_size(box, len(a.gens))
    grid = box.degree_grid()
    act = _cech_activity(a, I, grid, max_level=len(a.gens))
    return SliceTable(box, grid, _lattice_dims(act, a.ring.char))


_PROFILE_CACHE: dict[tuple, frozenset[int]] = {}


def clear_slice_caches():
    _PROFILE_CACHE.clear()
    _incidence_rank.cache_clear()


def _cached_profile(kind: str, builder, A: MonomialIdeal, B: MonomialIdeal, pad: int) -> frozenset[int]:
    key = (kind, A, B, pad)
    hit = _PROFILE_CACHE.get(key)
    if hit is not None:
        return hit
    table = builder(A, B, pad=pad)
    _PROFILE_CACHE[key] = table.profile()
    # a padded scan contains every smaller box; record those profiles too
    for q in range(pad):
        small = DegreeBox.for_ideals(A, B, pad=q)
        _PROFILE_CACHE.setdefault((kind, A, B, q), table.profile_within(small.rho))
    return _PROFILE_CACHE[key]


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
    _check_scan(J, I)
    cap = min(k, len(J.gens))
    box = DegreeBox.for_ideals(J, I, pad=pad)
    _check_scan_size(box, len(J.gens))
    act = _ext_activity(J, I, box.degree_grid(), max_level=cap)
    dims = _lattice_dims(act, J.ring.char)
    return not any(dims[i].any() for i in range(min(k, dims.shape[0])))


def local_cohomology_slice(a: MonomialIdeal, I: MonomialIdeal, i: int, b) -> int:
    """Dimension of the degree-b slice of the i-th local cohomology of S/I supported on a."""
    _check_scan(a, I)
    grid = np.asarray([tuple(int(x) for x in b)], dtype=np.int16)
    if grid.shape[1] != a.ring.n:
        raise ValueError("multidegree does not match the ring")
    act = _cech_activity(a, I, grid, max_level=len(a.gens))
    dims = _lattice_dims(act, a.ring.char)
    return int(dims[i, 0]) if 0 <= i < dims.shape[0] else 0
