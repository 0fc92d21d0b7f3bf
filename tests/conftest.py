"""Shared fixtures and independent oracles for the test suite.

The oracles reimplement divisibility, membership and small modular ranks
from scratch so that engine tests never check an implementation against
itself.  ``sop_search`` and ``cech_piece`` are the brute-force forms of the
parameter-system search and of one Cech localization piece;
``oracle_ext_activity`` is the per-subset form of the Ext activity kernel;
``oracle_taylor_differentials`` builds the dense Taylor differentials that
Betti numbers were once ranked from; ``monomials_up_to`` is the monomial
enumeration ``sop_search`` walks.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from relhom.invariants import (
    SOP_DEGENERATE_ZERO_LENGTH,
    SOP_FOUND,
    SOP_NONE_AMONG_MONOMIALS,
    SopWitness,
    _radical_supports,
    cd,
    sop_witness_by_support,
)
from relhom.monomials import MonomialIdeal, RingSpec, minimal_generators, sum_ideals, support
from relhom.slices import _member_rows, subset_lcms


def oracle_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def oracle_member(e, gens) -> bool:
    return any(oracle_divides(g, e) for g in gens)


def oracle_monomials(n: int, bound: int):
    return [e for e in itertools.product(range(bound + 1), repeat=n) if sum(e) <= bound]


def monomials_up_to(n: int, bound: int):
    """All exponent vectors of total degree <= bound, in lexicographic order."""
    return [e for e in itertools.product(range(bound + 1), repeat=n) if sum(e) <= bound]


def oracle_rank_mod_p(rows, p: int) -> int:
    mat = [list(int(v) % p for v in row) for row in rows]
    if not mat or not mat[0]:
        return 0
    m, n = len(mat), len(mat[0])
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, m) if mat[r][col] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for r in range(m):
            if r != rank and mat[r][col] % p:
                f = mat[r][col]
                mat[r] = [(v - f * w) % p for v, w in zip(mat[r], mat[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def oracle_ext_activity(J: MonomialIdeal, I: MonomialIdeal, grid: np.ndarray, max_level: int) -> np.ndarray:
    """Ext activity with every subset evaluated on its own, not once per distinct lcm.

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


def oracle_taylor_differentials(I: MonomialIdeal) -> list[np.ndarray]:
    """Dense sign matrices d_1..d_r of the Taylor complex of S/I mapped into the field.

    Rows and columns of d_i are the generator subsets of sizes i - 1 and i,
    as sorted index tuples.  Entry (T minus its element at position j, T)
    is (-1)^j when the two subsets have the same lcm exponent, otherwise 0.
    """
    gens, r = I.gens, len(I.gens)

    def lcm(T):
        return tuple(max((gens[t][j] for t in T), default=0) for j in range(I.ring.n))

    levels = [list(itertools.combinations(range(r), i)) for i in range(r + 1)]
    mats = []
    for i in range(1, r + 1):
        rows = {T: a for a, T in enumerate(levels[i - 1])}
        mat = np.zeros((len(levels[i - 1]), len(levels[i])), dtype=np.int64)
        for col, T in enumerate(levels[i]):
            for j in range(i):
                face = T[:j] + T[j + 1 :]
                if lcm(face) == lcm(T):
                    mat[rows[face], col] = (-1) ** j
        mats.append(mat)
    return mats


def random_proper_ideal(rng: np.random.Generator, ring: RingSpec, max_exp: int, max_gens: int) -> MonomialIdeal:
    count = int(rng.integers(1, max_gens + 1))
    gens = []
    for _ in range(count):
        while True:
            e = tuple(int(v) for v in rng.integers(0, max_exp + 1, size=ring.n))
            if any(e):
                break
        gens.append(e)
    return minimal_generators(ring, gens)


def sop_search(a: MonomialIdeal, I: MonomialIdeal, degree_bound: int = 4) -> SopWitness:
    """Exhaustive search for a length-cd sequence of monomials of a whose
    radical together with I matches that of a + I.

    Scans all combinations of monomials of a up to the total degree bound in
    lexicographic order and returns the first witness.
    """
    c = cd(a, I)
    if c is None:
        raise ValueError("degenerate module: cd undefined")
    target = _radical_supports(map(support, sum_ideals(a, I).gens))
    if c == 0:
        assert _radical_supports(map(support, I.gens)) == target
        return SopWitness(SOP_DEGENERATE_ZERO_LENGTH, (), degree_bound)
    # support-level feasibility decides existence outright (the radical test
    # only sees squarefree supports), so an infeasible search exits without
    # enumerating monomial combinations
    if not sop_witness_by_support(a, I, degree_bound).found:
        return SopWitness(SOP_NONE_AMONG_MONOMIALS, (), degree_bound)
    candidates = [e for e in monomials_up_to(a.ring.n, degree_bound) if any(e) and a.contains_monomial(e)]
    for combo in itertools.combinations(candidates, c):
        if _radical_supports([*map(support, I.gens), *map(support, combo)]) == target:
            return SopWitness(SOP_FOUND, combo, degree_bound)
    return SopWitness(SOP_NONE_AMONG_MONOMIALS, (), degree_bound)


def cech_piece(I: MonomialIdeal, T, b) -> int:
    """Degree-b dimension (0 or 1) of S/I localized at the product of the monomials in T."""
    n = I.ring.n
    fset: set[int] = set()
    for m in T:
        m = tuple(int(x) for x in m)
        if len(m) != n:
            raise ValueError("exponent vector does not match the ring")
        fset |= set(support(m))
    b = tuple(int(x) for x in b)
    if len(b) != n:
        raise ValueError("multidegree does not match the ring")
    outside = [j for j in range(n) if j not in fset]
    if any(b[j] < 0 for j in outside):
        return 0
    restricted = tuple(b[j] for j in outside)
    erased = [tuple(g[j] for j in outside) for g in I.gens]
    return 0 if any(all(x <= y for x, y in zip(g, restricted)) for g in erased) else 1


@pytest.fixture
def ring2():
    return RingSpec(("x", "y"))


@pytest.fixture
def ring3():
    return RingSpec(("x", "y", "z"))


@pytest.fixture
def ring4():
    return RingSpec(("x1", "x2", "y1", "y2"))
