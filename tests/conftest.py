"""Shared fixtures and independent oracles for the test suite.

The oracles reimplement divisibility, membership and small modular ranks
from scratch so that engine tests never check an implementation against
itself.  ``sop_search`` and ``cech_piece`` are the brute-force forms of the
parameter-system search and of one Cech localization piece;
``oracle_ext_activity`` is the per-subset form of the Ext activity kernel.
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
from relhom.monomials import MonomialIdeal, RingSpec, minimal_generators, monomials_up_to, sum_ideals, support
from relhom.slices import _member_rows
from relhom.taylor import subset_lcms


def oracle_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def oracle_member(e, gens) -> bool:
    return any(oracle_divides(g, e) for g in gens)


def oracle_monomials(n: int, bound: int):
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
