"""Shared fixtures and independent oracles for the test suite.

The oracles reimplement divisibility, membership and small modular ranks
from scratch so that engine tests never check an implementation against
itself.  ``sop_search`` and ``cech_piece`` are the brute-force forms of the
parameter-system search and of one Cech localization piece, and
``oracle_sop_by_support`` walks every combination of the support-level
search, without its prune;
``oracle_axis_classes`` gives every box value of an axis its threshold
class id, the construction slice tables were first built on, and
``dense_expansion`` uses it to expand a table to every box degree, which
``degree_grid`` lists as the product of the box axes built by
``product_grid``, the engines' grid before they ran on per-axis values,
and ``walk_columns`` reads every degree of such a product off the
activity walk's per-axis maps;
``oracle_member_rows`` tests every row against every generator at once, the
membership test the activity kernels were built on, and
``oracle_ext_activity`` and ``oracle_cech_activity`` are the per-face forms
of the Ext and Cech activity kernels on it, and ``oracle_cech_class_dims``
is the local-cohomology table as it was computed before it ran on the
Lyubeznik complex: the Cech complex on every subset of rad(a)'s generators
with its own threshold rule; ``oracle_dense_profile`` is the dense scan of
one kind of table alone, as it ran before one walk served both kinds;
``oracle_taylor_differentials`` builds the dense Taylor differentials that
Betti numbers were once ranked from, ``oracle_strand_betti`` reads them off
one activity column per lcm strand through the table kernel, as the engine
did before one matching ran over the whole complex, and ``subset_lcms`` the
lcm of every generator subset; ``oracle_lyubeznik_faces`` tests the
definition of the Lyubeznik complex on every generator subset, ``layout_faces`` reads the
faces back out of an engine face set, and ``lyubeznik_in_order`` builds the
engine's layout in one given generator order.  ``oracle_irreducible_decomposition``
is the recursive splitter the irreducible decomposition was computed by
before it read the minimal vertex covers of the polarization, and
``oracle_associated_primes`` takes the radicals of its components;
``oracle_minimal_primes`` filters those primes of I itself by inclusion,
and ``oracle_radical_primes`` reads the minimal primes off the splitter's
decomposition of rad(I), as the engine did before it took the minimal
vertex covers.
``oracle_grade_by_localization`` builds every localized ideal as a ring and
an ideal, over every subset of all the variables, the localization grade
before it read pd from the Betti cache and visited only the used variables,
and ``oracle_sop_candidates`` finds the parameter-system candidates by the
loop over every support, before they were enumerated per generator;
``oracle_cd_of_prime_quotient`` builds the image of a modulo a prime as an
ideal and takes its radical, as the engine did before it read pd from the
Betti cache, and ``oracle_cd_by_support`` takes its maximum over the
splitter's minimal primes of I, the support cd before it ran on bitmasks
with one memo per analysis; ``oracle_row_groups`` groups rows by their
bytes in a dict.
``radical_supports`` takes the minimal antichain of a support family, the
radical comparison the parameter-system search made before cover bits.
``radical_equal`` compares two ideals up to radical and ``ideal_height``
gives the height of an ideal; only tests use them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
import pytest

from relhom import slices
from relhom.invariants import (
    SOP_DEGENERATE_ZERO_LENGTH,
    SOP_FOUND,
    SOP_NONE_AMONG_MONOMIALS,
    SopWitness,
    _sop_candidates,
    cd,
    sop_witness_by_support,
)
from relhom.monomials import (
    MonomialIdeal,
    MonomialPrime,
    RingSpec,
    erase_to_one,
    erase_to_zero,
    minimal_generators,
    quotient_dimension,
    radical,
    sum_ideals,
    support,
)
from relhom.slices import FaceLayout, _face_lcms, _face_levels, _generator_rows
from relhom.taylor import pd_quotient, relabelled


def radical_equal(A: MonomialIdeal, B: MonomialIdeal) -> bool:
    return radical(A) == radical(B)


def ideal_height(I: MonomialIdeal) -> int:
    return I.ring.n - quotient_dimension(I)


def radical_supports(supports) -> frozenset[frozenset[int]]:
    """Minimal antichain of a family of supports; a canonical form of the radical."""
    supports = set(supports)
    return frozenset(s for s in supports if not any(t < s for t in supports))


def oracle_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def oracle_member(e, gens) -> bool:
    return any(oracle_divides(g, e) for g in gens)


def oracle_member_rows(C: np.ndarray, gens) -> np.ndarray:
    """Membership of each row of C in the monomial ideal with the given generators,
    by comparing every row with every generator at once."""
    if not gens:
        return np.zeros(C.shape[0], dtype=bool)
    if C.shape[1] == 0:
        return np.ones(C.shape[0], dtype=bool)
    G = np.asarray(gens, dtype=np.int16)
    return (C[:, None, :] >= G[None, :, :]).all(axis=2).any(axis=1)


def oracle_axis_classes(r: int, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Threshold classes of the box values -r..r on one axis, value by value.

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


def dense_expansion(table) -> tuple[np.ndarray, np.ndarray]:
    """Every box degree of a slice table, (D, n) in lexicographic order, and
    its dimensions (levels, D) there.

    Each axis is classed value by value by ``oracle_axis_classes`` on the
    table's class starts.
    """
    ids = [oracle_axis_classes(r, starts)[0] for r, starts in zip(table.box.rho, table._starts)]
    flat = np.ravel(np.ravel_multi_index(np.ix_(*ids), tuple(len(starts) for starts in table._starts)))
    return degree_grid(table.box), table._class_dims[:, flat]


def product_grid(axes) -> np.ndarray:
    """The product of per-axis value arrays as a (D, n) int16 array, lexicographic order."""
    if not axes:
        return np.zeros((1, 0), dtype=np.int16)
    sizes = tuple(len(values) for values in axes)
    grid = np.empty((*sizes, len(axes)), dtype=np.int16)
    for j, values in enumerate(axes):
        grid[..., j] = np.reshape(values, [-1 if k == j else 1 for k in range(len(axes))])
    return grid.reshape(-1, len(axes))


def walk_columns(maps) -> np.ndarray:
    """The walk column of every degree of the whole product of a walk's
    per-axis maps, in lexicographic order, through ``slices._compose``."""
    return slices._compose(maps, [np.arange(group.shape[0]) for group in maps])


def box_axes(box) -> list[np.ndarray]:
    """The values -rho_j..rho_j of every axis of a degree box, as int16."""
    return [np.arange(-r, r + 1, dtype=np.int16) for r in box.rho]


def degree_grid(box) -> np.ndarray:
    """All degrees of a degree box as an (D, n) int16 array, lexicographic order."""
    return product_grid(box_axes(box))


def oracle_grade_by_localization(a: MonomialIdeal, I: MonomialIdeal) -> int:
    """grade as the least localized depth over monomial primes containing a,
    one variable subset F at a time: the localized ideal is built by
    ``erase_to_one`` in the ring on F, and skipped when it is the unit ideal."""
    n = a.ring.n
    best = None
    for fbits in range(1 << n):
        fset = frozenset(j for j in range(n) if (fbits >> j) & 1)
        if not all(support(g) & fset for g in a.gens):
            continue
        local = erase_to_one(I, frozenset(range(n)) - fset)
        if local.is_unit:
            continue
        d = len(fset) - pd_quotient(local)
        if best is None or d < best:
            best = d
    assert best is not None  # F = all variables always qualifies for proper I
    return best


def oracle_cd_of_prime_quotient(a: MonomialIdeal, P: MonomialPrime):
    """cd of a on S/P: pd of the quotient by the radical of a's image in the
    ring on the variables outside P, or None for a unit image."""
    image = erase_to_zero(a, P.vars)
    return None if image.is_unit else pd_quotient(radical(image))


def oracle_cd_by_support(a: MonomialIdeal, I: MonomialIdeal) -> int:
    """cd of a on S/I for proper I: the largest cd on the quotients by the
    minimal primes of I, skipping a unit image."""
    return max(v for P in oracle_radical_primes(I) if (v := oracle_cd_of_prime_quotient(a, P)) is not None)


def oracle_row_groups(rows: np.ndarray) -> list[int]:
    """For every row of a 2-d array, the index of the first row equal to it."""
    first: dict[bytes, int] = {}
    return [first.setdefault(row.tobytes(), i) for i, row in enumerate(rows)]


def oracle_monomials(n: int, bound: int):
    return [e for e in itertools.product(range(bound + 1), repeat=n) if sum(e) <= bound]


# the splitter meets the same sums again and again
@lru_cache(maxsize=32_768)
def oracle_irreducible_decomposition(A: MonomialIdeal) -> tuple[MonomialIdeal, ...]:
    """Irredundant irreducible components, in a deterministic order.

    Splits the lexicographically first generator with mixed support on its
    first variable block, A = (A + <u>) cap (A + <v>); components generated
    by pure variable powers; a component containing another is pruned.
    """
    if A.is_zero or not A.is_proper:
        raise ValueError("irreducible decomposition needs a proper nonzero ideal")
    split = None
    for g in A.gens:
        if len(support(g)) >= 2:
            split = g
            break
    if split is None:
        return (A,)
    j = min(support(split))
    u = tuple(split[j] if k == j else 0 for k in range(len(split)))
    v = tuple(0 if k == j else split[k] for k in range(len(split)))
    parts = set()
    parts.update(oracle_irreducible_decomposition(sum_ideals(A, MonomialIdeal(A.ring, (u,)))))
    parts.update(oracle_irreducible_decomposition(sum_ideals(A, MonomialIdeal(A.ring, (v,)))))
    pruned = [C for C in parts if not any(D != C and C.contains_ideal(D) for D in parts)]
    return tuple(sorted(pruned, key=lambda C: C.gens))


def oracle_associated_primes(I: MonomialIdeal) -> tuple[MonomialPrime, ...]:
    """The radicals of the splitter's components, sorted by (size, variables);
    <0> alone for the zero ideal."""
    if I.is_zero:
        return (MonomialPrime(I.ring, ()),)
    seen = {tuple(sorted(set().union(*map(support, C.gens)))) for C in oracle_irreducible_decomposition(I)}
    return tuple(MonomialPrime(I.ring, vs) for vs in sorted(seen, key=lambda v: (len(v), v)))


def oracle_radical_primes(I: MonomialIdeal):
    """The minimal primes of I from the splitter: the associated primes of
    rad(I), the path ``minimal_primes`` took before vertex covers."""
    return oracle_associated_primes(radical(I))


def oracle_minimal_primes(I: MonomialIdeal):
    """The inclusion-minimal associated primes of I from the splitter, in the order of ``associated_primes``."""
    primes = oracle_associated_primes(I)
    sets = [set(P.vars) for P in primes]
    return tuple(P for P, s in zip(primes, sets) if not any(t < s for t in sets))


def subset_lcms(gens, n: int) -> np.ndarray:
    """(2^r, n) array of componentwise maxima over every generator subset, indexed by bitmask.

    The subsets whose top element is k are those below 1 << k with k added,
    so each generator fills one block from the block before it.
    """
    r = len(gens)
    alpha = np.zeros((1 << r, n), dtype=np.int16)
    for k, g in enumerate(np.asarray(gens, dtype=np.int16).reshape(r, n)):
        alpha[1 << k : 2 << k] = np.maximum(alpha[: 1 << k], g)
    return alpha


def oracle_lyubeznik_faces(gens, order) -> set[frozenset[int]]:
    """The Lyubeznik complex of the generators taken in ``order``, from its definition.

    A subset T = {i1 < ... < is} of positions in the order is a face iff for
    every t < s no generator at a position q < i_t divides
    lcm(m_{i_t}, ..., m_{i_s}).  Faces are returned as sets of generator
    indices.
    """
    ordered = [gens[i] for i in order]
    faces = set()
    for size in range(len(gens) + 1):
        for T in itertools.combinations(range(len(gens)), size):
            if all(
                not any(
                    oracle_divides(ordered[q], [max(column) for column in zip(*(ordered[i] for i in T[t:]))])
                    for q in range(T[t])
                )
                for t in range(size - 1)
            ):
                faces.add(frozenset(order[i] for i in T))
    return faces


def layout_faces(faces) -> list[list[frozenset[int]]]:
    """The faces of an engine face set as sets of generator indices, level by
    level in its order, up to the last nonempty level.

    A face of size k + 1 is the generator at position ``firsts[k][i]`` of the
    order put in front of the face of size k at ``tails[k][i]``.
    """
    levels = [[frozenset()]]
    for tails, firsts in zip(faces.tails, faces.firsts):
        levels.append([levels[-1][t] | {faces.order[f]} for t, f in zip(tails.tolist(), firsts.tolist())])
    return levels


def lyubeznik_in_order(gens, n: int, order, cap: int):
    """The engine's Lyubeznik layout of the generators taken in one given order, or None past ``cap`` faces."""
    G = _generator_rows(gens, n)
    faces = _face_levels(G, tuple(order), cap)
    if faces is None:
        return None
    return FaceLayout(faces, _face_lcms(faces, G))


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


def oracle_ext_activity(J: MonomialIdeal, I: MonomialIdeal, grid: np.ndarray, layout) -> np.ndarray:
    """Ext activity with every face of the layout evaluated on its own, not once per distinct lcm.

    Face T is active at b iff b + lcm_T >= 0 and x^(b + lcm_T) is not in I;
    lcm_T is computed here from the generators of J.
    """
    faces = [T for level in layout_faces(layout.faces) for T in level]
    act = np.zeros((len(faces), grid.shape[0]), dtype=bool)
    for row, T in enumerate(faces):
        lcm = [max((J.gens[i][j] for i in T), default=0) for j in range(J.ring.n)]
        shifted = grid + np.asarray(lcm, dtype=np.int16)
        act[row] = (shifted >= 0).all(axis=1) & ~oracle_member_rows(shifted, I.gens)
    return act


def oracle_cech_activity(gens, I: MonomialIdeal, grid: np.ndarray, layout) -> np.ndarray:
    """Cech activity with every face of a layout on the generators ``gens``
    evaluated on its own, not once per inverted support.

    For face T, F is the union of its generators' supports (the support of
    lcm_T).  The piece at b is active iff b_j >= 0 off F and the
    restriction of b off F is outside the ideal of I's generators with
    their coordinates in F erased.
    """
    faces = [T for level in layout_faces(layout.faces) for T in level]
    act = np.zeros((len(faces), grid.shape[0]), dtype=bool)
    for row, T in enumerate(faces):
        outside = [j for j in range(I.ring.n) if all(gens[i][j] == 0 for i in T)]
        sub = grid[:, outside]
        erased = [tuple(g[j] for j in outside) for g in I.gens]
        act[row] = (sub >= 0).all(axis=1) & ~oracle_member_rows(sub, erased)
    return act


def oracle_cech_class_dims(a: MonomialIdeal, I: MonomialIdeal):
    """The class starts and dimensions of a local-cohomology table from the
    Cech complex on every subset of rad(a)'s generators.

    Axis j is classed by the Cech thresholds {0} u {I-exponents on x_j}, and
    the complex is run at one representative per class of the product: each
    face inverts the support of its lcm, which is the Ext activity of that
    lcm scaled by ``_LEFT_OUT``.
    """
    box = slices.DegreeBox.for_ideals(a, I)
    classes = [slices._axis_classes(r, [0, *(g[j] for g in I.gens)]) for j, r in enumerate(box.rho)]
    layout = slices.taylor_layout(radical(a).gens, a.ring.n)
    (dims,), maps = slices._slice_dims(a, I, slices._Product(rep for _, rep in classes), [(layout, slices._LEFT_OUT)])
    return tuple(starts for starts, _ in classes), dims[:, walk_columns(maps)]


def oracle_dense_profile(kind: str, A: MonomialIdeal, B: MonomialIdeal) -> frozenset[int]:
    """The profile of one kind of table from the dense scan of that kind alone.

    One walk over every degree of the unpadded box on the full Taylor
    complex of A's own generators for Ext ("ext"), and of their supports
    scaled by ``_LEFT_OUT`` for local cohomology ("lc"): the dense engine
    before one walk served both kinds.
    """
    box = slices.DegreeBox.for_ideals(A, B)
    supports = tuple(tuple(int(e > 0) for e in g) for g in A.gens)
    gens, scale = (A.gens, 1) if kind == "ext" else (supports, slices._LEFT_OUT)
    layout = slices.taylor_layout(gens, A.ring.n)
    (dims,), _ = slices._slice_dims(A, B, slices._Product(box_axes(box)), [(layout, scale)])
    return frozenset(int(i) for i in np.flatnonzero(dims.any(axis=1)))


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


def oracle_strand_betti(I: MonomialIdeal) -> tuple[int, ...]:
    """Total Betti numbers of S/I from the lcm strands of the Lyubeznik
    complex of its relabelled form, each strand of two or more faces one
    one-hot activity column through ``slices._lattice_dims``, each strand of
    one face adding 1 to beta of its size: the engine before one matching
    ran over the whole complex."""
    rows, k = relabelled(I.gens)
    layout = slices.lyubeznik_layout(rows, k)
    faces = layout.faces
    _, strand = layout.lcm_groups
    size = np.bincount(strand)
    shared = size[strand] > 1
    betti = faces.per_level(~shared)
    if shared.any():
        wide = np.flatnonzero(size > 1)
        active = np.zeros((size.size, wide.size), dtype=bool)
        active[wide, np.arange(wide.size)] = True
        betti += slices._lattice_dims(active, faces, I.ring.char, strand).sum(axis=1)
    return tuple(betti.tolist())


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
    target = radical_supports(map(support, sum_ideals(a, I).gens))
    if c == 0:
        assert radical_supports(map(support, I.gens)) == target
        return SopWitness(SOP_DEGENERATE_ZERO_LENGTH, (), degree_bound)
    # support-level feasibility decides existence outright (the radical test
    # only sees squarefree supports), so an infeasible search exits without
    # enumerating monomial combinations
    if not sop_witness_by_support(a, I, degree_bound).found:
        return SopWitness(SOP_NONE_AMONG_MONOMIALS, (), degree_bound)
    candidates = [e for e in oracle_monomials(a.ring.n, degree_bound) if any(e) and a.contains_monomial(e)]
    for combo in itertools.combinations(candidates, c):
        if radical_supports([*map(support, I.gens), *map(support, combo)]) == target:
            return SopWitness(SOP_FOUND, combo, degree_bound)
    return SopWitness(SOP_NONE_AMONG_MONOMIALS, (), degree_bound)


def oracle_sop_candidates(a: MonomialIdeal, degree_bound: int) -> list[tuple[int, ...]]:
    """For every nonempty support F, the least g + (the variables of F
    outside supp(g)) over the generators g with supp(g) in F, within the
    degree bound; in increasing order."""
    n = a.ring.n
    achievable = []
    for fbits in range(1, 1 << n):
        fset = frozenset(j for j in range(n) if (fbits >> j) & 1)
        best = None
        for g in a.gens:
            if support(g) <= fset:
                e = tuple(g[j] + (1 if j in fset and g[j] == 0 else 0) for j in range(n))
                if sum(e) <= degree_bound and (best is None or e < best):
                    best = e
        if best is not None:
            achievable.append(best)
    return sorted(achievable)


def oracle_sop_by_support(a: MonomialIdeal, I: MonomialIdeal, degree_bound: int = 4) -> SopWitness:
    """The support-level parameter-system search over every length-cd
    combination of candidates, in ``itertools.combinations`` order: the
    first witness found is the lexicographically first."""
    c = cd(a, I)
    if c == 0:
        return SopWitness(SOP_DEGENERATE_ZERO_LENGTH, (), degree_bound)
    target = radical_supports(map(support, sum_ideals(a, I).gens))
    base = radical_supports(map(support, I.gens))
    for combo in itertools.combinations(_sop_candidates(a, degree_bound), c):
        if radical_supports(base.union(map(support, combo))) == target:
            return SopWitness(SOP_FOUND, combo, degree_bound)
    return SopWitness(SOP_NONE_AMONG_MONOMIALS, (), degree_bound)


def cycle_pair(n: int) -> tuple[MonomialIdeal, MonomialIdeal]:
    """The edge ideal of the n-cycle on x0..x_{n-1}, with the relative ideal of its even vertices."""
    ring = RingSpec(tuple(f"x{k}" for k in range(n)))
    unit = [tuple(int(j == k) for j in range(n)) for k in range(n)]
    edges = [tuple(u + v for u, v in zip(unit[k], unit[(k + 1) % n])) for k in range(n)]
    return minimal_generators(ring, unit[::2]), minimal_generators(ring, edges)


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
