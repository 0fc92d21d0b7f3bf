"""Betti numbers, projective dimension and depth from the Lyubeznik complex."""

import itertools
import json
import tracemalloc
from math import comb

import numpy as np
import pytest

from relhom import slices
from relhom.cli import main
from relhom.monomials import RingSpec, minimal_generators, parse_ideal, unit_ideal, zero_ideal
from relhom.slices import clear_slice_caches
from relhom.taylor import betti_numbers, depth_quotient, pd_quotient
from relhom.verifier import CorpusParams, random_ideal

from conftest import (
    oracle_lyubeznik_faces,
    oracle_rank_mod_p,
    oracle_strand_betti,
    oracle_taylor_differentials,
    random_proper_ideal,
    subset_lcms,
)

C4 = "x1*x2, x2*y1, y1*y2, y2*x1"


def test_koszul_two_variables(ring2):
    assert betti_numbers(parse_ideal(ring2, "x, y")) == (1, 2, 1)


def test_edge_ideal_of_four_cycle(ring4):
    edge = parse_ideal(ring4, C4)
    assert betti_numbers(edge) == (1, 4, 4, 1, 0)
    assert pd_quotient(edge) == 3
    assert depth_quotient(edge) == 1


def test_mixed_two_generator_ideal(ring2):
    ideal = parse_ideal(ring2, "x*y, x^2")
    assert betti_numbers(ideal) == (1, 2, 1)
    assert pd_quotient(ideal) == 2


def test_three_generator_primary_ideal(ring2):
    # <x^2, x*y, y^3> resolves with two first syzygies and nothing beyond
    assert betti_numbers(parse_ideal(ring2, "x^2, y^3, x*y")) == (1, 3, 2, 0)


def test_coprime_pure_powers_are_koszul():
    ring = RingSpec(("x1", "x2", "x3", "x4"))
    assert betti_numbers(parse_ideal(ring, "x1^2, x2^3")) == (1, 2, 1)
    assert pd_quotient(parse_ideal(ring, "x1^2, x2^3")) == 2


def test_zero_ideal(ring2):
    assert betti_numbers(zero_ideal(ring2)) == (1,)
    assert pd_quotient(zero_ideal(ring2)) == 0
    assert depth_quotient(zero_ideal(ring2)) == 2


def test_unit_ideal_rejected(ring2):
    with pytest.raises(ValueError):
        betti_numbers(unit_ideal(ring2))


def test_char_zero_rejected():
    ring = RingSpec(("x", "y"), char=0)
    with pytest.raises(ValueError):
        betti_numbers(parse_ideal(ring, "x*y"))


def test_first_betti_numbers_and_rank_on_random(ring3):
    rng = np.random.default_rng(29)
    for _ in range(15):
        ideal = random_proper_ideal(rng, ring3, 3, 5)
        betti = betti_numbers(ideal)
        assert betti[0] == 1
        if len(betti) > 1:
            assert betti[1] == ideal.mu
        # S/I has rank 0 over S exactly when I is nonzero
        alternating = sum((-1) ** i * b for i, b in enumerate(betti))
        assert alternating == (0 if not ideal.is_zero else 1)
        assert all(b >= 0 for b in betti)


def test_differentials_compose_to_zero(ring4):
    rng = np.random.default_rng(31)
    p = ring4.char
    for _ in range(10):
        ideal = random_proper_ideal(rng, ring4, 3, 5)
        mats = oracle_taylor_differentials(ideal)
        for d_low, d_high in zip(mats, mats[1:]):
            assert not ((d_low @ d_high) % p).any()


def oracle_betti(ideal):
    """Betti numbers from the dense Taylor differentials and the pure-Python rank."""
    r, p = len(ideal.gens), ideal.ring.char
    ranks = [oracle_rank_mod_p(mat.tolist(), p) for mat in oracle_taylor_differentials(ideal)] + [0]
    return tuple(comb(r, i) - ranks[i] - (ranks[i - 1] if i else 0) for i in range(r + 1))


def largest_strand(ideal) -> int:
    """The most generator subsets sharing one lcm."""
    alpha = subset_lcms(ideal.gens, ideal.ring.n)
    return int(np.unique(alpha, axis=0, return_counts=True)[1].max())


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_betti_numbers_match_the_dense_oracle(p):
    ring = RingSpec(("x1", "x2", "y1", "y2"), char=p)
    rng = np.random.default_rng(p)
    ideals = [random_proper_ideal(rng, ring, 2, 8) for _ in range(12)]
    ideals.append(parse_ideal(ring, C4))
    ideals.append(parse_ideal(ring, "x1*x2, x1*y1, x1*y2, x2*y1, x2*y2, y1*y2"))
    # x^i * y^(k-i) chains: the subsets with the same least and largest index share an lcm
    ideals += [minimal_generators(ring, [(i, k - i, 0, 0) for i in range(k + 1)]) for k in (4, 7)]
    shared = 0
    for ideal in ideals:
        assert betti_numbers(ideal) == oracle_betti(ideal)
        shared += largest_strand(ideal) >= 2
    # the four fixed ideals and at least one random one
    assert shared >= 5


def graph_ideal(n: int, edges, p: int = 32003, power: int = 1):
    """The ideal of x_i^power * x_j over the edges (i, j) of a graph on x0..x(n-1)."""
    ring = RingSpec(tuple(f"x{k}" for k in range(n)), char=p)
    return minimal_generators(ring, [tuple(power * (k == i) + (k == j) for k in range(n)) for i, j in edges])


def path_ideal(n: int, p: int = 32003):
    """The edge ideal of the path on the n vertices x0..x(n-1)."""
    return graph_ideal(n, [(k, k + 1) for k in range(n - 1)], p)


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_betti_numbers_match_the_strand_oracle(monkeypatch, p):
    # one matching over the whole complex, pairing faces only within an lcm
    # strand, against one activity column per strand through the table kernel
    ideals = []
    for n in range(4, 11):
        cycle = [(k, (k + 1) % n) for k in range(n)]
        ideals += [graph_ideal(n, cycle, p), graph_ideal(n, cycle, p, power=2)]
    ideals += [graph_ideal(m, list(itertools.combinations(range(m), 2)), p) for m in range(3, 7)]
    ideals += [minimal_generators(RingSpec(("x", "y"), char=p), [(i, c - 1 - i) for i in range(c)]) for c in (10, 25)]
    ideals += [path_ideal(n, p) for n in range(6, 13)]
    ranked, rank = [], slices._incidence_rank

    def counted(by_size, *rest):
        ranked.append(by_size.shape[1])
        return rank(by_size, *rest)

    betti_numbers.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(slices, "_incidence_rank", counted)
        betti = [betti_numbers(ideal) for ideal in ideals]
    assert betti == [oracle_strand_betti(ideal) for ideal in ideals]
    # the matching leaves one strand of each of the squarefree 8-, 9- and
    # 10-cycles with critical faces in two adjacent levels
    assert ranked == [1, 1, 1]


@pytest.mark.parametrize("seed", [42, 7])
def test_betti_numbers_match_the_strand_oracle_on_the_corpus(seed):
    # every ideal a corpus draws; most have no two Lyubeznik faces of one lcm
    params = CorpusParams(seed=seed)
    ring = params.ring()
    for index in range(3 * params.count):
        ideal = random_ideal(params, index, ring)
        assert betti_numbers(ideal) == oracle_strand_betti(ideal)


@pytest.mark.parametrize("n", [18, 20])
def test_path_ideals_past_the_strand_matrix(n):
    # the x0..x17 path ideal has 26 624 Lyubeznik faces in 6 013 strands of
    # two or more faces (a 160 M-cell faces x strands matrix), and x0..x19
    # 96 000 faces, which that matrix refused; pd(S/I(P_n)) = floor(2n/3)
    # (Jacques, thesis, Sheffield 2004), beta_1 counts the edges, and the
    # alternating sum of the Betti numbers of S/I is its K-polynomial at 1, 0
    ideal = path_ideal(n)
    betti_numbers.cache_clear()
    clear_slice_caches()
    tracemalloc.start()
    try:
        betti = betti_numbers(ideal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pd_quotient(ideal) == 2 * n // 3
    assert betti[:2] == (1, n - 1)
    assert sum((-1) ** i * b for i, b in enumerate(betti)) == 0
    if n == 18:
        assert peak < 32 << 20  # about 14 MB measured, the layout included


def test_betti_numbers_of_the_quadrics():
    # the square of the maximal ideal of k[a, b, c, d] has the linear
    # Eagon-Northcott resolution 1, 10, 20, 15, 4; the engine ranks 68
    # Lyubeznik faces, the oracle 1 024 Taylor subsets
    ring = RingSpec(("a", "b", "c", "d"), char=32003)
    ideal = minimal_generators(ring, [e for e in itertools.product(range(3), repeat=4) if sum(e) == 2])
    assert slices.lyubeznik_layout(ideal.gens, 4).faces.size == 68
    betti = betti_numbers(ideal)
    assert betti == oracle_betti(ideal)
    assert betti[:5] == (1, 10, 20, 15, 4) and not any(betti[5:])


def test_betti_numbers_are_cached_up_to_relabelling():
    # a relabelled copy of an ideal, and a copy with unused variables added,
    # read the cache entry of the original: one hit and no miss each, with
    # the Betti numbers of the dense oracle.  The key orders the variables
    # by their sorted exponent columns, so the ideals here have no two equal
    # sorted columns; a tie may cost a miss, never a wrong hit.
    rng = np.random.default_rng(73)
    ring = RingSpec(("x1", "x2", "y1", "y2"))
    wider = RingSpec(("u", "x1", "v", "x2", "y1", "w", "y2"))
    ideals = []
    while len(ideals) < 8:
        ideal = random_proper_ideal(rng, ring, 3, 6)
        columns = [tuple(sorted(column)) for column in zip(*ideal.gens)]
        if len(set(columns)) == len(columns):
            ideals.append(ideal)
    for ideal in ideals:
        perm = rng.permutation(4).tolist()
        copies = [
            minimal_generators(ring, [tuple(g[k] for k in perm) for g in ideal.gens]),
            minimal_generators(wider, [(0, g[0], 0, g[1], g[2], 0, g[3]) for g in ideal.gens]),
        ]
        betti_numbers.cache_clear()
        expected = betti_numbers(ideal)
        assert expected == oracle_betti(ideal)
        for copy in copies:
            before = betti_numbers.cache_info()
            assert betti_numbers(copy) == expected
            after = betti_numbers.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
            assert oracle_betti(copy) == expected
    assert betti_numbers.cache_info().currsize == 1


def test_oversized_taylor_complex_is_refused(capsys):
    # 25 variables: the Lyubeznik complex is the whole 2^25-face Taylor
    # complex in every generator order, so it is refused while enumerated,
    # before any array of one entry per subset exists
    names = ",".join(f"x{i}" for i in range(25))
    ideal = parse_ideal(RingSpec(tuple(names.split(","))), names)
    betti_numbers.cache_clear()
    clear_slice_caches()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too large to scan"):
            betti_numbers(ideal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 25  # one int64 per generator subset
    assert main(["analyze", "--ring", names, "--a", names]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Lyubeznik complex on 25 generators" in captured.err and "too large to scan" in captured.err


def test_full_lyubeznik_complex_is_refused_at_once(monkeypatch):
    # no generator of x0, ..., x24 divides the lcm of the others, so L is
    # the whole simplex in every order and is refused before enumeration
    names = tuple(f"x{i}" for i in range(25))
    ideal = parse_ideal(RingSpec(names), ",".join(names))
    betti_numbers.cache_clear()
    clear_slice_caches()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="Lyubeznik complex on 25 generators has over 1048576 faces"):
            betti_numbers(ideal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the shortcut is exact: on random ideals whose generators each miss
    # the lcm of the others, L is every subset in every candidate order, and
    # such an ideal is refused under a smaller cap without enumerating
    rng = np.random.default_rng(29)
    seen = 0
    for n in (2, 3, 4):
        ring = RingSpec(tuple(f"x{j}" for j in range(n)))
        for _ in range(30):
            gens = random_proper_ideal(rng, ring, 3, 6).gens
            r = len(gens)
            others = [[max((h[j] for h in gens[:q] + gens[q + 1 :]), default=0) for j in range(n)] for q in range(r)]
            if r < 2 or any(all(x <= y for x, y in zip(g, m)) for g, m in zip(gens, others)):
                continue
            seen += 1
            every = {frozenset(T) for k in range(r + 1) for T in itertools.combinations(range(r), k)}
            orders = slices._candidate_orders(slices._generator_rows(gens, n))
            assert all(oracle_lyubeznik_faces(gens, order) == every for order in orders)
            with monkeypatch.context() as patch:
                patch.setattr(slices, "_MAX_FACES", (1 << r) - 1)
                patch.setattr(slices, "_face_levels", None)  # enumerating would raise TypeError
                slices._lyubeznik_faces.cache_clear()
                with pytest.raises(ValueError, match="too large to scan"):
                    slices.lyubeznik_layout.__wrapped__(gens, n)
    slices._lyubeznik_faces.cache_clear()
    assert seen >= 10


def test_generator_chain_past_the_taylor_wall(capsys):
    # x^i * y^(24 - i): 2^25 Taylor faces, 246 Lyubeznik faces in bisection
    # order; S/I is a height-2 perfect quotient, so by Hilbert-Burch its
    # resolution is 0 <- S <- S^25 <- S^24 <- 0
    chain = ",".join(f"x^{i}*y^{24 - i}" for i in range(25))
    betti = betti_numbers(parse_ideal(RingSpec(("x", "y")), chain))
    assert betti[:3] == (1, 25, 24) and not any(betti[3:])
    assert main(["analyze", "--ring", "x,y", "--a", "x", "--i", chain, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["invariants"]["pd"] == 2


def test_single_incidence_matrix_ceiling(monkeypatch, ring4):
    # the four-cycle's only strand of two or more Lyubeznik faces has one
    # face of size 2 and two of size 3, so its largest matrix is 2 x 1
    edge = parse_ideal(ring4, C4)
    I = parse_ideal(ring4, "x1^3*y1")
    for ceiling, refused in ((1, True), (2, False)):
        monkeypatch.setattr(slices, "_MAX_RANK_MATRIX_CELLS", ceiling)
        clear_slice_caches()
        betti_numbers.cache_clear()
        if refused:
            with pytest.raises(ValueError, match="too large to rank"):
                betti_numbers(edge)
        else:
            assert betti_numbers(edge) == (1, 4, 4, 1, 0)
    # the same ceiling guards the Ext and local-cohomology tables, whose
    # walk runs on their first read
    monkeypatch.setattr(slices, "_MAX_RANK_MATRIX_CELLS", 1)
    for table in (slices.ext_table, slices.lc_table):
        clear_slice_caches()
        with pytest.raises(ValueError, match="too large to rank"):
            table(edge, I).profile()


def test_subset_lcms_shape_and_monotonicity(ring3):
    rng = np.random.default_rng(97)
    for _ in range(5):
        ideal = random_proper_ideal(rng, ring3, 3, 4)
        alpha = subset_lcms(ideal.gens, 3)
        assert not alpha[0].any()  # empty subset has degree zero
        for mask in range(1, 1 << ideal.mu):
            sub = mask & (mask - 1)  # drop one element
            assert (alpha[mask] >= alpha[sub]).all()
            members = [g for k, g in enumerate(ideal.gens) if (mask >> k) & 1]
            assert alpha[mask].tolist() == [max(column) for column in zip(*members)]
