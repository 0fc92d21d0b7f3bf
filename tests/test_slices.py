"""Degreewise Ext / local-cohomology slices against an independent oracle.

The oracle rebuilds each per-degree complex from the definitions (its own
activity rules, its own signs, its own modular rank) and must agree with
the engine slice by slice.
"""

import dataclasses
import importlib.util
import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from relhom import monomials, slices, taylor
from relhom.monomials import RingSpec, parse_ideal, radical, support, unit_ideal, zero_ideal
from relhom.slices import (
    DegreeBox,
    SliceTable,
    _ext_activity,
    _lattice_dims,
    _Product,
    clear_slice_caches,
    ext_profile,
    ext_slice,
    ext_table,
    ext_vanishes,
    ext_vanishes_below,
    lc_profile,
    lc_table,
    local_cohomology_slice,
    lyubeznik_layout,
    taylor_layout,
)
from relhom.properties import full_report
from relhom.verifier import CorpusParams, corpus_instances, run_all_suites

from conftest import (
    box_axes,
    cech_piece,
    cycle_pair,
    degree_grid,
    dense_expansion,
    layout_faces,
    lyubeznik_in_order,
    oracle_axis_classes,
    oracle_cech_activity,
    oracle_cech_class_dims,
    oracle_ext_activity,
    oracle_lyubeznik_faces,
    oracle_member,
    oracle_member_rows,
    oracle_rank_mod_p,
    oracle_row_groups,
    product_grid,
    random_proper_ideal,
    walk_columns,
)

C4 = "x1*x2, x2*y1, y1*y2, y2*x1"
# a 6-variable pair whose unpadded box holds 1 756 755 degrees
BIG_BOX = ("a,b,c,d,e,f", "a^5*b, c^4*d, e^6*f, a*c^3", "a^3*b^4, c^5, d^2*e*f^3, b^2*f")


# --- independent per-degree oracle -----------------------------------------

def _subsets(r):
    return [frozenset(c) for k in range(r + 1) for c in itertools.combinations(range(r), k)]


def _sign(T, t):
    return -1 if len([s for s in T if s < t]) % 2 else 1


def _complex_dims(active_subsets, r, p, is_complex=True):
    """Cohomology dims of the incidence complex on the active subsets.

    For an arbitrary set of subsets (``is_complex=False``) the maps need not
    compose to zero; the result is then size minus incoming and outgoing
    rank per level, which is what the engine computes from any pattern.
    """
    levels = [[T for T in active_subsets if len(T) == k] for k in range(r + 1)]
    ranks = []
    for k in range(r):
        rows = {T: i for i, T in enumerate(levels[k + 1])}
        mat = [[0] * len(levels[k]) for _ in levels[k + 1]]
        for col, T in enumerate(levels[k]):
            for t in range(r):
                if t in T:
                    continue
                bigger = T | {t}
                if bigger in rows:
                    mat[rows[bigger]][col] = _sign(T, t)
        # the composite of consecutive differentials must vanish
        ranks.append((mat, oracle_rank_mod_p(mat, p)))
    dims = []
    for k in range(r + 1):
        outgoing = ranks[k][1] if k < r else 0
        incoming = ranks[k - 1][1] if k > 0 else 0
        dims.append(len(levels[k]) - outgoing - incoming)
    for k in range(r - 1 if is_complex else 0):
        low, high = ranks[k][0], ranks[k + 1][0]
        if low and high:
            prod = np.asarray(high) @ np.asarray(low)
            assert not (prod % p).any(), "oracle: consecutive differentials do not compose to zero"
    return dims


def oracle_ext_dims(J, I, b, p):
    r = len(J.gens)
    n = J.ring.n

    def alpha(T):
        return tuple(max((J.gens[t][j] for t in T), default=0) for j in range(n))

    active = []
    for T in _subsets(r):
        c = tuple(x + y for x, y in zip(b, alpha(T)))
        if all(v >= 0 for v in c) and not oracle_member(c, I.gens):
            active.append(T)
    return _complex_dims(active, r, p)


def oracle_lc_dims(a, I, b, p):
    r = len(a.gens)
    n = a.ring.n
    active = []
    for T in _subsets(r):
        inverted = set().union(*(support(a.gens[t]) for t in T)) if T else set()
        outside = [j for j in range(n) if j not in inverted]
        if any(b[j] < 0 for j in outside):
            continue
        erased = [tuple(g[j] for j in outside) for g in I.gens]
        restricted = tuple(b[j] for j in outside)
        if not oracle_member(restricted, erased):
            active.append(T)
    return _complex_dims(active, r, p)


# --- fixtures ---------------------------------------------------------------

def test_hom_slice_one_variable():
    ring = RingSpec(("x",))
    J = parse_ideal(ring, "x")
    I = parse_ideal(ring, "x^2")
    assert ext_slice(J, I, 0, (1,)) == 1
    assert ext_slice(J, I, 0, (0,)) == 0
    assert ext_slice(J, I, 0, (2,)) == 0
    assert ext_slice(J, I, 1, (-1,)) == 1


def test_ext_profile_of_irrelevant_power_ideal(ring2):
    # three generators whose radical is the whole irrelevant ideal:
    # the only surviving index over the entire box is 2
    a = parse_ideal(ring2, "x^2, y^3, x*y")
    assert ext_profile(a, zero_ideal(ring2)) == frozenset({2})
    for i in (0, 1, 3):
        assert ext_vanishes(a, zero_ideal(ring2), i)


def test_ext_profile_maximal_ideal_on_hypersurface(ring2):
    assert ext_profile(parse_ideal(ring2, "x, y"), parse_ideal(ring2, "x*y")) == frozenset({1, 2})


def test_ext_profile_principal_on_its_own_quotient(ring2):
    assert ext_profile(parse_ideal(ring2, "x"), parse_ideal(ring2, "x")) == frozenset({0, 1})


def test_ext_box_violation(ring2):
    # a single degree is exact outside the box; only the int16 grid bounds it
    J, I = parse_ideal(ring2, "x"), parse_ideal(ring2, "x^2")
    assert ext_slice(J, I, 0, (9, 0)) == oracle_ext_dims(J, I, (9, 0), ring2.char)[0]
    with pytest.raises(ValueError, match="out of range"):
        ext_slice(J, I, 0, (40000, 0))


def test_char_zero_rejected():
    ring = RingSpec(("x",), char=0)
    with pytest.raises(ValueError):
        ext_profile(parse_ideal(ring, "x"), zero_ideal(ring))


def test_unit_ideals_rejected(ring2):
    with pytest.raises(ValueError):
        ext_profile(unit_ideal(ring2), zero_ideal(ring2))
    with pytest.raises(ValueError):
        lc_profile(parse_ideal(ring2, "x"), unit_ideal(ring2))


def test_cech_piece_localization_direction(ring2):
    I = parse_ideal(ring2, "x*y")
    assert cech_piece(I, [(1, 0)], (-3, 0)) == 1
    assert cech_piece(I, [(1, 0)], (-3, 1)) == 0


def test_cech_piece_empty_subset_is_plain_membership(ring2):
    I = parse_ideal(ring2, "x^2")
    assert cech_piece(I, [], (1, 5)) == 1
    assert cech_piece(I, [], (2, 0)) == 0
    assert cech_piece(I, [], (-1, 0)) == 0


def test_cech_piece_unit_ideal_is_zero(ring2):
    assert cech_piece(unit_ideal(ring2), [(1, 0)], (0, 0)) == 0


def test_lc_profiles_on_fixtures(ring4):
    edge = parse_ideal(ring4, C4)
    assert lc_profile(parse_ideal(ring4, "y1, y2"), edge) == frozenset({1})
    assert lc_profile(edge, zero_ideal(ring4)) == frozenset({2, 3})
    assert lc_profile(zero_ideal(ring4), edge) == frozenset({0})


def test_lc_profile_of_non_radical_principal_like_ideal(ring2):
    # radical is principal, so only the first index survives
    assert lc_profile(parse_ideal(ring2, "x*y, x^2"), zero_ideal(ring2)) == frozenset({1})


def test_top_local_cohomology_slice_of_edge_quotient(ring4):
    maximal = parse_ideal(ring4, "x1, x2, y1, y2")
    edge = parse_ideal(ring4, C4)
    assert local_cohomology_slice(maximal, edge, 1, (0, 0, 0, 0)) == 1
    table = lc_table(maximal, edge)
    assert table.total(1) == 1
    assert table.hilbert(1) == {(0, 0, 0, 0): 1}


def test_lc_slice_degree_past_the_int16_grid_is_value_error(ring2):
    a, I = parse_ideal(ring2, "x"), parse_ideal(ring2, "y")
    with pytest.raises(ValueError, match="out of range"):
        local_cohomology_slice(a, I, 1, (-40000, 0))
    assert local_cohomology_slice(a, I, 1, (-16384, 0)) == oracle_lc_dims(a, I, (-16384, 0), ring2.char)[1]


def test_dim_at_degree_past_the_int16_grid_is_outside_the_box(ring2):
    table = lc_table(parse_ideal(ring2, "x"), parse_ideal(ring2, "y"))
    with pytest.raises(ValueError, match="degree outside the stabilization box"):
        table.dim_at(1, (40000, 0))


@pytest.mark.parametrize("level", [-1, 5])
def test_first_shifted_mismatch_reads_a_missing_level_as_zero(ring2, level):
    # a 2-level table lacks levels -1 and 5, which read as zero dimensions,
    # as in dim_at, hilbert and total: the first mismatch is the first box
    # degree where the shifted indicator is 1, found here by walking the box
    table = ext_table(parse_ideal(ring2, "x"), parse_ideal(ring2, "y^2"))
    assert table._walked[0].shape[0] == 2
    target, shift = parse_ideal(ring2, "x^2, y^3"), (1, 0)
    box = itertools.product(*(range(-r, r + 1) for r in table.box.rho))
    b = next(b for b in box if min(c := [x + s for x, s in zip(b, shift)]) >= 0 and not oracle_member(c, target.gens))
    assert table.first_shifted_mismatch(level, target, shift) == (b, 1, 0)
    assert table.dim_at(level, b) == 0
    # with every shifted degree in the target there is nothing to differ from
    assert table.first_shifted_mismatch(level, unit_ideal(ring2), shift) is None


def test_ext_vanishes_below_matches_profile(ring2):
    a = parse_ideal(ring2, "x^2, y^3, x*y")
    S = zero_ideal(ring2)
    assert ext_vanishes_below(a, S, 2)
    assert not ext_vanishes_below(a, S, 3)


# --- oracle comparison and properties ---------------------------------------

def test_ext_slices_match_oracle(ring2):
    rng = np.random.default_rng(37)
    p = ring2.char
    for _ in range(6):
        J = random_proper_ideal(rng, ring2, 2, 3)
        I = random_proper_ideal(rng, ring2, 2, 3)
        box = DegreeBox.for_ideals(J, I)
        table = ext_table(J, I)
        for b in itertools.product(range(-box.rho[0], box.rho[0] + 1), range(-box.rho[1], box.rho[1] + 1)):
            expected = oracle_ext_dims(J, I, b, p)
            for i, dim in enumerate(expected):
                assert table.dim_at(i, b) == dim


def test_lc_slices_match_oracle(ring2):
    rng = np.random.default_rng(41)
    p = ring2.char
    for _ in range(6):
        a = random_proper_ideal(rng, ring2, 2, 3)
        I = random_proper_ideal(rng, ring2, 2, 3)
        box = DegreeBox.for_ideals(a, I)
        for b in itertools.product(range(-box.rho[0], box.rho[0] + 1), range(-box.rho[1], box.rho[1] + 1)):
            expected = oracle_lc_dims(a, I, b, p)
            for i, dim in enumerate(expected):
                assert local_cohomology_slice(a, I, i, b) == dim


def _dense_dims(kind, A, B, box):
    # the full Taylor complex on A's own generators over every box degree, as in the corpus cross-check
    scale = 1 if kind == "ext" else slices._LEFT_OUT
    dims, maps = slices._slice_dims(taylor_layout(A.gens, A.ring.n), scale, A, B, _Product(box_axes(box)))
    return dims[:, walk_columns(maps)]


def _nonzero_levels(dims):
    return frozenset(int(i) for i in np.flatnonzero(dims.any(axis=1)))


def support_grouped_lc_dims(a, I, box):
    """Cech dimensions over every box degree on the Taylor complex of a's own
    generators, each face reading the activity row of its lcm's support,
    grouped in a dict: the dense scan before it ran on the supports."""
    layout = taylor_layout(a.gens, a.ring.n)
    supports = layout.lcms > 0
    first = oracle_row_groups(supports)
    distinct = sorted(set(first))
    rows = np.searchsorted(distinct, first)
    active, maps = _ext_activity(a, I, _Product(box_axes(box)), np.where(supports[distinct], slices._LEFT_OUT, 0))
    return _lattice_dims(active, layout.faces, a.ring.char, rows)[:, walk_columns(maps)]


def test_cech_profiles_equal_the_support_grouped_oracle():
    # the class engine (on the squarefree generators of rad(a)) and the
    # dense scan (on the supports of a's generators) both group faces by
    # lcm; on the 200 default-corpus pairs, 187 with a non-squarefree a,
    # both equal the faces of a's own generators grouped by support
    squarefree = 0
    for a, I in corpus_instances(CorpusParams()):
        expected = _nonzero_levels(support_grouped_lc_dims(a, I, DegreeBox.for_ideals(a, I)))
        assert lc_profile(a, I) == expected
        assert slices._dense_profile("lc", a, I) == expected
        squarefree += radical(a) == a
    assert squarefree == 13


# the corpora the Lyubeznik local-cohomology tables are checked on against
# the Cech complex, each with its number of pairs whose rad(a) has a
# Lyubeznik complex smaller than the Taylor complex
LC_CORPORA = {
    "default": (CorpusParams(), 11),
    "seed11": (CorpusParams(seed=11), 14),
    "squarefree5": (CorpusParams(n=5, gen_count_range=(2, 7), squarefree=True), 33),
    "n3e8": (CorpusParams(n=3, max_exponent=8), 2),
    "n5g39": (CorpusParams(n=5, gen_count_range=(3, 9), count=100), 44),
}


@pytest.mark.parametrize("name", LC_CORPORA)
def test_lc_tables_equal_the_cech_oracle(name):
    # Ext against the Frobenius power of rad(a) on its Lyubeznik complex has
    # the class starts and dimensions of the Cech complex on every subset of
    # rad(a)'s generators
    params, expected_smaller = LC_CORPORA[name]
    smaller = 0
    for a, I in corpus_instances(params):
        table = lc_table(a, I)
        starts, dims = oracle_cech_class_dims(a, I)
        assert len(table._starts) == len(starts)
        assert all(np.array_equal(s, t) for s, t in zip(table._starts, starts))
        assert np.array_equal(table._class_dims, dims)
        gens = radical(a).gens
        smaller += lyubeznik_layout(gens, a.ring.n).faces.size < 1 << len(gens)
    assert smaller == expected_smaller


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_tables_equal_the_dense_scan(n):
    # the class engine (Lyubeznik complex for Ext, Cech complex on the
    # radical) against the kernels run on every box degree of the full
    # Taylor complex, at pads 0-2; every smaller box decides the same
    # profile, which is why no profile takes a pad
    ring = RingSpec(tuple(f"x{j}" for j in range(n)))
    rng = np.random.default_rng(60 + n)
    for trial in range(21):
        J = random_proper_ideal(rng, ring, 3, 4)
        I = zero_ideal(ring) if trial == 0 else random_proper_ideal(rng, ring, 3, 4)
        for pad in (0, 1, 2):
            box = DegreeBox.for_ideals(J, I, pad=pad)
            grid = degree_grid(box)
            for table, kind in ((ext_table(J, I, pad), "ext"), (lc_table(J, I, pad), "lc")):
                dense = _dense_dims(kind, J, I, box)
                degrees, dims = dense_expansion(table)
                assert np.array_equal(degrees, grid)
                assert np.array_equal(dims, dense)
                assert table.profile() == _nonzero_levels(dense)
                for q in range(pad):
                    inside = (np.abs(grid) <= np.asarray(DegreeBox.for_ideals(J, I, pad=q).rho)).all(axis=1)
                    assert table.profile() == _nonzero_levels(dense[:, inside])
            dense = _dense_dims("ext", J, I, box)
            for k in range(len(J.gens) + 2):
                assert ext_vanishes_below(J, I, k) == (not dense[:k].any())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_listing_walks_the_nonzero_classes(n):
    # the listing, hilbert and total built from the nonzero classes equal
    # those read off the dense expansion over every box degree, record for
    # record in (i, b) order
    ring = RingSpec(tuple(f"x{j}" for j in range(n)))
    rng = np.random.default_rng(70 + n)
    for trial in range(12):
        J = random_proper_ideal(rng, ring, 3, 4)
        I = zero_ideal(ring) if trial == 0 else random_proper_ideal(rng, ring, 3, 4)
        for pad in (0, 1, 2):
            for table in (ext_table(J, I, pad), lc_table(J, I, pad)):
                degrees, dims = dense_expansion(table)
                expected = [
                    {"i": i, "b": [int(v) for v in degrees[d]], "dim": int(dims[i, d])}
                    for i in range(dims.shape[0])
                    for d in np.flatnonzero(dims[i])
                ]
                assert table._record_count() == len(expected)
                assert table.dump() == expected
                for i in range(len(dims)):
                    assert table.hilbert(i) == {tuple(r["b"]): r["dim"] for r in expected if r["i"] == i}
                assert [table.total(i) for i in range(len(dims))] == dims.sum(axis=1).tolist()


def test_class_lookup_matches_the_dense_expansion(ring3):
    # the table's one class lookup, over the product of every box axis and
    # at single degrees through dim_at, against classing each box value
    rng = np.random.default_rng(88)
    for _ in range(8):
        J = random_proper_ideal(rng, ring3, 3, 4)
        I = random_proper_ideal(rng, ring3, 3, 3)
        for table in (ext_table(J, I, pad=1), lc_table(J, I, pad=1)):
            degrees, dims = dense_expansion(table)
            assert np.array_equal(table._product_dims(box_axes(table.box)), dims)
            for k in rng.integers(0, len(degrees), size=20).tolist():
                b = degrees[k].tolist()
                assert [table.dim_at(i, b) for i in range(dims.shape[0])] == dims[:, k].tolist()


def test_axis_classes_are_the_intervals_between_thresholds():
    # each class starts at -r or at a threshold inside the box; the classes
    # and representatives equal those of classing every box value
    rng = np.random.default_rng(80)
    for r in [*range(1, 41), 16_000]:
        for _ in range(25):
            drawn = rng.integers(-2 * r - 2, 2 * r + 3, size=int(rng.integers(0, 10))).tolist()
            thresholds = [0, *drawn, *drawn[: len(drawn) // 2]]
            starts, reps = slices._axis_classes(r, thresholds)
            ids, expected_reps = oracle_axis_classes(r, thresholds)
            assert np.array_equal(reps, expected_reps) and reps.dtype == expected_reps.dtype
            assert np.array_equal(np.searchsorted(starts, np.arange(-r, r + 1), side="right") - 1, ids)
            assert np.array_equal(starts, np.flatnonzero(np.diff(ids, prepend=-1)) - r)


def test_listing_is_refused_before_any_record(monkeypatch, ring2):
    table = lc_table(parse_ideal(ring2, "x"), zero_ideal(ring2), pad=3)
    assert table._record_count() == 25  # H^1 at b_x <= -1, b_y >= 0 in the 11 x 9 box
    monkeypatch.setattr(slices, "_MAX_LISTING_RECORDS", 24)
    monkeypatch.setattr(SliceTable, "_records", lambda *args: pytest.fail("a record was built"))
    with pytest.raises(ValueError, match="25 nonzero slices"):
        table.dump()
    with pytest.raises(ValueError, match="25 nonzero slices"):
        table.hilbert(1)
    # the ceiling bounds the tables of one listing together
    ext = ext_table(parse_ideal(ring2, "x"), zero_ideal(ring2), pad=3)
    monkeypatch.setattr(slices, "_MAX_LISTING_RECORDS", max(25, ext._record_count()))
    with pytest.raises(ValueError, match=f"{25 + ext._record_count()} nonzero slices"):
        slices.dump_tables(ext, table)


def test_ext_profile_scans_one_degree_per_class(monkeypatch):
    # the walk covers one degree per threshold class (51 450 on the big box)
    # and hands the dims its 75 distinct activity patterns, not the activity
    # of every class degree, nor of its 1 946 walk columns
    ring = RingSpec(tuple(BIG_BOX[0].split(",")))
    a, I = parse_ideal(ring, BIG_BOX[1]), parse_ideal(ring, BIG_BOX[2])
    scanned, handed = [], []
    member_states, lattice_dims = slices._member_states, slices._lattice_dims

    def walking(axes, gens, shifts):
        scanned.append(int(np.prod([len(values) for values in axes])))
        return member_states(axes, gens, shifts)

    def deduplicating(active, faces, p, rows):
        handed.append(active.shape[1])
        return lattice_dims(active, faces, p, rows)

    monkeypatch.setattr(slices, "_member_states", walking)
    monkeypatch.setattr(slices, "_lattice_dims", deduplicating)
    clear_slice_caches()
    assert ext_profile(a, I) == frozenset({0, 1, 2, 3})
    assert scanned and max(scanned) <= 60_000
    assert len(handed) == len(scanned) and max(handed) == 75


def test_the_12_cycle_table_keeps_per_axis_maps_not_one_per_class(monkeypatch):
    # the Ext table of the 12-cycle pair spans 2 985 984 class degrees, but
    # the walk's per-axis maps hold 72 440 cells (values x states of each
    # axis), the first leading its 32 508 cells to 587 distinct patterns;
    # its profile follows no map, so no array of one entry per class
    # degree is built, and single degrees follow one path through the maps
    a, I = cycle_pair(12)
    table = ext_table(a, I)
    dims, maps = table._walked
    assert math.prod(len(starts) for starts in table._starts) == 2_985_984
    assert sum(group.size for group in maps) == 72_440
    assert maps[0].size == 32_508 and dims.shape[1] == maps[0].max() + 1 == 587
    compose = slices._compose
    monkeypatch.setattr(slices, "_compose", lambda *args: pytest.fail("the maps were composed"))
    clear_slice_caches()
    assert ext_profile(a, I) == table.profile()
    monkeypatch.setattr(slices, "_compose", compose)
    assert [table.dim_at(i, (0,) * 12) for i in range(7)] == [ext_slice(a, I, i, (0,) * 12) for i in range(7)]


def test_per_level_sums_match_a_python_sum():
    # int64 sums of each level of 1-d and 2-d rows, boolean and signed, on
    # face sets whose top levels are empty (the chains, the complex on no
    # generators) and on full ones; an empty level sums to 0 and the last
    # face of the top nonempty level is counted
    rng = np.random.default_rng(190)
    face_sets = [lyubeznik_layout(chain(k), 2).faces for k in (25, 5)]
    face_sets += [taylor_layout(chain(4), 2).faces, slices._taylor_faces(0), slices._taylor_faces(1)]
    assert any(face_set.offsets[-1] == face_set.offsets[-2] for face_set in face_sets)
    for face_set in face_sets:
        bounds = list(zip(face_set.offsets[:-1].tolist(), face_set.offsets[1:].tolist()))
        for shape in ((face_set.size,), (face_set.size, 3)):
            for rows in (rng.integers(0, 2, size=shape).astype(bool), rng.integers(-9, 10, size=shape).astype(np.int8)):
                if len(shape) == 1:
                    expected = [sum(rows[lo:hi].tolist()) for lo, hi in bounds]
                else:
                    expected = [[sum(rows[lo:hi, c].tolist()) for c in range(shape[1])] for lo, hi in bounds]
                totals = face_set.per_level(rows)
                assert totals.dtype == np.int64 and totals.tolist() == expected
        assert face_set.per_level(np.ones(face_set.size, dtype=bool)).tolist() == np.diff(face_set.offsets).tolist()


def test_box_enlargement_never_changes_profiles(ring4):
    # padding only widens the edge classes: the classes past the first start
    # of each axis and their dimensions, hence every profile, are the same
    # for every pad
    rng = np.random.default_rng(43)
    for _ in range(8):
        a = random_proper_ideal(rng, ring4, 3, 4)
        I = random_proper_ideal(rng, ring4, 3, 4)
        for build in (ext_table, lc_table):
            tables = [build(a, I, pad) for pad in (0, 1, 2)]
            for table in tables[1:]:
                assert np.array_equal(table._class_dims, tables[0]._class_dims)
                assert all(np.array_equal(s[1:], s0[1:]) for s, s0 in zip(table._starts, tables[0]._starts))


def test_resolution_independence_of_grade(ring4):
    rng = np.random.default_rng(47)
    for _ in range(8):
        a = random_proper_ideal(rng, ring4, 2, 4)
        I = random_proper_ideal(rng, ring4, 2, 4)
        assert min(ext_profile(a, I)) == min(lc_profile(a, I))


def test_ext_vanishes_below_agrees_with_profile_on_random(ring3):
    rng = np.random.default_rng(53)
    for _ in range(8):
        J = random_proper_ideal(rng, ring3, 2, 4)
        I = random_proper_ideal(rng, ring3, 2, 4)
        profile = ext_profile(J, I)
        for k in range(len(J.gens) + 2):
            assert ext_vanishes_below(J, I, k) == all(i >= k for i in profile)


def test_lc_slices_outside_box_match_oracle(ring2):
    # slice values are exact at any degree; the box only bounds module vanishing
    rng = np.random.default_rng(57)
    p = ring2.char
    for _ in range(4):
        a = random_proper_ideal(rng, ring2, 2, 3)
        I = random_proper_ideal(rng, ring2, 2, 3)
        for b in ((-7, 0), (0, -9), (6, -1), (-8, 5), (9, 9)):
            expected = oracle_lc_dims(a, I, b, p)
            for i, dim in enumerate(expected):
                assert local_cohomology_slice(a, I, i, b) == dim


def test_slice_dimensions_are_nonnegative(ring4):
    rng = np.random.default_rng(51)
    for _ in range(5):
        a = random_proper_ideal(rng, ring4, 2, 4)
        I = random_proper_ideal(rng, ring4, 2, 4)
        assert (dense_expansion(ext_table(a, I))[1] >= 0).all()
        assert (dense_expansion(lc_table(a, I))[1] >= 0).all()


def test_degree_box_bounds(ring2):
    box = DegreeBox.for_ideals(parse_ideal(ring2, "x^3"), parse_ideal(ring2, "y^2"))
    assert box.rho == (4, 3)
    assert box.contains((4, -3))
    assert not box.contains((5, 0))
    with pytest.raises(ValueError):
        DegreeBox((0, 1))


def test_oversized_scan_fails_fast(ring2):
    a = parse_ideal(ring2, "x, y")
    with pytest.raises(ValueError, match="too large"):
        ext_table(a, zero_ideal(ring2), pad=20_000)


def test_concurrent_slice_evaluation_matches_serial(ring4):
    a = parse_ideal(ring4, C4)
    S = zero_ideal(ring4)
    degrees = [(-1, -1, -1, -1), (0, 0, 0, 0), (-2, 0, -1, 0), (-1, -2, -1, -2)]
    tasks = [(i, b) for i in range(5) for b in degrees]
    serial = [local_cohomology_slice(a, S, i, b) for i, b in tasks]
    clear_slice_caches()
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda ib: local_cohomology_slice(a, S, ib[0], ib[1]), tasks))
    assert serial == parallel


# --- the batched activity, dedup and rank layers ------------------------------

def _activity_cases(n):
    """Seeded pairs (J, I) with random per-axis values inside their box
    padded by 1: one to four values per axis, unsorted and possibly repeated."""
    ring = RingSpec(tuple(f"x{j}" for j in range(n)))
    rng = np.random.default_rng(80 + n)
    for _ in range(12):
        J = random_proper_ideal(rng, ring, 2, 6)
        I = random_proper_ideal(rng, ring, 3, 4)
        box = DegreeBox.for_ideals(J, I, pad=1)
        yield J, I, [rng.integers(-r, r + 1, size=rng.integers(1, 5)).astype(np.int16) for r in box.rho]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ext_activity_matches_the_per_subset_oracle(n):
    # one row per distinct lcm, read by each face through its group
    for J, I, axes in _activity_cases(n):
        for layout in (lyubeznik_layout(J.gens, n), taylor_layout(J.gens, n)):
            first, rows = slices._row_groups(layout.lcms)
            active, maps = _ext_activity(J, I, _Product(axes), layout.lcms[first])
            columns = walk_columns(maps)
            assert active.shape[0] == first.size and columns.shape == (product_grid(axes).shape[0],)
            assert np.array_equal(active[rows][:, columns], oracle_ext_activity(J, I, product_grid(axes), layout))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cech_activity_matches_the_per_face_oracle(n):
    # on the radical's generators, as the class tables run it, and on the
    # relative ideal's own, as the dense scan does; one row per distinct support
    for a, I, axes in _activity_cases(n):
        for gens in (monomials.radical(a).gens, a.gens):
            layout = taylor_layout(gens, n)
            supports = layout.lcms > 0
            first, rows = slices._row_groups(supports)
            active, maps = _ext_activity(a, I, _Product(axes), np.where(supports[first], slices._LEFT_OUT, 0))
            expected = oracle_cech_activity(gens, I, product_grid(axes), layout)
            assert np.array_equal(active[rows][:, walk_columns(maps)], expected)


def _expected_member_rows(grid, gens, shifts):
    """The result of ``_member_states`` at every degree, from the broadcast
    oracle, one shift at a time, axes shifted by ``_LEFT_OUT`` dropped from
    the row and erased from the generators."""
    out = np.zeros((len(shifts), grid.shape[0]), dtype=bool)
    for u, s in enumerate(shifts):
        kept = [j for j in range(grid.shape[1]) if s[j] != slices._LEFT_OUT]
        shifted = grid[:, kept].astype(np.int32) + np.asarray([s[j] for j in kept], dtype=np.int32)
        erased = [tuple(g[j] for j in kept) for g in gens]
        out[u] = (shifted >= 0).all(axis=1) & ~oracle_member_rows(shifted, erased)
        for d in range(0, grid.shape[0], 7):
            row = shifted[d].tolist()
            assert out[u, d] == (min(row, default=0) >= 0 and not oracle_member(row, erased))
    return out


def _member_states_per_degree(axes, gens, shifts) -> np.ndarray:
    """The (shifts, degrees) result of ``_member_states``, every degree read through its column."""
    active, maps = slices._member_states(axes, gens, shifts)
    assert [group.shape[0] for group in maps] == [len(values) for values in axes]
    assert len({column.tobytes() for column in active.T}) == active.shape[1]  # distinct patterns
    columns = walk_columns(maps)
    assert columns.shape == (math.prod(len(values) for values in axes),)
    return active[:, columns]


@pytest.mark.parametrize("span, cap", [(span, cap) for span in (None, 1) for cap in (None, 64, 1000)])
@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 130])
def test_member_states_match_the_oracles_at_the_edges(monkeypatch, count, span, cap):
    # bit sets of one word and of several (the last generator, the only one
    # of small degree, sits past the first word from 64 generators on),
    # random per-axis values, many of them negative, unsorted and repeated,
    # products with and without axes, faces leaving out some or every axis,
    # and values and shifts at the int16 limits; at the default span no
    # dedup runs and each shift keeps its own lane, at span 1 every axis but
    # the first is deduplicated and one-word bit sets share lanes, and a byte
    # cap of 64 puts each value of an axis in its own chunk, one of 1 000
    # puts several values in a chunk, the last chunk of some axes short
    if span:
        monkeypatch.setattr(slices, "_STATE_SPAN", span)
    if cap:
        monkeypatch.setattr(slices, "_MAX_WORKING_BYTES", cap)
    rng = np.random.default_rng(120 + count)
    top = monomials.MAX_EXPONENT
    for n in (0, 1, 3, 5):
        gens = [tuple(rng.integers(3, 8, size=n).tolist()) for _ in range(count - 1)]
        if gens and n:
            gens[0] = (top, *gens[0][1:])
        if count:
            gens.append((1,) * n)
        axes = [rng.integers(-6, 9, size=rng.integers(1, 5)) for _ in range(n)]
        if n:
            axes[0] = np.array([-top - 1, top + 1, 0, -1, *axes[0]])
        if n > 1:
            axes[1] = np.array([top + 1, *axes[1]])
        axes = [values.astype(np.int16) for values in axes]
        grid = product_grid(axes)
        shifts = rng.integers(0, 6, size=(9, n))
        shifts[0] = 0
        shifts[1] = slices._LEFT_OUT
        shifts[2] = top
        shifts[3, : n // 2] = slices._LEFT_OUT
        expected = _expected_member_rows(grid, gens, shifts.tolist())
        assert np.array_equal(_member_states_per_degree(axes, gens, shifts), expected)
        # with every axis left out a degree passes iff there are no generators
        assert (expected[1] == (count == 0)).all()


@pytest.mark.parametrize("span", [None, 0])
@pytest.mark.parametrize("count", [0, 1, 64])
def test_member_states_without_axes_read_the_full_bit_set(monkeypatch, count, span):
    # a ring without variables: the product is its one degree, whose bit set
    # has every bit, so it passes iff there are no generators (a generator
    # of no variables is 1); at span 0 one-word bit sets share a lane
    if span is not None:
        monkeypatch.setattr(slices, "_STATE_SPAN", span)
    active, maps = slices._member_states([], [()] * count, np.zeros((5, 0), dtype=np.int64))
    assert active.dtype == bool and active.shape == (5, 1) and maps == () and walk_columns(maps).tolist() == [0]
    assert (active == (count == 0)).all()


@pytest.mark.parametrize("span", [None, 1])
@pytest.mark.parametrize("lengths", [(1, 9, 1, 4), (9, 1, 1)])
def test_member_states_build_the_product_from_the_last_axis_outward(monkeypatch, lengths, span):
    # axes of one value beside longer ones, the long axis first or inner:
    # each axis is ANDed in outside the product of the axes after it, which
    # must still come out in lexicographic order; 65 generators give bit
    # sets of two words, and the byte cap puts the long axis in chunks: the
    # first axis of (9, 1, 1), turned into results chunk by chunk, and the
    # second of (1, 9, 1, 4), whose chunks' states are merged
    if span:
        monkeypatch.setattr(slices, "_STATE_SPAN", span)
    rng = np.random.default_rng(140 + len(lengths))
    n = len(lengths)
    gens = [tuple(rng.integers(1, 9, size=n).tolist()) for _ in range(65)]
    axes = [rng.integers(-4, 10, size=k).astype(np.int16) for k in lengths]
    grid = product_grid(axes)
    monkeypatch.setattr(slices, "_MAX_WORKING_BYTES", 3 * grid.shape[0] * 2 * 8)
    shifts = rng.integers(0, 5, size=(7, n))
    shifts[1, 0] = slices._LEFT_OUT
    expected = _expected_member_rows(grid, gens, shifts.tolist())
    assert expected.any() and not expected.all()
    assert np.array_equal(_member_states_per_degree(axes, gens, shifts), expected)


@pytest.mark.parametrize("count, shifts", [(4, 3), (12, 20), (65, 5)])
def test_member_states_match_the_per_shift_oracle(monkeypatch, count, shifts):
    # bit sets of 5 bits, three shifts to one lane; of 13 bits, twenty
    # shifts on five lanes keyed by their bytes; and of two words (65
    # generators), keyed by their raw words; the span at 1 deduplicates
    # every axis but the first, and the byte cap puts each value of an axis
    # in its own chunk; every degree reads its state against the oracle
    monkeypatch.setattr(slices, "_STATE_SPAN", 1)
    monkeypatch.setattr(slices, "_MAX_WORKING_BYTES", 64)
    rng = np.random.default_rng(180 + count)
    gens = [tuple(rng.integers(1, 6, size=4).tolist()) for _ in range(count)]
    axes = [rng.integers(-3, 9, size=k).astype(np.int16) for k in (3, 5, 2, 4)]
    offsets = rng.integers(0, 4, size=(shifts, 4))
    offsets[0, 1] = slices._LEFT_OUT
    grid = product_grid(axes)
    expected = _expected_member_rows(grid, gens, offsets.tolist())
    active, maps = slices._member_states(axes, gens, offsets)
    columns = walk_columns(maps)
    assert columns.shape == (grid.shape[0],) and active.shape[1] < grid.shape[0]
    assert np.array_equal(active[:, columns], expected)


@pytest.mark.parametrize("span, cap", [(None, None), (None, 8), (1, None), (1, 8)])
def test_state_walk_dims_match_the_per_degree_oracle(monkeypatch, span, cap):
    # the pattern dims of every ext and lc table, gathered to every class
    # degree through the walk's per-axis maps, against that degree's face
    # activity from the per-face oracle and its cohomology from oracle
    # ranks; at the default span the big box walks, at span 1 every axis
    # but the first is deduplicated, and a byte cap of 8 puts each value of
    # an axis in its own chunk, so the chunks' states are merged
    if span:
        monkeypatch.setattr(slices, "_STATE_SPAN", span)
    if cap:
        monkeypatch.setattr(slices, "_MAX_WORKING_BYTES", cap)
    member_states, walked = slices._member_states, []

    def recording(axes, gens, shifts):
        active, maps = member_states(axes, gens, shifts)
        walked.append(active.shape[1] < walk_columns(maps).size)
        return active, maps

    monkeypatch.setattr(slices, "_member_states", recording)
    rng = np.random.default_rng(170)
    ring0, big = RingSpec(()), RingSpec(tuple(BIG_BOX[0].split(",")))
    pairs = [(zero_ideal(ring0), zero_ideal(ring0)), (parse_ideal(big, BIG_BOX[1]), parse_ideal(big, BIG_BOX[2]))]
    for n in (2, 3, 4):
        ring = RingSpec(tuple(f"x{j}" for j in range(n)))
        pairs += [(random_proper_ideal(rng, ring, 3, 4), random_proper_ideal(rng, ring, 3, 4)) for _ in range(4)]
    clear_slice_caches()
    for a, I in pairs:
        for kind, build in (("ext", ext_table), ("lc", lc_table)):
            table = build(a, I)
            grid = product_grid([oracle_axis_classes(r, starts)[1] for r, starts in zip(table.box.rho, table._starts)])
            gens = a.gens if kind == "ext" else radical(a).gens
            layout = lyubeznik_layout(gens, a.ring.n)
            faces = [T for level in layout_faces(layout.faces) for T in level]
            if kind == "ext":
                active = oracle_ext_activity(a, I, grid, layout)
            else:
                active = oracle_cech_activity(gens, I, grid, layout)
            patterns, inverse = np.unique(active.T, axis=0, return_inverse=True)
            dims = [
                _complex_dims([faces[m] for m in np.flatnonzero(column)], len(gens), a.ring.char)
                + [0] * (len(a.gens) - len(gens))
                for column in patterns
            ]
            expected = np.array(dims).T[:, inverse.ravel()]
            assert np.array_equal(table._class_dims, expected)
    assert sum(walked) >= (1 if span is None else len(pairs))


def test_profiles_read_the_pattern_dims_without_the_class_gather():
    # a table keeps its dimensions per distinct activity pattern; profile()
    # reads those, so the per-class dimensions are gathered only when a
    # listing asks for them, and the profile is their nonzero levels
    rng = np.random.default_rng(150)
    pairs = list(corpus_instances(CorpusParams()))
    for n in (3, 4, 5):
        ring = RingSpec(tuple(f"x{k}" for k in range(n)))
        pairs += [(random_proper_ideal(rng, ring, 3, 4), random_proper_ideal(rng, ring, 3, 3)) for _ in range(8)]
    for a, I in pairs:
        for build in (ext_table, lc_table):
            table = build(a, I)
            profile = table.profile()
            assert "_class_dims" not in vars(table)
            assert profile == _nonzero_levels(table._class_dims)


def _convex_patterns(rng, faces, r, count):
    """``count`` random activity patterns, as (faces, count) booleans, on
    faces given as sets of generator indices: each an up-set meet a down-set
    of the face poset, as every caller's pattern is, so that its incidence
    maps form a cochain complex.

    The up-set holds the faces of weight at least a threshold and the faces
    above a few random faces; the down-set the faces of another weight at
    most a threshold and the faces below a few random faces.
    """
    member = np.array([[g in T for g in range(r)] for T in faces], dtype=bool).reshape(len(faces), r)
    patterns = np.empty((len(faces), count), dtype=bool)
    for c in range(count):
        up_weight, down_weight = rng.random(r), rng.random(r)
        up = member @ up_weight >= rng.uniform(0, up_weight.sum())
        down = member @ down_weight <= rng.uniform(0, down_weight.sum())
        for A in member[rng.integers(0, len(faces), size=rng.integers(0, 3))]:
            up |= (member | ~A).all(axis=1)
        for B in member[rng.integers(0, len(faces), size=rng.integers(0, 3))]:
            down |= (~member | B).all(axis=1)
        patterns[:, c] = up & down
    return patterns


def _random_face_sets(rng, taylor_sizes, lyubeznik_count):
    """Taylor face sets on the given generator counts, then Lyubeznik face
    sets (not all subsets, in their own order) of random ideals in 3
    variables, each with its faces as sets of generator indices."""
    ring = RingSpec(("x", "y", "z"))
    face_sets = [slices._taylor_faces(r) for r in taylor_sizes]
    face_sets += [lyubeznik_layout(random_proper_ideal(rng, ring, 3, 8).gens, 3).faces for _ in range(lyubeznik_count)]
    return [(face_set, [T for level in layout_faces(face_set) for T in level]) for face_set in face_sets]


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_lattice_dims_match_the_oracle_on_random_patterns(p):
    # random convex activity patterns, with repeated columns so the dedup
    # and the memo are both exercised; the oracle also asserts that the
    # maps compose to zero, so its dimensions are a cohomology
    rng = np.random.default_rng(p)
    clear_slice_caches()
    for face_set, faces in _random_face_sets(rng, range(8), 6):  # up to 16 bytes per packed pattern
        r = len(face_set.offsets) - 2
        columns = _convex_patterns(rng, faces, r, 12)
        active = columns[:, rng.integers(0, 12, size=30)]
        dims = _lattice_dims(active, face_set, p, np.arange(len(faces)))
        for d in range(active.shape[1]):
            assert dims[:, d].tolist() == _complex_dims([faces[m] for m in np.flatnonzero(active[:, d])], r, p)


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_incidence_rank_matches_the_oracle_on_arbitrary_patterns(p):
    # any pattern, not only a convex one: sizes minus the ranks on either
    # side of each level are the oracle's, whose maps need not compose to zero
    rng = np.random.default_rng(400 + p)
    for face_set, faces in _random_face_sets(rng, range(8), 6):
        r = len(face_set.offsets) - 2
        active = rng.random((len(faces), 12)) < rng.uniform(0.2, 0.8)
        sizes = face_set.per_level(active)
        ranks = slices._incidence_rank(active, sizes, face_set, p)
        dims = sizes.copy()
        dims[:-1] -= ranks
        dims[1:] -= ranks
        for d in range(active.shape[1]):
            expected = _complex_dims([faces[m] for m in np.flatnonzero(active[:, d])], r, p, is_complex=False)
            assert dims[:, d].tolist() == expected


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_lattice_dims_read_shared_rows_through_the_face_map(monkeypatch, p):
    # activity read per distinct face lcm, as the tables read it: row u is
    # active at a random degree b iff b + lcm_u >= 0 and x^(b + lcm_u) is
    # outside a random ideal, and each face reads the row of its lcm.  The
    # distinct rows with the face map must give the dimensions, and miss
    # the memo on the same patterns, as the activity gathered to the faces
    rng = np.random.default_rng(200 + p)
    ring = RingSpec(("x", "y", "z"))
    layouts = [taylor_layout(random_proper_ideal(rng, ring, 3, 7).gens, 3) for _ in range(6)]
    layouts += [lyubeznik_layout(random_proper_ideal(rng, ring, 3, 8).gens, 3) for _ in range(4)]
    missed = []
    match = slices._critical_counts

    def recording(by_size, faces):
        missed.append(sorted(column.tobytes() for column in np.packbits(by_size, axis=0).T))
        return match(by_size, faces)

    monkeypatch.setattr(slices, "_critical_counts", recording)
    for layout in layouts:
        lcms, rows = layout.lcm_groups
        gens = np.array(random_proper_ideal(rng, ring, 3, 3).gens)
        shifted = lcms[:, None].astype(np.int64) + rng.integers(-3, 4, size=(40, 3))
        active = (shifted >= 0).all(axis=2) & ~(shifted[:, :, None] >= gens).all(axis=3).any(axis=2)
        count = layout.faces.size
        clear_slice_caches()
        dims = _lattice_dims(active, layout.faces, p, rows)
        clear_slice_caches()
        gathered = _lattice_dims(active[rows], layout.faces, p, np.arange(count))
        assert np.array_equal(dims, gathered)
        assert missed[-2] == missed[-1]
        r = len(layout.faces.offsets) - 2
        faces = [T for level in layout_faces(layout.faces) for T in level]
        for d in range(active.shape[1]):
            assert dims[:, d].tolist() == _complex_dims([faces[m] for m in np.flatnonzero(active[rows, d])], r, p)


@pytest.mark.parametrize("p", [2, 32003])
def test_dims_memo_tells_level_counts_apart(p):
    # two face sets with the same nonempty levels, one with an extra empty
    # level: every boundary map agrees, so a key on those alone would hand
    # the second the 4-level columns of the first.  The memo must give each
    # the oracle's dimensions, in either order and on a warm memo
    rng = np.random.default_rng(300 + p)
    short = slices._taylor_faces(3)
    padded = dataclasses.replace(short, order=(0, 1, 2, 3), offsets=np.append(short.offsets, short.offsets[-1]))
    assert all(map(np.array_equal, short.down, padded.down)) and short.digest != padded.digest
    faces = [T for level in layout_faces(short) for T in level]
    columns = _convex_patterns(rng, faces, 3, 12)
    active = columns[:, rng.integers(0, 12, size=30)]
    clear_slice_caches()
    for face_set, r in ((short, 3), (padded, 4), (short, 3), (padded, 4)):
        dims = _lattice_dims(active, face_set, p, np.arange(len(faces)))
        assert dims.shape == (r + 1, active.shape[1])
        for d in range(active.shape[1]):
            assert dims[:, d].tolist() == _complex_dims([faces[m] for m in np.flatnonzero(active[:, d])], r, p)
    assert slices._incidence_rank.cache_info().hits > 0


def test_dims_memo_skips_the_ranks_of_patterns_seen_before():
    # a second call on the same face patterns, in another degree order and
    # read through another row map, misses the memo on none of them and
    # gives the same columns; another characteristic is another key
    rng = np.random.default_rng(310)
    face_set = lyubeznik_layout(random_proper_ideal(rng, RingSpec(("x", "y", "z")), 5, 8).gens, 3).faces
    count = face_set.size
    faces = [T for level in layout_faces(face_set) for T in level]
    active = _convex_patterns(rng, faces, len(face_set.order), 40)
    distinct = len({column.tobytes() for column in active.T})
    memo = slices._DIMS_CACHE
    clear_slice_caches()
    dims = _lattice_dims(active, face_set, 3, np.arange(count))
    assert memo.cache_info().misses == distinct and memo.cache_info().hits == 0
    order = rng.permutation(active.shape[1])
    rows = rng.permutation(count)
    reread = np.empty_like(active)
    reread[rows] = active[:, order]
    assert np.array_equal(_lattice_dims(reread, face_set, 3, rows), dims[:, order])
    assert memo.cache_info().misses == distinct and memo.cache_info().hits == distinct
    _lattice_dims(active, face_set, 2, np.arange(count))
    assert memo.cache_info().misses == 2 * distinct


def test_bounded_cache_keeps_to_its_byte_budget():
    cache = slices._BoundedCache(100, maxbytes=40)
    for k in range(10):
        cache.put(b"k%d" % k, bytes(8))  # 10 bytes an entry
    assert len(cache) == 4 and cache.get(b"k5") is None and cache.get(b"k9") == bytes(8)
    cache.put(b"k9", bytes(18))  # a new value for a kept key replaces its bytes
    assert len(cache) == 3 and cache.get(b"k6") is None and cache.get(b"k7") == bytes(8)
    cache.put(b"big", bytes(60))  # past the budget alone: nothing is kept
    assert len(cache) == 0
    cache.cache_clear()
    cache.put(b"k0", bytes(8))
    assert len(cache) == 1 and cache.cache_info().currsize == 1


def test_dims_memo_stays_within_its_byte_budget(monkeypatch, ring3):
    rng = np.random.default_rng(320)
    pairs = [(random_proper_ideal(rng, ring3, 2, 5), random_proper_ideal(rng, ring3, 2, 3)) for _ in range(8)]
    clear_slice_caches()
    expected = [ext_table(*pair)._class_dims for pair in pairs]
    monkeypatch.setattr(slices._DIMS_CACHE, "maxbytes", 300)
    clear_slice_caches()
    for pair, dims in zip(pairs, expected):
        assert np.array_equal(ext_table(*pair)._class_dims, dims)
        entries = list(slices._DIMS_CACHE._entries.items())
        assert sum(len(key) + len(value) for key, value in entries) == slices._DIMS_CACHE._bytes <= 300
    assert slices._incidence_rank.cache_info().misses > len(slices._DIMS_CACHE)


def test_matching_chunks_under_the_working_cap_give_the_same_tables(monkeypatch, ring4):
    # all six squarefree quadrics: under the working cap the element
    # matching takes the missed patterns one column at a time, then a few
    # at a time, and must leave the same critical faces and tables, Ext and
    # local cohomology, as it does uncapped
    J = parse_ideal(ring4, "x1*x2, x1*y1, x1*y2, x2*y1, x2*y2, y1*y2")
    rng = np.random.default_rng(91)
    cases = [(build, random_proper_ideal(rng, ring4, 2, 3)) for _ in range(4) for build in (ext_table, lc_table)]
    missed, chunks = [], []
    match, per_level = slices._critical_counts, slices.FaceSet.per_level

    def recording(by_size, faces):
        missed.append((by_size, faces))
        return match(by_size, faces)

    def counting(self, rows):
        chunks.append(rows.shape[1])
        return per_level(self, rows)

    monkeypatch.setattr(slices, "_critical_counts", recording)
    clear_slice_caches()
    tables = [build(J, I, pad=1)._class_dims for build, I in cases]
    counts = [match(by_size, faces) for by_size, faces in missed]
    size = lyubeznik_layout(J.gens, 4).faces.size
    assert all(faces.size == size for _, faces in missed) and max(by_size.shape[1] for by_size, _ in missed) > 3
    monkeypatch.setattr(slices.FaceSet, "per_level", counting)
    for step in (1, 3):
        monkeypatch.setattr(slices, "_MAX_WORKING_BYTES", 4 * size * step)
        for (by_size, faces), expected in zip(missed, counts):
            chunks.clear()
            assert np.array_equal(match(by_size, faces), expected)
            assert chunks == [min(step, by_size.shape[1] - lo) for lo in range(0, by_size.shape[1], step)]
        clear_slice_caches()
        for (build, I), dims in zip(cases, tables):
            assert np.array_equal(build(J, I, pad=1)._class_dims, dims)


def test_a_cone_pattern_is_decided_without_a_rank(monkeypatch):
    # an interval of faces from A to B, A a proper subset of B, is a cone
    # over every generator of B - A: the element matching pairs each face,
    # whichever generator comes first, so every dimension is 0 and nothing
    # is ranked
    def refuse(*args):
        raise AssertionError("a cone pattern was ranked")

    monkeypatch.setattr(slices, "_incidence_rank", refuse)
    face_set = slices._taylor_faces(5)
    faces = [T for level in layout_faces(face_set) for T in level]
    intervals = [((), (0, 1, 2, 3, 4)), ((1,), (0, 1, 3)), ((2, 4), (2, 3, 4)), ((), (4,))]
    active = np.array([[set(A) <= T <= set(B) for A, B in intervals] for T in faces])
    clear_slice_caches()
    dims = _lattice_dims(active, face_set, 32003, np.arange(len(faces)))
    assert dims.shape == (6, len(intervals)) and not dims.any()


def test_critical_faces_in_adjacent_levels_reach_the_ranks(monkeypatch):
    # the vertices and edges of a triangle: the matching pairs {0, 1} with
    # {1} and {0, 2} with {2}, and leaves the vertex {0} and the edge {1, 2}
    # critical in adjacent levels, so the pattern is ranked; its cohomology
    # is one class in each of the two levels
    face_set = slices._taylor_faces(3)
    faces = [T for level in layout_faces(face_set) for T in level]
    active = np.array([[len(T) in (1, 2)] for T in faces])
    assert slices._critical_counts(active, face_set)[:, 0].tolist() == [0, 1, 1, 0]
    ranked = []
    rank = slices._incidence_rank

    def recording(by_size, sizes, faces, p):
        ranked.append(by_size.copy())
        return rank(by_size, sizes, faces, p)

    monkeypatch.setattr(slices, "_incidence_rank", recording)
    clear_slice_caches()
    dims = _lattice_dims(active, face_set, 32003, np.arange(len(faces)))
    assert dims[:, 0].tolist() == [0, 1, 1, 0] == _complex_dims([T for T in faces if len(T) in (1, 2)], 3, 32003)
    assert len(ranked) == 1 and np.array_equal(ranked[0], active)


def test_the_rank_ceiling_is_checked_before_the_matching(monkeypatch):
    # a cone, which the matching would decide with no rank, is still
    # refused when one of its incidence matrices passes the ceiling
    def refuse(*args):
        raise AssertionError("the matching ran past the rank ceiling")

    monkeypatch.setattr(slices, "_critical_counts", refuse)
    monkeypatch.setattr(slices, "_MAX_RANK_MATRIX_CELLS", 1)
    face_set = slices._taylor_faces(2)  # every face: levels of 1, 2 and 1 faces
    clear_slice_caches()
    with pytest.raises(ValueError, match="too large to rank"):
        _lattice_dims(np.ones((face_set.size, 1), dtype=bool), face_set, 32003, np.arange(face_set.size))


def _wide_base_pairs():
    """The fifteen pairs of the benchmark's ``wide`` workload, as exponent lists in 4 variables."""
    spec = importlib.util.spec_from_file_location("workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads._wide_base_pairs()


def test_matched_dims_equal_the_ranks_on_every_missed_pattern(monkeypatch):
    # every pattern the memo misses on the default corpus, the fifteen pairs
    # of the benchmark's wide workload, K7 and the 12-cycle: where the
    # matching decides a pattern, its critical counts are the dimensions the
    # ranks give, in characteristic 2 as in 32003.  Nearly every pattern is
    # decided, and the rest reach the ranks
    missed = []
    match = slices._critical_counts

    def recording(by_size, faces):
        counts = match(by_size, faces)
        missed.append((by_size, faces, counts))
        return counts

    monkeypatch.setattr(slices, "_critical_counts", recording)
    clear_slice_caches()
    taylor.betti_numbers.cache_clear()
    run_all_suites(CorpusParams())
    wide = RingSpec(("a", "b", "c", "d"))
    pairs = [tuple(monomials.minimal_generators(wide, gens) for gens in pair) for pair in _wide_base_pairs()]
    k7 = RingSpec(tuple(f"x{k}" for k in range(7)))
    edges = [tuple(int(j in edge) for j in range(7)) for edge in itertools.combinations(range(7), 2)]
    pairs += [(monomials.minimal_generators(k7, edges), zero_ideal(k7)), cycle_pair(12)]
    for pair in pairs:
        full_report(*pair)
    decided = total = 0
    for by_size, faces, counts in missed:
        sizes = faces.per_level(by_size)
        matched = ~((counts[:-1] > 0) & (counts[1:] > 0)).any(axis=0)
        for p in (2, 32003):
            ranks = slices._incidence_rank(by_size, sizes, faces, p)
            dims = sizes.copy()
            dims[:-1] -= ranks
            dims[1:] -= ranks
            assert np.array_equal(dims[:, matched], counts[:, matched])
        decided += int(matched.sum())
        total += matched.size
    assert total > decided > 0.95 * total


def test_caches_stay_within_their_bounds_under_threads(monkeypatch, ring3):
    rng = np.random.default_rng(97)
    pairs = [(random_proper_ideal(rng, ring3, 2, 5), random_proper_ideal(rng, ring3, 2, 3)) for _ in range(16)]

    def profiles(pair):
        return ext_profile(*pair), lc_profile(*pair)

    clear_slice_caches()
    serial = [profiles(pair) for pair in pairs]
    monkeypatch.setattr(slices._DIMS_CACHE, "maxsize", 8)
    monkeypatch.setattr(slices._PROFILE_CACHE, "maxsize", 5)
    clear_slice_caches()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(profiles, pair) for pair in pairs]
            parallel = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial
    ranks = slices._incidence_rank.cache_info()
    assert ranks.currsize <= 8 < ranks.misses
    assert len(slices._PROFILE_CACHE) <= 5
    for cached in (taylor.betti_numbers, monomials.irreducible_decomposition):
        info = cached.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


# --- the Lyubeznik complex and its face layout --------------------------------

def test_layout_faces_match_the_lyubeznik_definition():
    rng = np.random.default_rng(101)
    for n in (2, 3, 4):
        ring = RingSpec(tuple(f"x{j}" for j in range(n)))
        for _ in range(10):
            gens = random_proper_ideal(rng, ring, 3, 8).gens
            counts = []
            candidates = slices._candidate_orders(slices._generator_rows(gens, n))
            for order in [*candidates, tuple(rng.permutation(len(gens)).tolist())]:
                layout = lyubeznik_in_order(gens, n, order, slices._MAX_FACES)
                faces = layout_faces(layout.faces)
                assert {T for level in faces for T in level} == oracle_lyubeznik_faces(gens, order)
                sizes = np.diff(layout.faces.offsets).tolist()
                assert [len(level) for level in faces] == sizes[: len(faces)] and not any(sizes[len(faces) :])
                assert all(len(T) == k for k, level in enumerate(faces) for T in level)
                flat = [T for level in faces for T in level]
                lcms = [[max((gens[i][j] for i in T), default=0) for j in range(n)] for T in flat]
                assert layout.lcms.tolist() == lcms
                # down[k][i, t] is face i of level k without its t-th member in the order
                rank = {g: q for q, g in enumerate(order)}
                for k in range(1, len(faces)):
                    for T, row in zip(faces[k], layout.faces.down[k].tolist()):
                        members = sorted(T, key=rank.get)
                        assert [faces[k - 1][d] for d in row] == [T - {m} for m in members]
                counts.append(layout.faces.size)
            chosen = lyubeznik_layout(gens, n)
            fewest = min(counts[:-1])
            assert chosen.faces.size == fewest
            assert chosen.faces.order == candidates[counts.index(fewest)]
            assert {T for level in layout_faces(chosen.faces) for T in level} == oracle_lyubeznik_faces(
                gens, chosen.faces.order
            )
            assert np.array_equal(chosen.lcms, lyubeznik_in_order(gens, n, chosen.faces.order, fewest).lcms)
            full = taylor_layout(gens, n)
            assert full.faces.size == 1 << len(gens)
            assert {T for level in layout_faces(full.faces) for T in level} == set(map(frozenset, _subsets(len(gens))))


def chain(r: int) -> tuple[tuple[int, int], ...]:
    """The generators x^i * y^(r - 1 - i) of a chain."""
    return tuple((i, r - 1 - i) for i in range(r))


def test_candidate_orders_on_the_chain():
    # on x^i * y^(5 - i) generator i divides lcm(m_j, m_k) iff j <= i <= k,
    # so the divisibility order puts the middle first, then alternately the
    # next above and the next below; two generators give every order the
    # same faces, so one order is tried
    assert slices._candidate_orders(np.array(chain(6))) == [(2, 3, 1, 4, 0, 5), (2, 0, 1, 4, 3, 5)]
    assert slices._candidate_orders(np.array(chain(2))) == [(0, 1)]
    assert [slices._candidate_orders(np.zeros((r, 3), dtype=np.uint8)) for r in (0, 1)] == [[()], [(0,)]]
    # x^i * y^(24 - i): the divisibility order keeps 16 382 of its 2^25
    # Taylor faces and recursive bisection 246, which wins; on the
    # 100-generator chain bisection keeps 3 734
    orders = slices._candidate_orders(np.array(chain(25)))
    assert len(orders) == 2 and orders[0][:5] == (12, 11, 13, 10, 14)
    assert [lyubeznik_in_order(chain(25), 2, order, 1 << 16).faces.size for order in orders] == [16_382, 246]
    assert lyubeznik_layout(chain(25), 2).faces.size == 246
    assert lyubeznik_layout(chain(100), 2).faces.size == 3_734


def test_divisibility_order_is_counted_in_chunks(monkeypatch):
    # a cap of one byte counts one generator at a time and gives the order
    # of the unchunked count, on the 100-generator chain and on random ideals
    rng = np.random.default_rng(107)
    cases = [np.array(chain(100))]
    cases += [np.array(random_proper_ideal(rng, RingSpec(("x", "y", "z", "w")), 3, 12).gens) for _ in range(10)]
    expected = [slices._candidate_orders(G)[0] for G in cases]
    monkeypatch.setattr(slices, "_MAX_WORKING_BYTES", 1)
    assert [slices._candidate_orders(G)[0] for G in cases] == expected
    assert expected[0][:4] == (49, 50, 48, 51)


def bisection_order(r: int) -> list[int]:
    """Recursive bisection on r generators."""
    orders = [[]]  # the order of each prefix 0..k-1, built by splitting at the lower middle
    for k in range(1, r + 1):
        m = (k - 1) // 2
        orders.append([m, *orders[m], *(m + 1 + i for i in orders[k - m - 1])])
    return orders[r]


def test_divisibility_order_never_grows_the_complex():
    # the chosen complex has no more faces than in bisection order, and
    # fewer on some random ideals
    rng = np.random.default_rng(109)
    smaller = 0
    for n in (3, 4, 5, 6):
        ring = RingSpec(tuple(f"x{j}" for j in range(n)))
        for _ in range(12):
            gens = random_proper_ideal(rng, ring, 3, 10).gens
            order = bisection_order(len(gens))
            assert slices._candidate_orders(slices._generator_rows(gens, n))[-1] == tuple(order)
            size = lyubeznik_in_order(gens, n, order, slices._MAX_FACES).faces.size
            chosen = lyubeznik_layout(gens, n).faces.size
            assert chosen <= size
            smaller += chosen < size
    assert smaller >= 5


def test_three_generators_take_the_divisibility_order():
    # with three generators the rule "first candidate with the fewest faces"
    # keeps the divisibility order: over every minimal triple with exponents
    # <= 4 in 2 variables and <= 2 in 3 it has the fewest faces of all six
    # orders, and it is the first candidate
    checked = 0
    for n, top in ((2, 4), (3, 2)):
        monomials_ = [e for e in itertools.product(range(top + 1), repeat=n) if any(e)]
        for gens in itertools.combinations(monomials_, 3):
            if any(all(x <= y for x, y in zip(g, h)) for g, h in itertools.permutations(gens, 2)):
                continue
            G = slices._generator_rows(gens, n)
            sizes = {
                order: lyubeznik_in_order(gens, n, order, slices._MAX_FACES).faces.size
                for order in itertools.permutations(range(3))
            }
            candidates = slices._candidate_orders(G)
            fewest = min(sizes[order] for order in candidates)
            chosen = lyubeznik_layout(gens, n).faces
            assert chosen.size == min(sizes.values()) == fewest
            assert chosen.order == next(order for order in candidates if sizes[order] == fewest) == candidates[0]
            checked += 1
    assert checked > 400


def test_divisibility_order_on_the_quadrics():
    # all ten degree-2 monomials in 4 variables: 68 Lyubeznik faces in the
    # divisibility order, where bisection keeps 120
    quadrics = tuple(sorted(e for e in itertools.product(range(3), repeat=4) if sum(e) == 2))
    assert lyubeznik_layout(quadrics, 4).faces.size == 68
    G = slices._generator_rows(quadrics, 4)
    orders = slices._candidate_orders(G)
    assert [lyubeznik_in_order(quadrics, 4, order, slices._MAX_FACES).faces.size for order in orders] == [68, 120]


def test_face_sets_are_shared_by_column_rank_pattern():
    # divisibility among lcms depends only on how exponents compare within
    # each variable, so these two chains share one face set; lcms do not
    low = lyubeznik_layout(((0, 2), (1, 1), (2, 0)), 2)
    high = lyubeznik_layout(((0, 5), (3, 2), (4, 0)), 2)
    assert low.faces is high.faces
    assert low.lcms.max(axis=0).tolist() == [2, 2] and high.lcms.max(axis=0).tolist() == [4, 5]


def test_ext_dims_do_not_depend_on_the_generator_order():
    # the Lyubeznik complex in any generator order is a resolution of S/J,
    # so Hom into S/I has the Ext dimensions of the full Taylor complex in
    # every degree
    rng = np.random.default_rng(103)
    ring = RingSpec(("x", "y", "z"))
    for _ in range(10):
        J = random_proper_ideal(rng, ring, 3, 7)
        I = random_proper_ideal(rng, ring, 3, 3)
        box = DegreeBox.for_ideals(J, I)
        expected = _dense_dims("ext", J, I, box)
        # the divisibility order, bisection and a random one
        orders = slices._candidate_orders(slices._generator_rows(J.gens, 3))
        orders.append(tuple(rng.permutation(len(J.gens)).tolist()))
        for order in orders:
            layout = lyubeznik_in_order(J.gens, 3, order, slices._MAX_FACES)
            dims, maps = slices._slice_dims(layout, 1, J, I, _Product(box_axes(box)))
            assert np.array_equal(dims[:, walk_columns(maps)], expected)
        assert np.array_equal(dense_expansion(ext_table(J, I))[1], expected)


def test_rank_cache_keys_name_the_layout(ring4):
    # pairs of relative ideals with equal generator counts whose Lyubeznik
    # complexes differ: a rank cached for one must not be read for the
    # other, though level sizes and activity bits can coincide
    cases = [
        ([(0, 1, 1, 1), (1, 0, 2, 1), (1, 1, 2, 0), (2, 0, 0, 0)], [(0, 0, 0, 2), (0, 2, 0, 1), (1, 0, 0, 1), (2, 0, 1, 0)], [(2, 1, 1, 1)]),
        ([(0, 1, 0, 1), (0, 1, 1, 0), (2, 0, 1, 1), (2, 2, 0, 0)], [(0, 1, 0, 2), (0, 1, 1, 1), (1, 2, 2, 0), (2, 0, 0, 2)], [(0, 1, 1, 1), (1, 0, 2, 2)]),
        ([(0, 0, 2, 2), (0, 2, 1, 2), (1, 2, 1, 1), (2, 0, 0, 1)], [(0, 2, 1, 1), (1, 0, 2, 2), (1, 1, 0, 2), (2, 1, 1, 0)], [(0, 1, 0, 2), (0, 1, 2, 1)]),
    ]
    for first, second, module in cases:
        J1, J2, I = (monomials.minimal_generators(ring4, gens) for gens in (first, second, module))
        assert len(J1.gens) == len(J2.gens)
        assert lyubeznik_layout(J1.gens, 4).faces.digest != lyubeznik_layout(J2.gens, 4).faces.digest
        expected = {}
        for J in (J1, J2):
            clear_slice_caches()
            taylor.betti_numbers.cache_clear()
            expected[J] = (ext_table(J, I)._class_dims, taylor.betti_numbers(J))
        for sequence in ((J1, J2, J1, J2), (J2, J1, J2, J1)):
            clear_slice_caches()
            taylor.betti_numbers.cache_clear()
            for J in sequence:
                dims, betti = expected[J]
                assert np.array_equal(ext_table(J, I)._class_dims, dims)
                assert taylor.betti_numbers(J) == betti


def _assert_same_partition(first, inverse, oracle):
    """``_row_groups``' representatives and groups make the oracle's
    partition: one representative per group, each row's in its group."""
    oracle = np.asarray(oracle, dtype=np.intp)
    assert first.size == np.unique(oracle).size and inverse.max(initial=-1) < first.size
    assert np.array_equal(oracle[first[inverse]], oracle)


@pytest.mark.parametrize("width", range(1, 17))
def test_row_groups_partition_matches_the_oracle(width):
    # rows of 1-16 bytes, as bytes, as bools, (even widths) as int16 with
    # negative entries and as a strided view; few distinct values, so groups
    # repeat, and bytes 0 and 255, so a key that dropped or mixed up a byte
    # would show.  Rows of 1, 2, 4 or 8 bytes are keyed by one unsigned
    # integer viewed in place, rows of every other width by their bytes as
    # one void value
    rng = np.random.default_rng(500 + width)
    cases = [rng.integers(0, 3, size=(count, width)).astype(np.uint8) for count in (0, 1, 600)]
    cases.append(rng.choice([0, 255], size=(300, width)).astype(np.uint8))
    cases.append(rng.integers(0, 2, size=(300, width)).astype(bool))
    cases.append(rng.choice([0, 255], size=(2 * width, 300)).astype(np.uint8)[::2].T)
    if width % 2 == 0:
        cases.append(rng.integers(-2, 2, size=(400, width // 2)).astype(np.int16))
    for rows in cases:
        keys = slices._row_keys(rows)
        assert keys.shape == (rows.shape[0],)
        assert keys.dtype.kind == ("u" if width in (1, 2, 4, 8) else "V") and keys.dtype.itemsize == width
        first, inverse = slices._row_groups(rows)
        assert inverse.shape == (rows.shape[0],)
        _assert_same_partition(first, inverse, oracle_row_groups(rows))


def test_rows_of_no_bytes_share_one_key():
    # a ring without variables has lcm rows of no bytes: one key each, all
    # equal, so its complexes still have one activity row
    assert slices._row_keys(np.zeros((3, 0), dtype=np.int16)).tolist() == [0, 0, 0]
    ring = RingSpec(())
    assert ext_profile(zero_ideal(ring), zero_ideal(ring)) == lc_profile(zero_ideal(ring), zero_ideal(ring)) == {0}


@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 16, 17, 24, 25, 33, 64, 65, 130])
def test_packed_columns_are_padded_integer_keys(count):
    # each column's bits, the first row in the lowest bit, as a C-ordered
    # row of 1, 2, 4 or 8 bytes up to 64 rows, the unused bytes zero, so
    # ``_row_groups`` views it as an integer without a copy; wider columns
    # keep their exact byte count
    rng = np.random.default_rng(520 + count)
    active = rng.integers(0, 2, size=(count, 90)).astype(bool)
    packed = slices._packed_columns(active)
    used = -(-count // 8)
    assert packed.flags.c_contiguous and packed.shape[0] == 90
    assert packed.shape[1] == (used if used > 8 else min(w for w in (1, 2, 4, 8) if w >= used))
    expected = np.packbits(active, axis=0, bitorder="little").T
    assert np.array_equal(packed[:, :used], expected.reshape(90, used)) and not packed[:, used:].any()
    first, inverse = slices._row_groups(packed)
    _assert_same_partition(first, inverse, oracle_row_groups(active.T))
