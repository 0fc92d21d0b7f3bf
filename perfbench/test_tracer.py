"""Self-test of the benchmark's tracer and workload generators.

Run from the repository root:  python3 -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import relhom  # noqa: E402
import relhom.cli as cli  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import MODULES, PER_LAYER_UNITS, Tracer, _is_traced_function, _outermost, distinct_columns  # noqa: E402

README_PAIR = ["analyze", "--ring", "x1,x2,y1,y2", "--a", "y1,y2", "--i", "x1*x2,x2*y1,y1*y2,y2*x1", "--json"]
SMALL_CORPUS = ["corpus", "--seed", "42", "--count", "12"]

# bindings each workload path must go through; a wrapper missing at one of
# them would let those calls bypass their span
EXPECTED_HITS = {
    "corpus": [
        "relhom.cli.main",
        "relhom.cli._cmd_corpus",
        "relhom.cli.run_all_suites",
        "relhom.verifier.build_analyses",
        "relhom.verifier.analyze_instance",
        "relhom.verifier.ext_profile",
        "relhom.verifier.lc_profile",
        "relhom.verifier.pd_quotient",
        "relhom.verifier.full_report",
        "relhom.invariants.ext_profile",
        "relhom.invariants.pd_quotient",
        "relhom.properties.ext_profile",
        "relhom.properties.grade",
        "relhom.taylor.pd_quotient",
        "relhom.taylor.rank_mod_p",
        "relhom.slices.rank_mod_p",
        "relhom.slices._incidence_rank",
        "relhom.slices.masks_by_size",
        "relhom.monomials.irreducible_decomposition",
    ]
    + [f"relhom.verifier._SUITES[{name!r}]" for name in ("thm_2_19_chain", "prop_2_9d", "cross_engine")],
    "analyze": [
        "relhom.cli.main",
        "relhom.cli._cmd_analyze",
        "relhom.cli.full_report",
        "relhom.properties.invariant_record",
        "relhom.properties.ext_profile",
        "relhom.invariants.ext_profile",
        "relhom.invariants.lc_profile",
        "relhom.invariants.pd_quotient",
        "relhom.taylor.rank_mod_p",
        "relhom.slices.rank_mod_p",
        "relhom.properties.PropertyReport.to_json",
        "relhom.invariants.InvariantRecord.to_json",
    ],
}


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def clear_caches():
    relhom.slices.clear_slice_caches()
    relhom.taylor.betti_numbers.cache_clear()
    relhom.monomials.irreducible_decomposition.cache_clear()


def traced_cli(argv):
    clear_caches()
    tracer = Tracer().install()
    try:
        result = run_cli(argv)
    finally:
        tracer.uninstall()
    return result, tracer


def corpus_bytes(tmp_path, name):
    out = str(tmp_path / name)
    code, stdout = run_cli([*SMALL_CORPUS, "--out", out])
    with open(out) as fh, open(out + ".counterexamples") as cx:
        return code, stdout + fh.read() + cx.read()


def traced_bindings():
    spaces = [vars(relhom)] + [vars(sys.modules[f"relhom.{m}"]) for m in MODULES]
    found = {}
    for space in spaces:
        for name, obj in space.items():
            if _is_traced_function(obj):
                found[(id(space), name)] = obj
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    if _is_traced_function(value):
                        found[(id(obj), key)] = value
    return found


def test_install_wraps_every_binding_and_uninstall_restores_it():
    before = traced_bindings()
    tracer = Tracer().install()
    try:
        wrapped = traced_bindings()
        assert wrapped.keys() == before.keys()
        assert all(wrapped[k] is not before[k] and wrapped[k].__wrapped__ is before[k] for k in before)
        assert len(tracer.binding_labels) == len(before) + 3  # plus the three to_json methods
    finally:
        tracer.uninstall()
    assert traced_bindings() == before


def test_traced_output_bytes_equal_untraced(tmp_path):
    assert run_cli(README_PAIR) == traced_cli(README_PAIR)[0]
    plain = corpus_bytes(tmp_path, "plain.jsonl")
    tracer = Tracer().install()
    try:
        traced = corpus_bytes(tmp_path, "traced.jsonl")
    finally:
        tracer.uninstall()
    assert plain == traced and plain[0] == 0


def test_hand_count_on_readme_edge_pair():
    # full_report calls grade in invariant_record, is_relative_regular_ring,
    # is_relative_cm, is_relative_max_cm, the max_cm check inside
    # is_relative_gorenstein and twice in is_relative_regular_module (7);
    # cd in invariant_record, is_relative_cm, is_relative_max_cm,
    # is_relative_gorenstein twice (directly and through max_cm) and in both
    # sop_witness_by_support calls (7)
    (code, _), tracer = traced_cli(README_PAIR)
    assert code == 0
    assert tracer.calls("properties.full_report") == 1
    assert tracer.calls("invariants.grade") == 7
    assert tracer.calls("invariants.cd") == 7
    assert tracer.calls("invariants.sop_witness_by_support") == 2


@pytest.mark.parametrize("workload", sorted(EXPECTED_HITS))
def test_every_expected_binding_is_hit(workload):
    argv = SMALL_CORPUS if workload == "corpus" else README_PAIR
    _, tracer = traced_cli(argv)
    hits = tracer.binding_hits()
    missing = [label for label in EXPECTED_HITS[workload] if hits.get(label, 0) == 0]
    assert not missing


def test_metrics_cover_every_per_layer_name():
    (code, _), tracer = traced_cli(SMALL_CORPUS)
    assert code == 0
    metrics = tracer.metrics(scope_s=60.0)
    assert set(metrics) == set(PER_LAYER_UNITS) - {"trace.overhead_s"}
    assert metrics["invariants.grade.calls"] >= 7 * 12
    assert 0 < metrics["slices.dedup.patterns"] <= metrics["slices.grid.degrees"]
    assert metrics["slices.rank.calls"] >= metrics["slices.rank.misses"] > 0
    assert metrics["verifier.pair.p50_s"] <= metrics["verifier.pair.p95_s"]
    for name in ("share.activity_dedup", "share.rank", "share.top_layer"):
        assert 0 < metrics[name] < 1


def test_outermost_skips_spans_nested_in_the_group():
    parent = np.array([-1, 0, 1, 0, -1, 4])
    member = np.array([True, False, True, True, False, True])
    assert _outermost(member, parent).tolist() == [True, False, False, False, False, True]


def test_distinct_columns_matches_unique_rows():
    rng = np.random.default_rng(0)
    for subsets in (4, 32, 64, 128, 1024):
        active = rng.random((subsets, 300)) < 0.5
        active[:, 150:] = active[:, :150]
        expected = np.unique(active.T, axis=0).shape[0]
        assert distinct_columns(active) == expected


def test_workload_shapes_hold_for_many_seeds():
    for seed in range(25):
        (box,) = wl.big_box_pairs(seed)
        names = wl.BIG_BOX_RING.split(",")
        a, i = (wl.parse_ideal(names, box["argv"][k]) for k in (4, 6))
        assert wl.box_degrees(a, i) == 1_756_755
        for pair in wl.wide_pairs(seed):
            a = wl.parse_ideal(wl.WIDE_RING.split(","), pair["argv"][4])
            assert wl.minimal_count(a) >= wl.WIDE_MIN_GENERATORS
            assert len({sum(e) for e in a}) == 1
    assert wl.corpus_prime(wl.DEFAULT_SEED) == 32003
    assert {wl.corpus_prime(seed) for seed in range(200)} == set(wl.CORPUS_PRIMES)


def test_invariant_view_ignores_relabelling():
    names = ["x1", "x2", "y1", "y2"]
    a, i = (wl.parse_ideal(names, README_PAIR[k]) for k in (4, 6))
    perm = [2, 0, 3, 1]
    moved = [*README_PAIR[:4], wl.format_ideal(names, wl.relabel(a, perm)),
             "--i", wl.format_ideal(names, wl.relabel(i, perm)), "--json"]
    _, original = run_cli(README_PAIR)
    _, relabelled = run_cli(moved)
    assert original != relabelled
    assert wl.invariant_view(relabelled, perm) == wl.invariant_view(original, list(range(4)))
