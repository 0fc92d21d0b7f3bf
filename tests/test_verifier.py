"""Corpus generation, theorem suites, replays, JSONL serialization."""

import dataclasses
import itertools
import json
import math
import sys

import jsonschema
import numpy as np
import pytest

import relhom.verifier as verifier
from relhom import invariants
from relhom.monomials import format_ideal
from relhom.schemas import COUNTEREXAMPLE_SCHEMA, JSONL_LINE_SCHEMA
from relhom.verifier import (
    EXAMPLE_IDS,
    SUITE_NAMES,
    CorpusParams,
    build_analyses,
    corpus_digest,
    corpus_instances,
    random_ideal,
    reproduce_example,
    run_all_suites,
    run_suite,
)

SMALL = CorpusParams(count=12)


@pytest.fixture(scope="module")
def small_run():
    return run_all_suites(SMALL)


class TestRandomIdeal:
    def test_deterministic(self):
        assert random_ideal(SMALL, 5) == random_ideal(SMALL, 5)
        assert random_ideal(SMALL, 5) != random_ideal(SMALL, 6)

    def test_squarefree(self):
        params = CorpusParams(squarefree=True, count=4)
        for index in range(10):
            ideal = random_ideal(params, index)
            assert all(e <= 1 for g in ideal.gens for e in g)

    def test_single_generator_always_proper(self):
        params = CorpusParams(gen_count_range=(1, 1), max_exponent=1)
        for index in range(10):
            ideal = random_ideal(params, index)
            assert ideal.mu == 1 and ideal.is_proper and not ideal.is_zero

    def test_proper_and_minimal(self):
        from relhom.monomials import minimal_generators

        for index in range(20):
            ideal = random_ideal(SMALL, index)
            assert ideal.is_proper and not ideal.is_zero
            assert minimal_generators(ideal.ring, ideal.gens) == ideal


class TestDigest:
    def test_stable_within_process(self):
        assert corpus_digest(SMALL) == corpus_digest(SMALL)

    def test_depends_on_seed(self):
        assert corpus_digest(SMALL) != corpus_digest(CorpusParams(count=12, seed=43))

    def test_run_digests_the_pairs_it_drew(self, monkeypatch):
        # a run draws the two ideals of each pair once (streams 3k and
        # 3k + 1; 3k + 2 is a suite's auxiliary ideal) and digests the pairs
        # its analyses hold, which gives the digest of the parameters
        drawn = []
        monkeypatch.setattr(verifier, "random_ideal", lambda *args: drawn.append(args[1]) or random_ideal(*args))
        run = run_all_suites(SMALL)
        assert sorted(index for index in drawn if index % 3 != 2) == [k for k in range(3 * SMALL.count) if k % 3 != 2]
        assert run.digest == corpus_digest(SMALL)

    def test_frozen_default_digest(self):
        # pins the generation scheme; update deliberately if the scheme changes
        assert (
            corpus_digest(CorpusParams())
            == "2001c5003fe850495387d408467524a5675d9493d1f7dd50b41b207166027f08"
        )


class TestSuites:
    def test_all_pass_on_small_corpus(self, small_run):
        assert small_run.passed
        for name in SUITE_NAMES:
            assert small_run.suites[name].violations == []

    def test_fault_injection_reports_violations(self):
        run = run_all_suites(CorpusParams(count=4), fault_injection=True)
        assert not run.passed
        total = sum(len(r.violations) for r in run.suites.values())
        assert total >= 1
        bad = run.suites["cross_engine"].violations[0]
        assert "a" in bad and "i" in bad and "index" in bad  # input echo

    def test_mode_strings_declared(self, small_run):
        for result in small_run.suites.values():
            assert result.mode

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("no_such_suite", build_analyses(CorpusParams(count=1)))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            run_suite("cross_engine", [])

    def test_violations_sorted_by_index(self):
        run = run_all_suites(CorpusParams(count=5), fault_injection=True)
        indices = [v["index"] for v in run.suites["cross_engine"].violations]
        assert indices == sorted(indices)


    def test_suites_read_the_pair_analysis(self, monkeypatch):
        # the engine values of an instance pair live on its analysis: with
        # every binding of these engines refusing to run, the suites that
        # read them still give the same results
        names = ("cross_engine", "thm_4_4d", "lemma_3_9c", "prop_4_6f")
        expected = {name: run_suite(name, build_analyses(SMALL), SMALL) for name in names}
        assert all(result.instances for result in expected.values())
        analyses = build_analyses(SMALL)
        engines = [getattr(invariants, name) for name in ("grade_by_localization", "is_monomial_regular_sequence")]

        def refuse(*args, **kwargs):
            raise AssertionError("an engine ran again on an analysed pair")

        monkeypatch.setattr(invariants.PairAnalysis, "support_cd_with", refuse)

        modules = [m for name, m in sys.modules.items() if name == "relhom" or name.startswith("relhom.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if any(value is engine for engine in engines):
                    monkeypatch.setattr(module, attr, refuse)
        for name in names:
            got = run_suite(name, analyses, SMALL)
            assert (got.instances, got.violations, got.non_vacuous) == (
                expected[name].instances, expected[name].violations, expected[name].non_vacuous
            )

    def test_params_set_char_and_degree_bound(self):
        run = run_all_suites(CorpusParams(count=3, char=2, degree_bound=2))
        assert run.passed
        for x, line in zip(run.analyses, run.jsonl_lines):
            assert '"char":2' in line and x.pair.degree_bound == 2
            assert json.loads(line)["report"]["witnesses"]["sop"]["degree_bound"] == 2


class TestJsonl:
    def test_lines_validate(self, small_run):
        assert len(small_run.jsonl_lines) == SMALL.count
        for line in small_run.jsonl_lines:
            jsonschema.validate(json.loads(line), JSONL_LINE_SCHEMA)

    def test_lines_echo_canonical_ideals(self, small_run):
        pairs = corpus_instances(SMALL)
        for line, (a, i) in zip(small_run.jsonl_lines, pairs):
            payload = json.loads(line)
            assert payload["a"] == [list(g) for g in a.gens]
            assert payload["i"] == [list(g) for g in i.gens]
            assert payload["suites"].keys() == set(SUITE_NAMES)

    def test_counterexample_lines_validate(self):
        run = run_all_suites(CorpusParams(count=3), fault_injection=True)
        assert run.counterexample_lines
        for line in run.counterexample_lines:
            jsonschema.validate(json.loads(line), COUNTEREXAMPLE_SCHEMA)

    def test_byte_determinism_in_process(self):
        a = run_all_suites(CorpusParams(count=6))
        b = run_all_suites(CorpusParams(count=6))
        assert a.jsonl_lines == b.jsonl_lines
        assert a.digest == b.digest


class TestExamples:
    @pytest.mark.parametrize("example_id", EXAMPLE_IDS)
    def test_replay_passes(self, example_id):
        result = reproduce_example(example_id)
        assert result.passed, result.violations

    def test_unknown_example(self):
        with pytest.raises(ValueError):
            reproduce_example("9.99")


def test_instances_echo_format():
    analyses = build_analyses(CorpusParams(count=2))
    echo = analyses[0].echo()
    assert set(echo) == {"index", "a", "i"}
    assert echo["a"] == format_ideal(analyses[0].a)


def test_cross_engine_consults_the_dense_scan(monkeypatch):
    # the unpadded profiles come from the dense engine; corrupting it must
    # surface in cross_engine, or the suite would compare the class engine
    # with itself
    dense_profiles = verifier._dense_profiles
    monkeypatch.setattr(
        verifier,
        "_dense_profiles",
        lambda *args: tuple(frozenset(i + 1 for i in profile) for profile in dense_profiles(*args)),
    )
    params = CorpusParams(count=5)
    result = run_suite("cross_engine", build_analyses(params), params)
    assert {v["index"] for v in result.violations} == set(range(5))


def test_prop_4_6f_names_the_first_mismatching_degree(monkeypatch):
    # one middle class of level c changed in every Ext table the suite reads:
    # each violation names the lexicographically first box degree whose
    # dimension differs from the shifted Hilbert indicator, with both values
    ext_table = verifier.ext_table
    changed = []

    def corrupted(J, I, pad=0):
        table = ext_table(J, I, pad)
        (c,) = table.profile()
        dims = table._class_dims.copy()
        dims[c, dims.shape[1] // 2] += 1
        # every class its own pattern: identity maps
        shape = [len(starts) for starts in table._starts]
        maps = tuple(np.arange(math.prod(shape[j:])).reshape(shape[j], -1) for j in range(len(shape)))
        bad = dataclasses.replace(table, _walk=lambda: (dims, maps))
        changed.append((c, table, bad))
        return changed[-1][2]

    monkeypatch.setattr(verifier, "ext_table", corrupted)
    result = run_suite("prop_4_6f", build_analyses(SMALL), SMALL)
    assert result.instances == len(changed) == len(result.violations) > 0
    for (c, table, bad), violation in zip(changed, result.violations):
        box = [range(-r, r + 1) for r in table.box.rho]
        b = next(b for b in itertools.product(*box) if table.dim_at(c, b) != bad.dim_at(c, b))
        assert violation["expected"] == {"degree": b, "dim": table.dim_at(c, b)}
        assert violation["actual"] == {"dim": bad.dim_at(c, b)}
        assert violation["note"] == "shifted Hilbert mismatch"


def _flipped_on_one_pair(monkeypatch, name, change):
    """Replace the PairAnalysis property ``name`` by one that returns ``change``
    of its value on the first corpus pair of SMALL with a nonzero module,
    and the value itself elsewhere; returns that pair's index."""
    index, (a, I) = next((k, pair) for k, pair in enumerate(corpus_instances(SMALL)) if pair[1].is_proper)
    original = getattr(invariants.PairAnalysis, name).func

    def flipped(self):
        value = original(self)
        return change(value) if (self.a, self.I) == (a, I) else value

    monkeypatch.setattr(invariants.PairAnalysis, name, property(flipped))
    return index


@pytest.mark.parametrize(
    ("suite", "name", "change", "fields"),
    [
        ("prop_2_11f", "ass_prime_criterion", lambda v: not v, ("cm", "ass_prime_criterion")),
        ("lemma_3_7a", "pd_a", lambda v: v + 1, ("pd_of_relative_quotient", "a_id")),
    ],
    ids=["prop_2_11f", "lemma_3_7a"],
)
def test_suite_counts_the_disagreement_its_identity_raised(monkeypatch, suite, name, change, fields):
    # the pair's analysis ends in an engine disagreement on the very identity
    # the suite checks; the suite reports it as its violation, with the two
    # sides the disagreement carried, and cross_engine as a disagreement
    index = _flipped_on_one_pair(monkeypatch, name, change)
    analyses = build_analyses(SMALL)
    assert [x.index for x in analyses if not x.ok] == [index]
    result = run_suite(suite, analyses, SMALL)
    assert result.instances == sum(x.ok for x in analyses) + 1
    (violation,) = result.violations
    assert violation["index"] == index
    (expected,), (actual,) = violation["expected"].values(), violation["actual"].values()
    assert tuple(violation["expected"]) + tuple(violation["actual"]) == fields
    assert expected != actual
    assert [v["index"] for v in run_suite("cross_engine", analyses, SMALL).violations] == [index]
