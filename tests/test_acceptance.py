"""Acceptance criteria.

Every criterion is exact-integer (all computation here is exact); each test
prints one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import subprocess
import sys

import pytest

from relhom.invariants import PairAnalysis, a_id, cd, grade, grade_by_localization
from relhom.monomials import RingSpec, associated_primes, parse_ideal, sum_ideals, zero_ideal
from relhom.properties import (
    full_report,
    is_relative_cm,
    is_relative_gorenstein,
    is_relative_regular_ring,
)
from relhom.slices import ext_profile, lc_table
from relhom.taylor import depth_quotient, pd_quotient
from relhom.verifier import (
    CorpusParams,
    corpus_digest,
    reproduce_example,
    run_all_suites,
)

C4 = "x1*x2, x2*y1, y1*y2, y2*x1"


def _criterion(number, description, ok, detail=""):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description} {detail}"


@pytest.fixture(scope="module")
def ring4():
    return RingSpec(("x1", "x2", "y1", "y2"))


@pytest.fixture(scope="module")
def corpus_run():
    return run_all_suites(CorpusParams())


def test_criterion_1_edge_quotient_replay(ring4):
    a = parse_ideal(ring4, "y1, y2")
    edge = parse_ideal(ring4, C4)
    report = full_report(a, edge)
    values_ok = (
        report.invariants.grade == 1
        and report.invariants.cd == 1
        and cd(a, zero_ideal(ring4)) == 2
        and report.rel_cm is True
        and report.rel_max_cm is False
        and report.rel_gorenstein is False
    )
    replay = reproduce_example("2.20")
    _criterion(
        1,
        "edge-quotient pair: grade 1, cd 1, ring cd 2, CM but neither maximal CM nor Gorenstein",
        values_ok and replay.passed,
        str(replay.violations),
    )


def test_criterion_2_edge_ideal_on_ring_replay(ring4):
    a = parse_ideal(ring4, C4)
    S = zero_ideal(ring4)
    maximal = parse_ideal(ring4, "x1, x2, y1, y2")
    table = lc_table(maximal, a)
    values_ok = (
        pd_quotient(a) == 3
        and depth_quotient(a) == 1
        and (ring4.n - pd_quotient(a)) == 1
        and cd(a, S) == 3
        and grade(a, S) == 2
        and a_id(a, S) == 3
        and is_relative_cm(a, S) is False
        and is_relative_regular_ring(a) is False
        and table.total(1) == 1
        and table.hilbert(1) == {(0, 0, 0, 0): 1}
    )
    replays = [reproduce_example("3.6"), reproduce_example("4.5e")]
    _criterion(
        2,
        "edge ideal on the ring: pd 3, depth 1, dim 2, cd 3, grade 2, a-id 3, "
        "first local cohomology one-dimensional at degree zero",
        values_ok and all(r.passed for r in replays),
        str([r.violations for r in replays]),
    )


def test_criterion_3_mixed_ideal_replay():
    ring = RingSpec(("x", "y"))
    a = parse_ideal(ring, "x*y, x^2")
    S = zero_ideal(ring)
    primes = sorted(tuple(P.vars) for P in associated_primes(a))
    g = grade(a, S)
    ai = a_id(a, S)
    values_ok = (
        primes == [(0,), (0, 1)]
        and g == 1
        and cd(a, S) == 1
        and ai == 2
        and is_relative_cm(a, S) is True
        and ai != g
    )
    replay = reproduce_example("3.12")
    _criterion(
        3,
        "mixed ideal on two variables: associated primes, grade = cd = 1, a-id 2, CM, a-id != grade",
        values_ok and replay.passed,
        str(replay.violations),
    )


def test_criterion_4_power_ideal_and_pure_power_replay():
    ring2 = RingSpec(("x", "y"))
    a21 = parse_ideal(ring2, "x^2, y^3, x*y")
    gor_ok = ext_profile(a21, zero_ideal(ring2)) == frozenset({2}) and is_relative_gorenstein(
        a21, zero_ideal(ring2)
    )
    ring4 = RingSpec(("x1", "x2", "x3", "x4"))
    a22 = parse_ideal(ring4, "x1^2, x2^3")
    S4 = zero_ideal(ring4)
    reg_ok = (
        is_relative_regular_ring(a22)
        and pd_quotient(sum_ideals(S4, a22)) == 0 + cd(a22, S4) == 2
    )
    replays = [reproduce_example("2.21"), reproduce_example("2.22")]
    _criterion(
        4,
        "power ideal concentrated in index 2 and Gorenstein; coprime pure powers relative regular "
        "with additive projective dimension",
        gor_ok and reg_ok and all(r.passed for r in replays),
        str([r.violations for r in replays]),
    )


def test_criterion_5_cross_engine_equivalence(corpus_run):
    suite = corpus_run.suites["cross_engine"]
    explicit_ok = True
    for x in corpus_run.analyses:
        if not x.ok:
            explicit_ok = False
            break
        if not (
            min(x.ext0) == min(x.lc0) == grade_by_localization(x.a, x.i)  # (a)
            and max(x.lc0) == PairAnalysis(x.a, x.i).support_cd_with()      # (b)
            and x.pair.a_id == pd_quotient(x.a)                            # (c)
            and x.ext0 == x.pair.ext_profile and x.lc0 == x.pair.lc_profile  # (d)
        ):
            explicit_ok = False
            break
    _criterion(
        5,
        "200 seeded instances: grade by three engines, cd by two, a-id = pd, box padding invariance",
        suite.instances == 200 and suite.violations == [] and explicit_ok,
        str(suite.violations[:3]),
    )


def test_criterion_6_theorem_suites(corpus_run):
    required = (
        "thm_2_19_chain",
        "prop_2_11f",
        "lemma_2_3",
        "lemma_2_6a",
        "lemma_2_7b",
        "prop_2_9d",
        "thm_4_4d",
        "prop_4_6f",
        "lemma_3_9c",
        "lemma_2_2_iii",
    )
    failures = {
        name: corpus_run.suites[name].violations
        for name in required
        if corpus_run.suites[name].violations
    }
    nonvac = corpus_run.suites["prop_2_9d"].non_vacuous
    print(f"  prop_2_9d non-vacuous instances: {nonvac}")
    _criterion(
        6,
        "all theorem suites report zero violations; vanishing-bound suite has >= 10 non-vacuous instances",
        not failures and nonvac is not None and nonvac >= 10,
        str(failures),
    )


def test_criterion_7_fault_injection_self_test():
    run = run_all_suites(CorpusParams(count=10), fault_injection=True)
    total = sum(len(r.violations) for r in run.suites.values())
    _criterion(
        7,
        "with fault injection enabled at least one suite reports a violation",
        total >= 1 and not run.passed,
    )


def test_criterion_8_byte_determinism(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        out_file = tmp_path / f"{tag}.jsonl"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "relhom",
                "corpus",
                "--count",
                "24",
                "--seed",
                "42",
                "--out",
                str(out_file),
            ],
            capture_output=True,
            check=True,
        )
        outputs.append(
            (
                proc.stdout,
                out_file.read_bytes(),
                (tmp_path / f"{tag}.jsonl.counterexamples").read_bytes(),
            )
        )
    digests_ok = corpus_digest(CorpusParams()) == corpus_digest(CorpusParams())
    _criterion(
        8,
        "two fresh processes with identical seed and flags emit byte-identical reports and digests",
        outputs[0] == outputs[1] and digests_ok,
    )
