"""Relative property verdicts and the implication chain."""

from collections import Counter

import numpy as np
import pytest

from relhom import invariants, verifier
from relhom.monomials import RingMismatchError, RingSpec, parse_ideal, unit_ideal, zero_ideal
from relhom.properties import (
    full_report,
    is_relative_cm,
    is_relative_gorenstein,
    is_relative_max_cm,
    is_relative_regular_module,
    is_relative_regular_ring,
)

from conftest import random_proper_ideal

C4 = "x1*x2, x2*y1, y1*y2, y2*x1"


class TestRelativeCm:
    def test_edge_quotient_is_cm(self, ring4):
        assert is_relative_cm(parse_ideal(ring4, "y1, y2"), parse_ideal(ring4, C4))

    def test_ring_is_not_cm_for_edge_ideal(self, ring4):
        assert not is_relative_cm(parse_ideal(ring4, C4), zero_ideal(ring4))

    def test_principal_is_cm(self, ring2):
        assert is_relative_cm(parse_ideal(ring2, "x"), zero_ideal(ring2))

    def test_degenerate_module_is_cm(self, ring2):
        assert is_relative_cm(parse_ideal(ring2, "x"), unit_ideal(ring2))

    def test_mixed_ideal_on_ring(self, ring2):
        assert is_relative_cm(parse_ideal(ring2, "x*y, x^2"), zero_ideal(ring2))


class TestRelativeMaxCm:
    def test_edge_quotient_not_maximal(self, ring4):
        assert not is_relative_max_cm(parse_ideal(ring4, "y1, y2"), parse_ideal(ring4, C4))

    def test_regular_sequence_on_ring(self):
        ring = RingSpec(("x1", "x2", "x3", "x4"))
        assert is_relative_max_cm(parse_ideal(ring, "x1^2, x2^3"), zero_ideal(ring))

    def test_hypersurface_drop(self, ring2):
        # grade on the quotient is 1 but cd on the ring is 2
        assert not is_relative_max_cm(parse_ideal(ring2, "x, y"), parse_ideal(ring2, "x"))

    def test_degenerate_rejected(self, ring2):
        with pytest.raises(ValueError):
            is_relative_max_cm(parse_ideal(ring2, "x"), unit_ideal(ring2))


class TestRelativeGorenstein:
    def test_power_ideal_on_ring(self, ring2):
        assert is_relative_gorenstein(parse_ideal(ring2, "x^2, y^3, x*y"), zero_ideal(ring2))

    def test_edge_quotient_not_gorenstein(self, ring4):
        assert not is_relative_gorenstein(parse_ideal(ring4, "y1, y2"), parse_ideal(ring4, C4))

    def test_annihilated_module_not_gorenstein(self, ring2):
        assert not is_relative_gorenstein(parse_ideal(ring2, "x"), parse_ideal(ring2, "x"))


class TestRelativeRegular:
    def test_coprime_pure_powers(self):
        ring = RingSpec(("x1", "x2", "x3", "x4"))
        assert is_relative_regular_ring(parse_ideal(ring, "x1^2, x2^3"))

    def test_edge_ideal_not_regular(self, ring4):
        assert not is_relative_regular_ring(parse_ideal(ring4, C4))

    def test_zero_ideal_regular(self, ring2):
        assert is_relative_regular_ring(zero_ideal(ring2))

    def test_module_variant_degenerate(self, ring2):
        assert is_relative_regular_module(parse_ideal(ring2, "x"), unit_ideal(ring2))

    def test_module_variant_drop(self, ring2):
        # x, y is regular on S but only of grade 1 on S/x
        assert not is_relative_regular_module(parse_ideal(ring2, "x, y"), parse_ideal(ring2, "x"))


class TestFullReport:
    def test_edge_fixture(self, ring4):
        report = full_report(parse_ideal(ring4, "y1, y2"), parse_ideal(ring4, C4))
        assert (report.rel_cm, report.rel_max_cm, report.rel_gorenstein) == (True, False, False)
        assert report.rel_regular_module is False
        assert report.chain_consistent

    def test_power_ideal_fixture(self, ring2):
        report = full_report(parse_ideal(ring2, "x^2, y^3, x*y"), zero_ideal(ring2))
        assert (report.rel_cm, report.rel_max_cm, report.rel_gorenstein) == (True, True, True)
        assert report.rel_regular_module is False  # three generators, grade two
        assert report.chain_consistent

    def test_all_four_hold(self):
        ring = RingSpec(("x1", "x2", "x3", "x4"))
        report = full_report(parse_ideal(ring, "x1^2, x2^3"), zero_ideal(ring))
        assert report.rel_cm and report.rel_max_cm and report.rel_gorenstein
        assert report.rel_regular_ring and report.rel_regular_module
        assert report.witnesses.regular_sequence == parse_ideal(ring, "x1^2, x2^3").gens
        assert report.witnesses.sop is not None and report.witnesses.sop.found

    def test_degenerate_report(self, ring2):
        report = full_report(parse_ideal(ring2, "x"), unit_ideal(ring2))
        assert report.rel_cm is True
        assert report.rel_max_cm is None and report.rel_gorenstein is None
        assert report.rel_regular_module is True
        assert report.chain_consistent

    def test_json_shape(self, ring4):
        report = full_report(parse_ideal(ring4, "y1, y2"), parse_ideal(ring4, C4))
        payload = report.to_json(ring4)
        assert set(payload) == {
            "rel_cm",
            "rel_max_cm",
            "rel_gorenstein",
            "rel_regular_ring",
            "rel_regular_module",
            "chain_consistent",
            "witnesses",
            "invariants",
            "char",
            "box",
        }
        assert payload["char"] == 32003
        assert payload["box"] == [2, 2, 2, 2]

    def test_chain_on_random_instances(self, ring4):
        rng = np.random.default_rng(67)
        for _ in range(15):
            a = random_proper_ideal(rng, ring4, 3, 5)
            I = random_proper_ideal(rng, ring4, 3, 5)
            report = full_report(a, I)
            assert report.chain_consistent
            if report.rel_gorenstein:
                assert report.rel_max_cm and report.rel_cm
            if report.rel_regular_module:
                assert report.rel_gorenstein

    def test_regular_ring_lifts_maximal_cm_to_regular_module(self, ring4):
        # over a relative-regular ring, maximal CM modules are relative regular
        rng = np.random.default_rng(71)
        hits = 0
        for _ in range(40):
            a = random_proper_ideal(rng, ring4, 2, 3)
            I = random_proper_ideal(rng, ring4, 2, 3)
            if not is_relative_regular_ring(a):
                continue
            if is_relative_max_cm(a, I):
                hits += 1
                assert is_relative_regular_module(a, I)
        assert hits >= 3  # the check must not be vacuous


def test_full_report_checks_the_pair_before_the_box(ring2):
    # the analysis validates the pair; only then is the box built
    with pytest.raises(RingMismatchError):
        full_report(parse_ideal(ring2, "x"), parse_ideal(RingSpec(("x", "z")), "x"), pad=20000)
    with pytest.raises(ValueError, match="too large"):
        full_report(parse_ideal(ring2, "x"), parse_ideal(ring2, "y"), pad=20000)


def test_full_report_computes_each_cross_check_once(monkeypatch, ring4):
    # (a, S/I) and the nested (a, S) are each validated once and each run
    # grade and cd once; the parameter-system search reuses the checked cd
    # and asks the support-cd rule only for its nonempty prefixes, so the
    # asks with no extra monomials are the two cd cross-checks.
    # A corpus instance computes no more than the report it carries, and the
    # associated-prime criterion is evaluated once per pair: the suites that
    # read it, or the associated primes, evaluate nothing again.
    calls = Counter()
    for module, name in (
        (invariants, "_check_pair"),
        (invariants, "grade_by_localization"),
        (invariants.PairAnalysis, "support_cd_with"),
        (invariants, "_sop_search"),
        (invariants, "is_monomial_regular_sequence"),
        (invariants, "associated_primes"),
        (invariants.PairAnalysis, "prime_cd"),
    ):
        def counted(*args, _name=name, _original=getattr(module, name)):
            if _name == "support_cd_with" and any(args[1:]):
                _name = "support_cd_with(prefix)"
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    a, I = parse_ideal(ring4, "y1, y2"), parse_ideal(ring4, C4)
    for analyse in (lambda: full_report(a, I), lambda: verifier.analyze_instance(0, a, I)):
        calls.clear()
        x = analyse()
        assert calls["_check_pair"] == 2
        assert calls["grade_by_localization"] == 2
        assert calls["support_cd_with"] == 2
        assert calls["_sop_search"] == 1
        assert calls["associated_primes"] == 1
        assert calls["is_monomial_regular_sequence"] >= 1
    before = Counter(calls)
    for name in ("prop_2_11f", "lemma_2_3"):
        result = verifier.run_suite(name, [x])
        assert result.passed and result.instances == 1
    assert calls == before
