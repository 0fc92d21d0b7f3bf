"""Core ideal arithmetic against frozen values and the enumeration oracle."""

import numpy as np
import pytest

from relhom import monomials
from relhom.monomials import (
    MAX_EXPONENT,
    MonomialIdeal,
    MonomialPrime,
    ParseError,
    RingMismatchError,
    RingSpec,
    associated_primes,
    erase_to_one,
    erase_to_zero,
    format_ideal,
    format_monomial,
    intersect,
    irreducible_decomposition,
    minimal_generators,
    minimal_primes,
    parse_ideal,
    quotient,
    quotient_dimension,
    radical,
    saturation,
    sum_ideals,
    support,
    unit_ideal,
    zero_ideal,
)

from relhom.verifier import CorpusParams, corpus_instances

from conftest import (
    ideal_height,
    oracle_associated_primes,
    oracle_irreducible_decomposition,
    oracle_member,
    oracle_minimal_primes,
    oracle_monomials,
    oracle_radical_primes,
    radical_equal,
    random_proper_ideal,
)

C4 = "x1*x2, x2*y1, y1*y2, y2*x1"


def random_pairs(ring, count, max_exp=3, max_gens=4, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (random_proper_ideal(rng, ring, max_exp, max_gens), random_proper_ideal(rng, ring, max_exp, max_gens))
        for _ in range(count)
    ]


class TestRingSpec:
    def test_distinct_names_required(self):
        with pytest.raises(ValueError):
            RingSpec(("x", "x"))

    def test_char_must_be_zero_or_prime(self):
        with pytest.raises(ValueError):
            RingSpec(("x",), char=10)
        RingSpec(("x",), char=0)
        RingSpec(("x",), char=2)
        RingSpec(("x",), char=32003)

    def test_restrict(self):
        ring = RingSpec(("x", "y", "z"))
        assert ring.restrict([0, 2]).names == ("x", "z")
        assert ring.restrict([]).n == 0


class TestMinimalGenerators:
    def test_divisible_generator_dropped(self, ring2):
        ideal = minimal_generators(ring2, [(2, 1), (2, 0), (0, 3)])
        assert ideal.gens == ((0, 3), (2, 0))

    def test_edge_ideal_is_already_minimal(self, ring4):
        ideal = parse_ideal(ring4, C4)
        assert ideal.mu == 4
        assert minimal_generators(ring4, ideal.gens) == ideal

    def test_empty_is_zero_ideal(self, ring2):
        assert minimal_generators(ring2, []).is_zero

    def test_idempotent(self, ring2):
        once = minimal_generators(ring2, [(1, 2), (1, 1), (3, 0)])
        assert minimal_generators(ring2, once.gens) == once

    def test_dimension_mismatch(self, ring2):
        with pytest.raises(ValueError):
            minimal_generators(ring2, [(1, 2, 3)])

    def test_noncanonical_construction_rejected(self, ring2):
        with pytest.raises(ValueError):
            MonomialIdeal(ring2, ((1, 1), (1, 0)))

    @pytest.mark.parametrize(
        "gens, message",
        [
            (((1, 0), (0, 1)), "canonical sorted order"),
            (((1, 1), (1, 1)), "canonical sorted order"),
            (((0, 1), (0, 2)), "divisibility-minimal"),
            (((0, 1), (1, 1)), "divisibility-minimal"),
            (((-1, 2),), "negative exponent"),
            (((0, MAX_EXPONENT + 1),), "exceeds the limit"),
            (((1, 2, 3),), "does not match ring"),
        ],
    )
    def test_hand_built_ideal_is_checked(self, ring2, gens, message):
        # an ideal built directly, not by minimal_generators, is checked in full
        with pytest.raises(ValueError, match=message):
            MonomialIdeal(ring2, gens)

    @pytest.mark.parametrize(
        "gens, message",
        [
            ([(1, 2, 3)], "does not match ring"),
            ([(2, 0), (1,)], "does not match ring"),
            ([(0, -1)], "negative exponent"),
            ([(3, 1), (1, -1)], r"negative exponent in \(1, -1\)"),
            ([(MAX_EXPONENT + 1, 0)], "exceeds the limit"),
            ([(0, 5), (MAX_EXPONENT + 1, 0)], "exceeds the limit"),
            # vectors that are not kept are checked too
            ([(0, 1), (0, 20000)], "exceeds the limit"),
            ([(1, 0), (2, -1)], "negative exponent"),
        ],
    )
    def test_minimal_generators_checks_exponents(self, ring2, gens, message):
        with pytest.raises(ValueError, match=message):
            minimal_generators(ring2, gens)
        assert minimal_generators(ring2, [(0, MAX_EXPONENT), (MAX_EXPONENT, 0)]).mu == 2

    def test_minimal_generators_minimizes_once(self, ring2, monkeypatch):
        # the result is canonical by construction, so the constructor's
        # minimality check does not run on it; a direct construction runs it
        calls = []
        original = monomials._minimal
        monkeypatch.setattr(monomials, "_minimal", lambda gens: calls.append(1) or original(gens))
        A = minimal_generators(ring2, [(2, 1), (1, 1), (0, 3), (1, 1)])
        assert A.gens == ((0, 3), (1, 1)) and len(calls) == 1
        assert MonomialIdeal(ring2, A.gens) == A and hash(MonomialIdeal(ring2, A.gens)) == hash(A)
        assert len(calls) == 3


class TestIntersect:
    def test_component_intersection_gives_edge_ideal(self, ring4):
        p1 = parse_ideal(ring4, "x1, y1")
        p2 = parse_ideal(ring4, "x2, y2")
        assert intersect(p1, p2) == parse_ideal(ring4, C4)

    def test_principal(self, ring2):
        assert intersect(parse_ideal(ring2, "x"), parse_ideal(ring2, "y")) == parse_ideal(ring2, "x*y")

    def test_frozen_mixed_example(self, ring2):
        # <x^2, y> cap <x> = <x^2, x*y>, confirmed by degree-3 enumeration
        got = intersect(parse_ideal(ring2, "x^2, y"), parse_ideal(ring2, "x"))
        assert got == parse_ideal(ring2, "x^2, x*y")

    def test_membership_oracle_on_random_instances(self, ring3):
        for A, B in random_pairs(ring3, 12, seed=1):
            both = intersect(A, B)
            assert A.contains_ideal(both) and B.contains_ideal(both)
            for m in oracle_monomials(3, 6):
                expected = oracle_member(m, A.gens) and oracle_member(m, B.gens)
                assert both.contains_monomial(m) == expected

    def test_ring_mismatch(self, ring2, ring3):
        with pytest.raises(RingMismatchError):
            intersect(unit_ideal(ring2), unit_ideal(ring3))


class TestQuotient:
    def test_principal(self, ring2):
        assert quotient(parse_ideal(ring2, "x*y"), (1, 0)) == parse_ideal(ring2, "y")

    def test_edge_ideal_by_vertex(self, ring4):
        got = quotient(parse_ideal(ring4, C4), (1, 0, 0, 0))
        assert got == parse_ideal(ring4, "x2, y2")

    def test_frozen_small(self, ring2):
        assert quotient(parse_ideal(ring2, "x^2, x*y"), (0, 1)) == parse_ideal(ring2, "x")

    def test_nonzerodivisor_criterion_matches_oracle(self, ring3):
        rng = np.random.default_rng(7)
        for A, _ in random_pairs(ring3, 10, seed=3):
            m = tuple(int(v) for v in rng.integers(0, 3, size=3))
            fixpoint = quotient(A, m) == A
            definitional = all(
                oracle_member(u, A.gens)
                for u in oracle_monomials(3, 6)
                if oracle_member(tuple(a + b for a, b in zip(u, m)), A.gens)
            )
            assert fixpoint == definitional


class TestSaturation:
    def test_torsion_everything(self, ring2):
        # <x^2, x*y> is killed by a power of x, so saturating by x gives the unit ideal
        A = parse_ideal(ring2, "x^2, x*y")
        assert saturation(A, parse_ideal(ring2, "x")) == unit_ideal(ring2)

    def test_strips_one_variable(self, ring2):
        A = parse_ideal(ring2, "x^2, x*y")
        assert saturation(A, parse_ideal(ring2, "y")) == parse_ideal(ring2, "x")

    def test_unit_cases(self, ring2):
        A = parse_ideal(ring2, "x^2, x*y")
        assert saturation(unit_ideal(ring2), A) == unit_ideal(ring2)
        assert saturation(A, unit_ideal(ring2)) == A
        # (A : 0^infinity) = S, whatever A is, the zero ideal included
        assert saturation(A, zero_ideal(ring2)) == unit_ideal(ring2)
        assert saturation(zero_ideal(ring2), zero_ideal(ring2)) == unit_ideal(ring2)

    def test_coprime_is_fixpoint(self, ring3):
        A = parse_ideal(ring3, "x*y")
        assert saturation(A, parse_ideal(ring3, "z")) == A

    def test_eventual_membership_oracle(self, ring2):
        pairs = random_pairs(ring2, 8, max_exp=2, max_gens=3, seed=11)
        for A, B in [*pairs, (pairs[0][0], zero_ideal(ring2))]:
            sat = saturation(A, B)
            for u in oracle_monomials(2, 4):
                eventually_in = False
                for power in range(7):
                    shifted = [tuple(x + power * b for x, b in zip(u, bgen)) for bgen in B.gens]
                    if all(oracle_member(s, A.gens) for s in shifted):
                        eventually_in = True
                        break
                assert sat.contains_monomial(u) == eventually_in


class TestRadical:
    def test_frozen(self, ring2):
        assert radical(parse_ideal(ring2, "x*y, x^2")) == parse_ideal(ring2, "x")
        assert radical(parse_ideal(ring2, "x^2, y^3")) == parse_ideal(ring2, "x, y")

    def test_squarefree_fixed_point(self, ring4):
        edge = parse_ideal(ring4, C4)
        assert radical(edge) == edge

    def test_idempotent_on_random(self, ring3):
        for A, _ in random_pairs(ring3, 10, seed=5):
            assert radical(radical(A)) == radical(A)

    def test_radical_equal_iff_same_minimal_primes(self, ring3):
        for A, B in random_pairs(ring3, 12, seed=9):
            assert radical_equal(A, B) == (minimal_primes(A) == minimal_primes(B))


class TestDecomposition:
    def test_edge_ideal(self, ring4):
        comps = irreducible_decomposition(parse_ideal(ring4, C4))
        expected = {parse_ideal(ring4, "x1, y1"), parse_ideal(ring4, "x2, y2")}
        assert set(comps) == expected

    def test_frozen_mixed(self, ring2):
        comps = irreducible_decomposition(parse_ideal(ring2, "x*y, x^2"))
        assert set(comps) == {parse_ideal(ring2, "x"), parse_ideal(ring2, "x^2, y")}

    def test_pure_power_is_its_own_component(self, ring2):
        A = parse_ideal(ring2, "x^2")
        assert irreducible_decomposition(A) == (A,)

    def test_reintersects_to_input(self, ring3):
        for A, _ in random_pairs(ring3, 15, seed=13):
            comps = irreducible_decomposition(A)
            back = unit_ideal(A.ring)
            for C in comps:
                back = intersect(back, C)
            assert back == A
            for C in comps:
                assert all(len(support(g)) == 1 for g in C.gens)

    def test_components_and_primes_match_the_splitter(self):
        # the polarization covers against the recursive splitter, components
        # in order, on the default, seed-11 and n = 3 (exponents <= 8)
        # corpora, 100 squarefree ideals in 5 variables, the 8- and 10-cycles
        # x_j^2*x_(j+1), and one ideal with exponents at MAX_EXPONENT
        corpora = (CorpusParams(), CorpusParams(seed=11), CorpusParams(n=3, max_exponent=8))
        ideals = [I for params in corpora for pair in corpus_instances(params) for I in pair]
        rng = np.random.default_rng(140)
        ring5 = RingSpec(tuple(f"x{j}" for j in range(5)))
        ideals += [random_proper_ideal(rng, ring5, 1, 8) for _ in range(100)]
        for n in (8, 10):
            ring = RingSpec(tuple(f"x{k}" for k in range(n)))
            ideals.append(parse_ideal(ring, ", ".join(f"x{k}^2*x{(k + 1) % n}" for k in range(n))))
        m = MAX_EXPONENT
        ring3 = RingSpec(("x", "y", "z"))
        ideals.append(parse_ideal(ring3, f"x^{m}*y, y^{m}*z, x*z^{m}, x^{m - 1}*y^2*z^3"))
        assert len(ideals) == 1303 and not any(I.is_zero for I in ideals)
        for I in ideals:
            assert irreducible_decomposition(I) == oracle_irreducible_decomposition(I)
            assert associated_primes(I) == oracle_associated_primes(I)
        # the 10-cycle has 123 components and as many associated primes
        assert len(associated_primes(ideals[-2])) == 123

    def test_rejects_zero_and_unit(self, ring2):
        with pytest.raises(ValueError):
            irreducible_decomposition(zero_ideal(ring2))
        with pytest.raises(ValueError):
            irreducible_decomposition(unit_ideal(ring2))


class TestPrimesAndDimension:
    def test_frozen_associated_primes(self, ring2):
        primes = associated_primes(parse_ideal(ring2, "x*y, x^2"))
        assert [P.vars for P in primes] == [(0,), (0, 1)]

    def test_edge_ideal_primes_and_dimension(self, ring4):
        edge = parse_ideal(ring4, C4)
        assert {P.vars for P in associated_primes(edge)} == {(0, 2), (1, 3)}
        assert quotient_dimension(edge) == 2
        assert ideal_height(edge) == 2

    def test_zero_ideal_special_case(self, ring2):
        assert [P.vars for P in associated_primes(zero_ideal(ring2))] == [()]
        assert quotient_dimension(zero_ideal(ring2)) == 2

    def test_unit_rejected(self, ring2):
        with pytest.raises(ValueError):
            associated_primes(unit_ideal(ring2))

    def test_dim_plus_height_on_random(self, ring4):
        for A, _ in random_pairs(ring4, 10, seed=17):
            assert quotient_dimension(A) + ideal_height(A) == 4

    def test_minimal_primes_are_inclusion_minimal(self, ring3):
        for A, _ in random_pairs(ring3, 10, seed=19):
            mins = {frozenset(P.vars) for P in minimal_primes(A)}
            for s in mins:
                assert not any(t < s for t in mins)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_minimal_primes_match_the_filtered_associated_primes(self, n):
        # the minimal primes read from the radical against the associated
        # primes of I filtered by inclusion, on squarefree and other ideals
        ring = RingSpec(tuple(f"x{j}" for j in range(n)))
        rng = np.random.default_rng(110 + n)
        squarefree = 0
        for _ in range(40):
            A = random_proper_ideal(rng, ring, int(rng.integers(1, 4)), 6)
            squarefree += all(max(g) <= 1 for g in A.gens)
            assert minimal_primes(A) == oracle_minimal_primes(A)
        assert minimal_primes(zero_ideal(ring)) == oracle_minimal_primes(zero_ideal(ring))
        assert 0 < squarefree < 40

    def test_vertex_covers_match_the_decomposition(self):
        # every ideal of the default corpus, 100 squarefree ideals in 5
        # variables and the 10- and 12-cycles: the minimal vertex covers of
        # the generator supports are the associated primes of the radical,
        # and each is an associated prime of I
        ideals = [I for pair in corpus_instances(CorpusParams()) for I in pair]
        rng = np.random.default_rng(130)
        ring5 = RingSpec(tuple(f"x{j}" for j in range(5)))
        ideals += [random_proper_ideal(rng, ring5, 1, 8) for _ in range(100)]
        for n in (10, 12):
            ring = RingSpec(tuple(f"x{k}" for k in range(n)))
            ideals.append(parse_ideal(ring, ", ".join(f"x{k}*x{(k + 1) % n}" for k in range(n))))
        for I in ideals:
            primes = minimal_primes(I)
            assert primes == oracle_radical_primes(I)
            assert set(primes) <= set(associated_primes(I))
        # the smallest vertex covers of the 10-cycle are its two sets of
        # every other vertex
        sizes = [len(P.vars) for P in minimal_primes(ideals[-2])]
        assert len(ideals) == 502 and sizes[:3] == [5, 5, 6]

    def test_minimal_primes_edge_cases(self, ring2):
        assert minimal_primes(zero_ideal(ring2)) == (MonomialPrime(ring2, ()),)
        assert minimal_primes(parse_ideal(ring2, "x^3*y^2")) == (MonomialPrime(ring2, (0,)), MonomialPrime(ring2, (1,)))
        with pytest.raises(ValueError, match="unit ideal"):
            minimal_primes(unit_ideal(ring2))

    def test_prime_to_ideal_roundtrip(self, ring4):
        P = MonomialPrime(ring4, (1, 3))
        assert P.to_ideal() == parse_ideal(ring4, "x2, y2")
        assert P.contains_ideal(parse_ideal(ring4, "x2*y1"))
        assert not P.contains_ideal(parse_ideal(ring4, "x1"))


class TestErasures:
    def test_erase_to_zero(self, ring4):
        a = parse_ideal(ring4, "y1, y2")
        got = erase_to_zero(a, {0, 2})  # kill x1, y1
        assert got.ring.names == ("x2", "y2")
        assert got == parse_ideal(got.ring, "y2")

    def test_erase_to_zero_drops_touching_generators(self, ring4):
        got = erase_to_zero(parse_ideal(ring4, C4), {2, 3})
        assert got == parse_ideal(got.ring, "x1*x2")

    def test_erase_to_zero_identity(self, ring4):
        edge = parse_ideal(ring4, C4)
        assert erase_to_zero(edge, set()) == edge

    def test_erase_to_one(self, ring2):
        got = erase_to_one(parse_ideal(ring2, "x*y, x^2"), {1})
        assert got == parse_ideal(got.ring, "x")

    def test_erase_to_one_can_hit_unit(self, ring4):
        got = erase_to_one(parse_ideal(ring4, C4), {2, 3})
        assert got.is_unit

    def test_erase_to_one_identity(self, ring4):
        edge = parse_ideal(ring4, C4)
        assert erase_to_one(edge, set()) == edge


class TestGrammar:
    def test_literals(self, ring2):
        assert parse_ideal(ring2, "0").is_zero
        assert parse_ideal(ring2, "1").is_unit
        assert format_ideal(zero_ideal(ring2)) == "0"
        assert format_ideal(unit_ideal(ring2)) == "1"

    def test_exponents_and_whitespace(self, ring2):
        assert parse_ideal(ring2, " x^2 * y , y^3 ") == minimal_generators(ring2, [(2, 1), (0, 3)])

    def test_repeated_factor_accumulates(self, ring2):
        assert parse_ideal(ring2, "x*x*y") == minimal_generators(ring2, [(2, 1)])

    def test_round_trip_random(self, ring4):
        for A, _ in random_pairs(ring4, 12, seed=23):
            assert parse_ideal(ring4, format_ideal(A)) == A

    def test_unknown_variable_position(self, ring2):
        with pytest.raises(ParseError) as err:
            parse_ideal(ring2, "x*q")
        assert err.value.position == 2

    def test_missing_exponent(self, ring2):
        with pytest.raises(ParseError) as err:
            parse_ideal(ring2, "x^")
        assert err.value.position == 2

    def test_trailing_comma(self, ring2):
        with pytest.raises(ParseError):
            parse_ideal(ring2, "x, ")

    def test_empty(self, ring2):
        with pytest.raises(ParseError):
            parse_ideal(ring2, "   ")

    def test_format_monomial(self, ring2):
        assert format_monomial(ring2, (0, 0)) == "1"
        assert format_monomial(ring2, (1, 3)) == "x*y^3"




def test_sum_ideals(ring2):
    got = sum_ideals(parse_ideal(ring2, "x^2"), parse_ideal(ring2, "x*y, x^3"))
    assert got == parse_ideal(ring2, "x^2, x*y")
