"""grade / cd / relative injective dimension / parameter systems."""

import itertools

import numpy as np
import pytest

from relhom import invariants, properties, slices
from relhom.invariants import (
    SOP_DEGENERATE_ZERO_LENGTH,
    SOP_FOUND,
    SOP_NONE_AMONG_MONOMIALS,
    EngineDisagreementError,
    PairAnalysis,
    a_id,
    cd,
    grade,
    grade_by_localization,
    invariant_record,
    is_monomial_regular_sequence,
    mu,
    sop_witness_by_support,
)
from relhom.monomials import (
    MonomialPrime,
    RingSpec,
    minimal_generators,
    parse_ideal,
    quotient_dimension,
    sum_ideals,
    support,
    unit_ideal,
    zero_ideal,
)
from relhom.verifier import CorpusParams, corpus_instances

from conftest import (
    cycle_pair,
    oracle_cd_by_support,
    oracle_cd_of_prime_quotient,
    oracle_grade_by_localization,
    oracle_monomials,
    oracle_sop_by_support,
    oracle_sop_candidates,
    radical_supports,
    random_proper_ideal,
    sop_search,
)

C4 = "x1*x2, x2*y1, y1*y2, y2*x1"


@pytest.fixture
def edge(ring4):
    return parse_ideal(ring4, C4)


class TestGrade:
    def test_on_edge_quotient(self, ring4, edge):
        assert grade(parse_ideal(ring4, "y1, y2"), edge) == 1

    def test_edge_ideal_on_ring(self, ring4, edge):
        assert grade(edge, zero_ideal(ring4)) == 2

    def test_regular_sequence(self, ring2):
        assert grade(parse_ideal(ring2, "x^2, y^3"), zero_ideal(ring2)) == 2

    def test_zero_relative_ideal(self, ring2):
        assert grade(zero_ideal(ring2), parse_ideal(ring2, "x*y")) == 0

    def test_degenerate_module(self, ring2):
        assert grade(parse_ideal(ring2, "x"), unit_ideal(ring2)) is None

    def test_unit_relative_ideal_rejected(self, ring2):
        with pytest.raises(ValueError):
            grade(unit_ideal(ring2), zero_ideal(ring2))

    def test_localization_engine_alone(self, ring4, edge):
        assert grade_by_localization(parse_ideal(ring4, "y1, y2"), edge) == 1
        assert grade_by_localization(edge, zero_ideal(ring4)) == 2

    def test_localization_matches_the_oracle(self):
        # the default corpus, then seeded pairs in one to five variables:
        # random, with I = 0, and with a generator of a on every variable
        pairs = [(a, I) for a, I in corpus_instances(CorpusParams()) if I.is_proper]
        assert len(pairs) == 200
        rng = np.random.default_rng(411)
        for n in (1, 2, 3, 5):
            ring = RingSpec(tuple(f"x{j}" for j in range(n)))
            for _ in range(6):
                a, I = random_proper_ideal(rng, ring, 3, 4), random_proper_ideal(rng, ring, 3, 5)
                full = tuple(int(v) for v in rng.integers(1, 4, size=n))
                powers = [tuple(4 * (k == j) for k in range(n)) for j in range(n)]
                spread = minimal_generators(ring, [full, *powers])
                assert full in spread.gens
                pairs += [(a, I), (a, zero_ideal(ring)), (spread, I)]
        for a, I in pairs:
            assert grade_by_localization(a, I) == oracle_grade_by_localization(a, I)

    def test_localization_over_the_used_variables(self):
        # pairs in 7 variables whose generators use only x0, x2, x3 and x5:
        # the scan over subsets of the used variables agrees with the scan
        # over all 2^7 subsets and with the grade in the ring of the used ones
        rng = np.random.default_rng(5)
        ring, small = RingSpec(tuple(f"x{j}" for j in range(7))), RingSpec(("x0", "x2", "x3", "x5"))
        used = (0, 2, 3, 5)

        def spread(A):
            return minimal_generators(ring, [tuple(g[used.index(j)] if j in used else 0 for j in range(7)) for g in A.gens])

        for _ in range(12):
            a, I = random_proper_ideal(rng, small, 3, 4), random_proper_ideal(rng, small, 3, 5)
            for J in (I, zero_ideal(small)):
                expected = grade_by_localization(a, J)
                assert grade_by_localization(spread(a), spread(J)) == expected == oracle_grade_by_localization(spread(a), spread(J))

    def test_localization_stops_at_the_first_depth_zero(self, ring3, monkeypatch):
        # a = (yz), I = (xy, xz): the qualifying F are {x,y}, {x,z}, {y,z} and
        # {x,y,z}, in scan order, of localized depths 1, 1, 0 and 1; no depth
        # is below 0, so pd is read for the first three only
        a, I = parse_ideal(ring3, "y*z"), parse_ideal(ring3, "x*y, x*z")
        reads = []
        original = invariants.pd_relabelled
        monkeypatch.setattr(invariants, "pd_relabelled", lambda *args: reads.append(args) or original(*args))
        assert grade_by_localization(a, I) == 0 == oracle_grade_by_localization(a, I)
        assert len(reads) == 3

    @pytest.mark.parametrize("n", range(4, 13))
    def test_localization_on_path_pairs(self, n):
        # a = (x(n-1)), I the path ideal x0*x1, ..., x(n-2)*x(n-1): the masks
        # that meet every support, low parts from one array, give the grade
        # of the scan over every subset
        ring = RingSpec(tuple(f"x{j}" for j in range(n)))
        a = parse_ideal(ring, f"x{n - 1}")
        I = parse_ideal(ring, ", ".join(f"x{j}*x{j + 1}" for j in range(n - 1)))
        assert grade_by_localization(a, I) == oracle_grade_by_localization(a, I)

    def test_localization_masks_past_the_low_bits(self, monkeypatch):
        # a = (x16*x17), I = (x0, ..., x15): the qualifying F hold x0..x15 and
        # x16, x17 or both, masks with high parts 1, 2 and 3, of depths 1, 1
        # and 2; the analysis cross-checks that grade against both profiles
        ring = RingSpec(tuple(f"x{j}" for j in range(18)))
        a, I = parse_ideal(ring, "x16*x17"), parse_ideal(ring, ", ".join(ring.names[:16]))
        reads = []
        original = invariants.pd_relabelled
        monkeypatch.setattr(invariants, "pd_relabelled", lambda *args: reads.append(args) or original(*args))
        assert grade_by_localization(a, I) == 1
        assert [k for _, k, _ in reads] == [16, 16, 16]
        assert PairAnalysis(a, I).grade == 1

    def test_localization_masks_stay_exact_past_64_variables(self, monkeypatch):
        # a = (x0), I = (x0*x1*...*x69): the first mask, F = {x0}, meets both
        # supports and has depth 1 - pd(x0) = 0, so one pd is read
        ring = RingSpec(tuple(f"x{j}" for j in range(70)))
        a, I = parse_ideal(ring, "x0"), parse_ideal(ring, "*".join(ring.names))
        reads = []
        original = invariants.pd_relabelled
        monkeypatch.setattr(invariants, "pd_relabelled", lambda *args: reads.append(args) or original(*args))
        assert grade_by_localization(a, I) == 0
        assert len(reads) == 1

    def test_engines_agree_on_random(self, ring4):
        rng = np.random.default_rng(53)
        for _ in range(15):
            a = random_proper_ideal(rng, ring4, 3, 5)
            I = random_proper_ideal(rng, ring4, 3, 5)
            grade(a, I)  # raises EngineDisagreementError on any mismatch


class TestCd:
    def test_on_edge_quotient(self, ring4, edge):
        assert cd(parse_ideal(ring4, "y1, y2"), edge) == 1

    def test_edge_ideal_on_ring(self, ring4, edge):
        assert cd(edge, zero_ideal(ring4)) == 3

    def test_non_radical_input_sees_only_the_radical(self, ring2):
        assert cd(parse_ideal(ring2, "x*y, x^2"), zero_ideal(ring2)) == 1

    def test_support_fast_path_alone(self, ring4, edge):
        assert PairAnalysis(parse_ideal(ring4, "y1, y2"), edge).support_cd_with() == 1
        assert PairAnalysis(edge, zero_ideal(ring4)).support_cd_with() == 3

    def test_degenerate(self, ring2):
        assert cd(parse_ideal(ring2, "x"), unit_ideal(ring2)) is None

    def test_prime_quotient_matches_the_oracle(self):
        # every prime on a variable set of the default corpus's rings, and
        # of five-variable squarefree pairs, against the image built as an
        # ideal and its radical; a unit relative ideal, whose image is the
        # unit ideal, is refused before any prime is read
        cases = 0
        for params in (CorpusParams(count=60), CorpusParams(n=5, squarefree=True, count=20)):
            ring = params.ring()
            for a, _ in corpus_instances(params):
                x = PairAnalysis(a, zero_ideal(ring))
                for prime in range(1 << ring.n):
                    P = MonomialPrime(ring, [j for j in range(ring.n) if prime >> j & 1])
                    assert x.prime_cd(prime) == oracle_cd_of_prime_quotient(a, P)
                    cases += 1
        assert cases == 60 * 16 + 20 * 32
        ring = RingSpec(("x", "y"))
        assert oracle_cd_of_prime_quotient(unit_ideal(ring), MonomialPrime(ring, ())) is None
        with pytest.raises(ValueError, match="relative ideal must be proper"):
            PairAnalysis(unit_ideal(ring), zero_ideal(ring))

    def test_support_cd_with_a_prefix_matches_the_oracle(self):
        # cd(a, S/(I + prefix)) for every prefix of parameter-system
        # candidates up to length cd, on S/I and on S, against the splitter's
        # minimal primes and the images built as ideals: the default corpus
        # and four five-variable squarefree pairs, which reach cd 3
        cases = 0
        pairs = [*corpus_instances(CorpusParams()), *corpus_instances(CorpusParams(n=5, squarefree=True, gen_count_range=(2, 7), count=4))]
        for a, I in pairs:
            for J in (I, zero_ideal(I.ring)):
                if J.is_unit:
                    continue
                x = PairAnalysis(a, J)
                candidates = invariants._sop_candidates(a, x.degree_bound)
                for k in range(1, x.cd + 1):
                    for prefix in itertools.combinations(candidates, k):
                        expected = oracle_cd_by_support(a, sum_ideals(J, minimal_generators(a.ring, prefix)))
                        assert x.support_cd_with(prefix) == expected
                        cases += 1
        assert cases == 6523

    def test_each_prime_cd_is_computed_once_per_analysis(self, monkeypatch):
        # K6's edge ideal as a: the support cd and the parameter-system prune,
        # which finds no witness, ask for the cds of few primes many times,
        # and each prime's pd is read from the Betti cache once
        ring = RingSpec(tuple(f"x{k}" for k in range(6)))
        edges = [tuple(int(j in (u, v)) for j in range(6)) for u, v in itertools.combinations(range(6), 2)]
        x = PairAnalysis(minimal_generators(ring, edges), zero_ideal(ring))
        x.localization_grade  # reads pd_relabelled on its own
        reads, asked = [], []
        original_pd, original_prime_cd = invariants.pd_relabelled, PairAnalysis.prime_cd
        monkeypatch.setattr(invariants, "pd_relabelled", lambda *args: reads.append(args) or original_pd(*args))
        monkeypatch.setattr(PairAnalysis, "prime_cd", lambda self, prime: asked.append(prime) or original_prime_cd(self, prime))
        assert x.sop.status == SOP_NONE_AMONG_MONOMIALS and x.cd == 5
        assert len(reads) == len(set(asked)) < len(asked)


class TestRelativeInjectiveDimension:
    def test_equals_pd_of_relative_quotient(self, ring2):
        assert a_id(parse_ideal(ring2, "x*y, x^2"), zero_ideal(ring2)) == 2

    def test_on_edge_ideal(self, ring4, edge):
        assert a_id(edge, zero_ideal(ring4)) == 3

    def test_principal(self, ring2):
        assert a_id(parse_ideal(ring2, "x"), zero_ideal(ring2)) == 1

    def test_independent_of_the_module(self, ring2):
        a = parse_ideal(ring2, "x*y, x^2")
        for i_text in ("0", "y", "x^3", "x^2, y^2"):
            assert a_id(a, parse_ideal(ring2, i_text)) == 2


class TestRegularSequences:
    def test_variables_on_free_module(self, ring2):
        assert is_monomial_regular_sequence([(1, 0), (0, 1)], zero_ideal(ring2))

    def test_zero_divisor(self, ring2):
        assert not is_monomial_regular_sequence([(1, 0)], parse_ideal(ring2, "x*y"))

    def test_power_of_vertex_on_edge_quotient(self, ring4, edge):
        assert not is_monomial_regular_sequence([(0, 0, 2, 0)], edge)

    def test_sequence_collapsing_to_unit(self, ring2):
        assert not is_monomial_regular_sequence([(1, 0), (0, 1)], parse_ideal(ring2, "x^2, y^2"))

    def test_empty_sequence(self, ring2):
        assert is_monomial_regular_sequence([], parse_ideal(ring2, "x"))
        assert not is_monomial_regular_sequence([], unit_ideal(ring2))


class TestSopSearch:
    def test_generators_found_lex_first(self):
        ring = RingSpec(("x1", "x2", "x3", "x4"))
        w = sop_search(parse_ideal(ring, "x1^2, x2^3"), zero_ideal(ring), 4)
        assert w.status == SOP_FOUND
        assert w.sequence == ((0, 3, 0, 0), (2, 0, 0, 0))

    def test_variables_found(self, ring4):
        w = sop_search(parse_ideal(ring4, "y1, y2"), zero_ideal(ring4), 4)
        assert w.status == SOP_FOUND
        assert w.sequence == ((0, 0, 0, 1), (0, 0, 1, 0))

    def test_none_among_monomials_on_edge_quotient(self, ring4, edge):
        w = sop_search(parse_ideal(ring4, "y1, y2"), edge, 4)
        assert w.status == SOP_NONE_AMONG_MONOMIALS
        assert w.degree_bound == 4

    def test_degenerate_zero_length(self, ring2):
        w = sop_search(parse_ideal(ring2, "x"), parse_ideal(ring2, "x^2"), 4)
        assert w.status == SOP_DEGENERATE_ZERO_LENGTH
        assert w.sequence == ()

    def test_degenerate_module_rejected(self, ring2):
        with pytest.raises(ValueError):
            sop_search(parse_ideal(ring2, "x"), unit_ideal(ring2), 4)

    def test_support_search_same_existence(self, ring4):
        rng = np.random.default_rng(59)
        for _ in range(12):
            a = random_proper_ideal(rng, ring4, 2, 4)
            I = random_proper_ideal(rng, ring4, 2, 4)
            slow = sop_search(a, I, 3)
            fast = sop_witness_by_support(a, I, 3)
            assert slow.found == fast.found
            if fast.status == SOP_FOUND:
                # any found witness must itself certify the radical condition
                target = radical_supports(map(support, sum_ideals(a, I).gens))
                got = radical_supports([*map(support, I.gens), *map(support, fast.sequence)])
                assert got == target
                assert all(a.contains_monomial(e) for e in fast.sequence)


    def test_a_zero_cd_decides_antichain_equality(self):
        # the search's leaf test: for a family whose every support contains
        # one of the minimal supports of rad(a + I), the target,
        # cd(a, S/(I + family)) is 0 iff I and the family have the target
        # as their minimal supports
        rng = np.random.default_rng(61)
        outcomes = set()
        for _ in range(400):
            n = int(rng.integers(1, 7))
            drawn = [frozenset(np.flatnonzero(rng.random(n) < 0.4).tolist()) for _ in range(int(rng.integers(1, 6)))]
            target = sorted(radical_supports(s for s in drawn if s))
            if not target:
                continue
            family = []
            for _ in range(int(rng.integers(0, 8))):
                t = target[int(rng.integers(len(target)))]
                family.append(t | frozenset(np.flatnonzero(rng.random(n) < 0.2).tolist()))
            ring = RingSpec(tuple(f"x{j}" for j in range(n)))
            gens = [tuple(int(j in s) for j in range(n)) for s in drawn if s]
            a, I = minimal_generators(ring, gens[1:]), minimal_generators(ring, gens[:1])
            extra = [tuple(int(j in s) for j in range(n)) for s in family]
            expected = radical_supports([*map(support, I.gens), *family]) == frozenset(target)
            assert (PairAnalysis(a, I).support_cd_with(extra) == 0) == expected
            outcomes.add(expected)
        assert outcomes == {False, True}

    def test_pruned_search_finds_the_first_witness(self):
        # the prune only cuts prefixes no witness extends, so the walk returns
        # the lexicographically first combination, as the full walk does;
        # squarefree relative ideals in 5 variables reach cd 3 on S/I and S
        ring = RingSpec(("a", "b", "c", "d", "e"))
        rng = np.random.default_rng(83)
        seen = set()
        for _ in range(16):
            a = random_proper_ideal(rng, ring, 1, 6)
            for I in (random_proper_ideal(rng, ring, 2, 2), zero_ideal(ring)):
                for bound in (2, 4):
                    expected = oracle_sop_by_support(a, I, bound)
                    assert sop_witness_by_support(a, I, bound) == expected
                    seen.add((cd(a, I), expected.status))
        assert {(3, SOP_FOUND), (3, SOP_NONE_AMONG_MONOMIALS), (2, SOP_NONE_AMONG_MONOMIALS)} <= seen

    def test_every_prefix_is_tested_and_the_witness_is_the_full_walks(self, monkeypatch):
        # the default corpus on S/I and on S: with every prefix tested for
        # the prune, the search returns what the walk over every combination
        # returns, and the prune runs on prefixes of some pairs
        prefixes = []
        original = PairAnalysis.support_cd_with
        monkeypatch.setattr(PairAnalysis, "support_cd_with", lambda self, extra=(): prefixes.append(extra) or original(self, extra))
        statuses = set()
        for a, I in corpus_instances(CorpusParams()):
            for J in (I, zero_ideal(I.ring)):
                expected = oracle_sop_by_support(a, J)
                assert sop_witness_by_support(a, J) == expected
                statuses.add(expected.status)
        assert statuses == {SOP_FOUND, SOP_NONE_AMONG_MONOMIALS, SOP_DEGENERATE_ZERO_LENGTH}
        assert any(prefixes)

    def test_candidates_are_the_least_monomial_of_each_support(self):
        # per support F, the least monomial of a within the degree bound whose
        # support is F, found among every monomial of the bound; candidates
        # come in increasing order and their supports are distinct
        for params in (CorpusParams(count=40), CorpusParams(n=5, squarefree=True, count=20, seed=7)):
            for a, _ in corpus_instances(params):
                for bound in (2, 4):
                    least = {}
                    for e in sorted(oracle_monomials(a.ring.n, bound)):
                        if any(e) and a.contains_monomial(e):
                            least.setdefault(support(e), e)
                    candidates = invariants._sop_candidates(a, bound)
                    assert candidates == sorted(least.values())
                    assert len({support(e) for e in candidates}) == len(candidates)

    def test_candidates_match_the_loop_over_every_support(self):
        # four corpora at five degree bounds: the per-generator enumeration
        # finds the list of the loop over all 2^n supports
        corpora = (
            CorpusParams(),
            CorpusParams(seed=11),
            CorpusParams(n=5, squarefree=True, gen_count_range=(2, 7)),
            CorpusParams(n=3, max_exponent=8),
        )
        cases = 0
        for params in corpora:
            for a, _ in corpus_instances(params):
                for bound in (0, 1, 2, 4, 6):
                    assert invariants._sop_candidates(a, bound) == oracle_sop_candidates(a, bound)
                    cases += 1
        assert cases == 4_000

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_pruned_search_on_cycles(self, monkeypatch, n):
        a, I = cycle_pair(n)
        expected = oracle_sop_by_support(a, I)
        cuts = []
        support_cd = PairAnalysis.support_cd_with

        def counted(*args):
            cuts.append(args)
            return support_cd(*args)

        monkeypatch.setattr(PairAnalysis, "support_cd_with", counted)
        assert sop_witness_by_support(a, I) == expected
        assert expected.found == (n % 2 == 0)
        assert len(cuts) > 1  # the prune ran, not only the pair's own cd


class TestInvariantRecord:
    def test_edge_pair(self, ring4, edge):
        rec = invariant_record(parse_ideal(ring4, "y1, y2"), edge)
        assert (rec.grade, rec.cd, rec.mu, rec.a_id) == (1, 1, 2, 2)
        assert (rec.pd, rec.depth, rec.dim) == (3, 1, 2)
        assert (rec.ara_lower, rec.ara_upper) == (1, 2)  # no monomial witness at bound 4

    def test_ara_tightened_by_witness(self, ring4):
        rec = invariant_record(parse_ideal(ring4, "y1, y2"), zero_ideal(ring4))
        assert (rec.ara_lower, rec.ara_upper) == (2, 2)
        assert dict(rec.provenance)["ara"] == "sop_found"

    def test_degenerate(self, ring2):
        rec = invariant_record(parse_ideal(ring2, "x"), unit_ideal(ring2))
        assert rec.grade is None and rec.cd is None and rec.a_id is None
        assert rec.pd is None and rec.dim is None
        assert rec.mu == 1

    def test_degree_bound_controls_witness_tightening(self, ring2):
        # <x^2, y^3, x*y> has cd 2 on the ring; the witness (x^2, y^3) needs degree 3
        a = parse_ideal(ring2, "x^2, y^3, x*y")
        S = zero_ideal(ring2)
        loose = invariant_record(a, S, degree_bound=2)
        tight = invariant_record(a, S, degree_bound=3)
        assert (loose.ara_lower, loose.ara_upper) == (2, 3)
        assert (tight.ara_lower, tight.ara_upper) == (2, 2)
        assert sop_search(a, S, 2).status == SOP_NONE_AMONG_MONOMIALS
        assert sop_search(a, S, 3).status == SOP_FOUND

    def test_json_round_trip_keys(self, ring2):
        rec = invariant_record(parse_ideal(ring2, "x"), zero_ideal(ring2))
        payload = rec.to_json()
        assert set(payload) == {
            "grade", "cd", "mu", "a_id", "pd", "depth", "dim", "ara_lower", "ara_upper", "provenance",
        }

    def test_order_on_random(self, ring4):
        rng = np.random.default_rng(61)
        for _ in range(12):
            a = random_proper_ideal(rng, ring4, 3, 5)
            I = random_proper_ideal(rng, ring4, 3, 5)
            rec = invariant_record(a, I)
            assert rec.grade <= rec.cd <= rec.mu
            assert rec.ara_lower == rec.cd and rec.ara_upper <= rec.mu
            assert rec.a_id >= rec.grade


def _unused_variable_pairs():
    """The default corpus's pairs that leave a variable unused, then seeded
    pairs on 1 to 4 of 6 variables, against I and against 0."""
    pairs = []
    for a, I in corpus_instances(CorpusParams()):
        if len(set().union(*map(support, (*a.gens, *I.gens)))) < a.ring.n:
            pairs.append((a, I))
    ring = RingSpec(tuple(f"x{j}" for j in range(6)))
    rng = np.random.default_rng(97)
    for _ in range(12):
        used = sorted(rng.choice(6, size=int(rng.integers(1, 5)), replace=False).tolist())
        small = RingSpec(tuple(ring.names[j] for j in used))

        def spread(A):
            return minimal_generators(ring, [tuple(g[used.index(j)] if j in used else 0 for j in range(6)) for g in A.gens])

        a = spread(random_proper_ideal(rng, small, 2, 3))
        I = spread(random_proper_ideal(rng, small, 2, 3))
        pairs += [(a, I), (a, zero_ideal(ring))]
    return pairs


class TestUsedVariables:
    def test_trivial_pair_in_24_variables_runs_on_two_axes(self, monkeypatch):
        # (x0; x1) over x0..x23 builds its class tables over the two
        # variables its generators use, not over a grid of 24 axes
        ring = RingSpec(tuple(f"x{k}" for k in range(24)))
        a, I = parse_ideal(ring, "x0"), parse_ideal(ring, "x1")
        built = []
        original = slices._class_tables

        def spy(kinds, A, B, pad):
            built.extend((kind, A.ring.n) for kind in kinds)
            assert A.ring.n == 2, "class table over unused variables"
            return original(kinds, A, B, pad)

        monkeypatch.setattr(slices, "_class_tables", spy)
        slices.clear_slice_caches()
        rec = PairAnalysis(a, I).record
        assert sorted(built) == [("ext", 2), ("lc", 2)]
        assert (rec.grade, rec.cd, rec.a_id, rec.pd, rec.depth, rec.dim) == (1, 1, 1, 1, 23, 23)

    def test_restricted_engines_match_the_full_ring(self):
        # the profiles on the used variables are the dense engine's on the
        # full ring, the localization grade is the oracle's, and the
        # dimension read from I's minimal primes is quotient_dimension
        pairs = _unused_variable_pairs()
        assert len(pairs) == 8 + 24
        for a, I in pairs:
            x = PairAnalysis(a, I)
            assert x.used_pair[0].ring.n < a.ring.n
            assert (x.ext_profile, x.lc_profile) == slices._dense_profiles(a, I)
            assert x.localization_grade == oracle_grade_by_localization(a, I)
            assert x.record.dim == quotient_dimension(I)

    def test_every_variable_used_keeps_the_pair(self, ring4, edge):
        a = parse_ideal(ring4, "y1, y2")
        x = PairAnalysis(a, edge)
        assert x.used_pair[0] is a and x.used_pair[1] is edge


def test_one_class_engine_call_whatever_is_read_first(monkeypatch):
    # fresh analyses of the default-corpus pairs: reading cd, then a_id,
    # then grade asks the class engine once, for both profiles
    calls = []
    original = slices._class_tables
    monkeypatch.setattr(slices, "_class_tables", lambda *args: calls.append(args) or original(*args))
    for a, I in corpus_instances(CorpusParams()):
        slices.clear_slice_caches()
        calls.clear()
        x = PairAnalysis(a, I)
        assert x.cd <= x.a_id and x.grade <= x.cd
        assert len(calls) == 1


def test_the_parameter_search_walks_no_table(monkeypatch):
    # the search's length is the support cd, so fresh analyses find the
    # oracle's witness with the activity walk refused: the default-corpus
    # pairs on S/I and on S, and the 9- and 10-cycle pairs at degree bound 2,
    # where the oracle's walk over every length-cd combination is short
    cases = [(a, J, 4) for a, I in corpus_instances(CorpusParams()) for J in (I, zero_ideal(I.ring))]
    cases += [(*cycle_pair(n), 2) for n in (9, 10)]
    expected = [oracle_sop_by_support(*case) for case in cases]
    assert {w.status for w in expected[-2:]} == {SOP_FOUND, SOP_NONE_AMONG_MONOMIALS}

    def refuse(*args):
        raise AssertionError("the parameter search walked a table")

    slices.clear_slice_caches()
    monkeypatch.setattr(slices, "_member_states", refuse)
    assert [PairAnalysis(*case).sop for case in cases] == expected


def test_mu(ring4, edge=None):
    assert mu(parse_ideal(ring4, C4)) == 4
    assert mu(zero_ideal(ring4)) == 0
    with pytest.raises(ValueError):
        mu(unit_ideal(ring4))


def test_engine_disagreement_is_distinct_error():
    assert issubclass(EngineDisagreementError, RuntimeError)
    assert not issubclass(EngineDisagreementError, ValueError)


# one engine value overwritten on a fresh analysis of a = (z, x*y), I = (y^2),
# whose profiles are Ext {1, 2} and local cohomology {1}, with cd(a, S) = 2
DISAGREEMENTS = [
    (
        "grade", "localization_grade", 9, lambda x: x.grade,
        "grade(z, x*y; y^2)", {"ext_box": 1, "cech_box": 1, "localization": 9},
    ),
    ("cd", "support_cd", 9, lambda x: x.cd, "cd(z, x*y; y^2)", {"cech_box": 1, "minimal_primes_pd": 9}),
    ("a_id", "pd_a", 9, lambda x: x.a_id, "a_id(z, x*y; y^2)", {"ext_box": 2, "pd_of_quotient": 9}),
    (
        "relative CM", "ass_prime_criterion", False, properties._cm,
        "relative CM(z, x*y; y^2)", {"grade_eq_cd": True, "ass_prime_criterion": False},
    ),
    (
        "relative Gorenstein", "grade", 2, properties._gorenstein,
        "relative Gorenstein(z, x*y; y^2)", {"profile_concentrated": False, "max_cm_and_upper_vanishing": True},
    ),
]


@pytest.mark.parametrize(
    "attr, value, read, what, values", [row[1:] for row in DISAGREEMENTS], ids=[row[0] for row in DISAGREEMENTS]
)
def test_each_cross_check_raises_on_one_perturbed_engine(attr, value, read, what, values):
    # the message, .what and .values are what the identity suite and the
    # JSONL error field read; keys stay in the order the engines are read
    ring = RingSpec(("x", "y", "z"))
    x = PairAnalysis(parse_ideal(ring, "z, x*y"), parse_ideal(ring, "y^2"))
    setattr(x, attr, value)
    with pytest.raises(EngineDisagreementError) as caught:
        read(x)
    detail = ", ".join(f"{k}={v}" for k, v in values.items())
    assert str(caught.value) == f"engine disagreement on {what}: {detail}"
    assert caught.value.what == what
    assert list(caught.value.values.items()) == list(values.items())
