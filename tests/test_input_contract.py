"""The input contract: every public entry that takes ideals, exponent
vectors, degrees or a modulus refuses bad input through the rules of
``monomials``, before any engine runs.

Each row of ``REFUSED`` is one call and the exception it must raise.  The
rules are the exponent-vector rule (n integer entries, none negative or above
``MAX_EXPONENT``), the same-ring rule (``RingMismatchError``), the pair rule
(one ring, a proper relative ideal, a prime characteristic), the module rule
(S/I nonzero, a prime characteristic), the variable-position rule (integer
positions in range) and one primality test; degrees, level indices, box
bounds, box pads and degree bounds go through ``operator.index``, and a box
pad and a degree bound are at least 0.
"""

import inspect

import numpy as np
import pytest

import relhom
from relhom import cli, invariants, linalg, properties, slices, taylor, verifier
from relhom.invariants import (
    PairAnalysis,
    a_id,
    cd,
    grade,
    invariant_record,
    is_monomial_regular_sequence,
    mu,
    sop_witness_by_support,
)
from relhom.linalg import rank_mod_p
from relhom.monomials import (
    MonomialIdeal,
    MonomialPrime,
    RingMismatchError,
    RingSpec,
    _is_prime,
    erase_to_one,
    erase_to_zero,
    intersect,
    minimal_generators,
    parse_ideal,
    quotient,
    saturation,
    sum_ideals,
    unit_ideal,
    zero_ideal,
)
from relhom.properties import (
    full_report,
    is_relative_cm,
    is_relative_gorenstein,
    is_relative_max_cm,
    is_relative_regular_module,
    is_relative_regular_ring,
)
from relhom.slices import (
    DegreeBox,
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
from relhom.taylor import betti_numbers, depth_quotient, pd_quotient
from relhom.verifier import CorpusParams

R2 = RingSpec(("x", "y"))
R3 = RingSpec(("x", "y", "z"))
C0 = RingSpec(("x", "y"), 0)
X, Y, XY = parse_ideal(R2, "x"), parse_ideal(R2, "y"), parse_ideal(R2, "x*y")
UNIT = unit_ideal(R2)
Y3 = parse_ideal(R3, "y")
X0, ZERO0, UNIT0 = parse_ideal(C0, "x"), zero_ideal(C0), unit_ideal(C0)
P2 = MonomialPrime(R2, (0,))
TABLE = ext_table(X, Y)

# the entries that take a pair (a, S/I)
PAIR_ENTRIES = {
    "grade": grade,
    "cd": cd,
    "a_id": a_id,
    "invariant_record": invariant_record,
    "sop_witness_by_support": sop_witness_by_support,
    "full_report": full_report,
    "is_relative_cm": is_relative_cm,
    "is_relative_max_cm": is_relative_max_cm,
    "is_relative_gorenstein": is_relative_gorenstein,
    "is_relative_regular_module": is_relative_regular_module,
    "PairAnalysis": PairAnalysis,
    "ext_table": ext_table,
    "lc_table": lc_table,
    "ext_profile": ext_profile,
    "lc_profile": lc_profile,
    "ext_vanishes": lambda a, I: ext_vanishes(a, I, 0),
    "ext_vanishes_below": lambda a, I: ext_vanishes_below(a, I, 1),
    "ext_slice": lambda a, I: ext_slice(a, I, 0, (0,) * a.ring.n),
    "local_cohomology_slice": lambda a, I: local_cohomology_slice(a, I, 0, (0,) * a.ring.n),
}
# the pair entries that also need a nonzero module
TABLE_ENTRIES = [
    "ext_table",
    "lc_table",
    "ext_profile",
    "lc_profile",
    "ext_vanishes",
    "ext_vanishes_below",
    "ext_slice",
    "local_cohomology_slice",
]

REFUSED = [
    # the same-ring rule
    *[(f"{name}: rings differ", lambda f=f: f(X, Y3), RingMismatchError) for name, f in PAIR_ENTRIES.items()],
    ("sum_ideals: rings differ", lambda: sum_ideals(X, Y3), RingMismatchError),
    ("intersect: rings differ", lambda: intersect(X, Y3), RingMismatchError),
    ("saturation: rings differ", lambda: saturation(X, Y3), RingMismatchError),
    ("ideal contains_ideal: rings differ", lambda: X.contains_ideal(Y3), RingMismatchError),
    ("prime contains_ideal: rings differ", lambda: P2.contains_ideal(Y3), RingMismatchError),
    ("localization_grade: rings differ", lambda: PairAnalysis(X, Y3).localization_grade, RingMismatchError),
    ("support_cd: rings differ", lambda: PairAnalysis(X, Y3).support_cd, RingMismatchError),
    # the pair rule: a proper relative ideal and a prime characteristic
    *[(f"{name}: unit relative ideal", lambda f=f: f(UNIT, X), ValueError) for name, f in PAIR_ENTRIES.items()],
    *[(f"{name}: characteristic 0", lambda f=f: f(X0, ZERO0), ValueError) for name, f in PAIR_ENTRIES.items()],
    ("support_cd: unit relative ideal", lambda: PairAnalysis(UNIT, X).support_cd, ValueError),
    ("grade: zero module in characteristic 0", lambda: grade(X0, UNIT0), ValueError),
    ("full_report: zero module in characteristic 0", lambda: full_report(X0, UNIT0), ValueError),
    ("mu: unit ideal", lambda: mu(UNIT), ValueError),
    ("mu: characteristic 0", lambda: mu(X0), ValueError),
    ("is_relative_regular_ring: unit ideal", lambda: is_relative_regular_ring(UNIT), ValueError),
    ("is_relative_regular_ring: characteristic 0", lambda: is_relative_regular_ring(X0), ValueError),
    # the module rule: S/I nonzero and a prime characteristic
    *[(f"{name}: zero module", lambda f=PAIR_ENTRIES[name]: f(X, UNIT), ValueError) for name in TABLE_ENTRIES],
    ("localization_grade: zero module", lambda: PairAnalysis(X, UNIT).localization_grade, ValueError),
    ("support_cd: zero module", lambda: PairAnalysis(X, UNIT).support_cd, ValueError),
    ("analysis sop: zero module", lambda: PairAnalysis(X, UNIT).sop, ValueError),
    ("sop_witness_by_support: zero module", lambda: sop_witness_by_support(X, UNIT), ValueError),
    ("betti_numbers: zero module", lambda: betti_numbers(UNIT), ValueError),
    ("pd_quotient: zero module", lambda: pd_quotient(UNIT), ValueError),
    ("depth_quotient: zero module", lambda: depth_quotient(UNIT), ValueError),
    ("betti_numbers: characteristic 0", lambda: betti_numbers(X0), ValueError),
    ("pd_quotient: characteristic 0", lambda: pd_quotient(X0), ValueError),
    # the exponent-vector rule
    ("quotient: negative vector", lambda: quotient(XY, (-1, 0)), ValueError),
    ("quotient: short vector", lambda: quotient(XY, (1,)), ValueError),
    ("quotient: non-integer entry", lambda: quotient(XY, (0.5, 0)), TypeError),
    ("contains_monomial: negative vector", lambda: XY.contains_monomial((-3, 1)), ValueError),
    ("contains_monomial: long vector", lambda: XY.contains_monomial((1, 1, 0)), ValueError),
    ("prime contains_monomial: negative vector", lambda: P2.contains_monomial((-1, 1)), ValueError),
    ("prime contains_monomial: long vector", lambda: P2.contains_monomial((1, 0, 0)), ValueError),
    ("regular sequence: negative vector", lambda: is_monomial_regular_sequence([(-1, 0)], X), ValueError),
    ("minimal_generators: negative vector", lambda: minimal_generators(R2, [(-1, 0)]), ValueError),
    ("minimal_generators: non-integer entry", lambda: minimal_generators(R2, [(1.5, 0)]), TypeError),
    ("MonomialIdeal: negative vector", lambda: MonomialIdeal(R2, ((0, -1),)), ValueError),
    ("lyubeznik_layout: negative vector", lambda: lyubeznik_layout(((-1, 0),), 2), ValueError),
    ("taylor_layout: long vector", lambda: taylor_layout(((1, 0),), 3), ValueError),
    # the variable-position rule: integer positions of the ring's variables
    ("erase_to_zero: position past the ring", lambda: erase_to_zero(XY, [5]), ValueError),
    ("erase_to_one: negative position", lambda: erase_to_one(XY, [-1]), ValueError),
    ("erase_to_one: non-integer position", lambda: erase_to_one(XY, [0.5]), TypeError),
    ("MonomialPrime: non-integer position", lambda: MonomialPrime(R2, (1.7,)), TypeError),
    ("MonomialPrime: position past the ring", lambda: MonomialPrime(R2, (0, 2)), ValueError),
    # degrees, box bounds and degree bounds are integers
    ("ext_slice: non-integer degree", lambda: ext_slice(X, Y, 0, (1.7, 0)), TypeError),
    ("local_cohomology_slice: non-integer degree", lambda: local_cohomology_slice(X, Y, 0, (1.7, 0)), TypeError),
    ("dim_at: non-integer degree", lambda: TABLE.dim_at(0, (0.5, 0)), TypeError),
    ("DegreeBox: non-integer bound", lambda: DegreeBox((1.5, 2)), TypeError),
    ("ext_table: non-integer pad", lambda: ext_table(X, Y, pad=0.5), TypeError),
    ("full_report: non-integer pad", lambda: full_report(X, Y, pad=0.5), TypeError),
    # a box pad is at least 0: a narrower box would drop slices silently
    ("ext_table: negative pad", lambda: ext_table(X, Y, pad=-1), ValueError),
    ("lc_table: negative pad", lambda: lc_table(X, Y, pad=-1), ValueError),
    ("full_report: negative pad", lambda: full_report(X, Y, pad=-1), ValueError),
    ("PairAnalysis: non-integer degree bound", lambda: PairAnalysis(X, Y, 2.5), TypeError),
    ("sop_witness_by_support: non-integer degree bound", lambda: sop_witness_by_support(X, Y, 2.5), TypeError),
    ("invariant_record: non-integer degree bound", lambda: invariant_record(X, Y, 2.5), TypeError),
    ("full_report: non-integer degree bound", lambda: full_report(X, Y, degree_bound=2.5), TypeError),
    ("ext_vanishes: non-integer level", lambda: ext_vanishes(X, Y, "z"), TypeError),
    ("ext_vanishes_below: non-integer level", lambda: ext_vanishes_below(X, Y, 1.5), TypeError),
    ("ext_slice: non-integer level", lambda: ext_slice(X, Y, 1.0, (0, 0)), TypeError),
    ("local_cohomology_slice: non-integer level", lambda: local_cohomology_slice(X, Y, 1.0, (0, 0)), TypeError),
    ("dim_at: non-integer level", lambda: TABLE.dim_at(1.0, (0, 0)), TypeError),
    ("hilbert: non-integer level", lambda: TABLE.hilbert(1.0), TypeError),
    ("total: non-integer level", lambda: TABLE.total(1.0), TypeError),
    # the degree is checked before any level is answered
    ("dim_at: non-integer degree at a level the table lacks", lambda: TABLE.dim_at(5, "zz"), TypeError),
    ("dim_at: degree outside the box at a level the table lacks", lambda: TABLE.dim_at(5, (9, 0)), ValueError),
    # a degree bound is at least 0: a search over no candidates is no search
    ("PairAnalysis: negative degree bound", lambda: PairAnalysis(X, Y, -1), ValueError),
    ("sop_witness_by_support: negative degree bound", lambda: sop_witness_by_support(X, Y, -3), ValueError),
    ("invariant_record: negative degree bound", lambda: invariant_record(X, Y, -1), ValueError),
    ("full_report: negative degree bound", lambda: full_report(X, Y, degree_bound=-1), ValueError),
    ("CorpusParams: negative degree bound", lambda: CorpusParams(degree_bound=-1), ValueError),
    # moduli and characteristics are primes below 2**31
    ("rank_mod_p: composite modulus", lambda: rank_mod_p([[2]], 4), ValueError),
    ("rank_mod_p: Carmichael modulus", lambda: rank_mod_p([[2]], 561), ValueError),
    ("rank_mod_p: non-integer modulus", lambda: rank_mod_p([[1]], 5.0), TypeError),
    ("RingSpec: composite characteristic", lambda: RingSpec(("x",), 2**31 - 2), ValueError),
    ("RingSpec: Carmichael characteristic", lambda: RingSpec(("x",), 561), ValueError),
    ("RingSpec: characteristic 2**31", lambda: RingSpec(("x",), 2**31), ValueError),
    ("RingSpec: non-integer characteristic", lambda: RingSpec(("x",), 5.0), TypeError),
]


class EngineRan(Exception):
    """An engine was reached on input the rules should have refused."""


@pytest.fixture
def engines_refuse(monkeypatch):
    def refuse(*args, **kwargs):
        raise EngineRan

    for module, name in (
        (invariants, "grade_by_localization"),
        (invariants.PairAnalysis, "support_cd_with"),
        (invariants.PairAnalysis, "prime_cd"),
        (invariants, "_sop_search"),
        (invariants, "ext_profile"),
        (invariants, "lc_profile"),
        (invariants, "pd_quotient"),
        (invariants, "associated_primes"),
        (slices, "_slice_dims"),
        (slices, "_member_states"),
        (slices, "_lyubeznik_faces"),
        (slices, "_taylor_faces"),
        (taylor, "_betti_relabelled"),
        (linalg, "_stack_rank"),
    ):
        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("call, error", [row[1:] for row in REFUSED], ids=[row[0] for row in REFUSED])
def test_bad_input_is_refused_before_any_engine_runs(engines_refuse, call, error):
    with pytest.raises(error):
        call()


def test_edge_values_inside_the_rules_are_accepted():
    RingSpec(("x",), 2**31 - 1)
    assert rank_mod_p([[2]], 2**31 - 1) == 1
    assert rank_mod_p([[2]], np.int64(5)) == 1
    assert ext_slice(X, Y, 0, (np.int64(1), np.int16(0))) == ext_slice(X, Y, 0, (1, 0))
    assert TABLE.dim_at(0, np.array([1, 0])) == TABLE.dim_at(0, (1, 0))
    x = PairAnalysis(X, Y, np.int64(2))
    assert x.degree_bound == 2 and type(x.degree_bound) is int
    assert minimal_generators(R2, [np.array([1, 0]), (0, 1)]).gens == ((0, 1), (1, 0))
    assert quotient(XY, (1, 0)) == Y and XY.contains_monomial((1, 1))
    assert grade(X, UNIT) is None and mu(X) == 1


def test_variable_positions_inside_the_rule_are_accepted():
    assert MonomialPrime(R2, (np.int64(1), 0, 1)).vars == (0, 1)
    assert erase_to_zero(XY, [np.int64(1)]) == zero_ideal(R2.restrict([0]))
    assert erase_to_one(XY, (1,)) == erase_to_one(XY, [np.int16(1)]) == parse_ideal(R2.restrict([0]), "x")
    assert erase_to_zero(XY, []) == XY and MonomialPrime(R2, ()).vars == ()


def test_levels_and_degree_bounds_inside_the_rules_are_accepted():
    # an integer level the table lacks answers 0, {} or "vanishes"
    assert TABLE.dim_at(5, (0, 0)) == TABLE.dim_at(-1, (0, 0)) == 0
    assert TABLE.hilbert(7) == {} and TABLE.total(-1) == 0
    assert ext_slice(X, Y, 9, (0, 0)) == local_cohomology_slice(X, Y, -1, (0, 0)) == 0
    assert ext_vanishes(X, Y, 9) and ext_vanishes_below(X, Y, -2)
    assert TABLE.total(np.int64(1)) == TABLE.total(1) and TABLE.hilbert(np.int16(1)) == TABLE.hilbert(1)
    assert ext_vanishes(X, Y, np.int64(1)) == ext_vanishes(X, Y, 1) is False
    assert PairAnalysis(X, Y, 0).degree_bound == 0 and CorpusParams(degree_bound=0).degree_bound == 0


def test_is_prime_matches_a_sieve():
    limit = 10**5
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for k in range(2, int(limit**0.5) + 1):
        if sieve[k]:
            sieve[k * k :: k] = False
    assert [m for m in range(limit) if _is_prime(m)] == np.flatnonzero(sieve).tolist()
    assert not _is_prime(561)  # a Carmichael number
    assert _is_prime(2**31 - 1)
    assert not _is_prime(2**31 - 2)


def test_analysis_only_engines_are_internal():
    # their values are public only through a checked analysis
    for name in ("grade_by_localization", "support_cd_with", "prime_cd"):
        assert name not in invariants.__all__ and not hasattr(relhom, name)
    a, I = parse_ideal(R2, "x, y"), parse_ideal(R2, "x*y")
    x = PairAnalysis(a, I)
    assert (x.localization_grade, x.support_cd, x.ass_prime_criterion) == (1, 1, True)


def test_rule_messages_are_raised_from_monomials_only():
    messages = (
        "live over different rings",
        "the relative ideal must be proper",
        "the unit ideal presents the zero module",
        "prime characteristic required",
        "does not match ring with",
        "negative exponent",
    )
    for module in (slices, taylor, invariants, linalg, properties, verifier, cli):
        source = inspect.getsource(module)
        assert not [message for message in messages if message in source], module.__name__
