"""Exact relative homological invariants of monomial ideals.

The package computes grade, cohomological dimension, relative injective
dimension and arithmetic-rank bounds for pairs (a, S/I) of monomial ideals
over a prime-field polynomial ring, decides the relative
Cohen-Macaulay / maximal Cohen-Macaulay / Gorenstein / regular properties,
and ships a randomized harness that cross-checks every engine against
independent ones.
"""

from .invariants import (
    EngineDisagreementError,
    InvariantRecord,
    SopWitness,
    a_id,
    cd,
    grade,
    invariant_record,
    is_monomial_regular_sequence,
    mu,
    sop_witness_by_support,
)
from .monomials import (
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
    unit_ideal,
    zero_ideal,
)
from .properties import (
    PropertyReport,
    full_report,
    is_relative_cm,
    is_relative_gorenstein,
    is_relative_max_cm,
    is_relative_regular_module,
    is_relative_regular_ring,
)
from .slices import (
    DegreeBox,
    ext_profile,
    ext_slice,
    ext_table,
    ext_vanishes,
    lc_profile,
    lc_table,
    local_cohomology_slice,
)
from .taylor import betti_numbers, depth_quotient, pd_quotient
from .verifier import (
    EXAMPLE_IDS,
    CorpusParams,
    corpus_digest,
    corpus_instances,
    random_ideal,
    reproduce_example,
    run_all_suites,
    run_suite,
)

__version__ = "0.1.0"
