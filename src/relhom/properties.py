"""Decision procedures for the relative property lattice.

Each predicate is computed from its definition and cross-checked against an
equivalent characterization; disagreement raises
:class:`~relhom.invariants.EngineDisagreementError`.

Degenerate convention (I the unit ideal, so the module is zero): relative
Cohen-Macaulay and relative regular hold by the zero-module branch of their
definitions, while maximal Cohen-Macaulay and Gorenstein are reported as
not-applicable (``None``) because their comparisons presuppose a nonzero
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .invariants import (
    EngineDisagreementError,
    InvariantRecord,
    PairAnalysis,
    SopWitness,
)
from .monomials import MonomialIdeal, format_monomial, zero_ideal
from .slices import DegreeBox

__all__ = [
    "PropertyReport",
    "Witnesses",
    "is_relative_cm",
    "is_relative_max_cm",
    "is_relative_gorenstein",
    "is_relative_regular_ring",
    "is_relative_regular_module",
    "full_report",
]


# Each verdict is a derivation over one PairAnalysis; None marks a verdict
# that is not applicable to the zero module.

def _cm(x: PairAnalysis) -> bool:
    if x.degenerate:
        return True
    return x._agree("relative CM", grade_eq_cd=x.grade == x.cd, ass_prime_criterion=x.ass_prime_criterion)


def _max_cm(x: PairAnalysis) -> Optional[bool]:
    if x.degenerate:
        return None
    return x.grade == x.ring.cd


def _gorenstein(x: PairAnalysis) -> Optional[bool]:
    if x.degenerate:
        return None
    c_ring = x.ring.cd
    return x._agree(
        "relative Gorenstein",
        profile_concentrated=x.ext_profile == frozenset({c_ring}),
        max_cm_and_upper_vanishing=_max_cm(x) and max(x.ext_profile) <= c_ring,
    )


def _regular_ring(x: PairAnalysis) -> bool:
    return x.ring.grade == x.mu


def _generator_witness(x: PairAnalysis) -> bool:
    """Whether the minimal generators of a form a regular sequence on both S/I and S."""
    return x.generators_regular and x.ring.generators_regular


def _regular_module(x: PairAnalysis) -> bool:
    if x.degenerate:
        return True
    numeric = x.grade == x.ring.grade == x.mu
    witness = _generator_witness(x)
    if witness and not numeric:
        raise EngineDisagreementError(
            f"relative regular({x.a}; {x.I})",
            {"numeric": numeric, "generator_regular_sequence": witness},
        )
    return numeric


def _applicable(verdict: Optional[bool]) -> bool:
    if verdict is None:
        raise ValueError("degenerate module: the comparison needs a nonzero module")
    return verdict


def is_relative_cm(a: MonomialIdeal, I: MonomialIdeal) -> bool:
    """Relative Cohen-Macaulay: grade equals cd (zero modules qualify).

    Cross-check: cd on the quotient by every associated prime of I must
    equal the grade.
    """
    return _cm(PairAnalysis(a, I))


def is_relative_max_cm(a: MonomialIdeal, I: MonomialIdeal) -> bool:
    """Relative maximal Cohen-Macaulay: grade on the module equals cd on the ring."""
    return _applicable(_max_cm(PairAnalysis(a, I)))


def is_relative_gorenstein(a: MonomialIdeal, I: MonomialIdeal) -> bool:
    """Relative Gorenstein: Ext(S/a, S/I) concentrated in index cd(a, S).

    Cross-check: maximal Cohen-Macaulay together with vanishing above that
    index decides the same property.
    """
    return _applicable(_gorenstein(PairAnalysis(a, I)))


def is_relative_regular_ring(a: MonomialIdeal) -> bool:
    """Relative regular ring: grade on the ring equals the number of generators."""
    return _regular_ring(PairAnalysis(a, zero_ideal(a.ring)))


def is_relative_regular_module(a: MonomialIdeal, I: MonomialIdeal) -> bool:
    """Relative regular module: grade(a, S/I) = grade(a, S) = mu(a).

    Zero modules qualify.  One-sided witness cross-check: if the minimal
    generators form a regular sequence on both S/I and S, the numeric
    verdict must be positive.
    """
    return _regular_module(PairAnalysis(a, I))


@dataclass(frozen=True)
class Witnesses:
    """Evidence attached to a report: a parameter-system witness and, when the
    generators themselves form the required regular sequence, that sequence."""

    sop: Optional[SopWitness]
    regular_sequence: Optional[tuple[tuple[int, ...], ...]]

    def to_json(self, ring) -> dict:
        sop = None
        if self.sop is not None:
            sop = {
                "status": self.sop.status,
                "sequence": [format_monomial(ring, e) for e in self.sop.sequence],
                "degree_bound": self.sop.degree_bound,
            }
        seq = None
        if self.regular_sequence is not None:
            seq = [format_monomial(ring, e) for e in self.regular_sequence]
        return {"sop": sop, "regular_sequence": seq}


@dataclass(frozen=True)
class PropertyReport:
    """Verdicts for the relative property lattice plus supporting data."""

    rel_cm: Optional[bool]
    rel_max_cm: Optional[bool]
    rel_gorenstein: Optional[bool]
    rel_regular_ring: bool
    rel_regular_module: Optional[bool]
    chain_consistent: bool
    witnesses: Witnesses
    invariants: InvariantRecord
    char: int
    box: tuple[int, ...]

    def to_json(self, ring) -> dict:
        return {
            "rel_cm": self.rel_cm,
            "rel_max_cm": self.rel_max_cm,
            "rel_gorenstein": self.rel_gorenstein,
            "rel_regular_ring": self.rel_regular_ring,
            "rel_regular_module": self.rel_regular_module,
            "chain_consistent": self.chain_consistent,
            "witnesses": self.witnesses.to_json(ring),
            "invariants": self.invariants.to_json(),
            "char": self.char,
            "box": list(self.box),
        }


def _implies(p: Optional[bool], q: Optional[bool]) -> bool:
    """p => q, skipping a not-applicable (None) entry on either side."""
    return p is not True or q is not False


def full_report(
    a: MonomialIdeal,
    I: MonomialIdeal,
    pad: int = 0,
    degree_bound: int = 4,
) -> PropertyReport:
    """All property verdicts, witnesses and invariants for the pair (a, S/I).

    ``chain_consistent`` records whether the implication chain
    regular => Gorenstein => maximal CM => CM held among the computed
    verdicts (skipping not-applicable entries).  ``pad`` only widens the
    reported ``box``; no verdict or invariant depends on it.
    """
    x = PairAnalysis(a, I, degree_bound)  # validates the pair before the box
    return _report(x, DegreeBox.for_ideals(a, I, pad=pad))


def _report(x: PairAnalysis, box: DegreeBox) -> PropertyReport:
    """The :func:`full_report` of an analysis, reporting ``box``; every verdict reads the same numbers."""
    record = x.record
    reg_ring = _regular_ring(x)
    cm, max_cm, gorenstein, reg_module = _cm(x), _max_cm(x), _gorenstein(x), _regular_module(x)
    return PropertyReport(
        rel_cm=cm,
        rel_max_cm=max_cm,
        rel_gorenstein=gorenstein,
        rel_regular_ring=reg_ring,
        rel_regular_module=reg_module,
        chain_consistent=(
            _implies(gorenstein, max_cm)
            and _implies(max_cm, cm)
            and _implies(reg_module, gorenstein)
        ),
        witnesses=Witnesses(
            sop=None if x.degenerate else x.sop,
            regular_sequence=x.a.gens if not x.degenerate and _generator_witness(x) else None,
        ),
        invariants=record,
        char=x.a.ring.char,
        box=box.rho,
    )
