"""Named invariants of a pair (relative ideal a, cyclic module S/I).

Every invariant has one authoritative engine plus at least one independent
cross-check; a mismatch raises :class:`EngineDisagreementError`, which is a
bug signal and deliberately distinct from input validation errors.

Degenerate convention: when I is the unit ideal the module is zero, and
grade / cd / a-id are reported as ``None``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .monomials import (
    MonomialIdeal,
    MonomialPrime,
    _check_pair,
    degree,
    erase_to_one,
    erase_to_zero,
    minimal_generators,
    minimal_primes,
    quotient,
    quotient_dimension,
    radical,
    sum_ideals,
    support,
    zero_ideal,
)
from .slices import ext_profile, lc_profile
from .taylor import depth_quotient, pd_quotient

__all__ = [
    "EngineDisagreementError",
    "SopWitness",
    "SOP_FOUND",
    "SOP_NONE_AMONG_MONOMIALS",
    "SOP_DEGENERATE_ZERO_LENGTH",
    "InvariantRecord",
    "mu",
    "grade",
    "grade_by_localization",
    "cd",
    "cd_by_support",
    "cd_of_prime_quotient",
    "a_id",
    "is_monomial_regular_sequence",
    "sop_witness_by_support",
    "PairAnalysis",
    "invariant_record",
]


class EngineDisagreementError(RuntimeError):
    """Independent engines produced different values; always an internal bug."""

    def __init__(self, what: str, values: dict):
        detail = ", ".join(f"{k}={v}" for k, v in values.items())
        super().__init__(f"engine disagreement on {what}: {detail}")
        self.what = what
        self.values = dict(values)


def mu(a: MonomialIdeal) -> int:
    """Minimal number of generators."""
    if a.is_unit:
        raise ValueError("the relative ideal must be proper")
    return len(a.gens)


def grade_by_localization(a: MonomialIdeal, I: MonomialIdeal) -> int:
    """grade as the least localized depth over monomial primes containing a.

    Localizing S/I at the prime on a variable set F inverts the other
    variables; depth there is |F| minus the projective dimension of the
    localized ideal over the small polynomial ring.  Primes with zero
    localization are skipped.
    """
    n = a.ring.n
    best: Optional[int] = None
    for fbits in range(1 << n):
        fset = frozenset(j for j in range(n) if (fbits >> j) & 1)
        if not all(support(g) & fset for g in a.gens):
            continue
        local = erase_to_one(I, frozenset(range(n)) - fset)
        if local.is_unit:
            continue
        d = len(fset) - pd_quotient(local)
        if best is None or d < best:
            best = d
    assert best is not None  # F = all variables always qualifies for proper I
    return best


def grade(a: MonomialIdeal, I: MonomialIdeal) -> Optional[int]:
    """grade(a, S/I): the least index with nonvanishing Ext(S/a, S/I).

    Cross-checked against the least nonvanishing local cohomology index and
    against the localized-depth formula.
    """
    _check_pair(a, I)
    if I.is_unit:
        return None
    by_ext = min(ext_profile(a, I))
    by_cech = min(lc_profile(a, I))
    by_depth = grade_by_localization(a, I)
    if not (by_ext == by_cech == by_depth):
        raise EngineDisagreementError(
            f"grade({a}; {I})",
            {"ext_box": by_ext, "cech_box": by_cech, "localization": by_depth},
        )
    return by_ext


def cd_of_prime_quotient(a: MonomialIdeal, P: MonomialPrime) -> Optional[int]:
    """Cohomological dimension of a on the quotient by a monomial prime.

    The image of a in the residue polynomial ring is a monomial ideal, and
    cd there equals the projective dimension of the quotient by its radical
    (local cohomology only sees the radical).  The unit image means the
    quotient module is not supported on a; the contribution is skipped.
    """
    img = erase_to_zero(a, P.vars)
    if img.is_unit:
        return None
    return pd_quotient(radical(img))


def cd_by_support(a: MonomialIdeal, I: MonomialIdeal) -> int:
    """cd via minimal primes: the maximum of cd on the minimal support quotients."""
    vals = [cd_of_prime_quotient(a, P) for P in minimal_primes(I)]
    vals = [v for v in vals if v is not None]
    assert vals, "a proper relative ideal always contributes on some minimal prime"
    return max(vals)


def cd(a: MonomialIdeal, I: MonomialIdeal) -> Optional[int]:
    """cd(a, S/I): the largest nonvanishing local cohomology index.

    Cross-checked against the minimal-primes fast path.
    """
    _check_pair(a, I)
    if I.is_unit:
        return None
    by_cech = max(lc_profile(a, I))
    by_primes = cd_by_support(a, I)
    if by_cech != by_primes:
        raise EngineDisagreementError(
            f"cd({a}; {I})",
            {"cech_box": by_cech, "minimal_primes_pd": by_primes},
        )
    return by_cech


def a_id(a: MonomialIdeal, I: MonomialIdeal) -> Optional[int]:
    """Relative injective dimension: the largest nonvanishing Ext index.

    Must coincide with the projective dimension of S/a for every nonzero
    module; that identity is checked, not assumed.
    """
    _check_pair(a, I)
    if I.is_unit:
        return None
    by_ext = max(ext_profile(a, I))
    expected = pd_quotient(a)
    if by_ext != expected:
        raise EngineDisagreementError(
            f"a_id({a}; {I})",
            {"ext_box": by_ext, "pd_of_quotient": expected},
        )
    return by_ext


def is_monomial_regular_sequence(seq, I: MonomialIdeal) -> bool:
    """Whether the monomials form a regular sequence on S/I.

    Each element must be a nonzero-divisor modulo the previous ones, and the
    final quotient must be nonzero.
    """
    current = I
    for m in seq:
        if quotient(current, m) != current:
            return False
        current = sum_ideals(current, minimal_generators(I.ring, [m]))
    return current.is_proper


@dataclass(frozen=True)
class SopWitness:
    """Outcome of a search for a relative system of parameters."""

    status: str
    sequence: tuple[tuple[int, ...], ...]
    degree_bound: int

    @property
    def found(self) -> bool:
        return self.status in (SOP_FOUND, SOP_DEGENERATE_ZERO_LENGTH)


SOP_FOUND = "found"
SOP_NONE_AMONG_MONOMIALS = "none_among_monomials"
SOP_DEGENERATE_ZERO_LENGTH = "degenerate_zero_length"


def _radical_supports(supports) -> frozenset[frozenset[int]]:
    """Minimal antichain of a family of supports; a canonical form of the radical."""
    supports = set(supports)
    return frozenset(s for s in supports if not any(t < s for t in supports))


def sop_witness_by_support(a: MonomialIdeal, I: MonomialIdeal, degree_bound: int = 4) -> SopWitness:
    """Search for a relative system of parameters at the level of supports.

    A found witness (a length-cd sequence of monomials of a with the radical
    of a + I) certifies that the arithmetic rank equals cd;
    ``none_among_monomials`` is no proof of nonexistence.  Only the
    squarefree support of each element affects the radical condition, and a
    support is realizable by a monomial of a within the degree bound iff
    some generator fits under it cheaply enough, so this finds a witness iff
    an exhaustive search over the monomials of a does, at a fraction of the
    cost; the returned witness may differ.
    """
    _check_pair(a, I)
    return _sop_search(a, I, cd(a, I), degree_bound)


def _sop_search(a: MonomialIdeal, I: MonomialIdeal, c: Optional[int], degree_bound: int) -> SopWitness:
    """The search of :func:`sop_witness_by_support` for the already-checked cd ``c``."""
    if c is None:
        raise ValueError("degenerate module: cd undefined")
    if c == 0:
        return SopWitness(SOP_DEGENERATE_ZERO_LENGTH, (), degree_bound)
    n = a.ring.n
    target = _radical_supports(map(support, sum_ideals(a, I).gens))
    base = _radical_supports(map(support, I.gens))
    achievable: list[tuple[frozenset[int], tuple[int, ...]]] = []
    for fbits in range(1, 1 << n):
        fset = frozenset(j for j in range(n) if (fbits >> j) & 1)
        best = None
        for g in a.gens:
            if support(g) <= fset:
                e = tuple(g[j] + (1 if j in fset and g[j] == 0 else 0) for j in range(n))
                if degree(e) <= degree_bound and (best is None or e < best):
                    best = e
        if best is not None:
            achievable.append((fset, best))
    achievable.sort(key=lambda item: item[1])
    for combo in itertools.combinations(achievable, c):
        if _radical_supports(base.union(fs for fs, _ in combo)) == target:
            return SopWitness(SOP_FOUND, tuple(e for _, e in combo), degree_bound)
    return SopWitness(SOP_NONE_AMONG_MONOMIALS, (), degree_bound)


@dataclass(frozen=True)
class InvariantRecord:
    """All numeric invariants of a pair, with the engine that produced each."""

    grade: Optional[int]
    cd: Optional[int]
    mu: int
    a_id: Optional[int]
    pd: Optional[int]
    depth: Optional[int]
    dim: Optional[int]
    ara_lower: Optional[int]
    ara_upper: Optional[int]
    provenance: tuple[tuple[str, str], ...]

    def to_json(self) -> dict:
        return {
            "grade": self.grade,
            "cd": self.cd,
            "mu": self.mu,
            "a_id": self.a_id,
            "pd": self.pd,
            "depth": self.depth,
            "dim": self.dim,
            "ara_lower": self.ara_lower,
            "ara_upper": self.ara_upper,
            "provenance": dict(self.provenance),
        }


class PairAnalysis:
    """The cross-checked numbers of one pair (a, S/I), each computed at most once.

    Each number is computed on first use through the engines above, so a
    cross-check runs once per pair however many verdicts read its number.
    ``ring`` is the analysis of (a, S) with the same degree bound.  The
    inputs are validated up front, before any scan.
    """

    def __init__(self, a: MonomialIdeal, I: MonomialIdeal, degree_bound: int = 4):
        _check_pair(a, I)
        self.a, self.I, self.degree_bound = a, I, degree_bound
        self.mu = mu(a)
        self.degenerate = I.is_unit  # the module is zero

    @cached_property
    def ring(self) -> "PairAnalysis":
        if self.I.is_zero:
            return self
        return PairAnalysis(self.a, zero_ideal(self.a.ring), self.degree_bound)

    @cached_property
    def grade(self) -> Optional[int]:
        return grade(self.a, self.I)

    @cached_property
    def cd(self) -> Optional[int]:
        return cd(self.a, self.I)

    @cached_property
    def a_id(self) -> Optional[int]:
        return a_id(self.a, self.I)

    @cached_property
    def ext_profile(self) -> frozenset[int]:
        return ext_profile(self.a, self.I)

    @cached_property
    def sop(self) -> SopWitness:
        return _sop_search(self.a, self.I, self.cd, self.degree_bound)

    @cached_property
    def generators_regular(self) -> bool:
        """Whether the minimal generators of a form a regular sequence on S/I."""
        return is_monomial_regular_sequence(self.a.gens, self.I)

    @cached_property
    def record(self) -> InvariantRecord:
        """Full invariant record.

        The arithmetic-rank interval is [cd, mu]; a found system of
        parameters tightens the upper end to cd.
        """
        m = self.mu
        provenance = [
            ("grade", "ext_box"),
            ("cd", "cech_box"),
            ("a_id", "ext_box"),
            ("pd", "taylor"),
            ("depth", "taylor+auslander_buchsbaum"),
            ("dim", "minimal_primes"),
            ("ara", "interval[cd,mu]"),
        ]
        if self.degenerate:
            return InvariantRecord(None, None, m, None, None, None, None, None, None, tuple(provenance))
        g, c, ai = self.grade, self.cd, self.a_id
        if not (g <= c <= m):
            raise EngineDisagreementError(
                f"grade <= cd <= mu for ({self.a}; {self.I})", {"grade": g, "cd": c, "mu": m}
            )
        ara_upper = m
        if self.sop.found:
            ara_upper = c
            provenance[-1] = ("ara", "sop_found")
        return InvariantRecord(
            grade=g,
            cd=c,
            mu=m,
            a_id=ai,
            pd=pd_quotient(self.I),
            depth=depth_quotient(self.I),
            dim=quotient_dimension(self.I),
            ara_lower=c,
            ara_upper=ara_upper,
            provenance=tuple(provenance),
        )


def invariant_record(a: MonomialIdeal, I: MonomialIdeal, degree_bound: int = 4) -> InvariantRecord:
    """Full invariant record for the pair (a, S/I); see :attr:`PairAnalysis.record`."""
    return PairAnalysis(a, I, degree_bound).record
