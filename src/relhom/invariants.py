"""Named invariants of a pair (relative ideal a, cyclic module S/I).

Every invariant has one authoritative engine plus at least one independent
cross-check; a mismatch raises :class:`EngineDisagreementError`, which is a
bug signal and deliberately distinct from input validation errors.

:class:`PairAnalysis` is the one place a pair's numbers are computed and
cross-checked: it validates the pair once, keeps each engine's value
(``ext_profile``, ``lc_profile``, ``localization_grade``, ``support_cd``,
``pd_a``, ``ass_primes``) and runs each cross-check on those values at
most once.  The free functions ``grade``, ``cd``, ``a_id``,
``sop_witness_by_support`` and ``invariant_record`` read a fresh analysis.

Degenerate convention: when I is the unit ideal the module is zero, and
grade / cd / a-id are reported as ``None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .monomials import (
    MonomialIdeal,
    MonomialPrime,
    _check_pair,
    _mask,
    _minimal,
    associated_primes,
    degree,
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
from .taylor import depth_quotient, pd_quotient, pd_relabelled, relabelled

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
    localized ideal over the small polynomial ring.  The sets F are visited
    as bitmasks in increasing order: F qualifies when it meets the support
    of every generator of a, and its localization is zero (F is skipped)
    when a generator of I has its support outside F.  The localized ideal
    is I's generators with the variables outside F erased, and its pd is
    read from the Betti cache keyed up to relabelling
    (``taylor.relabelled``).  That pd is at most |F|, so no depth is below
    0 and the scan stops at the first F of depth 0.
    """
    n, p = a.ring.n, a.ring.char
    # F must meet every generator of a, and every generator of I lest the localization be zero
    supports = [_mask(g) for g in (*a.gens, *I.gens)]
    best: Optional[int] = None
    for fbits in range(1 << n):
        if not all(m & fbits for m in supports):
            continue
        keep = [j for j in range(n) if fbits >> j & 1]
        local = _minimal([tuple(g[j] for j in keep) for g in I.gens])
        d = fbits.bit_count() - pd_relabelled(*relabelled(local), p)
        if d == 0:
            return 0
        if best is None or d < best:
            best = d
    assert best is not None  # F = all variables always qualifies for proper I
    return best


def grade(a: MonomialIdeal, I: MonomialIdeal) -> Optional[int]:
    """grade(a, S/I): the least index with nonvanishing Ext(S/a, S/I); see :attr:`PairAnalysis.grade`."""
    return PairAnalysis(a, I).grade


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
    """cd(a, S/I): the largest nonvanishing local cohomology index; see :attr:`PairAnalysis.cd`."""
    return PairAnalysis(a, I).cd


def a_id(a: MonomialIdeal, I: MonomialIdeal) -> Optional[int]:
    """Relative injective dimension, the largest nonvanishing Ext index; see :attr:`PairAnalysis.a_id`."""
    return PairAnalysis(a, I).a_id


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


def sop_witness_by_support(a: MonomialIdeal, I: MonomialIdeal, degree_bound: int = 4) -> SopWitness:
    """Search for a relative system of parameters at the level of supports; see :attr:`PairAnalysis.sop`."""
    return PairAnalysis(a, I, degree_bound).sop


def _sop_candidates(a: MonomialIdeal, degree_bound: int) -> list[tuple[int, ...]]:
    """For every support realizable by a monomial of a within the degree
    bound, its least such monomial, in increasing order; each has exactly
    that support."""
    n = a.ring.n
    achievable = []
    for fbits in range(1, 1 << n):
        fset = frozenset(j for j in range(n) if (fbits >> j) & 1)
        best = None
        for g in a.gens:
            if support(g) <= fset:
                e = tuple(g[j] + (1 if j in fset and g[j] == 0 else 0) for j in range(n))
                if degree(e) <= degree_bound and (best is None or e < best):
                    best = e
        if best is not None:
            achievable.append(best)
    return sorted(achievable)


def _cover_bits(target: list[int], masks) -> int:
    """Bit b is set iff one of the supports ``masks`` lies in ``target[b]`` (all bitmasks)."""
    return sum(1 << b for b, t in enumerate(target) if any(m | t == t for m in masks))


# a prefix is tested for the prune only when it has more completions than
# this.  Search time (s) of the 15 wide pairs / 9-cycle / 10-cycle on one
# AMD EPYC core, Python 3.11: threshold 0: 0.038 / 2.49 / 0.030; 10: 0.018 /
# 1.16 / 0.030; 100: 0.011 / 1.16 / 0.030; 1000: 0.011 / 2.01 / 0.145;
# testing only prefixes that leave >= 2 elements: 0.021 / 1.44 / 0.149
_PRUNE_MIN_COMPLETIONS = 100


def _sop_search(a: MonomialIdeal, I: MonomialIdeal, c: Optional[int], degree_bound: int) -> SopWitness:
    """The search of :attr:`PairAnalysis.sop` for the already-checked cd ``c``.

    Walks the length-c combinations of candidates depth first, in the order
    of ``itertools.combinations``, so the first witness found is the
    lexicographically first.  A prefix f_1..f_k (k < c) with more than
    ``_PRUNE_MIN_COMPLETIONS`` completions is cut when
    cd(a, S/(I + (f_1..f_k))) > c - k: the remaining c - k elements would
    have to generate a up to radical modulo that ideal, so no completion of
    the prefix is a witness.

    The candidates are monomials (``_sop_candidates``), one per realizable
    support, and are read through their supports.  A leaf is tested by
    cover bits: each minimal support of rad(a + I), the target, has one
    bit, and a support sets the bits of the target supports that contain
    it.  Every chosen support contains a target support, and
    the target is an antichain, so the radical of I plus the prefix is the
    target iff the bits of I's generators and of the prefix cover them all.
    """
    if c is None:
        raise ValueError("degenerate module: cd undefined")
    if c == 0:
        return SopWitness(SOP_DEGENERATE_ZERO_LENGTH, (), degree_bound)
    target = [_mask(g) for g in radical(sum_ideals(a, I)).gens]
    full = (1 << len(target)) - 1
    base = _cover_bits(target, [_mask(g) for g in I.gens])
    achievable = _sop_candidates(a, degree_bound)
    bits = [_cover_bits(target, [_mask(e)]) for e in achievable]

    def walk(start: int, prefix: tuple, covered: int):
        left = c - len(prefix)
        if left == 0:
            return prefix if covered == full else None
        if prefix and math.comb(len(achievable) - start, left) > _PRUNE_MIN_COMPLETIONS:
            J = sum_ideals(I, minimal_generators(a.ring, prefix))
            if cd_by_support(a, J) > left:
                return None
        for k in range(start, len(achievable) - left + 1):
            found = walk(k + 1, prefix + (achievable[k],), covered | bits[k])
            if found is not None:
                return found
        return None

    found = walk(0, (), base)
    if found is None:
        return SopWitness(SOP_NONE_AMONG_MONOMIALS, (), degree_bound)
    return SopWitness(SOP_FOUND, found, degree_bound)


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

    The inputs are validated here, once, before any scan.  Each engine's
    value (the class-engine ``ext_profile`` and ``lc_profile``, the
    ``localization_grade``, the ``support_cd``, ``pd_a`` = pd(S/a) and the
    associated primes ``ass_primes`` of S/I) is computed on first use and
    kept, and ``grade``, ``cd``, ``a_id`` and ``ass_prime_criterion`` run
    their cross-checks on those values, so each cross-check runs once per
    pair however many verdicts or corpus suites read its number.  ``ring``
    is the analysis of (a, S) with the same degree bound.  For the unit
    ideal I (the zero module) grade, cd and a-id are ``None`` and no engine
    runs.
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
    def ext_profile(self) -> frozenset[int]:
        """Indices i with Ext^i(S/a, S/I) != 0, from the class engine."""
        return ext_profile(self.a, self.I)

    @cached_property
    def lc_profile(self) -> frozenset[int]:
        """Indices of the nonvanishing local cohomology of S/I supported on a, from the class engine."""
        return lc_profile(self.a, self.I)

    @cached_property
    def localization_grade(self) -> int:
        """grade by the localized-depth formula."""
        return grade_by_localization(self.a, self.I)

    @cached_property
    def support_cd(self) -> int:
        """cd by the minimal-primes fast path."""
        return cd_by_support(self.a, self.I)

    @cached_property
    def pd_a(self) -> int:
        """pd(S/a)."""
        return pd_quotient(self.a)

    @cached_property
    def ass_primes(self) -> tuple[MonomialPrime, ...]:
        """The associated primes of S/I, from the polarization covers."""
        return associated_primes(self.I)

    @cached_property
    def ass_prime_criterion(self) -> bool:
        """Whether cd(a, S/P) equals the grade for every associated prime P of
        S/I, the relative-CM criterion of Prop. 2.11(f)."""
        return all(cd_of_prime_quotient(self.a, P) == self.grade for P in self.ass_primes)

    @cached_property
    def grade(self) -> Optional[int]:
        """The least index with nonvanishing Ext(S/a, S/I).

        Cross-checked against the least nonvanishing local cohomology index
        and against the localized-depth formula.
        """
        if self.degenerate:
            return None
        by_ext, by_cech, by_depth = min(self.ext_profile), min(self.lc_profile), self.localization_grade
        if not (by_ext == by_cech == by_depth):
            raise EngineDisagreementError(
                f"grade({self.a}; {self.I})",
                {"ext_box": by_ext, "cech_box": by_cech, "localization": by_depth},
            )
        return by_ext

    @cached_property
    def cd(self) -> Optional[int]:
        """The largest nonvanishing local cohomology index.

        Cross-checked against the minimal-primes fast path.
        """
        if self.degenerate:
            return None
        by_cech, by_primes = max(self.lc_profile), self.support_cd
        if by_cech != by_primes:
            raise EngineDisagreementError(
                f"cd({self.a}; {self.I})",
                {"cech_box": by_cech, "minimal_primes_pd": by_primes},
            )
        return by_cech

    @cached_property
    def a_id(self) -> Optional[int]:
        """Relative injective dimension: the largest nonvanishing Ext index.

        Must coincide with the projective dimension of S/a for every nonzero
        module; that identity is checked, not assumed.
        """
        if self.degenerate:
            return None
        by_ext, expected = max(self.ext_profile), self.pd_a
        if by_ext != expected:
            raise EngineDisagreementError(
                f"a_id({self.a}; {self.I})",
                {"ext_box": by_ext, "pd_of_quotient": expected},
            )
        return by_ext

    @cached_property
    def sop(self) -> SopWitness:
        """A relative system of parameters, searched at the level of supports.

        A found witness (a length-cd sequence of monomials of a with the
        radical of a + I) certifies that the arithmetic rank equals cd;
        ``none_among_monomials`` is no proof of nonexistence.  Only the
        squarefree support of each element affects the radical condition,
        and a support is realizable by a monomial of a within the degree
        bound iff some generator fits under it cheaply enough, so this finds
        a witness iff an exhaustive search over the monomials of a does, at
        a fraction of the cost; the returned witness may differ.  Raises
        ValueError for the zero module.
        """
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
