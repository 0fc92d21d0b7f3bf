"""Named invariants of a pair (relative ideal a, cyclic module S/I).

Every invariant has one authoritative engine plus at least one independent
cross-check; a mismatch raises :class:`EngineDisagreementError`, which is a
bug signal and deliberately distinct from input validation errors.

:class:`PairAnalysis` is the one place a pair's numbers are computed and
cross-checked: it validates the pair once, keeps each engine's value
(``profiles``, both class-engine profiles from one call,
``localization_grade``, ``support_cd``, ``pd_a``, ``ass_primes``) and runs
each cross-check on those values at most once.  There each pair-level
question is decided in one place: the profiles and the localization grade
run on the variables some generator uses (``used_pair``; everything else
stays on the full ring), I's minimal primes are computed once
(``minimal_prime_masks``), each cd(a, S/P) on a monomial prime P once
(``prime_cd``), and the parameter-system search, of length ``support_cd``,
tests every node, leaves included, by one rule (``support_cd_with``), so it
walks no table.  The free functions ``mu``, ``grade``, ``cd``,
``a_id``, ``sop_witness_by_support`` and ``invariant_record`` read a fresh
analysis.  ``grade_by_localization`` checks nothing; it is internal, and
runs on the pair of an analysis.

Degenerate convention: when I is the unit ideal the module is zero, and
grade / cd / a-id are reported as ``None``.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional

import numpy as np

from .monomials import (
    MonomialIdeal,
    MonomialPrime,
    _check_module,
    _check_pair,
    _mask,
    _minimal,
    _minimal_covers,
    associated_primes,
    degree,
    erase_to_one,
    minimal_generators,
    quotient,
    sum_ideals,
    zero_ideal,
)
from .slices import pair_profiles
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
    "cd",
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
    """Minimal number of generators of the relative ideal; see :attr:`PairAnalysis.mu`."""
    return PairAnalysis(a, zero_ideal(a.ring)).mu


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
    0 and the scan stops at the first F of depth 0.  Only the masks that
    meet every support are visited: a mask is a high part, a Python int in
    steps of 2^16, plus 16 low bits, and the low parts that meet every
    support the high part misses are read off one numpy array of each
    support's test on every low part.  An analysis runs this on its pair restricted to the
    variables some generator uses (``PairAnalysis.used_pair``).  The caller
    has checked the pair and that I is proper.
    """
    n, p = a.ring.n, a.ring.char
    # F must meet every generator of a, and every generator of I lest the localization be zero
    supports = [_mask(g) for g in (*a.gens, *I.gens)]
    # row k: which low parts meet the low 16 bits of support k
    meets = (np.arange(1 << min(n, 16)) & np.array([m & 0xFFFF for m in supports], dtype=np.int64)[:, None]) != 0
    best = None
    for high in range(0, 1 << n, 1 << 16):
        passes = meets[[k for k, m in enumerate(supports) if not m & high]].all(axis=0)
        for fbits in (high | part for part in np.flatnonzero(passes).tolist()):
            keep = [j for j in range(n) if fbits >> j & 1]
            local = _minimal([tuple(g[j] for j in keep) for g in I.gens])
            d = fbits.bit_count() - pd_relabelled(*relabelled(local), p)
            if d == 0:
                return 0
            if best is None or d < best:
                best = d
    assert best is not None  # F = every variable qualifies for proper I
    return best


def grade(a: MonomialIdeal, I: MonomialIdeal) -> Optional[int]:
    """grade(a, S/I): the least index with nonvanishing Ext(S/a, S/I); see :attr:`PairAnalysis.grade`."""
    return PairAnalysis(a, I).grade


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
    that support.  A generator g realizes exactly the supports supp(g) u E,
    E at most degree_bound - deg(g) variables outside supp(g), least by g
    times the variables of E; only those are visited.
    """
    best: dict[int, tuple[int, ...]] = {}
    for g in a.gens:
        outside = [j for j, x in enumerate(g) if not x]
        for k in range(min(degree_bound - degree(g), len(outside)) + 1):
            for extra in itertools.combinations(outside, k):
                e = tuple(x + (j in extra) for j, x in enumerate(g))
                key = _mask(e)
                if key not in best or e < best[key]:
                    best[key] = e
    return sorted(best.values())


def _sop_search(x: "PairAnalysis") -> SopWitness:
    """The search of :attr:`PairAnalysis.sop` on the analysis ``x`` of a nonzero module, for c = ``x.support_cd``.

    Walks the length-c combinations of candidates depth first, in the order
    of ``itertools.combinations``, so the first witness found is the
    lexicographically first.  Every nonempty prefix f_1..f_k is cut when
    cd(a, S/(I + (f_1..f_k))) > c - k: the remaining c - k elements would
    have to generate a up to radical modulo that ideal.  At k = c this is
    the witness test, as cd(a, S/J) = 0 iff a lies in rad J, and
    rad(I + (f_1..f_c)) lies in rad(a + I).  That cd is
    ``x.support_cd_with``, on bitmasks.  The candidates are monomials
    (``_sop_candidates``), one per realizable support.
    """
    c, degree_bound = x.support_cd, x.degree_bound
    if c == 0:
        return SopWitness(SOP_DEGENERATE_ZERO_LENGTH, (), degree_bound)
    achievable = _sop_candidates(x.a, degree_bound)

    def walk(start: int, prefix: tuple):
        left = c - len(prefix)
        if prefix and x.support_cd_with(prefix) > left:
            return None
        if left == 0:
            return prefix
        for k in range(start, len(achievable) - left + 1):
            found = walk(k + 1, prefix + (achievable[k],))
            if found is not None:
                return found
        return None

    found = walk(0, ())
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
    value (the class-engine ``profiles``, read as ``ext_profile`` and
    ``lc_profile``, the ``localization_grade``, the ``support_cd``,
    ``pd_a`` = pd(S/a) and the associated primes ``ass_primes`` of S/I) is
    computed on first use and kept, as is each cd(a, S/P) that
    ``prime_cd`` computes, and ``grade``, ``cd``, ``a_id`` and
    ``ass_prime_criterion`` run their cross-checks on those values, so each
    cross-check runs once per pair however many verdicts or corpus suites
    read its number.  Every equality cross-check, here and in the property
    verdicts, goes through ``_agree``.  ``ring`` is the analysis of (a, S)
    with the same degree bound.  For the unit ideal I (the zero module)
    grade, cd and a-id are ``None`` and no engine runs.
    """

    def __init__(self, a: MonomialIdeal, I: MonomialIdeal, degree_bound: int = 4):
        _check_pair(a, I)
        self.a, self.I, self.degree_bound = a, I, operator.index(degree_bound)
        if self.degree_bound < 0:
            raise ValueError(f"the degree bound must be at least 0, got {self.degree_bound}")
        self.mu = len(a.gens)  # the minimal number of generators
        self.degenerate = I.is_unit  # the module is zero
        self._prime_cds: dict[int, int] = {}  # cd(a, S/P) by the variable bitmask of P

    def _agree(self, what: str, **values):
        """The value every engine gave for ``what`` of this pair, in keyword
        order; raises EngineDisagreementError if any two differ."""
        first, *rest = values.values()
        if any(value != first for value in rest):
            raise EngineDisagreementError(f"{what}({self.a}; {self.I})", values)
        return first

    @cached_property
    def ring(self) -> "PairAnalysis":
        if self.I.is_zero:
            return self
        return PairAnalysis(self.a, zero_ideal(self.a.ring), self.degree_bound)

    @cached_property
    def used_pair(self) -> tuple[MonomialIdeal, MonomialIdeal]:
        """(a, I) with the variables no generator uses erased to 1, or (a, I) if none is unused: S is a
        polynomial ring over that ring, a flat extension, so no profile and no grade changes."""
        used = reduce(operator.or_, map(_mask, (*self.a.gens, *self.I.gens)), 0)
        unused = [j for j in range(self.a.ring.n) if not used >> j & 1]
        if not unused:
            return self.a, self.I
        return erase_to_one(self.a, unused), erase_to_one(self.I, unused)

    @cached_property
    def profiles(self) -> tuple[frozenset[int], frozenset[int]]:
        """(``ext_profile``, ``lc_profile``) from the class engine on the used variables, both from one
        ``slices.pair_profiles`` call: one walk when the Ext class grid has at most ``_STATE_SPAN`` classes."""
        return pair_profiles(*self.used_pair)

    @property
    def ext_profile(self) -> frozenset[int]:
        """Indices i with Ext^i(S/a, S/I) != 0."""
        return self.profiles[0]

    @property
    def lc_profile(self) -> frozenset[int]:
        """Nonvanishing local-cohomology indices of S/I supported on a."""
        return self.profiles[1]

    @cached_property
    def localization_grade(self) -> int:
        """grade by the localized-depth formula on the used variables; the module must be nonzero."""
        _check_module(self.I)
        return grade_by_localization(*self.used_pair)

    def prime_cd(self, prime: int) -> int:
        """cd(a, S/P) for the monomial prime P on the variables of the bitmask ``prime``, computed once per P.

        The image of a in the residue polynomial ring is generated by a's
        generators that avoid P, and cd there equals pd of the quotient by
        its radical, generated by their supports (local cohomology only sees
        the radical), read from the Betti cache.  A proper a has no constant
        generator, so the image is never the unit ideal.
        """
        if prime not in self._prime_cds:
            supports = [tuple(int(e > 0) for e in g) for g in self.a.gens if not _mask(g) & prime]
            self._prime_cds[prime] = pd_relabelled(*relabelled(_minimal(supports)), self.a.ring.char)
        return self._prime_cds[prime]

    @cached_property
    def minimal_prime_masks(self) -> list[int]:
        """I's minimal primes as variable bitmasks: the minimal vertex covers of its generator supports."""
        return _minimal_covers(map(_mask, self.I.gens))

    def support_cd_with(self, extra=()) -> int:
        """cd(a, S/(I + (extra))) for monomials ``extra`` that leave I + (extra) proper.

        Local cohomology of S/J supported on a vanishes above the largest
        cd(a, S/P) over the minimal primes P of J, and reaches it.  Those
        primes are I's minimal primes extended to cover the supports of
        ``extra`` too, taken on bitmasks, and each cd(a, S/P) is
        ``prime_cd``.
        """
        return max(map(self.prime_cd, _minimal_covers(map(_mask, extra), self.minimal_prime_masks)))

    @cached_property
    def support_cd(self) -> int:
        """cd by the minimal-primes fast path; the module must be nonzero."""
        _check_module(self.I)
        return self.support_cd_with(())

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
        return all(self.prime_cd(sum(1 << j for j in P.vars)) == self.grade for P in self.ass_primes)

    @cached_property
    def grade(self) -> Optional[int]:
        """The least index with nonvanishing Ext(S/a, S/I).

        Cross-checked against the least nonvanishing local cohomology index
        and against the localized-depth formula; both profiles are
        ``profiles``.
        """
        if self.degenerate:
            return None
        ext, lc = self.profiles
        return self._agree("grade", ext_box=min(ext), cech_box=min(lc), localization=self.localization_grade)

    @cached_property
    def cd(self) -> Optional[int]:
        """The largest nonvanishing local cohomology index.

        Cross-checked against the minimal-primes fast path.
        """
        if self.degenerate:
            return None
        return self._agree("cd", cech_box=max(self.lc_profile), minimal_primes_pd=self.support_cd)

    @cached_property
    def a_id(self) -> Optional[int]:
        """Relative injective dimension: the largest nonvanishing Ext index.

        Must coincide with the projective dimension of S/a for every nonzero
        module; that identity is checked, not assumed.
        """
        if self.degenerate:
            return None
        return self._agree("a_id", ext_box=max(self.ext_profile), pd_of_quotient=self.pd_a)

    @cached_property
    def sop(self) -> SopWitness:
        """A relative system of parameters, searched at the level of supports.

        A found witness (a length-cd sequence of monomials of a with the
        radical of a + I, that is with cd(a, S/(I + sequence)) = 0) certifies
        that the arithmetic rank equals cd; ``none_among_monomials`` is no
        proof of nonexistence.  Candidates are monomials of the full ring.  Only the
        squarefree support of each element affects the radical condition,
        and a support is realizable by a monomial of a within the degree
        bound iff some generator fits under it cheaply enough, so this finds
        a witness iff an exhaustive search over the monomials of a does, at
        a fraction of the cost; the returned witness may differ.  Its length
        is ``support_cd``, so the search walks no table; ``record`` reads
        ``cd``, which checks that length against the Cech profile, first.
        Raises ValueError for the zero module.
        """
        _check_module(self.I)
        return _sop_search(self)

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
            dim=self.I.ring.n - min(P.bit_count() for P in self.minimal_prime_masks),
            ara_lower=c,
            ara_upper=ara_upper,
            provenance=tuple(provenance),
        )


def invariant_record(a: MonomialIdeal, I: MonomialIdeal, degree_bound: int = 4) -> InvariantRecord:
    """Full invariant record for the pair (a, S/I); see :attr:`PairAnalysis.record`."""
    return PairAnalysis(a, I, degree_bound).record
