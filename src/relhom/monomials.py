"""Exact arithmetic and structure theory for monomial ideals.

Ideals are held in a canonical form (divisibility-minimal generators sorted
lexicographically), so ideal equality is tuple equality and every operation
is deterministic.  All values are immutable and every function is pure, so
results can be shared freely across threads.

Conventions: the empty generator tuple is the zero ideal, a single
all-zero exponent vector is the unit ideal.  Variable subsets are given by
position, never by name.

The irreducible decomposition is read off the minimal vertex covers of the
polarization, and the associated primes are the radicals of its
components; the minimal primes are the minimal vertex covers of the
generator supports.  Both cover sets are taken on bitmasks by one helper.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "RingSpec",
    "MonomialIdeal",
    "MonomialPrime",
    "RingMismatchError",
    "ParseError",
    "minimal_generators",
    "zero_ideal",
    "unit_ideal",
    "sum_ideals",
    "intersect",
    "quotient",
    "saturation",
    "radical",
    "irreducible_decomposition",
    "associated_primes",
    "minimal_primes",
    "quotient_dimension",
    "erase_to_zero",
    "erase_to_one",
    "parse_ideal",
    "parse_monomial",
    "format_ideal",
    "format_monomial",
    "degree",
    "support",
    "MAX_EXPONENT",
]

# every exponent must fit, with room for a box bound added to it, in the
# int16 degree grids of the slice and Taylor engines (see slices.DegreeBox)
MAX_EXPONENT = 2**14 - 1


class RingMismatchError(ValueError):
    """Operands live over different rings."""


class ParseError(ValueError):
    """Malformed monomial or ideal text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# every ring a restriction or erasure builds re-checks its characteristic
@lru_cache(maxsize=256)
def _is_prime(m: int) -> bool:
    """Whether m is a prime below 2**31, the bound of every characteristic
    and modulus, by trial division up to sqrt(m): at most about 46 000
    divisions, once per value."""
    return 2 <= m < 2**31 and all(m % d for d in range(2, math.isqrt(m) + 1))


@dataclass(frozen=True)
class RingSpec:
    """A polynomial ring: variable names plus the coefficient characteristic.

    ``char`` must be 0 or a prime below 2**31; the homological engines
    additionally require a prime.  Restrictions to a variable subset (used
    by the erasure maps) may have zero variables.
    """

    names: tuple[str, ...]
    char: int = 32003

    def __post_init__(self):
        names = tuple(str(s) for s in self.names)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "char", operator.index(self.char))
        if len(set(names)) != len(names):
            raise ValueError("variable names must be pairwise distinct")
        if self.char != 0 and not _is_prime(self.char):
            raise ValueError("characteristic must be 0 or a prime below 2**31")

    @property
    def n(self) -> int:
        return len(self.names)

    def restrict(self, keep) -> "RingSpec":
        keep = sorted(set(keep))
        return RingSpec(tuple(self.names[j] for j in keep), self.char)


def degree(e) -> int:
    """Total degree of an exponent vector."""
    return sum(e)


def support(e) -> frozenset[int]:
    """Positions of the variables appearing in an exponent vector."""
    return frozenset(j for j, x in enumerate(e) if x)


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal in canonical form.

    ``gens`` must already be divisibility-minimal and sorted, which the
    constructor checks in full; use :func:`minimal_generators` to build one
    from arbitrary exponent vectors.
    """

    ring: RingSpec
    gens: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        gens = _check_exponents(self.gens, self.ring.n)
        object.__setattr__(self, "gens", gens)
        if list(gens) != sorted(set(gens)):
            raise ValueError("generators are not in canonical sorted order")
        if len(_minimal(gens)) != len(gens):
            raise ValueError("generators are not divisibility-minimal")

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    @property
    def is_proper(self) -> bool:
        return not self.is_unit

    @property
    def mu(self) -> int:
        """Number of minimal generators (0 for the zero ideal)."""
        return len(self.gens)

    def contains_monomial(self, e) -> bool:
        (e,) = _check_exponents([e], self.ring.n)
        return any(_divides(g, e) for g in self.gens)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        _check_ring(self, other)
        return all(self.contains_monomial(g) for g in other.gens)

    def __str__(self) -> str:
        return format_ideal(self)


@dataclass(frozen=True)
class MonomialPrime:
    """The prime generated by a subset of the variables."""

    ring: RingSpec
    vars: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(sorted(_check_variables(self.vars, self.ring.n))))

    def to_ideal(self) -> MonomialIdeal:
        n = self.ring.n
        gens = [tuple(1 if j == v else 0 for j in range(n)) for v in self.vars]
        return minimal_generators(self.ring, gens)

    def contains_monomial(self, e) -> bool:
        (e,) = _check_exponents([e], self.ring.n)
        return bool(support(e) & set(self.vars))

    def contains_ideal(self, A: MonomialIdeal) -> bool:
        _check_ring(self, A)
        return all(self.contains_monomial(g) for g in A.gens)

    def __str__(self) -> str:
        return format_ideal(self.to_ideal())


# the input rules: every public entry calls these, before any work, and no check of its own
def _check_exponents(gens, n: int) -> tuple[tuple[int, ...], ...]:
    """The exponent-vector rule: each vector, in order, has n integer entries
    (``operator.index``), none negative or above ``MAX_EXPONENT``.  Returns
    the vectors as tuples of ints."""
    out = tuple(tuple(map(operator.index, g)) for g in gens)
    for g in out:
        if len(g) != n:
            raise ValueError(f"exponent vector {g} does not match ring with {n} variables")
        if g and min(g) < 0:
            raise ValueError(f"negative exponent in {g}")
        if g and max(g) > MAX_EXPONENT:
            raise ValueError(f"exponent in {g} exceeds the limit {MAX_EXPONENT}")
    return out


def _check_variables(F, n: int) -> frozenset[int]:
    """The variable-position rule: each position is an integer
    (``operator.index``) in 0..n-1.  Returns the positions as a set of ints."""
    out = frozenset(map(operator.index, F))
    if any(not 0 <= v < n for v in out):
        raise ValueError(f"variable index out of range for a ring with {n} variables: {sorted(out)}")
    return out


def _check_ring(A, B):
    """The same-ring rule, for ideals and primes alike."""
    if A.ring != B.ring:
        raise RingMismatchError("ideals live over different rings")


def _check_module(I: MonomialIdeal):
    """The module rule for S/I: a nonzero module and a prime characteristic."""
    if I.is_unit:
        raise ValueError("the unit ideal presents the zero module")
    if I.ring.char == 0:
        raise ValueError("prime characteristic required by the rank engine")


def _check_pair(a: MonomialIdeal, I: MonomialIdeal):
    """The pair rule for (a, S/I): one ring, and the module rule for S/a,
    that is a proper relative ideal and a prime characteristic."""
    _check_ring(a, I)
    if a.is_unit:
        raise ValueError("the relative ideal must be proper")
    _check_module(a)


def _minimal(gens) -> list[tuple[int, ...]]:
    """The divisibility-minimal members of exponent tuples, once each, sorted lexicographically.

    A proper divisor has a smaller degree, so in order of degree each tuple
    is tested against the tuples kept before it only.
    """
    kept: list[tuple[int, ...]] = []
    for g in sorted(gens, key=sum):
        if not any(_divides(h, g) for h in kept):
            kept.append(g)
    return sorted(kept)


def minimal_generators(ring: RingSpec, gens) -> MonomialIdeal:
    """Canonical ideal from arbitrary exponent vectors.

    Keeps the divisibility-minimal subset, sorted lexicographically.
    Idempotent; the empty input gives the zero ideal.  Every vector is
    checked against the ring, for sign and for ``MAX_EXPONENT``, including
    those that are not kept; the result is canonical by construction, so it
    is not minimized a second time by the constructor's check.
    """
    kept = tuple(_minimal(_check_exponents(sorted(set(map(tuple, gens))), ring.n)))
    ideal = object.__new__(MonomialIdeal)
    object.__setattr__(ideal, "ring", ring)
    object.__setattr__(ideal, "gens", kept)
    return ideal


def zero_ideal(ring: RingSpec) -> MonomialIdeal:
    return MonomialIdeal(ring, ())


def unit_ideal(ring: RingSpec) -> MonomialIdeal:
    return MonomialIdeal(ring, ((0,) * ring.n,))


def sum_ideals(A: MonomialIdeal, B: MonomialIdeal) -> MonomialIdeal:
    _check_ring(A, B)
    return minimal_generators(A.ring, A.gens + B.gens)


def intersect(A: MonomialIdeal, B: MonomialIdeal) -> MonomialIdeal:
    """Intersection, generated by pairwise lcms of the generators."""
    _check_ring(A, B)
    if A.is_unit:
        return B
    if B.is_unit:
        return A
    return minimal_generators(A.ring, [_lcm(a, b) for a in A.gens for b in B.gens])


def quotient(A: MonomialIdeal, m) -> MonomialIdeal:
    """Colon ideal (A : m) for a single monomial m.

    m is a nonzero-divisor on S/A exactly when (A : m) == A.
    """
    (m,) = _check_exponents([m], A.ring.n)
    return minimal_generators(A.ring, [tuple(max(g[j] - m[j], 0) for j in range(len(m))) for g in A.gens])


def saturation(A: MonomialIdeal, B: MonomialIdeal) -> MonomialIdeal:
    """Saturation (A : B^infinity), by iterating generator-wise colons to a fixpoint.

    One step is (A : B) = the intersection of the colons by each generator.
    """
    _check_ring(A, B)
    current = A
    while B.gens:
        step = None
        for b in B.gens:
            part = quotient(current, b)
            step = part if step is None else intersect(step, part)
        if step == current:
            break
        current = step
    return current


def radical(A: MonomialIdeal) -> MonomialIdeal:
    """Radical: generated by the squarefree supports of the generators."""
    return minimal_generators(A.ring, [tuple(1 if x else 0 for x in g) for g in A.gens])


def _mask(e) -> int:
    """The support of an exponent vector as a bitmask over the variables."""
    return sum(1 << j for j, x in enumerate(e) if x)


def _minimal_covers(edges) -> list[int]:
    """The minimal vertex covers of a hypergraph whose edges are bitmasks, as bitmasks.

    One edge at a time: of the minimal covers of the edges so far, those that
    meet the next edge stay, every other one is extended by each vertex of the
    edge, and the extensions that contain another cover are dropped.  No
    edges give the empty cover; an empty edge gives no cover.
    """
    covers = [0]
    for edge in sorted(set(edges)):
        kept = [c for c in covers if c & edge]
        grown = {c | 1 << j for c in covers if not c & edge for j in range(edge.bit_length()) if edge >> j & 1}
        for c in sorted(grown, key=int.bit_count):
            if not any(k & c == k for k in kept):
                kept.append(c)
        covers = kept
    return covers


# bounded for long-running processes; the default corpus fills about 200 entries
@lru_cache(maxsize=32_768)
def irreducible_decomposition(A: MonomialIdeal) -> tuple[MonomialIdeal, ...]:
    """Irredundant irreducible components, sorted by their generators.

    Read off the polarization of A (Faridi, "Monomial ideals via square-free
    monomial ideals", 2006; Herzog-Hibi, Monomial Ideals, 1.6), taken on
    the distinct exponent values only: for every variable j and every
    distinct nonzero exponent e of x_j among the generators there is one
    polarized variable x_{j,e}, and a generator g contains x_{j,e} iff
    e <= g_j.  The polarized ideal is squarefree, so its components are its
    minimal vertex covers, and x_{j,e} -> x_j^e turns each into an
    irreducible component of A (a minimal cover holds at most one x_{j,e}
    per j).  The components that contain another are dropped.
    """
    if A.is_zero or not A.is_proper:
        raise ValueError("irreducible decomposition needs a proper nonzero ideal")
    n = A.ring.n
    # bit b stands for x_j^e, (j, e) = powers[b]; the bits of one variable are
    # consecutive and increase with e
    powers = [(j, e) for j in range(n) for e in sorted({g[j] for g in A.gens} - {0})]
    covers = _minimal_covers(sum(1 << b for b, (j, e) in enumerate(powers) if e <= g[j]) for g in A.gens)
    # x_j^f lies in the component of cover C iff C holds some x_{j,e} with e <= f,
    # so C contains the component of D iff D's bits lie in C's upward closure
    upward = [sum(1 << k for k in range(b, len(powers)) if powers[k][0] == j) for b, (j, _) in enumerate(powers)]
    closures = [sum(upward[b] for b in range(len(powers)) if c >> b & 1) for c in covers]
    components = []
    for c, closed in zip(covers, closures):
        if any(d != c and d & closed == d for d in covers):
            continue
        gens = [tuple(e if k == j else 0 for k in range(n)) for b, (j, e) in enumerate(powers) if c >> b & 1]
        components.append(minimal_generators(A.ring, gens))
    return tuple(sorted(components, key=lambda C: C.gens))


def associated_primes(I: MonomialIdeal) -> tuple[MonomialPrime, ...]:
    """The associated primes of I, sorted by (size, variables).

    They are the radicals of the irredundant irreducible components, that
    is the variable sets of the components' generators.  The zero ideal has
    the single associated prime <0>.
    """
    if not I.is_proper:
        raise ValueError("the unit ideal has no associated primes")
    if I.is_zero:
        return (MonomialPrime(I.ring, ()),)
    seen = {tuple(sorted(set().union(*(support(g) for g in C.gens)))) for C in irreducible_decomposition(I)}
    return tuple(MonomialPrime(I.ring, vs) for vs in sorted(seen, key=lambda v: (len(v), v)))


def minimal_primes(I: MonomialIdeal) -> tuple[MonomialPrime, ...]:
    """The minimal primes of I, sorted by (size, variables).

    The prime on the variables F contains I iff F meets the support of every
    generator, so the minimal primes are the minimal vertex covers of the
    hypergraph of generator supports, whose minimal edges generate rad(I)
    (Miller-Sturmfels, Combinatorial Commutative Algebra, ch. 1), taken on
    n-bit masks by the cover helper that ``irreducible_decomposition`` runs
    on the polarization.  They are the inclusion-minimal associated primes.
    """
    if not I.is_proper:
        raise ValueError("the unit ideal has no associated primes")
    covers = _minimal_covers(_mask(g) for g in I.gens)
    primes = sorted((tuple(j for j in range(I.ring.n) if c >> j & 1) for c in covers), key=lambda v: (len(v), v))
    return tuple(MonomialPrime(I.ring, vs) for vs in primes)


def quotient_dimension(I: MonomialIdeal) -> int:
    """Krull dimension of S/I for proper I."""
    return I.ring.n - min(len(P.vars) for P in minimal_primes(I))


def erase_to_zero(A: MonomialIdeal, F) -> MonomialIdeal:
    """Image of A in the quotient by the variables in F.

    Drops every generator whose support meets F; the result lives in the
    ring on the remaining variables.
    """
    F = _check_variables(F, A.ring.n)
    keep = [j for j in range(A.ring.n) if j not in F]
    gens = [tuple(g[j] for j in keep) for g in A.gens if not (support(g) & F)]
    return minimal_generators(A.ring.restrict(keep), gens)


def erase_to_one(A: MonomialIdeal, F) -> MonomialIdeal:
    """Image of A after inverting the variables in F (their exponents are deleted).

    Models localization at the prime on the complementary variables; the
    result lives in the ring on the remaining variables.
    """
    F = _check_variables(F, A.ring.n)
    keep = [j for j in range(A.ring.n) if j not in F]
    gens = [tuple(g[j] for j in keep) for g in A.gens]
    return minimal_generators(A.ring.restrict(keep), gens)


# ---------------------------------------------------------------------------
# Text grammar: monomial = product of name / name^k separated by '*';
# ideal = comma-separated monomials; '0' = zero ideal, '1' = unit ideal.
# ---------------------------------------------------------------------------

def format_monomial(ring: RingSpec, e) -> str:
    parts = []
    for name, k in zip(ring.names, e):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts) if parts else "1"


def format_ideal(A: MonomialIdeal) -> str:
    if A.is_zero:
        return "0"
    if A.is_unit:
        return "1"
    return ", ".join(format_monomial(A.ring, g) for g in A.gens)


def _parse_factor(ring: RingSpec, text: str, pos: int):
    start = pos
    if pos >= len(text) or not (text[pos].isalpha() or text[pos] == "_"):
        raise ParseError("expected a variable name", pos)
    while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
        pos += 1
    name = text[start:pos]
    try:
        j = ring.names.index(name)
    except ValueError:
        raise ParseError(f"unknown variable {name!r}", start) from None
    k = 1
    if pos < len(text) and text[pos] == "^":
        pos += 1
        dstart = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == dstart:
            raise ParseError("expected an integer exponent after '^'", pos)
        k = int(text[dstart:pos])
    return j, k, pos


def parse_monomial(ring: RingSpec, text: str, pos: int = 0):
    """Parse one monomial starting at pos; returns (exponent, next position)."""
    e = [0] * ring.n
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        j, k, pos = _parse_factor(ring, text, pos)
        e[j] += k
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos < len(text) and text[pos] == "*":
            pos += 1
            continue
        return tuple(e), pos


def parse_ideal(ring: RingSpec, text: str) -> MonomialIdeal:
    """Parse an ideal expression in the monomial grammar."""
    stripped = text.strip()
    if stripped == "0":
        return zero_ideal(ring)
    if stripped == "1":
        return unit_ideal(ring)
    if not stripped:
        raise ParseError("empty ideal expression", 0)
    gens = []
    pos = 0
    while True:
        e, pos = parse_monomial(ring, text, pos)
        gens.append(e)
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            break
        if text[pos] != ",":
            raise ParseError("expected ',' between monomials", pos)
        pos += 1
        rest = text[pos:]
        if not rest.strip():
            raise ParseError("trailing comma", pos)
    return minimal_generators(ring, gens)
