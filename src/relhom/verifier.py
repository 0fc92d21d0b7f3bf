"""Randomized verification harness.

Generates a reproducible corpus of ideal pairs, runs falsify-or-confirm
suites for the structural facts the engines rely on, replays the bundled
worked examples bit-exactly, and serializes every instance to JSONL.
Violations land in separate counterexample records.  All serialized output
is byte-deterministic for a fixed seed and flags (timings never enter it).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .invariants import (
    EngineDisagreementError,
    SOP_FOUND,
    PairAnalysis,
    a_id,
    cd,
    grade,
    is_monomial_regular_sequence,
    mu,
)
from .monomials import (
    MonomialIdeal,
    RingSpec,
    associated_primes,
    erase_to_one,
    format_ideal,
    intersect,
    irreducible_decomposition,
    minimal_generators,
    minimal_primes,
    parse_ideal,
    quotient,
    quotient_dimension,
    radical,
    sum_ideals,
    zero_ideal,
)
from .properties import (
    PropertyReport,
    _generator_witness,
    _report,
    full_report,
    is_relative_cm,
    is_relative_gorenstein,
    is_relative_regular_ring,
)
from .slices import (
    DegreeBox,
    _dense_profiles,
    ext_profile,
    ext_table,
    ext_vanishes_below,
    lc_table,
)
from .taylor import depth_quotient, pd_quotient

__all__ = [
    "CorpusParams",
    "SuiteResult",
    "InstanceAnalysis",
    "SUITE_NAMES",
    "EXAMPLE_IDS",
    "random_ideal",
    "corpus_instances",
    "corpus_digest",
    "build_analyses",
    "run_suite",
    "run_all_suites",
    "CorpusRun",
    "reproduce_example",
]


@dataclass(frozen=True)
class CorpusParams:
    """Deterministic corpus description; identical params give identical corpora.

    ``char`` is the coefficient characteristic of the corpus ring and
    ``degree_bound`` the bound of every parameter-system search the run makes.
    A draw needs a nonzero exponent vector, so there must be a variable and,
    unless the corpus is squarefree, an exponent cap of at least 1.
    """

    n: int = 4
    max_exponent: int = 3
    gen_count_range: tuple[int, int] = (1, 5)
    squarefree: bool = False
    count: int = 200
    seed: int = 42
    char: int = 32003
    degree_bound: int = 4

    def __post_init__(self):
        lo, hi = self.gen_count_range
        if self.n < 1:
            raise ValueError(f"the number of variables (--n) must be at least 1, got {self.n}")
        if not self.squarefree and self.max_exponent < 1:
            raise ValueError(f"the exponent cap (--max-exponent) must be at least 1, got {self.max_exponent}")
        if not 0 <= lo <= hi:
            raise ValueError(f"the generator count range (--gens) needs 0 <= lo <= hi, got {lo},{hi}")
        if self.degree_bound < 0:
            raise ValueError(f"the degree bound (--degree-bound) must be at least 0, got {self.degree_bound}")

    def ring(self) -> RingSpec:
        return RingSpec(tuple(f"x{j + 1}" for j in range(self.n)), self.char)


def random_ideal(params: CorpusParams, index: int, ring: Optional[RingSpec] = None) -> MonomialIdeal:
    """Deterministic pseudo-random proper monomial ideal for (params, index)."""
    ring = ring if ring is not None else params.ring()
    rng = np.random.default_rng((params.seed & 0xFFFFFFFFFFFFFFFF, index))
    lo, hi = params.gen_count_range
    count = int(rng.integers(lo, hi + 1))
    cap = 1 if params.squarefree else params.max_exponent
    gens = []
    for _ in range(count):
        while True:
            e = tuple(int(v) for v in rng.integers(0, cap + 1, size=params.n))
            if any(e):
                break
        gens.append(e)
    return minimal_generators(ring, gens)


def corpus_instances(params: CorpusParams) -> list[tuple[MonomialIdeal, MonomialIdeal]]:
    """The corpus: for index k the pair uses streams 3k (relative ideal) and 3k+1."""
    ring = params.ring()
    return [(random_ideal(params, 3 * k, ring), random_ideal(params, 3 * k + 1, ring)) for k in range(params.count)]


def _auxiliary_ideal(params: CorpusParams, index: int, ring: RingSpec) -> MonomialIdeal:
    return random_ideal(params, 3 * index + 2, ring)


def corpus_digest(params: CorpusParams) -> str:
    """SHA-256 over the canonical serializations of the corpus pairs."""
    return _pairs_digest(corpus_instances(params))


def _pairs_digest(pairs) -> str:
    """``corpus_digest`` of the corpus pairs (a, I) in index order, already drawn."""
    h = hashlib.sha256()
    for k, (a, i) in enumerate(pairs):
        h.update(f"{k}:{format_ideal(a)}|{format_ideal(i)}\n".encode())
    return h.hexdigest()


@dataclass
class InstanceAnalysis:
    """Everything the suites need about one corpus pair, computed once.

    Every number of the pair, each engine's value behind it and the nested
    analysis of (a, S) are read from ``pair``, the analysis the report was
    derived from; no suite runs an engine on the pair again.  The profiles
    of the dense scan over the unpadded box (``ext0``, ``lc0``), both from
    one walk (``slices._dense_profiles``), are kept here as the independent
    side of the ``cross_engine`` suite, and the disagreement that ended an
    analysis as ``failure``.
    """

    index: int
    a: MonomialIdeal
    i: MonomialIdeal
    failure: Optional[EngineDisagreementError] = None
    report: Optional[PropertyReport] = None
    pair: Optional[PairAnalysis] = None
    ext0: frozenset = frozenset()
    lc0: frozenset = frozenset()

    @property
    def ok(self) -> bool:
        return self.failure is None

    def echo(self) -> dict:
        return {"index": self.index, "a": format_ideal(self.a), "i": format_ideal(self.i)}


def analyze_instance(index: int, a: MonomialIdeal, I: MonomialIdeal, degree_bound: int = 4) -> InstanceAnalysis:
    x = InstanceAnalysis(index, a, I)
    try:
        pair = PairAnalysis(a, I, degree_bound)
        x.ext0, x.lc0 = _dense_profiles(a, I)
        x.report = _report(pair, DegreeBox.for_ideals(a, I))
        x.pair = pair
    except EngineDisagreementError as exc:
        x.failure = exc
    return x


def build_analyses(params: CorpusParams) -> list[InstanceAnalysis]:
    return [analyze_instance(k, a, i, params.degree_bound) for k, (a, i) in enumerate(corpus_instances(params))]


@dataclass
class SuiteResult:
    """Outcome of one suite: empty violations means pass."""

    name: str
    instances: int
    violations: list[dict]
    wall_time: float
    mode: str
    non_vacuous: Optional[int] = None

    @property
    def passed(self) -> bool:
        return not self.violations


def _violation(x: InstanceAnalysis, expected, actual, note: str = "") -> dict:
    entry = x.echo()
    entry["expected"] = expected
    entry["actual"] = actual
    if note:
        entry["note"] = note
    return entry


# ---------------------------------------------------------------------------
# Suites.  Each takes the shared analyses and appends violation records.
# ---------------------------------------------------------------------------

def _suite_thm_2_19_chain(xs, ctx):
    out, ran = [], 0
    for x in xs:
        if not x.ok:
            continue
        ran += 1
        r = x.report
        chain = (
            (r.rel_gorenstein is not True or r.rel_max_cm is True)
            and (r.rel_max_cm is not True or r.rel_cm is True)
            and (r.rel_regular_module is not True or r.rel_gorenstein is True)
        )
        if not (chain and r.chain_consistent):
            out.append(_violation(x, "regular => Gorenstein => maxCM => CM", r.to_json(x.a.ring)))
    return ran, out, "two-sided on computed verdicts", None


def _identity_suite(xs, what: str, keys, names, sides):
    """A two-sided suite on an identity the analysis itself checks.

    An analysed pair gives its two sides through ``sides``; a pair whose
    analysis ended in the disagreement on ``what(...)`` gives the values of
    that error under ``keys``.  ``names`` label the sides in a violation.
    """
    out, ran = [], 0
    for x in xs:
        if x.failure is not None and x.failure.what.startswith(what + "("):
            lhs, rhs = (x.failure.values[key] for key in keys)
        elif x.ok:
            lhs, rhs = sides(x)
        else:
            continue
        ran += 1
        if lhs != rhs:
            out.append(_violation(x, {names[0]: lhs}, {names[1]: rhs}))
    return ran, out, "two-sided", None


def _suite_prop_2_11f(xs, ctx):
    # properties._cm raises where the two sides differ
    keys, names = ("grade_eq_cd", "ass_prime_criterion"), ("cm", "ass_prime_criterion")
    return _identity_suite(xs, "relative CM", keys, names, lambda x: (x.report.rel_cm, x.pair.ass_prime_criterion))


def _suite_lemma_2_3(xs, ctx):
    out, ran = [], 0
    for x in xs:
        if not (x.ok and x.report.rel_cm is True):
            continue
        ran += 1
        rad_i = radical(x.i)
        torsion = all(rad_i.contains_monomial(g) for g in x.a.gens)
        cd_zero = x.pair.cd == 0
        primes = x.pair.ass_primes
        some = any(P.contains_ideal(x.a) for P in primes)
        every = all(P.contains_ideal(x.a) for P in primes)
        if not (torsion == cd_zero == some == every):
            out.append(
                _violation(
                    x,
                    "four equivalent torsion criteria",
                    {"torsion": torsion, "cd_zero": cd_zero, "some_ass": some, "all_ass": every},
                )
            )
    return ran, out, "restricted to relative-CM instances", None


def _suite_lemma_2_6a(xs, ctx):
    out, ran = [], 0
    for x in xs:
        if not (x.ok and x.pair.sop.status == SOP_FOUND):
            continue
        ran += 1
        c, sequence = x.pair.cd, x.pair.sop.sequence
        for step in range(1, len(sequence) + 1):
            got = x.pair.support_cd_with(sequence[:step])
            if got != c - step:
                out.append(_violation(x, {"cd_after_quotient": c - step}, {"cd_after_quotient": got}))
                break
    return ran, out, "found-witness prefixes; quotient cds via the support fast path", None


def _suite_lemma_2_7b(xs, ctx):
    out, ran = [], 0
    for x in xs:
        if not (x.ok and x.pair.sop.found):
            continue
        ran += 1
        regular = is_monomial_regular_sequence(x.pair.sop.sequence, x.i)
        if regular != (x.report.rel_cm is True):
            out.append(_violation(x, {"cm": x.report.rel_cm}, {"witness_regular": regular}))
    return ran, out, "found-witness direction, both implications on the witness", None


def _suite_prop_2_9d(xs, ctx):
    out, ran, nonvac = [], 0, 0
    params: CorpusParams = ctx["params"]
    for x in xs:
        if not x.ok:
            continue
        aux = _auxiliary_ideal(params, x.index, x.a.ring)
        modules = ((x.i, x.pair.grade), (zero_ideal(x.a.ring), x.pair.ring.grade))
        for candidate in (aux, sum_ideals(x.a, aux)):
            if candidate.is_unit:
                continue
            y = PairAnalysis(x.a, candidate, x.pair.degree_bound)
            cd_n = y.support_cd
            if cd_n != y.localization_grade:
                continue  # hypothesis (relative CM) not certified
            if not y.sop.found:
                continue  # cd = ara not certified
            for module_ideal, module_grade in modules:
                ran += 1
                bound = module_grade - cd_n
                if bound <= 0:
                    continue
                nonvac += 1
                if not ext_vanishes_below(candidate, module_ideal, bound):
                    out.append(
                        _violation(
                            x,
                            {"ext_vanishing_below": bound, "n_ideal": format_ideal(candidate)},
                            {"module_ideal": format_ideal(module_ideal)},
                        )
                    )
    return ran, out, "hypotheses certified per candidate via support engines; modules S/i and S; vacuous bounds skipped", nonvac


def _suite_lemma_3_7a(xs, ctx):
    # PairAnalysis.a_id raises where the two sides differ
    keys, names = ("pd_of_quotient", "ext_box"), ("pd_of_relative_quotient", "a_id")
    return _identity_suite(xs, "a_id", keys, names, lambda x: (x.pair.pd_a, x.pair.a_id))


def _suite_lemma_3_9c(xs, ctx):
    out, ran = [], 0
    for x in xs:
        if not x.ok:
            continue
        S = zero_ideal(x.a.ring)
        for module_ideal, before in ((x.i, x.pair.a_id), (S, max(x.pair.ring.ext_profile))):
            nzd = next((g for g in x.a.gens if quotient(module_ideal, g) == module_ideal), None)
            if nzd is None:
                continue
            ran += 1
            quotient_ideal = sum_ideals(module_ideal, minimal_generators(x.a.ring, [nzd]))
            after = max(ext_profile(x.a, quotient_ideal))
            if after != before:
                out.append(_violation(x, {"a_id": before}, {"a_id_after_quotient": after}))
    return ran, out, "nonzero-divisors drawn from the relative ideal's generators; modules S/i and S", None


def _suite_thm_4_1a(xs, ctx):
    out, ran = [], 0
    for x in xs:
        if not x.ok:
            continue
        candidates = (
            (x.i, x.report.rel_regular_module),
            (zero_ideal(x.a.ring), x.report.rel_regular_ring),
        )
        for module_ideal, regular in candidates:
            if regular is not True:
                continue
            ran += 1
            lhs = pd_quotient(sum_ideals(module_ideal, x.a))
            rhs = pd_quotient(module_ideal) + x.pair.ring.cd
            if lhs != rhs:
                out.append(_violation(x, {"pd_sum": rhs}, {"pd_sum": lhs}))
    return ran, out, "relative-regular instances; modules S/i and S", None


def _suite_thm_4_4d(xs, ctx):
    out, ran = [], 0
    for x in xs:
        if not x.ok:
            continue
        ran += 1
        numeric = x.pair.grade == x.pair.ring.grade == x.pair.mu
        witness = _generator_witness(x.pair)
        if numeric != witness:
            out.append(_violation(x, {"numeric": numeric}, {"generator_witness": witness}))
    return ran, out, "two-sided (monomial generating sets)", None


def _suite_prop_4_6f(xs, ctx):
    out, ran = [], 0
    for x in xs:
        if not x.ok:
            continue
        candidates = (
            (x.i, x.report.rel_regular_module, x.ext0),
            (zero_ideal(x.a.ring), x.report.rel_regular_ring, x.pair.ring.ext_profile),
        )
        for module_ideal, regular, profile in candidates:
            if regular is not True:
                continue
            ran += 1
            c = x.pair.ring.cd
            if profile != frozenset({c}):
                out.append(_violation(x, {"ext_profile": [c]}, {"ext_profile": sorted(profile)}))
                continue
            shift = [sum(g[j] for g in x.a.gens) for j in range(x.a.ring.n)]
            bad = ext_table(x.a, module_ideal).first_shifted_mismatch(c, sum_ideals(module_ideal, x.a), shift)
            if bad is not None:
                out.append(
                    _violation(x, {"degree": bad[0], "dim": bad[1]}, {"dim": bad[2]}, "shifted Hilbert mismatch")
                )
    return ran, out, "relative-regular instances, modules S/i and S; shift = sum of generator degrees", None


def _suite_lemma_2_2_iii(xs, ctx):
    out, ran = [], 0
    for x in xs:
        if not (x.ok and x.report.rel_cm is True):
            continue
        ran += 1
        total = sum_ideals(x.a, x.i)
        for P in minimal_primes(total):
            inverted = frozenset(range(x.a.ring.n)) - frozenset(P.vars)
            local = erase_to_one(x.i, inverted)
            depth_local = len(P.vars) - pd_quotient(local)
            dim_local = quotient_dimension(local)
            if depth_local != dim_local:
                out.append(
                    _violation(
                        x,
                        {"localized_depth": dim_local},
                        {"localized_depth": depth_local, "prime_vars": list(P.vars)},
                    )
                )
                break
    return ran, out, "minimal supports of the relative quotient, relative-CM instances", None


def _suite_cross_engine(xs, ctx):
    fault = ctx.get("fault_injection", False)
    out, ran = [], 0
    for x in xs:
        if not x.ok:
            out.append({**x.echo(), "expected": "engine agreement", "actual": str(x.failure)})
            continue
        ran += 1
        y = x.pair
        ext0 = frozenset(i + 1 for i in x.ext0) if fault else x.ext0
        if ext0 != y.ext_profile:
            out.append(_violation(x, {"ext_profile_padded": sorted(y.ext_profile)}, {"ext_profile": sorted(ext0)}))
        if x.lc0 != y.lc_profile:
            out.append(_violation(x, {"lc_profile_padded": sorted(y.lc_profile)}, {"lc_profile": sorted(x.lc0)}))
        agreements = {
            "grade_ext": min(x.ext0),
            "grade_cech": min(x.lc0),
            "grade_localization": y.localization_grade,
        }
        if len(set(agreements.values())) != 1:
            out.append(_violation(x, "equal grade engines", agreements))
        if max(x.lc0) != y.support_cd:
            out.append(_violation(x, {"cd_cech": max(x.lc0)}, {"cd_minimal_primes": y.support_cd}))
        if y.a_id != y.pd_a:
            out.append(_violation(x, {"a_id": y.pd_a}, {"a_id": y.a_id}))
    return ran, out, "box invariance plus multi-engine agreement; disagreements land here", None


_SUITES: dict[str, Callable] = {
    "thm_2_19_chain": _suite_thm_2_19_chain,
    "prop_2_11f": _suite_prop_2_11f,
    "lemma_2_3": _suite_lemma_2_3,
    "lemma_2_6a": _suite_lemma_2_6a,
    "lemma_2_7b": _suite_lemma_2_7b,
    "prop_2_9d": _suite_prop_2_9d,
    "lemma_3_7a": _suite_lemma_3_7a,
    "lemma_3_9c": _suite_lemma_3_9c,
    "thm_4_1a": _suite_thm_4_1a,
    "thm_4_4d": _suite_thm_4_4d,
    "prop_4_6f": _suite_prop_4_6f,
    "lemma_2_2_iii": _suite_lemma_2_2_iii,
    "cross_engine": _suite_cross_engine,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(
    name: str,
    analyses: list[InstanceAnalysis],
    params: Optional[CorpusParams] = None,
    fault_injection: bool = False,
) -> SuiteResult:
    """Evaluate one suite over prepared analyses; empty violations means pass."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    if not analyses:
        raise ValueError("corpus must be nonempty")
    ctx = {
        "params": params if params is not None else CorpusParams(count=len(analyses)),
        "fault_injection": fault_injection,
    }
    start = time.perf_counter()
    ran, violations, mode, nonvac = _SUITES[name](analyses, ctx)
    violations.sort(key=lambda v: v.get("index", -1))
    return SuiteResult(name, ran, violations, time.perf_counter() - start, mode, nonvac)


@dataclass
class CorpusRun:
    """One full corpus pass: analyses, suite results and serialized lines."""

    params: CorpusParams
    digest: str
    analyses: list[InstanceAnalysis]
    suites: dict[str, SuiteResult]
    jsonl_lines: list[str] = field(default_factory=list)
    counterexample_lines: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.suites.values())


def run_all_suites(params: CorpusParams = CorpusParams(), fault_injection: bool = False) -> CorpusRun:
    analyses = build_analyses(params)
    suites = {name: run_suite(name, analyses, params, fault_injection) for name in SUITE_NAMES}
    per_instance: dict[int, dict[str, str]] = {x.index: {} for x in analyses}
    for name, result in suites.items():
        bad = {v.get("index") for v in result.violations}
        for x in analyses:
            per_instance[x.index][name] = "violation" if x.index in bad else "pass"
    base_lines = {}
    for x in analyses:
        line = {
            "seed": params.seed,
            "index": x.index,
            "ring": {"n": x.a.ring.n, "char": x.a.ring.char},
            "a": [list(g) for g in x.a.gens],
            "i": [list(g) for g in x.i.gens],
            "invariants": x.report.invariants.to_json() if x.report else None,
            "report": x.report.to_json(x.a.ring) if x.report else None,
            "suites": per_instance[x.index],
        }
        if x.failure is not None:
            line["error"] = str(x.failure)
        base_lines[x.index] = line
    jsonl = [json.dumps(base_lines[x.index], sort_keys=True, separators=(",", ":")) for x in analyses]
    # counterexamples reuse the instance schema plus the suite verdict fields
    counterexamples = []
    for name, result in suites.items():
        for v in result.violations:
            entry = dict(base_lines.get(v.get("index"), {"seed": params.seed}))
            entry["suite"] = name
            entry["expected"] = v.get("expected")
            entry["actual"] = v.get("actual")
            if "note" in v:
                entry["note"] = v["note"]
            counterexamples.append(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    digest = _pairs_digest((x.a, x.i) for x in analyses)
    return CorpusRun(params, digest, analyses, suites, jsonl, counterexamples)


# ---------------------------------------------------------------------------
# Bit-exact replays of the bundled worked examples.
# ---------------------------------------------------------------------------

_C4 = "x1*x2, x2*y1, y1*y2, y2*x1"


# each worked example returns its checks as (field, expected, actual)

def _example_2_20(char):
    ring = RingSpec(("x1", "x2", "y1", "y2"), char)
    a = parse_ideal(ring, "y1, y2")
    edge = parse_ideal(ring, _C4)
    p1 = parse_ideal(ring, "x1, y1")
    p2 = parse_ideal(ring, "x2, y2")
    report = full_report(a, edge)
    return [
        ("intersection_of_components", format_ideal(edge), format_ideal(intersect(p1, p2))),
        (
            "irreducible_components",
            sorted([format_ideal(p1), format_ideal(p2)]),
            sorted(format_ideal(C) for C in irreducible_decomposition(edge)),
        ),
        ("grade", 1, report.invariants.grade),
        ("cd", 1, report.invariants.cd),
        ("cd_ring", 2, cd(a, zero_ideal(ring))),
        ("cm", True, report.rel_cm),
        ("maxcm", False, report.rel_max_cm),
        ("gorenstein", False, report.rel_gorenstein),
    ]


def _example_2_21(char):
    ring = RingSpec(("x", "y"), char)
    a = parse_ideal(ring, "x^2, y^3, x*y")
    S = zero_ideal(ring)
    return [
        ("ext_profile", [2], sorted(ext_profile(a, S))),
        ("gorenstein", True, is_relative_gorenstein(a, S)),
    ]


def _example_2_22(char):
    ring = RingSpec(("x1", "x2", "x3", "x4"), char)
    a = parse_ideal(ring, "x1^2, x2^3")
    S = zero_ideal(ring)
    c_ring = cd(a, S)
    return [
        ("regular_ring", True, is_relative_regular_ring(a)),
        ("cd_ring", 2, c_ring),
        ("pd_of_quotient_sum", 0 + c_ring, pd_quotient(sum_ideals(S, a))),
    ]


def _example_3_6(char):
    ring = RingSpec(("x1", "x2", "y1", "y2"), char)
    a = parse_ideal(ring, _C4)
    S = zero_ideal(ring)
    table = lc_table(parse_ideal(ring, "x1, x2, y1, y2"), a)
    return [
        ("pd", 3, pd_quotient(a)),
        ("depth", 1, depth_quotient(a)),
        ("dim", 2, quotient_dimension(a)),
        ("cd_ring", 3, cd(a, S)),
        ("grade_ring", 2, grade(a, S)),
        ("a_id", 3, a_id(a, S)),
        ("cm", False, is_relative_cm(a, S)),
        ("regular_ring", False, is_relative_regular_ring(a)),
        ("h1_total_in_box", 1, table.total(1)),
        ("h1_hilbert", {(0, 0, 0, 0): 1}, table.hilbert(1)),
    ]


def _example_3_8b(char):
    ring = RingSpec(("x", "y"), char)
    a = parse_ideal(ring, "x")
    module_ideal = parse_ideal(ring, "x")
    return [
        ("ext_profile", [0, 1], sorted(ext_profile(a, module_ideal))),
        ("cd_ring", 1, cd(a, zero_ideal(ring))),
        ("gorenstein", False, is_relative_gorenstein(a, module_ideal)),
    ]


def _example_3_12(char):
    ring = RingSpec(("x", "y"), char)
    a = parse_ideal(ring, "x*y, x^2")
    S = zero_ideal(ring)
    g, ai = grade(a, S), a_id(a, S)
    return [
        ("associated_primes", [(0,), (0, 1)], sorted(tuple(P.vars) for P in associated_primes(a))),
        ("grade", 1, g),
        ("cd", 1, cd(a, S)),
        ("a_id", 2, ai),
        ("cm", True, is_relative_cm(a, S)),
        ("a_id_differs_from_grade", True, ai != g),
    ]


def _example_4_5e(char):
    ring = RingSpec(("x1", "x2", "y1", "y2"), char)
    a = parse_ideal(ring, _C4)
    S = zero_ideal(ring)
    return [
        ("cd_ring", 3, cd(a, S)),
        ("pd", 3, pd_quotient(a)),
        ("grade_ring", 2, grade(a, S)),
        ("mu", 4, mu(a)),
        ("regular_ring", False, is_relative_regular_ring(a)),
    ]


_EXAMPLES = {
    "2.20": _example_2_20,
    "2.21": _example_2_21,
    "2.22": _example_2_22,
    "3.6": _example_3_6,
    "3.8b": _example_3_8b,
    "3.12": _example_3_12,
    "4.5e": _example_4_5e,
}

EXAMPLE_IDS = tuple(_EXAMPLES)


_EXAMPLE_MODES = {
    # the source example lives over a power-series ring; the graded polynomial
    # model leaves every compared quantity unchanged
    "3.12": "bit-exact replay (graded polynomial model of a power-series ring)",
}


def reproduce_example(example_id: str, char: int = 32003) -> SuiteResult:
    """Replay one bundled worked example and compare every value exactly."""
    if example_id not in _EXAMPLES:
        raise ValueError(f"unknown example {example_id!r}; known: {', '.join(EXAMPLE_IDS)}")
    start = time.perf_counter()
    checks = _EXAMPLES[example_id](char)
    violations = [
        {"example": example_id, "field": name, "expected": expected, "actual": actual}
        for name, expected, actual in checks
        if expected != actual
    ]
    return SuiteResult(
        name=f"example_{example_id}",
        instances=len(checks),
        violations=violations,
        wall_time=time.perf_counter() - start,
        mode=_EXAMPLE_MODES.get(example_id, "bit-exact replay"),
    )
