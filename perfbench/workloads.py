"""Benchmark inputs and output checks for the three workloads.

corpus   the shipped verification harness: ``relhom corpus`` on the default
         corpus (seed 42, 200 pairs, default generator parameters).  The
         benchmark seed picks the coefficient prime from ``CORPUS_PRIMES``;
         every compared output is characteristic-independent for these
         pairs, so each run is checked line by line against the reference.
big_box  ``relhom analyze --json`` on the 6-variable pair of the project
         roadmap: few subsets over a 1.76 M-degree box.
wide     ``relhom analyze --json`` on fifteen pairs whose relative ideal has
         8-10 of the ten degree-2 monomials in 4 variables: a box of at most
         2401 degrees but up to 1024 generator subsets.

For big_box and wide the seed relabels the variables.  The pairs stay the
same problems up to isomorphism, so the cost of a run does not depend on the
seed, and the isomorphism-invariant part of every output is checked against
the reference.  At the default seed the labels are unchanged and the output
bytes must equal the reference exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

DEFAULT_SEED = 42
CORPUS_COUNT = 200
CORPUS_PRIMES = (32003, 32009, 32027, 32029, 32051, 32057, 32059, 32063)

BIG_BOX_RING = "a,b,c,d,e,f"
BIG_BOX_PAIR = ("a^5*b,c^4*d,e^6*f,a*c^3", "a^3*b^4,c^5,d^2*e*f^3,b^2*f")
BIG_BOX_DEGREES = (1_000_000, 2_000_000)

WIDE_RING = "a,b,c,d"
WIDE_BASE_SEED = 2
# 15 pairs put the median pair between two others about 10 % away, so
# pair_p50_s is set by three pairs' samples; with 7 pairs one 0.6 s pair,
# sampled 4 times a run, set it alone and spread twice as much
WIDE_PAIRS = 15
WIDE_MIN_GENERATORS = 8


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- exponent vectors and the monomial grammar -------------------------------

def parse_ideal(names: list[str], text: str) -> list[tuple[int, ...]]:
    gens = []
    for mono in text.split(","):
        e = [0] * len(names)
        for factor in mono.strip().split("*"):
            name, _, power = factor.partition("^")
            e[names.index(name)] += int(power) if power else 1
        gens.append(tuple(e))
    return gens


def format_ideal(names: list[str], gens) -> str:
    monos = []
    for e in gens:
        factors = [n if x == 1 else f"{n}^{x}" for n, x in zip(names, e) if x]
        monos.append("*".join(factors))
    return ",".join(monos)


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def minimal_count(gens) -> int:
    """Number of generators not divisible by another one."""
    return sum(1 for g in gens if not any(h != g and _divides(h, g) for h in gens))


def box_degrees(*ideals) -> int:
    """Degrees in the relhom stabilization box of the given exponent lists."""
    n = len(ideals[0][0])
    rho = [1 + max(g[j] for gens in ideals for g in gens) for j in range(n)]
    total = 1
    for r in rho:
        total *= 2 * r + 1
    return total


def permutation(seed: int, n: int) -> list[int]:
    """Variable relabelling for a seed: identity at the default seed."""
    perm = list(range(n))
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(perm)
    return perm


def relabel(gens, perm) -> list[tuple[int, ...]]:
    """Move exponent j to variable perm[j]."""
    out = []
    for e in gens:
        moved = [0] * len(e)
        for j, x in enumerate(e):
            moved[perm[j]] = x
        out.append(tuple(moved))
    return out


# -- pair generators -----------------------------------------------------------

def _analyze_argv(ring: str, a: str, i: str) -> list[str]:
    return ["analyze", "--ring", ring, "--a", a, "--i", i, "--json"]


def big_box_pairs(seed: int) -> list[dict]:
    names = BIG_BOX_RING.split(",")
    a, i = (parse_ideal(names, text) for text in BIG_BOX_PAIR)
    perm = permutation(seed, len(names))
    a, i = relabel(a, perm), relabel(i, perm)
    degrees = box_degrees(a, i)
    lo, hi = BIG_BOX_DEGREES
    if not (lo <= degrees <= hi and len(names) == 6 and minimal_count(a) == 4 and minimal_count(i) == 4):
        raise AssertionError(f"big_box pair left its shape: {degrees} box degrees")
    if max(x for g in a + i for x in g) > 7:
        raise AssertionError("big_box exponents exceed 7")
    argv = _analyze_argv(BIG_BOX_RING, format_ideal(names, a), format_ideal(names, i))
    return [{"argv": argv, "perm": perm, "ref": 0}]


def _wide_base_pairs() -> list[tuple[list, list]]:
    """Fifteen pairs: 8-10 of the ten degree-2 monomials in a, b, c, d against
    1-3 random generators with exponents <= 2, so the box has at most
    7^4 = 2401 degrees while a has up to 2^10 generator subsets."""
    rng = random.Random(WIDE_BASE_SEED)
    pool = [e for e in itertools.product(range(3), repeat=4) if sum(e) == 2]
    pairs = []
    for _ in range(WIDE_PAIRS):
        a = sorted(rng.sample(pool, rng.randint(8, 10)))
        i = []
        for _ in range(rng.randint(1, 3)):
            e = (0, 0, 0, 0)
            while not any(e):
                e = tuple(rng.randint(0, 2) for _ in range(4))
            i.append(e)
        pairs.append((a, i))
    return pairs


def wide_pairs(seed: int) -> list[dict]:
    names = WIDE_RING.split(",")
    perm = permutation(seed, len(names))
    out = []
    for k, (a, i) in enumerate(_wide_base_pairs()):
        a, i = relabel(a, perm), relabel(i, perm)
        if minimal_count(a) < WIDE_MIN_GENERATORS:
            raise AssertionError(f"wide pair {k}: relative ideal has fewer than {WIDE_MIN_GENERATORS} generators")
        argv = _analyze_argv(WIDE_RING, format_ideal(names, a), format_ideal(names, i))
        out.append({"argv": argv, "perm": perm, "ref": k})
    return out


def corpus_prime(seed: int) -> int:
    if seed == DEFAULT_SEED:
        return CORPUS_PRIMES[0]
    return CORPUS_PRIMES[random.Random(seed).randrange(len(CORPUS_PRIMES))]


def corpus_argv(seed: int, out_path: str) -> list[str]:
    return [
        "corpus", "--seed", str(DEFAULT_SEED), "--count", str(CORPUS_COUNT),
        "--char", str(corpus_prime(seed)), "--out", out_path,
    ]


# -- output checks -------------------------------------------------------------

def invariant_view(stdout: str, perm: list[int]) -> dict:
    """The part of an ``analyze --json`` report that relabelling the variables
    leaves unchanged, with the box mapped back to the original labels."""
    report = json.loads(stdout)["report"]
    box = report["box"]
    sop = report["witnesses"]["sop"]
    return {
        "invariants": report["invariants"],
        "verdicts": {k: v for k, v in report.items() if k.startswith("rel_") or k == "chain_consistent"},
        "char": report["char"],
        "box": [box[perm[j]] for j in range(len(box))],
        "sop": None if sop is None else [sop["status"], sop["degree_bound"], len(sop["sequence"])],
        "regular_sequence": report["witnesses"]["regular_sequence"] is not None,
    }


def check_pair(ref: dict, stdout: str, perm: list[int]) -> bool:
    """Exact bytes when the labels are unchanged, the invariant view otherwise."""
    if perm == sorted(perm) and sha256(stdout) != ref["sha256"]:
        return False
    try:
        return invariant_view(stdout, perm) == ref["view"]
    except (ValueError, KeyError, TypeError, IndexError):
        return False


def canonical_line(line: str, char: int) -> str:
    return line.replace(f'"char":{char}', '"char":P')


def line_digest(line: str, char: int) -> str:
    return sha256(canonical_line(line, char))[:16]
