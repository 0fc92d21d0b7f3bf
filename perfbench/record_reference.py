"""Record the reference outputs the benchmark checks against.

Run from the repository root:  python3 perfbench/record_reference.py
It writes perfbench/reference.json from the current code, after checking
that every prime in workloads.CORPUS_PRIMES gives the same corpus output up
to the characteristic field (about 20 s per prime).
"""

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import relhom.cli as cli  # noqa: E402

import workloads as wl  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"relhom {' '.join(argv)} exited {code}")
    return out.getvalue()


def corpus_reference(char_seed: int, tmp: str) -> dict:
    path = os.path.join(tmp, "corpus.jsonl")
    stdout = run_cli(wl.corpus_argv(char_seed, path))
    with open(path) as fh:
        jsonl = fh.read()
    with open(path + ".counterexamples") as fh:
        if fh.read():
            raise SystemExit("the reference corpus has counterexamples")
    char = wl.corpus_prime(char_seed)
    return {
        "stdout_sha256": wl.sha256(stdout),
        "jsonl_sha256": wl.sha256(wl.canonical_line(jsonl, char)),
        "line_digests": [wl.line_digest(line, char) for line in jsonl.splitlines()],
    }


def pair_reference(pair) -> dict:
    stdout = run_cli(pair["argv"])
    return {"sha256": wl.sha256(stdout), "view": wl.invariant_view(stdout, pair["perm"])}


def seed_for_prime(prime: int) -> int:
    seed = 0
    while wl.corpus_prime(seed) != prime:
        seed += 1
    return seed


def main():
    scratch = os.path.join(os.path.dirname(HERE), ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        corpus = corpus_reference(wl.DEFAULT_SEED, tmp)
        for prime in wl.CORPUS_PRIMES[1:]:
            if corpus_reference(seed_for_prime(prime), tmp) != corpus:
                raise SystemExit(f"corpus output at characteristic {prime} differs from 32003")
            print(f"characteristic {prime}: same corpus output", flush=True)
    reference = {
        "verify_paper_sha256": wl.sha256(run_cli(["verify-paper", "--json"])),
        "corpus": corpus,
        "big_box": [pair_reference(p) for p in wl.big_box_pairs(wl.DEFAULT_SEED)],
        "wide": [pair_reference(p) for p in wl.wide_pairs(wl.DEFAULT_SEED)],
    }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
