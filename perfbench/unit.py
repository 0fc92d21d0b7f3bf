"""One measured unit of a workload, in a fresh interpreter.

Started by run.py with ``src`` on PYTHONPATH.  Prints ``ready`` as soon as
relhom.cli is imported (the parent times set-up up to that line), replays
``verify-paper`` as the correctness gate, runs one unit of the workload with
or without tracing, checks its outputs and prints one JSON result line.
With ``--probe`` it exits right after ``ready``.
"""

import sys

import relhom.cli as cli

print("ready", flush=True)
if sys.argv[1:] == ["--probe"]:
    sys.exit(0)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import relhom.verifier as verifier  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def read_if_present(path: str) -> str:
    if not os.path.exists(path):
        return ""
    with open(path) as fh:
        return fh.read()


def gate(reference: dict) -> bool:
    code, out = run_cli(["verify-paper", "--json"])
    return code == 0 and wl.sha256(out) == reference["verify_paper_sha256"]


def corpus_unit(seed: int, reference: dict, tmp: str) -> dict:
    """The corpus run through cli.main; per-pair times from analyze_instance."""
    pair_times = []
    original = verifier.analyze_instance

    def timed(*args, **kwargs):
        t = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            pair_times.append(time.perf_counter() - t)

    out_path = os.path.join(tmp, "corpus.jsonl")
    verifier.analyze_instance = timed
    start = time.perf_counter()
    try:
        code, stdout = run_cli(wl.corpus_argv(seed, out_path))
    except Exception as exc:  # a crash fails every pair, not the benchmark
        print(f"corpus: {type(exc).__name__}: {exc}", file=sys.stderr)
        code, stdout = -1, ""
    finally:
        verifier.analyze_instance = original
    wall = time.perf_counter() - start
    ref = reference["corpus"]
    jsonl, counterexamples = (read_if_present(path) for path in (out_path, out_path + ".counterexamples"))
    char = wl.corpus_prime(seed)
    lines = jsonl.splitlines()
    digests = [wl.line_digest(line, char) for line in lines]
    failed = sum(1 for got, want in zip(digests, ref["line_digests"]) if got != want)
    failed += abs(len(lines) - len(ref["line_digests"]))
    whole_ok = (
        code == 0
        and wl.sha256(stdout) == ref["stdout_sha256"]
        and wl.sha256(wl.canonical_line(jsonl, char)) == ref["jsonl_sha256"]
        and counterexamples == ""
    )
    if not whole_ok and failed == 0:
        failed = 1
    attempted = max(len(ref["line_digests"]), len(lines))
    output = wl.sha256(stdout + jsonl + counterexamples)
    return {"wall": wall, "pairs": pair_times, "attempted": attempted, "failed": failed, "output": output}


def analyze_unit(pairs: list[dict], refs: list[dict]) -> dict:
    """Each pair through cli.main analyze --json, timed one by one."""
    pair_times, outputs, failed = [], [], 0
    start = time.perf_counter()
    for pair in pairs:
        t = time.perf_counter()
        try:
            code, stdout = run_cli(pair["argv"])
        except Exception as exc:  # a crash is a failed pair, not a failed benchmark
            print(f"pair {pair['ref']}: {type(exc).__name__}: {exc}", file=sys.stderr)
            code, stdout = -1, ""
        pair_times.append(time.perf_counter() - t)
        outputs.append(stdout)
        if code != 0 or not wl.check_pair(refs[pair["ref"]], stdout, pair["perm"]):
            failed += 1
    wall = time.perf_counter() - start
    return {
        "wall": wall,
        "pairs": pair_times,
        "attempted": len(pairs),
        "failed": failed,
        "output": wl.sha256("".join(outputs)),
    }


def run_workload(name: str, seed: int, reference: dict, tmp: str) -> dict:
    if name == "corpus":
        return corpus_unit(seed, reference, tmp)
    if name == "big_box":
        return analyze_unit(wl.big_box_pairs(seed), reference["big_box"])
    return analyze_unit(wl.wide_pairs(seed), reference["wide"])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args()
    with open(args.reference) as fh:
        reference = json.load(fh)
    tracer = Tracer().install() if args.trace else None
    scope_start = time.perf_counter()
    if not gate(reference):
        print(json.dumps({"gate": False}))
        return 0
    result = run_workload(args.workload, args.seed, reference, args.tmp)
    scope = time.perf_counter() - scope_start
    result["gate"] = True
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics(scope)
    result["numpy"] = np.__version__
    result["corpus_digest"] = verifier.corpus_digest(verifier.CorpusParams())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
