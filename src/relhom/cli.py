"""Command-line front end.

Exit codes: 0 success / property holds, 1 property false or suite
violations, 2 input error, 3 internal engine disagreement, 4 any other
internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .invariants import EngineDisagreementError, PairAnalysis
from .monomials import MonomialIdeal, RingMismatchError, RingSpec, format_ideal, parse_ideal
from .properties import (
    full_report,
    is_relative_cm,
    is_relative_gorenstein,
    is_relative_max_cm,
    is_relative_regular_module,
    is_relative_regular_ring,
)
from .slices import dump_tables, ext_table, lc_table
from .verifier import EXAMPLE_IDS, CorpusParams, reproduce_example, run_all_suites

__all__ = ["main"]


def _add_ring_options(sub: argparse.ArgumentParser):
    sub.add_argument("--ring", required=True, help="comma-separated variable names, e.g. x1,x2,y1,y2")
    sub.add_argument("--a", required=True, help="the relative ideal in the monomial grammar")
    sub.add_argument("--i", default="0", help="the defining ideal of the module S/i (default 0)")
    sub.add_argument("--char", type=int, default=32003, help="prime coefficient characteristic (default 32003)")
    sub.add_argument("--out", help="also write the report to this file")


# built once per process: parse_args leaves the parser as it was, so
# a process that runs many commands (perfbench replays ``main`` per
# pair) builds the subcommands once.  Each subcommand names its
# handler, which ``main`` looks up when it runs, so a handler rebound
# after the first call (a tracer's wrapper, a test's stub) is the one run
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="relhom", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="invariants and property verdicts for one pair")
    _add_ring_options(analyze)
    analyze.add_argument(
        "--box-pad",
        type=int,
        default=0,
        help="widen the listed stabilization box (the report's box and --slices); no result depends on it",
    )
    analyze.add_argument("--degree-bound", type=int, default=4, help="degree bound for parameter-system searches")
    analyze.add_argument("--json", action="store_true", help="emit JSON instead of text")
    analyze.add_argument(
        "--slices",
        action="store_true",
        help="include every nonzero Ext / local-cohomology slice as {i, b, dim} records",
    )
    analyze.set_defaults(handler="_cmd_analyze")

    check = commands.add_parser("check", help="exit 0/1 according to one property")
    check.add_argument(
        "property",
        choices=["cm", "maxcm", "gorenstein", "regular-ring", "regular-module"],
    )
    _add_ring_options(check)
    check.set_defaults(handler="_cmd_check")

    verify = commands.add_parser("verify-paper", help="replay the bundled worked examples exactly")
    verify.add_argument("--char", type=int, default=32003)
    verify.add_argument("--json", action="store_true")
    verify.add_argument("--out", help="also write the report to this file")
    verify.set_defaults(handler="_cmd_verify")

    corpus = commands.add_parser("corpus", help="run the randomized suites and write JSONL")
    corpus.add_argument("--seed", type=int, default=42)
    corpus.add_argument("--count", type=int, default=200)
    corpus.add_argument("--n", type=int, default=4, help="number of variables")
    corpus.add_argument("--max-exponent", type=int, default=3)
    corpus.add_argument("--gens", default="1,5", help="generator count range lo,hi")
    corpus.add_argument("--squarefree", action="store_true")
    corpus.add_argument("--char", type=int, default=32003)
    corpus.add_argument("--degree-bound", type=int, default=4)
    corpus.add_argument("--json", action="store_true")
    corpus.add_argument("--out", help="JSONL output path; counterexamples go to <out>.counterexamples")
    corpus.add_argument(
        "--fault-injection",
        action="store_true",
        help="deliberately corrupt one comparator; the run must then report violations",
    )
    corpus.set_defaults(handler="_cmd_corpus")
    return parser


def _check_out_targets(args):
    """Reject an --out target that cannot be written, before any work starts."""
    if not getattr(args, "out", None):
        return
    targets = [args.out]
    if args.command == "corpus":
        targets.append(args.out + ".counterexamples")
    for path in targets:
        if os.path.exists(path):
            writable = not os.path.isdir(path) and os.access(path, os.W_OK)
        else:
            parent = os.path.dirname(os.path.abspath(path))
            writable = os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)
        if not writable:
            raise ValueError(f"cannot write the output file {path}")


def _emit(text: str, out_path):
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


def _parse_pair(args) -> tuple[RingSpec, MonomialIdeal, MonomialIdeal]:
    names = tuple(s.strip() for s in args.ring.split(",") if s.strip())
    if not names:
        raise ValueError("--ring needs at least one variable name")
    ring = RingSpec(names, args.char)
    a = parse_ideal(ring, args.a)
    module_ideal = parse_ideal(ring, args.i)
    return ring, a, module_ideal


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _cmd_analyze(args) -> int:
    ring, a, module_ideal = _parse_pair(args)
    PairAnalysis(a, module_ideal, args.degree_bound)  # refuses bad input before any listing; computes nothing
    slices = None
    if args.slices and module_ideal.is_proper:
        # dumped before the report: a box too large to list fails before the report's work
        ext, lc = dump_tables(ext_table(a, module_ideal, pad=args.box_pad), lc_table(a, module_ideal, pad=args.box_pad))
        slices = {"ext": ext, "local_cohomology": lc}
    report = full_report(a, module_ideal, pad=args.box_pad, degree_bound=args.degree_bound)
    if args.json:
        payload = {
            "ring": {"names": list(ring.names), "n": ring.n, "char": ring.char},
            "a": format_ideal(a),
            "i": format_ideal(module_ideal),
            "report": report.to_json(ring),
        }
        if slices is not None:
            payload["ext_slices"] = slices["ext"]
            payload["lc_slices"] = slices["local_cohomology"]
        _emit(json.dumps(payload, sort_keys=True, indent=2), args.out)
        return 0
    rec = report.invariants
    lines = [
        f"ring: {', '.join(ring.names)}   (char {ring.char}, box {list(report.box)})",
        f"a = {format_ideal(a)}",
        f"i = {format_ideal(module_ideal)}",
        f"grade = {_fmt(rec.grade)}   cd = {_fmt(rec.cd)}   mu = {rec.mu}   a-id = {_fmt(rec.a_id)}",
        f"pd(S/i) = {_fmt(rec.pd)}   depth = {_fmt(rec.depth)}   dim = {_fmt(rec.dim)}",
        f"ara in [{_fmt(rec.ara_lower)}, {_fmt(rec.ara_upper)}]",
        f"relative CM:             {_fmt(report.rel_cm)}",
        f"relative maximal CM:     {_fmt(report.rel_max_cm)}",
        f"relative Gorenstein:     {_fmt(report.rel_gorenstein)}",
        f"relative regular ring:   {_fmt(report.rel_regular_ring)}",
        f"relative regular module: {_fmt(report.rel_regular_module)}",
        f"chain consistent:        {_fmt(report.chain_consistent)}",
    ]
    if module_ideal.is_unit:
        lines.append("note: i is the unit ideal, so the module is zero (degenerate verdicts)")
    if slices is not None:
        for kind, dump in (("Ext", slices["ext"]), ("local cohomology", slices["local_cohomology"])):
            lines.append(f"nonzero {kind} slices ({len(dump)}):")
            for rec in dump:
                lines.append(f"  i={rec['i']}  b={tuple(rec['b'])}  dim={rec['dim']}")
    _emit("\n".join(lines), args.out)
    return 0


_CHECKERS = {
    "cm": is_relative_cm,
    "maxcm": is_relative_max_cm,
    "gorenstein": is_relative_gorenstein,
    "regular-ring": lambda a, i: is_relative_regular_ring(a),
    "regular-module": is_relative_regular_module,
}


def _cmd_check(args) -> int:
    _, a, module_ideal = _parse_pair(args)
    verdict = _CHECKERS[args.property](a, module_ideal)
    _emit("true" if verdict else "false", args.out)
    return 0 if verdict else 1


def _cmd_verify(args) -> int:
    results = {example: reproduce_example(example, args.char) for example in EXAMPLE_IDS}
    passed = all(r.passed for r in results.values())
    if args.json:
        payload = {
            "passed": passed,
            "examples": {
                example: {
                    "checks": r.instances,
                    "violations": r.violations,
                }
                for example, r in results.items()
            },
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2), args.out)
    else:
        lines = []
        for example, r in results.items():
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"example {example}: {status} ({r.instances} checks)")
            for v in r.violations:
                lines.append(f"  mismatch {v['field']}: expected {v['expected']}, got {v['actual']}")
        lines.append(f"verify-paper: {'PASS' if passed else 'FAIL'}")
        _emit("\n".join(lines), args.out)
    return 0 if passed else 1


def _cmd_corpus(args) -> int:
    lo, _, hi = args.gens.partition(",")
    try:
        gen_range = (int(lo), int(hi if hi else lo))
    except ValueError:
        raise ValueError("--gens expects lo,hi") from None
    params = CorpusParams(
        n=args.n,
        max_exponent=args.max_exponent,
        gen_count_range=gen_range,
        squarefree=args.squarefree,
        count=args.count,
        seed=args.seed,
        char=args.char,
        degree_bound=args.degree_bound,
    )
    run = run_all_suites(params, fault_injection=args.fault_injection)
    if args.out:
        with open(args.out, "w") as fh:
            for line in run.jsonl_lines:
                fh.write(line + "\n")
        with open(args.out + ".counterexamples", "w") as fh:
            for line in run.counterexample_lines:
                fh.write(line + "\n")
    if args.json:
        payload = {
            "digest": run.digest,
            "passed": run.passed,
            "suites": {
                name: {
                    "instances": r.instances,
                    "violations": len(r.violations),
                    "mode": r.mode,
                    **({"non_vacuous": r.non_vacuous} if r.non_vacuous is not None else {}),
                }
                for name, r in run.suites.items()
            },
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"corpus digest: {run.digest}")
        for name, r in run.suites.items():
            status = "PASS" if r.passed else "FAIL"
            extra = f", {r.non_vacuous} non-vacuous" if r.non_vacuous is not None else ""
            print(f"suite {name}: {status} ({r.instances} instances, {len(r.violations)} violations{extra})")
        print(f"corpus: {'PASS' if run.passed else 'FAIL'}")
    for name, r in run.suites.items():
        print(f"timing {name}: {r.wall_time:.2f}s", file=sys.stderr)
    return 0 if run.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _check_out_targets(args)
        return globals()[args.handler](args)
    except EngineDisagreementError as exc:
        print(f"internal engine disagreement: {exc}", file=sys.stderr)
        return 3
    except (RingMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must never read as "property false"
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
