"""relhom benchmark: three workloads, end-to-end metrics and a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus|big_box|wide|all --seed 42 --seconds 20 --trace 0|1

Every unit of work runs in a fresh interpreter (perfbench/unit.py) that
imports relhom from ``src``, passes the verify-paper gate, runs the
workload once and checks its output.  Units repeat until ``--seconds`` is
used up (at least two).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs one untraced unit, then traced units,
and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` /
``attempted`` is the fail ratio: a pair fails on a crash, a nonzero exit,
an engine disagreement, a suite violation or output that differs from
perfbench/reference.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calibrate import REFERENCE_S, Calibration
from tracer import PER_LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("corpus", "big_box", "wide")

SETUP_PROBES = 7
# a unit of any workload takes 15-22 s on a 2-vCPU Xeon, so a run of 36 s
# would often hold one unit; two at least keep every median over two
MIN_UNITS = 2
MAX_UNITS = 20
# a run must end within 180 s; no unit starts unless it fits before this
RUN_BUDGET_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "pair_p50_s": "s", "peak_rss_mb": "MB"}
UNITS = {**END_TO_END, **PER_LAYER_UNITS}


class BenchmarkError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, float, str]:
    """Start unit.py; return (set-up seconds, lifetime seconds, stdout after ``ready``)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "unit.py"), *args],
        stdout=subprocess.PIPE,
        env=_child_env(),
        cwd=ROOT,
        text=True,
    )
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchmarkError("a unit ran past the run's time budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError(f"unit.py {' '.join(args)} failed (exit {proc.returncode})")
    return setup, time.perf_counter() - start, rest


def run_unit(workload: str, seed: int, trace: bool, tmp: str, deadline: float) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
            "--reference", REFERENCE, "--tmp", tmp]
    setup, lifetime, out = spawn(args, deadline)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup"] = setup
    result["lifetime"] = lifetime
    return result


def run_units(workload, seed, trace, seconds, tmp, deadline, after=None) -> list[dict]:
    """At least MIN_UNITS units; more while the next one still fits into
    ``seconds``.  ``after`` runs after each unit, outside the ``seconds`` budget."""
    units, spent = [], 0.0
    while True:
        start = time.perf_counter()
        units.append(run_unit(workload, seed, trace, tmp, deadline))
        spent += time.perf_counter() - start
        if after is not None:
            after()
        last = units[-1]["lifetime"]
        if time.perf_counter() + 2 * last > deadline or len(units) >= MAX_UNITS:
            return units
        if len(units) >= MIN_UNITS and spent + last > seconds:
            return units


def tally(units: list[dict]) -> tuple[int, int, bool]:
    """(attempted, failed, every gate passed); a failed gate counts as one failed attempt."""
    attempted = failed = 0
    for u in units:
        attempted += u["attempted"] if u["gate"] else 1
        failed += u["failed"] if u["gate"] else 1
    return attempted, failed, all(u["gate"] for u in units)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        if trace:
            base = run_unit(workload, seed, False, tmp, deadline)
            units = run_units(workload, seed, True, max(seconds - base["lifetime"], 0.0), tmp, deadline)
            all_units = [base, *units]
        else:
            calibration = Calibration()
            calibration.sample()
            setups = [spawn(["--probe"], deadline)[0] for _ in range(SETUP_PROBES)]
            units = all_units = run_units(workload, seed, False, seconds, tmp, deadline, calibration.sample)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))
        except OSError:
            pass
    attempted, failed, gates = tally(all_units)
    valid = [u for u in all_units if u["gate"]]
    # one seed gives one input, so every unit must produce the same bytes
    same_output = len({u["output"] for u in valid}) <= 1
    correct = gates and failed == 0 and same_output and bool(valid)
    if trace:
        traced = [u for u in units if u["gate"]]
        metrics = {}
        if traced:
            for name in traced[0]["layers"]:
                metrics[name] = statistics.median(u["layers"][name] for u in traced)
        if traced and base["gate"]:
            metrics["trace.overhead_s"] = statistics.median(u["wall"] for u in traced) - base["wall"]
    else:
        # times in reference seconds: this host's seconds times the run's speed factor
        scale = calibration.scale()
        setups += [u["setup"] for u in units]
        metrics = {"setup_s": scale * statistics.median(setups)}
        if valid:
            metrics["wall_s"] = scale * statistics.median(u["wall"] for u in valid)
            metrics["pair_p50_s"] = scale * statistics.median(t for u in valid for t in u["pairs"])
            metrics["peak_rss_mb"] = statistics.median(u["peak_rss_mb"] for u in valid)
    first = valid[0] if valid else {}
    calibration_s = None if trace else calibration.median_s()
    return {
        "workload": workload,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "units": len(units),
        "numpy": first.get("numpy"),
        "corpus_digest": first.get("corpus_digest"),
        "output_sha256": first.get("output"),
        "calibration_s": calibration_s,
    }


# -- provenance ------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the relhom sources, so a result names the code it measured."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "relhom")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance(seed: int, results: list[dict]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": results[0]["numpy"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "corpus_digest": results[0]["corpus_digest"],
        "outputs": {r["workload"]: r["output_sha256"] for r in results},
        "units": {r["workload"]: r["units"] for r in results},
        "calibration_s": {r["workload"]: r["calibration_s"] for r in results},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "relhom", "cli.py")) or not os.path.isfile(REFERENCE):
        print("error: run from a relhom checkout (src/relhom and perfbench/reference.json needed)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if args.workload == "all" else ""
        ratio = r["failed"] / r["attempted"]
        print(f"{r['workload']}: fail_ratio = {ratio:.4f} ({r['failed']}/{r['attempted']} pairs), "
              f"correct = {str(r['correct']).lower()}, units = {r['units']}")
        if r["calibration_s"] is not None:
            print(f"{r['workload']}: calibration kernel = {r['calibration_s']:.6g} s, "
                  f"times scaled by {REFERENCE_S / r['calibration_s']:.4f}")
        for name, value in r["metrics"].items():
            unit = UNITS[name]
            print(f"{r['workload']}: {name} = {value:.6g} {unit}")
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"provenance": provenance(args.seed, results)}, sort_keys=True))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
