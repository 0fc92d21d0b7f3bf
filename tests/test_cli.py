"""Command-line interface: flags, exit codes, JSON output, round trips."""

import hashlib
import json
import os
import subprocess
import sys

import jsonschema
import pytest

from relhom import cli, slices
from relhom.cli import main
from relhom.invariants import EngineDisagreementError
from relhom.monomials import RingSpec, format_ideal, parse_ideal, unit_ideal
from relhom.properties import full_report
from relhom.schemas import ANALYZE_REPORT_SCHEMA
from relhom.verifier import CorpusParams, corpus_instances

C4 = "x1*x2, x2*y1, y1*y2, y2*x1"
RING4 = ["--ring", "x1,x2,y1,y2"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "analyze", *RING4, "--a", "y1,y2", "--i", C4, "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, ANALYZE_REPORT_SCHEMA)
        report = payload["report"]
        assert report["invariants"]["grade"] == 1
        assert report["invariants"]["cd"] == 1
        assert report["rel_cm"] is True
        assert report["rel_max_cm"] is False

    def test_complete_graph_edge_ideal_is_computed(self, capsys):
        # a is the edge ideal of K6: 15 squarefree generators, whose full
        # Cech complex needs an incidence matrix of 41 409 225 cells, past
        # the rank ceiling; local cohomology runs on the Lyubeznik complex
        # of a's Frobenius power instead, and grade = cd = a_id = 5, the
        # height and the projective dimension of S/a
        ring = ",".join(f"x{k}" for k in range(6))
        edges = ",".join(f"x{i}*x{j}" for i in range(6) for j in range(i + 1, 6))
        code, out, _ = run(capsys, "analyze", "--ring", ring, "--a", edges, "--i", "0", "--json")
        assert code == 0
        report = json.loads(out)["report"]
        assert [report["invariants"][key] for key in ("grade", "cd", "a_id")] == [5, 5, 5]
        assert report["rel_cm"] is True

    def test_printed_ideals_round_trip(self, capsys):
        code, out, _ = run(capsys, "analyze", *RING4, "--a", "y1,y2", "--i", C4, "--json")
        assert code == 0
        payload = json.loads(out)
        ring = RingSpec(tuple(payload["ring"]["names"]), payload["ring"]["char"])
        assert parse_ideal(ring, payload["a"]) == parse_ideal(ring, "y1,y2")
        assert parse_ideal(ring, payload["i"]) == parse_ideal(ring, C4)

    def test_text_report_carries_same_numbers(self, capsys):
        code, out, _ = run(capsys, "analyze", *RING4, "--a", "y1,y2", "--i", C4)
        assert code == 0
        assert "grade = 1" in out and "cd = 1" in out
        assert "relative CM:             true" in out

    def test_degenerate_module(self, capsys):
        code, out, _ = run(capsys, "analyze", "--ring", "x", "--a", "x^2", "--i", "1")
        assert code == 0
        assert "degenerate" in out

    def test_degenerate_module_with_slices_flag(self, capsys):
        # slice engines need a nonzero module; the flag is ignored gracefully
        code, out, _ = run(capsys, "analyze", "--ring", "x", "--a", "x^2", "--i", "1", "--json", "--slices")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, ANALYZE_REPORT_SCHEMA)
        assert "ext_slices" not in payload

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "analyze", *RING4, "--a", "y1,y2", "--i", C4, "--json", "--out", str(target)
        )
        assert code == 0
        assert json.loads(target.read_text()) == json.loads(out)

    def test_slice_dump(self, capsys):
        code, out, _ = run(
            capsys, "analyze", *RING4, "--a", "y1,y2", "--i", C4, "--json", "--slices"
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, ANALYZE_REPORT_SCHEMA)
        ext_indices = {rec["i"] for rec in payload["ext_slices"]}
        lc_indices = {rec["i"] for rec in payload["lc_slices"]}
        assert ext_indices == {1, 2}
        assert lc_indices == {1}
        assert all(rec["dim"] >= 1 and len(rec["b"]) == 4 for rec in payload["ext_slices"])

    def test_slice_dump_text_mode(self, capsys):
        code, out, _ = run(capsys, "analyze", *RING4, "--a", "y1,y2", "--i", C4, "--slices")
        assert code == 0
        assert "nonzero Ext slices" in out and "nonzero local cohomology slices" in out

    def test_box_pad_does_not_change_numbers(self, capsys):
        _, plain, _ = run(capsys, "analyze", *RING4, "--a", "y1,y2", "--i", C4, "--json")
        _, padded, _ = run(
            capsys, "analyze", *RING4, "--a", "y1,y2", "--i", C4, "--json", "--box-pad", "2"
        )
        a = json.loads(plain)["report"]
        b = json.loads(padded)["report"]
        assert a["invariants"] == b["invariants"]
        assert a["box"] != b["box"]


    @pytest.mark.parametrize(
        "i, box, pd, depth, json_sha256",
        [
            ("0", "1, 1", 0, 2, "7552d29ae33ab7cf70fe5c07060163c7cc43abdab1c8a072edd687d13fd3240d"),
            ("x", "2, 1", 1, 1, "eb299b241606d5be0eb395dad74d897b183e0e9fd7964f9a40c57f10fe02f33f"),
        ],
    )
    def test_zero_relative_ideal_reports_are_pinned(self, capsys, i, box, pd, depth, json_sha256):
        # a = 0 uses no variable, so the profiles run on I's variables alone,
        # none for I = 0; the reports are those of the engines on the full ring
        code, out, _ = run(capsys, "analyze", "--ring", "x,y", "--a", "0", "--i", i)
        assert code == 0
        assert out == f"""\
ring: x, y   (char 32003, box [{box}])
a = 0
i = {i}
grade = 0   cd = 0   mu = 0   a-id = 0
pd(S/i) = {pd}   depth = {depth}   dim = {depth}
ara in [0, 0]
relative CM:             true
relative maximal CM:     true
relative Gorenstein:     true
relative regular ring:   true
relative regular module: true
chain consistent:        true
"""
        code, out, _ = run(capsys, "analyze", "--ring", "x,y", "--a", "0", "--i", i, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == json_sha256


class TestCheck:
    def test_gorenstein_holds(self, capsys):
        code, out, _ = run(capsys, "check", "gorenstein", "--ring", "x,y", "--a", "x^2,y^3,x*y", "--i", "0")
        assert code == 0
        assert out.strip() == "true"

    def test_maxcm_fails(self, capsys):
        code, out, _ = run(capsys, "check", "maxcm", *RING4, "--a", "y1,y2", "--i", C4)
        assert code == 1
        assert out.strip() == "false"

    def test_regular_ring(self, capsys):
        code, _, _ = run(capsys, "check", "regular-ring", "--ring", "x1,x2,x3,x4", "--a", "x1^2,x2^3")
        assert code == 0

    def test_cm_degenerate_module_holds(self, capsys):
        code, out, _ = run(capsys, "check", "cm", "--ring", "x", "--a", "x", "--i", "1")
        assert code == 0

    def test_maxcm_degenerate_module_is_input_error(self, capsys):
        code, _, err = run(capsys, "check", "maxcm", "--ring", "x", "--a", "x", "--i", "1")
        assert code == 2
        assert "error" in err


class TestInputErrors:
    def test_malformed_ideal_reports_position(self, capsys):
        code, _, err = run(capsys, "analyze", "--ring", "x,y", "--a", "x*q")
        assert code == 2
        assert "position 2" in err

    def test_unit_relative_ideal(self, capsys):
        code, _, _ = run(capsys, "analyze", "--ring", "x,y", "--a", "1")
        assert code == 2

    def test_composite_char(self, capsys):
        code, _, err = run(capsys, "analyze", "--ring", "x,y", "--a", "x", "--char", "10")
        assert code == 2

    def test_char_zero_rejected_by_engines(self, capsys):
        code, _, _ = run(capsys, "analyze", "--ring", "x,y", "--a", "x", "--char", "0")
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value", [("--n", "0"), ("--max-exponent", "0"), ("--gens", "3,1"), ("--max-exponent", "-1"), ("--n", "-1")]
    )
    def test_corpus_without_a_drawable_generator_is_refused(self, flag, value):
        # a draw needs a nonzero exponent vector; these are refused before
        # any pair is drawn, by the flag they name
        proc = subprocess.run(
            [sys.executable, "-m", "relhom", "corpus", f"{flag}={value}"], capture_output=True, text=True, timeout=30
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert flag in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--ring", "x,y", "--a", "x", "--i", "y", "--degree-bound", "-3", "--json"],
            ["corpus", "--count", "2", "--degree-bound", "-1"],
        ],
        ids=["analyze", "corpus"],
    )
    def test_negative_degree_bound_is_refused(self, capsys, monkeypatch, argv):
        # a parameter-system search over no candidates is no search; the
        # corpus refuses the bound before it draws a pair
        monkeypatch.setattr(cli, "run_all_suites", None)  # running the suites would crash (exit 4)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "degree bound" in err

    def test_negative_degree_bound_is_refused_before_any_listing(self, capsys, monkeypatch):
        # --slices lists both tables before the report; the bound is refused first
        listed = []
        monkeypatch.setattr(cli, "dump_tables", lambda *tables: listed.append(tables))
        code, out, err = run(capsys, "analyze", "--ring", "x,y", "--a", "x", "--i", "y", "--degree-bound", "-3", "--slices", "--json")
        assert (code, out, listed) == (2, "", [])
        assert "degree bound" in err

    def test_unknown_property(self, capsys):
        assert main(["check", "frobnicate", "--ring", "x", "--a", "x"]) == 2

    def test_missing_command(self, capsys):
        assert main([]) == 2


def test_engine_disagreement_exit_code(capsys, monkeypatch):
    def boom(a, i):
        raise EngineDisagreementError("test", {"left": 1, "right": 2})

    monkeypatch.setitem(__import__("relhom.cli", fromlist=["_CHECKERS"])._CHECKERS, "cm", boom)
    code, _, err = run(capsys, "check", "cm", "--ring", "x", "--a", "x")
    assert code == 3
    assert "disagreement" in err


class TestVerifyPaper:
    def test_all_examples_pass(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        for example in ("2.20", "2.21", "2.22", "3.6", "3.8b", "3.12", "4.5e"):
            assert f"example {example}: PASS" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert set(payload["examples"]) == {"2.20", "2.21", "2.22", "3.6", "3.8b", "3.12", "4.5e"}


class TestCorpus:
    def test_small_run_with_output(self, capsys, tmp_path):
        out_path = tmp_path / "corpus.jsonl"
        code, out, err = run(
            capsys,
            "corpus",
            "--count",
            "5",
            "--seed",
            "7",
            "--out",
            str(out_path),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        lines = out_path.read_text().splitlines()
        assert len(lines) == 5
        assert (tmp_path / "corpus.jsonl.counterexamples").exists()
        assert "timing" in err

    def test_fault_injection_fails(self, capsys):
        code, out, _ = run(capsys, "corpus", "--count", "3", "--fault-injection", "--json")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_bad_gens_flag(self, capsys):
        code, _, err = run(capsys, "corpus", "--count", "2", "--gens", "nope")
        assert code == 2


class TestUnwritableOut:
    """An --out target that cannot be written is an input error, raised before any work."""

    def test_analyze_into_a_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.txt"
        code, out, err = run(capsys, "analyze", *RING4, "--a", "y1,y2", "--i", C4, "--out", str(target))
        assert code == 2
        assert out == "" and "cannot write" in err

    def test_corpus_into_a_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "corpus", "--count", "2", "--out", str(tmp_path))
        assert code == 2
        assert out == "" and "cannot write" in err

    def test_corpus_counterexample_target_is_checked_first(self, capsys, tmp_path):
        target = tmp_path / "run.jsonl"
        (tmp_path / "run.jsonl.counterexamples").mkdir()
        code, out, err = run(capsys, "corpus", "--count", "2", "--out", str(target))
        assert code == 2
        assert out == "" and "cannot write" in err
        assert not target.exists()


class TestInputLimits:
    """Exponents and box bounds past the int16 degree grid are input errors."""

    def test_wrapping_exponent_is_input_error(self, capsys):
        code, out, err = run(capsys, "analyze", "--ring", "x,y", "--a", "x^20000", "--i", "x^20000")
        assert code == 2
        assert out == "" and "exceeds the limit" in err

    def test_overflowing_redundant_generator_is_input_error(self, capsys):
        # y^20000 is divisible by y, so it is not kept, but it is still out of range
        code, out, err = run(capsys, "analyze", "--ring", "x,y", "--a", "x", "--i", "y, y^20000")
        assert code == 2
        assert out == "" and "exceeds the limit" in err

    def test_overflowing_exponent_is_input_error(self, capsys):
        code, _, err = run(capsys, "analyze", "--ring", "x,y", "--a", "x", "--i", "x^40000")
        assert code == 2
        assert "exceeds the limit" in err

    def test_overflowing_exponent_is_not_a_false_verdict(self, capsys):
        code, out, err = run(capsys, "check", "cm", "--ring", "x,y", "--a", "x", "--i", "x^40000")
        assert code == 2
        assert out == "" and "exceeds the limit" in err

    def test_projective_dimension_input_is_rejected_before_the_taylor_engine(self):
        with pytest.raises(ValueError, match="exceeds the limit"):
            parse_ideal(RingSpec(("x", "y")), "x^40000, y")

    def test_box_pad_past_the_grid_is_input_error(self, capsys):
        code, _, err = run(capsys, "analyze", "--ring", "x,y", "--a", "x", "--i", "x^16383", "--box-pad", "1")
        assert code == 2
        assert "too large" in err

    def test_large_box_pad_is_scanned_by_class(self, capsys):
        # the class grid of this pair has 9 degrees however far the box is padded
        argv = ["analyze", "--ring", "x,y", "--a", "x,y", "--json"]
        code, out, _ = run(capsys, *argv, "--box-pad", "16000")
        assert code == 0
        padded = json.loads(out)["report"]
        code, out, _ = run(capsys, *argv)
        unpadded = json.loads(out)["report"]
        assert padded.pop("box") == [16002, 16002]
        unpadded.pop("box")
        assert padded == unpadded

    def test_large_box_pad_slice_dump_is_input_error(self, capsys):
        code, out, err = run(capsys, "analyze", "--ring", "x,y", "--a", "x,y", "--box-pad", "16000", "--slices")
        assert code == 2
        assert out == ""
        assert err == (
            "error: stabilization box (16002, 16002) lists 256064005 nonzero slices, over 250000: too large to scan\n"
        )

    def test_sparse_listing_of_a_wide_box(self, capsys):
        # 24 006 nonzero slices among 2.56e8 box degrees, listed from their classes
        code, out, _ = run(
            capsys, "analyze", "--ring", "x,y", "--a", "x", "--i", "x", "--box-pad", "8000", "--slices", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert (len(payload["ext_slices"]), len(payload["lc_slices"])) == (16_004, 8_002)

    def test_listing_past_the_record_ceiling_is_input_error(self, capsys):
        # 64 032 004 local-cohomology and 8 002 Ext records
        code, out, err = run(capsys, "analyze", "--ring", "x,y", "--a", "x", "--box-pad", "8000", "--slices")
        assert code == 2
        assert out == "" and "64040006 nonzero slices" in err

    def test_listing_ceiling_counts_both_tables(self, capsys, monkeypatch):
        # 16 004 Ext and 8 002 local-cohomology records: each table is under
        # the ceiling, their sum is not, and neither is built
        monkeypatch.setattr(slices, "_MAX_LISTING_RECORDS", 20_000)
        monkeypatch.setattr(slices.SliceTable, "_records", lambda *args: pytest.fail("a record was built"))
        argv = ["analyze", "--ring", "x,y", "--a", "x", "--i", "x", "--box-pad", "8000", "--slices"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and "24006 nonzero slices, over 20000" in err

    def test_slice_dump_is_sized_by_levels(self, capsys):
        # the 25-generator chain has 2^25 Taylor faces, but its dump is 26
        # levels over 3 213 box degrees
        chain = ",".join(f"x^{i}*y^{24 - i}" for i in range(25))
        code, out, _ = run(capsys, "analyze", "--ring", "x,y", "--a", chain, "--i", "x^30", "--slices")
        assert code == 0
        assert "nonzero Ext slices" in out

    def test_check_takes_no_box_options(self, capsys):
        # no verdict reads the box, the parameter-system degree bound or a
        # JSON form, so check has none of those options
        argv = ["cm", "--ring", "x,y", "--a", "x", "--i", "x^16383"]
        for extra in (["--box-pad", "1"], ["--degree-bound", "0"], ["--json"]):
            code, out, _ = run(capsys, "check", *argv, *extra)
            assert (code, out) == (2, "")
        assert run(capsys, "check", *argv)[:2] == (0, "true\n")

    def test_largest_exponent_is_exact(self, capsys):
        code, out, _ = run(capsys, "analyze", "--ring", "x,y", "--a", "x^16383", "--i", "x^16383", "--json")
        assert code == 0
        rec = json.loads(out)["report"]["invariants"]
        assert (rec["grade"], rec["cd"], rec["a_id"]) == (0, 0, 1)


def test_unexpected_exception_exit_code(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("unexpected\nfailure")

    monkeypatch.setattr("relhom.cli.full_report", boom)
    code, out, err = run(capsys, "analyze", "--ring", "x", "--a", "x")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error:") and err.count("\n") == 1


def test_check_verdicts_match_the_full_report(capsys):
    fields = {
        "cm": "rel_cm",
        "maxcm": "rel_max_cm",
        "gorenstein": "rel_gorenstein",
        "regular-ring": "rel_regular_ring",
        "regular-module": "rel_regular_module",
    }
    params = CorpusParams(count=6, seed=11)
    pairs = corpus_instances(params)
    pairs.append((pairs[0][0], unit_ideal(pairs[0][0].ring)))
    names = ",".join(params.ring().names)
    for a, module_ideal in pairs:
        report = full_report(a, module_ideal)
        for prop, field in fields.items():
            argv = ["check", prop, "--ring", names, "--a", format_ideal(a), "--i", format_ideal(module_ideal)]
            code, _, _ = run(capsys, *argv)
            assert code == {True: 0, False: 1, None: 2}[getattr(report, field)], (prop, a, module_ideal)


def test_one_parser_serves_a_run_of_calls(capsys, monkeypatch):
    # the parser is built once per process: a run of calls in one process
    # (a valid analyze, a parse error, a check, the help) must exit and
    # print as the same commands do each in a fresh interpreter
    monkeypatch.setenv("COLUMNS", "80")
    commands = [
        ["analyze", "--ring", "x,y", "--a", "x", "--i", "x*y", "--json"],
        ["analyze", "--ring", "x,y", "--a", "x", "--box-pad", "two"],
        ["check", "cm", "--ring", "x,y", "--a", "x", "--i", "x*y"],
        ["--help"],
    ]
    in_process = []
    for argv in commands:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out))
    separate = []
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "relhom", *argv], capture_output=True, text=True, timeout=60, env=os.environ
        )
        separate.append((proc.returncode, proc.stdout))
    assert in_process == separate
    assert [code for code, _ in in_process] == [0, 2, 1, 0]
    assert in_process[3][1] == cli._build_parser.__wrapped__().format_help()
    assert cli._build_parser() is cli._build_parser()


def test_a_handler_rebound_after_the_first_call_is_the_one_run(capsys, monkeypatch):
    # the cached parser names each handler; main looks it up per call
    assert main(["check", "cm", "--ring", "x", "--a", "x"]) == 0
    monkeypatch.setattr(cli, "_cmd_check", lambda args: 7)
    assert main(["check", "cm", "--ring", "x", "--a", "x"]) == 7
