import hashlib
import importlib.util
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from singzeta import acceptance, cli, oracle
from singzeta.cli import dispatch, EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET, _emit_reports
from singzeta.laurent import LaurentPoly2
from singzeta.report import BudgetExceededError, VerificationReport
from singzeta.series import TruncSeries2
from singzeta.tables import table_text

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_nz_text(capsys):
    code, out = run(capsys, "nz", "--family", "node", "--m", "1", "--d", "1")
    assert code == EXIT_PASS
    assert out.strip() == "1 - t + q*t^2"


def test_nz_json_roundtrip(capsys):
    code, out = run(capsys, "nz", "--family", "cusp", "--m", "2", "--d", "1",
                    "--format", "json")
    assert code == EXIT_PASS
    obj = json.loads(out)
    assert obj["vars"] == ["q", "t"]
    assert obj["terms"] == sorted(obj["terms"], key=lambda x: (x[0], x[1]))


def test_z_command(capsys):
    # cusp m=1 d=2: NZ = 1 + (q^2+q^3) t^2 + q^4 t^4, so the t^2 Quot count is
    # h_2(1,q) + q^2 + q^3 (equals 19 at q=2, matching the census)
    code, out = run(capsys, "z", "--family", "cusp", "--m", "1", "--d", "2",
                    "--tprec", "3")
    assert code == EXIT_PASS
    lines = out.strip().splitlines()
    assert lines[0] == "t^0: 1"
    assert lines[1] == "t^1: 1 + q"
    assert lines[2] == "t^2: 1 + q + 2*q^2 + q^3"


def test_cl_command(capsys):
    code, out = run(capsys, "cl", "--family", "node", "--m", "1",
                    "--uprec", "4", "--tprec", "3")
    assert code == EXIT_PASS
    assert out.startswith("numerator: 1 - (u + u^2 + u^3)*t")


def test_hall_command(capsys):
    code, out = run(capsys, "hall", "--lambda", "1,1", "--mu", "1")
    assert code == EXIT_PASS
    assert out.strip() == "1 + q"
    code, out = run(capsys, "hall", "--lambda", "1,1", "--mu", "1", "--oracle", "2")
    assert "oracle count at p=2: 3 (formula gives 3)" in out


def test_verify_pass_exit_code(capsys):
    code, out = run(capsys, "verify", "funceq", "--family", "node", "--m", "2", "--d", "2")
    assert code == EXIT_PASS
    assert "[PASS]" in out


def test_verify_json(capsys):
    code, out = run(capsys, "verify", "node22", "--d", "2", "--format", "json")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload[0]["status"] == "pass"
    assert payload[0]["check"] == "node22"


def test_table_commands(capsys):
    for which in ("1", "2", "3"):
        code, out = run(capsys, "table", which)
        assert code == EXIT_PASS
        assert out.strip() == table_text(int(which), computed=False)


def test_table_json(capsys):
    # the JSON rows round-trip to the values the text table prints
    for which in ("1", "2"):
        code, out = run(capsys, "--format", "json", "table", which)
        assert code == EXIT_PASS
        obj = json.loads(out)
        assert obj["table"] == int(which)
        lines = []
        for row in obj["rows"]:
            for column in ("free", "normalization"):
                assert row[column]["vars"] == ["q", "t"]
                poly = LaurentPoly2({(a, b): int(c) for a, b, c in row[column]["terms"]})
                assert poly.to_json_obj() == row[column]
                lines.append("d=%d %s: %s" % (row["d"], column, poly.grouped_str()))
        assert "\n".join(lines) == table_text(int(which))
    code, out = run(capsys, "table", "3", "--format", "json")
    assert code == EXIT_PASS
    obj = json.loads(out)
    assert obj["table"] == 3
    lines = []
    for row in obj["rows"]:
        obj = row["numerator"]
        series = TruncSeries2(obj["u_prec"], obj["t_prec"],
                              {(i, j): int(v) for i, j, v in obj["terms"]})
        assert series.to_json_obj() == obj
        lines.append("m=%d: %s" % (row["m"], series))
    assert "\n".join(lines) == table_text(3)


def test_usage_errors(capsys):
    assert dispatch(["nonsense"]) == EXIT_USAGE
    capsys.readouterr()
    assert dispatch(["nz", "--family", "node", "--m", "1"]) == EXIT_USAGE
    capsys.readouterr()
    assert dispatch(["table", "4"]) == EXIT_USAGE
    capsys.readouterr()
    # bad sizes are rejected by the library, with one line naming the value
    for argv, message in (
            (["oracle", "matrix", "--n", "-1", "--p", "2"], "n must be at least 0, got -1"),
            (["oracle", "matrix", "--n", "-2", "--p", "2"], "n must be at least 0, got -2"),
            (["verify", "matrix-count", "--n", "-1", "--p", "2"],
             "n must be at least 0, got -1"),
            (["verify", "coh-quot", "--family", "node", "--m", "1", "--p", "2",
              "--n", "1", "--r", "1", "--d-list", ","], "d_list must name at least one rank"),
            (["oracle", "quot", "--family", "node", "--m", "1", "--d", "1", "--p", "2",
              "--max-codim", "-1"], "max_codim must be at least 0, got -1"),
            (["oracle", "quot", "--family", "node", "--m", "-1", "--d", "1", "--p", "2",
              "--max-codim", "2"], "m must be at least 1, got -1"),
            (["oracle", "quot", "--family", "cusp", "--m", "0", "--d", "1", "--p", "2",
              "--max-codim", "2"], "m must be at least 1, got 0"),
            (["oracle", "quot", "--family", "node", "--m", "1", "--d", "-1", "--p", "2",
              "--max-codim", "2"], "d must be at least 0, got -1"),
            (["oracle", "solomon", "--d", "2", "--p", "2", "--N", "-1"],
             "N must be at least 0, got -1"),
            (["oracle", "solomon", "--d", "-1", "--p", "2", "--N", "2"],
             "d must be at least 0, got -1"),
            (["z", "--family", "node", "--m", "1", "--d", "1", "--tprec", "0"],
             "t_prec must be at least 1, got 0"),
            (["z", "--family", "node", "--m", "1", "--d", "1", "--tprec", "-1"],
             "t_prec must be at least 1, got -1"),
            (["cl", "--family", "node", "--m", "0", "--uprec", "5", "--tprec", "4"],
             "m must be at least 1, got 0"),
            (["cl", "--family", "cusp", "--m", "-1"], "m must be at least 1, got -1"),
            (["verify", "special", "--family", "node", "--m", "0", "--uprec", "5"],
             "m must be at least 1, got 0"),
            (["nz", "--family", "node", "--m", "0", "--d", "1"],
             "m must be at least 1, got 0"),
            (["verify", "t2", "--m", "0", "--d", "2"], "m must be at least 1, got 0"),
            (["verify", "squaring", "--m", "0", "--d", "2"], "m must be at least 1, got 0"),
            (["verify", "conversion", "--m", "1", "--d", "-1"], "d must be at least 0, got -1"),
            (["nz", "--family", "node", "--m", "1", "--d", "-1"], "d must be at least 0, got -1"),
            (["verify", "node22", "--d", "-1"], "d must be at least 0, got -1"),
            (["nz", "--family", "cusp", "--m", "1", "--d", "-1"], "d must be at least 0, got -1"),
            (["nz", "--family", "node", "--m", "1", "--d", "-1", "--module", "normalization"],
             "d must be at least 0, got -1"),
            (["z", "--family", "cusp", "--m", "1", "--d", "-1", "--tprec", "3"],
             "d must be at least 0, got -1"),
            (["verify", "funceq", "--family", "cusp", "--m", "1", "--d", "-1"],
             "d must be at least 0, got -1"),
            (["verify", "t2", "--m", "1", "--d", "-1"], "d must be at least 0, got -1"),
            (["verify", "squaring", "--m", "1", "--d", "-1"], "d must be at least 0, got -1"),
            (["verify", "mlimit", "--family", "node", "--d", "-1"],
             "d must be at least 0, got -1"),
            # the window is checked before either family's sum is set up
            (["cl", "--family", "node", "--m", "1", "--tprec", "0"],
             "t_prec must be at least 1, got 0"),
            (["cl", "--family", "cusp", "--m", "1", "--tprec", "0"],
             "t_prec must be at least 1, got 0"),
            (["cl", "--family", "node", "--m", "1", "--uprec", "0"],
             "u_prec must be at least 1, got 0"),
            (["cl", "--family", "cusp", "--m", "1", "--uprec", "0"],
             "u_prec must be at least 1, got 0"),
            (["verify", "limit", "--family", "node", "--m", "1", "--uprec", "0"],
             "u_prec must be at least 1, got 0"),
            (["verify", "limit", "--family", "cusp", "--m", "1", "--tprec", "0"],
             "t_prec must be at least 1, got 0"),
            (["verify", "mlimit", "--family", "node", "--d", "1", "--qprec", "0"],
             "q_prec must be at least 1, got 0"),
            (["verify", "mlimit", "--family", "cusp", "--d", "1", "--tprec", "0"],
             "t_prec must be at least 1, got 0"),
            (["verify", "conversion", "--m", "1", "--d", "1", "--uprec", "0"],
             "u_prec must be at least 1, got 0"),
            (["verify", "conversion", "--m", "1", "--d", "1", "--tprec", "0"],
             "t_prec must be at least 1, got 0"),
            (["oracle", "quot", "--family", "node", "--m", "1", "--d", "1", "--p", "2",
              "--max-codim", "2", "--budget", "-1"], "budget must be at least 0, got -1"),
            (["oracle", "matrix", "--n", "1", "--p", "2", "--budget", "-1"],
             "budget must be at least 0, got -1"),
            # checked for every rank before any census runs
            (["verify", "coh-quot", "--family", "node", "--m", "1", "--p", "2", "--n", "3",
              "--r", "2", "--d-list", "3,1", "--budget", "10"], "need r <= min(d, n)"),
            (["verify", "coh-quot", "--family", "node", "--m", "1", "--p", "2", "--n", "2",
              "--r", "-1", "--d-list", "1,2"], "r must be at least 0, got -1"),
            # a negative size is named before the r <= min(d, n) check
            (["verify", "coh-quot", "--family", "node", "--m", "1", "--p", "2", "--n", "-1",
              "--r", "0", "--d-list", "1"], "n must be at least 0, got -1"),
            (["verify", "coh-quot", "--family", "node", "--m", "1", "--p", "2", "--n", "1",
              "--r", "0", "--d-list=-1"], "d must be at least 0, got -1"),
            # parts out of order, before any zero part is dropped
            (["hall", "--lambda", "1,0,1", "--mu", "1"],
             "parts must be weakly decreasing: (1, 0, 1)"),
            (["hall", "--lambda", "1,1", "--mu", "0,1"],
             "parts must be weakly decreasing: (0, 1)"),
            (["oracle", "hall", "--lambda", "2,1", "--mu", "1", "--nu", "0,1", "--p", "2"],
             "parts must be weakly decreasing: (0, 1)"),
            # a rank compared with itself would pass whatever the series
            (["verify", "limit", "--family", "node", "--m", "1", "--d-list", "4,4"],
             "d_list repeats rank 4"),
            # a non-integer is named with the option or the text it came in
            (["verify", "limit", "--family", "node", "--m", "1", "--d-list", "4,x"],
             "--d-list must be comma-separated integers, got '4,x'"),
            (["hall", "--lambda", "2,x", "--mu", "1"],
             "partition parts must be integers, got '2,x'")):
        assert dispatch(argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message


def test_failing_check_inside_its_timing_block(capsys):
    # limit_check builds this report while its time is still running
    code, out = run(capsys, "verify", "limit", "--family", "node", "--m", "2",
                    "--d-list", "4,5", "--uprec", "6", "--tprec", "4")
    assert code == EXIT_FAIL
    assert out == ("[FAIL] limit d_list=(4, 5) kind=node m=2 first-discrepancy=(5, 1)"
                   " (consecutive ranks disagree)\n")


def test_closed_stdout_gives_no_traceback():
    # about 72 KB of output, more than a pipe holds, so the program still
    # writes after the reader has gone, as under `| head -c 10`
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "singzeta.cli", "--format", "json", "cl",
                             "--family", "cusp", "--m", "3", "--uprec", "80", "--tprec", "60"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert os.read(proc.stdout.fileno(), 10) == b'{"numerato'
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_FAIL
    assert err == b""  # neither a traceback nor an "Exception ignored" line


# sha256 of the stdout of `--format json table N`: the JSON of the published
# tables changes only on purpose
TABLE_JSON_SHA256 = {
    1: "5e8487e003b2a93fe94cc199a759a07ecadeb02554afab63869e2d289f15b47c",
    2: "bf4b24aeb9178ccc46e8dc7e9904c46af37742f8b7885aa3a128dd8744ad3be1",
    3: "908452654b86e3c9d28f424b0774a33652de4d3ff0ff9f1c38c58829e2f78d79",
}


# cli_digest of each README tour command run with `--format json`, every
# "wall_time_ms" key removed from its stdout (the only bytes that vary)
TOUR_JSON_DIGESTS = {
    "nz": "dce6296a6b197a47fa517b90824efc7b7bc993869fb5b2f4971513331918ce70",
    "nz-json": "1b5fe9d6c54bfe4a41f599e7275d15cc5471f1a433848e7ab6f3a372ebc4d1a1",
    "z": "98646250cf3f74cc5d8519ec32ea39f014519e0b89547c057c1a0e331cd8ae6d",
    "cl": "c6da54f474bfaea196d78ac5ab3bd5da934b979f2a1d107817b3c6a03cd0ad30",
    "hall": "88658d0c7a66085b0946b6bc5f3912b7a471b8818368284d1f47486ab237d925",
    "table1": "398ea6dd1f40c91c1e813b8564ea830d26d940b1be4fc7d23877f772b614e2e8",
    "table3": "4b0b6a420bae14028078369b4be6c5282c395be5ca9c79123e189d51d0af2d3d",
    "oracle-quot": "22886e26269eef66eb635c01fcd0e54587bbe3b3308c112e53001f12195c4a2a",
    "oracle-solomon": "dc6ebd9ca0c5506de72687ea07273b5a4beaa1becedb9a56973f53693c75d6af",
    "oracle-matrix": "30f402a2d31b7cf294f65295cf66e332ae0b9decd17ec1c22564434955aa9982",
    "verify-funceq": "e20d16b5d65a46016e95a36b797ecf177e4ccfc11f719e34e24a1b31d366bde6",
    "verify-squaring": "8c1a362500f49e038a2b30bd5812eb3d90f44a9976a1830828d5d498f4eebcc0",
    "verify-t2": "6046a45839e30043b58b68e201c6edcbb9334b79a363c2db1b798cc2a6ee762b",
    "verify-limit": "32eb352610e9630bf21563229c67f21410c387096c1729c53f15dc312182d003",
    "verify-conversion": "01a1e3c883047add56813f5db9f4d6552a48216a5954e1b2495bd29dee9a4cef",
    "verify-special": "b6c61f238029212fb5590ceee0c815be33bf9d0c878e87c36d1d8d26c1c13bc2",
    "verify-matrix-count": "0e7d22ef9b01965e1b7cf7e88ef5be78eaadc9c9a7d09c715ce4528fe838d121",
    "verify-coh-quot": "49ff4d0160ccde209e8b92a14af67221391da0d050cde0f7e3849c85193ef431",
}


def _workloads():
    """The benchmark's workloads module, which holds the README tour commands."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_cli_tour_output_bytes(capsys):
    # every README tour command of the benchmark prints the bytes whose digest
    # bench/reference.json holds, and in JSON the bytes of TOUR_JSON_DIGESTS
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())["digests"]
    for rid, command in workloads.CLI_COMMANDS:
        code = dispatch(command.split())
        stdout = capsys.readouterr().out.encode()
        assert workloads.cli_digest(code, stdout) == reference[rid], command
        code = dispatch(command.split() + ["--format", "json"])
        stdout = re.sub(r'\s*"wall_time_ms": [^,]*,', "", capsys.readouterr().out).encode()
        assert workloads.cli_digest(code, stdout) == TOUR_JSON_DIGESTS[rid], command
    for which, digest in TABLE_JSON_SHA256.items():
        assert dispatch(["--format", "json", "table", str(which)]) == EXIT_PASS
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("numerator left Z[q,t]")

    monkeypatch.setattr(cli.qz, "nz", broken)
    assert dispatch(["nz", "--family", "node", "--m", "1", "--d", "1"]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: numerator left Z[q,t]\n"


def test_out_of_memory_exit_code(capsys, monkeypatch):
    # raised, not provoked: nothing is allocated
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.qz, "nz", exhausted)
    assert dispatch(["nz", "--family", "node", "--m", "1", "--d", "1"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: out of memory\n"


def test_budget_exit_code(capsys):
    code, _ = run(capsys, "oracle", "quot", "--family", "node", "--m", "1",
                  "--d", "2", "--p", "2", "--max-codim", "3", "--budget", "5")
    assert code == EXIT_BUDGET


def test_wide_root_stops_before_its_children(capsys):
    # the free cusp model at d = 6, p = 131 has a root of (131^6 - 1)/130
    # lines; it is charged when expanded, so the walk stops with the root
    # alone counted and exits 3 with one line
    argv = ["oracle", "quot", "--family", "cusp", "--m", "1", "--d", "6", "--p", "131",
            "--max-codim", "1", "--budget", "300000"]
    assert dispatch(argv) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: submodule enumeration exceeded budget 300000\n"
    with pytest.raises(BudgetExceededError) as stop:
        oracle.quot_census("cusp", 1, 6, 131, 1, budget=300000)
    assert stop.value.progress.counts == {(0, 0): 1}


def test_fail_exit_path(capsys):
    bad = VerificationReport("demo", {}, "fail", discrepancy=(0, 0))
    assert _emit_reports([bad], "text") == EXIT_FAIL
    capsys.readouterr()


def test_oracle_commands(capsys):
    code, out = run(capsys, "oracle", "matrix", "--n", "1", "--p", "3")
    assert code == EXIT_PASS and out.strip() == "3"
    code, out = run(capsys, "oracle", "solomon", "--d", "1", "--p", "2", "--N", "3")
    assert code == EXIT_PASS and out.strip() == "[1, 1, 1, 1]"
    code, out = run(capsys, "oracle", "hall", "--lambda", "2", "--mu", "1",
                    "--nu", "1", "--p", "5")
    assert code == EXIT_PASS and out.strip() == "1"
    code, out = run(capsys, "oracle", "quot", "--family", "node", "--m", "1",
                    "--d", "1", "--p", "2", "--max-codim", "2", "--format", "json")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["census"]["(0,0)"] == "1"


def test_oracle_quot_codim_zero(capsys):
    # the whole module is the one codim-0 submodule, as verify coh-quot --n 0 finds
    for module in ("free", "normalization", "max-ideal"):
        code, out = run(capsys, "oracle", "quot", "--family", "node", "--m", "1",
                        "--d", "2", "--p", "2", "--max-codim", "0", "--module", module)
        assert code == EXIT_PASS
        assert out == "codim=0 rank=0 count=1\n"


def _stub_criteria(monkeypatch):
    passing = VerificationReport("stub-pass", {"k": 1}, "pass")
    failing = VerificationReport("stub-fail", {"k": 2}, "fail", discrepancy=(0, 3))
    monkeypatch.setattr(acceptance, "CRITERIA", [
        ("1 passing", lambda: [passing], "fast"),
        ("2 failing", lambda: [passing, failing], "fast"),
        ("3 oracle only", lambda budget: [failing], "oracle")])
    return passing, failing


def test_suite_text(capsys, monkeypatch):
    passing, failing = _stub_criteria(monkeypatch)
    code, out = run(capsys, "suite", "fast")
    assert code == EXIT_FAIL
    assert out == ("[PASS] 1 passing\n[FAIL] 2 failing\n    %s\n"
                   "suite fast: 1/2 groups passed\n" % failing)
    monkeypatch.setattr(acceptance, "CRITERIA", acceptance.CRITERIA[:1])
    code, out = run(capsys, "suite", "full")
    assert code == EXIT_PASS
    assert out == "[PASS] 1 passing\nsuite full: 1/1 groups passed\n"


def test_suite_json(capsys, monkeypatch):
    passing, failing = _stub_criteria(monkeypatch)
    code, out = run(capsys, "--format", "json", "suite", "full")
    assert code == EXIT_FAIL
    assert json.loads(out) == [
        {"group": "1 passing", "status": "pass", "reports": [passing.to_json_obj()]},
        {"group": "2 failing", "status": "fail",
         "reports": [passing.to_json_obj(), failing.to_json_obj()]},
        {"group": "3 oracle only", "status": "fail", "reports": [failing.to_json_obj()]}]
    code, out = run(capsys, "suite", "fast", "--format", "json")
    assert code == EXIT_FAIL
    assert [g["group"] for g in json.loads(out)] == ["1 passing", "2 failing"]


def test_verify_conversion(capsys):
    code, out = run(capsys, "verify", "conversion", "--m", "1", "--d", "2",
                    "--uprec", "5", "--tprec", "3")
    assert code == EXIT_PASS
    assert out.count("[PASS]") == 3
    # a t-window wider than d + 1 needs the quot series to t-degree 2*tprec - 1
    code, out = run(capsys, "verify", "conversion", "--m", "1", "--d", "1",
                    "--uprec", "5", "--tprec", "4")
    assert code == EXIT_PASS
    assert out.count("[PASS]") == 3


def test_verify_matrix_count(capsys):
    code, out = run(capsys, "verify", "matrix-count", "--n", "2", "--p", "2")
    assert code == EXIT_PASS


def test_non_prime_p_is_a_usage_error(capsys):
    for p in ("4", "1"):
        for argv in (["oracle", "quot", "--family", "node", "--m", "1", "--d", "1",
                      "--p", p, "--max-codim", "2"],
                     ["oracle", "hall", "--lambda", "2,1", "--mu", "1", "--p", p],
                     ["oracle", "matrix", "--n", "1", "--p", p],
                     ["oracle", "solomon", "--d", "1", "--p", p, "--N", "2"],
                     ["hall", "--lambda", "2,1", "--mu", "1", "--oracle", p],
                     ["verify", "matrix-count", "--n", "1", "--p", p],
                     ["verify", "coh-quot", "--family", "node", "--m", "1", "--p", p,
                      "--n", "1", "--r", "1", "--d-list", "1,2"]):
            assert dispatch(argv) == EXIT_USAGE, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: p must be prime, got %s\n" % p


HELP_PATHS = (
    [], ["nz"], ["z"], ["cl"], ["hall"], ["oracle"], ["oracle", "quot"], ["oracle", "hall"],
    ["oracle", "matrix"], ["oracle", "solomon"], ["verify"]) + tuple(
    ["verify", name] for name in ("funceq", "squaring", "t2", "special", "node22", "mlimit",
                                  "positivity", "limit", "conversion", "matrix-count",
                                  "coh-quot")) + (["table"], ["suite"])


def _help_transcript(capsys):
    """The --help text of every parser, then the errors of the bare group commands."""
    chunks = []
    for path in HELP_PATHS:
        assert dispatch(path + ["--help"]) == EXIT_PASS, path
        captured = capsys.readouterr()
        assert captured.err == ""
        chunks.append("$ %s\n%s" % (" ".join(["singzeta"] + path + ["--help"]), captured.out))
    for path in (["oracle"], ["verify"]):
        assert dispatch(path) == EXIT_USAGE, path
        captured = capsys.readouterr()
        assert captured.out == ""
        chunks.append("$ %s  (stderr)\n%s" % (" ".join(["singzeta"] + path), captured.err))
    return "".join(chunks)


def test_help_text_is_pinned(capsys, monkeypatch):
    # every parser's --help and the "required" errors print the bytes of the
    # golden file, recorded at an 80-column terminal with Python 3.11's argparse
    monkeypatch.setenv("COLUMNS", "80")
    golden = (ROOT / "tests" / "cli_help.txt").read_text()
    assert _help_transcript(capsys) == golden


# help, usage errors and option orders, each parsed by a narrow parser first
PARSE_CASES = [
    [], ["--help"], ["-h"], ["nz", "--help"], ["verify", "--help"], ["oracle", "quot", "-h"],
    ["verify", "special", "--help"], ["suite", "--help"], ["cl", "--help", "--family", "bogus"],
    ["verify"], ["oracle"], ["nonsense"], ["verify", "nonsense"], ["oracle", "bogus", "--p", "2"],
    ["nz", "--family", "node", "--m", "1"], ["nz", "--family", "x", "--m", "1", "--d", "1"],
    ["nz", "--m", "x"], ["nz", "--bogus"], ["table", "4"], ["--format", "nz", "nz"],
    ["json", "nz", "--family", "node", "--m", "1", "--d", "1"],
    ["verify", "special", "--family", "cusp", "--m", "1", "--uprec", "9", "extra"],
    ["hall", "--lambda", "2,1", "--mu", "1", "--fam", "x"],
    ["--format", "json", "nz", "--family", "node", "--m", "1", "--d", "1"],
    ["nz", "--d", "1", "--m", "1", "--fam", "node", "--format", "json"],
    ["--budget", "5", "oracle", "matrix", "--n", "2", "--p", "3"],
    ["oracle", "--budget", "3", "matrix", "--n", "1", "--p", "2"],
    ["oracle", "matrix", "--p", "3", "--n", "2", "--budget", "5"],
    ["verify", "t2", "--m", "1", "--d", "1", "--format=json"], ["table", "3", "--format", "json"],
]


def test_narrow_parser_prints_what_the_full_parser_prints(capsys, monkeypatch):
    # each command line ends with the same exit code, stdout and stderr whether
    # it is parsed by the parser of its command alone or by the full parser
    # (JSON reports differ only in their wall times)
    def outcome(argv):
        code = dispatch(list(argv))
        captured = capsys.readouterr()
        return code, re.sub(r'"wall_time_ms": [^,]*', "", captured.out), captured.err

    tour = [command.split() for _, command in _workloads().CLI_COMMANDS]
    for columns in (None, "40", "200"):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        for argv in PARSE_CASES + (tour if columns is None else []):
            narrow = outcome(argv)
            with monkeypatch.context() as full:
                full.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
                assert outcome(argv) == narrow, (columns, argv)


SIZES = ["-1", "0", "1", "2", "3"]
WINDOWS = ["0", "1", "3", "5"]
FAMILIES = ["cusp", "node", "bogus"]
PRIMES = ["1", "2", "3", "4"]
PARTITION_TEXTS = ["", "1", "2", "1,1", "2,1", "2,0", "1,0,1", "0,1", "-1", "x"]
D_LISTS = ["1,2", "2", ",", "1,x", "3,1"]
PARTS_OPTIONS = [("--lambda", PARTITION_TEXTS), ("--mu", PARTITION_TEXTS),
                 ("--nu", PARTITION_TEXTS)]
# every leaf command with its options and the values drawn for them
FUZZ_COMMANDS = {
    "nz": [("--family", FAMILIES), ("--m", SIZES), ("--d", SIZES),
           ("--module", ["free", "normalization", "max-ideal"])],
    "z": [("--family", FAMILIES), ("--m", SIZES), ("--d", SIZES), ("--tprec", WINDOWS)],
    "cl": [("--family", FAMILIES), ("--m", SIZES), ("--uprec", WINDOWS),
           ("--tprec", WINDOWS)],
    "hall": PARTS_OPTIONS + [("--oracle", PRIMES)],
    "oracle quot": [("--family", FAMILIES), ("--m", SIZES), ("--d", SIZES), ("--p", PRIMES),
                    ("--max-codim", SIZES),
                    ("--module", ["free", "normalization", "max-ideal", "bogus"])],
    "oracle hall": PARTS_OPTIONS + [("--p", PRIMES)],
    "oracle matrix": [("--n", SIZES), ("--p", PRIMES)],
    "oracle solomon": [("--d", SIZES), ("--p", PRIMES), ("--N", SIZES)],
    "verify funceq": [("--family", FAMILIES), ("--m", SIZES), ("--d", SIZES)],
    "verify squaring": [("--m", SIZES), ("--d", SIZES)],
    "verify t2": [("--m", SIZES), ("--d", SIZES)],
    "verify special": [("--family", FAMILIES), ("--m", SIZES), ("--uprec", WINDOWS)],
    "verify node22": [("--d", SIZES)],
    "verify mlimit": [("--family", FAMILIES), ("--d", SIZES), ("--qprec", WINDOWS),
                      ("--tprec", WINDOWS)],
    "verify positivity": [("--family", FAMILIES), ("--m", SIZES), ("--d", SIZES)],
    "verify limit": [("--family", FAMILIES), ("--m", SIZES), ("--d-list", D_LISTS),
                     ("--uprec", WINDOWS), ("--tprec", WINDOWS)],
    "verify conversion": [("--m", SIZES), ("--d", SIZES), ("--uprec", WINDOWS),
                          ("--tprec", WINDOWS), ("--oracle", None)],
    "verify matrix-count": [("--n", SIZES), ("--p", PRIMES)],
    "verify coh-quot": [("--family", FAMILIES), ("--m", SIZES), ("--p", PRIMES),
                        ("--n", SIZES), ("--r", SIZES), ("--d-list", D_LISTS)],
    "table": [(None, ["1", "2", "3", "4"])],
    "suite": [(None, ["fast", "full", "bogus"])],
}


def _fuzz_argv(rng):
    """One argument vector: a leaf command, most of its options, a budget and a format."""
    command = rng.choice(sorted(FUZZ_COMMANDS))
    argv = command.split()
    for flag, values in FUZZ_COMMANDS[command]:
        if rng.random() < 0.9:
            argv += [] if flag is None else [flag]
            argv += [] if values is None else [rng.choice(values)]
    argv += ["--budget", rng.choice(["-1", "0", "5", "2000"])]
    argv += ["--format", rng.choice(["text", "json"])]
    if rng.random() < 0.05:
        argv.insert(rng.randrange(len(argv) + 1), "--bogus")
    return argv


def test_cli_fuzz(capsys, monkeypatch):
    # seeded random argument vectors end in an exit code, never an escaping
    # exception; a usage error prints nothing on stdout and one error line or
    # an argparse usage on stderr.  The suite runs on stub criteria.
    assert set(FUZZ_COMMANDS) == {path for path, _, _, run in cli.COMMANDS if run}
    _stub_criteria(monkeypatch)
    rng = random.Random(13)
    codes = set()
    for _ in range(300):
        argv = _fuzz_argv(rng)
        try:
            code = dispatch(argv)
        except Exception as e:
            raise AssertionError("%s raised %r" % (argv, e)) from e
        captured = capsys.readouterr()
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET), argv
        codes.add(code)
        if code == EXIT_USAGE:
            assert captured.out == "", argv
            assert (re.fullmatch(r"error: [^\n]*\n", captured.err)
                    or (captured.err.startswith("usage: ") and ": error: " in captured.err)), \
                (argv, captured.err)
    assert codes == {EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET}
