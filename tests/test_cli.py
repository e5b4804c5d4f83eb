import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import latdiag.verify
from latdiag.cli import build_parser, main
from latdiag.diagrams import parse_diagram
from latdiag.polynomials import parse_polynomial
from latdiag.tableaux import parse_tableau
from latdiag.verify import schur_left_to_right


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- delta -----------------------------------------------------------------


def test_delta_vandermonde(capsys):
    code, out, _ = run(capsys, "delta", "--diagram", "0,0;1,0")
    assert code == 0
    assert out.strip() == "x2 - x1"


def test_delta_repeated_cell(capsys):
    code, out, _ = run(capsys, "delta", "--diagram", "0,0;0,0")
    assert code == 0
    assert out.strip() == "0"


def test_delta_factorial_normalization(capsys):
    code, out, _ = run(capsys, "delta", "--diagram", "0,0;2,0")
    assert code == 0
    assert out.strip() == "x2^2/2 - x1^2/2"


def test_delta_resort_note_on_stderr(capsys):
    code, out, err = run(capsys, "delta", "--diagram", "1,0;0,0")
    assert code == 0
    assert "resorted" in err
    assert out.strip() == "x2 - x1"


def test_delta_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "delta", "--diagram", "0,0;bad")
    assert code == 2
    assert "error:" in err


# -- apply -----------------------------------------------------------------


def test_apply_power_sum(capsys):
    code, out, _ = run(capsys, "apply", "--op", "p", "--param", "1",
                       "--axis", "x", "--diagram", "1,0")
    assert code == 0
    assert out.strip() == "+1 * [0,0]"


def test_apply_schur_expand_matches_elementary(capsys):
    code, out, _ = run(capsys, "apply", "--op", "s", "--param", "1,1",
                       "--axis", "x", "--diagram", "2,0;2,1", "--expand")
    assert code == 0
    code2, out2, _ = run(capsys, "apply", "--op", "e", "--param", "2",
                         "--axis", "x", "--diagram", "2,0;2,1", "--expand")
    assert code2 == 0
    assert out == out2
    assert "expanded:" in out


def test_apply_homogeneous_y_mirrors_x(capsys):
    code, out, _ = run(capsys, "apply", "--op", "h", "--param", "2",
                       "--axis", "y", "--diagram", "0,0;0,2")
    assert code == 0
    code2, out2, _ = run(capsys, "apply", "--op", "h", "--param", "2",
                         "--axis", "x", "--diagram", "0,0;2,0")
    assert code2 == 0
    assert out.strip() == out2.strip() == "0"


def test_apply_bad_partition_exit_2(capsys):
    code, _, err = run(capsys, "apply", "--op", "s", "--param", "1,2",
                       "--axis", "x", "--diagram", "1,0")
    assert code == 2
    assert "error:" in err


def test_apply_json_round_trip(capsys):
    code, out, _ = run(capsys, "apply", "--op", "p", "--param", "1",
                       "--axis", "x", "--diagram", "0,0;2,0",
                       "--json", "--expand")
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"] == [{"coeff": 1, "diagram": "0,0;1,0"}]
    assert parse_polynomial(obj["polynomial"], 2) == parse_polynomial("x2 - x1", 2)


def test_apply_degree_above_weight_prints_zero_at_once(capsys):
    # s_(14) has degree 14 and the row weight is 6; enumerating the 4^14
    # column families would take minutes
    start = time.perf_counter()
    code, out, _ = run(capsys, "apply", "--op", "s", "--param", "14",
                       "--diagram", "0,0;1,0;2,0;3,0")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.strip() == "0"


# -- verify and suite ---------------------------------------------------------


def test_verify_single_instance(capsys):
    code, out, _ = run(capsys, "verify", "--op", "s", "--param", "2,1",
                       "--axis", "x", "--diagram", "0,0;1,0;0,1")
    assert code == 0
    assert "PASS" in out


def test_suite_small_config(capsys, tmp_path):
    config = tmp_path / "suite.cfg"
    config.write_text("max_cells=2\nbox_rows=2\nbox_cols=2\nmax_weight=2\n")
    code, out, _ = run(capsys, "suite", "--config", str(config))
    assert code == 0
    assert "failed=0" in out


def test_suite_flags_override(capsys):
    code, out, _ = run(capsys, "suite", "--max-cells", "2", "--box-rows", "2",
                       "--box-cols", "2", "--max-weight", "1", "--axes", "x",
                       "--operators", "p,s")
    assert code == 0
    assert "failed=0" in out


def test_suite_corrupted_mode_fails(capsys, monkeypatch):
    monkeypatch.setattr(latdiag.verify, "apply_schur", schur_left_to_right)
    code, out, _ = run(capsys, "suite", "--max-cells", "3", "--max-weight", "2",
                       "--axes", "x", "--operators", "s")
    assert code == 1
    assert "first failure" in out


@pytest.mark.parametrize("config, flags, message", [
    ("bogus=1\n", (), "config line 1: unknown key 'bogus'"),
    ("operators=q\n", (), "config line 1: unknown operator kind 'q'"),
    ("fail_fast=maybe\n", (), "config line 1: bad fail_fast 'maybe'"),
    ("axes=\n", (), "config line 1: axes and operators must each list at least one entry"),
    ("axes=x,x\n", (), "config line 1: axes lists an entry twice: x,x"),
    (None, ("--axes", ","), "error: axes and operators must each list at least one entry"),
    (None, ("--operators", "q"), "error: unknown operator kind 'q'"),
    (None, ("--operators", "p,p"), "error: operators lists an entry twice: p,p"),
], ids=["bogus=1", "operators=q", "fail_fast=maybe", "axes=", "axes=x,x", "--axes=,", "--operators=q",
        "--operators=p,p"])
def test_suite_bad_config_exit_2(capsys, tmp_path, config, flags, message):
    argv = list(flags)
    if config is not None:
        path = tmp_path / "suite.cfg"
        path.write_text(config)
        argv += ["--config", str(path)]
    code, _, err = run(capsys, "suite", *argv)
    assert code == 2
    assert "error:" in err
    assert message in err


@pytest.mark.parametrize("flag", ["--max-cells", "--box-rows", "--box-cols", "--max-weight"])
def test_suite_empty_universe_exit_2(capsys, flag):
    code, out, err = run(capsys, "suite", flag, "0")
    assert code == 2
    assert "error:" in err
    assert out == ""


def test_suite_empty_config_exit_2(capsys, tmp_path):
    config = tmp_path / "suite.cfg"
    config.write_text("max_cells=0\n")
    code, _, err = run(capsys, "suite", "--config", str(config))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("flags, expected", [
    ((), "suite: total=53 passed=52 failed=1"),
    (("--no-fail-fast",), "suite: total=387 passed=366 failed=21"),
], ids=["fail-fast", "no-fail-fast"])
def test_suite_corrupted_mode_counts(capsys, monkeypatch, flags, expected):
    monkeypatch.setattr(latdiag.verify, "apply_schur", schur_left_to_right)
    code, out, _ = run(capsys, "suite", "--max-cells", "3",
                       "--max-weight", "2", "--axes", "x", "--operators", "s", *flags)
    assert code == 1
    assert out.splitlines()[0] == expected


# -- tableaux ----------------------------------------------------------------


def test_tableaux_listing(capsys):
    code, out, _ = run(capsys, "tableaux", "--shape", "2,1", "--max-entry", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(parse_tableau(line) for line in lines)


def test_tableaux_families(capsys):
    code, out, _ = run(capsys, "tableaux", "--shape", "0,2", "--max-entry", "2",
                       "--families", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 1
    assert obj["tableaux"] == ["_|1,2"]


# -- psi ----------------------------------------------------------------------


def test_psi_paper_example(capsys):
    code, out, _ = run(capsys, "psi", "--tableau", "7,8,10|3,9|4,5,6,8",
                       "--shape-lambda", "3,3,3")
    assert code == 0
    assert "result: 7,8,10|3,8,9|4,5,6" in out
    assert "( ) ) ) ) ( -> ( ) ) ) ( (" in out
    assert "involution check: ok" in out


def test_psi_fixed_point(capsys):
    code, out, _ = run(capsys, "psi", "--tableau", "1,2|1", "--shape-lambda", "2,1")
    assert code == 0
    assert "fixed: yes" in out
    assert "result: 1,2|1" in out


def test_psi_orbit_mismatch_exit_2(capsys):
    code, _, err = run(capsys, "psi", "--tableau", "1,2|1", "--shape-lambda", "3,1")
    assert code == 2
    assert "error:" in err


def test_psi_round_trip_of_printed_tableau(capsys):
    code, out, _ = run(capsys, "psi", "--tableau", "7,8,10|3,9|4,5,6,8",
                       "--shape-lambda", "3,3,3", "--json")
    assert code == 0
    obj = json.loads(out)
    rendered = parse_tableau(obj["result"])
    assert str(rendered) == obj["result"]


# -- hilbert ---------------------------------------------------------------------


def test_hilbert_table(capsys):
    code, out, _ = run(capsys, "hilbert", "--diagram", "0,0;1,0;0,1")
    assert code == 0
    assert "total: 6" in out
    assert out.splitlines()[0] == "x\\y\t0\t1"


def test_hilbert_rejects_repeat(capsys):
    code, _, err = run(capsys, "hilbert", "--diagram", "0,0;0,0")
    assert code == 2
    assert "error:" in err


# -- misc ------------------------------------------------------------------------


def test_printed_diagrams_reparse(capsys):
    code, out, _ = run(capsys, "apply", "--op", "e", "--param", "1",
                       "--axis", "x", "--diagram", "1,0;1,1")
    assert code == 0
    for line in out.strip().splitlines():
        body = line.split("[", 1)[1].rstrip("]")
        diagram, sign = parse_diagram(body)
        assert sign == 1
        assert str(diagram) == body


def test_argparse_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["apply", "--op", "q", "--param", "1", "--diagram", "0,0"])
    assert exc.value.code == 2


def test_no_hidden_options():
    # Every option shows in --help; a switch only tests set belongs in the
    # tests, as a substitution, not in the command line.
    parsers = [build_parser()]
    for parser in parsers:
        for action in parser._actions:
            assert action.help != argparse.SUPPRESS, (parser.prog, action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()


# -- bounded inputs ----------------------------------------------------------


class StillRunning(Exception):
    """Raised by timed_run's alarm. cli.main turns ValueError, OSError (so
    also TimeoutError) and ResourceLimitError into exit 2, but not this."""


def _still_running(signum, frame):
    raise StillRunning("command still running after 5 s")


def timed_run(capsys, *argv):
    # The alarm ends a command that hangs, so the test fails instead of
    # stalling the run; the 1 s bound is checked once the command returns.
    previous = signal.signal(signal.SIGALRM, _still_running)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        start = time.perf_counter()
        result = run(capsys, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 1.0, argv
    return result


def test_apply_homogeneous_on_sparse_diagram_at_once(capsys):
    # h_3 runs as s_(3): four tableaux on two cells, not every 3-subset of
    # the 2599 holes in the bounding box
    code, out, _ = timed_run(capsys, "apply", "--op", "h", "--param", "3",
                             "--diagram", "0,0;50,50")
    assert code == 0
    assert out.strip() == "+1 * [0,0;47,50]"
    code, out, _ = timed_run(capsys, "verify", "--op", "h", "--param", "3",
                             "--diagram", "0,0;50,50")
    assert code == 0
    assert "PASS" in out


def test_tableaux_one_row_listing_at_once(capsys):
    code, out, _ = timed_run(capsys, "tableaux", "--shape", "12", "--max-entry", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 455


EIGHT_IN_A_COLUMN = "0,0;0,1;0,2;0,3;0,4;0,5;0,6;0,7"
# Every instance up to 7 cells passes; e_2 on 8 cells is the first past ORACLE_CAP.
SUITES_PAST_THE_ORACLE_CAP = [("suite", "--max-cells", "8", "--box-rows", "3", "--box-cols", "3"),
                              ("suite", "--max-cells", "8", "--box-rows", "2", "--box-cols", "4")]


@pytest.mark.parametrize("argv", [
    ("tableaux", "--families", "--shape", ",".join(["1"] * 12), "--max-entry", "10"),
    ("verify", "--op", "s", "--param", "9", "--diagram", EIGHT_IN_A_COLUMN),
    ("verify", "--op", "s", "--param", "3,3,3", "--diagram", EIGHT_IN_A_COLUMN),
    ("verify", "--op", "h", "--param", "25", "--diagram", EIGHT_IN_A_COLUMN),
    ("verify", "--op", "h", "--param", "12", "--diagram", "0,0;0,1;0,2;0,3;0,4;0,5;0,6;12,0"),
    ("suite", "--box-rows", "40", "--box-cols", "40", "--max-cells", "4"),
    # the tableau builders count the columns they would write, stage by stage
    ("tableaux", "--shape", "5000", "--max-entry", "2"),
    ("tableaux", "--shape", "24,16,7", "--max-entry", "4"),
    ("verify", "--op", "s", "--param", "100000", "--diagram", "0,0"),
    ("verify", "--op", "s", "--param", "24,16,7", "--diagram", "0,0;1,0;2,0;3,0"),
    # 11,731 partitions of 1..26 before the listing stops
    ("suite", "--max-weight", "70", "--operators", "s", "--axes", "x",
     "--max-cells", "1", "--box-rows", "1", "--box-cols", "1"),
    # lam[0] columns are counted before the 10^7-part conjugate is built
    ("tableaux", "--shape", "10000000", "--max-entry", "1"),
    ("verify", "--op", "s", "--param", "10000000", "--diagram", "0,0"),
    # a 10^6-column conjugate of 100 rows, built in one sweep over the rows
    ("tableaux", "--shape", ",".join(["1000000"] * 100), "--max-entry", "100"),
    # the odd rows of a 42x50 box: 1,050 cells, each free to drop one row
    ("apply", "--op", "p", "--param", "1", "--diagram",
     ";".join(f"{p},{q}" for q in range(50) for p in range(1, 42, 2))),
    *SUITES_PAST_THE_ORACLE_CAP,
])
def test_capped_commands_exit_2_at_once(capsys, argv):
    code, _, err = timed_run(capsys, *argv)
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("argv", SUITES_PAST_THE_ORACLE_CAP)
def test_suite_refuses_before_its_first_instance(capsys, argv):
    code, out, err = timed_run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: the oracle for degree 2 on 8 cells exceeds the cap 500000\n"


@pytest.mark.parametrize("axis", ["x", "y"])
def test_power_sum_on_a_full_box_prints_zero_at_once(capsys, axis):
    # each of the 12,000 cells would move onto another cell or out of the quadrant
    box = ";".join(f"{p},{q}" for q in range(100) for p in range(120))
    code, out, _ = timed_run(capsys, "apply", "--op", "p", "--param", "1", "--axis", axis, "--diagram", box)
    assert (code, out) == (0, "0\n")


@pytest.mark.parametrize("op, param", [("e", "2"), ("s", "1,1")])
def test_staged_rule_caps_tableaux_times_cells(op, param):
    # The full 25x40 box: 499,500 tableaux pass the column count, but each
    # moves all 1,000 cells. Enumerating them alone takes seconds, so the
    # command runs in its own process, which also drops their cache.
    box = ";".join(f"{p},{q}" for q in range(40) for p in range(25))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "latdiag.cli", "apply", "--op", op, "--param", param,
                           "--diagram", box], env=env, capture_output=True, text=True, timeout=5)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: 1001000 tableau cells for the staged rule, enumeration cap is 1000000\n"


def test_schur_oracle_builds_from_tableaux_at_once(capsys):
    # Each s_lambda has at most 455 tableaux here; the Jacobi-Trudi
    # determinant would walk lam[0]! staircase permutations (14! for (14)).
    for param, diagram in [("9,9,9,9", "0,0;1,0;2,0;3,0"), ("9", "0,0"),
                           ("14", "0,0;1,0;2,0;3,0")]:
        code, out, _ = timed_run(capsys, "verify", "--op", "s", "--param", param,
                                 "--diagram", diagram)
        assert code == 0
        assert "PASS" in out
    code, out, _ = timed_run(capsys, "suite", "--operators", "s", "--max-weight", "10",
                             "--max-cells", "1", "--box-rows", "1", "--box-cols", "1")
    assert code == 0
    assert out.strip() == "suite: total=276 passed=276 failed=0"


def test_oracle_cap_admits_a_first_degree_operator_on_eight_cells(capsys):
    code, out, _ = run(capsys, "verify", "--op", "p", "--param", "1",
                       "--diagram", "1,0;0,1;0,2;0,3;0,4;0,5;0,6;0,7")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("argv", [
    ("hilbert", "--diagram", "0,0;1,0;0,1;1,1;0,2;1,2;0,3;1,3"),
    ("delta", "--diagram", "3000000,0"),
])
def test_hilbert_and_delta_caps_exit_2_at_once(capsys, argv):
    code, _, err = timed_run(capsys, *argv)
    assert code == 2
    assert "cap" in err


def test_hilbert_six_cell_ferrers(capsys):
    # ferrers((3,3)): n! = 720, in seconds rather than minutes
    start = time.perf_counter()
    code, out, _ = run(capsys, "hilbert", "--diagram", "0,0;1,0;0,1;1,1;0,2;1,2")
    assert time.perf_counter() - start < 10.0
    assert code == 0
    assert out.splitlines()[-1] == "total: 720"


SEVEN_CELLS = "0,0;1,0;2,0;3,0;0,1;1,1;2,1"


@pytest.mark.parametrize("argv, expected", [
    (("psi", "--tableau", "|".join(["1"] * 10), "--shape-lambda", "10"), "involution check: ok"),
    (("psi", "--tableau", "|".join(["1"] * 12), "--shape-lambda", "12"), "involution check: ok"),
    (("verify", "--op", "p", "--param", "4", "--diagram", SEVEN_CELLS), "PASS"),
    # two rows cannot be filled from one entry: the listing is empty
    (("tableaux", "--shape", "10000000,10000000", "--max-entry", "1", "--json"),
     '{"count": 0, "tableaux": []}'),
    # the oracle's monomials are exponent vectors, not k-long index tuples
    (("verify", "--op", "p", "--param", "1000000000000", "--diagram", "0,0;1,0"), "PASS"),
    (("verify", "--op", "h", "--param", "1000000000000", "--diagram", "0,0"), "PASS"),
])
def test_uncapped_commands_finish_at_once(capsys, argv, expected):
    code, out, _ = timed_run(capsys, *argv)
    assert code == 0
    assert expected in out


def test_psi_outside_the_orbit_exit_2_at_once(capsys):
    # the tableau has one column and lam has lam[0] = 10^7: refused before conjugating
    code, out, err = timed_run(capsys, "psi", "--tableau", "1", "--shape-lambda", "10000000")
    assert code == 2
    assert out == ""
    assert "error: shape (1,) is not in the orbit of (10000000,)" in err


@pytest.mark.parametrize("command", [("delta",), ("apply", "--op", "p", "--param", "1", "--expand")])
def test_text_past_the_digit_limit_exit_2_at_once(capsys, command):
    # delta([1000,1000]) = x1^1000*y1^1000/(1000!)^2, a denominator of 5,136 digits
    code, out, err = timed_run(capsys, *command, "--diagram", "1000,1000")
    assert code == 2
    assert out == ""
    assert f"more than {sys.get_int_max_str_digits()} digits" in err
    assert "set_int_max_str_digits" not in err


def test_text_below_the_digit_limit_prints(capsys):
    code, out, _ = timed_run(capsys, "delta", "--diagram", "600,600")
    assert code == 0
    assert out.strip() == f"x1^600*y1^600/{math.factorial(600) ** 2}"
    code, out, _ = timed_run(capsys, "verify", "--op", "p", "--param", "1", "--diagram", "1000,1000")
    assert code == 0
    assert "PASS" in out


# -- one output path ----------------------------------------------------------


@pytest.mark.parametrize("argv, code, expected", [
    (("delta", "--diagram", "0,0;2,0"), 0,
     {"diagram": "0,0;2,0", "polynomial": "x2^2/2 - x1^2/2"}),
    (("verify", "--op", "s", "--param", "2,1", "--diagram", "0,0;1,0;0,1"), 0,
     {"op": "s", "param": "2,1", "diagram": "0,0;1,0;0,1", "axis": "x", "match": True}),
    (("suite", "--max-cells", "2", "--max-weight", "1"), 0,
     {"total": 360, "passed": 360, "failed": 0}),
    (("suite", "--max-cells", "3", "--max-weight", "2", "--axes", "x", "--operators", "s"), 1,
     {"total": None, "passed": None, "failed": 1, "first_failure": None}),
    (("hilbert", "--diagram", "0,0;1,0;0,1"), 0,
     {"x_top": 1, "y_top": 1, "total": 6, "dims": None}),
])
def test_json_reports_parse(capsys, monkeypatch, argv, code, expected):
    # None marks a key that must be present with any value. The one failing
    # argv runs the suite with the left-to-right Schur stages.
    if code == 1:
        monkeypatch.setattr(latdiag.verify, "apply_schur", schur_left_to_right)
    got_code, out, _ = run(capsys, *argv, "--json")
    assert got_code == code
    obj = json.loads(out)
    assert set(obj) == set(expected)
    assert {k: v for k, v in obj.items() if expected[k] is not None} == {
        k: v for k, v in expected.items() if v is not None}


def test_closed_pipe_ends_output_quietly():
    # The reader keeps the first of 45,150 lines and closes the pipe, as
    # `| head -1` does; the rest of the output then has nowhere to go.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "latdiag.cli", "tableaux", "--shape", "2",
                             "--max-entry", "300"], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"1|1\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.parametrize("command", ["apply", "verify"])
@pytest.mark.parametrize("op", ["p", "e", "h"])
def test_param_zero_exit_2_at_once(capsys, command, op):
    # the oracle refuses degree 0 before it expands the 9! terms of delta
    code, out, err = timed_run(capsys, command, "--op", op, "--param", "0",
                               "--diagram", "0,0;1,0;2,0;3,0;4,0;0,1;1,1;2,1;3,1")
    assert code == 2
    assert out == ""
    assert "error:" in err


# -- integer lists ------------------------------------------------------------


@pytest.mark.parametrize("argv, message", [
    (("delta", "--diagram", ""), "cannot parse cell ''"),
    (("delta", "--diagram", "  "), "cannot parse cell ''"),
    (("delta", "--diagram", "0,0;1"), "cannot parse cell '1'"),
    (("apply", "--op", "s", "--param", "", "--diagram", "1,0"), "cannot parse partition ''"),
    (("tableaux", "--shape", "2,x", "--max-entry", "3"), "cannot parse partition '2,x'"),
    (("psi", "--tableau", "", "--shape-lambda", "2"), "cannot parse column ''"),
    (("psi", "--tableau", "1| x", "--shape-lambda", "2"), "cannot parse column 'x'"),
    (("tableaux", "--families", "--shape", "1,x", "--max-entry", "3"), "cannot parse shape '1,x'"),
    (("tableaux", "--families", "--shape", "", "--max-entry", "3"), "cannot parse shape ''"),
    (("apply", "--op", "p", "--param", "2,1", "--diagram", "1,0"), "operator 'p' needs an integer parameter, got '2,1'"),
])
def test_integer_list_errors_name_the_format(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_integer_lists_allow_spaces_around_numbers(capsys):
    code, out, _ = run(capsys, "tableaux", "--families", "--shape", " 1 , 0 ", "--max-entry", "2")
    assert code == 0
    assert out.splitlines() == ["1|_", "2|_"]
