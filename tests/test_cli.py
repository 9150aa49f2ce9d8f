"""Command line surface: golden reports, exit codes, seed plumbing."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extlp.cli
import extlp.elp
from extlp.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    format_program,
    main,
    parse_program_text,
)
from extlp.elp import ExtendedLP, dualize
from extlp.oracle import oracle_solve_extended
from conftest import fixture_path, golden_text

GOLDEN_RUNS = [
    ("validate_p1.txt", ["validate", "p1.lp"], EXIT_PRECONDITION),
    ("validate_d1.txt", ["validate", "d1.lp"], EXIT_PRECONDITION),
    ("validate_p2.txt", ["validate", "p2.lp"], EXIT_PRECONDITION),
    ("validate_d2.txt", ["validate", "d2.lp"], EXIT_PRECONDITION),
    ("validate_p3.txt", ["validate", "p3.lp"], EXIT_PRECONDITION),
    ("validate_d3.txt", ["validate", "d3.lp"], EXIT_PRECONDITION),
    ("validate_lunch.txt", ["validate", "lunch.lp"], EXIT_OK),
    ("validate_p1_json.txt", ["validate", "p1.lp", "--json"], EXIT_PRECONDITION),
    ("solve_lunch.txt", ["solve", "lunch.lp"], EXIT_OK),
    ("solve_lunch_oracle.txt", ["solve", "lunch.lp", "--oracle"], EXIT_OK),
    ("solve_lunch_top.txt", ["solve", "lunch_top.lp"], EXIT_OK),
    ("solve_p2.txt", ["solve", "p2.lp"], EXIT_OK),
    ("farkas_bot_ext.txt", ["farkas", "farkas_bot.lp", "--mode", "ext"], EXIT_OK),
    ("farkas_bot_ineq.txt", ["farkas", "farkas_bot.lp", "--mode", "ineq"], EXIT_PRECONDITION),
    ("farkas_lunch_ineq.txt", ["farkas", "lunch.lp", "--mode", "ineq"], EXIT_OK),
    ("dualize_lunch.txt", ["dualize", "lunch.lp"], EXIT_OK),
]


def run_cli(argv, capsys):
    argv = [str(fixture_path(a)) if a.endswith(".lp") else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("golden,argv,expected_code", GOLDEN_RUNS, ids=[g[0] for g in GOLDEN_RUNS])
def test_golden_reports(golden, argv, expected_code, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == expected_code
    assert err == ""
    assert out == golden_text(golden)


def test_module_entry_point_matches_golden():
    proc = subprocess.run(
        [sys.executable, "-m", "extlp", "solve", str(fixture_path("lunch.lp"))],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout == golden_text("solve_lunch.txt")


# --- error channels ---


def test_missing_file_is_a_parse_failure(capsys):
    code = main(["validate", "/no/such/file.lp"])
    out, err = capsys.readouterr().out, capsys.readouterr().err
    assert code == EXIT_PARSE


def test_malformed_program_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.lp"
    bad.write_text("rows 1\ncols 1\nA\n1 2\nb\n0\n")
    code = main(["validate", str(bad)])
    captured = capsys.readouterr()
    assert code == EXIT_PARSE
    assert captured.out == ""
    assert "error:" in captured.err


def test_solve_requires_a_cost_section(capsys):
    code = main(["solve", str(fixture_path("farkas_bot.lp"))])
    captured = capsys.readouterr()
    assert code == EXIT_PARSE
    assert "'c' section" in captured.err


def test_duplicate_header_rejected(tmp_path, capsys):
    bad = tmp_path / "dup.lp"
    bad.write_text("rows 1\nrows 1\ncols 1\nA\n1\nb\n0\n")
    assert main(["validate", str(bad)]) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_non_utf8_input_is_a_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.lp"
    bad.write_bytes(b"\xff\xfe rows")
    assert main(["validate", str(bad)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_a_huge_exponent_is_refused_not_expanded(tmp_path, capsys):
    # twelve bytes that made Fraction build 10**999999999
    huge = tmp_path / "huge.lp"
    huge.write_text("rows 1\ncols 1\nA\n1e999999999\nb\n1\nc\n1\n")
    assert main(["validate", str(huge)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 4: bad rational literal '1e999999999'")


def _int_digit_limit():
    return getattr(sys, "get_int_max_str_digits", int)()  # int() == 0: no limit before 3.10.7


def test_an_optimum_over_the_int_digit_limit_prints_in_full(tmp_path, capsys):
    # the optimum -10**6000 has more digits than str(int) allows by default
    wide = tmp_path / "wide.lp"
    wide.write_text("rows 1\ncols 1\nA\n1\nb\n1e3000\nc\n-1e3000\n")
    limit = _int_digit_limit()
    code, out, err = run_cli(["solve", str(wide)], capsys)
    assert code == EXIT_OK and err == ""
    assert out.splitlines()[-3:] == ["optimum -1" + "0" * 6000, "dual_optimum 1" + "0" * 6000, "opposites true"]
    assert _int_digit_limit() == limit


def test_an_entry_at_the_exponent_limit_dualizes(tmp_path, capsys):
    edge = tmp_path / "edge.lp"
    edge.write_text("rows 1\ncols 1\nA\n1e4300\nb\n1\nc\n1\n")
    limit = _int_digit_limit()
    code, out, err = run_cli(["dualize", str(edge)], capsys)
    assert code == EXIT_OK and err == ""
    assert "-1" + "0" * 4300 in out.splitlines()
    assert _int_digit_limit() == limit


_ENTRIES = st.sampled_from(["0", "1", "-2", "3/4", "-1.5", "2e1", "bot", "top", "bot", "top"])
_JUNK = st.sampled_from(["1/0", "x", "1e99999", "rows", "A", "#", ""])


@st.composite
def _token_grids(draw):
    """A program file of random tokens, mostly well shaped, sometimes cut short."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = _ENTRIES | _JUNK if draw(st.integers(0, 3)) == 0 else _ENTRIES

    def line(n):
        return " ".join(draw(st.lists(entries, min_size=n, max_size=n)))

    lines = [f"rows {rows}", f"cols {cols}", "A", *(line(cols) for _ in range(rows)), "b", line(rows), "c", line(cols)]
    return "\n".join(lines[: draw(st.integers(len(lines) - 3, len(lines)))]).encode()


_COMMANDS = st.sampled_from(
    [["validate"], ["dualize"], ["solve"], ["solve", "--oracle"], ["farkas"]]
    + [["farkas", "--mode", mode] for mode in ("eq", "ineq", "ineq-neg")]
)


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=60) | _token_grids(), command=_COMMANDS, as_json=st.booleans())
def test_no_input_escapes_the_documented_exit_codes(tmp_path_factory, data, command, as_json):
    path = tmp_path_factory.getbasetemp() / "fuzz.lp"
    path.write_bytes(data)
    argv = [command[0], str(path), *command[1:]] + ["--json"] * as_json
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (EXIT_OK, EXIT_PRECONDITION, EXIT_PARSE), err.getvalue()


# --- seed plumbing ---


def test_seed_flag_is_echoed(capsys):
    code, out, _ = run_cli(["validate", "lunch.lp", "--seed", "7"], capsys)
    assert code == EXIT_OK
    assert "seed 7" in out.splitlines()


def test_env_seed_overrides_flag(monkeypatch, capsys):
    monkeypatch.setenv("EXTLP_SEED", "9")
    code, out, _ = run_cli(["validate", "lunch.lp", "--seed", "4"], capsys)
    assert code == EXIT_OK
    assert "seed 9" in out.splitlines()


def test_non_integer_env_seed_fails(monkeypatch, capsys):
    monkeypatch.setenv("EXTLP_SEED", "many")
    code, _, err = run_cli(["validate", "lunch.lp"], capsys)
    assert code == EXIT_PARSE
    assert "EXTLP_SEED" in err


# --- dualize round trip ---


def test_dualize_output_reparses_to_the_dual(capsys):
    code, out, _ = run_cli(["dualize", "lunch.lp"], capsys)
    assert code == EXIT_OK
    a, b, c = parse_program_text(out)
    src_a, src_b, src_c = parse_program_text(fixture_path("lunch.lp").read_text())
    assert ExtendedLP(a, b, c) == dualize(ExtendedLP(src_a, src_b, src_c))


def test_dualize_twice_restores_canonical_text(tmp_path, capsys):
    code, once, _ = run_cli(["dualize", "lunch.lp"], capsys)
    dual_file = tmp_path / "dual.lp"
    dual_file.write_text(once)
    assert main(["dualize", str(dual_file)]) == EXIT_OK
    twice = capsys.readouterr().out
    src_a, src_b, src_c = parse_program_text(fixture_path("lunch.lp").read_text())
    back_a, back_b, back_c = parse_program_text(twice)
    assert (back_a, back_b, back_c) == (src_a, src_b, src_c)


def test_format_program_round_trip():
    a, b, c = parse_program_text(fixture_path("p3.lp").read_text())
    text = format_program(a, b, c, comments=["round trip"])
    assert parse_program_text(text) == (a, b, c)


# --- structured output ---


def test_solve_json_report(capsys):
    code, out, _ = run_cli(["solve", "lunch.lp", "--json"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["valid"] is True
    assert data["optimum"] == "4093/5730"
    assert data["dual_optimum"] == "-4093/5730"
    assert data["opposites"] is True


def test_farkas_json_report(capsys):
    code, out, _ = run_cli(["farkas", str(fixture_path("lunch.lp")), "--mode", "eq", "--json"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["outcome"] == "primal"
    assert data["witness"] == ["190/573", "134/573"]
    assert data["verified"] is True


# --- other modes ---


def test_farkas_equality_mode(capsys):
    code, out, _ = run_cli(["farkas", "lunch.lp", "--mode", "eq"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "outcome primal" in lines
    assert "witness 190/573 134/573" in lines
    assert "verified true" in lines


def test_farkas_ineq_neg_mode(capsys):
    code, out, _ = run_cli(["farkas", "lunch.lp", "--mode", "ineq-neg"], capsys)
    assert code == EXIT_OK
    assert "outcome primal" in out.splitlines()
    # the same solve as ineq: the reports differ only in the mode line
    for fixture in ("lunch.lp", "farkas_bot.lp"):
        code_neg, out_neg, _ = run_cli(["farkas", fixture, "--mode", "ineq-neg"], capsys)
        code, out, _ = run_cli(["farkas", fixture, "--mode", "ineq"], capsys)
        assert code_neg == code
        lines_neg, lines = out_neg.splitlines(), out.splitlines()
        assert lines_neg.count("mode ineq-neg") == 1 and lines.count("mode ineq") == 1
        assert [l for l in lines_neg if l != "mode ineq-neg"] == [l for l in lines if l != "mode ineq"]


def test_farkas_equality_mode_on_many_columns(tmp_path, capsys):
    wide = tmp_path / "wide.lp"
    wide.write_text("rows 1\ncols 1000\nA\n" + " ".join(["1"] * 1000) + "\nb\n1\n")
    code, out, err = run_cli(["farkas", str(wide), "--mode", "eq"], capsys)
    assert code == EXIT_OK and err == ""
    assert "verified true" in out.splitlines()


def _tall_invalid_program(tmp_path):
    # invalid (bot in A[0] and b[0]) and over the oracle's 12-row cap; rows
    # 1..12 repeat one finite row, so the 2x1 program made of rows 0 and 1
    # has the same optima
    tall = tmp_path / "tall.lp"
    tall.write_text("rows 13\ncols 1\nA\nbot\n" + "1\n" * 12 + "b\nbot" + " 0" * 12 + "\nc\n1\n")
    return tall


def test_solve_invalid_program_beyond_the_oracle_cap(tmp_path, capsys):
    code, out, err = run_cli(["solve", str(_tall_invalid_program(tmp_path))], capsys)
    assert code == EXIT_OK and err == ""
    lines = out.splitlines()
    assert ["optimum 0", "dual_optimum bot", "opposites false"] == lines[-3:]
    reduced = ExtendedLP([["bot"], [1]], ["bot", 0], [1])
    assert str(oracle_solve_extended(reduced)) == "0"
    assert str(oracle_solve_extended(dualize(reduced))) == "bot"


def test_solve_oracle_flag_beyond_the_oracle_cap_names_the_input(tmp_path, capsys):
    code, out, err = run_cli(["solve", str(_tall_invalid_program(tmp_path)), "--oracle"], capsys)
    assert code == EXIT_PRECONDITION and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "13x1" in err and "12x8" in err


def test_solve_oracle_flag_on_invalid_program(capsys):
    code, out, _ = run_cli(["solve", "p2.lp", "--oracle"], capsys)
    assert code == EXIT_OK
    assert "oracle agree" in out.splitlines()


def test_solve_validates_once(tmp_path, monkeypatch, capsys):
    calls = []
    real = extlp.elp.validate

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(extlp.cli, "validate", counting)
    monkeypatch.setattr(extlp.elp, "validate", counting)
    # valid, and the bot cost lets the infinity placements decide the optimum
    decided = tmp_path / "decided.lp"
    decided.write_text("rows 2\ncols 2\nA\n-1 0\n0 1\nb\n-1 0\nc\ntop bot\n")
    for path in (str(fixture_path("lunch.lp")), str(decided)):
        calls.clear()
        code, out, _ = run_cli(["solve", path], capsys)
        assert code == EXIT_OK and "valid true" in out.splitlines()
        assert len(calls) == 1, path


# --- start-up cost ---


def test_a_plain_request_loads_neither_the_oracle_nor_json_nor_dataclasses():
    # modules that site already loaded do not count
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import extlp.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for command in ('validate', 'dualize', 'solve', 'farkas'):\n"
        "        extlp.cli.main([command, sys.argv[1]])\n"
        "print(sorted({'dataclasses', 'json', 'extlp.oracle'} & (set(sys.modules) - before)))\n"
        "from extlp import oracle, oracle_solve_extended\n"
        "print(oracle_solve_extended is oracle.oracle_solve_extended)\n"
    )
    src = Path(extlp.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(fixture_path("lunch.lp"))], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nTrue\n"


def test_the_package_serves_the_oracle_names():
    import extlp
    from extlp import oracle, oracle_solve_extended

    assert oracle_solve_extended is oracle.oracle_solve_extended
    assert extlp.GenConfig is oracle.GenConfig and extlp.oracle is oracle
    with pytest.raises(AttributeError):
        extlp.no_such_name
