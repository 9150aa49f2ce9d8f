"""The ``extlp`` command line tool and its program file format.

A program file is line oriented; ``#`` starts a comment, blank lines are
ignored.  Header, then the sections in order (``c`` may be omitted for
pure constraint-system files)::

    rows 2
    cols 2
    A
    -27 -90
    -1300 -1150
    b
    -30 -700
    c
    23/25 7/4

Entries are ``bot``, ``top``, or exact rational literals (integer, ``p/q``
or decimal).  Subcommands: ``validate``, ``dualize``, ``solve``,
``farkas``.  ``solve`` answers valid and invalid programs from the certified
core.  Exit codes: 0 success, 2 precondition or validity violation (or,
under ``solve --oracle``, a program beyond the brute-force oracle's size
cap), 3 parse or file error, 4 internal theorem violation (including
oracle disagreement under ``--oracle``).  The brute-force oracle is
imported only under ``solve --oracle`` and ``json`` only under ``--json``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

from .errors import DomainError, LPFormatError, ScaleLimitError, TheoremViolationError
from .extfield import format_ext, parse_ext
from .extlinalg import ExtMatrix, ExtVector
from .check import (
    verify_dual_eq,
    verify_dual_ext,
    verify_dual_ineq,
    verify_primal_eq,
    verify_primal_ext,
    verify_primal_ineq,
)
from .elp import (
    ExtendedLP,
    dualize,
    opposites_opt,
    optimum_pair,
    validate,
)
from .farkas import solve_equality, solve_extended, solve_inequality, system_preconditions

__all__ = ["main", "parse_program_text", "format_program"]

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_PARSE = 3
EXIT_INTERNAL = 4


def _ascii_int(text: str) -> int:
    """``int(text)`` under the entries' rule, which ``int()`` alone does not
    keep: no ``_`` separator and no non-ASCII digit."""
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return int(text)


def parse_program_text(text: str) -> tuple[ExtMatrix, ExtVector, ExtVector | None]:
    """Parse a program file into ``(A, b, c)``; ``c`` is None when absent."""
    bodies = ((no, raw.split("#", 1)[0].strip()) for no, raw in enumerate(text.splitlines(), 1))
    entries = ((no, body) for no, body in bodies if body)

    def take(what: str) -> tuple[int, str]:
        item = next(entries, None)
        if item is None:
            raise LPFormatError(f"unexpected end of file, expected {what}")
        return item

    def section(name: str, item: tuple[int, str]) -> None:
        if item[1] != name:
            raise LPFormatError(f"line {item[0]}: expected '{name}', got {item[1]!r}")

    def values(line_no: int, line: str, count: int, what: str) -> list:
        toks = line.split()
        if len(toks) != count:
            raise LPFormatError(f"line {line_no}: expected {count} {what} entries, got {len(toks)}")
        try:
            return [parse_ext(t) for t in toks]
        except DomainError as exc:
            raise LPFormatError(f"line {line_no}: {exc}") from None

    dims: dict[str, int] = {}
    for _ in range(2):
        no, line = take("a 'rows N' or 'cols N' header")
        parts = line.split()
        if len(parts) != 2 or parts[0] not in ("rows", "cols"):
            raise LPFormatError(f"line {no}: expected 'rows N' or 'cols N', got {line!r}")
        try:
            n = _ascii_int(parts[1])
        except ValueError:
            raise LPFormatError(f"line {no}: bad count {parts[1]!r}") from None
        if n < 1:
            raise LPFormatError(f"line {no}: {parts[0]} must be at least 1")
        if parts[0] in dims:
            raise LPFormatError(f"line {no}: duplicate {parts[0]} header")
        dims[parts[0]] = n
    rows, cols = dims["rows"], dims["cols"]

    section("A", take("the 'A' section"))
    mat = [values(*take(f"row {i} of A"), cols, "row") for i in range(rows)]
    section("b", take("the 'b' section"))
    rhs = values(*take("the right-hand side"), rows, "right-hand side")

    cost = None
    item = next(entries, None)
    if item is not None:
        section("c", item)
        cost = values(*take("the objective"), cols, "objective")
        trailing = next(entries, None)
        if trailing is not None:
            raise LPFormatError(f"line {trailing[0]}: trailing content {trailing[1]!r}")

    return (
        ExtMatrix(mat, ncols=cols),
        ExtVector(rhs),
        ExtVector(cost) if cost is not None else None,
    )


def _program_fields(a: ExtMatrix, b: ExtVector, c: ExtVector | None) -> dict:
    """A program's shape and entry tokens, read by the file format and by a JSON report."""
    fields = {"rows": a.nrows, "cols": a.ncols, "A": [[format_ext(e) for e in row] for row in a], "b": [format_ext(e) for e in b]}
    if c is not None:
        fields["c"] = [format_ext(e) for e in c]
    return fields


def format_program(a: ExtMatrix, b: ExtVector, c: ExtVector | None, comments: tuple[str, ...] = ()) -> str:
    """Render a program in the file format; inverse of :func:`parse_program_text`."""
    p = _program_fields(a, b, c)
    lines = [f"# {comment}" for comment in comments]
    lines += [f"rows {p['rows']}", f"cols {p['cols']}", "A", *map(" ".join, p["A"]), "b", " ".join(p["b"])]
    if c is not None:
        lines += ["c", " ".join(p["c"])]
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    text = str(value)  # a file name may hold a line break or an undecodable byte
    return text if text.isprintable() else ascii(text)


# the words of the text line for one entry of each index map
_ENTRY_LINES = {
    "conditions": lambda name, idx: (name, "violated", *idx) if idx else (name, "ok"),
    "violations": lambda name, idx: ("violated", name, *idx),
    "preconditions": lambda name, idx: ("precondition", name, *idx),
}


def _report(ctx: dict, body: dict, as_json: bool) -> str:
    """The header ``ctx`` and then ``body``, as one JSON object or as one
    ``key value`` line per field.  In text a list prints space-joined, an
    index map prints one line per entry, and a body field of None no line."""
    fields = {**ctx, **body}
    if as_json:
        import json
        return json.dumps(fields) + "\n"
    lines = []
    for key, value in fields.items():
        if key in _ENTRY_LINES:
            lines += [" ".join(map(str, _ENTRY_LINES[key](name, idx))) for name, idx in value.items()]
        elif isinstance(value, list):
            lines.append(" ".join([key, *value]))
        elif value is not None or key in ctx:
            lines.append(f"{key} {_fmt(value)}")
    return "\n".join(lines) + "\n"


def _cmd_validate(prog: ExtendedLP, ctx: dict, args: argparse.Namespace) -> tuple[str, int]:
    report = validate(prog)
    body = dict(rows=prog.A.nrows, cols=prog.A.ncols, conditions=report.as_dict(), valid=report.is_valid)
    return _report(ctx, body, args.json), (EXIT_OK if report.is_valid else EXIT_PRECONDITION)


def _cmd_dualize(prog: ExtendedLP, ctx: dict, args: argparse.Namespace) -> tuple[str, int]:
    dual = dualize(prog)
    if args.json:
        return _report(ctx, {"program": _program_fields(dual.A, dual.b, dual.c)}, True), EXIT_OK
    # the header lines as comments; the seed stays out of the dual program
    return format_program(dual.A, dual.b, dual.c, tuple(_report(ctx, {}, False).splitlines()[:3])), EXIT_OK


def _cmd_solve(prog: ExtendedLP, ctx: dict, args: argparse.Namespace) -> tuple[str, int]:
    report = validate(prog)
    opt, dual_opt = optimum_pair(prog)

    oracle_verdict = None
    if args.oracle:
        from .oracle import oracle_solve_extended
        reference = (oracle_solve_extended(prog), oracle_solve_extended(dualize(prog)))
        if reference != (opt, dual_opt):
            raise TheoremViolationError(
                f"oracle disagrees: optimum {opt}/{dual_opt} vs reference {reference[0]}/{reference[1]}"
            )
        oracle_verdict = "agree"

    body = dict(
        rows=prog.A.nrows,
        cols=prog.A.ncols,
        valid=report.is_valid,
        violations=report.failed(),
        optimum=str(opt),
        dual_optimum=str(dual_opt),
        opposites=opposites_opt(opt, dual_opt),
        oracle=oracle_verdict,
    )
    return _report(ctx, body, args.json), EXIT_OK


# the commands that read a program, and so need its 'c' section
_PROGRAM_COMMANDS = {"validate": _cmd_validate, "dualize": _cmd_dualize, "solve": _cmd_solve}


def _farkas_preconditions(a: ExtMatrix, b: ExtVector, mode: str) -> dict[str, tuple[int, ...]]:
    if mode == "ext":
        return system_preconditions(a, b)
    rows = {i for i, _ in a.bots + a.tops}.union(b.bots, b.tops)
    return {"finite_entries": tuple(sorted(rows))} if rows else {}


# mode -> (solver, primal verifier, dual verifier)
_FARKAS_MODES = {
    "eq": (solve_equality, verify_primal_eq, verify_dual_eq),
    "ineq": (solve_inequality, verify_primal_ineq, verify_dual_ineq),
    "ext": (solve_extended, verify_primal_ext, verify_dual_ext),
}
# the ineq solve, with its certificate read as (-A^T) y <= 0; kept, since bench/workloads.py's cli workload sends it
_FARKAS_MODES["ineq-neg"] = _FARKAS_MODES["ineq"]


def _cmd_farkas(a: ExtMatrix, b: ExtVector, ctx: dict, as_json: bool, mode: str) -> tuple[str, int]:
    solve, verify_primal, verify_dual = _FARKAS_MODES[mode]
    violations = _farkas_preconditions(a, b, mode)
    if violations:
        body = dict(mode=mode, preconditions=dict(sorted(violations.items())))
        return _report(ctx, body, as_json), EXIT_PRECONDITION
    if mode != "ext":
        a = [[e.finite_value for e in row] for row in a]
        b = [e.finite_value for e in b]
    out = solve(a, b)
    outcome, witness, verify = ("primal", out.x, verify_primal) if out.is_primal else ("dual", out.y, verify_dual)
    if not verify(a, b, witness):
        raise TheoremViolationError("solver witness failed verification")
    body = dict(mode=mode, outcome=outcome, witness=[str(v) for v in witness], verified=True)
    return _report(ctx, body, as_json), EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extlp",
        description="Exact solvers for linear programs with bot/top entries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("validate", "screen a program against the six validity conditions"),
        ("dualize", "emit the dual program in the file format"),
        ("solve", "compute the optimum and the dual optimum"),
        ("farkas", "solve the constraint system and print the certificate"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="program file")
        p.add_argument("--json", action="store_true", help="structured output")
        p.add_argument("--seed", type=_ascii_int, default=None, help="echoed into the report; EXTLP_SEED overrides")
        if name == "solve":
            p.add_argument("--oracle", action="store_true", help="cross-check against the brute-force oracle")
        if name == "farkas":
            p.add_argument(
                "--mode",
                choices=("eq", "ineq", "ineq-neg", "ext"),
                default="ext",
                help="which alternative system to solve",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    seed = args.seed
    env_seed = os.environ.get("EXTLP_SEED")
    if env_seed is not None:
        try:
            seed = _ascii_int(env_seed)
        except ValueError:
            print(f"error: EXTLP_SEED is not an integer: {env_seed!r}", file=sys.stderr)
            return EXIT_PARSE

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    ctx = {
        "command": args.command,
        "input": os.path.basename(args.file),
        "digest": hashlib.sha256(text.encode()).hexdigest()[:16],
        "seed": seed,
    }

    digits = getattr(sys, "get_int_max_str_digits", int)()  # int() == 0: no limit before 3.10.7
    try:
        a, b, c = parse_program_text(text)
        if digits:  # the parse kept the limit; a parsed value and the answers print in full
            sys.set_int_max_str_digits(0)
        if args.command == "farkas":
            out, code = _cmd_farkas(a, b, ctx, args.json, args.mode)
        elif c is None:
            raise LPFormatError("this command needs a 'c' section")
        else:
            out, code = _PROGRAM_COMMANDS[args.command](ExtendedLP(a, b, c), ctx, args)
    except LPFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TheoremViolationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ScaleLimitError:
        # only solve --oracle raises it, naming a masked residual, not the input
        from .oracle import MAX_ORACLE_COLS, MAX_ORACLE_ROWS
        cap = f"{MAX_ORACLE_ROWS}x{MAX_ORACLE_COLS}"
        print(f"scale limit: the {a.nrows}x{a.ncols} input or its dual exceeds the oracle cap {cap}", file=sys.stderr)
        return EXIT_PRECONDITION
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)

    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # fd 1 to devnull, so the interpreter's last flush of the closed pipe prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: the output was closed", file=sys.stderr)
        return EXIT_PARSE
    return code


if __name__ == "__main__":
    sys.exit(main())
