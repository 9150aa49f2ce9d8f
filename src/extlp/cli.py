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
cap), 3 parse error, 4 internal theorem violation (including oracle
disagreement under ``--oracle``).  The brute-force oracle is imported only
under ``solve --oracle`` and ``json`` only under ``--json``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

from .errors import DomainError, LPFormatError, PreconditionError, ScaleLimitError, TheoremViolationError
from .extfield import format_ext, parse_ext
from .extlinalg import ExtMatrix, ExtVector
from .elp import (
    ExtendedLP,
    dualize,
    opposites_opt,
    optimum_pair,
    validate,
)
from .farkas import (
    solve_equality,
    solve_extended,
    solve_inequality,
    verify_dual_eq,
    verify_dual_ext,
    verify_dual_ineq,
    verify_primal_eq,
    verify_primal_ext,
    verify_primal_ineq,
)

__all__ = ["main", "parse_program_text", "format_program"]

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_PARSE = 3
EXIT_INTERNAL = 4


def parse_program_text(text: str) -> tuple[ExtMatrix, ExtVector, ExtVector | None]:
    """Parse a program file into ``(A, b, c)``; ``c`` is None when absent."""
    entries: list[tuple[int, str]] = []
    for no, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            entries.append((no, body))
    pos = 0

    def peek():
        return entries[pos] if pos < len(entries) else None

    def take(what: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(entries):
            raise LPFormatError(f"unexpected end of file, expected {what}")
        item = entries[pos]
        pos += 1
        return item

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
            n = int(parts[1])
        except ValueError:
            raise LPFormatError(f"line {no}: bad count {parts[1]!r}") from None
        if n < 1:
            raise LPFormatError(f"line {no}: {parts[0]} must be at least 1")
        if parts[0] in dims:
            raise LPFormatError(f"line {no}: duplicate {parts[0]} header")
        dims[parts[0]] = n
    rows, cols = dims["rows"], dims["cols"]

    no, line = take("the 'A' section")
    if line != "A":
        raise LPFormatError(f"line {no}: expected 'A', got {line!r}")
    mat = []
    for i in range(rows):
        no, line = take(f"row {i} of A")
        mat.append(values(no, line, cols, "row"))

    no, line = take("the 'b' section")
    if line != "b":
        raise LPFormatError(f"line {no}: expected 'b', got {line!r}")
    no, line = take("the right-hand side")
    rhs = values(no, line, rows, "right-hand side")

    cost = None
    if peek() is not None:
        no, line = take("the 'c' section")
        if line != "c":
            raise LPFormatError(f"line {no}: expected 'c', got {line!r}")
        no, line = take("the objective")
        cost = values(no, line, cols, "objective")
        trailing = peek()
        if trailing is not None:
            raise LPFormatError(f"line {trailing[0]}: trailing content {trailing[1]!r}")

    return (
        ExtMatrix(mat, ncols=cols),
        ExtVector(rhs),
        ExtVector(cost) if cost is not None else None,
    )


def format_program(a: ExtMatrix, b: ExtVector, c: ExtVector | None, comments: tuple[str, ...] = ()) -> str:
    """Render a program in the file format; inverse of :func:`parse_program_text`."""
    lines = [f"# {comment}" for comment in comments]
    lines += [f"rows {a.nrows}", f"cols {a.ncols}", "A"]
    lines += [" ".join(format_ext(e) for e in row) for row in a]
    lines += ["b", " ".join(format_ext(e) for e in b)]
    if c is not None:
        lines += ["c", " ".join(format_ext(e) for e in c)]
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _header(ctx: dict) -> list[str]:
    """The report's ``command``/``input``/``digest``/``seed`` lines; the JSON
    form starts from ``ctx`` itself."""
    return [f"{key} {_fmt(value)}" for key, value in ctx.items()]


def _emit(lines: list[str], data: dict, as_json: bool) -> str:
    if as_json:
        import json
        return json.dumps(data) + "\n"
    return "\n".join(lines) + "\n"


def _require_cost(c: ExtVector | None) -> ExtVector:
    if c is None:
        raise LPFormatError("this command needs a 'c' section")
    return c


def _cmd_validate(prog: ExtendedLP, ctx: dict, as_json: bool) -> tuple[str, int]:
    report = validate(prog)
    lines = _header(ctx) + [
        f"rows {prog.A.nrows}",
        f"cols {prog.A.ncols}",
    ]
    conditions = report.as_dict()
    lines += [f"{name} violated {' '.join(map(str, idx))}" if idx else f"{name} ok" for name, idx in conditions.items()]
    lines.append(f"valid {_fmt(report.is_valid)}")
    data = dict(
        ctx,
        rows=prog.A.nrows,
        cols=prog.A.ncols,
        conditions={name: list(idx) for name, idx in conditions.items()},
        valid=report.is_valid,
    )
    code = EXIT_OK if report.is_valid else EXIT_PRECONDITION
    return _emit(lines, data, as_json), code


def _cmd_dualize(prog: ExtendedLP, ctx: dict, as_json: bool) -> tuple[str, int]:
    dual = dualize(prog)
    if as_json:
        program = {
            "rows": dual.A.nrows,
            "cols": dual.A.ncols,
            "A": [[format_ext(e) for e in row] for row in dual.A],
            "b": [format_ext(e) for e in dual.b],
            "c": [format_ext(e) for e in dual.c],
        }
        return _emit([], dict(ctx, program=program), True), EXIT_OK
    # the seed stays out of the dual program's comments
    return format_program(dual.A, dual.b, dual.c, tuple(_header(ctx)[:3])), EXIT_OK


def _cmd_solve(prog: ExtendedLP, ctx: dict, as_json: bool, with_oracle: bool) -> tuple[str, int]:
    report = validate(prog)
    opt, dual_opt = optimum_pair(prog)
    opposites = opposites_opt(opt, dual_opt)

    oracle_verdict = None
    if with_oracle:
        from .oracle import oracle_solve_extended
        reference = (oracle_solve_extended(prog), oracle_solve_extended(dualize(prog)))
        if reference != (opt, dual_opt):
            raise TheoremViolationError(
                f"oracle disagrees: optimum {opt}/{dual_opt} vs reference {reference[0]}/{reference[1]}"
            )
        oracle_verdict = "agree"

    lines = _header(ctx) + [
        f"rows {prog.A.nrows}",
        f"cols {prog.A.ncols}",
        f"valid {_fmt(report.is_valid)}",
    ]
    for name, idx in report.failed().items():
        lines.append(f"violated {name} {' '.join(str(i) for i in idx)}")
    lines += [
        f"optimum {opt}",
        f"dual_optimum {dual_opt}",
        f"opposites {_fmt(opposites)}",
    ]
    if oracle_verdict:
        lines.append(f"oracle {oracle_verdict}")
    data = dict(
        ctx,
        rows=prog.A.nrows,
        cols=prog.A.ncols,
        valid=report.is_valid,
        violations={name: list(idx) for name, idx in report.failed().items()},
        optimum=str(opt),
        dual_optimum=str(dual_opt),
        opposites=opposites,
        oracle=oracle_verdict,
    )
    return _emit(lines, data, as_json), EXIT_OK


def _farkas_preconditions(a: ExtMatrix, b: ExtVector, mode: str) -> dict[str, tuple[int, ...]]:
    if mode == "ext":
        return {}
    rows = {i for i, _ in a.bots + a.tops} | {i for i, e in enumerate(b) if not e.is_finite}
    return {"finite_entries": tuple(sorted(rows))} if rows else {}


# mode -> (solver, primal verifier, dual verifier)
_FARKAS_MODES = {
    "eq": (solve_equality, verify_primal_eq, verify_dual_eq),
    "ineq": (solve_inequality, verify_primal_ineq, verify_dual_ineq),
    "ext": (solve_extended, verify_primal_ext, verify_dual_ext),
}
# the ineq solve, with its certificate read as (-A^T) y <= 0
_FARKAS_MODES["ineq-neg"] = _FARKAS_MODES["ineq"]


def _cmd_farkas(a: ExtMatrix, b: ExtVector, ctx: dict, as_json: bool, mode: str) -> tuple[str, int]:
    base_lines = _header(ctx) + [f"mode {mode}"]
    base_data = dict(ctx, mode=mode)

    solve, verify_primal, verify_dual = _FARKAS_MODES[mode]
    violations = _farkas_preconditions(a, b, mode)
    if not violations:
        if mode != "ext":
            a = [[e.finite_value for e in row] for row in a]
            b = [e.finite_value for e in b]
        try:
            out = solve(a, b)
        except PreconditionError as exc:
            violations = exc.violations
    if violations:
        lines = base_lines + [
            f"precondition {name} {' '.join(str(i) for i in idx)}".rstrip()
            for name, idx in sorted(violations.items())
        ]
        data = dict(base_data, preconditions={n: list(i) for n, i in violations.items()})
        return _emit(lines, data, as_json), EXIT_PRECONDITION

    verified = verify_primal(a, b, out.x) if out.is_primal else verify_dual(a, b, out.y)
    if not verified:
        raise TheoremViolationError("solver witness failed verification")

    witness = out.x if out.is_primal else out.y
    tokens = [str(v) for v in witness]
    lines = base_lines + [
        f"outcome {'primal' if out.is_primal else 'dual'}",
        ("witness " + " ".join(tokens)).rstrip(),
        "verified true",
    ]
    data = dict(
        base_data,
        outcome="primal" if out.is_primal else "dual",
        witness=tokens,
        verified=True,
    )
    return _emit(lines, data, as_json), EXIT_OK


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
        p.add_argument("--seed", type=int, default=None, help="echoed into the report; EXTLP_SEED overrides")
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
            seed = int(env_seed)
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
        if args.command == "validate":
            out, code = _cmd_validate(ExtendedLP(a, b, _require_cost(c)), ctx, args.json)
        elif args.command == "dualize":
            out, code = _cmd_dualize(ExtendedLP(a, b, _require_cost(c)), ctx, args.json)
        elif args.command == "solve":
            out, code = _cmd_solve(ExtendedLP(a, b, _require_cost(c)), ctx, args.json, args.oracle)
        else:
            out, code = _cmd_farkas(a, b, ctx, args.json, args.mode)
    except LPFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TheoremViolationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ScaleLimitError:
        # only solve --oracle raises it, naming a masked residual, not the input
        from .oracle import MAX_ORACLE_COLS, MAX_ORACLE_ROWS
        cap = f"{MAX_ORACLE_ROWS}x{MAX_ORACLE_COLS}"
        print(f"scale limit: the {a.nrows}x{a.ncols} input or its dual exceeds the oracle cap {cap}", file=sys.stderr)
        return EXIT_PRECONDITION
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)

    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
