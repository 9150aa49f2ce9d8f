"""Seeded input generators for the benchmark workloads.

The benchmark owns its generators instead of calling
``extlp.oracle.gen_valid_elp``: a later change to that generator (for
example lifting its 4x4 cap) must not silently change what the benchmark
runs.  Programs are kept as tuples of file-format tokens (``"bot"``,
``"top"``, integer or two-decimal literals), so the same value feeds the
in-process workloads, the program files of the ``cli`` workload and the
input digest.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

BOT = "bot"
TOP = "top"

# The six validity conditions, named as extlp names them.
CONDITIONS = (
    "mixed_row",
    "mixed_col",
    "bot_row_bot_rhs",
    "top_col_bot_cost",
    "top_row_top_rhs",
    "bot_col_top_cost",
)


@dataclass(frozen=True)
class Program:
    """Minimize ``c . x`` over ``x >= 0`` with ``A x <= b``, as tokens."""

    A: tuple[tuple[str, ...], ...]
    b: tuple[str, ...]
    c: tuple[str, ...] | None
    kind: str

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.A), len(self.A[0])

    def tokens(self) -> list[str]:
        return [t for row in self.A for t in row] + list(self.b) + list(self.c or ())

    def text(self) -> str:
        """The program in extlp's file format."""
        m, n = self.shape
        lines = [f"rows {m}", f"cols {n}", "A"]
        lines += [" ".join(row) for row in self.A]
        lines += ["b", " ".join(self.b)]
        if self.c is not None:
            lines += ["c", " ".join(self.c)]
        return "\n".join(lines) + "\n"

    def dual(self) -> "Program":
        """``(-A^T, c, b)``, negating the tokens directly."""
        m, n = self.shape
        a = tuple(tuple(_negate(self.A[i][j]) for i in range(m)) for j in range(n))
        return Program(a, self.c, self.b, self.kind + "-dual")


def _negate(token: str) -> str:
    if token == BOT:
        return TOP
    if token == TOP:
        return BOT
    return str(-Fraction(token))


def value(token: str):
    """A token as ``"bot"``, ``"top"`` or an exact ``Fraction``."""
    return token if token in (BOT, TOP) else Fraction(token)


def parse_program(text: str, kind: str = "file") -> Program:
    """Read the file format back into tokens; ``#`` comments are skipped."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    head = dict(ln.split() for ln in lines[:2])
    m, n = int(head["rows"]), int(head["cols"])
    if lines[2] != "A" or lines[3 + m] != "b":
        raise ValueError("not a program file")
    a = tuple(tuple(ln.split()) for ln in lines[3 : 3 + m])
    b = tuple(lines[4 + m].split())
    c = tuple(lines[6 + m].split()) if len(lines) > 5 + m and lines[5 + m] == "c" else None
    if any(len(row) != n for row in a) or len(b) != m or (c is not None and len(c) != n):
        raise ValueError("section sizes do not match the header")
    return Program(a, b, c, kind)


def violated_conditions(p: Program) -> tuple[str, ...]:
    """The validity conditions ``p`` breaks, checked on the tokens alone.

    Written apart from ``extlp.elp.validate`` so the two can be compared.
    Without a cost row only the four conditions on ``(A, b)`` apply; those
    are the hypotheses of the extended Farkas solver.
    """
    m, n = p.shape
    cols = [[p.A[i][j] for i in range(m)] for j in range(n)]
    bad = set()
    for i, row in enumerate(p.A):
        if BOT in row and TOP in row:
            bad.add("mixed_row")
        if p.b[i] == BOT and BOT in row:
            bad.add("bot_row_bot_rhs")
        if p.b[i] == TOP and TOP in row:
            bad.add("top_row_top_rhs")
    for j, col in enumerate(cols):
        if BOT in col and TOP in col:
            bad.add("mixed_col")
        if p.c is not None and p.c[j] == BOT and TOP in col:
            bad.add("top_col_bot_cost")
        if p.c is not None and p.c[j] == TOP and BOT in col:
            bad.add("bot_col_top_cost")
    return tuple(name for name in CONDITIONS if name in bad)


def all_finite(p: Program) -> bool:
    return not any(t in (BOT, TOP) for row in p.A for t in row + p.b)


def digest(programs) -> str:
    """A short hash of the inputs, equal on two commits iff the inputs are."""
    h = hashlib.sha256()
    for p in programs:
        h.update(p.text().encode())
    return h.hexdigest()[:16]


# --- audit: many tiny extended programs ---

AUDIT_MAX_SHAPE = 4
AUDIT_MAGNITUDE = 3
AUDIT_ENDPOINT_SHARE = 0.3


def _audit_draw(rng: random.Random) -> Program:
    def entry() -> str:
        if rng.random() < AUDIT_ENDPOINT_SHARE:
            return BOT if rng.random() < 0.5 else TOP
        return str(rng.randint(-AUDIT_MAGNITUDE, AUDIT_MAGNITUDE))

    m = rng.randint(1, AUDIT_MAX_SHAPE)
    n = rng.randint(1, AUDIT_MAX_SHAPE)
    a = tuple(tuple(entry() for _ in range(n)) for _ in range(m))
    return Program(a, tuple(entry() for _ in range(m)), tuple(entry() for _ in range(n)), f"{m}x{n}")


def audit_programs(seed: int, count: int, stream: str = "audit") -> list[Program]:
    """``count`` valid programs: shapes 1..4 x 1..4, integers in [-3, 3],
    each entry an endpoint with probability 0.3; invalid draws are dropped.
    ``stream`` names an independent sequence for the same seed."""
    rng = random.Random(f"{stream}-{seed}")
    out = []
    while len(out) < count:
        p = _audit_draw(rng)
        if not violated_conditions(p):
            out.append(p)
    return out


def raw_programs(seed: int, count: int) -> list[Program]:
    """``count`` draws of the audit distribution that break validity."""
    rng = random.Random(f"raw-{seed}")
    out = []
    while len(out) < count:
        p = _audit_draw(rng)
        if violated_conditions(p):
            out.append(p)
    return out


# --- lp-finite: finite dense programs, Fraction arithmetic heavy ---

INT_MAGNITUDE = 9


def _literal(q: Fraction, decimal: bool) -> str:
    if not decimal:
        return str(q)
    cents = q * 100
    if cents.denominator != 1:
        raise ValueError(f"{q} is not a two-decimal literal")
    sign = "-" if cents < 0 else ""
    whole, frac = divmod(abs(cents.numerator), 100)
    return f"{sign}{whole}.{frac:02d}"


def finite_program(rng: random.Random, m: int, n: int, decimal: bool, planted: bool) -> Program:
    """A dense finite ``m x n`` program.

    Entries are integers in [-9, 9], or two-decimal literals in
    [-9.99, 9.99] when ``decimal``.  A planted program gets ``b = A x0 + s``
    and ``c = -A^T y0 + t`` for 0/1 vectors ``x0``, ``y0``, ``s``, ``t``, so
    both it and its dual are feasible and its optimum is finite.
    """
    scale = 100 if decimal else 1
    hi = INT_MAGNITUDE * scale + (scale - 1)

    def num() -> Fraction:
        return Fraction(rng.randint(-hi, hi), scale)

    a = [[num() for _ in range(n)] for _ in range(m)]
    if planted:
        x0 = [rng.randint(0, 1) for _ in range(n)]
        y0 = [rng.randint(0, 1) for _ in range(m)]
        b = [sum(a[i][j] * x0[j] for j in range(n)) + rng.randint(0, 1) for i in range(m)]
        c = [rng.randint(0, 1) - sum(a[i][j] * y0[i] for i in range(m)) for j in range(n)]
    else:
        b = [num() for _ in range(m)]
        c = [num() for _ in range(n)]
    return Program(
        tuple(tuple(_literal(v, decimal) for v in row) for row in a),
        tuple(_literal(v, decimal) for v in b),
        tuple(_literal(v, decimal) for v in c),
        f"{m}x{n}-{'dec' if decimal else 'int'}-{'planted' if planted else 'random'}",
    )
