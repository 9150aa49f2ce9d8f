"""The benchmark's workloads and the checks on their answers.

* ``cli``: one fresh ``python -m extlp`` process per request.
* ``audit``: thousands of tiny valid extended programs, in process.
* ``lp-finite``: finite dense programs up to 8x2 / 2x8 / 6x6, in process.

Each workload builds its inputs from the seed when it is constructed (that
is the set-up the ``setup_s`` metric times), hands the closed loop its
operations, checks every answer outside the timed region, and in a traced
run times calls into each extlp module from the outside.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import extlp
from extlp import cli, elp, extfield, extlinalg, farkas, oracle

import gen
from gen import Program
from harness import ChildResult, Failure, Tracer, run_child

FIXTURES = ("d1", "d2", "d3", "p1", "p2", "p3", "lunch", "lunch_top", "farkas_bot")

# (golden file, arguments after ``extlp``); inputs are fixture names
GOLDEN = (
    ("validate_p1.txt", ("validate", "p1")),
    ("validate_d1.txt", ("validate", "d1")),
    ("validate_p2.txt", ("validate", "p2")),
    ("validate_d2.txt", ("validate", "d2")),
    ("validate_p3.txt", ("validate", "p3")),
    ("validate_d3.txt", ("validate", "d3")),
    ("validate_lunch.txt", ("validate", "lunch")),
    ("validate_p1_json.txt", ("validate", "p1", "--json")),
    ("solve_lunch.txt", ("solve", "lunch")),
    ("solve_lunch_oracle.txt", ("solve", "lunch", "--oracle")),
    ("solve_lunch_top.txt", ("solve", "lunch_top")),
    ("solve_p2.txt", ("solve", "p2")),
    ("farkas_bot_ext.txt", ("farkas", "farkas_bot", "--mode", "ext")),
    ("farkas_bot_ineq.txt", ("farkas", "farkas_bot", "--mode", "ineq")),
    ("farkas_lunch_ineq.txt", ("farkas", "lunch", "--mode", "ineq")),
    ("dualize_lunch.txt", ("dualize", "lunch")),
)

CLI_GENERATED_VALID = 4
CLI_GENERATED_INVALID = 2
AUDIT_PROGRAMS = 2000

# lp-finite inputs come in rounds of 18 programs: the 17 slots below plus
# one from LP_HEAVY, taken in turn.  A run covers whole rounds in order, so
# every run sees the strata in the same proportions and its timings move
# little with the seed.  About 70% of programs are planted: with half, the
# median falls in the gap between cheap infeasible programs and planted ones
# and jumps from run to run.  Heavy shapes stay near 5% for the same reason
# at p90.  6x6 is left out: planted 6x6 programs take 1-3 s (one took 23 s)
# and the oracle needs about 3 s for each.
_P, _R = True, False
LP_ROUND = (
    ((3, 3, _P),) * 6 + ((3, 3, _R),) * 2 + ((4, 3, _P),) * 3 + ((4, 3, _R),)
    + ((3, 4, _P),) * 3 + ((3, 4, _R),) + ((4, 4, _R),)
)
LP_HEAVY = ((4, 4, _P), (8, 2, _P), (2, 8, _P), (5, 5, _P), (4, 4, _P), (8, 2, _R), (2, 8, _R), (5, 5, _R))
# more rounds than a run at the seed commit gets through
LP_ROUNDS = 50
# rounds a fresh process runs to measure peak resident memory
LP_RSS_ROUNDS = 2
# programs per traced run whose cli.main is timed in process
MAIN_SAMPLE = 6


def shape_range(shapes) -> str:
    shapes = list(shapes)
    if not shapes:
        return "none"
    rows, cols = [m for m, _ in shapes], [n for _, n in shapes]
    return f"{min(rows)}..{max(rows)} x {min(cols)}..{max(cols)}"


def to_elp(p: Program) -> extlp.ExtendedLP:
    return extlp.ExtendedLP(p.A, p.b, p.c)


def rational_rows(p: Program) -> tuple[list[list[Fraction]], list[Fraction]]:
    return [[Fraction(t) for t in row] for row in p.A], [Fraction(t) for t in p.b]


def witness_bits(w) -> int:
    return max((max(q.numerator.bit_length(), q.denominator.bit_length()) for q in w), default=0)


def reference_pair(p: Program, tracer: Tracer | None = None, parent: int = 0):
    """The oracle's optima of ``p`` and of its dual, built from the tokens."""
    progs = (to_elp(p), to_elp(p.dual()))
    if tracer is None:
        return tuple(oracle.oracle_solve_extended(q) for q in progs)
    return tuple(tracer.call("oracle.oracle_solve_extended", parent, oracle.oracle_solve_extended, q) for q in progs)


class LayerProbe:
    """Per-layer timings taken from outside the package, in a traced run."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.blocks_us: list[float] = []
        self.finite = 0
        self.programs = 0
        self.solves = 0
        self.dual_outcomes = 0
        self.bits_max = 0
        self.failures: list[Failure] = []

    def _timed(self, name: str, parent: int, fn, *args):
        start = len(self.tracer.spans)
        result = self.tracer.call(name, parent, fn, *args)
        _, t0, t1, _, _ = self.tracer.spans[start]
        return result, (t1 - t0) / 1e3

    def program(self, p: Program, label: str, pipeline: bool, answer=None) -> None:
        """Time each layer on one program.

        ``pipeline`` also times validate and optimum_pair here; the
        in-process workloads time those inside their operations instead and
        pass the optimum pair they got as ``answer``.  The combined-block
        time of a program with a finite optimum is its optimum_pair time
        minus dualize and both feasibility tests, all taken here.
        """
        tr = self.tracer
        op = tr.new_op()
        for tok in p.tokens():
            tr.call("extfield.parse_ext", op, extfield.parse_ext, tok)
        tr.call("cli.parse_program_text", op, cli.parse_program_text, p.text())
        lp = to_elp(p) if p.c is not None else None
        a = lp.A if lp is not None else extlinalg.ExtMatrix(p.A)
        tr.call("extlinalg.neg_transpose", op, extlinalg.neg_transpose, a)
        if pipeline and lp is not None:
            tr.call("elp.validate", op, elp.validate, lp)
        systems = []
        if not gen.violated_conditions(Program(p.A, p.b, None, p.kind)):
            systems.append(("primal", a, extlinalg.ExtVector(p.b)))
        if lp is not None and not gen.violated_conditions(p):
            self.programs += 1
            dual, dual_us = self._timed("elp.dualize", op, elp.dualize, lp)
            _, fp_us = self._timed("elp.is_feasible.primal", op, elp.is_feasible, lp)
            _, fd_us = self._timed("elp.is_feasible.dual", op, elp.is_feasible, dual)
            if pipeline:
                answer, pair_us = self._timed("elp.optimum_pair", op, elp.optimum_pair, lp)
            elif answer[0].value.is_finite:
                _, pair_us = self._timed("probe.optimum_pair", op, elp.optimum_pair, lp)
            if answer[0].value.is_finite:
                self.finite += 1
                self.blocks_us.append(pair_us - dual_us - fp_us - fd_us)
            systems.append(("dual", dual.A, dual.b))
        for side, sa, sb in systems:
            out = tr.call("farkas.solve_extended", op, farkas.solve_extended, sa, sb)
            self.solves += 1
            w = out.x if out.is_primal else out.y
            self.dual_outcomes += out.is_dual
            self.bits_max = max(self.bits_max, witness_bits(w))
            verify = farkas.verify_primal_ext if out.is_primal else farkas.verify_dual_ext
            if not tr.call("farkas.verify", op, verify, sa, sb, w):
                self.failures.append(Failure(label, f"{side} Farkas witness does not verify"))
            x = out.x if out.is_primal else (Fraction(0),) * sa.ncols
            tr.call("extlinalg.mul_weig", op, extlinalg.mul_weig, sa, x)

    def main(self, argv: list[str], label: str) -> None:
        """Time ``extlp.cli.main`` in process, output discarded."""
        name = "cli.main." + ("solve_oracle" if "--oracle" in argv else argv[0])
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = self.tracer.call(name, self.tracer.new_op(), cli.main, argv)
            except Exception as exc:  # counted as a cli error by the tracer
                self.failures.append(Failure(label, f"in-process main raised {type(exc).__name__}"))
                return
        if code not in (0, 2, 3, 4):
            self.failures.append(Failure(label, f"in-process main returned {code}"))


# --- in-process workloads: audit and lp-finite ---


@dataclass(eq=False)
class Case:
    name: str
    prog: Program
    lp: extlp.ExtendedLP
    first: tuple | None = None
    verdict: str | None = None
    same: int = 0


class ProgramWorkload:
    """One operation is ``validate`` -> ``dualize`` -> ``optimum_pair``.

    ``rss_ops`` is the fixed prefix of operations that a fresh process runs
    once, keeping no answers, to measure peak resident memory: the memory of
    the program, not of the harness, and the same however fast a run goes.
    """

    in_process = True

    def __init__(self, programs: list[Program], label: str, workdir: str, rss_ops: int):
        self.workdir = workdir
        self.rss_ops = rss_ops
        self.ops = [Case(f"{label}[{i}] {p.kind}", p, to_elp(p)) for i, p in enumerate(programs)]
        self.digest = gen.digest(programs)

    def run_op(self, case: Case):
        report = elp.validate(case.lp)
        dual = elp.dualize(case.lp)
        return report, dual, elp.optimum_pair(case.lp)

    def traced_op(self, tracer: Tracer, case: Case):
        op = tracer.new_op()
        return tracer.call("op", op, self._traced, tracer, op, case)

    @staticmethod
    def _traced(tracer: Tracer, op: int, case: Case):
        report = tracer.call("elp.validate", op, elp.validate, case.lp)
        dual = tracer.call("elp.dualize", op, elp.dualize, case.lp)
        return report, dual, tracer.call("elp.optimum_pair", op, elp.optimum_pair, case.lp)

    def check(self, case: Case, result) -> str | None:
        """The first answer for an input is checked in full (and against the
        oracle after the loop); later answers must equal it."""
        report, dual, pair = result
        answer = (report.failed(), dual, pair)
        if case.first is None:
            case.first = answer
            own = gen.violated_conditions(case.prog)
            if set(report.failed()) != set(own):
                case.verdict = f"validate reports {sorted(report.failed())}, own check {list(own)}"
            elif dual != to_elp(case.prog.dual()):
                case.verdict = "dualize differs from the negated transpose"
        elif answer != case.first:
            return "answer differs from this input's first answer"
        if case.verdict is None:
            case.same += 1
        return case.verdict

    def final_check(self, tracer: Tracer | None) -> list[Failure]:
        """Compare each input's answer with the oracle on primal and dual."""
        failures = []
        for case in self.ops:
            if case.first is None:
                continue
            pair = case.first[2]
            ref = reference_pair(case.prog, tracer, tracer.new_op() if tracer else 0)
            reason = None
            if pair != ref:
                reason = f"optima ({pair[0]}, {pair[1]}), oracle ({ref[0]}, {ref[1]})"
            elif elp.opposites_opt(*pair) != elp.opposites_opt(*ref):
                reason = "opposites_opt disagrees with the oracle's optima"
            if reason:
                failures += [Failure(case.name, reason)] * case.same
        return failures

    def run_cases(self) -> list[Case]:
        return [c for c in self.ops if c.first is not None]

    def probe_layers(self, probe: LayerProbe, budget: float) -> None:
        """Probe the inputs the loop ran, in order, for about ``budget`` seconds."""
        deadline = time.perf_counter() + budget
        for case in self.run_cases():
            if time.perf_counter() > deadline:
                break
            probe.program(case.prog, case.name, pipeline=False, answer=case.first[2])
        for case in sorted(self.run_cases(), key=lambda c: c.prog.shape[0] * c.prog.shape[1])[:MAIN_SAMPLE]:
            path = os.path.join(self.workdir, f"sample{self.ops.index(case)}.lp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(case.prog.text())
            for argv in (["validate", path], ["dualize", path], ["solve", path], ["solve", path, "--oracle"], ["farkas", path]):
                probe.main(argv, case.name)

    def properties(self) -> dict:
        run = self.run_cases()
        tokens = [t for c in run for t in c.prog.tokens()]
        return {
            "programs": len(self.ops),
            "programs_run": len(run),
            "shapes": shape_range(c.prog.shape for c in run),
            "endpoint_share": round(sum(t in (gen.BOT, gen.TOP) for t in tokens) / max(1, len(tokens)), 3),
            "finite_optimum_share": round(sum(c.first[2][0].value.is_finite for c in run) / max(1, len(run)), 3),
        }


def audit(seed: int, workdir: str) -> ProgramWorkload:
    return ProgramWorkload(gen.audit_programs(seed, AUDIT_PROGRAMS), "audit", workdir, AUDIT_PROGRAMS)


def lp_finite_programs(seed: int) -> list[Program]:
    """``LP_ROUNDS`` rounds; integer and decimal entries alternate by slot."""
    rng = random.Random(f"lp-finite-{seed}")
    progs = []
    for r in range(LP_ROUNDS):
        slots = LP_ROUND + (LP_HEAVY[r % len(LP_HEAVY)],)
        batch = [gen.finite_program(rng, m, n, (r + i) % 2 == 1, planted) for i, (m, n, planted) in enumerate(slots)]
        rng.shuffle(batch)
        progs += batch
    return progs


def lp_finite(seed: int, workdir: str) -> ProgramWorkload:
    return ProgramWorkload(lp_finite_programs(seed), "lp-finite", workdir, LP_RSS_ROUNDS * (len(LP_ROUND) + 1))


# --- cli: one process per request ---


@dataclass(eq=False)
class Request:
    name: str
    args: tuple[str, ...]
    prog: Program
    golden: bytes | None = None
    # a smaller program with the same optima, for inputs over the oracle's cap
    oracle_prog: Program | None = None
    verdicts: dict = field(default_factory=dict)


def _reproducers(workdir: str) -> list[Request]:
    """The two defects the roadmap records; both exit 1 with a traceback
    at the commit that introduced this benchmark.  Their answers get the
    same checks as every other request.

    The 13x1 program is over the oracle's 12-row cap.  Its rows 2..13 are
    one finite row repeated, so it has the feasible set of its 2x1
    reduction, and the repeated dual variables act as one: the reduction
    has the same optimum and dual optimum, and the oracle checks that.
    """
    tall = Program((("bot",),) + (("1",),) * 12, ("bot",) + ("0",) * 12, ("1",), "13x1-invalid")
    tall_reduced = Program((("bot",), ("1",)), ("bot", "0"), ("1",), "13x1-invalid-reduced")
    wide = Program((("1",) * 1000,), ("1",), None, "1x1000-ones")
    out = []
    for name, prog, args, reduced in (
        ("solve 13x1 invalid (ScaleLimitError)", tall, ("solve",), tall_reduced),
        ("farkas --mode eq 1x1000 (RecursionError)", wide, ("farkas", "--mode", "eq"), None),
    ):
        path = os.path.join(workdir, prog.kind + ".lp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(prog.text())
        out.append(Request(name, (args[0], path) + args[1:], prog, oracle_prog=reduced))
    return out


class CliWorkload:
    in_process = False

    def __init__(self, seed: int, workdir: str):
        from harness import ROOT

        fixtures = os.path.join(ROOT, "tests", "fixtures")
        goldens = os.path.join(ROOT, "tests", "golden")
        self.workdir = workdir
        inputs: list[tuple[str, str, Program]] = []
        for name in FIXTURES:
            path = os.path.join(fixtures, name + ".lp")
            with open(path, encoding="utf-8") as fh:
                inputs.append((name, path, gen.parse_program(fh.read(), name)))
        generated = gen.audit_programs(seed, CLI_GENERATED_VALID, stream="cli") + gen.raw_programs(seed, CLI_GENERATED_INVALID)
        for i, prog in enumerate(generated):
            path = os.path.join(workdir, f"gen{i}.lp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(prog.text())
            inputs.append((f"gen{i}", path, prog))
        self.digest = gen.digest(p for _, _, p in inputs)
        golden = {args: name for name, args in GOLDEN}
        self.ops: list[Request] = []
        for name, path, prog in inputs:
            argvs = []
            if prog.c is not None:
                argvs += [("validate",), ("dualize",), ("solve",), ("solve", "--oracle")]
            argvs.append(("farkas", "--mode", "ext"))
            if gen.all_finite(prog):
                argvs += [("farkas", "--mode", m) for m in ("eq", "ineq", "ineq-neg")]
            argvs += [args[:1] + args[2:] for args in golden if args[1] == name and args[:1] + args[2:] not in argvs]
            for args in argvs:
                req = Request(f"{args[0]} {name}{' ' if args[1:] else ''}{' '.join(args[1:])}", (args[0], path) + args[1:], prog)
                gname = golden.get((args[0], name) + args[1:])
                if gname:
                    with open(os.path.join(goldens, gname), "rb") as fh:
                        req.golden = fh.read()
                self.ops.append(req)
        self.defects = _reproducers(workdir)
        self.shapes = [p.shape for _, _, p in inputs]
        self.maxrss_mb = 0.0

    def run_op(self, req: Request) -> ChildResult:
        r = run_child([sys.executable, "-m", "extlp", *req.args])
        self.maxrss_mb = max(self.maxrss_mb, r.maxrss_mb)
        return r

    def traced_op(self, tracer: Tracer, req: Request) -> ChildResult:
        return tracer.call("cli.request", tracer.new_op(), self.run_op, req)

    def check(self, req: Request, r: ChildResult) -> str | None:
        key = (r.code, r.stdout, r.stderr)
        if key not in req.verdicts:
            req.verdicts[key] = cli_verdict(req, r)
        return req.verdicts[key]

    def final_check(self, tracer: Tracer | None) -> list[Failure]:
        return []

    def run_defects(self) -> list[tuple[str, str | None]]:
        """Run each reproducer once; ``(name, failure reason or None)``."""
        return [(req.name, self.check(req, self.run_op(req))) for req in self.defects]

    def probe_layers(self, probe: LayerProbe, budget: float) -> None:
        """Every distinct request and input once; ``budget`` is not needed."""
        seen = set()
        for req in self.ops:
            probe.main(list(req.args), req.name)
            if req.args[1] not in seen:
                seen.add(req.args[1])
                probe.program(req.prog, req.name, pipeline=True)
                if req.prog.c is not None:
                    reference_pair(req.prog, probe.tracer, probe.tracer.new_op())

    def properties(self) -> dict:
        return {
            "requests": len(self.ops),
            "inputs": len({r.args[1] for r in self.ops}),
            "shapes": shape_range(self.shapes),
            "defect_reproducers": len(self.defects),
        }


def _fields(stdout: bytes) -> dict[str, str]:
    out = {}
    for line in stdout.decode().splitlines():
        key, _, rest = line.partition(" ")
        out.setdefault(key, rest)
    return out


def _same_values(xs, ys) -> bool:
    return len(xs) == len(ys) and all(gen.value(x) == gen.value(y) for x, y in zip(xs, ys))


def cli_verdict(req: Request, r: ChildResult) -> str | None:
    """Why the answer to ``req`` is wrong, or None when it is right."""
    if b"Traceback" in r.stderr:
        last = r.stderr.decode(errors="replace").strip().splitlines()[-1]
        return f"traceback, exit {r.code}: {last}"
    if r.code not in (0, 2, 3, 4):
        return f"exit code {r.code}"
    if req.golden is not None and r.stdout != req.golden:
        return "output differs from the golden file"
    prog, cmd = req.prog, req.args[0]
    if cmd == "validate":
        want = 2 if gen.violated_conditions(prog) else 0
        return None if r.code == want else f"exit {r.code}, expected {want}"
    if r.code != 0 and not (cmd == "farkas" and r.code == 2):
        return f"exit {r.code}, expected 0"
    if "--json" in req.args:
        return None
    if cmd == "dualize":
        got = gen.parse_program(r.stdout.decode())
        want = prog.dual()
        same = got.shape == want.shape and all(_same_values(x, y) for x, y in zip(got.A, want.A))
        if not (same and _same_values(got.b, want.b) and _same_values(got.c, want.c)):
            return "dual program differs from the negated transpose"
        return None
    f = _fields(r.stdout)
    if cmd == "solve":
        ref = reference_pair(req.oracle_prog or prog)
        got = (extfield.parse_ext(f.get("optimum", "?")), extfield.parse_ext(f.get("dual_optimum", "?")))
        if got != (ref[0].value, ref[1].value):
            return f"optima ({got[0]}, {got[1]}), oracle ({ref[0]}, {ref[1]})"
        if f.get("opposites") != ("true" if elp.opposites_opt(*ref) else "false"):
            return "opposites line disagrees with the oracle's optima"
        if "--oracle" in req.args and f.get("oracle") != "agree":
            return "no 'oracle agree' line"
        return None
    mode = req.args[req.args.index("--mode") + 1]
    applies = gen.all_finite(prog) if mode != "ext" else not gen.violated_conditions(Program(prog.A, prog.b, None, ""))
    if r.code != (0 if applies else 2):
        return f"exit {r.code}, expected {0 if applies else 2}"
    if not applies:
        return None
    w = tuple(Fraction(t) for t in f.get("witness", "").split())
    primal = f.get("outcome") == "primal"
    if mode == "ext":
        a, b = extlinalg.ExtMatrix(prog.A), extlinalg.ExtVector(prog.b)
        ok = farkas.verify_primal_ext(a, b, w) if primal else farkas.verify_dual_ext(a, b, w)
    elif mode == "eq":
        a, b = rational_rows(prog)
        ok = farkas.verify_primal_eq(a, b, w) if primal else farkas.verify_dual_eq(a, b, w)
    else:
        a, b = rational_rows(prog)
        ok = farkas.verify_primal_ineq(a, b, w) if primal else farkas.verify_dual_ineq(a, b, w)
    return None if ok else f"{'primal' if primal else 'dual'} witness does not verify"


WORKLOADS = {
    "cli": CliWorkload,
    "audit": audit,
    "lp-finite": lp_finite,
}
