"""Scaling curves and the roadmap's baseline table, in one command.

    python3 bench/scaling.py

Prints a markdown table and writes ``bench/out/scaling.json``.  Rows:

* ``extlp solve tests/fixtures/lunch.lp`` as a whole process, the
  ``import extlp`` cost, and lunch per layer in microseconds per call;
* ``solve_inequality`` on tall m x 2 all-ones systems with ``b = 1``;
* ``solve_inequality`` on random n x n systems with entries in [-5, 5],
  and one 12 x 12 system with entries in [-9, 9] for witness size;
* ``optimum_pair`` on planted n x n programs (integers in [-9, 9]).

Each point of a curve is one solve, stopped by a wall-clock cap of
``CAP_S`` seconds; a curve ends at its first capped point.  The cap and the
seed are fixed, so that every baseline table comes from one configuration.  ``witness_bits_max`` is the
largest numerator or denominator bit length in the witness, or in the two
optimal values for ``optimum_pair``.  The report is informational: no
pass/fail comparison reads it.
"""

from __future__ import annotations

import json
import os
import platform
import random
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import OUT, ROOT, Tracer, python_probe, run_child  # noqa: E402
from run import import_extlp  # noqa: E402

CAP_S = 10.0
SEED = 1
LUNCH_REPEATS = 50


class Capped(Exception):
    pass


def _alarm(signum, frame):
    raise Capped()


def capped(cap: float, fn, *args):
    """``(seconds, result)``, or ``(None, None)`` when ``cap`` runs out."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Capped:
        return None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, result


def curve(name: str, sizes, make, run) -> list[dict]:
    from workloads import witness_bits

    points = []
    for size in sizes:
        args = make(size)
        seconds, result = capped(CAP_S, run, *args)
        point = {"curve": name, "size": size, "seconds": seconds, "witness_bits_max": None}
        points.append(point)
        if seconds is None:
            print(f"  {name} {size}: over the {CAP_S:g} s cap", file=sys.stderr)
            break
        point["witness_bits_max"] = witness_bits(result)
        print(f"  {name} {size}: {seconds:.3f} s", file=sys.stderr)
    return points


def lunch_layers() -> dict:
    """Microseconds per call on lunch.lp, medians of ``LUNCH_REPEATS`` passes
    of the traced run's per-layer probe."""
    import gen
    from extlp import oracle
    from workloads import LayerProbe, to_elp

    with open(os.path.join(ROOT, "tests", "fixtures", "lunch.lp"), encoding="utf-8") as fh:
        lunch = gen.parse_program(fh.read(), "lunch")
    probe = LayerProbe(Tracer())
    for _ in range(LUNCH_REPEATS):
        probe.program(lunch, "lunch", pipeline=True)
        probe.tracer.call("oracle.oracle_solve_extended", probe.tracer.new_op(), oracle.oracle_solve_extended, to_elp(lunch))
    if probe.failures:
        raise RuntimeError(f"lunch: {probe.failures[0].reason}")
    d = probe.tracer.durations_us()
    spans = {
        "parse": "cli.parse_program_text",
        "validate": "elp.validate",
        "dualize": "elp.dualize",
        "feasible(P)": "elp.is_feasible.primal",
        "feasible(D)": "elp.is_feasible.dual",
        "optimum_pair": "elp.optimum_pair",
        "oracle": "oracle.oracle_solve_extended",
    }
    out = {label: statistics.median(d[name]) for label, name in spans.items()}
    out["combined block"] = statistics.median(probe.blocks_us)
    return out


def main() -> int:
    import_extlp()
    import gen
    from extlp import elp, farkas

    lunch = os.path.join(ROOT, "tests", "fixtures", "lunch.lp")
    whole = statistics.median(run_child([sys.executable, "-m", "extlp", "solve", lunch]).seconds * 1e3 for _ in range(5))
    floor = python_probe("pass", 5)
    imported = python_probe("import extlp", 5) - floor
    layers = lunch_layers()

    rng = random.Random(f"scaling-{SEED}")
    one = Fraction(1)

    def tall(m):
        return [[one, one] for _ in range(m)], [one] * m

    def square(n):
        return [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)], [Fraction(rng.randint(-5, 5)) for _ in range(n)]

    def square9(n):
        return [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)], [Fraction(rng.randint(-9, 9)) for _ in range(n)]

    def solve(a, b):
        out = farkas.solve_inequality(a, b)
        return out.x if out.is_primal else out.y

    def planted(n):
        p = gen.finite_program(rng, n, n, False, True)
        return (elp.ExtendedLP(p.A, p.b, p.c),)

    def optimum(p):
        return [o.value.finite_value for o in elp.optimum_pair(p)]

    points = (
        curve("solve_inequality tall m x 2 all-ones", range(4, 21, 2), tall, solve)
        + curve("solve_inequality random n x n", range(4, 21, 2), square, solve)
        + curve("solve_inequality random n x n, entries in [-9, 9]", (12,), square9, solve)
        + curve("optimum_pair planted n x n", range(3, 10), planted, optimum)
    )

    host = f"Python {platform.python_version()}, {platform.machine()}, nproc {os.cpu_count()}"
    print(f"Measured with {host}; one run per point, cap {CAP_S:g} s, seed {SEED}.\n")
    print("| what | measured |\n|---|---|")
    print(f"| `extlp solve tests/fixtures/lunch.lp`, whole process | {whole:.0f} ms (median of 5); `import extlp` {imported:.0f} ms over a {floor:.0f} ms `python -c pass` |")
    print("| lunch, per layer (µs/call) | " + " · ".join(f"{k} {v:,.0f}" for k, v in layers.items()) + " |")
    by_curve: dict[str, list[dict]] = {}
    for p in points:
        by_curve.setdefault(p["curve"], []).append(p)
    for name, pts in by_curve.items():
        cells = [
            f"{p['size']}: {p['seconds']:.3g} s, {p['witness_bits_max']} bits" if p["seconds"] is not None else f"{p['size']}: over {CAP_S:g} s"
            for p in pts
        ]
        print(f"| `{name}` | " + " · ".join(cells) + " |")

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "scaling.json"), "w", encoding="utf-8") as fh:
        json.dump({"host": host, "seed": SEED, "cap_s": CAP_S, "lunch_process_ms": whole, "import_ms": imported,
                   "python_floor_ms": floor, "lunch_layers_us": layers, "points": points}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
