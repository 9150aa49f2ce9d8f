"""extlp benchmark: end-to-end and per-layer metrics on three workloads.

Run from the root of a checkout::

    python3 bench/run.py --workload audit --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

One workload prints a report and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
metric names and units are the ones ``BENCHMARK.json`` declares.  ``all``
runs every workload untraced and traced, in child processes, and prints
every report and a summary.

The package is imported from ``src/`` of the checkout and is not modified;
inputs are generated from ``--seed`` and every answer is checked outside
the timed region.  Spans of a traced run are written to
``bench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import OUT, ROOT, SRC, LoopResult, Tracer, closed_loop, python_probe, run_child  # noqa: E402

SETUP_REPEATS = 5
RSS_REPEATS = 3
PROCESS_REPEATS = 5
TABLE = "# table "
NO_WAITING = "waiting time: none to report; extlp is a single-threaded library with no queues"


def import_extlp():
    """Import extlp from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "extlp", "__init__.py")):
        raise SystemExit(f"error: no extlp package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import extlp

    if os.path.dirname(os.path.dirname(os.path.abspath(extlp.__file__))) != SRC:
        raise SystemExit(f"error: imported extlp from {extlp.__file__}, not from {SRC}")
    return extlp


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spec() -> dict:
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_probe(workload: str, seed: int, what: str, repeats: int) -> list:
    """Run ``--child what`` in ``repeats`` fresh interpreters."""
    out = []
    for _ in range(repeats):
        r = run_child([sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--child", what])
        if r.code != 0:
            raise RuntimeError(f"{what} probe exited {r.code}: {r.stderr.decode(errors='replace')[-500:]}")
        out.append(r)
    return out


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh interpreter -> ``import extlp`` -> inputs built, timed from outside."""
    return [r.seconds for r in child_probe(workload, seed, "setup", SETUP_REPEATS)]


def peak_rss_mb(workload: str, seed: int) -> list[float]:
    """Peak resident memory of fresh interpreters that build the inputs and
    run the workload's fixed ``rss_ops`` prefix once, keeping no answers."""
    return [r.maxrss_mb for r in child_probe(workload, seed, "rss", RSS_REPEATS)]


def describe_failures(failures) -> list[str]:
    counts = Counter((f.input, f.reason) for f in failures)
    lines = [f"  FAIL x{n} {inp}: {reason}" for (inp, reason), n in sorted(counts.items())[:30]]
    if len(counts) > 30:
        lines.append(f"  ... {len(counts) - 30} more distinct failures")
    return lines


def layer_metrics(tracer: Tracer, probe, plain: LoopResult, traced: LoopResult, floor_ms: float, import_ms: float):
    """``name -> (value, unit, count)`` for the per-layer metrics."""
    d = tracer.durations_us()

    def med(name: str):
        xs = d.get(name, [])
        return (statistics.median(xs) if xs else 0.0, "us", len(xs))

    out = {
        "cli.process_floor_ms": (floor_ms, "ms", PROCESS_REPEATS),
        "cli.import_ms": (import_ms, "ms", PROCESS_REPEATS),
        "cli.parse_program_text_us": med("cli.parse_program_text"),
    }
    for cmd in ("validate", "dualize", "solve", "solve_oracle", "farkas"):
        out[f"cli.main_us.{cmd}"] = med(f"cli.main.{cmd}")
    out["extfield.parse_ext_us"] = med("extfield.parse_ext")
    out["extlinalg.neg_transpose_us"] = med("extlinalg.neg_transpose")
    out["extlinalg.mul_weig_us"] = med("extlinalg.mul_weig")
    out["elp.validate_us"] = med("elp.validate")
    out["elp.dualize_us"] = med("elp.dualize")
    out["elp.is_feasible_us.primal"] = med("elp.is_feasible.primal")
    out["elp.is_feasible_us.dual"] = med("elp.is_feasible.dual")
    out["elp.optimum_pair_us"] = med("elp.optimum_pair")
    blocks = probe.blocks_us
    out["elp.optimum_pair.block_us"] = (statistics.median(blocks) if blocks else 0.0, "us", len(blocks))
    out["elp.finite_share"] = (probe.finite / max(1, probe.programs), "ratio", probe.programs)
    out["farkas.solve_extended_us"] = med("farkas.solve_extended")
    out["farkas.witness_bits_max"] = (probe.bits_max, "bits", probe.solves)
    out["farkas.dual_share"] = (probe.dual_outcomes / max(1, probe.solves), "ratio", probe.solves)
    out["farkas.verify_us"] = med("farkas.verify")
    out["oracle.oracle_solve_extended_us"] = med("oracle.oracle_solve_extended")
    for module in ("cli", "extfield", "extlinalg", "elp", "farkas", "oracle"):
        out[f"{module}.errors"] = (tracer.errors(module), "count", sum(1 for s in tracer.spans if s[0].startswith(module + ".")))
    p, t = plain.end_to_end(), traced.end_to_end()
    for name in ("throughput_ops_s", "latency_ms.p50", "latency_ms.p90"):
        out[f"trace.overhead.{name}"] = (t[name][0] - p[name][0], p[name][1], t[name][2])
    out["trace.spans"] = (len(tracer.spans), "count", len(tracer.spans))
    return out


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    extlp = import_extlp()
    import workloads

    info = spec()
    bench = declared()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        t0 = time.perf_counter()
        w = workloads.WORKLOADS[name](seed, workdir)
        inproc_setup = time.perf_counter() - t0
        print(f"# extlp benchmark: workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
        print(f"# python {platform.python_version()} ({sys.executable}), nproc {os.cpu_count()}, {platform.machine()}, extlp {extlp.__version__}")
        print(f"# why: {info['workloads'][name]['why']}")
        print(f"# inputs: digest {w.digest}")
        print("# load: closed loop, one client, one process, no extra threads")
        if not trace:
            setups = setup_seconds(name, seed)
            rss = peak_rss_mb(name, seed) if w.in_process else None
            (loop,) = closed_loop(w.ops, seconds, [w.run_op], w.check)
            loop.failures += w.final_check(None)
            failures = loop.failures
            attempted = loop.attempted
            metrics = loop.end_to_end()
            metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
            metrics["peak_rss_mb"] = (statistics.median(rss), "MB", len(rss)) if rss else (w.maxrss_mb, "MB", attempted)
            wanted = bench["end_to_end"]
            print(f"# set-up in this process: {inproc_setup:.3f} s (setup_s times {SETUP_REPEATS} fresh interpreters)")
            if rss:
                print(f"# peak_rss_mb: median of {RSS_REPEATS} fresh interpreters, each running the first {w.rss_ops} operations once")
            else:
                print("# peak_rss_mb: the largest python -m extlp child of the loop")
        else:
            tracer = Tracer()
            plain, traced = closed_loop(w.ops, seconds, [w.run_op, lambda op: w.traced_op(tracer, op)], w.check)
            failures = plain.failures + traced.failures + w.final_check(tracer)
            probe = workloads.LayerProbe(tracer)
            w.probe_layers(probe, seconds / 2)
            failures += probe.failures
            floor_ms = python_probe("pass", PROCESS_REPEATS)
            import_ms = python_probe("import extlp", PROCESS_REPEATS) - floor_ms
            attempted = plain.attempted + traced.attempted
            metrics = layer_metrics(tracer, probe, plain, traced, floor_ms, import_ms)
            wanted = bench["per_layer"]
            path = os.path.join(OUT, f"trace-{name}-{seed}.json")
            tracer.write(path, {"workload": name, "seed": seed, "seconds": seconds, "digest": w.digest, "python": platform.python_version(), "nproc": os.cpu_count()})
            print(f"# untraced vs traced operations, paired on the same inputs: {json.dumps({k: round(v[0], 4) for k, v in plain.end_to_end().items()})} vs {json.dumps({k: round(v[0], 4) for k, v in traced.end_to_end().items()})}")
            print(f"# {NO_WAITING}")
            print(f"# spans written to {os.path.relpath(path, ROOT)}")
        print(f"# input properties: {json.dumps(w.properties())}")
        moves = info["moves"]
        print(f"{'metric':34} {'value':>14} {'unit':16} {'samples':>8}  moves")
        for metric, (value, unit, count) in metrics.items():
            print(f"{metric:34} {value:14.4f} {unit:16} {count:8d}  {moves.get(metric, '')}")
        defects = w.run_defects() if hasattr(w, "run_defects") else []
        for dname, reason in defects:
            print(f"# defect reproducer {dname}: {'still fails: ' + reason if reason else 'FIXED: exit code and output pass the checks'}")
        if defects:
            fails = sum(1 for _, r in defects if r)
            total = attempted + len(defects)
            print(f"# fail_ratio with the {len(defects)} defect reproducers counted: {(len(failures) + fails) / total:.4f} ({len(failures) + fails}/{total})")
        print(f"# failed {len(failures)} of {attempted} operations")
        print(f"{TABLE}{json.dumps({'metrics': metrics, 'defects': defects})}")
        for line in describe_failures(failures):
            print(line)
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a fresh child process."""
    rows = []
    status = 0
    for name in ("cli", "audit", "lp-finite"):
        for trace in ("0", "1"):
            r = run_child([sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", trace])
            text = r.stdout.decode()
            sys.stdout.write(text)
            if r.code != 0:
                sys.stdout.write(r.stderr.decode(errors="replace"))
                status = 1
                continue
            table = next(json.loads(line[len(TABLE):]) for line in text.splitlines() if line.startswith(TABLE))
            rows.append((name, trace, table, json.loads(text.strip().splitlines()[-1])))
    print(f"# summary, seed {seed}, {seconds:g} s per run")
    print(f"{'workload':10} {'metric':34} {'value':>14} {'unit':16} {'samples':>8}")
    for name, trace, table, res in rows:
        for metric, (value, unit, count) in table["metrics"].items():
            if trace == "0" or metric.startswith("trace."):
                print(f"{name:10} {metric:34} {value:14.4f} {unit:16} {count:8d}")
        for dname, reason in table["defects"]:
            print(f"{name:10} defect reproducer {dname}: {'fails: ' + reason if reason else 'fixed'}")
        print(f"{name:10} trace {trace}: correct {res['correct']}, failed {res['failed']} of {res['attempted']}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("cli", "audit", "lp-finite", "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "rss"), help="build the inputs (setup_s), then run the rss_ops prefix (rss), and exit")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.child:
        import_extlp()
        import workloads

        os.makedirs(OUT, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="child-", dir=OUT)
        try:
            w = workloads.WORKLOADS[args.workload](args.seed, workdir)
            if args.child == "rss":
                for op in w.ops[: w.rss_ops]:
                    w.run_op(op)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
