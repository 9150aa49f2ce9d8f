"""Timing, tracing and process helpers shared by the workloads.

Load is a closed loop with one client in one process: each operation starts
only after the previous one has finished, and no extra threads run.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
# at least this many operations per runner, so that 10 samples lie beyond p90
MIN_OPS = 100


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("EXTLP_SEED", None)
    return env


@dataclass
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    seconds: float
    maxrss_mb: float


def run_child(argv: list[str]) -> ChildResult:
    """Run ``argv`` to completion; time it and read its peak resident memory.

    Output goes to temporary files rather than pipes, so the child can never
    block on a full pipe, and the child is reaped with ``wait4`` to get its
    own resource usage.
    """
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(proc.returncode, out.read(), err.read(), seconds, usage.ru_maxrss / 1024)


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (1..99), as ``statistics.quantiles`` cuts it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


@dataclass
class Failure:
    input: str
    reason: str


@dataclass
class LoopResult:
    """What one closed-loop phase measured."""

    latencies: list[float] = field(default_factory=list)
    busy: float = 0.0
    failures: list[Failure] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def end_to_end(self) -> dict[str, tuple[float, str, int]]:
        """``name -> (value, unit, samples)`` for the timing metrics."""
        n = self.attempted
        return {
            "throughput_ops_s": (n / self.busy, "ops/s", n),
            "latency_ms.p50": (1e3 * statistics.median(self.latencies), "ms", n),
            "latency_ms.p90": (1e3 * quantile(self.latencies, 90), "ms", n),
            "fail_ratio": (len(self.failures) / n, "failed/attempted", n),
        }


def closed_loop(ops, seconds: float, runners, check) -> list[LoopResult]:
    """Run ``ops`` in order, cycling, until ``seconds`` have passed and
    every runner has done at least ``MIN_OPS`` operations.

    Each op runs once under every function in ``runners`` (the traced run
    passes an untraced and a traced runner), in an order that rotates from
    op to op, so the variants see the same inputs and the same machine
    state.  A runner's call is the timed operation; ``check(op, result)``
    runs after the clock stops and returns a failure reason or None.  An
    exception from the operation is a failure too.  Throughput is taken over
    the time the operations were running (busy time), without the checks.
    """
    results = [LoopResult() for _ in runners]
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or results[0].attempted < MIN_OPS:
        op = ops[i % len(ops)]
        for k in range(len(runners)):
            j = (i + k) % len(runners)
            res = results[j]
            t0 = time.perf_counter()
            try:
                result = runners[j](op)
            except Exception as exc:  # a failing operation must not stop the run
                t1 = time.perf_counter()
                reason = f"{type(exc).__name__}: {exc}"
            else:
                t1 = time.perf_counter()
                try:
                    reason = check(op, result)
                except Exception as exc:  # malformed output fails the check
                    reason = f"check raised {type(exc).__name__}: {exc}"
            res.latencies.append(t1 - t0)
            res.busy += t1 - t0
            if reason:
                res.failures.append(Failure(op.name, reason))
        i += 1
    return results


class Tracer:
    """Spans kept in memory and written out once, at the end of the run.

    A span is ``(name, start_ns, end_ns, parent, ok)``: ``parent`` is the
    id of the operation that caused it, shared by every span of that
    operation, and ``ok`` is false when the call raised.
    """

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, bool]] = []
        self._next = 0

    def new_op(self) -> int:
        self._next += 1
        return self._next

    def call(self, name: str, parent: int, fn, *args):
        start = time.perf_counter_ns()
        ok = False
        try:
            result = fn(*args)
            ok = True
            return result
        finally:
            self.spans.append((name, start, time.perf_counter_ns(), parent, ok))

    def durations_us(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, start, end, _, _ in self.spans:
            out.setdefault(name, []).append((end - start) / 1e3)
        return out

    def errors(self, module: str) -> int:
        prefix = module + "."
        return sum(1 for s in self.spans if not s[4] and s[0].startswith(prefix))

    def write(self, path: str, meta: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": ["name", "start_ns", "end_ns", "parent", "ok"], "spans": self.spans}, fh, separators=(",", ":"))


def python_probe(code: str, repeats: int) -> float:
    """Median wall time, in ms, of a fresh ``python -c code``."""
    times = []
    for _ in range(repeats):
        r = run_child([sys.executable, "-c", code])
        if r.code != 0:
            raise RuntimeError(f"python -c {code!r} exited {r.code}: {r.stderr.decode(errors='replace')[-300:]}")
        times.append(r.seconds * 1e3)
    return statistics.median(times)
