#!/usr/bin/env python3
"""The graphlds benchmark: one workload per process, closed loop, one op
at a time, BLAS threads capped at the number of usable cores.

    python3 perfbench/run.py --workload study_path20 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
its ``src/`` and nowhere else. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the environment. Workloads, metric names,
units and bounds are listed in ``BENCHMARK.json``.

Set-up is input generation plus one warm-up op. Ops then run in batches
of ``BATCH``, timed as a whole and one by one; after each batch, every op
of it is checked against the references in ``reference.py``. An op fails
if it raises, returns a row whose status is not ``ok``, or fails the
check. After the timed ops, the default seed's first trials are compared
with ``digest.json``.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: median over ``SETUP_RUNS`` fresh processes of the time
  from process start to the end of set-up (import, inputs, warm-up op);
- ``op_ms_p90``: the 90th percentile of op time, the tail; a 30 s run
  holds over 100 ops at today's op times, so at least ten lie beyond it;
- ``peak_rss_mb``: the process's ``ru_maxrss`` after set-up and the first
  batch, before the benchmark's own checks allocate;
- ``ok_frac``: the share of attempted ops that did not fail.

Throughput and median op time are reported, ungated, by the traced run:
on a shared 2-core machine the speed of interpreter-bound code shifts by
up to a third for minutes at a time, and the 90th percentile is the op
time statistic that held steady from run to run.

``--trace 1`` splits the time in three: untraced and traced batches,
alternating, and an untraced pass in a child process with BLAS at one
thread. It prints ``untraced.ops_per_s`` (ops completed per second of
batch time) and ``untraced.op_ms_p50`` from the untraced batches; per
traced op, each function's calls and self time
(``<layer>.<function>.calls``, ``.self_ms``), the counts named in
``spans.COUNT_NAMES``, each layer's self time during traced input
generation (``setup.<layer>.self_ms``), ``trace.overhead_frac`` (one minus
traced over untraced ``ops_per_s``) and ``blas1.ops_per_s``. Spans are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_RUNS = 3
BATCH = 8
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set by the benchmark for the processes it starts itself
    parser.add_argument("--role", choices=("main", "setup", "blas1"), default="main",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_program():
    """Import graphlds from this checkout's src/ (refusing any other copy),
    then the benchmark modules that depend on it."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import graphlds
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import graphlds from {ROOT / 'src'}: {exc}")
    where = Path(graphlds.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"run.py: imported graphlds from {where}, outside this checkout")
    import workloads
    return workloads


class Pass:
    """Timed ops of one pass and the result of checking them."""

    def __init__(self):
        self.durations: list[float] = []
        self.elapsed = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rss_mb: float | None = None

    @property
    def ops_per_s(self) -> float:
        return len(self.durations) / self.elapsed


def run_batch(workload, result: Pass, first_op: int, seconds: float, tracer=None) -> int:
    """Time up to ``BATCH`` ops, stopping once ``result`` has had ``seconds``
    of batch time, then check them. Returns the next op index."""
    outputs = []
    k = first_op
    start = time.perf_counter()
    while len(outputs) < BATCH and result.elapsed + time.perf_counter() - start < seconds:
        op_start = time.perf_counter()
        if tracer is not None:
            tracer.op = k
        try:
            out = workload.op(k)
        except Exception as exc:  # a failed op is counted, not fatal
            out = exc
        finally:
            if tracer is not None:
                tracer.op = None
        result.durations.append(time.perf_counter() - op_start)
        outputs.append((k, out))
        k += 1
    result.elapsed += time.perf_counter() - start
    if result.rss_mb is None:
        result.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for index, out in outputs:
        result.attempted += 1
        if isinstance(out, Exception):
            problems = [f"op {index}: {type(out).__name__}: {out}"]
        else:
            try:
                problems = workload.check(index, out)
            except Exception as exc:
                problems = [f"op {index}: check raised {type(exc).__name__}: {exc}"]
        if problems:
            result.failed += 1
            result.problems.extend(problems)
    return k


def timed_pass(workload, seconds: float) -> Pass:
    result = Pass()
    k = 1  # op 0 was the warm-up
    while result.elapsed < seconds:
        k = run_batch(workload, result, k, seconds)
    return result


def traced_passes(workload, seconds: float, tracer):
    """Alternate untraced and traced batches, ``seconds`` of batch time
    each, so both see the same machine conditions."""
    untraced, traced = Pass(), Pass()
    k = 1
    while min(untraced.elapsed, traced.elapsed) < seconds:
        if untraced.elapsed <= traced.elapsed:
            k = run_batch(workload, untraced, k, seconds)
        else:
            with tracer:
                k = run_batch(workload, traced, k, seconds, tracer)
    return untraced, traced


def child(args, role: str, seconds: float | None = None) -> subprocess.Popen:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--role", role]
    if seconds is not None:
        cmd += ["--seconds", repr(seconds)]
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def finish(proc: subprocess.Popen) -> str:
    """Wait for a child; return the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{proc.args} exited with {proc.returncode}")
    return out


def setup_seconds(args) -> list[float]:
    """Time fresh processes from start to the end of their set-up."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = child(args, "setup")
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
        finally:
            finish(proc)
        if line.strip() != "ready":
            raise RuntimeError(f"set-up process printed {line!r}")
    return times


def environment(args, blas_threads: int, why: str) -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {lib.__name__: "{name} {version}".format(
            **lib.show_config(mode="dicts")["Build Dependencies"]["blas"])
            for lib in (numpy, scipy)},
        "machine": platform.machine(),
        "nproc": nproc(),
        "blas_threads": blas_threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": why,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(timed: Pass, setups: list[float]) -> dict:
    ms = [t * 1000.0 for t in timed.durations]
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "op_ms_p90": metric(statistics.quantiles(ms, n=10)[-1], "ms"),
        "peak_rss_mb": metric(timed.rss_mb, "MB"),
        "ok_frac": metric((timed.attempted - timed.failed) / timed.attempted, "frac"),
    }


def per_layer(tracer, traced: Pass, untraced: Pass, blas1_ops_per_s: float) -> dict:
    import spans
    ops = len(traced.durations)
    calls = dict.fromkeys(spans.SPAN_NAMES, 0)
    self_s = dict.fromkeys(spans.SPAN_NAMES, 0.0)
    setup_s = dict.fromkeys(spans.LAYERS, 0.0)
    for name, op, seconds in tracer.self_times():
        if op == "setup":
            setup_s[name.split(".")[0]] += seconds
        elif op is not None:
            calls[name] += 1
            self_s[name] += seconds
    out = {}
    for name in spans.SPAN_NAMES:
        out[f"{name}.calls"] = metric(calls[name] / ops, "count")
        out[f"{name}.self_ms"] = metric(self_s[name] * 1000.0 / ops, "ms")
    for name in spans.COUNT_NAMES:
        unit = "B" if name.endswith("bytes_computed") else "count"
        out[name] = metric(tracer.counts[name] / ops, unit)
    for layer, seconds in setup_s.items():
        out[f"setup.{layer}.self_ms"] = metric(seconds * 1000.0, "ms")
    out["untraced.ops_per_s"] = metric(untraced.ops_per_s, "1/s")
    out["untraced.op_ms_p50"] = metric(statistics.median(untraced.durations) * 1000.0, "ms")
    out["trace.overhead_frac"] = metric(1.0 - traced.ops_per_s / untraced.ops_per_s, "frac")
    out["blas1.ops_per_s"] = metric(blas1_ops_per_s, "1/s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = 1 if args.role == "blas1" else nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    make, why = workloads.WORKLOADS[args.workload]

    workload = make(args.seed)
    workload.op(0)  # warm-up: first BLAS calls and lazy imports
    if args.role == "setup":
        print("ready", flush=True)
        return 0

    if args.role == "blas1":
        timed = timed_pass(workload, args.seconds)
        workload.close()
        attempted, failed, problems = timed.attempted, timed.failed, timed.problems
        metrics = {"ops_per_s": metric(timed.ops_per_s, "1/s")}
    elif args.trace == 0:
        timed = timed_pass(workload, args.seconds)
        problems = timed.problems + workloads.check_digest(args.workload, workload)
        workload.close()
        attempted, failed = timed.attempted, timed.failed
        metrics = end_to_end(timed, setup_seconds(args))
    else:
        import spans
        third = args.seconds / 3.0
        tracer = spans.Tracer()
        with tracer:
            tracer.op = "setup"
            make(args.seed).close()
            tracer.op = None
        untraced, traced = traced_passes(workload, third, tracer)
        problems = (untraced.problems + traced.problems
                    + workloads.check_digest(args.workload, workload))
        workload.close()
        blas1 = json.loads(finish(child(args, "blas1", third)).splitlines()[-1])
        attempted = untraced.attempted + traced.attempted + blas1["attempted"]
        failed = untraced.failed + traced.failed + blas1["failed"]
        metrics = per_layer(tracer, traced, untraced, blas1["metrics"]["ops_per_s"]["value"])
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.role == "main":
        print(json.dumps({"environment": environment(args, blas_threads, why)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
