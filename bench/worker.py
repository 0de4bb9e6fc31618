"""Benchmark worker: one process, one client, a closed loop of CLI commands.

Started by run.py. It imports liecurv from the checkout's ``src``, runs the
workload's warm-up command, prints ``READY <monotonic time>`` and, as a
set-up probe, exits there. Otherwise it generates the workload's inputs,
runs the timed phase and prints ``RESULT <json>``.

Untraced (--trace 0), the timed phase runs for --seconds. Traced
(--trace 1), each request runs once untraced and once traced within
--seconds; the ratio of the two busy times is the tracing overhead, and the
two runs of a request must give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
SPAN_DIR = ".bench_out"


@dataclass
class OpRecord:
    kind: str
    label: str               # the command and its first argument
    outcome: str             # exit code, or the exception that escaped main
    latency_ns: int
    ok: bool                 # outcome as expected
    items: int = 0
    problem: str | None = None
    digest: str = ""


def import_liecurv():
    """Import liecurv from this checkout only, never from site-packages."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import liecurv.cli
    origin = Path(liecurv.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"liecurv was imported from {origin}, not {src}")
    return liecurv.cli


def run_op(cli, op, normalize) -> OpRecord:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            rc = cli.main(op.argv)
        except Exception as exc:  # the CLI must map every error to a code
            rc = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
    text = out.getvalue()
    digest = hashlib.sha1(f"{rc}\0{normalize(text)}".encode()).hexdigest()
    rec = OpRecord(op.kind, " ".join(op.argv[:3]), str(rc), t1 - t0,
                   rc == op.expect_exit, digest=digest)
    if rec.ok:
        try:
            rec.items = op.check(text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            rec.problem = f"{rec.label}: {type(exc).__name__}: {exc}"
    return rec


def run_request(cli, workload, k: int) -> list[OpRecord]:
    return [run_op(cli, op, workload.normalize) for op in workload.request(k)]


@dataclass
class Tally:
    """What a phase keeps of its ops: request latencies and sums per op
    kind. Memory stays flat however many requests run, because peak RSS is
    a metric and a faster program runs more of them."""

    latency_ms: array = field(default_factory=lambda: array("d"))
    busy_ns: Counter = field(default_factory=Counter)
    items: Counter = field(default_factory=Counter)
    ops: Counter = field(default_factory=Counter)
    failures: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)

    def add(self, records: list[OpRecord]) -> None:
        self.latency_ms.append(sum(r.latency_ns for r in records) / 1e6)
        for r in records:
            self.busy_ns[r.kind] += r.latency_ns
            self.items[r.kind] += r.items
            self.ops[r.kind] += 1
            if not r.ok:
                self.failures[f"{r.label} -> {r.outcome}"] += 1
            if r.problem and len(self.problems) < 5:
                self.problems.append(r.problem)

    def busy_s(self, *kinds: str) -> float:
        return sum(self.busy_ns[k] for k in kinds or self.busy_ns) / 1e9

    def outcome(self) -> dict:
        attempted = sum(self.ops.values())
        return {"attempted": attempted, "failed": sum(self.failures.values()),
                "correct": not self.problems, "problems": list(self.problems),
                "failures": dict(self.failures.most_common(5))}


def run_phase(cli, workload, budget_s: float) -> Tally:
    """Run requests in a closed loop for as long as the next one is
    predicted to finish within ``budget_s``."""
    tally = Tally()
    t0 = time.perf_counter()
    last = 0.0
    while not tally.latency_ms or time.perf_counter() - t0 + last <= budget_s:
        start = time.perf_counter()
        tally.add(run_request(cli, workload, len(tally.latency_ms)))
        last = time.perf_counter() - start
    return tally


def end_to_end(name: str, tally: Tally, base: dict) -> tuple[dict, dict, list]:
    """The BENCHMARK.json metrics with their sample counts, and the
    workload's own named metrics as (name, value, unit, count)."""
    latency_ms = tally.latency_ms
    items = sum(tally.items.values())
    metrics = {
        "request_p50_ms": statistics.median(latency_ms),
        "items_per_s": items / tally.busy_s(),
        "ok_ratio": 1.0 - base["failed"] / base["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {"request_p50_ms": len(latency_ms), "items_per_s": items,
              "ok_ratio": base["attempted"], "peak_rss_mb": 1}
    named = [("failed_ratio", base["failed"] / base["attempted"], "ratio",
              base["attempted"])]
    if name == "certify":
        named.append(("certify_s", statistics.median(latency_ms) / 1e3, "s",
                      len(latency_ms)))
    elif name == "sample":
        named.append(("sample_rows_per_s", items / tally.busy_s(), "1/s", items))
    elif name == "section":
        cuts = statistics.quantiles(latency_ms, n=100, method="inclusive")
        named += [("section_p50_ms", statistics.median(latency_ms), "ms",
                   len(latency_ms)),
                  ("section_p99_ms", cuts[98], "ms", len(latency_ms))]
    else:
        named += [("trace_points_per_s",
                   tally.items["trace"] / tally.busy_s("trace"), "1/s",
                   tally.items["trace"]),
                  ("subgroup_sweeps_per_s",
                   tally.ops["sweep"] / tally.busy_s("sweep"), "1/s",
                   tally.ops["sweep"])]
    return metrics, counts, named


def traced_run(cli, name, workload, seconds) -> tuple[dict, dict, list]:
    """Run each request twice, untraced and traced, in alternating order so
    neither side always meets the warmer caches."""
    tracer = tracing.Tracer()

    def run_traced(k):
        tracer.request_id = k
        tracer.install()
        try:
            return run_request(cli, workload, k)
        finally:
            tracer.uninstall()

    plain, traced = Tally(), Tally()
    mismatched = 0
    t0 = time.perf_counter()
    last = 0.0
    while not plain.latency_ms or time.perf_counter() - t0 + last <= seconds:
        start = time.perf_counter()
        k = len(plain.latency_ms)
        if k % 2:
            b = run_traced(k)
            a = run_request(cli, workload, k)
        else:
            a = run_request(cli, workload, k)
            b = run_traced(k)
        mismatched += sum(x.digest != y.digest for x, y in zip(a, b))
        plain.add(a)
        traced.add(b)
        last = time.perf_counter() - start
    requests = len(traced.latency_ms)
    base = traced.outcome()
    if mismatched:
        base["correct"] = False
        base["problems"].append(f"{mismatched} outputs differ between the "
                                "untraced and the traced run")
    metrics = tracer.layer_metrics(requests)
    metrics[tracing.OVERHEAD_METRIC] = traced.busy_s() / plain.busy_s()
    out_dir = ROOT / SPAN_DIR
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{name}.npz"
    tracer.save(path)
    notes = [f"requests traced: {requests}; spans: {len(tracer)} "
             f"written to {path.relative_to(ROOT)}"]
    if tracer.missing:
        notes.append("absent (not found in liecurv): " + ", ".join(tracer.missing))
    base["request_s"] = traced.busy_s() / requests
    return base, metrics, notes


def environment() -> dict:
    import liecurv
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"liecurv": liecurv.__version__, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="exit after set-up (import and warm-up)")
    args = ap.parse_args()

    cli = import_liecurv()
    kind = workloads.CLASSES[args.workload]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rc = cli.main(list(kind.warmup))
    if rc != 0:
        print(f"warm-up {kind.warmup} exited {rc}", file=sys.stderr)
        return 1
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.probe:
        return 0

    workload = kind(args.seed)
    if args.trace:
        base, metrics, notes = traced_run(cli, args.workload, workload,
                                          args.seconds)
        counts, named = {}, []
    else:
        tally = run_phase(cli, workload, budget_s=args.seconds)
        base = tally.outcome()
        metrics, counts, named = end_to_end(args.workload, tally, base)
        notes = []
    result = {**base, "metrics": metrics, "counts": counts, "named": named,
              "notes": notes, "env": environment()}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
