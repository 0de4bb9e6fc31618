"""liecurv benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; liecurv is imported from its ``src``.
Workloads: certify, sample, section, geodesic (see workloads.py). With
--trace 0 the last line of stdout holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 it holds the per-layer metrics of a traced
run, whose spans are written to .bench_out/. The lines above it name the
workload's own metrics with their units and sample counts, the failures
and the environment.

Set-up is timed from spawning a worker process to the end of its warm-up
command. Untraced runs set up SETUP_RUNS workers one after another (the
last one does the measuring) and report the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "sample", "section", "geodesic")
SETUP_RUNS = 3
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(args, probe: bool, deadline: float) -> tuple[float, dict | None]:
    """Start one worker and wait for it; returns its set-up seconds and, for
    the measuring worker, its result."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish before the deadline")
    ready = result = None
    for line in out.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if proc.returncode != 0 or ready is None or (result is None and not probe):
        raise BenchError(f"worker exited {proc.returncode} without a result")
    return ready - started, result


def report(args, result: dict, load: tuple) -> None:
    print(f"# liecurv bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps({**result["env"],
                               "loadavg_start": [round(x, 2) for x in load]}))
    print(f"ops attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for what, count in result["failures"].items():
        print(f"  failed x{count}: {what}")
    for problem in result["problems"]:
        print(f"  incorrect: {problem}")
    for name, value, unit, n in result["named"]:
        print(f"{name:24} {value:12.6g} {unit:6} n={n}")
    if not args.trace:
        units = unit_table()
        print("BENCHMARK.json metrics:")
        for name, value in result["metrics"].items():
            print(f"  {name:22} {value:12.6g} {units[name]:6} "
                  f"n={result['counts'][name]}")
    else:
        print_layers(result["metrics"], result["request_s"])
    for note in result["notes"]:
        print(note)


def print_layers(metrics: dict, request_s: float) -> None:
    """Module and function times per request, as shares of the traced
    request time."""
    def row(seconds):
        return f"{seconds * 1e3:11.4f} ms {100 * seconds / request_s:5.1f}%"

    print(f"traced request time {request_s * 1e3:.4f} ms; per module, "
          "self and inclusive:")
    modules = sorted({k.split(".")[0] for k in metrics if k.count(".") == 1})
    for m in sorted(modules, key=lambda m: -metrics.get(f"{m}.self_s", 0.0)):
        if f"{m}.self_s" in metrics:
            print(f"  {m:10} {row(metrics[f'{m}.self_s'])}   "
                  f"{row(metrics[f'{m}.inclusive_s'])}")
    funcs = sorted(((k[:-len('.self_s')], v) for k, v in metrics.items()
                    if k.endswith(".self_s") and k.count(".") > 1),
                   key=lambda kv: -kv[1])
    print("top functions by self time:")
    for name, v in funcs[:8]:
        print(f"  {name:48} {row(v)}  calls {metrics[name + '.calls']:.6g}")
    print(f"trace.overhead_ratio {metrics['trace.overhead_ratio']:.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "liecurv" / "__init__.py").is_file():
        print(f"error: no liecurv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load = os.getloadavg()
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setup.append(spawn(args, True, deadline)[0])
        seconds, result = spawn(args, False, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setup.append(seconds)
        metrics["setup_s"] = statistics.median(setup)
        result["counts"]["setup_s"] = len(setup)
    report(args, result, load)
    units = unit_table()
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items() if k in units}}))
    return 0


def unit_table() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
