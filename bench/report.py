"""Run every workload once and print all of its metrics by name.

    python3 bench/report.py [--seed N] [--seconds S] [--trace]

For each workload this prints run.py's report: the workload's own metrics
(certify_s, sample_rows_per_s, section_p50_ms/p99_ms, trace_points_per_s,
subgroup_sweeps_per_s, failed_ratio with its base, setup_s) with units and
sample counts, then the BENCHMARK.json metrics. With --trace it adds the
traced run of each workload: self and inclusive time per module, the top
functions and trace.overhead_ratio.
"""

import argparse
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                status = 1
            print()
    return status


if __name__ == "__main__":
    sys.exit(main())
