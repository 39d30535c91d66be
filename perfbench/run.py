"""Launcher of the calibration benchmark.

    python3 perfbench/run.py --workload ladder-detailed --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The launcher pins the BLAS and
OpenMP thread pools to one thread before NumPy loads, runs the workload on
the sources under src/, prints a readable report and, as its last line, one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  Records go to
perfbench/out/.  Without the library sources it exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOADS = ("ladder-detailed", "ladder-reduced", "google-das")
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="hestoncal calibration benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0, help="nominal run length; sizes the sweep")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "hestoncal" / "__init__.py").is_file():
        print(f"error: no hestoncal sources under {root / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # before NumPy loads: one BLAS/OpenMP thread, never more than nproc
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # the checkout root instead of this directory, so that modules resolve as
    # perfbench.* and hestoncal from src/
    sys.path[0:1] = [str(root / "src"), str(root)]
    from perfbench import bench
    from perfbench.workloads import BenchmarkError

    threads = {var: os.environ[var] for var in BLAS_THREAD_VARS}
    try:
        lines, result = bench.execute(args.workload, args.seed, args.seconds, bool(args.trace), root, threads)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
