"""Run-to-run steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py --workload google-das --seeds 1 2 3 4 5

Runs perfbench/run.py once per seed, one run at a time, and prints for each
end-to-end metric of BENCHMARK.json its median and its spread: the distance
between the first and third quartile of the runs as a share of the median
(statistics.quantiles with n=4), next to a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import spread  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} correct {result['correct']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        s = spread(xs) if len(xs) >= 2 else float("nan")
        print(f"{m['name']:<16} median {statistics.median(xs):<12.6g} spread {s:.4f}  bound/3 {m['bound'] / 3:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
