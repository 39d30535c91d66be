"""One benchmark run: instrument, run a workload, check, summarize, record."""

from __future__ import annotations

import json
import os
import platform
import resource
from pathlib import Path

import numpy as np
import scipy

from . import stats, tracing, workloads
from .workloads import BenchmarkError

#: Every end-to-end metric a run reports: (name, unit).  None marks a metric
#: that does not apply to the workload.
END_TO_END = (
    ("setup_s", "s"),
    ("prep_s", "s"),
    ("offline_s", "s"),
    ("deam_s", "s"),
    ("calib_s", "s"),
    ("calib_evals", "count"),
    ("calib_eval_ms", "ms"),
    ("eval_p50_ms", "ms"),
    ("eval_tail_ms", "ms"),
    ("theta_err", "norm"),
    ("fit_rmse", "price"),
    ("price_err_max", "price"),
    ("fail_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)
#: The end-to-end metrics of the last output line (BENCHMARK.json's
#: end_to_end): defined on every workload and steady from seed to seed.
GATED = ("setup_s", "prep_s", "eval_p50_ms", "peak_rss_mb")


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int, sizes: dict, threads: dict) -> dict:
    return {
        "git_sha": git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": threads,
        "machine": platform.machine(),
        "seed": seed,
        "sizes": sizes,
    }


def completeness_problems(run: workloads.Run, agg: dict) -> list[str]:
    """The traced run's counts must agree with what the benchmark did."""

    def calls(name: str) -> int:
        return agg.get(name, {}).get("calls", 0)

    problems = []
    expected = run.values["calib_evals"] + run.expected_price_vector_calls
    if calls("calibration.price_vector") != expected:
        problems.append(
            f"calibration.price_vector traced {calls('calibration.price_vector')} times, "
            f"the run made {expected} evaluations"
        )
    steps = run.layer_context["steps"]
    if run.workload == "ladder-detailed" and calls("solvers.splu") < calls("solvers.solve_american") * steps:
        problems.append(
            f"{calls('solvers.splu')} splu calls for {calls('solvers.solve_american')} solves of {steps} steps"
        )
    uses, unused = workloads.USES[run.workload]
    problems += [f"{n} was never traced" for n in uses if calls(n) == 0]
    problems += [
        f"{n} was traced {calls(n)} times" for n in unused + workloads.NEVER_CALLED if calls(n)
    ]
    return problems


def execute(
    workload: str, seed: int, seconds: float, trace: bool, root: Path, threads: dict
) -> tuple[list[str], dict]:
    """Run one workload; returns the report lines and the result object.

    `threads` is the thread-pool setting the launcher pinned, for the record.
    """
    tracer = tracing.Tracer() if trace else None
    counter = workloads.EvalCounter()
    sizes = workloads.SIZES[workload]
    probe = workloads.SpeedProbe()
    run = workloads.Run(workload, seed, seconds, tracer, workloads.Ops(tracer), counter, sizes, probe)
    try:
        if tracer is not None:
            tracer.install()
        else:  # spans would time the probes; traced timings stay as measured
            probe.start()
        counter.install()
        workloads.WORKLOADS[workload](run)
    finally:
        counter.uninstall()
        probe.stop()
        if tracer is not None:
            tracer.uninstall()

    workloads.finish_timings(run)
    ops = run.ops
    run.values["fail_ratio"] = stats.fail_ratio(ops.failed, ops.attempted)["value"]
    run.values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    table = {name: {"value": run.values.get(name), "unit": unit} for name, unit in END_TO_END}
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(root, seed, sizes, threads),
        "end_to_end": table,
        "fail_ratio_base": {
            "failed": ops.failed,
            "attempted": ops.attempted,
            "operations": "preparation, market and reference pricing, calibration, sweep evaluations",
        },
        "failures": ops.failures,
        "digest": run.digest.hexdigest(),
        **run.info,
    }
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}_seed{seed}_trace{int(trace)}"

    if tracer is not None:
        agg = tracing.aggregate(tracer.spans)
        problems = completeness_problems(run, agg)
        layers = tracing.layer_metrics(tracer.spans, run.layer_context)
        record["per_layer"] = layers
        record["trace_completeness"] = problems or "ok"
        tracer.write(out_dir / f"spans_{stem}.jsonl")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in tracing.LAYER_METRICS}
    else:
        missing = [n for n in GATED if run.values.get(n) is None]
        if missing:
            raise BenchmarkError(f"no value for {', '.join(missing)}")
        metrics = {name: table[name] for name in GATED}

    record_path = out_dir / f"BENCH_{stem}.json"
    record_path.write_text(json.dumps(record, indent=1, default=_jsonable) + "\n")
    if tracer is not None and problems:
        raise BenchmarkError("trace completeness check failed: " + "; ".join(problems))

    lines = [f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}"]
    for name, unit in END_TO_END:
        value = table[name]["value"]
        lines.append(f"  {name:<16} {'n/a' if value is None else f'{value:.6g}':>14} {unit}")
    tail = run.info.get("eval_tail", {})
    lines.append(f"  eval_tail        {json.dumps(tail)}")
    lines.append(f"  fail_ratio base  {ops.failed} failed / {ops.attempted} attempted operations")
    for f in ops.failures:
        lines.append(f"  failed {f['op']}: {f['type']}: {f['message'][:160]}")
    lines.append(f"  digest           {run.digest.hexdigest()}")
    if tracer is not None:
        lines.append(f"  tracing overhead {layers['trace.overhead_ratio']:.4f}x over {layers['trace.spans']:.0f} spans")
    lines.append(f"  record           {record_path.relative_to(root)}")
    result = {
        "correct": ops.violations == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    return lines, result


def _jsonable(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")

