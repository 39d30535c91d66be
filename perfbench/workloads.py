"""The benchmark's workloads: one calibration route each, driven through
hestoncal's public API from one process, one operation at a time.

Every workload runs a one-off preparation, one Levenberg-Marquardt
calibration and a pricing sweep (one `price_vector` call at each of a set of
parameter vectors drawn from the seed over a box around the workload's
reference parameters).  Each operation is counted as attempted and as ok or
failed; an exception or a violated output check makes it fail, and the
failure is kept with its type and message.
"""

from __future__ import annotations

import hashlib
import math
import signal
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from hestoncal import calibration, mesh, quotes, rbm, solvers, trees
from hestoncal.params import DEFAULT_CALIB_BOX, DEFAULT_PARAM_BOX

from . import stats, tracing

#: The acceptance suite's synthetic parameter vector; ladder draws centre on it.
THETA_REF = np.array([0.7, -0.8, 0.3, 1.4, 0.3])
RATE = 0.05
HORIZON = 2.0
SETUP_LATER = 14
PREP_REPEATS = 9
#: calibrate_reduced_refined's default localization half-widths.
HALF_WIDTHS = (0.25, 0.15, 0.10, 1.0)

#: Speed probe: seconds between probes, the margin around a stretch of time
#: whose probes normalize it, and the probe's nominal time.
PROBE_INTERVAL = 0.1
PROBE_MARGIN = 0.12
PROBE_NOMINAL = 0.0025

# independent random streams drawn from one seed
STREAM_THETA, STREAM_SWEEP, STREAM_SUBSET = 1, 2, 3

SIZES = {
    "ladder-detailed": {
        "mesh": 33, "steps": 125, "theta_spread": 0.02, "x0_spread": 0.02,
        "lm_max_iter": 1, "sweep_per_second": 0.8, "sweep_min": 8, "overhead_points": 3,
    },
    "ladder-reduced": {
        "mesh": 17, "steps": 48, "theta_spread": 0.02, "x0_spread": 0.02,
        "lm_max_iter": 10, "train_counts": (2, 2, 2, 2, 1), "n_max": 20, "n_refine": 1,
        "sweep_per_second": 30.0, "sweep_min": 20, "overhead_points": 20,
    },
    "google-das": {
        "strikes_per_maturity": 10, "tree_steps": 500, "lm_max_iter": 10,
        "sweep_per_second": 3.0, "sweep_min": 20, "overhead_points": 10,
    },
}

#: Span names each workload must call (and must not call): the trace
#: completeness check fails the traced run when a count disagrees.
_FEM = (
    "mesh.assemble_blocks", "mesh.evaluate_p1", "mesh.evaluation_row",
    "heston_operator.assemble_operator", "heston_operator.lift_and_rhs",
    "solvers.solve_american", "solvers.splu", "solvers.price_at", "quotes.generate_synthetic",
)
_LM = ("calibration.price_vector", "calibration.optimize", "calibration.fd_jacobian", "calibration.calibrate")
_RBM = ("rbm.pod_greedy", "rbm.supremizer", "rbm.angle_to_space", "rbm.gram_orthonormalize",
        "rbm.pod1", "rbm.solve_reduced", "calibration.calibrate_reduced_refined")
_DAS = ("trees.crr_price", "trees.invert_volatility", "trees.deamericanize_set",
        "closed_form.heston_put_cf", "closed_form.heston_cf",
        "quotes.load_google_quotes", "quotes.preprocess_quotes")
USES = {  # workload: (must call, must not call)
    "ladder-detailed": (_FEM + _LM, _RBM + _DAS),
    "ladder-reduced": (_FEM + _LM + _RBM, _DAS),
    "google-das": (_DAS + _LM, _FEM + _RBM),
}
NEVER_CALLED = ("solvers.solve_european",)


class BenchmarkError(RuntimeError):
    """The workload cannot produce its metrics; the run reports no result."""


# ---------------------------------------------------------------------------
# operations, checks and the determinism digest


class SpeedProbe:
    """The machine's momentary speed, read from fixed kernels the benchmark owns.

    A shared machine switches between faster and slower states several
    times a second, by tens of percent, and CPU time moves with wall time.
    While running, a SIGALRM timer interrupts the work every PROBE_INTERVAL
    seconds to time three kernels: an interpreter loop, small-array NumPy
    arithmetic, and small objects and arrays made and dropped.  Kinds of
    code slow down by different amounts, and the library mixes all three,
    so a probe's time is the geometric mean of the three.  `normalized`
    turns a timed interval into the time it would have taken at the nominal
    speed: the probes inside it are cut out, and each remaining stretch is
    scaled by PROBE_NOMINAL over the median time of the probes at its ends.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.uniform(-1.0, 1.0, (48, 48)) / 48.0
        self._v = np.ones(48)
        self.samples: list[tuple] = []  # (start, end, kernel seconds...)
        self._previous_handler = None

    def _interp(self) -> float:
        s = 0.0
        for i in range(20000):
            s += (i * 0.5) % 7.0
        return s

    def _numpy(self) -> float:
        x = self._v
        for _ in range(400):
            x = np.tanh(self._a @ x) + 0.1 * x
        return float(x[0])

    def _objects(self) -> float:
        acc = 0.0
        block = self._a[:8, :8]
        for i in range(600):
            w = np.zeros(8)
            w[i % 8] = 1.0
            acc += float(block @ w @ w)
        return acc

    def probe(self, *_signal_args) -> None:
        marks = [perf_counter()]
        for kernel in (self._interp, self._numpy, self._objects):
            kernel()
            marks.append(perf_counter())
        self.samples.append((marks[0], marks[-1], *np.diff(marks)))

    def start(self) -> None:
        self.probe()  # the first call of each kernel runs cold: discarded
        self.samples.clear()
        self._previous_handler = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)

    def stop(self) -> None:
        if self._previous_handler is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None
            self.probe()

    def factor(self, t0: float, t1: float) -> float:
        """Nominal over measured probe time around [t0, t1]; 1 without probes."""
        if not self.samples:
            return 1.0
        near = [s for s in self.samples if s[1] >= t0 - PROBE_MARGIN and s[0] <= t1 + PROBE_MARGIN]
        return PROBE_NOMINAL / float(np.median([math.prod(s[2:]) ** (1 / 3) for s in near or self.samples]))

    def _stretches(self, interval: tuple[float, float]) -> list[tuple[float, float]]:
        """The parts of the interval that no probe interrupted."""
        t0, t1 = interval
        edges = [t0]
        for start, end, *_ in self.samples:
            if t0 <= start and end <= t1:
                edges += [start, end]
        edges.append(t1)
        return list(zip(edges[::2], edges[1::2]))

    def measured(self, interval: tuple[float, float]) -> float:
        """Seconds of the interval spent outside probes."""
        return sum(b - a for a, b in self._stretches(interval))

    def normalized(self, interval: tuple[float, float]) -> float:
        return sum((b - a) * self.factor(a, b) for a, b in self._stretches(interval))


class Ops:
    """Counts operations as attempted and failed, keeping why each failed."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[dict] = []
        self.violations = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def run(self, name: str, fn, check=None):
        """Run one operation; returns (value, (start, end), ok).

        The output check runs outside the timed interval.  A failed
        operation's value is None when it raised.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = name
        t0 = perf_counter()
        try:
            value = fn()
        except Exception as exc:  # the operation failed; the run goes on
            interval = (t0, perf_counter())
            self.failures.append({"op": name, "type": type(exc).__name__, "message": str(exc)[:500]})
            return None, interval, False
        interval = (t0, perf_counter())
        problems = check(value) if check is not None else []
        if problems:
            self.violations += 1
            self.failures.append({"op": name, "type": "CheckFailed", "message": "; ".join(problems)})
            return value, interval, False
        return value, interval, True


def put_bound_problems(prices, quote_list, S0: float, r: float, style: str) -> list[str]:
    """Finite prices within the put no-arbitrage bounds.

    American: max(K - S0, 0) <= P <= K.  European: max(K e^{-rT} - S0, 0)
    <= P <= K e^{-rT}, since a European put may trade below K - S0.
    """
    p = np.asarray(prices, dtype=float)
    K = np.array([q.strike for q in quote_list])
    if p.shape != K.shape:
        return [f"price vector of shape {p.shape} for {K.size} quotes"]
    if style == "american":
        lo, hi = np.maximum(K - S0, 0.0), K
    else:
        disc_K = K * np.exp(-r * np.array([q.maturity for q in quote_list]))
        lo, hi = np.maximum(disc_K - S0, 0.0), disc_K
    problems = []
    finite = np.isfinite(p)
    if not finite.all():
        problems.append(f"{int((~finite).sum())} non-finite prices")
    below = finite & (p < lo)
    above = finite & (p > hi)
    if below.any():
        i = int(np.argmax(np.where(below, lo - p, -np.inf)))
        problems.append(f"{int(below.sum())} prices below the lower bound (worst K={K[i]}: {p[i]!r} < {lo[i]!r})")
    if above.any():
        i = int(np.argmax(np.where(above, p - hi, -np.inf)))
        problems.append(f"{int(above.sum())} prices above the upper bound (worst K={K[i]}: {p[i]!r} > {hi[i]!r})")
    return problems


def report_problems(report, quote_set, style: str, box, evals: int | None = None) -> list[str]:
    """theta* in its box, priced residual vector within bounds, J* finite and,
    when the benchmark counted them, LM's evaluation count (plus the final
    objective evaluation of `calibrate`) equal to the backend calls seen."""
    problems = []
    if not box.contains(report.theta_star):
        problems.append(f"theta* {report.theta_star.tolist()} outside its box")
    if not np.isfinite(report.J_star):
        problems.append(f"J* = {report.J_star}")
    problems += put_bound_problems(report.model_prices, quote_set.quotes, quote_set.S0, quote_set.r, style)
    if evals is not None and report.n_evals + 1 != evals:
        problems.append(f"report counts {report.n_evals} + 1 evaluations, the backend saw {evals}")
    return problems


class Digest:
    """SHA-256 over the run's deterministic outputs, in the order produced."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, label: str, value=None) -> None:
        self._h.update(label.encode())
        if value is not None:
            self._h.update(np.ascontiguousarray(value, dtype=float).tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


@dataclass
class CountingBackend:
    """Pass-through backend that counts price_vector calls."""

    inner: object
    counter: "EvalCounter"

    @property
    def variant(self) -> str:
        return self.inner.variant

    def price_vector(self, theta, quote_list, S0, r):
        self.counter.calls += 1
        return self.inner.price_vector(theta, quote_list, S0, r)


class EvalCounter:
    """Counts every evaluation any `calibration.calibrate` call makes.

    `calibrate` is replaced in hestoncal.calibration, where both the
    benchmark and `calibrate_reduced_refined` look it up, by a shim handing
    the original a CountingBackend.
    """

    def __init__(self):
        self.calls = 0
        self._original = None

    def install(self) -> None:
        self._original = original = calibration.calibrate

        def counted(quote_set, backend, *args, **kwargs):
            return original(quote_set, CountingBackend(backend, self), *args, **kwargs)

        calibration.calibrate = counted

    def uninstall(self) -> None:
        if self._original is not None:
            calibration.calibrate = self._original
            self._original = None


class BuildTimer:
    """Records the (start, end) interval of every reduced-basis build.

    `pod_angle_greedy_american` is replaced in hestoncal.rbm, where
    `calibrate_reduced_refined` looks it up each time it runs, by a shim
    that times the original.
    """

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []
        self._original = None

    def install(self) -> None:
        self._original = original = rbm.pod_angle_greedy_american

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.intervals.append((t0, perf_counter()))

        rbm.pod_angle_greedy_american = timed

    def uninstall(self) -> None:
        if self._original is not None:
            rbm.pod_angle_greedy_american = self._original
            self._original = None


# ---------------------------------------------------------------------------
# one run


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    tracer: tracing.Tracer | None
    ops: Ops
    counter: EvalCounter
    sizes: dict
    probe: SpeedProbe
    digest: Digest = field(default_factory=Digest)
    # timed intervals (start, end) by role; prep_s adds the prep intervals,
    # the builds inside the calibration interval (prep_in_calib, taken out of
    # calib_s) and the median of the prep_repeats (one preparation done
    # several times)
    timed: dict = field(
        default_factory=lambda: {
            "setup": [], "prep": [], "prep_in_calib": [], "prep_repeats": [], "calib": [], "sweep": []
        }
    )
    rebuild: object = None  # the set-up, repeated during the sweep
    values: dict = field(default_factory=dict)  # the end-to-end table
    info: dict = field(default_factory=dict)  # what else the run records
    layer_context: dict = field(default_factory=dict)
    expected_price_vector_calls: int = 0  # outside the calibrations

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def sweep_size(self) -> int:
        return max(self.sizes["sweep_min"], round(self.sizes["sweep_per_second"] * self.seconds))


def latin_hypercube(rng: np.random.Generator, n: int, box) -> np.ndarray:
    """n points of a Latin hypercube over the box, one per stratum and axis."""
    dim = box.lo.size
    strata = rng.permuted(np.tile(np.arange(n), (dim, 1)), axis=1).T
    u = (strata + rng.uniform(size=(n, dim))) / n
    return box.lo + u * (box.hi - box.lo)


def ladder_draws(run: Run) -> tuple[np.ndarray, np.ndarray]:
    """theta_ex near the reference vector and x0 near theta_ex, both in the box."""
    rng = run.rng(STREAM_THETA)
    box = DEFAULT_CALIB_BOX
    theta_ex = np.clip(THETA_REF * (1.0 + run.sizes["theta_spread"] * rng.uniform(-1, 1, 5)), box.lo, box.hi)
    x0 = np.clip(theta_ex * (1.0 + run.sizes["x0_spread"] * rng.uniform(-1, 1, 5)), box.lo, box.hi)
    return theta_ex, x0


def timed_setup(run: Run, build):
    """Build once for use and record the time; `sweep` builds SETUP_LATER
    more times, spread over the run, and setup_s is the median."""
    t0 = perf_counter()
    result = build()
    run.timed["setup"].append((t0, perf_counter()))
    run.rebuild = build
    return result


def _setup_again(run: Run) -> None:
    t0 = perf_counter()
    run.rebuild()
    run.timed["setup"].append((t0, perf_counter()))


def calibrate_op(run: Run, name: str, fn, check) -> tuple:
    """Run one calibration operation; records its interval, calib_evals and status."""
    before = run.counter.calls
    report, interval, ok = run.ops.run(name, fn, check=lambda rep: check(rep, run.counter.calls - before))
    run.values["calib_evals"] = run.counter.calls - before
    run.timed["calib"].append(interval)
    run.info["lm_status"] = "failed: " + run.ops.failures[-1]["type"] if report is None else None
    return report, ok


def outside(interval: tuple[float, float], holes) -> list[tuple[float, float]]:
    """The parts of the interval outside the holes, which are disjoint and
    lie inside it."""
    t0, t1 = interval
    parts = []
    for a, b in sorted(holes):
        parts.append((t0, a))
        t0 = b
    parts.append((t0, t1))
    return parts


def finish_timings(run: Run) -> None:
    """The timed end-to-end metrics from the recorded intervals: normalized to
    the probe's nominal speed in `values`, as measured in info["raw"]."""
    if not run.timed["sweep"]:
        raise BenchmarkError("no sweep evaluation returned")
    raw: dict = {}
    (calib,) = run.timed["calib"]
    builds = run.timed["prep_in_calib"]
    for table, seconds in ((run.values, run.probe.normalized), (raw, run.probe.measured)):
        table["setup_s"] = float(np.median([seconds(iv) for iv in run.timed["setup"]]))
        repeats = [seconds(iv) for iv in run.timed["prep_repeats"]]
        table["prep_s"] = sum(seconds(iv) for iv in run.timed["prep"] + builds)
        table["prep_s"] += float(np.median(repeats)) if repeats else 0.0
        table["calib_s"] = sum(seconds(iv) for iv in outside(calib, builds))
        evals = run.values["calib_evals"]
        table["calib_eval_ms"] = 1e3 * table["calib_s"] / evals if evals else None
        sweep_s = [seconds(iv) for iv in run.timed["sweep"]]
        table["eval_p50_ms"] = 1e3 * float(np.median(sweep_s))
        tail = stats.tail(sweep_s)
        table["eval_tail_ms"] = None if tail is None else 1e3 * tail["value"]
        if table is run.values:
            run.info["eval_tail"] = tail or {"samples": len(sweep_s), "note": "too few samples for a tail"}
        alias = {"ladder-reduced": "offline_s", "google-das": "deam_s"}.get(run.workload)
        if alias:
            table[alias] = table["prep_s"]
    run.info["raw"] = raw
    run.info["probes"] = run.probe.samples
    run.info["timed"] = run.timed


def record_calibration(run: Run, report, theta_ex=None) -> None:
    """theta*, J*, status and the priced vector at theta* into the record."""
    if report is None:
        run.digest.add(f"calibration:{run.info['lm_status']}:{run.values['calib_evals']}")
        return
    run.info["lm_status"] = report.status
    run.info["theta_star"] = report.theta_star.tolist()
    run.info["lm_iterations"] = report.iterations
    run.values["fit_rmse"] = float(np.sqrt(report.J_star))
    if theta_ex is not None:
        run.values["theta_err"] = float(np.linalg.norm(report.theta_star - theta_ex))
    run.digest.add(f"calibration:{report.status}:{run.values['calib_evals']}", report.theta_star)
    run.digest.add("calibration-prices", report.model_prices)


def local_box(center):
    """calibrate_reduced_refined's first-round box around `center`, with nu0
    over the whole calibration range; the sweep draws from it."""
    return calibration.localized_box(center, HALF_WIDTHS, DEFAULT_PARAM_BOX, DEFAULT_CALIB_BOX)


def sweep(run: Run, backend, quote_set, style: str, box, interleave=()) -> None:
    """One price_vector call per Latin-hypercube point of `box`.

    Latency percentiles cover every evaluation that returned, including
    those that failed their output check, so that the timed points do not
    depend on round-off; an evaluation that raised is not timed.  Both kinds
    of failure count in fail_ratio.  A traced run prices its first few points twice, with
    tracing off and then on, and reports the median traced/untraced time
    ratio of those pairs as the tracing overhead.  The set-up is repeated
    SETUP_LATER times, and each (count, task) of `interleave` runs count
    times, evenly spread between the sweep points, so that their medians
    sample the whole run.
    """
    n = run.sweep_size()
    thetas = latin_hypercube(run.rng(STREAM_SWEEP), n, box)
    run.info["sweep_size"] = n
    run.info["sweep_box"] = {"lo": box.lo.tolist(), "hi": box.hi.tolist()}
    run.info["sweep_ok"] = 0
    run.expected_price_vector_calls += n

    def price(theta):
        return backend.price_vector(theta, quote_set.quotes, quote_set.S0, quote_set.r)

    def check(p):
        return put_bound_problems(p, quote_set.quotes, quote_set.S0, quote_set.r, style)

    k = min(n, run.sizes["overhead_points"]) if run.tracer is not None else 0
    ratios = []
    tasks = [(SETUP_LATER, lambda: _setup_again(run)), *interleave]
    for i, theta in enumerate(thetas):
        for count, task in tasks:
            # ceil(count * i / n) rises by count in all over the n points
            for _ in range(-(-count * (i + 1) // n) - -(-count * i // n)):
                task()
        plain = _untraced_seconds(run.tracer, price, theta) if i < k else None
        prices, interval, ok = run.ops.run(f"sweep.{i}", lambda: price(theta), check=check)
        run.digest.add(f"sweep.{i}:{ok}", prices)
        if ok:
            run.info["sweep_ok"] += 1
        if prices is not None:
            run.timed["sweep"].append(interval)
            if plain:
                ratios.append((interval[1] - interval[0]) / plain)
    run.info["sweep_timed"] = len(run.timed["sweep"])
    if ratios:
        run.layer_context["overhead_ratio"] = float(np.median(ratios))


def _untraced_seconds(tracer, price, theta) -> float | None:
    """Wall time of one evaluation with tracing switched off; None if it raised
    (the traced evaluation that follows counts the failure)."""
    tracer.enabled = False
    try:
        t0 = perf_counter()
        price(theta)
        return perf_counter() - t0
    except Exception:
        return None
    finally:
        tracer.enabled = True


def require(value, what: str):
    """Stop the workload when an operation it depends on raised.  A value
    that only failed its output check is used on; the failure is counted."""
    if value is None:
        raise BenchmarkError(f"{what} raised, so the workload cannot go on")
    return value


# ---------------------------------------------------------------------------
# workloads


def ladder_detailed(run: Run) -> None:
    """DetailedAm: synthetic 65-quote ladder, LM recovery, DetailedAm sweep."""
    sz = run.sizes
    space, blocks = timed_setup(run, lambda: _fem_setup(sz["mesh"]))
    grid = solvers.TimeGrid(HORIZON, sz["steps"])
    backend = calibration.PdeBackend("DetailedAm", space, blocks, grid)
    theta_ex, x0 = ladder_draws(run)
    run.info.update(theta_ex=theta_ex.tolist(), x0=x0.tolist())

    qs = _market(run, backend, theta_ex, "prep.market.0", role="prep_repeats")
    report, _ = calibrate_op(
        run, "calibrate",
        lambda: calibration.calibrate(qs, backend, DEFAULT_CALIB_BOX, x0=x0,
                                      options=calibration.OptimizerOptions(max_iter=sz["lm_max_iter"])),
        lambda rep, evals: report_problems(rep, qs, "american", DEFAULT_CALIB_BOX, evals),
    )
    record_calibration(run, report, theta_ex)
    # the preparation is one short solve: it is repeated between sweep points
    # so that prep_s, their median, samples the whole run
    repeats = iter(range(1, PREP_REPEATS))
    sweep(run, backend, qs, "american", local_box(theta_ex), interleave=[
        (PREP_REPEATS - 1, lambda: _market(run, backend, theta_ex, f"prep.market.{next(repeats)}", "prep_repeats")),
    ])
    run.layer_context["steps"] = grid.I


def ladder_reduced(run: Run) -> None:
    """ReducedAm: pilot basis offline, two-stage reduced calibration,
    DetailedAm accuracy reference at theta*, ReducedAm sweep."""
    sz = run.sizes
    space, blocks = timed_setup(run, lambda: _fem_setup(sz["mesh"]))
    grid = solvers.TimeGrid(HORIZON, sz["steps"])
    detailed = calibration.PdeBackend("DetailedAm", space, blocks, grid)
    theta_ex, x0 = ladder_draws(run)
    run.info.update(theta_ex=theta_ex.tolist(), x0=x0.tolist())
    qs = _market(run, detailed, theta_ex, "market", role=None)

    greedy = rbm.GreedyConfig(n_max=sz["n_max"])
    pilot, interval, _ = run.ops.run(
        "prep.pilot_basis",
        lambda: rbm.pod_angle_greedy_american(
            rbm.make_training_grid(DEFAULT_PARAM_BOX, sz["train_counts"], RATE), space, blocks, grid, greedy
        ),
        check=_model_problems,
    )
    require(pilot, "the pilot basis build")
    run.timed["prep"].append(interval)
    run.digest.add("pilot", pilot.psi)

    # the refinement builds inside the call are offline work, not LM time
    builds = BuildTimer()
    builds.install()
    try:
        result, _ = calibrate_op(
            run, "calibrate",
            lambda: calibration.calibrate_reduced_refined(
                qs, pilot, space, blocks, grid, DEFAULT_CALIB_BOX, DEFAULT_PARAM_BOX,
                half_widths=HALF_WIDTHS, train_counts=sz["train_counts"], greedy_config=greedy, x0=x0,
                options=calibration.OptimizerOptions(max_iter=sz["lm_max_iter"]), n_refine=sz["n_refine"],
            ),
            lambda res, evals: _refined_problems(res, qs, evals),
        )
    finally:
        builds.uninstall()
    run.timed["prep_in_calib"] = builds.intervals
    report = None
    if result is not None:
        if len(builds.intervals) != sz["n_refine"]:
            raise BenchmarkError(
                f"timed {len(builds.intervals)} refinement builds, the calibration ran {sz['n_refine']}"
            )
        report, refined, pilot_report = result
        run.info.update(refined_dim=refined.dim, refined_dual_dim=refined.n_dual,
                        pilot_theta=pilot_report.theta_star.tolist(), pilot_status=pilot_report.status)
    record_calibration(run, report, theta_ex)

    if report is not None:
        run.expected_price_vector_calls += 1
        ref, interval, ok = run.ops.run(
            "reference",
            lambda: detailed.price_vector(report.theta_star, qs.quotes, qs.S0, qs.r),
            check=lambda p: put_bound_problems(p, qs.quotes, qs.S0, qs.r, "american"),
        )
        run.digest.add(f"reference:{ok}", ref)
        if ok:
            run.values["price_err_max"] = float(np.max(np.abs(report.model_prices - ref)))
            run.info["reference_solve_s"] = interval[1] - interval[0]

    sweep(run, calibration.ReducedBackend("ReducedAm", pilot), qs, "american", local_box(theta_ex))
    run.info.update(pilot_dim=pilot.dim, pilot_dual_dim=pilot.n_dual)
    run.layer_context.update(
        steps=grid.I, basis_dim=pilot.dim, dual_dim=pilot.n_dual, final_train_err=pilot.errors[-1]
    )


def google_das(run: Run) -> None:
    """De-Americanize a seeded subset of the bundled Google puts (one
    deamericanize_set call per maturity), calibrate the closed form from the
    box midpoint, closed-form sweep around that start."""
    sz = run.sizes

    def setup():
        pre = quotes.preprocess_quotes(quotes.load_google_quotes())
        return pre, _strike_subset(pre, sz["strikes_per_maturity"], run.rng(STREAM_SUBSET))

    pre, subset = timed_setup(run, setup)
    run.info["quotes_after_preprocess"] = len(pre)
    run.info["subset_size"] = len(subset)
    run.info["strikes_per_maturity"] = {
        repr(T): sum(1 for q in subset if q.maturity == T) for T in pre.maturities()
    }
    config = trees.TreeConfig(steps=sz["tree_steps"])
    pseudo = []
    for T in pre.maturities():
        group = [q for q in subset if q.maturity == T]
        part, interval, _ = run.ops.run(
            f"prep.deamericanize.T={T:g}",
            lambda: trees.deamericanize_set(group, pre.S0, pre.r, config),
            check=lambda ps: _pseudo_problems(ps, pre.S0, pre.r),
        )
        pseudo += require(part, "de-Americanization")
        run.timed["prep"].append(interval)
    run.digest.add("pseudo", [p.pseudo_price for p in pseudo])
    run.layer_context.update(quotes_deamericanized=len(subset), trees_dropped=len(subset) - len(pseudo))
    qs = quotes.QuoteSet(
        tuple(quotes.Quote(p.maturity, p.strike, "european", price=p.pseudo_price) for p in pseudo),
        pre.S0, pre.r,
    )
    backend = calibration.ClosedFormBackend()
    report, _ = calibrate_op(
        run, "calibrate",
        lambda: calibration.calibrate(qs, backend, DEFAULT_CALIB_BOX,
                                      options=calibration.OptimizerOptions(max_iter=sz["lm_max_iter"])),
        lambda rep, evals: report_problems(rep, qs, "european", DEFAULT_CALIB_BOX, evals),
    )
    record_calibration(run, report)
    sweep(run, backend, qs, "european", local_box(DEFAULT_CALIB_BOX.midpoint()))
    run.layer_context["steps"] = 0


WORKLOADS = {"ladder-detailed": ladder_detailed, "ladder-reduced": ladder_reduced, "google-das": google_das}


# ---------------------------------------------------------------------------
# helpers


def _fem_setup(n: int):
    space = mesh.build_mesh(mesh.Domain2D(), n, n)
    return space, mesh.assemble_blocks(space)


def _market(run: Run, backend, theta_ex, name: str, role: str | None):
    """Synthetic American ladder priced at theta_ex by the DetailedAm backend;
    its interval is timed under `role` when given."""
    run.expected_price_vector_calls += 1
    qs, interval, _ = run.ops.run(
        name,
        lambda: quotes.generate_synthetic(theta_ex, RATE, "american", backend.price_vector),
        check=lambda q: put_bound_problems(q.prices(), q.quotes, q.S0, q.r, "american"),
    )
    require(qs, "the synthetic market")
    if role is not None:
        run.timed[role].append(interval)
    run.info["market_s"] = interval[1] - interval[0]
    run.digest.add("market", qs.prices())
    return qs


def _model_problems(model) -> list[str]:
    problems = []
    if model.dim < 1 or model.n_dual < 1:
        problems.append(f"basis of dimension {model.dim}/{model.n_dual}")
    if not (np.all(np.isfinite(model.psi)) and np.all(np.isfinite(model.errors))):
        problems.append("non-finite basis or training errors")
    return problems


def _refined_problems(result, qs, evals: int) -> list[str]:
    """Checks of calibrate_reduced_refined's output: theta* within the
    localized box of the last round, and both reports' evaluation counts."""
    report, refined, pilot_report = result
    problems = report_problems(report, qs, "american", local_box(pilot_report.theta_star))
    problems += _model_problems(refined)
    lm_evals = pilot_report.n_evals + 1 + report.n_evals + 1
    if lm_evals != evals:
        problems.append(f"reports count {lm_evals} evaluations, the backends saw {evals}")
    return problems


def _pseudo_problems(pseudo, S0: float, r: float) -> list[str]:
    """Every pseudo-European price finite, within the European put bounds and
    no larger than the American quote it came from."""
    prices = np.array([p.pseudo_price for p in pseudo])
    problems = put_bound_problems(prices, pseudo, S0, r, "european")
    above = [p for p in pseudo if not p.pseudo_price <= p.observed_price]
    if above:
        problems.append(f"{len(above)} pseudo prices above their American quote, e.g. {above[0]}")
    return problems


def _strike_subset(pre, per_maturity: int, rng: np.random.Generator) -> list:
    """Per maturity, every k-th strike of the sorted ladder from a seeded
    offset, k = ladder length // per_maturity: the subset spans each ladder
    evenly, and every maturity is kept."""
    subset = []
    for T in pre.maturities():
        ladder = sorted((q for q in pre if q.maturity == T), key=lambda q: q.strike)
        step = max(1, len(ladder) // per_maturity)
        start = int(rng.integers(step))
        subset += ladder[start::step][:per_maturity]
    return subset
