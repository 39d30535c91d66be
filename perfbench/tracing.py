"""Span tracing around the public functions of hestoncal's modules.

Each target is wrapped where it is looked up: a module function is replaced
in every hestoncal module that holds it (``solve_american`` is bound in
``solvers``, ``rbm`` and ``calibration``), a backend method on its class,
and ``splu`` on ``scipy.sparse.linalg``, through which the solvers reach it.
Spans are kept in memory as [name, start, end, parent, op, failed] and
written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

#: (module, public functions) wrapped in every hestoncal module binding them.
FUNCTIONS = (
    ("mesh", ("assemble_blocks", "evaluate_p1", "evaluation_row")),
    ("heston_operator", ("assemble_operator", "lift_and_rhs")),
    ("solvers", ("solve_american", "solve_european", "price_at", "psor_step")),
    (
        "rbm",
        ("pod_greedy", "supremizer", "angle_to_space", "gram_orthonormalize", "pod1", "solve_reduced"),
    ),
    ("trees", ("crr_price", "invert_volatility", "deamericanize_set")),
    ("closed_form", ("heston_put_cf", "heston_cf")),
    ("calibration", ("optimize", "fd_jacobian", "calibrate", "calibrate_reduced_refined")),
    ("quotes", ("load_google_quotes", "preprocess_quotes", "generate_synthetic")),
)
#: Backend classes whose price_vector method is traced as calibration.price_vector.
BACKENDS = ("PdeBackend", "ReducedBackend", "ClosedFormBackend")
SPAN_NAMES = frozenset(
    [f"{mod}.{fn}" for mod, fns in FUNCTIONS for fn in fns]
    + ["calibration.price_vector", "solvers.splu"]
)

NAME, START, END, PARENT, OP, FAILED = range(6)


class Tracer:
    """In-memory span recorder; `op` labels the benchmark operation running."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = True
        self.op = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; `uninstall` restores the originals."""
        import scipy.sparse.linalg as spla

        import hestoncal.calibration  # noqa: F401  (loads every module below)
        import hestoncal.trees  # noqa: F401

        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("hestoncal.")]
        for mod_name, names in FUNCTIONS:
            home = sys.modules[f"hestoncal.{mod_name}"]
            for fname in names:
                original = getattr(home, fname)
                traced = self.wrap(f"{mod_name}.{fname}", original)
                bound = 0
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, traced)
                            bound += 1
                if bound == 0:
                    raise RuntimeError(f"{mod_name}.{fname} is bound nowhere")
        cal = sys.modules["hestoncal.calibration"]
        for cls_name in BACKENDS:
            cls = getattr(cal, cls_name)
            self._patch(cls, "price_vector", self.wrap("calibration.price_vector", cls.price_vector))
        self._patch(spla, "splu", self.wrap("solvers.splu", spla.splu))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                         "parent": s[PARENT], "op": s[OP], "failed": s[FAILED]}
                    )
                )
                fh.write("\n")


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover.

    Spans of one thread nest, so direct children never overlap and their
    durations add up to the covered part of the parent's interval.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def has_ancestor(spans, i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds and failures."""
    out: dict[str, dict] = {}
    for s, self_s in zip(spans, self_times(spans)):
        a = out.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "failures": 0})
        a["calls"] += 1
        a["s"] += s[END] - s[START]
        a["self_s"] += self_s
        a["failures"] += int(s[FAILED])
    return out


def lm_counts(spans) -> dict:
    """Iterations, evaluations and rejected trial steps of every LM run.

    Inside an `optimize` span the first direct price_vector call is the
    initial evaluation; each fd_jacobian call opens an iteration, and the
    direct calls after it are its trial steps.  Every trial but the last of
    an iteration is rejected; the last is accepted when another iteration
    follows, or when the run returned normally and stopped before the
    30-trial cap of a stalled iteration.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "calibration.optimize":
            children.setdefault(s[PARENT], []).append(i)
    iterations = evals = rejected = 0
    for opt, kids in children.items():
        trials: list[int] = []  # trial count per iteration
        for i in kids:
            name = spans[i][NAME]
            if name == "calibration.fd_jacobian":
                trials.append(0)
            elif name == "calibration.price_vector" and trials:
                trials[-1] += 1
        for n in trials[:-1]:
            rejected += n - 1
        if trials:
            last_ok = not spans[opt][FAILED] and 0 < trials[-1] < 30
            rejected += trials[-1] - int(last_ok)
        iterations += len(trials)
    for i, s in enumerate(spans):
        if s[NAME] == "calibration.price_vector" and has_ancestor(spans, i, "calibration.optimize"):
            evals += 1
    return {"iterations": iterations, "evals": evals, "rejected": rejected}


#: Per-layer metrics of a traced run: (name, unit, better).
LAYER_METRICS = (
    ("solvers.solve_american.calls", "count", "lower"),
    ("solvers.solve_american.self_s", "s", "lower"),
    ("solvers.splu.calls", "count", "lower"),
    ("solvers.splu.s", "s", "lower"),
    ("solvers.lu_per_step", "count", "lower"),
    ("solvers.psor_step.calls", "count", "lower"),
    ("solvers.price_at.calls", "count", "lower"),
    ("solvers.price_at.self_s", "s", "lower"),
    ("mesh.evaluate_p1.self_s", "s", "lower"),
    ("mesh.evaluation_row.calls", "count", "lower"),
    ("mesh.evaluation_row.self_s", "s", "lower"),
    ("heston_operator.assemble_operator.calls", "count", "lower"),
    ("heston_operator.assemble_operator.self_s", "s", "lower"),
    ("heston_operator.lift_and_rhs.calls", "count", "lower"),
    ("heston_operator.lift_and_rhs.self_s", "s", "lower"),
    ("rbm.pod_greedy.s", "s", "lower"),
    ("rbm.pod_greedy.self_s", "s", "lower"),
    ("rbm.pod_greedy.detailed_solves", "count", "lower"),
    ("rbm.pod_greedy.error_solves", "count", "lower"),
    ("rbm.supremizer.s", "s", "lower"),
    ("rbm.angle_to_space.s", "s", "lower"),
    ("rbm.gram_orthonormalize.s", "s", "lower"),
    ("rbm.pod1.s", "s", "lower"),
    ("rbm.solve_reduced.calls", "count", "lower"),
    ("rbm.solve_reduced.self_s", "s", "lower"),
    ("rbm.solve_reduced.failures", "count", "lower"),
    ("rbm.basis_dim", "count", "lower"),
    ("rbm.dual_dim", "count", "lower"),
    ("rbm.final_train_err", "price", "lower"),
    ("trees.crr_price.calls", "count", "lower"),
    ("trees.crr_price.s", "s", "lower"),
    ("trees.crr_per_quote", "count", "lower"),
    ("trees.invert_volatility.calls", "count", "lower"),
    ("trees.invert_volatility.s", "s", "lower"),
    ("trees.dropped", "count", "lower"),
    ("closed_form.heston_put_cf.calls", "count", "lower"),
    ("closed_form.heston_put_cf.s", "s", "lower"),
    ("closed_form.heston_cf.calls", "count", "lower"),
    ("closed_form.heston_cf.s", "s", "lower"),
    ("closed_form.cf_calls_per_eval", "count", "lower"),
    ("closed_form.failures", "count", "lower"),
    ("calibration.price_vector.calls", "count", "lower"),
    ("calibration.fd_jacobian.calls", "count", "lower"),
    ("calibration.fd_jacobian.s", "s", "lower"),
    ("calibration.lm_iterations", "count", "lower"),
    ("calibration.evals_per_iter", "count", "lower"),
    ("calibration.lm_rejected_trials", "count", "lower"),
    ("calibration.optimize.self_s", "s", "lower"),
    ("quotes.load_google_quotes.s", "s", "lower"),
    ("quotes.preprocess_quotes.s", "s", "lower"),
    ("quotes.generate_synthetic.s", "s", "lower"),
    ("mesh.assemble_blocks.s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, context: dict) -> dict[str, float]:
    """Every LAYER_METRICS value from the spans of one traced run.

    `context` holds what spans cannot show: steps (the time-step count I of
    the detailed solves), quotes_deamericanized, trees_dropped, basis_dim,
    dual_dim, final_train_err and overhead_ratio.
    """
    agg = aggregate(spans)

    def get(name: str, field: str) -> float:
        return agg.get(name, {}).get(field, 0)

    under_greedy = {"solvers.solve_american": 0, "rbm.solve_reduced": 0}
    for i, s in enumerate(spans):
        if s[NAME] in under_greedy and has_ancestor(spans, i, "rbm.pod_greedy"):
            under_greedy[s[NAME]] += 1
    lm = lm_counts(spans)
    # closed-form objective evaluations: price_vector spans pricing by heston_put_cf
    cf_evals = len({s[PARENT] for s in spans if s[NAME] == "closed_form.heston_put_cf"} - {-1})
    out = {}
    for name, _, _ in LAYER_METRICS:
        head, _, field = name.rpartition(".")
        if head in SPAN_NAMES and field in ("calls", "s", "self_s", "failures"):
            out[name] = float(get(head, field))
    out.update(
        {
            "solvers.lu_per_step": _ratio(
                get("solvers.splu", "calls"), get("solvers.solve_american", "calls") * context.get("steps", 0)
            ),
            "rbm.pod_greedy.detailed_solves": float(under_greedy["solvers.solve_american"]),
            "rbm.pod_greedy.error_solves": float(under_greedy["rbm.solve_reduced"]),
            "rbm.basis_dim": float(context.get("basis_dim", 0)),
            "rbm.dual_dim": float(context.get("dual_dim", 0)),
            "rbm.final_train_err": float(context.get("final_train_err", 0.0)),
            "trees.crr_per_quote": _ratio(get("trees.crr_price", "calls"), context.get("quotes_deamericanized", 0)),
            "trees.dropped": float(context.get("trees_dropped", 0)),
            "closed_form.cf_calls_per_eval": _ratio(get("closed_form.heston_cf", "calls"), cf_evals),
            "closed_form.failures": float(get("closed_form.heston_put_cf", "failures")),
            "calibration.lm_iterations": float(lm["iterations"]),
            "calibration.evals_per_iter": _ratio(lm["evals"], lm["iterations"]),
            "calibration.lm_rejected_trials": float(lm["rejected"]),
            "trace.spans": float(len(spans)),
            "trace.overhead_ratio": float(context.get("overhead_ratio", 0.0)),
        }
    )
    return out
