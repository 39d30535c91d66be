import pytest

from perfbench import tracing
from perfbench.tracing import Tracer, aggregate, lm_counts, self_times


def span(name, start, end, parent=-1, failed=False):
    return [name, start, end, parent, "op", failed]


def test_self_time_subtracts_nested_children():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0),
        span("c", 2.0, 3.5, parent=1),
        span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 4.0])
    agg = aggregate(spans)
    assert agg["b"]["calls"] == 2
    assert agg["b"]["s"] == pytest.approx(7.0)
    assert agg["b"]["self_s"] == pytest.approx(5.5)
    # self times add up to the root's wall time
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_wrapper_records_parents_ops_and_failures():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_t = tracer.wrap("m.inner", inner)
    outer_t = tracer.wrap("m.outer", lambda x: inner_t(x) + inner_t(x))
    tracer.op = "first"
    assert outer_t(2) == 4
    tracer.op = "second"
    with pytest.raises(ValueError):
        outer_t(-1)
    names = [s[0] for s in tracer.spans]
    assert names == ["m.outer", "m.inner", "m.inner", "m.outer", "m.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, -1, 3]
    assert [s[4] for s in tracer.spans] == ["first"] * 3 + ["second"] * 2
    assert [s[5] for s in tracer.spans] == [False, False, False, True, True]
    tracer.enabled = False
    assert outer_t(1) == 2
    assert len(tracer.spans) == 5


def test_install_wraps_every_binding_and_uninstall_restores():
    import scipy.sparse.linalg as spla

    from hestoncal import calibration, rbm, solvers

    original = solvers.solve_american
    original_splu = spla.splu
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (solvers, rbm, calibration):
            assert mod.solve_american is not original
            assert mod.solve_american.__wrapped__ is original
        assert spla.splu is not original_splu
        assert calibration.PdeBackend.price_vector.__wrapped__ is not None
    finally:
        tracer.uninstall()
    for mod in (solvers, rbm, calibration):
        assert mod.solve_american is original
    assert spla.splu is original_splu
    assert not hasattr(calibration.PdeBackend.price_vector, "__wrapped__")


def test_lm_counts_iterations_and_rejected_trials():
    pv, jac, opt = "calibration.price_vector", "calibration.fd_jacobian", "calibration.optimize"
    spans = [span(opt, 0, 100)]
    t = 1.0

    def add(name, parent=0):
        nonlocal t
        spans.append(span(name, t, t + 0.5, parent))
        t += 1.0
        return len(spans) - 1

    add(pv)  # initial evaluation
    for trials in (1, 3, 2):  # three iterations
        j = add(jac)
        for _ in range(5):
            add(pv, parent=j)
        for _ in range(trials):
            add(pv)
    counts = lm_counts(spans)
    assert counts["iterations"] == 3
    assert counts["evals"] == 1 + 3 * 5 + 6
    assert counts["rejected"] == 0 + 2 + 1
    spans[0][5] = True  # the run raised during its last trial step
    assert lm_counts(spans)["rejected"] == 0 + 2 + 2


def test_layer_metrics_cover_every_declared_name():
    spans = [span("solvers.solve_american", 0.0, 2.0), span("solvers.splu", 0.5, 1.0, parent=0)]
    out = tracing.layer_metrics(spans, {"steps": 1, "overhead_ratio": 1.1})
    assert set(out) == {name for name, _, _ in tracing.LAYER_METRICS}
    assert out["solvers.solve_american.self_s"] == pytest.approx(1.5)
    assert out["solvers.lu_per_step"] == 1.0
    assert out["trees.crr_per_quote"] == 0.0
    assert out["trace.overhead_ratio"] == 1.1
