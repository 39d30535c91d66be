import json
import re

import numpy as np
import pytest

from perfbench import bench, run, tracing, workloads
from perfbench.tests.conftest import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.GATED)
    units = dict(bench.END_TO_END)
    assert all(m["unit"] == units[m["name"]] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m


def test_put_bounds_flag_each_violation():
    from hestoncal.quotes import Quote

    qs = [Quote(1.0, K, "american", price=0.0) for K in (0.8, 1.0, 1.2)]
    assert workloads.put_bound_problems([0.01, 0.1, 0.25], qs, 1.0, 0.05, "american") == []
    problems = workloads.put_bound_problems([np.nan, 1.1, 0.1], qs, 1.0, 0.05, "american")
    assert len(problems) == 3  # non-finite, above K, below intrinsic
    # a European put may sit below K - S0 but not below K e^{-rT} - S0
    assert workloads.put_bound_problems([0.01, 0.1, 0.1415], qs, 1.0, 0.05, "european") == []
    assert workloads.put_bound_problems([0.01, 0.1, 0.14], qs, 1.0, 0.05, "european")


def test_latin_hypercube_fills_every_stratum_once():
    from hestoncal.params import DEFAULT_CALIB_BOX as box

    pts = workloads.latin_hypercube(np.random.default_rng(3), 16, box)
    assert pts.shape == (16, 5)
    strata = np.floor((pts - box.lo) / (box.hi - box.lo) * 16).astype(int)
    for axis in range(5):
        assert sorted(strata[:, axis]) == list(range(16))


def test_digest_is_order_and_value_sensitive():
    def digest(*items):
        d = workloads.Digest()
        for label, value in items:
            d.add(label, value)
        return d.hexdigest()

    a = digest(("x", [1.0, 2.0]), ("y", None))
    assert a == digest(("x", [1.0, 2.0]), ("y", None))
    assert a != digest(("x", [1.0, 2.0 + 1e-15]), ("y", None))
    assert a != digest(("y", None), ("x", [1.0, 2.0]))


def test_speed_probe_cuts_out_probes_and_scales_each_stretch():
    probe = workloads.SpeedProbe()
    nominal = workloads.PROBE_NOMINAL
    # probes of 2 * nominal around [0, 1] (half speed), nominal around [2, 3]
    probe.samples = [
        (0.00, 0.01, 2 * nominal, 2 * nominal, 2 * nominal),
        (0.99, 1.00, nominal, 4 * nominal, 2 * nominal),
        (1.99, 2.00, nominal, nominal, nominal),
        (2.99, 3.00, nominal, nominal, nominal),
    ]
    assert probe.measured((0.01, 0.99)) == pytest.approx(0.98)
    assert probe.normalized((0.01, 0.99)) == pytest.approx(0.49)
    # a long interval: the probes inside it are cut out, each stretch scaled
    assert probe.measured((0.01, 2.99)) == pytest.approx(2.98 - 0.02)
    assert probe.normalized((0.01, 2.99)) == pytest.approx(0.98 * 0.5 + 0.99 * 2 / 3 + 0.99)
    # with no probe near an interval, all probes' median scales it
    assert probe.factor(10.0, 11.0) == pytest.approx(nominal / (1.5 * nominal))
    assert workloads.SpeedProbe().factor(0.0, 1.0) == 1.0


def test_outside_leaves_the_holes_out():
    assert workloads.outside((0.0, 10.0), [(6.0, 7.0), (2.0, 3.0)]) == [(0.0, 2.0), (3.0, 6.0), (7.0, 10.0)]
    assert workloads.outside((0.0, 1.0), []) == [(0.0, 1.0)]


def test_build_timer_times_the_build_where_it_is_looked_up(monkeypatch):
    from hestoncal import rbm

    def build(*args, **kwargs):
        raise ValueError("bad training grid")

    monkeypatch.setattr(rbm, "pod_angle_greedy_american", build)
    timer = workloads.BuildTimer()
    timer.install()
    assert rbm.pod_angle_greedy_american is not build
    with pytest.raises(ValueError):
        rbm.pod_angle_greedy_american()
    timer.uninstall()
    assert rbm.pod_angle_greedy_american is build
    ((t0, t1),) = timer.intervals
    assert t0 <= t1


def test_local_box_lies_in_the_calibration_box_around_its_center():
    from hestoncal.params import DEFAULT_CALIB_BOX as box

    for center in (workloads.THETA_REF, box.midpoint()):
        local = workloads.local_box(center)
        assert local.contains(center)
        assert np.all(local.lo >= box.lo) and np.all(local.hi <= box.hi)
        assert (local.lo[4], local.hi[4]) == (box.lo[4], box.hi[4])
