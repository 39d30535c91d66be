"""Acceptance criteria, one test per criterion.

Each test computes its oracle first and then prints one PASS/FAIL line of
the form ``[criterion N] title: PASS (...)`` before asserting, so a plain
``pytest -s`` run yields a one-line verdict per criterion.

The synthetic-recovery criteria share a module-scoped detailed calibration
and a module-scoped reduced calibration (global pilot basis + iteratively
localized refinement); both are expensive, so this file is much slower
than the unit suite.
"""

import filecmp
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hestoncal.calibration import (
    ClosedFormBackend,
    OptimizerOptions,
    PdeBackend,
    calibrate,
    calibrate_reduced_refined,
)
from hestoncal.cli import main as cli_main
from hestoncal.closed_form import heston_put_cf
from hestoncal.mesh import Domain2D, assemble_blocks, build_mesh
from hestoncal.params import DEFAULT_CALIB_BOX, DEFAULT_PARAM_BOX, CalibParams
from hestoncal.quotes import Quote, QuoteSet, generate_synthetic
from hestoncal.rbm import GreedyConfig, make_training_grid, pod_angle_greedy_american
from hestoncal.solvers import TimeGrid, price_at, solve_american, solve_european
from hestoncal.trees import TreeConfig, deamericanize_quote, deamericanize_set

THETA_EX = np.array([0.7, -0.8, 0.3, 1.4, 0.3])
X0 = np.array([0.601, -0.682, 0.487, 2.020, 0.496])
RATE = 0.05

P2 = np.array([0.25, -0.50, 0.10, 0.4, 0.10])
DAS_SCENARIOS = {
    "p1": np.array([0.10, -0.20, 0.07, 0.1, 0.07]),
    "p2": P2,
    "p3": np.array([0.40, -0.50, 0.15, 0.6, 0.15]),
    "p4": np.array([0.55, -0.45, 0.20, 1.2, 0.20]),
    "p5": THETA_EX,
}
DAS_STRIKES = np.array([0.80, 0.85, 0.90, 0.95, 1.00, 1.05, 1.10, 1.15, 1.20])
DAS_MATURITIES = np.array([1, 2, 3, 4, 6, 9, 12, 24]) / 12.0


def _verdict(num: int, title: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {title}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({title}): {detail}"


# ---------------------------------------------------------------------------
# shared expensive fixtures


@pytest.fixture(scope="module")
def fem33():
    space = build_mesh(Domain2D(), 33, 33)
    return space, assemble_blocks(space), TimeGrid(2.0, 125)


@pytest.fixture(scope="module")
def quotes65(fem33):
    space, blocks, grid = fem33
    backend = PdeBackend("DetailedAm", space, blocks, grid)
    return generate_synthetic(
        THETA_EX, RATE, "american",
        lambda th, qs, S0, r: backend.price_vector(th, qs, S0, r),
    )


@pytest.fixture(scope="module")
def detailed_result(fem33, quotes65):
    space, blocks, grid = fem33
    backend = PdeBackend("DetailedAm", space, blocks, grid)
    t0 = time.perf_counter()
    report = calibrate(quotes65, backend, DEFAULT_CALIB_BOX, x0=X0,
                       options=OptimizerOptions())
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def reduced_result(fem33, quotes65):
    space, blocks, grid = fem33
    train = make_training_grid(DEFAULT_PARAM_BOX, (3, 3, 3, 3, 3), RATE)
    pilot = pod_angle_greedy_american(train, space, blocks, grid,
                                      GreedyConfig(n_max=60))
    report, refined, pilot_report = calibrate_reduced_refined(
        quotes65, pilot, space, blocks, grid, DEFAULT_CALIB_BOX,
        DEFAULT_PARAM_BOX, greedy_config=GreedyConfig(n_max=60), x0=X0,
        options=OptimizerOptions(), n_refine=2,
    )
    return report, refined, pilot_report


# ---------------------------------------------------------------------------
# criteria


@pytest.mark.slow
def test_criterion_1_detailed_recovery(detailed_result):
    report, elapsed = detailed_result
    err = float(np.linalg.norm(report.theta_star - THETA_EX))
    ok = err <= 1e-2 and report.J_star <= 1e-10 and elapsed <= 1800.0
    _verdict(1, "detailed synthetic recovery", ok,
             f"|theta-ex|={err:.2e} J={report.J_star:.2e} time={elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_2_reduced_recovery(detailed_result, reduced_result):
    det_report, det_time = detailed_result
    report, refined, pilot_report = reduced_result
    err = float(np.linalg.norm(report.theta_star - THETA_EX))
    online = report.time_calibrate
    speedup = det_time / online
    ok = err <= 1e-1 and speedup >= 20.0 and online <= 180.0
    _verdict(2, "reduced synthetic recovery", ok,
             f"|theta-ex|={err:.2e} online={online:.1f}s "
             f"speedup={speedup:.0f}x dim={refined.dim} "
             f"offline={report.time_preprocess:.0f}s")


@pytest.mark.slow
def test_criterion_3_reduced_price_accuracy(reduced_result):
    report, _, _ = reduced_result
    worst = float(np.max(report.rel_errors))
    ok = worst <= 0.02 and report.rel_errors.size == 65
    _verdict(3, "reduced pricing accuracy", ok,
             f"max rel err={worst:.2e} over {report.rel_errors.size} quotes")


@pytest.mark.slow
def test_criterion_4_deamericanization_fidelity():
    t_start = time.perf_counter()
    space = build_mesh(Domain2D(), 97, 97)
    blocks = assemble_blocks(space)
    grid = TimeGrid(2.0, 120)  # dt = 1/60 divides every grid maturity
    cfg = TreeConfig()
    per_max, per_t8 = {}, {}
    for name, theta in DAS_SCENARIOS.items():
        p = CalibParams.from_array(theta)
        mu = p.to_model(RATE)
        am = solve_american(mu, space, blocks, grid, K=1.0)
        eu = solve_european(mu, space, blocks, grid, K=1.0)
        gaps = np.full((DAS_MATURITIES.size, DAS_STRIKES.size), np.nan)
        for i, T in enumerate(DAS_MATURITIES):
            for j, K in enumerate(DAS_STRIKES):
                p_am = price_at(am, 1.0, K, p.nu0, T)
                p_eu = price_at(eu, 1.0, K, p.nu0, T)
                pq = deamericanize_quote(T, K, p_am, 1.0, RATE, cfg)
                if pq.invertible:
                    gaps[i, j] = abs(pq.pseudo_price - p_eu)
        per_max[name] = float(np.nanmax(gaps))
        per_t8[name] = float(np.nanmax(gaps[-1]))
    elapsed = time.perf_counter() - t_start
    overall = max(per_max.values())
    worst_scenario = max(per_max, key=per_max.get)
    ok = (
        overall <= 5e-3
        and worst_scenario == "p5"
        and per_t8["p5"] == per_max["p5"]
        and per_max["p5"] >= per_max["p1"]
        and elapsed <= 600.0
    )
    _verdict(4, "de-Americanization fidelity", ok,
             f"overall max={overall:.2e} worst={worst_scenario} "
             f"p5@T8={per_t8['p5']:.2e} p1={per_max['p1']:.2e} "
             f"time={elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_5_das_bias_direction(quotes65, reduced_result):
    pseudo = deamericanize_set(quotes65.quotes, quotes65.S0, quotes65.r,
                               TreeConfig())
    pseudo_set = QuoteSet(
        [Quote(p.maturity, p.strike, "european", price=p.pseudo_price)
         for p in pseudo], quotes65.S0, quotes65.r,
    )
    das_report = calibrate(pseudo_set, ClosedFormBackend(), DEFAULT_CALIB_BOX,
                           x0=X0, options=OptimizerOptions(max_iter=60))
    red_report, _, _ = reduced_result
    das_dxi = abs(das_report.theta_star[0] - THETA_EX[0])
    das_drho = abs(das_report.theta_star[1] - THETA_EX[1])
    red_dxi = abs(red_report.theta_star[0] - THETA_EX[0])
    red_drho = abs(red_report.theta_star[1] - THETA_EX[1])
    ok = das_dxi > red_dxi and das_drho > red_drho
    _verdict(5, "de-Americanization bias ordering", ok,
             f"DAS |dxi|={das_dxi:.3f} |drho|={das_drho:.3f} vs "
             f"reduced |dxi|={red_dxi:.3f} |drho|={red_drho:.3f}")


def test_criterion_6_cross_backend_consistency():
    p = CalibParams.from_array(P2)
    mu = p.to_model(RATE)
    probes = [(K, T) for K in (0.8, 0.9, 1.0, 1.1, 1.2) for T in (0.5, 1.0, 2.0)]

    def fem_gap(n: int, steps: int) -> float:
        space = build_mesh(Domain2D(), n, n)
        blocks = assemble_blocks(space)
        grid = TimeGrid(2.0, steps)
        surf = solve_european(mu, space, blocks, grid, K=1.0)
        worst = 0.0
        for K, T in probes:
            fem = price_at(surf, 1.0, K, p.nu0, T)
            cf = heston_put_cf(1.0, K, T, mu, p.nu0)
            worst = max(worst, abs(fem - cf))
        return worst

    coarse = fem_gap(40, 125)
    fine = fem_gap(80, 250)
    ok = coarse <= 1e-2 and fine < coarse
    _verdict(6, "closed form vs FEM European", ok,
             f"coarse gap={coarse:.2e} refined gap={fine:.2e}")


PROPERTY_TESTS = [
    "tests/test_solvers.py::test_complementarity_and_obstacle",
    "tests/test_solvers.py::test_american_dominates_european",
    "tests/test_trees.py::test_r0_american_equals_european_on_lattice",
    "tests/test_rbm.py::test_pod1_matches_dense_oracle",
    "tests/test_operator.py::test_affine_matches_direct_assembly",
    "tests/test_rbm.py::test_greedy_basis_is_orthonormal",
    "tests/test_trees.py::test_one_step_tree_hand_value",
    "tests/test_trees.py::test_sigma_round_trip",
    "tests/test_quotes.py::test_preprocess_fills_midpoints_and_drops_zero_bids",
    "tests/test_quotes.py::test_preprocess_consecutive_zero_bid_truncation",
    "tests/test_quotes.py::test_preprocess_is_per_maturity",
    "tests/test_quotes.py::test_ladder_has_65_nested_quotes",
    "tests/test_closed_form.py::test_put_call_parity",
    "tests/test_params.py::test_clamp_idempotent_and_inside",
]


def test_criterion_7_property_suite():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *PROPERTY_TESTS],
        cwd=Path(__file__).resolve().parent.parent,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and elapsed < 300.0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    _verdict(7, "property suite", ok, f"{tail}; time={elapsed:.0f}s")


def test_criterion_8_determinism(tmp_path):
    theta = "0.25,-0.5,0.10,0.4,0.10"
    small = ["--n-nu", "12", "--n-x", "12", "--steps", "24", "--horizon", "1.0"]
    runs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        assert cli_main(["synth", "--backend", "DasClosedForm", "--theta", theta,
                         "--output", "ladder.csv", "--out-dir", str(d)]) == 0
        assert cli_main(["build-basis", "--style", "european", "--n-max", "4",
                         "--train-counts", "2", "1", "1", "2", "1",
                         "--output", "basis.npz", "--out-dir", str(d),
                         *small]) == 0
        assert cli_main(["calibrate", "--backend", "DasClosedForm",
                         "--quotes", str(d / "ladder.csv"), "--max-iter", "15",
                         "--out-dir", str(d), "--stem", "calib"]) == 0
        runs.append(d)
    a, b = runs
    files = ["ladder.csv", "basis.npz", "calib_summary.txt",
             "calib_residuals.csv", "calib_error_surface.csv"]
    mismatched = [f for f in files if not filecmp.cmp(a / f, b / f, shallow=False)]
    ok = not mismatched
    _verdict(8, "bit-identical determinism", ok,
             f"compared {len(files)} artifacts"
             + (f"; mismatch: {mismatched}" if mismatched else ""))
