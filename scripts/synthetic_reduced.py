#!/usr/bin/env python3
"""Synthetic recovery with the two-stage reduced-basis pipeline.

Builds (or loads) a global pilot basis, then runs the two-stage
calibration: pilot calibration to locate the residual valley, localized
basis rebuild around the pilot optimum, final calibration in the
localized box. Offline basis construction is reported separately from
the online optimization cost.
"""
import argparse
import time
from pathlib import Path

import numpy as np

from hestoncal.calibration import OptimizerOptions, calibrate_reduced_refined, make_backend
from hestoncal.mesh import Domain2D, assemble_blocks, build_mesh
from hestoncal.params import DEFAULT_CALIB_BOX, DEFAULT_PARAM_BOX
from hestoncal.quotes import generate_synthetic
from hestoncal.rbm import (
    GreedyConfig,
    load_reduced_model,
    make_training_grid,
    pod_angle_greedy_american,
    save_reduced_model,
)
from hestoncal.solvers import TimeGrid


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta", default="0.7,-0.8,0.3,1.4,0.3")
    ap.add_argument("--x0", default="0.601,-0.682,0.487,2.020,0.496")
    ap.add_argument("--rate", type=float, default=0.05)
    ap.add_argument("--n", type=int, default=33)
    ap.add_argument("--steps", type=int, default=125)
    ap.add_argument("--n-max", type=int, default=60)
    ap.add_argument("--pilot", type=Path, default=Path("out/pilot_basis.npz"),
                    help="pilot basis path; built here if missing")
    args = ap.parse_args()

    theta_ex = np.array([float(v) for v in args.theta.split(",")])
    x0 = np.array([float(v) for v in args.x0.split(",")])
    space = build_mesh(Domain2D(), args.n, args.n)
    blocks = assemble_blocks(space)
    grid = TimeGrid(2.0, args.steps)
    detailed = make_backend("DetailedAm", fem=lambda: (space, blocks, grid))
    quotes = generate_synthetic(
        theta_ex, args.rate, "american",
        lambda th, qs, S0, r: detailed.price_vector(th, qs, S0, r),
    )

    if args.pilot.exists():
        pilot = load_reduced_model(args.pilot)
        print(f"pilot basis : loaded {args.pilot} (dim {pilot.dim})")
    else:
        train = make_training_grid(DEFAULT_PARAM_BOX, (3, 3, 3, 3), args.rate)
        t0 = time.perf_counter()
        pilot = pod_angle_greedy_american(
            train, space, blocks, grid, GreedyConfig(n_max=args.n_max)
        )
        args.pilot.parent.mkdir(parents=True, exist_ok=True)
        save_reduced_model(pilot, args.pilot)
        print(f"pilot basis : built dim {pilot.dim} in "
              f"{time.perf_counter() - t0:.0f}s -> {args.pilot}")

    report, refined, pilot_report = calibrate_reduced_refined(
        quotes, pilot, space, blocks, grid, DEFAULT_CALIB_BOX, DEFAULT_PARAM_BOX,
        greedy_config=GreedyConfig(n_max=args.n_max), x0=x0,
        options=OptimizerOptions(),
    )
    err = np.linalg.norm(report.theta_star - theta_ex)
    online = pilot_report.time_calibrate + report.time_calibrate
    print(f"pilot theta : {np.array2string(pilot_report.theta_star, precision=4)} "
          f"({pilot_report.time_calibrate:.1f}s)")
    print(f"refined dim : {refined.dim} (offline {report.time_preprocess:.0f}s)")
    print(f"theta*      : {np.array2string(report.theta_star, precision=6)}")
    print(f"|theta-ex|  : {err:.3e}")
    print(f"J*          : {report.J_star:.3e}")
    print(f"online time : {online:.1f}s")


if __name__ == "__main__":
    main()
