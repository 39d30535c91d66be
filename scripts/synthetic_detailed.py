#!/usr/bin/env python3
"""Synthetic recovery with the detailed American FEM backend.

Generates a 65-quote American put set at a known parameter vector and
calibrates against it with the detailed solver; prints the recovered
parameters, objective value and wall time.
"""
import argparse
import time

import numpy as np

from hestoncal.calibration import OptimizerOptions, calibrate, make_backend
from hestoncal.mesh import Domain2D, assemble_blocks, build_mesh
from hestoncal.params import DEFAULT_CALIB_BOX
from hestoncal.quotes import generate_synthetic
from hestoncal.solvers import TimeGrid


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta", default="0.7,-0.8,0.3,1.4,0.3")
    ap.add_argument("--x0", default="0.601,-0.682,0.487,2.020,0.496")
    ap.add_argument("--rate", type=float, default=0.05)
    ap.add_argument("--n", type=int, default=33, help="mesh intervals per axis")
    ap.add_argument("--steps", type=int, default=125, help="time steps")
    args = ap.parse_args()

    theta_ex = np.array([float(v) for v in args.theta.split(",")])
    x0 = np.array([float(v) for v in args.x0.split(",")])
    space = build_mesh(Domain2D(), args.n, args.n)
    blocks = assemble_blocks(space)
    grid = TimeGrid(2.0, args.steps)
    backend = make_backend("DetailedAm", fem=lambda: (space, blocks, grid))
    quotes = generate_synthetic(
        theta_ex, args.rate, "american",
        lambda th, qs, S0, r: backend.price_vector(th, qs, S0, r),
    )
    t0 = time.perf_counter()
    report = calibrate(quotes, backend, DEFAULT_CALIB_BOX, x0=x0,
                       options=OptimizerOptions())
    elapsed = time.perf_counter() - t0
    err = np.linalg.norm(report.theta_star - theta_ex)
    print(f"theta*      : {np.array2string(report.theta_star, precision=6)}")
    print(f"|theta-ex|  : {err:.3e}")
    print(f"J*          : {report.J_star:.3e}")
    print(f"evals/iters : {report.n_evals}/{report.iterations} ({report.status})")
    print(f"wall time   : {elapsed:.1f}s")


if __name__ == "__main__":
    main()
