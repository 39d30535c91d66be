#!/usr/bin/env python3
"""Calibrate the bundled Google American put dataset.

De-Americanizes the 401 settle quotes through CRR trees and calibrates
the Heston parameters with the semi-closed-form European backend.
"""
import argparse
import time

import numpy as np

from hestoncal.calibration import OptimizerOptions, calibrate, make_backend, route_quotes
from hestoncal.params import DEFAULT_CALIB_BOX
from hestoncal.quotes import load_google_quotes, preprocess_quotes
from hestoncal.trees import TreeConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tree-steps", type=int, default=TreeConfig.steps)
    ap.add_argument("--feller", action="store_true")
    args = ap.parse_args()

    raw = load_google_quotes()
    pre = preprocess_quotes(raw)
    print(f"quotes      : {len(pre.quotes)} (from {len(raw.quotes)})  "
          f"S0={pre.S0}  r={pre.r}")
    t0 = time.perf_counter()
    quotes = route_quotes("DasClosedForm", pre, TreeConfig(steps=args.tree_steps))
    t_pre = time.perf_counter() - t0
    report = calibrate(quotes, make_backend("DasClosedForm"), DEFAULT_CALIB_BOX,
                       options=OptimizerOptions(feller=args.feller),
                       time_preprocess=t_pre)
    names = ["xi", "rho", "gamma", "kappa", "nu0"]
    for n, v in zip(names, report.theta_star):
        print(f"{n:11s} : {v: .6f}")
    print(f"J*          : {report.J_star:.6e}")
    print(f"max rel err : {np.nanmax(report.rel_errors):.3e}")
    print(f"preprocess  : {report.time_preprocess:.1f}s  "
          f"calibrate: {report.time_calibrate:.1f}s  ({report.status})")


if __name__ == "__main__":
    main()
