#!/usr/bin/env python3
"""De-Americanization fidelity study.

For each parameter scenario, prices American and European puts on a
9-strike x 8-maturity grid with the DetailedAm and DetailedEu backends,
converts the American prices to pseudo-European prices with one
deamericanize_set call per scenario (batched CRR trees, lockstep volatility
inversion started from each quote's Black-Scholes implied volatility and
widened to the full bracket where that start misses the root), and
reports the maximum absolute gap |pseudo-European - PDE-European| per
scenario and per longest maturity.
"""
import argparse
import time

import numpy as np

from hestoncal.calibration import make_backend
from hestoncal.mesh import Domain2D, assemble_blocks, build_mesh
from hestoncal.quotes import Quote
from hestoncal.solvers import TimeGrid
from hestoncal.trees import TreeConfig, deamericanize_set

SCENARIOS = {
    "p1": (0.10, -0.20, 0.07, 0.1, 0.07),
    "p2": (0.25, -0.50, 0.10, 0.4, 0.10),
    "p3": (0.40, -0.50, 0.15, 0.6, 0.15),
    "p4": (0.55, -0.45, 0.20, 1.2, 0.20),
    "p5": (0.70, -0.80, 0.30, 1.4, 0.30),
}
STRIKES = np.array([0.80, 0.85, 0.90, 0.95, 1.00, 1.05, 1.10, 1.15, 1.20])
MATURITIES = np.array([1, 2, 3, 4, 6, 9, 12, 24]) / 12.0
LAYOUT = [Quote(T, K, "american", price=np.nan) for T in MATURITIES for K in STRIKES]


def scenario_gaps(theta, american, european, S0, r, tree_config):
    am = american.price_vector(theta, LAYOUT, S0, r)
    eu = european.price_vector(theta, LAYOUT, S0, r).reshape(MATURITIES.size, STRIKES.size)
    grid_quotes = [Quote(q.maturity, q.strike, "american", price=p) for q, p in zip(LAYOUT, am)]
    # non-invertible quotes are dropped (and logged); their gaps stay NaN
    pseudo = {(pq.maturity, pq.strike): pq.pseudo_price
              for pq in deamericanize_set(grid_quotes, S0, r, tree_config)}
    gaps = np.full((MATURITIES.size, STRIKES.size), np.nan)
    for i, T in enumerate(MATURITIES):
        for j, K in enumerate(STRIKES):
            if (T, K) in pseudo:
                gaps[i, j] = abs(pseudo[T, K] - eu[i, j])
    return gaps


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=97, help="mesh intervals per axis")
    ap.add_argument("--steps", type=int, default=120,
                    help="time steps (120 aligns all grid maturities)")
    ap.add_argument("--tree-steps", type=int, default=500)
    ap.add_argument("--rate", type=float, default=0.05)
    args = ap.parse_args()

    space = build_mesh(Domain2D(), args.n, args.n)
    fem = (space, assemble_blocks(space), TimeGrid(2.0, args.steps))
    american = make_backend("DetailedAm", fem=lambda: fem)
    european = make_backend("DetailedEu", fem=lambda: fem)
    cfg = TreeConfig(steps=args.tree_steps)
    for name, theta in SCENARIOS.items():
        t0 = time.perf_counter()
        gaps = scenario_gaps(theta, american, european, 1.0, args.rate, cfg)
        i, j = np.unravel_index(np.nanargmax(gaps), gaps.shape)
        print(f"{name}: max gap {np.nanmax(gaps):.3e} "
              f"(T={MATURITIES[i]:.3f}, K={STRIKES[j]:.2f}); "
              f"longest-maturity max {np.nanmax(gaps[-1]):.3e}; "
              f"{time.perf_counter() - t0:.0f}s")


if __name__ == "__main__":
    main()
