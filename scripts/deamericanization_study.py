#!/usr/bin/env python3
"""De-Americanization fidelity study.

For each parameter scenario, prices American and European puts on a
9-strike x 8-maturity grid with the FEM solver, converts the American
prices to pseudo-European prices through per-quote CRR trees, and
reports the maximum absolute gap |pseudo-European - PDE-European| per
scenario and per longest maturity.
"""
import argparse
import time

import numpy as np

from hestoncal.mesh import Domain2D, assemble_blocks, build_mesh
from hestoncal.params import CalibParams
from hestoncal.solvers import TimeGrid, price_at, solve_american, solve_european
from hestoncal.trees import TreeConfig, deamericanize_quote

SCENARIOS = {
    "p1": (0.10, -0.20, 0.07, 0.1, 0.07),
    "p2": (0.25, -0.50, 0.10, 0.4, 0.10),
    "p3": (0.40, -0.50, 0.15, 0.6, 0.15),
    "p4": (0.55, -0.45, 0.20, 1.2, 0.20),
    "p5": (0.70, -0.80, 0.30, 1.4, 0.30),
}
STRIKES = np.array([0.80, 0.85, 0.90, 0.95, 1.00, 1.05, 1.10, 1.15, 1.20])
MATURITIES = np.array([1, 2, 3, 4, 6, 9, 12, 24]) / 12.0


def scenario_gaps(theta, space, blocks, grid, S0, r, tree_config):
    p = CalibParams.from_array(np.asarray(theta, dtype=float))
    mu = p.to_model(r)
    am = solve_american(mu, space, blocks, grid, K=1.0)
    eu = solve_european(mu, space, blocks, grid, K=1.0)
    gaps = np.full((MATURITIES.size, STRIKES.size), np.nan)
    for i, T in enumerate(MATURITIES):
        for j, K in enumerate(STRIKES):
            p_am = price_at(am, S0, K, p.nu0, T)
            p_eu = price_at(eu, S0, K, p.nu0, T)
            pq = deamericanize_quote(T, K, p_am, S0, r, tree_config)
            if pq.invertible:
                gaps[i, j] = abs(pq.pseudo_price - p_eu)
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
    blocks = assemble_blocks(space)
    grid = TimeGrid(2.0, args.steps)
    cfg = TreeConfig(steps=args.tree_steps)
    for name, theta in SCENARIOS.items():
        t0 = time.perf_counter()
        gaps = scenario_gaps(theta, space, blocks, grid, 1.0, args.rate, cfg)
        i, j = np.unravel_index(np.nanargmax(gaps), gaps.shape)
        print(f"{name}: max gap {np.nanmax(gaps):.3e} "
              f"(T={MATURITIES[i]:.3f}, K={STRIKES[j]:.2f}); "
              f"longest-maturity max {np.nanmax(gaps[-1]):.3e}; "
              f"{time.perf_counter() - t0:.0f}s")


if __name__ == "__main__":
    main()
