"""Log-transformed Heston operator: coefficients, affine split, lifts and loads.

The bilinear form a(u, v; mu) = int A(mu) grad u . grad v + int (b(mu) . grad u) v
+ int r u v decomposes into eight parameter-independent matrices with the
coefficients returned by affine_coefficients().  Every solve is of the
unit-strike put (payoff, lift and obstacle scale with K).  The Dirichlet lift
(BoundaryData) enters every theta-step through one load formula,
lift_and_rhs, which the detailed and the reduced solves share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import AssemblyBlocks, FemSpace
from .params import ModelParams, put_payoff_log

N_AFFINE = 8


def affine_coefficients(mu: ModelParams) -> np.ndarray:
    """Coefficients Theta_q(mu) of the eight-block affine operator split."""
    xi, rho, gamma, kappa, r = mu.xi, mu.rho, mu.gamma, mu.kappa, mu.r
    return np.array(
        [
            0.5 * xi * xi,
            0.5 * rho * xi,
            0.5,
            -kappa * gamma + 0.5 * xi * xi,
            kappa,
            -r + 0.5 * rho * xi,
            0.5,
            r,
        ]
    )


def assemble_operator(mu: ModelParams, blocks: AssemblyBlocks) -> np.ndarray:
    """Values of the full-node operator a(phi_j, phi_i; mu) on blocks.pattern, via the affine split.

    The sum theta_0 A_0 + theta_1 A_1 + ... is taken left to right, entry by
    entry, on the blocks' values: blocks.pattern.matrix of it is the matrix
    SciPy's chain of sparse sums gives, bit for bit.
    """
    theta = affine_coefficients(mu)
    data = theta[0] * blocks.a_values[0]
    for q in range(1, N_AFFINE):
        data += theta[q] * blocks.a_values[q]
    return data


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet data of the unit-strike put problem on the x-walls.

    European: w = e^{-r t} at x = x_min, w = 0 at x = x_max.
    American: w = payoff(x) on both walls, time independent.
    The discrete lift carries these values at the wall nodes and is zero at
    every other node, so it factors as scale(t) * shape.
    """

    style: str
    r: float
    shape: np.ndarray  # full nodal vector

    def scale(self, t):
        """The lift's factor at time t; t may be an array."""
        if self.style == "european":
            return np.exp(-self.r * t)
        return 1.0


def boundary_data(space: FemSpace, style: str, r: float) -> BoundaryData:
    shape = np.zeros(space.n_nodes)
    if style == "european":
        shape[space.dirichlet_x_min] = 1.0
    elif style == "american":
        d = space.dirichlet
        shape[d] = put_payoff_log(space.coords[d, 1])
    else:
        raise ValueError(f"unknown style {style!r}")
    return BoundaryData(style=style, r=r, shape=shape)


#: Weight of the theta-scheme: every detailed and reduced solve is Crank-Nicolson.
THETA = 0.5


def lift_and_rhs(mlift, alift, boundary: BoundaryData, dt: float):
    """Load of the theta-step k, f^{k+theta}, as a function of k.

    f^{k+theta}(v) = -(1/dt) (u_L^{k+1} - u_L^k, v) - a(theta u_L^{k+1}
    + (1-theta) u_L^k, v; mu), theta = THETA.  The lift is scale(t) * shape,
    so the load combines the two fixed lift loads mlift = (shape, v) and
    alift = a(shape, v; mu) with scalar weights.  The FEM passes them on the
    free DOFs, the reduced model projected onto its basis.  The static
    American lift gives the constant load -alift.
    """
    if boundary.style == "american":
        f = -alift
        return lambda k: f

    def load(k: int) -> np.ndarray:
        s0, s1 = boundary.scale(k * dt), boundary.scale(k * dt + dt)
        return -(s1 - s0) / dt * mlift - (THETA * s1 + (1.0 - THETA) * s0) * alift

    return load


def payoff_vector(space: FemSpace) -> np.ndarray:
    """Unit-strike put payoff at the free DOFs: the initial value of every
    solve and the American obstacle g_p.

    The lift of either style vanishes at every free node, so the payoff minus
    the lift is the payoff there, and the biorthogonal pairing turns the
    inequality constraint into u_p >= g_p.  The nodal interpolant already
    lies in the discrete space, so it coincides with its V-orthogonal
    projection.
    """
    return put_payoff_log(space.coords[:, 1])[space.free]


def garding_shift_estimate(mu: ModelParams) -> float:
    """Crude upper estimate of the Garding shift for the time step check."""
    return 0.5 * mu.kappa + mu.kappa * mu.gamma + mu.r + 1.0
