"""Log-transformed Heston operator: coefficients, affine split, lifts and loads.

The bilinear form a(u, v; mu) = int A(mu) grad u . grad v + int (b(mu) . grad u) v
+ int r u v decomposes into eight parameter-independent matrices with the
coefficients returned by affine_coefficients().
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import AssemblyBlocks, FemSpace, _triangle_geometry, _QP, _QW
from .params import ModelParams, put_payoff_log

N_AFFINE = 8


def diffusion_matrix(mu: ModelParams, nu: float) -> np.ndarray:
    """Diffusion matrix (nu/2) [[xi^2, rho xi], [rho xi, 1]]."""
    xi, rho = mu.xi, mu.rho
    return 0.5 * nu * np.array([[xi * xi, rho * xi], [rho * xi, 1.0]])


def velocity_vector(mu: ModelParams, nu: float) -> np.ndarray:
    """Velocity vector [-kappa (gamma - nu) + xi^2/2, -r + nu/2 + xi rho / 2]."""
    return np.array(
        [
            -mu.kappa * (mu.gamma - nu) + 0.5 * mu.xi * mu.xi,
            -mu.r + 0.5 * nu + 0.5 * mu.xi * mu.rho,
        ]
    )


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


def assemble_operator(mu: ModelParams, blocks: AssemblyBlocks) -> sp.csr_matrix:
    """Full-node operator matrix a(phi_j, phi_i; mu) via the affine split."""
    theta = affine_coefficients(mu)
    mat = theta[0] * blocks.a_blocks[0]
    for q in range(1, N_AFFINE):
        mat = mat + theta[q] * blocks.a_blocks[q]
    return mat.tocsr()


def assemble_operator_direct(mu: ModelParams, space: FemSpace) -> sp.csr_matrix:
    """Direct quadrature assembly with the full coefficients A(mu), b(mu), r.

    Independent of the affine split; kept as the reference route for testing
    the decomposition.
    """
    p, area, grads = _triangle_geometry(space)
    J = space.triangles.shape[0]
    nq = _QP.shape[0]
    lam = np.column_stack([1.0 - _QP[:, 0] - _QP[:, 1], _QP[:, 0], _QP[:, 1]])
    qnu = np.einsum("qk,jk->jq", lam, p[:, :, 0])  # (J, nq)

    xi, rho, r = mu.xi, mu.rho, mu.r
    A11 = 0.5 * qnu * xi * xi
    A12 = 0.5 * qnu * rho * xi
    A22 = 0.5 * qnu
    b1 = -mu.kappa * (mu.gamma - qnu) + 0.5 * xi * xi
    b2 = -r + 0.5 * qnu + 0.5 * xi * rho

    rows, cols, vals = [], [], []
    for i in range(3):
        gi = grads[:, i]  # (J, 2)
        li = lam[:, i]  # (nq,)
        for j in range(3):
            gj = grads[:, j]
            # diffusion: grad-phi_j . A . grad-phi_i at each quad point
            diff = (
                A11 * (gj[:, 0] * gi[:, 0])[:, None]
                + A12 * (gj[:, 0] * gi[:, 1] + gj[:, 1] * gi[:, 0])[:, None]
                + A22 * (gj[:, 1] * gi[:, 1])[:, None]
            )
            conv = (b1 * gj[:, 0][:, None] + b2 * gj[:, 1][:, None]) * li[None, :]
            reac = r * np.outer(lam[:, j] * li, np.ones(J)).T
            contrib = 2.0 * area * ((diff + conv + reac) @ _QW)
            rows.append(space.triangles[:, i])
            cols.append(space.triangles[:, j])
            vals.append(contrib)
    n = space.n_nodes
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet data of the put problem on the x-walls.

    European: w = K e^{-r t} at x = x_min, w = 0 at x = x_max.
    American: w = payoff(x) on both walls, time independent.
    The discrete lift carries these values at the wall nodes and is zero at
    every other node, so it factors as scale(t) * shape.
    """

    style: str
    K: float
    r: float
    shape: np.ndarray  # full nodal vector

    def scale(self, t: float) -> float:
        if self.style == "european":
            return float(np.exp(-self.r * t))
        return 1.0

    def lift(self, t: float) -> np.ndarray:
        return self.scale(t) * self.shape


def boundary_data(space: FemSpace, style: str, K: float, r: float) -> BoundaryData:
    shape = np.zeros(space.n_nodes)
    if style == "european":
        shape[space.dirichlet_x_min] = K
    elif style == "american":
        d = space.dirichlet
        shape[d] = put_payoff_log(K, space.coords[d, 1])
    else:
        raise ValueError(f"unknown style {style!r}")
    return BoundaryData(style=style, K=K, r=r, shape=shape)


def lift_and_rhs(
    mu: ModelParams,
    blocks: AssemblyBlocks,
    boundary: BoundaryData,
    dt: float,
    t_k: float,
    theta: float,
) -> np.ndarray:
    """Load vector of f^{k+theta} on the free DOFs.

    f^{k+theta}(v) = -(1/dt) (u_L^{k+1} - u_L^k, v) - a(theta u_L^{k+1}
    + (1-theta) u_L^k, v; mu).
    """
    space = blocks.space
    lk = boundary.lift(t_k)
    lk1 = boundary.lift(t_k + dt)
    lmix = theta * lk1 + (1.0 - theta) * lk
    a_full = assemble_operator(mu, blocks)
    rhs_full = -(blocks.mass @ (lk1 - lk)) / dt - a_full @ lmix
    return rhs_full[space.free]


def obstacle_vector(space: FemSpace, boundary: BoundaryData, K: float) -> np.ndarray:
    """Componentwise obstacle g_p = payoff(x_p) - u_L(node_p) on free DOFs.

    The time-independent American lift vanishes at every free node, so the
    biorthogonal pairing turns the inequality constraint into u_p >= g_p.
    """
    payoff = put_payoff_log(K, space.coords[:, 1])
    g = payoff - boundary.shape
    return g[space.free]


def garding_shift_estimate(mu: ModelParams) -> float:
    """Crude upper estimate of the Garding shift for the time step check."""
    return 0.5 * mu.kappa + mu.kappa * mu.gamma + mu.r + 1.0
