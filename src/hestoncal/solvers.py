"""Full-order time stepping for European and American put surfaces, and the
active-set kernel shared with the reduced model.

The European problem is a theta-scheme linear solve per step.  The American
problem couples it with the componentwise obstacle through a diagonal
biorthogonal pairing, so every step is the complementarity problem

    c >= g,  lam >= 0,  lam . (c - g) = 0,

with c = u here and c = B a in the reduced model (rbm.solve_reduced).
solve_complementarity solves it by a primal-dual active set iteration
(semismooth Newton on the complementarity system, Hintermueller, Ito and
Kunisch 2002), with least-index principal pivoting as its only fallback.
It sees the problem only through a callback solve(active) -> (x, lam, c);
fem_step builds the FEM one.

Off-grid maturities are priced by linear interpolation in time between the
adjacent levels (interpolate_in_time); they are never snapped to a level.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .heston_operator import (
    assemble_operator,
    boundary_data,
    garding_shift_estimate,
    lift_and_rhs,
    obstacle_vector,
)
from .mesh import AssemblyBlocks, FemSpace, evaluate_p1
from .params import ModelParams, put_payoff_log

#: Cap on the Newton iterations, and separately on the pivots, of one
#: complementarity solve.
MAX_ITER = 500
#: Relative KKT tolerance, scaled by max(1, |c|, |g|): Newton accepts an
#: iterate within it whose active set still flickers on round-off ties, and
#: pivoting accepts its final iterate by it.
KKT_TOL = 1e-11
#: Relative tolerance within which a maturity counts as a time level.
STEP_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid of the theta-scheme; t runs from 0 to the horizon."""

    T: float
    I: int
    theta: float = 0.5

    def __post_init__(self):
        if self.T <= 0 or self.I < 1:
            raise ValueError("require T > 0 and I >= 1")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")

    @property
    def dt(self) -> float:
        return self.T / self.I

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.I + 1)

    def step_of(self, maturity: float) -> int:
        """Grid index of a maturity that lies on the grid within STEP_TOL."""
        k = maturity / self.dt
        k_round = int(round(k))
        if abs(k - k_round) > STEP_TOL * max(1.0, abs(k)):
            raise ValueError(
                f"maturity {maturity} is not an integer multiple of dt={self.dt}"
            )
        if not 0 <= k_round <= self.I:
            raise ValueError(f"maturity {maturity} outside the grid horizon")
        return k_round


@dataclass
class PriceSurface:
    """Coefficient trajectories of one unit-strike solve.

    U[k] holds the free-DOF coefficients at time t_k; lam[k] the multiplier
    (American only, lam[0] = 0).  Full nodal values add the Dirichlet lift.
    """

    space: FemSpace
    grid: TimeGrid
    mu: ModelParams
    K: float
    style: str
    U: np.ndarray = field(repr=False)  # (I+1, n_free)
    lam: np.ndarray | None = field(default=None, repr=False)
    boundary: object = None

    def full_values(self, k: int) -> np.ndarray:
        w = self.boundary.lift(self.grid.times()[k])
        w[self.space.free] += self.U[k]
        return w

    def price(self, S0: float, K_i: float, nu0: float, T_i: float) -> float:
        return price_at(self, S0, K_i, nu0, T_i)


def _check_time_step(mu: ModelParams, grid: TimeGrid) -> None:
    lam_a = garding_shift_estimate(mu)
    if grid.theta > 0 and grid.dt >= 1.0 / (grid.theta * lam_a):
        warnings.warn(
            f"time step dt={grid.dt:g} may violate the stability bound "
            f"1/(theta*lambda_a)={1.0 / (grid.theta * lam_a):g}",
            stacklevel=3,
        )


def _initial_condition(space: FemSpace, boundary, K: float) -> np.ndarray:
    """Nodal interpolant of payoff minus lift on the free DOFs.

    The interpolant already lies in the discrete space, so it coincides with
    its V-orthogonal projection.
    """
    payoff = put_payoff_log(K, space.coords[:, 1])
    return (payoff - boundary.lift(0.0))[space.free]


def solve_european(
    mu: ModelParams,
    space: FemSpace,
    blocks: AssemblyBlocks,
    grid: TimeGrid,
    K: float = 1.0,
    boundary=None,
) -> PriceSurface:
    """theta-scheme solve of the European put on the free DOFs.

    boundary overrides the default Dirichlet data (used to study the wall
    truncation convention; production callers leave it at None).
    """
    _check_time_step(mu, grid)
    bnd = boundary if boundary is not None else boundary_data(space, "european", K, mu.r)
    a_free = blocks.restrict(assemble_operator(mu, blocks))
    m_free = blocks.mass_free
    dt, th = grid.dt, grid.theta
    lhs = (m_free / dt + th * a_free).tocsc()
    rhs_op = (m_free / dt - (1.0 - th) * a_free).tocsr()
    lu = spla.splu(lhs)

    U = np.empty((grid.I + 1, space.n_free))
    U[0] = _initial_condition(space, bnd, K)
    for k in range(grid.I):
        f = lift_and_rhs(mu, blocks, bnd, dt, k * dt, th)
        u_next = lu.solve(rhs_op @ U[k] + f)
        if not np.all(np.isfinite(u_next)):
            raise FloatingPointError(f"non-finite European solution at step {k + 1}")
        U[k + 1] = u_next
    return PriceSurface(space=space, grid=grid, mu=mu, K=K, style="european", U=U, boundary=bnd)


class LCPError(RuntimeError):
    """A complementarity solve that neither Newton nor pivoting finished."""

    def __init__(self, n: int, pivots: int, residual: float, reason: str):
        super().__init__(
            f"complementarity problem with n={n} not solved after {pivots} pivots "
            f"({reason}); KKT residual {residual:.3e}"
        )
        self.n = n
        self.pivots = pivots
        self.residual = residual


def solve_complementarity(solve, g, active):
    """Primal-dual active set solve of c >= g, lam >= 0, lam . (c - g) = 0.

    solve(active) returns (x, lam, c): the primal solution x of the system
    with c = g on the active rows, the multiplier lam (zero off them) and the
    constrained quantity c.  Each Newton step moves to the set
    {lam + g - c > 0}.  An iterate within KKT_TOL is accepted even while its
    set still flickers on round-off ties.  The first repeated set is merged
    with the current one; a second repeat, or MAX_ITER iterations, hands the
    last set to principal_pivoting.  Returns (x, lam, active).
    """
    seen: set[bytes] = set()
    merged = False
    for _ in range(MAX_ITER):
        x, lam, c = solve(active)
        new_active = (lam + (g - c)) > 0
        if np.array_equal(new_active, active):
            return x, lam, active
        scale = max(1.0, np.abs(c).max(), np.abs(g).max())
        if (g - c).max() <= KKT_TOL * scale and lam.min() >= -KKT_TOL * scale:
            return x, np.maximum(lam, 0.0), active
        key = new_active.tobytes()
        if key in seen:
            if merged:
                break
            new_active |= active
            merged = True
            seen.clear()
        seen.add(key)
        active = new_active
    return principal_pivoting(solve, g, active)


def principal_pivoting(solve, g, active):
    """Murty's least-index principal pivoting through the same callback.

    The basic variable of row i is lam_i on the active set and the slack
    c_i - g_i off it; each pivot flips the least index whose basic variable
    is negative.  From any start this ends at the unique solution when the
    problem's matrix is a P-matrix (Murty 1974), which holds for the
    theta-step FEM matrix and for the reduced Schur complement whenever
    their symmetric parts are positive definite.  The final iterate is
    accepted by its KKT residual |min(lam, c - g)|_inf; a residual above
    KKT_TOL or MAX_ITER pivots raise LCPError.  Returns (x, lam, active).
    """
    for pivots in range(MAX_ITER):
        x, lam, c = solve(active)
        slack = c - g
        tol = KKT_TOL * max(1.0, np.abs(c).max(), np.abs(g).max())
        residual = float(np.abs(np.minimum(lam, slack)).max())
        negative = np.flatnonzero(np.where(active, lam, slack) < -tol)
        if negative.size == 0:
            if residual <= tol:
                return x, np.maximum(lam, 0.0), active
            raise LCPError(g.size, pivots, residual, "KKT residual above tolerance")
        active = active.copy()
        active[negative[0]] = not active[negative[0]]
    raise LCPError(g.size, MAX_ITER, residual, "pivot cap")


def fem_step(lhs, rhs, g, d):
    """solve_complementarity callback of one FEM theta-step.

    The step is lhs @ u - diag(d) lam = rhs with c = u.  Active rows are
    replaced by the identity equations u_p = g_p, and their multiplier is
    the residual of the original row divided by the pairing weight d_p.
    """
    n = rhs.size

    def solve(active):
        inact_d = sp.diags((~active).astype(float))
        act_d = sp.diags(active.astype(float))
        mod = (inact_d @ lhs + act_d).tocsc()
        u = spla.splu(mod).solve(np.where(active, g, rhs))
        lam = np.zeros(n)
        if active.any():
            lam[active] = (lhs @ u - rhs)[active] / d[active]
        return u, lam, u

    return solve


def solve_american(
    mu: ModelParams,
    space: FemSpace,
    blocks: AssemblyBlocks,
    grid: TimeGrid,
    K: float = 1.0,
) -> PriceSurface:
    """Per-step primal-dual active set solve of the American put system."""
    _check_time_step(mu, grid)
    bnd = boundary_data(space, "american", K, mu.r)
    a_free = blocks.restrict(assemble_operator(mu, blocks))
    m_free = blocks.mass_free
    dt, th = grid.dt, grid.theta
    lhs = (m_free / dt + th * a_free).tocsr()
    rhs_op = (m_free / dt - (1.0 - th) * a_free).tocsr()
    g = obstacle_vector(space, bnd, K)
    d = blocks.d_b_free

    # American lift is static, so f^{k+theta} is time independent
    f = lift_and_rhs(mu, blocks, bnd, dt, 0.0, th)

    n = space.n_free
    U = np.empty((grid.I + 1, n))
    lam_arr = np.zeros((grid.I + 1, n))
    U[0] = _initial_condition(space, bnd, K)
    active = np.zeros(n, dtype=bool)
    for k in range(grid.I):
        rhs = rhs_op @ U[k] + f
        u, lam, active = solve_complementarity(fem_step(lhs, rhs, g, d), g, active)
        if not np.all(np.isfinite(u)):
            raise FloatingPointError(f"non-finite American solution at step {k + 1}")
        U[k + 1] = u
        lam_arr[k + 1] = lam
    return PriceSurface(
        space=space, grid=grid, mu=mu, K=K, style="american", U=U, lam=lam_arr, boundary=bnd
    )


def psor_step(lhs, rhs, g, omega: float = 1.5, tol: float = 1e-10, max_iter: int = 20000, u0=None):
    """Projected SOR solve of lhs u >= rhs-complementarity with obstacle g.

    Reference that the tests check the active-set kernel against; dense
    iteration, use on small systems only.
    """
    A = lhs.toarray()
    n = rhs.size
    u = np.maximum(rhs / np.diag(A), g) if u0 is None else np.maximum(u0, g).copy()
    for _ in range(max_iter):
        u_old = u.copy()
        for i in range(n):
            s = rhs[i] - A[i] @ u + A[i, i] * u[i]
            u[i] = max(u[i] + omega * (s / A[i, i] - u[i]), g[i])
        if np.abs(u - u_old).max() < tol:
            break
    return u


def interpolate_in_time(grid: TimeGrid, maturity: float, level_value) -> float:
    """Value at a maturity from a function of the time level.

    A maturity on the grid (within STEP_TOL) returns exactly level_value(k).
    Otherwise the value is linear in time between the two adjacent levels,
    which is second order in dt like Crank-Nicolson.  Maturities beyond the
    horizon raise ValueError.
    """
    k = maturity / grid.dt
    if abs(k - round(k)) <= STEP_TOL * max(1.0, abs(k)):
        return level_value(grid.step_of(maturity))
    if not 0.0 < k < grid.I:
        raise ValueError(f"maturity {maturity} outside the grid horizon")
    k0 = int(k)
    w = k - k0
    return (1.0 - w) * level_value(k0) + w * level_value(k0 + 1)


def price_at(surface: PriceSurface, S0: float, K_i: float, nu0: float, T_i: float) -> float:
    """Price one quote by point evaluation and strike homogeneity.

    Evaluates the stored unit-strike surface at (nu0, log(S0/K_i)) and at
    T_i, scaled by K_i / K_solve.  An on-grid T_i uses its time level; an
    off-grid one is interpolated linearly between the adjacent levels (see
    interpolate_in_time).
    """
    x = float(np.log(S0 / K_i))
    if T_i == 0.0:
        return float(max(K_i - S0, 0.0))

    def level_value(k: int) -> float:
        return evaluate_p1(surface.space, surface.full_values(k), (nu0, x))

    value = interpolate_in_time(surface.grid, T_i, level_value)
    return value * K_i / surface.K
