"""Full-order time stepping for European and American put surfaces, and the
time loop and active-set kernel shared with the reduced model.

Every solve, detailed or reduced (rbm.solve_reduced), is of the unit-strike
put and is one Crank-Nicolson loop (theta = heston_operator.THETA), march:
step k solves with the right-hand side rhs_op @ U[k] + load(k),
where load is the lift load of heston_operator.lift_and_rhs.  The European
problem is a linear solve per step.  The American problem couples it with
the componentwise obstacle through a diagonal biorthogonal pairing, so every
step is the complementarity problem

    c >= g,  lam >= 0,  lam . (c - g) = 0,

with c = u here and c = B a in the reduced model.
solve_complementarity solves it by one active-set loop: block principal
pivoting, whose block step is the primal-dual active set (semismooth
Newton) step of Hintermueller, Ito and Kunisch 2002, with Murty's
least-index rule as its finite-termination safeguard (Judice and Pires
1994).  It sees the problem only through a callback solve(active, key) ->
(x, lam, c), key being the set's tobytes(), which the kernel derives once
per candidate set and hands over with it.  march builds the callback once
per solve from a pure per-set factorization factor(active) -> solve(rhs)
(fem_step, rbm._schur_step) and the one slot that keeps the last set's
factorization across the loop's iterations and theta-steps; the slot compares
the handed key with the held set's.  march also computes |g|_inf, part of
the kernel's KKT scale, once per solve.  A FEM set's LU is of the
principal inactive block of the step matrix alone,
lhs_II u_I = rhs_I - lhs_IA g_A, with the multipliers
lam_A = (lhs u - rhs)_A / d_A read from the active rows' residuals.  One
band order per mesh (mesh.band_order) serves all of a FEM solve's LUs: each
is a NATURAL factorization of a block in that order, restricted to the
block's nodes.  It beats a minimum-degree ordering up to about 48 intervals
per side and loses above: on the 97 x 97 mesh of the de-Americanization
study (scripts/deamericanization_study.py, run by acceptance criterion 4),
each LU takes about twice as long.

Every solve returns the one surface type, PriceSurface: a coefficient
trajectory U in a basis of the free DOFs (psi for a reduced solve, the
identity for a FEM solve) plus the Dirichlet lift.  price_at is the one quote
lookup: it prices a whole quote vector in one array pass of gathers, and
off-grid maturities are priced by linear interpolation in time between the
adjacent levels (interpolate_in_time); they are never snapped to a level.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .heston_operator import (
    THETA,
    BoundaryData,
    assemble_operator,
    boundary_data,
    garding_shift_estimate,
    lift_and_rhs,
    payoff_vector,
)
from .mesh import MASS, AssemblyBlocks, FemSpace, band_order, evaluate_p1, evaluation_row
from .params import ModelParams

#: Cap on the iterations, block steps and Murty steps together, of one
#: complementarity solve.
MAX_ITER = 500
#: Block steps in a row that may fail to lower the count of infeasible rows
#: below its best before Murty's rule takes over: the longest such run among
#: the solves that block steps alone finish in the tests, the acceptance
#: criteria and the benchmark, 15 in one step of criterion 2's calibration.
BLOCK_BUDGET = 15
#: Relative KKT tolerance, scaled by max(1, |c|, |g|): the loop accepts an
#: iterate within it whose active set still flickers on round-off ties.
KKT_TOL = 1e-11
#: Relative tolerance within which a maturity counts as a time level.
STEP_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid of the Crank-Nicolson solves; t runs from 0 to the horizon."""

    T: float
    I: int

    def __post_init__(self):
        try:
            steps = operator.index(self.I)
        except TypeError:
            raise ValueError(f"time steps must be an integer, got {self.I!r}") from None
        if not (math.isfinite(self.T) and self.T > 0) or steps < 1:
            raise ValueError(f"require a finite T > 0 and I >= 1, got T={self.T!r}, I={steps}")

    @property
    def dt(self) -> float:
        return self.T / self.I


@dataclass
class PriceSurface:
    """One unit-strike solve, detailed or reduced, as coefficient trajectories.

    The free-DOF values at time level k are basis @ U[k]: basis is psi
    (n_free, N) for a reduced solve and None, the identity, for a FEM solve.
    The full nodal values add the Dirichlet lift
    boundary.scale(k * dt) * boundary.shape.  lam[k] holds the multipliers
    (American only, lam[0] = 0), in dual cone coordinates for a reduced solve.
    """

    space: FemSpace
    grid: TimeGrid
    boundary: BoundaryData
    basis: np.ndarray | None = field(repr=False)
    U: np.ndarray = field(repr=False)  # (I+1, n_free) or (I+1, N)
    lam: np.ndarray | None = field(default=None, repr=False)


def _check_time_step(mu: ModelParams, grid: TimeGrid) -> None:
    lam_a = garding_shift_estimate(mu)
    if grid.dt >= 1.0 / (THETA * lam_a):
        warnings.warn(
            f"time step dt={grid.dt:g} may violate the stability bound "
            f"1/(theta*lambda_a)={1.0 / (THETA * lam_a):g}",
            stacklevel=4,
        )


class LCPError(RuntimeError):
    """A complementarity solve that the active-set loop did not finish."""

    def __init__(self, n: int, pivots: int, residual: float, reason: str):
        super().__init__(
            f"complementarity problem with n={n} not solved after {pivots} iterations "
            f"({reason}); KKT residual {residual:.3e}"
        )
        self.n = n
        self.pivots = pivots
        self.residual = residual
        self.reason = reason

    def __reduce__(self):
        # pickle and copy rebuild from the fields, not from the message alone
        return type(self), (self.n, self.pivots, self.residual, self.reason)


def solve_complementarity(solve, g, active, g_max):
    """Block principal pivoting solve of c >= g, lam >= 0, lam . (c - g) = 0.

    solve(active, key) returns (x, lam, c): the primal solution x of the
    system with c = g on the active rows, the multiplier lam (zero off them)
    and the constrained quantity c; key is active.tobytes(), derived here
    once per candidate set so that the callback need not derive it again.
    g_max is |g|_inf, which the caller computes once per solve.  A block
    step moves to the set {lam > c - g}, and the KKT test reads the same
    slack c - g.  This is the set {lam + (g - c) > 0}: g - c rounds to
    -(c - g) exactly, and a rounded sum is positive exactly when the exact
    one is.  The loop ends when the block step keeps the set, or at an
    iterate within KKT_TOL, accepted even while its set still flickers on
    round-off ties.  Sets are compared by their keys.

    Otherwise it counts the infeasible rows, those whose basic variable
    (lam on the active set, the slack c - g off it) is below -tol.  It takes
    the block step while the count beats the best of this solve, and for up
    to BLOCK_BUDGET steps in a row that do not; then Murty's rule flips the
    least infeasible index alone, until the count beats the best again
    (Judice and Pires, Comput. Oper. Res. 1994).  When the problem's matrix
    is a P-matrix this ends at the unique solution from any start: the best
    count falls at most n times, and Murty's rule alone is finite (Murty
    1974).  That holds for the theta-step FEM matrix and for the reduced
    Schur complement whenever their symmetric parts are positive definite.
    MAX_ITER iterations, or a Murty step without an infeasible row, raise
    LCPError.  Returns (x, lam, active).
    """
    key = active.tobytes()
    best, budget = g.size + 1, BLOCK_BUDGET
    for iteration in range(MAX_ITER):
        x, lam, c = solve(active, key)
        slack = c - g
        new_active = lam > slack
        new_key = new_active.tobytes()
        if new_key == key:
            return x, lam, active
        tol = KKT_TOL * max(1.0, np.abs(c).max(), g_max)
        low = np.minimum(lam, slack)
        if low.min() >= -tol:
            return x, np.maximum(lam, 0.0), active
        infeasible = np.where(active, lam, slack) < -tol
        count = np.count_nonzero(infeasible)
        if count < best:
            best, budget = count, BLOCK_BUDGET
        elif budget:
            budget -= 1
        elif count:
            new_active = active.copy()
            i = infeasible.argmax()
            new_active[i] = not active[i]
            new_key = new_active.tobytes()
        else:
            raise LCPError(g.size, iteration, float(np.abs(low).max()), "KKT residual above tolerance")
        active, key = new_active, new_key
    raise LCPError(g.size, MAX_ITER, float(np.abs(low).max()), "iteration cap")


def fem_step(lhs, g, d, order):
    """Per-set factorizations of the theta-steps of one FEM solve.

    fem_step(lhs, g, d, order)(active) factorizes the step lhs @ u - diag(d) lam = rhs
    with c = u on one active set A and returns its solve(rhs) -> (u, lam, u).
    The active rows are fixed at u_A = g_A, so only the principal inactive
    block is factorized (the semismooth Newton step of Hintermueller, Ito and
    Kunisch 2002):

        lhs_II u_I = rhs_I - lhs_IA g_A,

    and the multiplier of an active row is the residual of its original
    equation divided by the pairing weight, lam_A = (lhs u - rhs)_A / d_A.
    It keeps no state: march holds the one slot that reuses a set's
    factorization.

    One symmetric order of the free DOFs serves every block: fem_step
    restricts order (a permutation of range(n), the mesh's band_order in a
    solve) to each set's inactive nodes, so every block is factorized with
    permc_spec="NATURAL" and no splu call orders columns.  Up to about 48
    intervals per side the band order factorizes faster than a
    minimum-degree one at about the same fill.  Above that minimum degree
    is faster: on the 97 x 97 mesh of the de-Americanization study, which
    acceptance criterion 4 runs, each LU takes about twice as long in the
    band order.
    A block is read from the symmetrically permuted lhs, held in CSC, by
    keeping the entries whose row and column are both inactive; it equals
    lhs[free][:, free] in canonical CSC entry for entry, free being the
    inactive nodes in that order.  The all-active set gives a 0 x 0 block,
    which SuperLU factorizes like any other.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = g.size
    csc = lhs.tocsr()[order][:, order].tocsc()
    rows = csc.indices
    cols = np.repeat(np.arange(n), np.diff(csc.indptr))

    def factor(active):
        inactive = ~active[order]
        free = order[inactive]
        keep = inactive[rows] & inactive[cols]
        renumber = np.cumsum(inactive) - 1
        indptr = np.concatenate(([0], np.cumsum(np.bincount(renumber[cols[keep]], minlength=free.size))))
        block = sp.csc_matrix((csc.data[keep], renumber[rows[keep]], indptr), shape=(free.size, free.size))
        lu = spla.splu(block, permc_spec="NATURAL")
        g_active = np.where(active, g, 0.0)
        offset = (lhs @ g_active)[free]
        idx = np.flatnonzero(active)

        def solve(rhs):
            u = g_active.copy()
            u[free] = lu.solve(rhs[free] - offset)
            lam = np.zeros(n)
            if idx.size:
                lam[idx] = (lhs @ u - rhs)[idx] / d[idx]
            return u, lam, u

        return solve

    return factor


def march(u0, rhs_op, load, I: int, step, g=None):
    """The theta-scheme time loop of every detailed and reduced solve.

    Step k solves with the right-hand side rhs_op @ U[k] + load(k).  Without
    an obstacle g, step(rhs) returns U[k+1].  With one, step(active)
    factorizes an active set's step matrix and returns its solve(rhs) ->
    (x, lam, c), and each step is solve_complementarity started from the
    previous step's set, with |g|_inf computed once here.  The kernel's
    callback is built once per solve and reads the current step's
    right-hand side.  It holds the one slot, which keeps the last
    factorization across the loop's iterations and steps: the kernel hands each
    set with its tobytes() key, and the slot compares that key with the held
    set's.  The held factorization is dropped before the next is built.
    Returns (U, lam), lam None without an obstacle and lam[0] = 0 with one.
    The trajectory is checked once after the loop: a non-finite U raises
    FloatingPointError naming its first step.
    """
    U = np.empty((I + 1, u0.size))
    U[0] = u0
    lam = None
    if g is None:
        for k in range(I):
            U[k + 1] = step(rhs_op @ U[k] + load(k))
    else:
        lam = np.zeros((I + 1, g.size))
        active = np.zeros(g.size, dtype=bool)
        g_max = np.abs(g).max(initial=0.0)  # 0.0 for an empty obstacle
        key, factorization, rhs = None, None, None

        def solve(active, set_key):
            nonlocal key, factorization
            if set_key != key:
                factorization = None  # first: two factorizations alive at once raise peak memory
                key, factorization = set_key, step(active)
            return factorization(rhs)

        for k in range(I):
            rhs = rhs_op @ U[k] + load(k)
            U[k + 1], lam[k + 1], active = solve_complementarity(solve, g, active, g_max)
    if not np.isfinite(U).all():
        k = int(np.argmin(np.isfinite(U).all(axis=1)))
        raise FloatingPointError(f"non-finite solution at step {k}")
    return U, lam


def step_matrices(blocks: AssemblyBlocks, a_values: np.ndarray, dt: float):
    """The theta-step matrices lhs = M/dt + THETA A and rhs_op = M/dt - (1 - THETA) A
    on the free DOFs, for the operator values A of assemble_operator.

    Both are entrywise sums on the blocks' pattern, with M/dt scaled as
    M * (1/dt), restricted by free_matrix: the matrices SciPy's sums of the
    restricted sparse matrices give, bit for bit.
    """
    m_dt = blocks.a_values[MASS] * (1.0 / dt)
    return blocks.free_matrix(m_dt + THETA * a_values), blocks.free_matrix(m_dt - (1.0 - THETA) * a_values)


def _solve_detailed(style, mu, space, blocks, grid):
    """The FEM solve of one style behind solve_european and solve_american."""
    import scipy.sparse.linalg as spla

    _check_time_step(mu, grid)
    bnd = boundary_data(space, style, mu.r)
    a = assemble_operator(mu, blocks)
    free = space.free
    dt = grid.dt
    mlift, alift = ((blocks.pattern.matrix(v) @ bnd.shape)[free] for v in (blocks.a_values[MASS], a))
    load = lift_and_rhs(mlift, alift, bnd, dt)
    lhs, rhs_op = step_matrices(blocks, a, dt)
    # freed before the time loop: held across it, the heap tends to return
    # and re-fault the LU pages, 6-13k minor faults per three 33 x 33,
    # I = 125 solves after a warm-up one against 4-6k (ru_minflt,
    # PYTHONHASHSEED 0-3)
    del a
    payoff = payoff_vector(space)
    if style == "european":
        U, lam = march(payoff, rhs_op, load, grid.I, spla.splu(lhs.tocsc()).solve)
    else:
        step = fem_step(lhs, payoff, blocks.d_b_free, band_order(space))
        U, lam = march(payoff, rhs_op, load, grid.I, step, payoff)
    return PriceSurface(space=space, grid=grid, boundary=bnd, basis=None, U=U, lam=lam)


def solve_european(mu: ModelParams, space: FemSpace, blocks: AssemblyBlocks, grid: TimeGrid) -> PriceSurface:
    """Crank-Nicolson solve of the unit-strike European put on the free DOFs."""
    return _solve_detailed("european", mu, space, blocks, grid)


def solve_american(mu: ModelParams, space: FemSpace, blocks: AssemblyBlocks, grid: TimeGrid) -> PriceSurface:
    """Per-step primal-dual active set solve of the unit-strike American put system."""
    return _solve_detailed("american", mu, space, blocks, grid)


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


def interpolate_in_time(grid: TimeGrid, maturities):
    """Adjacent time levels and blend weights of an array of maturities.

    Returns (k0, k1, w): the value at maturity i is
    (1 - w_i) v[k0_i] + w_i v[k1_i] for values v per time level.  A maturity
    on the grid (within STEP_TOL) has w = 0 and k1 = k0, so it gets exactly
    its level's value.  Otherwise the value is linear in time between the two
    adjacent levels, which is second order in dt like Crank-Nicolson.
    Maturities beyond the horizon raise ValueError.
    """
    T = np.asarray(maturities, dtype=float)
    k = T / grid.dt
    nearest = np.round(k)
    k = np.where(np.abs(k - nearest) <= STEP_TOL * np.maximum(1.0, np.abs(k)), nearest, k)
    outside = ~((0 <= k) & (k <= grid.I))
    if outside.any():
        raise ValueError(f"maturity {T[outside].flat[0]} outside the grid horizon")
    k0 = k.astype(np.int64)
    w = k - k0
    return k0, np.where(w > 0, k0 + 1, k0), w


def price_at(surface: PriceSurface, S0: float, strikes, nu0: float, maturities):
    """Put prices of quotes (K_i, T_i) from one unit-strike surface.

    strikes and maturities broadcast; scalars give a 0-d array.  Quote i is the
    surface at the point (nu0, log(S0/K_i)) and maturity T_i, scaled by K_i.
    One pass serves every quote: evaluation_row locates all points, and
    evaluate_p1 interpolates the lift and, through space.free_index with a
    Dirichlet node's weight zero, the free part from psi's rows (or, for a
    FEM surface, U's columns); one product then gives a reduced surface's
    values at every time level.  Off-grid maturities blend the adjacent
    levels (interpolate_in_time).  A point outside the domain or a
    maturity beyond the horizon raises ValueError.
    """
    strikes, maturities = np.broadcast_arrays(strikes, maturities)
    shape = strikes.shape
    strikes, maturities = strikes.ravel(), maturities.ravel()
    space, grid, bnd = surface.space, surface.grid, surface.boundary
    rows = evaluation_row(space, nu0, np.log(S0 / strikes))
    lift = evaluate_p1(rows, bnd.shape)
    nodes, weights = rows
    w_free = np.where(space.dirichlet[nodes], 0.0, weights)
    by_free_dof = surface.U.T if surface.basis is None else surface.basis  # a view, not a copy
    free = evaluate_p1((space.free_index[nodes], w_free), by_free_dof)  # (quote, time level or N)
    at_levels = free if surface.basis is None else free @ surface.U.T  # (quote, time level)
    quote = np.arange(strikes.size)

    def at(k):
        return at_levels[quote, k] + lift * bnd.scale(k * grid.dt)

    k0, k1, w = interpolate_in_time(grid, maturities)
    return (((1.0 - w) * at(k0) + w * at(k1)) * strikes).reshape(shape)
