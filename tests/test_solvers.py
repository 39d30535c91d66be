import numpy as np
import pytest

from hestoncal.heston_operator import (
    assemble_operator,
    boundary_data,
    lift_and_rhs,
    obstacle_vector,
)
from hestoncal.mesh import Domain2D, assemble_blocks, build_mesh, evaluate_p1
from hestoncal.params import ModelParams
from hestoncal.solvers import (
    TimeGrid,
    fem_step,
    interpolate_in_time,
    price_at,
    principal_pivoting,
    psor_step,
    solve_american,
    solve_european,
)

MU = ModelParams(0.7, -0.8, 0.3, 1.4, 0.05)
MU_R0 = ModelParams(0.7, -0.8, 0.3, 1.4, 0.0)


@pytest.fixture(scope="module")
def fem():
    space = build_mesh(Domain2D(), 20, 20)
    return space, assemble_blocks(space)


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(T=1.0, I=25)


def test_time_grid():
    g = TimeGrid(T=2.0, I=8)
    assert g.dt == 0.25
    assert g.step_of(0.5) == 2
    with pytest.raises(ValueError):
        g.step_of(0.3)
    with pytest.raises(ValueError):
        g.step_of(3.0)


def test_interpolate_in_time_is_linear_between_levels():
    g = TimeGrid(T=2.0, I=8)

    def level(k):
        return 3.0 * k + 1.0

    assert interpolate_in_time(g, 0.5, level) == 7.0
    assert interpolate_in_time(g, 0.3, level) == pytest.approx(3.0 * 1.2 + 1.0, rel=1e-14)
    with pytest.raises(ValueError):
        interpolate_in_time(g, 2.1, level)
    with pytest.raises(ValueError):
        interpolate_in_time(g, -0.1, level)


def test_price_at_on_grid_maturity_is_its_level(fem, grid):
    space, blocks = fem
    am = solve_american(MU, space, blocks, grid, 1.0)
    for k in (1, 12, 25):
        for K in (0.9, 1.1):
            level = evaluate_p1(space, am.full_values(k), (0.3, np.log(1.0 / K)))
            assert price_at(am, 1.0, K, 0.3, k * grid.dt) == level * K


def test_price_at_off_grid_maturity_blends_adjacent_levels(fem, grid):
    space, blocks = fem
    for solver in (solve_european, solve_american):
        surf = solver(MU, space, blocks, grid, 1.0)
        for T in (0.5, 0.73, 0.99):
            k = T / grid.dt
            k0 = int(k)
            w = k - k0
            for K in (0.9, 1.0, 1.2):
                p0 = price_at(surf, 1.0, K, 0.3, k0 * grid.dt)
                p1 = price_at(surf, 1.0, K, 0.3, (k0 + 1) * grid.dt)
                p = price_at(surf, 1.0, K, 0.3, T)
                assert p == pytest.approx((1.0 - w) * p0 + w * p1, rel=1e-12)
                assert min(p0, p1) <= p <= max(p0, p1)


def test_price_at_beyond_horizon_raises(fem, grid):
    space, blocks = fem
    eu = solve_european(MU, space, blocks, grid, 1.0)
    with pytest.raises(ValueError, match="horizon"):
        price_at(eu, 1.0, 1.0, 0.3, 1.5)


def test_american_dominates_european(fem, grid):
    """Domination and positivity at the price level over interior points.

    Raw wall values are excluded: the two styles use different Dirichlet
    conventions (discounted strike vs payoff), which differ by O(K e^{x_min}).
    """
    space, blocks = fem
    eu = solve_european(MU, space, blocks, grid, 1.0)
    am = solve_american(MU, space, blocks, grid, 1.0)
    for nu0 in (0.05, 0.1, 0.3, 0.5, 0.8):
        for K in np.linspace(0.75, 1.25, 11):
            p_eu = price_at(eu, 1.0, K, nu0, 1.0)
            p_am = price_at(am, 1.0, K, nu0, 1.0)
            assert p_am >= p_eu - 1e-9
            assert p_eu >= -1e-9


def test_complementarity_and_obstacle(fem, grid):
    space, blocks = fem
    K = 1.0
    am = solve_american(MU, space, blocks, grid, K)
    bnd = boundary_data(space, "american", K, MU.r)
    g = obstacle_vector(space, bnd, K)
    for k in range(1, grid.I + 1):
        assert np.min(am.U[k] - g) >= -1e-10
        assert np.all(am.lam[k] >= 0.0)
        assert np.max(np.abs(am.lam[k] * (am.U[k] - g))) <= 1e-8 * K


def test_r0_american_equals_european_fem():
    """Without interest, early exercise of a put is never optimal.

    At FEM level the comparison uses matched (payoff) wall data, and the
    tolerance reflects discretization: the exact time value shrinks to zero
    toward the degenerate variance wall and deep in the money, so ordinary
    discretization error makes the obstacle bind spuriously there, lifting
    the American solution by O(h) amounts.  The bit-level version of the
    property is asserted on the binomial lattice (test_trees), where the
    continuation value dominates intrinsic exactly.
    """
    space = build_mesh(Domain2D(), 33, 33)
    blocks = assemble_blocks(space)
    grid = TimeGrid(T=1.0, I=50)
    bnd = boundary_data(space, "american", 1.0, 0.0)
    eu = solve_european(MU_R0, space, blocks, grid, 1.0, boundary=bnd)
    am = solve_american(MU_R0, space, blocks, grid, 1.0)
    for K in (0.9, 1.0, 1.1):
        p_eu = price_at(eu, 1.0, K, 0.3, 1.0)
        p_am = price_at(am, 1.0, K, 0.3, 1.0)
        assert 0.0 <= p_am - p_eu <= 2.5e-3


def test_price_monotone_in_strike(fem, grid):
    space, blocks = fem
    am = solve_american(MU, space, blocks, grid, 1.0)
    prices = [price_at(am, 1.0, K, 0.3, 1.0) for K in np.linspace(0.7, 1.3, 13)]
    assert np.all(np.diff(prices) > 0)


def test_zero_maturity_is_intrinsic(fem, grid):
    space, blocks = fem
    eu = solve_european(MU, space, blocks, grid, 1.0)
    assert price_at(eu, 1.0, 1.2, 0.3, 0.0) == pytest.approx(0.2)
    assert price_at(eu, 1.0, 0.8, 0.3, 0.0) == 0.0


def test_strike_homogeneity(fem, grid):
    """Pricing K=2 via the unit-strike surface equals a direct K=2 solve."""
    space, blocks = fem
    s1 = solve_european(MU, space, blocks, grid, 1.0)
    s2 = solve_european(MU, space, blocks, grid, 2.0)
    p_scaled = price_at(s1, 1.0, 2.0, 0.3, 1.0)
    p_direct = price_at(s2, 1.0, 2.0, 0.3, 1.0)
    assert p_scaled == pytest.approx(p_direct, rel=1e-10)


def test_temporal_convergence():
    """Crank-Nicolson in time: error vs a fine reference drops ~2nd order."""
    space = build_mesh(Domain2D(), 16, 16)
    blocks = assemble_blocks(space)

    def price(I):
        surf = solve_european(MU, space, blocks, TimeGrid(T=1.0, I=I), 1.0)
        return price_at(surf, 1.0, 1.0, 0.3, 1.0)

    ref = price(256)
    e1, e2 = abs(price(8) - ref), abs(price(16) - ref)
    rate = np.log2(e1 / e2)
    assert rate > 1.5, f"observed temporal rate {rate:.2f}"


def _psor_cross_check_step():
    """First step of a 10 x 10 American solve: (lhs, rhs, g, d, am)."""
    space = build_mesh(Domain2D(), 10, 10)
    blocks = assemble_blocks(space)
    grid = TimeGrid(T=0.5, I=5)
    K = 1.0
    bnd = boundary_data(space, "american", K, MU.r)
    a_free = blocks.restrict(assemble_operator(MU, blocks))
    lhs = (blocks.mass_free / grid.dt + grid.theta * a_free).tocsr()
    rhs_op = (blocks.mass_free / grid.dt - (1 - grid.theta) * a_free).tocsr()
    g = obstacle_vector(space, bnd, K)
    f = lift_and_rhs(MU, blocks, bnd, grid.dt, 0.0, grid.theta)

    am = solve_american(MU, space, blocks, grid, K)
    rhs = rhs_op @ am.U[0] + f
    return lhs, rhs, g, blocks.d_b_free, am


def test_psor_cross_check():
    """The active-set solution solves the same complementarity as PSOR."""
    lhs, rhs, g, _, am = _psor_cross_check_step()
    u_psor = psor_step(lhs, rhs, g, tol=1e-12)
    assert np.max(np.abs(u_psor - am.U[1])) < 1e-7


def test_fem_pivoting_from_empty_set_matches_psor():
    """The kernel's fallback alone, started from no active node."""
    lhs, rhs, g, d, am = _psor_cross_check_step()
    u, lam, active = principal_pivoting(fem_step(lhs, rhs, g, d), g, np.zeros(g.size, dtype=bool))
    u_psor = psor_step(lhs, rhs, g, tol=1e-12)
    assert active.any()
    assert np.max(np.abs(u - u_psor)) < 1e-7
    # same solution as the Newton path; degenerate nodes (lam = 0, u = g)
    # may sit on either side of the active set
    assert np.max(np.abs(u - am.U[1])) <= 1e-12
    assert np.max(np.abs(lam - am.lam[1])) <= 1e-12 * np.abs(am.lam[1]).max()


def test_european_boundary_consistency(fem, grid):
    """Deep-ITM European value approaches the discounted strike."""
    space, blocks = fem
    eu = solve_european(MU, space, blocks, grid, 1.0)
    w = eu.full_values(grid.I)
    on_wall = w[space.dirichlet_x_min]
    assert np.allclose(on_wall, np.exp(-MU.r * grid.T), rtol=1e-12)
