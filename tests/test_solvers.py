import copy
import pickle
import weakref
from collections import Counter
from dataclasses import replace

import fem_oracle
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from fem_oracle import THREE_MU, assert_same_csr

from hestoncal import rbm, solvers
from hestoncal.calibration import CalibParams, ReducedBackend, localized_box
from hestoncal.heston_operator import THETA, assemble_operator, boundary_data, payoff_vector
from hestoncal.mesh import Domain2D, assemble_blocks, band_order, build_mesh, evaluate_p1, evaluation_row
from hestoncal.params import DEFAULT_CALIB_BOX, DEFAULT_PARAM_BOX, ModelParams
from hestoncal.quotes import synthetic_layout
from hestoncal.rbm import (
    GreedyConfig,
    make_training_grid,
    pod_angle_greedy_american,
    pod_greedy,
    solve_reduced,
)
from hestoncal.solvers import (
    KKT_TOL,
    LCPError,
    TimeGrid,
    fem_step,
    interpolate_in_time,
    price_at,
    principal_pivoting,
    psor_step,
    solve_american,
    solve_complementarity,
    solve_european,
    step_matrices,
)

MU = ModelParams(0.7, -0.8, 0.3, 1.4, 0.05)
MU_R0 = ModelParams(0.7, -0.8, 0.3, 1.4, 0.0)
#: The benchmark ladder's solve: 33 x 33 mesh, I = 125 steps over T = 2.
LADDER_GRID = TimeGrid(T=2.0, I=125)


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
    assert g.I * g.dt == 2.0
    with pytest.raises(ValueError):
        TimeGrid(T=0.0, I=8)
    # an infinite horizon priced the at-the-money put at 0, a nan one died in splu
    for horizon in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite T > 0"):
            TimeGrid(T=horizon, I=8)
    for steps in (2.5, 125.0, "125", None):
        with pytest.raises(ValueError, match="time steps must be an integer"):
            TimeGrid(T=2.0, I=steps)
    # NumPy integers are integers
    assert TimeGrid(T=2.0, I=np.int64(8)).dt == 0.25


def test_interpolate_in_time_is_linear_between_levels():
    g = TimeGrid(T=2.0, I=8)
    level = 3.0 * np.arange(g.I + 1) + 1.0
    k0, k1, w = interpolate_in_time(g, [0.5, 0.5 * (1.0 + 1e-12), 2.0, 0.0, 0.3])
    assert k0.tolist() == [2, 2, 8, 0, 1] and k1.tolist() == [2, 2, 8, 0, 2]
    assert w[:4].tolist() == [0.0] * 4
    value = (1.0 - w) * level[k0] + w * level[k1]
    assert value[:4].tolist() == [7.0, 7.0, 25.0, 1.0]
    assert value[4] == pytest.approx(3.0 * 1.2 + 1.0, rel=1e-14)
    for beyond in (2.1, -0.1, [0.5, 2.1]):
        with pytest.raises(ValueError, match="horizon"):
            interpolate_in_time(g, beyond)


def _full_values(surf, k):
    """Full nodal values of a FEM surface at time level k: lift plus U[k]."""
    w = surf.boundary.scale(k * surf.grid.dt) * surf.boundary.shape
    w[surf.space.free] += surf.U[k]
    return w


def test_price_at_on_grid_maturity_is_its_level(fem, grid):
    space, blocks = fem
    # the last strike's point lies in a cell at the x_min wall, where the lift is nonzero
    strikes = np.array([0.9, 1.1, np.exp(4.8)])
    rows = evaluation_row(space, 0.3, np.log(1.0 / strikes))
    for solver in (solve_european, solve_american):
        surf = solver(MU, space, blocks, grid)
        for k in (1, 12, 25):
            level = evaluate_p1(rows, _full_values(surf, k))
            got = price_at(surf, 1.0, strikes, 0.3, k * grid.dt)
            assert np.allclose(got, level * strikes, rtol=1e-14, atol=0.0)


def _sparse_price_at(surface, S0, strikes, nu0, maturities):
    """The quote lookup as a sparse product: a CSR matrix of interpolation
    rows, its free columns projected onto the basis and multiplied by U^T."""
    space, grid, bnd = surface.space, surface.grid, surface.boundary
    nodes, weights = evaluation_row(space, nu0, np.log(S0 / strikes))
    rows = sp.csr_matrix(
        (weights.ravel(), nodes.ravel(), np.arange(0, weights.size + 1, 3)),
        shape=(strikes.size, space.n_nodes),
    )
    free = rows[:, space.free]
    if surface.basis is not None:
        free = free @ surface.basis
    at_levels = free @ surface.U.T
    lift = rows @ bnd.shape
    quote = np.arange(strikes.size)

    def at(k):
        return at_levels[quote, k] + lift * bnd.scale(k * grid.dt)

    k0, k1, w = interpolate_in_time(grid, maturities)
    return ((1.0 - w) * at(k0) + w * at(k1)) * strikes


def test_price_at_equals_the_sparse_lookup_bit_for_bit(fem, grid, toy, toy_train, toy_american):
    """The gathered lookup prices every quote exactly as the sparse product
    does, for FEM and reduced surfaces of both styles, on and off the time
    grid, with the last strike's cell at the x_min wall (nonzero lift)."""
    mu = ModelParams(0.35, -0.45, 0.15, 1.25, 0.2)
    toy_space, toy_blocks, toy_grid = toy
    european = pod_greedy("european", toy_train[:4], toy_space, toy_blocks, toy_grid, GreedyConfig(n_max=8))
    surfaces = [
        solve_european(mu, *fem, grid),
        solve_american(mu, *fem, grid),
        solve_reduced(european, mu),
        solve_reduced(toy_american, mu),
    ]
    strikes = np.array([0.8, 0.9, 1.0, 1.05, 1.2, np.exp(4.8)])
    for surf in surfaces:
        dt = surf.grid.dt
        for maturities in (np.full(6, 10 * dt), (np.arange(1, 7) + 0.37) * dt, np.linspace(dt, 1.0, 6)):
            for nu0 in (0.05, 0.3):
                got = price_at(surf, 1.0, strikes, nu0, maturities)
                want = _sparse_price_at(surf, 1.0, strikes, nu0, maturities)
                assert got.tobytes() == want.tobytes()


def test_price_at_vector_matches_scalar_calls_and_broadcasts(fem, grid):
    """One array call prices like one call per quote, in the input's shape."""
    space, blocks = fem
    for solver in (solve_european, solve_american):
        surf = solver(MU, space, blocks, grid)
        strikes = np.array([[0.8, 1.0, 1.2], [1.1, 0.9, 1.0]])
        maturities = np.array([[0.2, 0.73, 1.0], [0.5, 0.5, 0.99]])
        got = price_at(surf, 1.0, strikes, 0.3, maturities)
        assert got.shape == (2, 3)
        for K, T, p in zip(strikes.ravel(), maturities.ravel(), got.ravel()):
            assert p == pytest.approx(price_at(surf, 1.0, K, 0.3, T), rel=1e-14)
        # scalars give a 0-d array
        one = price_at(surf, 1.0, 1.0, 0.3, 0.5)
        assert isinstance(one, np.ndarray) and one.shape == ()
        at_one = price_at(surf, 1.0, strikes[0], 0.3, 1.0)
        assert np.array_equal(at_one, price_at(surf, 1.0, strikes[0], 0.3, np.ones(3)))


def test_price_at_off_grid_maturity_blends_adjacent_levels(fem, grid):
    space, blocks = fem
    for solver in (solve_european, solve_american):
        surf = solver(MU, space, blocks, grid)
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
    eu = solve_european(MU, space, blocks, grid)
    with pytest.raises(ValueError, match="horizon"):
        price_at(eu, 1.0, 1.0, 0.3, 1.5)
    with pytest.raises(ValueError, match="horizon"):
        price_at(eu, 1.0, [1.0, 1.1], 0.3, [0.5, 1.5])
    # log(S0/K) beyond x_max = 5
    with pytest.raises(ValueError, match="outside the domain"):
        price_at(eu, 1.0, [1.0, 1e-3], 0.3, 0.5)


def test_american_dominates_european(fem, grid):
    """Domination and positivity at the price level over interior points.

    Raw wall values are excluded: the two styles use different Dirichlet
    conventions (discounted strike vs payoff), which differ by O(K e^{x_min}).
    """
    space, blocks = fem
    eu = solve_european(MU, space, blocks, grid)
    am = solve_american(MU, space, blocks, grid)
    for nu0 in (0.05, 0.1, 0.3, 0.5, 0.8):
        for K in np.linspace(0.75, 1.25, 11):
            p_eu = price_at(eu, 1.0, K, nu0, 1.0)
            p_am = price_at(am, 1.0, K, nu0, 1.0)
            assert p_am >= p_eu - 1e-9
            assert p_eu >= -1e-9


def test_complementarity_and_obstacle(fem, grid):
    space, blocks = fem
    am = solve_american(MU, space, blocks, grid)
    g = payoff_vector(space)
    for k in range(1, grid.I + 1):
        assert np.min(am.U[k] - g) >= -1e-10
        assert np.all(am.lam[k] >= 0.0)
        assert np.max(np.abs(am.lam[k] * (am.U[k] - g))) <= 1e-8


def test_r0_american_equals_european_fem(monkeypatch):
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
    am = solve_american(MU_R0, space, blocks, grid)
    # the European solve on the American (payoff) wall data
    monkeypatch.setattr(
        solvers, "boundary_data", lambda space, style, r: boundary_data(space, "american", r)
    )
    eu = solve_european(MU_R0, space, blocks, grid)
    for K in (0.9, 1.0, 1.1):
        p_eu = price_at(eu, 1.0, K, 0.3, 1.0)
        p_am = price_at(am, 1.0, K, 0.3, 1.0)
        assert 0.0 <= p_am - p_eu <= 2.5e-3


def test_price_monotone_in_strike(fem, grid):
    space, blocks = fem
    am = solve_american(MU, space, blocks, grid)
    prices = [price_at(am, 1.0, K, 0.3, 1.0) for K in np.linspace(0.7, 1.3, 13)]
    assert np.all(np.diff(prices) > 0)


def test_temporal_convergence():
    """Crank-Nicolson in time: error vs a fine reference drops ~2nd order."""
    space = build_mesh(Domain2D(), 16, 16)
    blocks = assemble_blocks(space)

    def price(I):
        surf = solve_european(MU, space, blocks, TimeGrid(T=1.0, I=I))
        return price_at(surf, 1.0, 1.0, 0.3, 1.0)

    ref = price(256)
    e1, e2 = abs(price(8) - ref), abs(price(16) - ref)
    rate = np.log2(e1 / e2)
    assert rate > 1.5, f"observed temporal rate {rate:.2f}"


@pytest.mark.parametrize("n, steps", [(8, 10), (33, 125)])
def test_step_matrices_match_the_sparse_sums_bit_for_bit(n, steps):
    """lhs and rhs_op are the matrices SciPy's sums of the restricted mass
    and operator give, M/dt included, at three operators."""
    space = build_mesh(Domain2D(), n, n)
    blocks = assemble_blocks(space)
    dt = TimeGrid(2.0, steps).dt
    oracle = fem_oracle.assemble_blocks(space)
    mass_free = fem_oracle.restrict(space, oracle["mass"])
    for mu in THREE_MU:
        a_free = fem_oracle.restrict(space, fem_oracle.assemble_operator(mu, oracle["a_blocks"]))
        want = fem_oracle.step_matrices(mass_free, a_free, dt, THETA)
        for got, ref in zip(step_matrices(blocks, assemble_operator(mu, blocks), dt), want):
            assert_same_csr(got, ref)


@pytest.mark.parametrize("space", [build_mesh(Domain2D(), 17, 17), fem_oracle.graded_mesh(24, 24)],
                         ids=["17x17", "graded_24x24"])
def test_solves_and_projections_match_the_oracle_matrices_bit_for_bit(space):
    """solve_american and solve_european give the trajectories and multipliers
    that march, with fem_step or SuperLU, gives on the oracle's matrices, at
    three operators; _project_offline's reduced blocks are the oracle's
    matrices projected.  Every array is compared byte for byte."""
    blocks = assemble_blocks(space)
    want = fem_oracle.assemble_blocks(space)
    grid = TimeGrid(2.0, 24)
    for mu in THREE_MU:
        for solve, style in ((solve_american, "american"), (solve_european, "european")):
            surf = solve(mu, space, blocks, grid)
            U, lam = fem_oracle.solve(style, mu, space, want, grid)
            assert surf.U.tobytes() == U.tobytes()
            assert surf.lam is lam is None or surf.lam.tobytes() == lam.tobytes()  # a European solve has none
    rng = np.random.default_rng(5)
    psi, xi = rng.standard_normal((space.n_free, 5)), rng.standard_normal((space.n_free, 3))
    for style in ("american", "european"):
        model = rbm._project_offline(style, space, blocks, grid, psi, xi)
        for name, ref in fem_oracle.project(style, space, want, psi, xi).items():
            assert getattr(model, name).tobytes() == ref.tobytes(), name


def _psor_cross_check_step():
    """First step of a 10 x 10 American solve: (lhs, rhs, g, d, am)."""
    space = build_mesh(Domain2D(), 10, 10)
    blocks = assemble_blocks(space)
    grid = TimeGrid(T=0.5, I=5)
    bnd = boundary_data(space, "american", MU.r)
    a = assemble_operator(MU, blocks)
    a_full, a_free = blocks.pattern.matrix(a), blocks.free_matrix(a)
    lhs = (blocks.mass_free / grid.dt + THETA * a_free).tocsr()
    rhs_op = (blocks.mass_free / grid.dt - (1 - THETA) * a_free).tocsr()
    g = payoff_vector(space)
    f = -(a_full @ bnd.shape)[space.free]  # the static American lift load

    am = solve_american(MU, space, blocks, grid)
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
    factor = fem_step(lhs, g, d, band_order(am.space))
    u, lam, active = principal_pivoting(lambda a, key: factor(a)(rhs), g, np.zeros(g.size, dtype=bool))
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
    eu = solve_european(MU, space, blocks, grid)
    w = _full_values(eu, grid.I)
    on_wall = w[space.dirichlet_x_min]
    assert np.allclose(on_wall, np.exp(-MU.r * grid.T), rtol=1e-12)


def _fresh_step(lhs, rhs, g, d, order):
    """Reference FEM kernel callback solve(active, key), the key unused:
    builds the inactive principal block lhs[free][:, free].tocsc() from new
    sparse objects, free being the inactive nodes in the given order, and
    factorizes it with permc_spec="NATURAL" on every call, as fem_step does.
    u is g on the active set and solves lhs_II u_I = rhs_I - lhs_IA g_A off
    it."""
    n = rhs.size

    def solve(active, key):
        free = order[~active[order]]
        g_active = np.where(active, g, 0.0)
        u = g_active.copy()
        lu = spla.splu(lhs.tocsr()[free][:, free].tocsc(), permc_spec="NATURAL")
        u[free] = lu.solve(rhs[free] - (lhs @ g_active)[free])
        lam = np.zeros(n)
        if active.any():
            lam[active] = (lhs @ u - rhs)[active] / d[active]
        return u, lam, u

    return solve


def _masked_step(lhs, rhs, g, d, order=None):
    """Reference FEM kernel callback solve(active, key), the key unused, on
    the whole step matrix: builds (diag(~A) lhs + diag(A)).tocsc(), whose
    active rows are the identity equations u_p = g_p, from new sparse
    objects and factorizes it on every call.  With an order, the matrix is
    permuted symmetrically by it and factorized with permc_spec="NATURAL";
    without one, SuperLU orders the columns of each matrix itself (COLAMD),
    the reference that the one band order per mesh is held to."""
    n = rhs.size

    def solve(active, key):
        mod = (sp.diags((~active).astype(float)) @ lhs + sp.diags(active.astype(float))).tocsc()
        b = np.where(active, g, rhs)
        if order is None:
            u = spla.splu(mod).solve(b)
        else:
            u = np.empty(n)
            u[order] = spla.splu(mod[order][:, order].tocsc(), permc_spec="NATURAL").solve(b[order])
        lam = np.zeros(n)
        if active.any():
            lam[active] = (lhs @ u - rhs)[active] / d[active]
        return u, lam, u

    return solve


def _american_system(space, blocks, grid, mu=MU):
    """(lhs, rhs_op, f, g, d) of solve_american's theta-steps."""
    bnd = boundary_data(space, "american", mu.r)
    a = assemble_operator(mu, blocks)
    a_full, a_free = blocks.pattern.matrix(a), blocks.free_matrix(a)
    lhs = (blocks.mass_free / grid.dt + THETA * a_free).tocsr()
    rhs_op = (blocks.mass_free / grid.dt - (1 - THETA) * a_free).tocsr()
    f = -(a_full @ bnd.shape)[space.free]  # the static American lift load
    return lhs, rhs_op, f, payoff_vector(space), blocks.d_b_free


@pytest.fixture(scope="module")
def ladder_fem():
    space = build_mesh(Domain2D(), 33, 33)
    return space, assemble_blocks(space)


def test_fem_step_masked_matrix_and_solution_are_exact(fem, grid, monkeypatch):
    """The masked build of each set's inactive block gives the fresh block
    reference bit for bit, and the whole masked step matrix within 1e-10."""
    space, blocks = fem
    lhs, rhs_op, f, g, d = _american_system(space, blocks, grid)
    rng = np.random.default_rng(5)
    rhs = rhs_op @ rng.uniform(0.0, 0.5, g.size) + f
    order = band_order(space)
    factored = []

    def recording_splu(A, *args, **kwargs):
        factored.append((A, kwargs.get("permc_spec")))
        return splu(A, *args, **kwargs)

    splu = spla.splu
    monkeypatch.setattr(spla, "splu", recording_splu)
    factor = fem_step(lhs, g, d, order)
    # no ordering call: the order is the mesh's
    assert factored == []
    sets = [rng.uniform(size=g.size) < p for p in (0.0, 0.1, 0.4, 0.9)]
    for active in sets:
        n_before = len(factored)
        u, lam, c = factor(active)(rhs)
        u_ref, lam_ref, _ = _fresh_step(lhs, rhs, g, d, order)(active, active.tobytes())
        assert np.array_equal(u, u_ref) and np.array_equal(lam, lam_ref)
        assert c is u
        (mine, mine_spec), (ref, ref_spec) = factored[n_before], factored[-1]
        assert mine_spec == ref_spec == "NATURAL"
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(mine, attr), getattr(ref, attr))
        u_full, lam_full, _ = _masked_step(lhs, rhs, g, d, order)(active, active.tobytes())
        assert np.abs(u - u_full).max() <= 1e-10 * np.abs(u_full).max()
        assert np.abs(lam - lam_full).max() <= 1e-10 * np.abs(lam_full).max()
    # one LU per set for the step and one for each reference
    assert len(factored) == 3 * len(sets)


def test_fem_step_degenerate_sets(fem, grid):
    """The empty set is a plain solve of lhs; the all-active set, a 0 x 0
    block, fixes u = g exactly with lam = (lhs g - rhs) / d."""
    space, blocks = fem
    lhs, rhs_op, f, g, d = _american_system(space, blocks, grid)
    rhs = rhs_op @ np.random.default_rng(7).uniform(0.0, 0.5, g.size) + f
    factor = fem_step(lhs, g, d, band_order(space))
    u, lam, _ = factor(np.zeros(g.size, dtype=bool))(rhs)
    u_plain = spla.splu(lhs.tocsc()).solve(rhs)
    assert np.abs(u - u_plain).max() <= 1e-12 * np.abs(u_plain).max()
    assert not lam.any()
    u, lam, _ = factor(np.ones(g.size, dtype=bool))(rhs)
    assert np.array_equal(u, g)
    assert np.array_equal(lam, (lhs @ g - rhs) / d)


def test_march_factorizes_each_consecutive_set_once_and_drops_the_evicted_one():
    """march's one slot: a factorization per distinct consecutive active set,
    none on a repeat, and the evicted one released before the next is built.

    The stub step is u = rhs with obstacle g = 0, so each step's final set is
    {rhs < 0}: A, A, B, A from the empty start set.
    """
    g = np.zeros(2)
    loads = np.array([[-1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
    factored, alive_at_build, refs = [], [], []

    class Factorization:
        def __init__(self, active):
            self.active = active.copy()

        def __call__(self, rhs):
            u = np.where(self.active, g, rhs)
            return u, np.where(self.active, g - rhs, 0.0), u

    def factor(active):
        alive_at_build.append(sum(ref() is not None for ref in refs))
        factored.append(active.tolist())
        built = Factorization(active)
        refs.append(weakref.ref(built))
        return built

    U, lam = solvers.march(np.zeros(2), np.zeros((2, 2)), loads.__getitem__, len(loads), factor, g)
    assert np.array_equal(U[1:], np.maximum(loads, 0.0))
    assert np.array_equal(lam[1:], np.maximum(-loads, 0.0))
    a, b = [True, False], [False, True]
    assert factored == [[False, False], a, b, a]
    assert alive_at_build == [0] * len(factored)


def test_march_with_an_empty_obstacle_factorizes_once():
    """An obstacle without rows, as a reduced model without a dual basis has:
    every step keeps the empty set, whose one factorization serves them all."""
    factored = []

    def factor(active):
        factored.append(active.size)
        return lambda rhs: (rhs, np.zeros(0), np.zeros(0))

    U, lam = solvers.march(np.ones(2), np.eye(2), lambda k: np.ones(2), 3, factor, np.zeros(0))
    assert U[-1].tolist() == [4.0, 4.0] and lam.shape == (4, 0) and factored == [0]


def _reference_kernel(solve, g, active):
    """solve_complementarity with its Newton test comparing sets elementwise."""
    seen = set()
    for _ in range(solvers.MAX_ITER):
        x, lam, c = solve(active)
        new_active = (lam + (g - c)) > 0
        if (new_active == active).all():
            return x, lam, active
        scale = max(1.0, np.abs(c).max(), np.abs(g).max())
        if (g - c).max() <= KKT_TOL * scale and lam.min() >= -KKT_TOL * scale:
            return x, np.maximum(lam, 0.0), active
        key = new_active.tobytes()
        if key in seen:
            break
        seen.add(key)
        active = new_active
    return principal_pivoting(lambda a, key: solve(a), g, active)


def _reference_march(u0, rhs_op, load, I, step, g, kernel=_reference_kernel):
    """march's loop with an obstacle, building a new kernel callback per step
    and keying the slot by each call's own tobytes().  The kernel gets the
    one-argument callback solve(active)."""
    U = np.empty((I + 1, u0.size))
    U[0] = u0
    lam = np.zeros((I + 1, g.size))
    active = np.zeros(g.size, dtype=bool)
    key, solve = None, None

    def slot(active):
        nonlocal key, solve
        if active.tobytes() != key:
            solve = None
            key, solve = active.tobytes(), step(active)
        return solve

    for k in range(I):
        rhs = rhs_op @ U[k] + load(k)
        U[k + 1], lam[k + 1], active = kernel(lambda a: slot(a)(rhs), g, active)
    return U, lam


def test_time_loop_equals_the_reference_loop_bit_for_bit(toy_american, monkeypatch):
    """The one-callback, key-comparing loop gives the reference loop's U and
    lam bit for bit: a FEM solve at a corner of DEFAULT_PARAM_BOX and a
    reduced solve on the toy basis."""
    space = build_mesh(Domain2D(), 17, 17)
    blocks = assemble_blocks(space)
    corner = ModelParams(*DEFAULT_PARAM_BOX.hi[:2], *DEFAULT_PARAM_BOX.lo[2:4], DEFAULT_PARAM_BOX.hi[4])
    mu = ModelParams(0.35, -0.45, 0.15, 1.25, 0.2)
    runs = [
        lambda: solve_american(corner, space, blocks, TimeGrid(T=2.0, I=48)),
        lambda: solve_reduced(toy_american, mu),
    ]
    for run in runs:
        got = run()
        with monkeypatch.context() as m:
            m.setattr(solvers, "march", _reference_march)
            m.setattr(rbm, "march", _reference_march)
            want = run()
        assert got.U.tobytes() == want.U.tobytes() and got.lam.tobytes() == want.lam.tobytes()


#: The pilot shape of the ladder-reduced benchmark: 17 x 17 mesh, I = 48
#: steps over T = 2, rate 0.05, and the first-round local box of its sweep
#: around the ladders' reference vector.
PILOT_RATE = 0.05
PILOT_CENTER = np.array([0.7, -0.8, 0.3, 1.4, 0.3])
PILOT_HALF_WIDTHS = (0.25, 0.15, 0.10, 1.0)


@pytest.fixture(scope="module")
def pilot():
    """The pilot basis: 2 x 2 x 2 x 2 grid over DEFAULT_PARAM_BOX, n_max = 20."""
    space = build_mesh(Domain2D(), 17, 17)
    train = make_training_grid(DEFAULT_PARAM_BOX, (2, 2, 2, 2, 1), PILOT_RATE)
    return pod_angle_greedy_american(
        train, space, assemble_blocks(space), TimeGrid(T=2.0, I=48), GreedyConfig(n_max=20)
    )


def _pilot_thetas():
    """Six seeded calibration vectors of the pilot's local box and one corner
    of DEFAULT_PARAM_BOX (largest xi, rho and nu0, smallest gamma and kappa)."""
    box = localized_box(PILOT_CENTER, PILOT_HALF_WIDTHS, DEFAULT_PARAM_BOX, DEFAULT_CALIB_BOX)
    local = box.lo + np.random.default_rng(17).uniform(size=(6, 5)) * (box.hi - box.lo)
    lo, hi = DEFAULT_PARAM_BOX.lo, DEFAULT_PARAM_BOX.hi
    return [*local, np.array([*hi[:2], *lo[2:4], hi[4]])]


def _counting_schur_step(counts):
    """rbm._schur_step that appends one Counter per solve to counts: its
    factorizations (step calls) and Newton iterations (calls of their solves)."""
    schur_step = rbm._schur_step

    def counted(s_inv, B, g):
        factor, solve_counts = schur_step(s_inv, B, g), Counter()
        counts.append(solve_counts)

        def counted_factor(active):
            solve_counts["factorizations"] += 1
            solve = factor(active)

            def counted_solve(rhs):
                solve_counts["newton"] += 1
                return solve(rhs)

            return counted_solve

        return counted_factor

    return counted


def _pilot_runs(pilot, monkeypatch, **patches):
    """(U, lam, ReducedAm prices, work counts) at each of _pilot_thetas, with
    the names of solvers and rbm in patches replaced."""
    quotes = synthetic_layout("american")
    backend = ReducedBackend("ReducedAm", pilot)
    runs = []
    for theta in _pilot_thetas():
        counts = []
        with monkeypatch.context() as m:
            m.setattr(rbm, "_schur_step", _counting_schur_step(counts))
            for name, value in patches.items():
                for module in (solvers, rbm):
                    if hasattr(module, name):
                        m.setattr(module, name, value)
            surf = solve_reduced(pilot, CalibParams.from_array(theta).to_model(PILOT_RATE))
            prices = backend.price_vector(theta, quotes, 1.0, PILOT_RATE)
        runs.append((surf.U.tobytes(), surf.lam.tobytes(), prices.tobytes(), counts))
    return runs


def test_reduced_solves_at_the_pilot_shape_equal_the_reference_loop_bit_for_bit(pilot, monkeypatch):
    """At the benchmark's pilot shape, solve_reduced's U and lam and the
    ReducedAm prices equal the reference loop's byte for byte, at six
    local-box vectors and a corner of DEFAULT_PARAM_BOX, and each solve does
    the same work: as many factorizations and Newton iterations."""
    assert (pilot.dim, pilot.n_dual) == (20, 10)
    got = _pilot_runs(pilot, monkeypatch)
    want = _pilot_runs(pilot, monkeypatch, march=_reference_march)
    for (*mine, mine_counts), (*ref, ref_counts) in zip(got, want):
        assert mine == ref
        assert len(mine_counts) == 2 and mine_counts == ref_counts
        assert all(c["newton"] >= pilot.grid.I and c["factorizations"] >= 2 for c in mine_counts)


def test_pivoting_hand_off_under_the_key_protocol_equals_the_reference_loop(pilot, monkeypatch):
    """Every step of the pilot's solves forced into principal_pivoting: the
    slot, fed the keys pivoting derives, gives the bytes of the reference
    loop, whose slot derives its own keys from the one-argument callback."""

    def pivoting(solve, g, active, g_max):
        return principal_pivoting(solve, g, active)

    def reference_pivoting(solve, g, active):
        return principal_pivoting(lambda a, key: solve(a), g, active)

    got = _pilot_runs(pilot, monkeypatch, solve_complementarity=pivoting)
    want = _pilot_runs(
        pilot, monkeypatch, march=lambda *args: _reference_march(*args, kernel=reference_pivoting)
    )
    assert got == want


def test_solve_american_matches_fresh_factorization(ladder_fem):
    """The whole solve equals a loop that builds every inactive block fresh,
    bit for bit, and a loop on the whole masked step matrix in the same
    order within 1e-10 relative, its active sets equal except at ties (the
    tie rule of the default-ordering test below)."""
    space, blocks = ladder_fem
    am = solve_american(MU, space, blocks, LADDER_GRID)
    lhs, rhs_op, f, g, d = _american_system(space, blocks, LADDER_GRID)
    g_max = np.abs(g).max()
    order = band_order(space)
    u, u_full = am.U[0], am.U[0]
    active = active_full = np.zeros(g.size, dtype=bool)
    U_full, lam_full = np.zeros_like(am.U), np.zeros_like(am.lam)
    slack, multiplier = [], []
    for k in range(LADDER_GRID.I):
        u, lam, active = solve_complementarity(
            _fresh_step(lhs, rhs_op @ u + f, g, d, order), g, active, g_max
        )
        assert np.array_equal(u, am.U[k + 1]) and np.array_equal(lam, am.lam[k + 1])
        u_full, lam_full[k + 1], active_full = solve_complementarity(
            _masked_step(lhs, rhs_op @ u_full + f, g, d, order), g, active_full, g_max
        )
        U_full[k + 1] = u_full
        tie = active != active_full
        for uu, ll in ((u, lam), (u_full, lam_full[k + 1])):
            slack.append(np.abs(uu - g)[tie] / max(1.0, np.abs(uu).max(), np.abs(g).max()))
            multiplier.append(np.abs(ll[tie]))
    U_full[0] = am.U[0]
    assert np.abs(am.U - U_full).max() <= 1e-10 * np.abs(U_full).max()
    lam_tol = 1e-10 * np.abs(lam_full).max()
    assert np.abs(am.lam - lam_full).max() <= lam_tol
    assert np.concatenate(slack).max(initial=0.0) <= KKT_TOL
    assert np.concatenate(multiplier).max(initial=0.0) <= lam_tol


def test_solve_american_factorizes_only_the_inactive_block(ladder_fem, monkeypatch):
    """Every set's LU is of its inactive block alone: each NATURAL splu call
    gets a square CSC matrix of n - |A| rows for the set being factorized."""
    space, blocks = ladder_fem
    sets, shapes = [], []
    splu, step = spla.splu, solvers.fem_step

    def recording_splu(A, *args, **kwargs):
        if kwargs.get("permc_spec") == "NATURAL":
            shapes.append((A.format, A.shape))
        return splu(A, *args, **kwargs)

    def recording_step(lhs, g, d, order):
        factor = step(lhs, g, d, order)

        def recording_factor(active):
            sets.append(int(active.sum()))
            return factor(active)

        return recording_factor

    monkeypatch.setattr(spla, "splu", recording_splu)
    monkeypatch.setattr(solvers, "fem_step", recording_step)
    solve_american(MU, space, blocks, LADDER_GRID)
    n = space.n_free
    assert len(sets) >= LADDER_GRID.I and max(sets) > 0
    assert shapes == [("csc", (n - a, n - a)) for a in sets]


def test_solve_american_factorizes_at_most_1_2_lus_per_step(ladder_fem, monkeypatch):
    """Each distinct active set is factorized once; steps reuse the last LU."""
    space, blocks = ladder_fem
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(None)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    solve_american(MU, space, blocks, LADDER_GRID)
    assert len(calls) <= 1.2 * LADDER_GRID.I


def test_ordinary_american_solves_never_pivot(ladder_fem, toy_american, monkeypatch):
    """Newton alone finishes every step of the ladder's FEM solve at theta_ex
    and of a reduced solve on the toy basis: pivoting is only the fallback
    for steps that revisit an active set."""
    steps, pivots = [], []
    kernel, pivoting = solvers.solve_complementarity, solvers.principal_pivoting

    def counted_kernel(*args):
        steps.append(None)
        return kernel(*args)

    def counted_pivoting(*args):
        pivots.append(None)
        return pivoting(*args)

    monkeypatch.setattr(solvers, "solve_complementarity", counted_kernel)
    monkeypatch.setattr(solvers, "principal_pivoting", counted_pivoting)
    space, blocks = ladder_fem
    solve_american(MU, space, blocks, LADDER_GRID)
    assert (len(steps), len(pivots)) == (LADDER_GRID.I, 0)
    steps.clear()
    solve_reduced(toy_american, ModelParams(0.35, -0.45, 0.15, 1.25, 0.2))
    assert (len(steps), len(pivots)) == (toy_american.grid.I, 0)


@pytest.mark.xfail(
    strict=True,
    raises=LCPError,
    reason="least-index pivoting flips one row per pivot: from the previous step's "
    "set it hits the 500-pivot cap here (KKT residual 4.7e-2), and at 10 of the 16 "
    "toy training points",
)
def test_principal_pivoting_finishes_every_fem_step_from_its_warm_start(toy, monkeypatch):
    """The kernel's fallback, handed every step of a toy FEM solve from the
    step's warm start, ends at the solution Newton finds."""
    space, blocks, grid = toy
    mu = ModelParams(0.2, -0.7, 0.25, 2.0, 0.03)
    want = solve_american(mu, space, blocks, grid)
    monkeypatch.setattr(
        solvers, "solve_complementarity", lambda solve, g, active, g_max: principal_pivoting(solve, g, active)
    )
    got = solve_american(mu, space, blocks, grid)
    assert np.allclose(got.U, want.U, rtol=0.0, atol=1e-10)


#: One corner of DEFAULT_CALIB_BOX: largest xi, most negative rho, smallest
#: gamma and kappa (Feller condition far from met).
CORNER = ModelParams(0.9, -0.95, 0.01, 0.1, 0.05)
#: The model of the synthetic ladders' theta (P2 of the acceptance tests,
#: whose theta_ex is MU).
LADDER_MU = ModelParams(0.25, -0.5, 0.10, 0.4, 0.05)


@pytest.mark.parametrize("n, I", [(17, 48), (33, 125)])
@pytest.mark.parametrize("mu", [MU, LADDER_MU, CORNER], ids=["mu", "ladder", "corner"])
def test_solve_american_matches_solver_with_default_ordering(n, I, mu, monkeypatch):
    """One band order per mesh moves U and lam by round-off only.

    The oracle factorizes every active set with SuperLU's own column
    ordering.  U and lam agree within 1e-10 relative, and the active sets
    agree except at ties: nodes where, in both solutions, u - g is within
    KKT_TOL (scaled as solve_complementarity scales it) and lam within the
    1e-10 bound.  solve_american orders no matrix itself: every splu call is
    NATURAL, in the mesh's band order.
    """
    space = build_mesh(Domain2D(), n, n)
    blocks = assemble_blocks(space)
    grid = TimeGrid(T=2.0, I=I)
    specs = []
    splu = spla.splu

    def recording_splu(*args, **kwargs):
        specs.append(kwargs.get("permc_spec"))
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    am = solve_american(mu, space, blocks, grid)
    monkeypatch.undo()
    assert specs and all(spec == "NATURAL" for spec in specs)

    lhs, rhs_op, f, g, d = _american_system(space, blocks, grid, mu)
    factor = fem_step(lhs, g, d, band_order(space))
    g_max = np.abs(g).max()
    u, u_ref = am.U[0], am.U[0]
    active = active_ref = np.zeros(g.size, dtype=bool)
    U_ref, lam_ref = np.zeros_like(am.U), np.zeros_like(am.lam)
    U_ref[0] = u_ref
    slack, multiplier = [], []
    for k in range(I):
        rhs = rhs_op @ u + f
        u, lam, active = solve_complementarity(lambda a, key: factor(a)(rhs), g, active, g_max)
        assert np.array_equal(u, am.U[k + 1]) and np.array_equal(lam, am.lam[k + 1])
        u_ref, lam_ref[k + 1], active_ref = solve_complementarity(
            _masked_step(lhs, rhs_op @ u_ref + f, g, d), g, active_ref, g_max
        )
        U_ref[k + 1] = u_ref
        tie = active != active_ref
        for uu, ll in ((u, lam), (u_ref, lam_ref[k + 1])):
            slack.append(np.abs(uu - g)[tie] / max(1.0, np.abs(uu).max(), np.abs(g).max()))
            multiplier.append(np.abs(ll[tie]))
    assert np.abs(am.U - U_ref).max() <= 1e-10 * np.abs(U_ref).max()
    lam_tol = 1e-10 * np.abs(lam_ref).max()
    assert np.abs(am.lam - lam_ref).max() <= lam_tol
    # a node changes side only at a tie: lam within the bound above and
    # u - g within the KKT tolerance, in both solutions
    assert np.concatenate(slack).max(initial=0.0) <= KKT_TOL
    assert np.concatenate(multiplier).max(initial=0.0) <= lam_tol


def test_european_load_matches_per_step_lift_and_rhs(fem, grid):
    """The two fixed lift loads price like the lift load assembled from the
    full-node lift vectors at every step."""
    space, blocks = fem
    eu = solve_european(MU, space, blocks, grid)
    bnd = boundary_data(space, "european", MU.r)
    a = assemble_operator(MU, blocks)
    a_full, a_free = blocks.pattern.matrix(a), blocks.free_matrix(a)
    dt, th = grid.dt, THETA
    lu = spla.splu((blocks.mass_free / dt + th * a_free).tocsc())
    rhs_op = (blocks.mass_free / dt - (1 - th) * a_free).tocsr()
    U = np.empty_like(eu.U)
    U[0] = eu.U[0]
    for k in range(grid.I):
        # f^{k+theta} = -(1/dt) M (L^{k+1} - L^k) - A (theta L^{k+1} + (1-theta) L^k)
        lk, lk1 = bnd.scale(k * dt) * bnd.shape, bnd.scale(k * dt + dt) * bnd.shape
        f_full = -(blocks.mass @ (lk1 - lk)) / dt - a_full @ (th * lk1 + (1.0 - th) * lk)
        f = f_full[space.free]
        U[k + 1] = lu.solve(rhs_op @ U[k] + f)
    ref = replace(eu, U=U)
    for nu0 in (0.05, 0.3, 0.8):
        for K in (0.8, 1.0, 1.2):
            for T in (0.2, 0.5, 0.73, 1.0):
                p = price_at(eu, 1.0, K, nu0, T)
                assert p == pytest.approx(price_at(ref, 1.0, K, nu0, T), rel=1e-12)


def test_march_names_the_first_non_finite_step():
    """A non-finite trajectory raises, naming its first non-finite step."""
    grow = np.array([[1e200]])  # U[1] = 1e200, U[2] overflows
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="at step 2"):
        solvers.march(np.array([1.0]), grow, lambda k: np.zeros(1), 3, lambda rhs: rhs)


def test_lcp_error_survives_pickle_and_deepcopy():
    err = LCPError(10, 3, 1e-3, "pivot cap")
    for clone in (pickle.loads(pickle.dumps(err)), copy.deepcopy(err)):
        assert type(clone) is LCPError and str(clone) == str(err)
        assert (clone.n, clone.pivots, clone.residual, clone.reason) == (10, 3, 1e-3, "pivot cap")
