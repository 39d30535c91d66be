"""Reduced-basis offline construction and online solves (toy scale)."""

import numpy as np
import pytest

from hestoncal.calibration import PdeBackend, ReducedBackend
from hestoncal.mesh import Domain2D, assemble_blocks, build_mesh
from hestoncal.params import DEFAULT_PARAM_BOX, ModelParams, ParamBox
from hestoncal.rbm import (
    GreedyConfig,
    angle_to_space,
    gram_orthonormalize,
    load_reduced_model,
    make_training_grid,
    pod1,
    pod_angle_greedy_american,
    pod_greedy_european,
    save_reduced_model,
    solve_reduced,
    supremizer,
)
from hestoncal import solvers
from hestoncal.solvers import (
    LCPError,
    TimeGrid,
    price_at,
    principal_pivoting,
    solve_american,
    solve_complementarity,
    solve_european,
)


@pytest.fixture(scope="module")
def toy():
    space = build_mesh(Domain2D(), 16, 16)
    blocks = assemble_blocks(space)
    grid = TimeGrid(1.0, 20)
    return space, blocks, grid


@pytest.fixture(scope="module")
def toy_train():
    box = ParamBox(lower=(0.2, -0.7, 0.05, 0.5, 0.05), upper=(0.5, -0.2, 0.25, 2.0, 0.4))
    return make_training_grid(box, (2, 2, 2, 2, 2), 0.03)


@pytest.fixture(scope="module")
def toy_american(toy, toy_train):
    space, blocks, grid = toy
    return pod_angle_greedy_american(
        toy_train, space, blocks, grid, GreedyConfig(n_max=20, tol=1e-8)
    )


def test_training_grid_collapses_nu0_axis():
    train = make_training_grid(DEFAULT_PARAM_BOX, (3, 3, 3, 3, 3), 0.05)
    assert len(train) == 81  # 3^4: the PDE does not depend on nu0
    assert len({(m.xi, m.rho, m.gamma, m.kappa) for m in train}) == 81
    assert all(m.r == 0.05 for m in train)


def test_pod1_matches_dense_oracle(toy):
    space, blocks, _ = toy
    rng = np.random.default_rng(3)
    snaps = rng.normal(size=(space.n_free, 12))
    G = blocks.v_gram_free.toarray()
    mode = pod1(snaps, blocks.v_gram_free)
    # dense oracle: SVD of L^T S with G = L L^T
    L = np.linalg.cholesky(G)
    U, s, _ = np.linalg.svd(L.T @ snaps, full_matrices=False)
    ref = np.linalg.solve(L.T, U[:, 0])
    if ref[np.argmax(np.abs(ref))] < 0:
        ref = -ref
    assert np.linalg.norm(mode - ref) <= 1e-8
    assert mode @ (G @ mode) == pytest.approx(1.0, abs=1e-12)


def test_pod1_rejects_degenerate_input(toy):
    space, blocks, _ = toy
    with pytest.raises(ValueError):
        pod1(np.zeros((space.n_free, 3)), blocks.v_gram_free)


def test_gram_orthonormalize_drops_dependent_vectors(toy):
    space, blocks, _ = toy
    rng = np.random.default_rng(5)
    v1 = rng.normal(size=space.n_free)
    v2 = rng.normal(size=space.n_free)
    out = gram_orthonormalize([v1, v2, v1 + v2], blocks.v_gram_free)
    assert len(out) == 2
    G = blocks.v_gram_free
    B = np.column_stack(out)
    assert np.allclose(B.T @ (G @ B), np.eye(2), atol=1e-12)


def test_angle_properties(toy):
    space, blocks, _ = toy
    w = blocks.d_b_free
    rng = np.random.default_rng(11)
    b = rng.normal(size=space.n_free)
    b /= np.sqrt(b @ (w * b))
    basis = b[:, None]
    assert angle_to_space(b, basis, w) <= 1e-7  # in-space vector: zero angle
    # orthogonal complement vector: right angle
    v = rng.normal(size=space.n_free)
    v -= (b @ (w * v)) * b
    assert angle_to_space(v, basis, w) == pytest.approx(np.pi / 2, abs=1e-7)


def test_supremizer_properties(toy):
    space, blocks, _ = toy
    assert np.allclose(supremizer(np.zeros(space.n_free), blocks), 0.0)
    rng = np.random.default_rng(13)
    xi = np.abs(rng.normal(size=space.n_free))
    t = supremizer(xi, blocks)
    # b(xi, T xi) = |T xi|_V^2 > 0
    lhs = xi @ (blocks.d_b_free * t)
    rhs = t @ (blocks.v_gram_free @ t)
    assert lhs == pytest.approx(rhs, rel=1e-10)
    assert rhs > 0.0


def test_greedy_basis_is_orthonormal(toy, toy_american):
    space, blocks, _ = toy
    m = toy_american
    G = blocks.v_gram_free
    gram = m.psi.T @ (G @ m.psi)
    assert np.allclose(gram, np.eye(m.dim), atol=1e-10)
    # dual cone vectors are nonnegative multiplier snapshots, normalized
    assert np.all(m.xi >= -1e-14)


def test_greedy_training_error_decreases(toy, toy_american):
    errs = np.asarray(toy_american.errors)
    assert errs[-1] <= 0.5 * errs[0]


def test_reduced_american_matches_detailed_at_selected_mu(toy, toy_american):
    space, blocks, grid = toy
    m = toy_american
    mu = m.selected_mu[-1]
    surf = solve_american(mu, space, blocks, grid, K=1.0)
    traj = solve_reduced(m, mu)
    for T in (0.5, 1.0):
        p_det = price_at(surf, 1.0, 1.0, 0.2, T)
        p_red = traj.price(1.0, 1.0, 0.2, T)
        assert p_red == pytest.approx(p_det, abs=5e-3)


def test_reduced_feasibility(toy, toy_american):
    m = toy_american
    mu = m.selected_mu[0]
    traj = solve_reduced(m, mu)
    # B_N u_N >= g_N - 1e-8 and multipliers in the cone
    for k in (1, m.grid.I // 2, m.grid.I):
        slack = m.b_red @ traj.coeffs[k] - m.g_red
        assert slack.min() >= -1e-8
        assert traj.multipliers[k].min() >= -1e-12


def test_european_greedy_reproduces_single_trajectory(toy):
    space, blocks, grid = toy
    mu = ModelParams(0.3, -0.5, 0.1, 1.0, 0.03)
    m = pod_greedy_european([mu], space, blocks, grid, GreedyConfig(n_max=12, tol=1e-14))
    errs = np.asarray(m.errors)
    assert np.all(np.diff(errs) <= 1e-12)  # monotone decrease on its own snapshot
    assert errs[-1] <= 1e-4


def test_backend_agreement_european(toy):
    space, blocks, grid = toy
    mu = ModelParams(0.3, -0.5, 0.1, 1.0, 0.03)
    m = pod_greedy_european([mu], space, blocks, grid, GreedyConfig(n_max=16, tol=1e-14))
    theta = np.array([mu.xi, mu.rho, mu.gamma, mu.kappa, 0.15])

    class Q:
        def __init__(self, T, K):
            self.maturity, self.strike = T, K

    quotes = [Q(0.5, 0.9), Q(1.0, 1.0), Q(1.0, 1.1)]
    det = PdeBackend("DetailedEu", space, blocks, grid).price_vector(theta, quotes, 1.0, mu.r)
    red = ReducedBackend("ReducedEu", m).price_vector(theta, quotes, 1.0, mu.r)
    assert np.allclose(det, red, atol=1e-6)


def test_serialization_round_trip(tmp_path, toy_american):
    m = toy_american
    path = tmp_path / "model.npz"
    save_reduced_model(m, path)
    back = load_reduced_model(path)
    assert back.style == m.style and back.dim == m.dim and back.n_dual == m.n_dual
    assert np.array_equal(back.psi, m.psi)
    assert np.array_equal(back.a_red, m.a_red)
    assert np.array_equal(back.b_red, m.b_red)
    assert np.array_equal(back.g_red, m.g_red)
    # online solves are bit-identical through the round trip
    mu = m.selected_mu[0]
    t1 = solve_reduced(m, mu)
    t2 = solve_reduced(back, mu)
    assert np.array_equal(t1.coeffs, t2.coeffs)


def test_error_decays_with_basis_size(toy, toy_train):
    space, blocks, grid = toy
    mu_test = ModelParams(0.35, -0.45, 0.12, 1.2, 0.03)
    surf = solve_american(mu_test, space, blocks, grid, K=1.0)
    u_ref = surf.U[-1]
    G = blocks.v_gram_free
    errs = []
    for n in (6, 12, 24):
        m = pod_angle_greedy_american(
            toy_train, space, blocks, grid, GreedyConfig(n_max=n, tol=1e-12)
        )
        traj = solve_reduced(m, mu_test)
        u_red = m.psi @ traj.coeffs[-1]
        d = u_ref - u_red
        errs.append(float(np.sqrt(d @ (G @ d))))
    assert errs[-1] <= errs[0]


def test_reduced_price_off_grid_matches_detailed(toy):
    """Reduced and FEM pricers interpolate off-grid maturities alike."""
    space, blocks, grid = toy
    mu = ModelParams(0.3, -0.5, 0.1, 1.0, 0.03)
    m = pod_greedy_european([mu], space, blocks, grid, GreedyConfig(n_max=16, tol=1e-14))
    surf = solve_european(mu, space, blocks, grid, K=1.0)
    traj = solve_reduced(m, mu)
    for T in (0.27, 0.5, 0.93):  # off the dt = 0.05 grid, except 0.5
        for K in (0.9, 1.0, 1.1):
            p_det = price_at(surf, 1.0, K, 0.15, T)
            assert traj.price(1.0, K, 0.15, T) == pytest.approx(p_det, abs=1e-6)
    with pytest.raises(ValueError, match="horizon"):
        traj.price(1.0, 1.0, 0.15, 1.2)


def _lcp(M, q):
    """Kernel callback of the LCP 0 <= beta  perp  M beta + q >= 0.

    With c = M beta and g = -q the slack c - g is M beta + q.
    """

    def solve(active):
        idx = np.flatnonzero(active)
        beta = np.zeros(q.size)
        beta[idx] = np.linalg.solve(M[np.ix_(idx, idx)], -q[idx])
        return beta, beta, M @ beta

    return solve, -q


def _assert_lcp_solution(M, q, beta):
    w = M @ beta + q
    scale = max(1.0, np.abs(q).max(), np.abs(M).max() * np.abs(beta).max())
    assert beta.min() >= 0.0
    assert w.min() >= -1e-12 * scale
    assert np.abs(np.minimum(beta, w)).max() <= 1e-12 * scale


def test_pivot_lcp_ill_conditioned_spd():
    """cond(M) = 1e6: projected Gauss-Seidel stalls here, pivoting is exact."""
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    M = Q @ np.diag(np.logspace(0, -6, 6)) @ Q.T
    q = rng.normal(size=6)
    _, beta, active = principal_pivoting(*_lcp(M, q), np.zeros(6, dtype=bool))
    _assert_lcp_solution(M, q, beta)
    assert np.all(beta[~active] == 0.0)


P_MATRIX = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 2.0], [2.0, 0.0, 1.0]])


@pytest.mark.parametrize("start", range(8))
def test_pivot_lcp_p_matrix_from_every_warm_start(start):
    """A non-symmetric P-matrix on which flip-all Newton cycles from 6 of 8 starts."""
    q = -np.ones(3)
    active0 = np.array([(start >> i) & 1 for i in range(3)], dtype=bool)
    _, beta, _ = principal_pivoting(*_lcp(P_MATRIX, q), active0)
    _assert_lcp_solution(P_MATRIX, q, beta)
    assert beta == pytest.approx(np.full(3, 1.0 / 3.0), rel=1e-14)


#: (M, q, solution, starts from which Newton and the merge still cycle)
KERNEL_CASES = {
    "merge": (P_MATRIX, -np.ones(3), np.full(3, 1.0 / 3.0), ()),
    "pivot": (
        np.array([[1.0, 1.0, 0.0], [-3.0, 1.0, 3.0], [3.0, 0.0, 1.0]]),
        np.array([1.0, 2.0, 1.0]),
        np.zeros(3),
        (1, 2, 3, 4, 5, 6),
    ),
}


@pytest.mark.parametrize("start", range(8))
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_p_matrix_from_every_warm_start(case, start, monkeypatch):
    """The whole kernel: Newton, then the merge, then pivoting where it cycles."""
    M, q, solution, cycling = KERNEL_CASES[case]
    pivoted = []

    def counted(*args):
        pivoted.append(start)
        return principal_pivoting(*args)

    monkeypatch.setattr(solvers, "principal_pivoting", counted)
    active0 = np.array([(start >> i) & 1 for i in range(3)], dtype=bool)
    _, beta, _ = solve_complementarity(*_lcp(M, q), active0)
    _assert_lcp_solution(M, q, beta)
    assert beta == pytest.approx(solution, rel=1e-14, abs=0.0)
    assert bool(pivoted) == (start in cycling)


def test_pivot_lcp_without_solution_raises_typed_error():
    with pytest.raises(LCPError) as info:
        principal_pivoting(*_lcp(np.array([[-1.0]]), np.array([-1.0])), np.zeros(1, dtype=bool))
    err = info.value
    assert isinstance(err, RuntimeError)
    assert err.n == 1 and err.pivots >= 1 and err.residual > 0.0
    assert "n=1" in str(err)
