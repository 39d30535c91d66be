import fem_oracle
import numpy as np
import pytest
import scipy.sparse as sp
from fem_oracle import THREE_MU, assert_same_csr

from hestoncal.heston_operator import (
    N_AFFINE,
    affine_coefficients,
    assemble_operator,
    boundary_data,
    garding_shift_estimate,
    lift_and_rhs,
    payoff_vector,
)
from hestoncal.mesh import _QP, _QW, Domain2D, _triangle_geometry, assemble_blocks, build_mesh
from hestoncal.params import DEFAULT_PARAM_BOX, ModelParams, put_payoff_log


@pytest.fixture(scope="module")
def fem():
    space = build_mesh(Domain2D(), 10, 10)
    return space, assemble_blocks(space)


def assemble_operator_direct(mu: ModelParams, space) -> sp.csr_matrix:
    """Direct quadrature assembly with the full coefficients A(mu), b(mu), r.

    Independent of the affine split; the reference route for testing the
    decomposition.
    """
    p, area, grads = _triangle_geometry(space)
    J = space.triangles.shape[0]
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


def _random_params(rng):
    box = DEFAULT_PARAM_BOX
    v = rng.uniform(box.lo, box.hi)
    return ModelParams(v[0], v[1], v[2], v[3], rng.uniform(0.0, 0.1))


def test_affine_matches_direct_assembly(fem):
    """The eight-term affine split must reproduce full-coefficient assembly."""
    space, blocks = fem
    rng = np.random.default_rng(7)
    for _ in range(20):
        mu = _random_params(rng)
        a_affine = blocks.pattern.matrix(assemble_operator(mu, blocks))
        a_direct = assemble_operator_direct(mu, space)
        scale = abs(a_direct).max()
        assert abs(a_affine - a_direct).max() <= 1e-12 * scale


@pytest.mark.parametrize("n", [8, 33])
def test_operator_matches_the_sparse_sum_chain_bit_for_bit(n):
    """The operator is the matrix theta_0 A_0 + theta_1 A_1 + ... that
    SciPy's chain of sparse sums gives on the COO-assembled blocks."""
    space = build_mesh(Domain2D(), n, n)
    blocks = assemble_blocks(space)
    a_blocks = fem_oracle.assemble_blocks(space)["a_blocks"]
    for mu in THREE_MU:
        assert_same_csr(blocks.pattern.matrix(assemble_operator(mu, blocks)), fem_oracle.assemble_operator(mu, a_blocks))


def test_affine_coefficient_count(fem):
    mu = ModelParams(0.5, -0.5, 0.2, 1.0, 0.05)
    assert affine_coefficients(mu).shape == (N_AFFINE,)
    assert len(fem[1].a_values) == N_AFFINE


def test_diffusion_positive_definite():
    """The diffusion nu [[t0, t1], [t1, t2]] of the affine split."""
    t = affine_coefficients(ModelParams(0.5, -0.9, 0.2, 1.0, 0.05))
    for nu in (1e-5, 0.5, 3.0):
        w = np.linalg.eigvalsh(nu * np.array([[t[0], t[1]], [t[1], t[2]]]))
        assert np.all(w > 0)


def test_velocity_components():
    """The velocity [t3 + t4 nu, t5 + t6 nu] of the affine split."""
    t = affine_coefficients(ModelParams(0.5, -0.5, 0.2, 1.0, 0.05))
    nu = 0.3
    assert t[3] + t[4] * nu == pytest.approx(-1.0 * (0.2 - 0.3) + 0.125)
    assert t[5] + t[6] * nu == pytest.approx(-0.05 + 0.15 - 0.125)


def test_garding_shift_bounded_on_corners():
    """The coercivity shift stays moderate over the whole parameter box."""
    box = DEFAULT_PARAM_BOX
    for idx in range(2**5):
        corner = [box.lo[i] if (idx >> i) & 1 else box.hi[i] for i in range(5)]
        mu = ModelParams(corner[0], corner[1], corner[2], corner[3], 0.05)
        assert garding_shift_estimate(mu) <= 50.0


def test_boundary_lift_european(fem):
    space, _ = fem
    bnd = boundary_data(space, "european", 0.05)
    lift = bnd.scale(1.0) * bnd.shape
    assert np.allclose(lift[space.dirichlet_x_min], np.exp(-0.05))
    assert np.all(lift[space.coords[:, 1] == space.domain.x_max] == 0.0)
    assert np.all(lift[~space.dirichlet] == 0.0)


def test_boundary_lift_american_static(fem):
    space, _ = fem
    bnd = boundary_data(space, "american", 0.05)
    assert bnd.scale(0.0) == bnd.scale(1.5) == 1.0
    x_wall = space.coords[space.dirichlet, 1]
    assert np.allclose(bnd.shape[space.dirichlet], put_payoff_log(x_wall))


def test_obstacle_nonnegative_where_payoff_positive(fem):
    """The payoff on the free DOFs is payoff minus lift for both styles:
    either lift vanishes at every free node."""
    space, _ = fem
    for style in ("american", "european"):
        assert np.all(boundary_data(space, style, 0.05).shape[space.free] == 0.0)
    g = payoff_vector(space)
    x_free = space.coords[space.free, 1]
    np.testing.assert_allclose(g, put_payoff_log(x_free), atol=1e-14)
    assert np.all(g >= 0.0)


def test_lift_rhs_zero_for_zero_lift(fem):
    """With zero Dirichlet data the theta-scheme load vanishes."""
    space, blocks = fem
    mu = ModelParams(0.5, -0.5, 0.2, 1.0, 0.0)
    bnd = boundary_data(space, "european", 0.0)
    # r=0 European lift is static; rhs reduces to -A L0 restricted
    a = blocks.pattern.matrix(assemble_operator(mu, blocks))
    mlift, alift = (blocks.mass @ bnd.shape)[space.free], (a @ bnd.shape)[space.free]
    load = lift_and_rhs(mlift, alift, bnd, 0.1)
    want = -(a @ bnd.shape)[space.free]
    for k in (0, 7):
        np.testing.assert_allclose(load(k), want, atol=1e-14)
