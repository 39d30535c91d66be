"""Reference FEM assembly: one COO pass per integral and SciPy's sparse sums.

assemble_blocks, restrict, assemble_operator and step_matrices here are the
element-by-element assembly, the fancy-index restriction and the chains of
sparse sums that hestoncal's one-pass assembly of values on one pattern and
its per-mesh gathers replace.  The tests hold the two to the same numbers bit
for bit: a single integral's values to the COO assembly's data, exact zeros
and their signs included (assert_same_values), and every matrix hestoncal
makes from values, which leaves exact zeros out, to the matrix SciPy's sums
give or, for a single integral, to the COO matrix without its exact zeros
(dropped; assert_same_csr).  solve and project march and project on the
oracle's matrices, for byte-for-byte checks of whole solves and of the
reduced model's offline projection.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hestoncal.heston_operator import (
    N_AFFINE,
    THETA,
    affine_coefficients,
    boundary_data,
    lift_and_rhs,
    payoff_vector,
)
from hestoncal.mesh import _QP, _QW, Domain2D, _triangle_geometry, band_order, mesh_from_nodes
from hestoncal.params import DEFAULT_CALIB_BOX, ModelParams
from hestoncal.solvers import fem_step, march

#: Three operators: the acceptance suite's, one with rho = 0 and r = 0 (two
#: coefficients zero) and the lower corner of DEFAULT_CALIB_BOX.
THREE_MU = [
    ModelParams(0.7, -0.8, 0.3, 1.4, 0.05),
    ModelParams(0.5, 0.0, 0.2, 2.0, 0.0),
    ModelParams(*DEFAULT_CALIB_BOX.lo[:4], 0.05),
]


def graded_mesh(n_nu, n_x):
    """A mesh graded on both axes: x = 0.1 sinh(z) with a node at x = 0, and nu = nu_min + c sinh(z)."""
    d = Domain2D()
    z = np.linspace(-np.arcsinh(5.0 / 0.1), np.arcsinh(5.0 / 0.1), n_x + 1)
    z_nu = np.linspace(0.0, 2.0, n_nu + 1)
    return mesh_from_nodes(d.nu_min + (d.nu_max - d.nu_min) * np.sinh(z_nu) / np.sinh(2.0), 0.1 * np.sinh(z))


def assert_same_csr(got, want):
    """got and want are the same CSR matrix bit for bit: pattern, values and the signs of zeros."""
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


def assert_same_values(pattern, values, want):
    """values on pattern are the CSR matrix want, which has an entry at each
    of pattern's, bit for bit: pattern, values and the signs of zeros."""
    assert np.array_equal(pattern.indptr, want.indptr)
    assert np.array_equal(pattern.indices, want.indices)
    assert values.tobytes() == want.data.tobytes()


def dropped(mat) -> sp.csr_matrix:
    """A copy of the CSR matrix mat without its exact zeros."""
    out = mat.copy()
    out.eliminate_zeros()
    return out


def assemble_matrix(space, weight: str, d_trial: str | None, d_test: str | None) -> sp.csr_matrix:
    """Assemble int w * (D u) (D v) over the mesh as a CSR matrix.

    weight: "one" or "nu" (the variance coordinate).
    d_trial / d_test: None (identity), "nu" or "x", applied to the trial /
    test basis function respectively.  Entry (i, j) tests with phi_i and
    takes phi_j as trial function.
    """
    p, area, grads = _triangle_geometry(space)
    J = space.triangles.shape[0]
    nq = _QP.shape[0]
    lam = np.column_stack([1.0 - _QP[:, 0] - _QP[:, 1], _QP[:, 0], _QP[:, 1]])  # (nq, 3)
    # quadrature point coordinates per triangle
    qnu = np.einsum("qk,jk->jq", lam, p[:, :, 0])  # (J, nq)
    w = qnu if weight == "nu" else np.ones_like(qnu)

    def factor(d, k):
        # (J, nq) values of the derivative/identity of basis k at quad points
        if d is None:
            return np.broadcast_to(lam[:, k], (J, nq))
        col = 0 if d == "nu" else 1
        return np.repeat(grads[:, k, col][:, None], nq, axis=1)

    rows, cols, vals = [], [], []
    for i in range(3):
        fi = factor(d_test, i)
        for j in range(3):
            fj = factor(d_trial, j)
            contrib = 2.0 * area * np.einsum("q,jq->j", _QW, w * fi * fj)
            rows.append(space.triangles[:, i])
            cols.append(space.triangles[:, j])
            vals.append(contrib)
    n = space.n_nodes
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return mat.tocsr()


def assemble_blocks(space) -> dict:
    """mass, v_gram and the eight a_blocks, each by its own COO assembly."""
    mass = assemble_matrix(space, "one", None, None)
    v_gram = (assemble_matrix(space, "one", "nu", "nu") + assemble_matrix(space, "one", "x", "x")).tocsr()
    a_blocks = [
        assemble_matrix(space, "nu", "nu", "nu"),
        (assemble_matrix(space, "nu", "nu", "x") + assemble_matrix(space, "nu", "x", "nu")).tocsr(),
        assemble_matrix(space, "nu", "x", "x"),
        assemble_matrix(space, "one", "nu", None),
        assemble_matrix(space, "nu", "nu", None),
        assemble_matrix(space, "one", "x", None),
        assemble_matrix(space, "nu", "x", None),
        mass,
    ]
    return {"mass": mass, "v_gram": v_gram, "a_blocks": a_blocks, "d_b": np.asarray(mass.sum(axis=1)).ravel()}


def restrict(space, mat) -> sp.csr_matrix:
    f = space.free
    return mat[f][:, f].tocsr()


def assemble_operator(mu, a_blocks) -> sp.csr_matrix:
    """The operator as the chain of sparse sums theta_0 A_0 + theta_1 A_1 + ..."""
    theta = affine_coefficients(mu)
    mat = theta[0] * a_blocks[0]
    for q in range(1, N_AFFINE):
        mat = mat + theta[q] * a_blocks[q]
    return mat.tocsr()


def step_matrices(mass_free, a_free, dt: float, theta: float):
    """The theta-step matrices lhs and rhs_op as sparse sums."""
    lhs = (mass_free / dt + theta * a_free).tocsr()
    rhs_op = (mass_free / dt - (1.0 - theta) * a_free).tocsr()
    return lhs, rhs_op


def solve(style, mu, space, blocks, grid):
    """(U, lam) of the FEM solve of style, marched on the oracle's matrices.

    blocks is assemble_blocks(space) here; the operator is its sparse sum
    chain, the step matrices sums of the fancy-index restrictions, and the
    lift loads products of the full-node matrices with the lift's shape.
    """
    a_full = assemble_operator(mu, blocks["a_blocks"])
    free = space.free
    bnd = boundary_data(space, style, mu.r)
    load = lift_and_rhs((blocks["mass"] @ bnd.shape)[free], (a_full @ bnd.shape)[free], bnd, grid.dt)
    lhs, rhs_op = step_matrices(restrict(space, blocks["mass"]), restrict(space, a_full), grid.dt, THETA)
    payoff = payoff_vector(space)
    if style == "european":
        return march(payoff, rhs_op, load, grid.I, spla.splu(lhs.tocsc()).solve)
    step = fem_step(lhs, payoff, blocks["d_b"][free], band_order(space))
    return march(payoff, rhs_op, load, grid.I, step, payoff)


def project(style, space, blocks, psi, xi) -> dict:
    """The reduced blocks of a ReducedModel on the bases psi and xi, projected
    from the oracle's matrices (blocks is assemble_blocks(space) here)."""
    free = space.free
    shape = boundary_data(space, style, 1.0).shape
    payoff = payoff_vector(space)

    def inner(X, Y):
        return np.einsum("ki,kj->ij", X, Y)

    out = {
        "a_red": np.array([inner(psi, restrict(space, a) @ psi) for a in blocks["a_blocks"]]),
        "alift_red": np.array([psi.T @ (a @ shape)[free] for a in blocks["a_blocks"]]),
        "m_red": inner(psi, restrict(space, blocks["mass"]) @ psi),
        "mlift_red": psi.T @ (blocks["mass"] @ shape)[free],
        "u0_red": psi.T @ (restrict(space, blocks["v_gram"]) @ payoff),
    }
    if style == "american":
        out["b_red"] = inner(xi * blocks["d_b"][free][:, None], psi)
    return out
