"""Reference FEM assembly: one COO pass per integral and SciPy's sparse sums.

assemble_blocks, restrict, assemble_operator and step_matrices here are the
element-by-element assembly, the fancy-index restriction and the chains of
sparse sums that hestoncal's one-pass assembly and per-mesh gathers replace;
the tests hold the two to the same matrices bit for bit (assert_same_csr).
"""

import numpy as np
import scipy.sparse as sp

from hestoncal.heston_operator import N_AFFINE, affine_coefficients
from hestoncal.mesh import _QP, _QW, _triangle_geometry
from hestoncal.params import DEFAULT_CALIB_BOX, ModelParams

#: Three operators: the acceptance suite's, one with rho = 0 and r = 0 (two
#: coefficients zero) and the lower corner of DEFAULT_CALIB_BOX.
THREE_MU = [
    ModelParams(0.7, -0.8, 0.3, 1.4, 0.05),
    ModelParams(0.5, 0.0, 0.2, 2.0, 0.0),
    ModelParams(*DEFAULT_CALIB_BOX.lo[:4], 0.05),
]


def assert_same_csr(got, want):
    """got and want are the same CSR matrix bit for bit: pattern, values and the signs of zeros."""
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


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
