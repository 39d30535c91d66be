import numpy as np
import pytest
import scipy.sparse.linalg as spla

from hestoncal.mesh import (
    _QP,
    _QW,
    Domain2D,
    _triangle_geometry,
    assemble_blocks,
    assemble_matrix,
    build_mesh,
    evaluate_p1,
    evaluation_row,
    locate_triangle,
)


def assemble_load(space, func) -> np.ndarray:
    """Assemble the load vector int f(nu, x) phi_p for a callable f."""
    p, area, _ = _triangle_geometry(space)
    lam = np.column_stack([1.0 - _QP[:, 0] - _QP[:, 1], _QP[:, 0], _QP[:, 1]])
    qnu = np.einsum("qk,jk->jq", lam, p[:, :, 0])
    qx = np.einsum("qk,jk->jq", lam, p[:, :, 1])
    fvals = func(qnu, qx)  # (J, nq)
    out = np.zeros(space.n_nodes)
    for k in range(3):
        contrib = 2.0 * area * np.einsum("q,jq->j", _QW * lam[:, k], fvals)
        np.add.at(out, space.triangles[:, k], contrib)
    return out


@pytest.fixture(scope="module")
def small_space():
    return build_mesh(Domain2D(), 8, 8)


def test_counts(small_space):
    s = small_space
    assert s.n_nodes == 81
    assert s.triangles.shape == (128, 3)
    # Dirichlet: two x-walls of 9 nodes each
    assert int(s.dirichlet.sum()) == 18
    assert s.n_free == 81 - 18


def test_triangles_tile_domain(small_space):
    s = small_space
    p = s.coords[s.triangles]
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    areas = 0.5 * np.abs(v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])
    assert np.isclose(areas.sum(), s.domain.area, rtol=1e-13)


def test_mass_matrix_total_is_area(small_space):
    blocks = assemble_blocks(small_space)
    assert np.isclose(blocks.mass.sum(), small_space.domain.area, rtol=1e-12)
    # partition of unity: pairing weights sum to the area and are positive
    assert np.isclose(blocks.d_b.sum(), small_space.domain.area, rtol=1e-12)
    assert np.all(blocks.d_b > 0)


def test_stiffness_kernel_is_constants(small_space):
    blocks = assemble_blocks(small_space)
    ones = np.ones(small_space.n_nodes)
    assert np.max(np.abs(blocks.v_gram @ ones)) < 1e-12


def test_interpolation_exact_on_affine(small_space):
    s = small_space
    coeff = 2.0 + 3.0 * s.coords[:, 0] - 0.5 * s.coords[:, 1]
    for point in [(0.5, 0.3), (1e-5, -5.0), (3.0, 5.0), (2.2, -1.7)]:
        want = 2.0 + 3.0 * point[0] - 0.5 * point[1]
        assert evaluate_p1(s, coeff, point) == pytest.approx(want, abs=1e-12)


def test_evaluation_row_weights(small_space):
    tri, lam = evaluation_row(small_space, (0.7, 0.2))
    assert lam.shape == (3,)
    assert np.isclose(lam.sum(), 1.0)
    assert np.all(lam >= -1e-14)


def test_locate_triangle_covers_all(small_space):
    s = small_space
    rng = np.random.default_rng(42)
    for _ in range(200):
        nu = rng.uniform(s.domain.nu_min, s.domain.nu_max)
        x = rng.uniform(s.domain.x_min, s.domain.x_max)
        j = locate_triangle(s, nu, x)
        tri, lam = evaluation_row(s, (nu, x))
        assert np.all(lam >= -1e-12) and np.isclose(lam.sum(), 1.0)
        assert 0 <= j < s.triangles.shape[0]
    with pytest.raises(ValueError):
        locate_triangle(s, -1.0, 0.0)


def test_matrix_symmetry(small_space):
    mass = assemble_matrix(small_space, "one", None, None)
    assert abs(mass - mass.T).max() < 1e-14
    knux = assemble_matrix(small_space, "nu", "nu", "x")
    kxnu = assemble_matrix(small_space, "nu", "x", "nu")
    assert abs(knux - kxnu.T).max() < 1e-14


def _poisson_error(n):
    """Manufactured solution of -Laplace u = f with the mesh's natural BCs."""
    dom = Domain2D()
    space = build_mesh(dom, n, n)
    blocks = assemble_blocks(space)
    lnu = dom.nu_max - dom.nu_min
    lx = dom.x_max - dom.x_min

    def exact(nu, x):
        return np.cos(np.pi * (nu - dom.nu_min) / lnu) * np.sin(np.pi * (x - dom.x_min) / lx)

    def source(nu, x):
        return ((np.pi / lnu) ** 2 + (np.pi / lx) ** 2) * exact(nu, x)

    rhs = assemble_load(space, source)[space.free]
    u = spla.spsolve(blocks.v_gram_free.tocsc(), rhs)
    return float(np.max(np.abs(u - exact(*space.coords[space.free].T))))


def test_poisson_convergence_rate():
    e1 = _poisson_error(8)
    e2 = _poisson_error(16)
    rate = np.log2(e1 / e2)
    assert rate > 1.7, f"observed rate {rate:.2f}"


def test_load_vector_constant(small_space):
    load = assemble_load(small_space, lambda nu, x: np.ones_like(nu))
    blocks = assemble_blocks(small_space)
    np.testing.assert_allclose(load, blocks.d_b, rtol=1e-12)
