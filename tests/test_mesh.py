import fem_oracle
import numpy as np
import pytest
import scipy.sparse.linalg as spla
from fem_oracle import assemble_matrix, assert_same_csr, assert_same_values

from hestoncal.mesh import (
    MASS,
    _QP,
    _QW,
    Domain2D,
    _triangle_geometry,
    assemble_blocks,
    band_order,
    build_mesh,
    evaluate_p1,
    evaluation_row,
    mesh_from_nodes,
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


def test_free_index_maps_each_node_to_its_free_position():
    s = build_mesh(Domain2D(), 5, 7)
    assert np.array_equal(s.free_index[s.free], np.arange(s.n_free))
    assert np.all(s.free_index[s.dirichlet] == 0)


@pytest.mark.parametrize("n_nu, n_x", [(8, 8), (33, 33), (16, 64), (64, 16)])
def test_band_order_bands_the_step_matrix(n_nu, n_x):
    """band_order is a permutation of the free positions, and every free-DOF
    matrix of the mesh (the theta-step's sparsity pattern: the mass matrix
    plus the operator blocks) permuted by it has bandwidth at most
    min(n_nu, n_x) + 2.  Splitting the cells along the other diagonal
    roughly doubles it."""
    space = build_mesh(Domain2D(), n_nu, n_x)
    blocks = assemble_blocks(space)
    order = band_order(space)
    assert np.array_equal(np.sort(order), np.arange(space.n_free))
    pattern = abs(blocks.free_matrix(blocks.a_values[MASS])) + sum(abs(blocks.free_matrix(a)) for a in blocks.a_values)
    rows, cols = pattern.nonzero()
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    assert np.abs(position[rows] - position[cols]).max() <= min(n_nu, n_x) + 2


def _area(d: Domain2D) -> float:
    return (d.nu_max - d.nu_min) * (d.x_max - d.x_min)


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
    assert np.isclose(areas.sum(), _area(s.domain), rtol=1e-13)


def test_mass_matrix_total_is_area(small_space):
    blocks = assemble_blocks(small_space)
    assert np.isclose(blocks.pattern.matrix(blocks.a_values[MASS]).sum(), _area(small_space.domain), rtol=1e-12)
    # partition of unity: pairing weights sum to the area and are positive
    assert np.isclose(blocks.d_b.sum(), _area(small_space.domain), rtol=1e-12)
    assert np.all(blocks.d_b > 0)


def test_stiffness_kernel_is_constants(small_space):
    """Constants are in the kernel of every block that differentiates the
    trial function: the seven operator blocks but the mass, and the V-Gram,
    whose free-DOF restriction blocks.v_gram_free is the oracle's bit for bit."""
    blocks = assemble_blocks(small_space)
    ones = np.ones(small_space.n_nodes)
    for values in blocks.a_values[:7]:
        assert np.max(np.abs(blocks.pattern.matrix(values) @ ones)) < 1e-12
    assert np.max(np.abs(fem_oracle.assemble_blocks(small_space)["v_gram"] @ ones)) < 1e-12


def test_interpolation_exact_on_affine(small_space):
    s = small_space
    coeff = 2.0 + 3.0 * s.coords[:, 0] - 0.5 * s.coords[:, 1]
    nu, x = np.array([(0.5, 0.3), (1e-5, -5.0), (3.0, 5.0), (2.2, -1.7)]).T
    rows = evaluation_row(s, nu, x)
    got = evaluate_p1(rows, coeff)
    assert np.allclose(got, 2.0 + 3.0 * nu - 0.5 * x, rtol=0.0, atol=1e-12)
    # further axes of the coefficients carry through, column by column
    stacked = evaluate_p1(rows, np.column_stack([coeff, 2.0 * coeff, s.coords[:, 1]]))
    assert stacked.shape == (4, 3)
    assert np.array_equal(stacked[:, 0], got) and np.array_equal(stacked[:, 1], 2.0 * got)
    assert np.allclose(stacked[:, 2], x, rtol=0.0, atol=1e-12)


def test_evaluation_row_weights(small_space):
    nodes, weights = evaluation_row(small_space, 0.7, 0.2)
    assert nodes.shape == weights.shape == (1, 3)
    assert np.unique(nodes).size == 3
    assert np.isclose(weights.sum(), 1.0)
    assert np.all(weights >= -1e-14)


def _barycentric(space, nodes, nu, x):
    """Barycentric coordinates of (nu, x) in the triangle of nodes by a 2 x 2 solve."""
    p = space.coords[nodes]
    st = np.linalg.solve((p[1:] - p[0]).T, np.array([nu, x]) - p[0])
    return np.array([1.0 - st.sum(), *st])


def _sinh_graded(space):
    """The space with its x nodes moved to x = 0.1 sinh(z), z uniform, which
    crowds them around x = 0; the topology and the domain stay."""
    d = space.domain
    z = np.linspace(np.arcsinh(d.x_min / 0.1), np.arcsinh(d.x_max / 0.1), space.n_x + 1)
    x = 0.1 * np.sinh(z)
    x[[0, -1]] = d.x_min, d.x_max
    return mesh_from_nodes(space.nu, x)


@pytest.mark.parametrize("graded", [False, True], ids=["uniform", "sinh_graded"])
def test_evaluation_row_covers_all(small_space, graded):
    """Every point of the closed domain gets the nodes of a triangle
    containing it and that triangle's barycentric weights, on the uniform
    mesh and on one graded in x."""
    s = _sinh_graded(small_space) if graded else small_space
    d = s.domain
    rng = np.random.default_rng(42)
    nu_nodes, x_nodes = s.nu, s.x
    u = rng.uniform(size=60)
    a, b = rng.integers(0, s.n_nu, 60), rng.integers(0, s.n_x, 60)
    points = [
        rng.uniform((d.nu_min, d.x_min), (d.nu_max, d.x_max), (200, 2)),  # seeded
        s.coords,  # mesh nodes
        np.column_stack([rng.choice(nu_nodes, 60), d.x_min + u * (d.x_max - d.x_min)]),  # nu lines
        np.column_stack([d.nu_min + u * (d.nu_max - d.nu_min), rng.choice(x_nodes, 60)]),  # x lines
        # cell diagonals, from (low nu, low x) to (high nu, high x)
        np.column_stack([nu_nodes[a] + u * np.diff(nu_nodes)[a], x_nodes[b] + u * np.diff(x_nodes)[b]]),
        np.array([[d.nu_min, d.x_min], [d.nu_min, d.x_max], [d.nu_max, d.x_min], [d.nu_max, d.x_max]]),
    ]
    nu, x = np.vstack(points).T
    nodes, weights = evaluation_row(s, nu, x)
    assert nodes.shape == weights.shape == (nu.size, 3)
    triangles = {tuple(t) for t in s.triangles}
    for i in range(nu.size):
        assert tuple(nodes[i]) in triangles
        lam = _barycentric(s, nodes[i], nu[i], x[i])
        assert np.all(lam >= -1e-12) and np.isclose(lam.sum(), 1.0)
        assert np.allclose(weights[i], lam, rtol=0.0, atol=1e-14)
    # the weights are a partition of unity that rebuilds each point
    assert np.all(weights >= 0.0)
    rebuilt = np.einsum("pk,pkc->pc", weights, s.coords[nodes])
    assert np.allclose(rebuilt, np.column_stack([nu, x]), rtol=0.0, atol=1e-14)
    # scalars broadcast against arrays
    for got, want in zip(evaluation_row(s, nu[0], x[:5]), evaluation_row(s, np.full(5, nu[0]), x[:5])):
        assert np.array_equal(got, want)
    # one point outside, by either coordinate, fails the whole batch
    for bad in ((-1.0, 0.0), (1.0, d.x_max + 0.1), (d.nu_max * 2, 0.0), (1.0, d.x_min - 1e-6)):
        with pytest.raises(ValueError, match="outside the domain"):
            evaluation_row(s, np.append(nu[:10], bad[0]), np.append(x[:10], bad[1]))


def test_mesh_from_nodes_derives_domain_and_counts(small_space):
    """A space is its node arrays: the uniform mesh is their linspace case,
    and a graded one keeps its nodes, read-only, with the domain and the
    interval counts they give."""
    d = small_space.domain
    assert np.array_equal(small_space.nu, np.linspace(d.nu_min, d.nu_max, 9))
    assert np.array_equal(small_space.x, np.linspace(d.x_min, d.x_max, 9))
    g = _sinh_graded(build_mesh(Domain2D(), 6, 10))
    assert (g.domain, g.n_nu, g.n_x, g.n_free) == (Domain2D(), 6, 10, 7 * 9)
    assert np.array_equal(g.coords, np.column_stack([np.repeat(g.nu, 11), np.tile(g.x, 7)]))
    with pytest.raises(ValueError, match="read-only"):
        g.x[1] = 0.0


@pytest.mark.parametrize(
    "nu, x, named",
    [
        ([0.1, 0.1, 1.0], [-1.0, 1.0], "nu must be"),
        ([0.1, 1.0], [-1.0, 1.0, 0.5], "x must be"),
        ([0.5], [-1.0, 1.0], "nu must be"),
        ([0.1, 1.0], [[-1.0, 1.0]], "x must be"),
        ([0.1, np.nan, 1.0], [-1.0, 1.0], "nu must be"),
        ([0.1, 1.0], [-1.0, np.inf], "x must be"),
        ([0.0, 1.0], [-1.0, 1.0], "0 < nu_min"),
        ([0.1, 1.0], [0.0, 1.0], "x_min < 0"),
        ([0.1, 1.0], [-2.0, -1.0], "x_min < 0"),
    ],
    ids=["nu_repeated", "x_decreasing", "one_node", "two_dimensional", "nan", "inf",
         "nu_min_zero", "x_min_zero", "x_below_zero"],
)
def test_mesh_from_nodes_refuses_bad_node_arrays(nu, x, named):
    with pytest.raises(ValueError, match=named):
        mesh_from_nodes(nu, x)


@pytest.mark.parametrize("n, graded", [(8, False), (17, False), (33, False), (16, True)],
                         ids=["8x8", "17x17", "33x33", "graded_16x16"])
def test_blocks_match_the_coo_assembly_bit_for_bit(n, graded):
    """The one-pass assembly gives every block, its free-DOF restriction and
    the pairing weights exactly as one COO assembly per integral and SciPy's
    sparse sums and fancy indexing give them.  A single integral's values
    are the COO assembly's data on the pattern and on the free pattern, zero
    signs included; the sums, whose exact zeros SciPy leaves out, and every
    matrix made from values, which leaves them out too, are its matrices."""
    space = fem_oracle.graded_mesh(n, n) if graded else build_mesh(Domain2D(), n, n)
    blocks = assemble_blocks(space)
    want = fem_oracle.assemble_blocks(space)
    for q, (values, ref) in enumerate(zip(blocks.a_values, want["a_blocks"])):
        ref_free = fem_oracle.restrict(space, ref)
        if q != 1:  # the mixed block is a sum
            assert_same_values(blocks.pattern, values, ref)
            assert_same_values(blocks.free_pattern, values[blocks.free_entries], ref_free)
        assert_same_csr(blocks.pattern.matrix(values), fem_oracle.dropped(ref))
        assert_same_csr(blocks.free_matrix(values), fem_oracle.dropped(ref_free))
    mass = blocks.pattern.matrix(blocks.a_values[MASS])
    assert_same_csr(mass, fem_oracle.dropped(want["mass"]))
    mass_free = blocks.free_matrix(blocks.a_values[MASS])
    assert_same_csr(mass_free, fem_oracle.dropped(fem_oracle.restrict(space, want["mass"])))
    assert_same_csr(blocks.v_gram_free, fem_oracle.restrict(space, want["v_gram"]))
    assert blocks.d_b.tobytes() == want["d_b"].tobytes()
    # the matrices made from values share the pattern, which none may change
    assert np.shares_memory(mass.indices, blocks.pattern.indices)
    assert not blocks.pattern.indices.flags.writeable


def test_matrix_symmetry(small_space):
    blocks = assemble_blocks(small_space)
    mass = blocks.pattern.matrix(blocks.a_values[MASS])
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
