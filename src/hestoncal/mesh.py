"""P1 finite element discretization of the log-transformed pricing domain.

The computational domain (nu_min, nu_max) x (x_min, x_max) is tiled by a
structured triangulation.  Assembly of all parameter-independent matrices is
vectorized over triangles; the biorthogonal dual basis enters only through
the diagonal pairing entries int(phi_p).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

# 6-point Dunavant rule, exact for polynomials of degree 4 on the reference
# triangle (more than the degree-3 integrands arising here require).
_QP = np.array(
    [
        [0.44594849091597, 0.44594849091597],
        [0.44594849091597, 0.10810301816807],
        [0.10810301816807, 0.44594849091597],
        [0.09157621350977, 0.09157621350977],
        [0.09157621350977, 0.81684757298046],
        [0.81684757298046, 0.09157621350977],
    ]
)
_QW = np.array(
    [
        0.22338158967801,
        0.22338158967801,
        0.22338158967801,
        0.10995174365532,
        0.10995174365532,
        0.10995174365532,
    ]
) * 0.5  # reference triangle area


@dataclass(frozen=True)
class Domain2D:
    """Bounded log-transformed domain (nu_min, nu_max) x (x_min, x_max)."""

    nu_min: float = 1e-5
    nu_max: float = 3.0
    x_min: float = -5.0
    x_max: float = 5.0

    def __post_init__(self):
        if not 0.0 < self.nu_min < self.nu_max:
            raise ValueError("require 0 < nu_min < nu_max")
        if not self.x_min < 0.0 < self.x_max:
            raise ValueError("require x_min < 0 < x_max")

    @property
    def area(self) -> float:
        return (self.nu_max - self.nu_min) * (self.x_max - self.x_min)


@dataclass
class FemSpace:
    """Structured triangulation with the DOF bookkeeping of the primal space.

    Nodes are ordered nu-major: node(i_nu, i_x) = i_nu * (n_x + 1) + i_x.
    Dirichlet nodes are the two x-walls (both corners included); the
    remaining boundary nodes on the nu-walls carry natural conditions.
    """

    domain: Domain2D
    n_nu: int
    n_x: int
    coords: np.ndarray = field(repr=False)  # (N_X, 2), columns (nu, x)
    triangles: np.ndarray = field(repr=False)  # (J, 3) int
    dirichlet: np.ndarray = field(repr=False)  # bool mask, x-walls
    dirichlet_x_min: np.ndarray = field(repr=False)
    dirichlet_x_max: np.ndarray = field(repr=False)
    neumann: np.ndarray = field(repr=False)  # bool mask, nu-walls minus corners
    free: np.ndarray = field(repr=False)  # indices of non-Dirichlet nodes
    free_index: np.ndarray = field(repr=False)  # full -> free position or -1

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_free(self) -> int:
        return self.free.size

    @property
    def h_nu(self) -> float:
        return (self.domain.nu_max - self.domain.nu_min) / self.n_nu

    @property
    def h_x(self) -> float:
        return (self.domain.x_max - self.domain.x_min) / self.n_x


def build_mesh(domain: Domain2D, n_nu: int, n_x: int) -> FemSpace:
    """Build the structured P1 triangulation with (n_nu+1)*(n_x+1) nodes.

    Each grid rectangle is split into two triangles along the diagonal from
    its (low nu, low x) corner to its (high nu, high x) corner.
    """
    if n_nu < 1 or n_x < 1:
        raise ValueError("need at least one cell per direction")
    nu = np.linspace(domain.nu_min, domain.nu_max, n_nu + 1)
    x = np.linspace(domain.x_min, domain.x_max, n_x + 1)
    NU, X = np.meshgrid(nu, x, indexing="ij")
    coords = np.column_stack([NU.ravel(), X.ravel()])

    stride = n_x + 1
    a, b = np.meshgrid(np.arange(n_nu), np.arange(n_x), indexing="ij")
    n00 = (a * stride + b).ravel()
    n01 = n00 + 1
    n10 = n00 + stride
    n11 = n10 + 1
    tris = np.vstack(
        [
            np.column_stack([n00, n10, n11]),
            np.column_stack([n00, n11, n01]),
        ]
    )

    i_x = np.tile(np.arange(stride), n_nu + 1)
    i_nu = np.repeat(np.arange(n_nu + 1), stride)
    dir_lo = i_x == 0
    dir_hi = i_x == n_x
    dirichlet = dir_lo | dir_hi
    neumann = ((i_nu == 0) | (i_nu == n_nu)) & ~dirichlet

    free = np.flatnonzero(~dirichlet)
    free_index = np.full(coords.shape[0], -1, dtype=np.int64)
    free_index[free] = np.arange(free.size)

    return FemSpace(
        domain=domain,
        n_nu=n_nu,
        n_x=n_x,
        coords=coords,
        triangles=tris,
        dirichlet=dirichlet,
        dirichlet_x_min=dir_lo,
        dirichlet_x_max=dir_hi,
        neumann=neumann,
        free=free,
        free_index=free_index,
    )


def _triangle_geometry(space: FemSpace):
    """Per-triangle areas and constant P1 basis gradients."""
    p = space.coords[space.triangles]  # (J, 3, 2)
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    det = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
    area = 0.5 * np.abs(det)
    # gradient of barycentric coordinate lambda_k, rows (d/dnu, d/dx)
    grads = np.empty((space.triangles.shape[0], 3, 2))
    grads[:, 1, 0] = v2[:, 1] / det
    grads[:, 1, 1] = -v2[:, 0] / det
    grads[:, 2, 0] = -v1[:, 1] / det
    grads[:, 2, 1] = v1[:, 0] / det
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    return p, area, grads


def assemble_matrix(space: FemSpace, weight: str, d_trial: str | None, d_test: str | None):
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


def assemble_load(space: FemSpace, func) -> np.ndarray:
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


@dataclass
class AssemblyBlocks:
    """Parameter-independent matrices of one FemSpace.

    mass: int phi_j phi_i.
    v_gram: H1 semi-norm Gram matrix int grad phi_j . grad phi_i.
    a_blocks: the eight matrices of the affine operator split (see
    heston_operator.AFFINE_BLOCKS for the corresponding coefficients).
    d_b: diagonal of the biorthogonal pairing, (D_B)_pp = int phi_p.
    All matrices are on the full node set; use restrict()/restrict_rows()
    for the free-DOF versions.
    """

    space: FemSpace
    mass: sp.csr_matrix
    v_gram: sp.csr_matrix
    a_blocks: list
    d_b: np.ndarray

    def restrict(self, mat: sp.csr_matrix) -> sp.csr_matrix:
        f = self.space.free
        return mat[f][:, f].tocsr()

    def restrict_rows(self, mat: sp.csr_matrix) -> sp.csr_matrix:
        return mat[self.space.free].tocsr()

    @cached_property
    def mass_free(self) -> sp.csr_matrix:
        return self.restrict(self.mass)

    @cached_property
    def v_gram_free(self) -> sp.csr_matrix:
        return self.restrict(self.v_gram)

    @property
    def d_b_free(self) -> np.ndarray:
        return self.d_b[self.space.free]


# (weight, d_trial, d_test) per affine block, in coefficient order
BLOCK_DEFS = [
    ("nu", "nu", "nu"),  # xi^2/2
    None,  # rho*xi/2 mixed block, assembled as a symmetrized pair below
    ("nu", "x", "x"),  # 1/2
    ("one", "nu", None),  # -kappa*gamma + xi^2/2
    ("nu", "nu", None),  # kappa
    ("one", "x", None),  # -r + rho*xi/2
    ("nu", "x", None),  # 1/2
    ("one", None, None),  # r
]


def assemble_blocks(space: FemSpace) -> AssemblyBlocks:
    """Assemble mass, V-Gram, affine operator blocks and the dual pairing."""
    mass = assemble_matrix(space, "one", None, None)
    v_gram = (
        assemble_matrix(space, "one", "nu", "nu")
        + assemble_matrix(space, "one", "x", "x")
    ).tocsr()
    mixed = (
        assemble_matrix(space, "nu", "nu", "x")
        + assemble_matrix(space, "nu", "x", "nu")
    ).tocsr()
    a_blocks = []
    for k, spec in enumerate(BLOCK_DEFS):
        if spec is None:
            a_blocks.append(mixed)
        elif spec == ("one", None, None):
            a_blocks.append(mass)
        else:
            a_blocks.append(assemble_matrix(space, *spec))
    d_b = np.asarray(mass.sum(axis=1)).ravel()  # partition of unity
    return AssemblyBlocks(space=space, mass=mass, v_gram=v_gram, a_blocks=a_blocks, d_b=d_b)


def locate_triangle(space: FemSpace, nu: float, x: float) -> int:
    """Index of the triangle containing (nu, x); raises outside the closure."""
    d = space.domain
    tol = 1e-12 * max(d.nu_max - d.nu_min, d.x_max - d.x_min)
    if not (d.nu_min - tol <= nu <= d.nu_max + tol and d.x_min - tol <= x <= d.x_max + tol):
        raise ValueError(f"point ({nu}, {x}) lies outside the domain")
    a = min(int((nu - d.nu_min) / space.h_nu), space.n_nu - 1)
    b = min(int((x - d.x_min) / space.h_x), space.n_x - 1)
    a = max(a, 0)
    b = max(b, 0)
    # local coordinates in the cell decide which side of the diagonal we are on
    s = (nu - (d.nu_min + a * space.h_nu)) / space.h_nu
    t = (x - (d.x_min + b * space.h_x)) / space.h_x
    cell = a * space.n_x + b
    lower = space.triangles.shape[0] // 2
    return cell if s >= t else cell + lower


def evaluation_row(space: FemSpace, point):
    """Node indices and barycentric weights interpolating at (nu, x)."""
    nu, x = point
    tri = space.triangles[locate_triangle(space, nu, x)]
    p = space.coords[tri]
    T = np.array(
        [
            [p[1, 0] - p[0, 0], p[2, 0] - p[0, 0]],
            [p[1, 1] - p[0, 1], p[2, 1] - p[0, 1]],
        ]
    )
    st = np.linalg.solve(T, np.array([nu - p[0, 0], x - p[0, 1]]))
    lam = np.array([1.0 - st[0] - st[1], st[0], st[1]])
    return tri, lam


def evaluate_p1(space: FemSpace, coefficients: np.ndarray, point) -> float:
    """Barycentric P1 interpolation of full nodal coefficients at (nu, x)."""
    tri, lam = evaluation_row(space, point)
    return float(coefficients[tri] @ lam)
