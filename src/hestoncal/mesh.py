"""P1 finite element discretization of the log-transformed pricing domain.

The computational domain (nu_min, nu_max) x (x_min, x_max) is tiled by a
structured triangulation of the tensor grid of one node array per axis.
Assembly of all parameter-independent matrices is vectorized over
triangles; the biorthogonal dual basis enters only through the diagonal
pairing entries int(phi_p).  Point location and P1
interpolation are vectorized over points: evaluation_row turns a batch of
points into interpolation rows, the three nodes and barycentric weights of
each point's triangle, which evaluate_p1 applies to nodal values by
gathering.
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


@dataclass
class FemSpace:
    """Triangulation of the tensor grid of two node arrays (mesh_from_nodes) and its DOF bookkeeping.

    Nodes are ordered nu-major: node(i_nu, i_x) = i_nu * (n_x + 1) + i_x.
    Each grid rectangle is split into two triangles along the diagonal from
    its (low nu, low x) corner to its (high nu, high x) corner.  Dirichlet
    nodes are the two x-walls (both corners included); the remaining
    boundary nodes on the nu-walls carry natural conditions.
    """

    nu: np.ndarray = field(repr=False)  # (n_nu + 1,) variance nodes, increasing
    x: np.ndarray = field(repr=False)  # (n_x + 1,) log-moneyness nodes, increasing
    coords: np.ndarray = field(init=False, repr=False)  # (N_X, 2), columns (nu, x)
    triangles: np.ndarray = field(init=False, repr=False)  # (J, 3) int
    dirichlet: np.ndarray = field(init=False, repr=False)  # bool mask, x-walls
    dirichlet_x_min: np.ndarray = field(init=False, repr=False)
    free: np.ndarray = field(init=False, repr=False)  # indices of non-Dirichlet nodes
    free_index: np.ndarray = field(init=False, repr=False)  # node -> position in free, 0 if Dirichlet

    def __post_init__(self):
        NU, X = np.meshgrid(self.nu, self.x, indexing="ij")
        self.coords = np.column_stack([NU.ravel(), X.ravel()])

        stride = self.n_x + 1
        a, b = np.meshgrid(np.arange(self.n_nu), np.arange(self.n_x), indexing="ij")
        n00 = (a * stride + b).ravel()
        n01 = n00 + 1
        n10 = n00 + stride
        n11 = n10 + 1
        self.triangles = np.vstack(
            [
                np.column_stack([n00, n10, n11]),
                np.column_stack([n00, n11, n01]),
            ]
        )

        i_x = np.tile(np.arange(stride), self.n_nu + 1)
        self.dirichlet_x_min = i_x == 0
        self.dirichlet = self.dirichlet_x_min | (i_x == self.n_x)
        self.free = np.flatnonzero(~self.dirichlet)
        self.free_index = np.zeros(self.n_nodes, dtype=np.int64)
        self.free_index[self.free] = np.arange(self.free.size)

    @property
    def domain(self) -> Domain2D:
        return Domain2D(float(self.nu[0]), float(self.nu[-1]), float(self.x[0]), float(self.x[-1]))

    @property
    def n_nu(self) -> int:
        return self.nu.size - 1

    @property
    def n_x(self) -> int:
        return self.x.size - 1

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_free(self) -> int:
        return self.free.size


def mesh_from_nodes(nu, x) -> FemSpace:
    """The FemSpace of the node arrays nu and x, which it keeps as read-only copies.  Each
    needs at least 2 finite, strictly increasing nodes, and their ends must make a Domain2D."""
    nu, x = np.array(nu, dtype=float), np.array(x, dtype=float)
    for name, a in (("nu", nu), ("x", x)):
        if a.ndim != 1 or a.size < 2 or not (np.isfinite(a).all() and (np.diff(a) > 0).all()):
            raise ValueError(f"{name} must be at least 2 finite, strictly increasing nodes")
        a.flags.writeable = False
    Domain2D(nu[0], nu[-1], x[0], x[-1])  # checks the ends
    return FemSpace(nu, x)


def build_mesh(domain: Domain2D, n_nu: int, n_x: int) -> FemSpace:
    """The uniform mesh of domain with n_nu x n_x cells: mesh_from_nodes on linspace nodes."""
    return mesh_from_nodes(
        np.linspace(domain.nu_min, domain.nu_max, n_nu + 1), np.linspace(domain.x_min, domain.x_max, n_x + 1)
    )


def band_order(space: FemSpace) -> np.ndarray:
    """A band (envelope) ordering of the free DOFs, as positions in space.free.

    The free nodes are sorted by i_nu - i_x, then by i_nu: the level lines
    parallel to the diagonal along which FemSpace splits every cell.  A
    node's neighbours lie on its own line and the two adjacent ones, so the
    step matrix permuted symmetrically by this order is banded, its
    bandwidth about the length of the longest line, min(n_nu, n_x) + 1.  It
    is the level structure that reverse Cuthill-McKee finds on this graph.
    """
    stride = space.n_x + 1
    i_nu, i_x = np.divmod(space.free, stride)
    return np.lexsort((i_nu, i_nu - i_x))


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


@dataclass
class AssemblyBlocks:
    """Parameter-independent matrices of one FemSpace.

    mass: int phi_j phi_i.
    v_gram: H1 semi-norm Gram matrix int grad phi_j . grad phi_i.
    a_blocks: the eight matrices of the affine operator split (see
    heston_operator.affine_coefficients for the corresponding coefficients).
    d_b: diagonal of the biorthogonal pairing, (D_B)_pp = int phi_p.
    All matrices are on the full node set; use restrict() for the free-DOF
    versions.
    """

    space: FemSpace
    mass: sp.csr_matrix
    v_gram: sp.csr_matrix
    a_blocks: list
    d_b: np.ndarray

    def restrict(self, mat: sp.csr_matrix) -> sp.csr_matrix:
        f = self.space.free
        return mat[f][:, f].tocsr()

    @cached_property
    def mass_free(self) -> sp.csr_matrix:
        return self.restrict(self.mass)

    @cached_property
    def v_gram_free(self) -> sp.csr_matrix:
        return self.restrict(self.v_gram)

    @property
    def d_b_free(self) -> np.ndarray:
        return self.d_b[self.space.free]


def assemble_blocks(space: FemSpace) -> AssemblyBlocks:
    """Assemble mass, V-Gram, affine operator blocks and the dual pairing."""
    mass = assemble_matrix(space, "one", None, None)
    v_gram = (
        assemble_matrix(space, "one", "nu", "nu")
        + assemble_matrix(space, "one", "x", "x")
    ).tocsr()
    # the affine operator blocks, in the order of affine_coefficients
    a_blocks = [
        assemble_matrix(space, "nu", "nu", "nu"),  # xi^2/2
        (
            assemble_matrix(space, "nu", "nu", "x")
            + assemble_matrix(space, "nu", "x", "nu")
        ).tocsr(),  # rho*xi/2, the mixed block as a symmetrized pair
        assemble_matrix(space, "nu", "x", "x"),  # 1/2
        assemble_matrix(space, "one", "nu", None),  # -kappa*gamma + xi^2/2
        assemble_matrix(space, "nu", "nu", None),  # kappa
        assemble_matrix(space, "one", "x", None),  # -r + rho*xi/2
        assemble_matrix(space, "nu", "x", None),  # 1/2
        mass,  # r
    ]
    d_b = np.asarray(mass.sum(axis=1)).ravel()  # partition of unity
    return AssemblyBlocks(space=space, mass=mass, v_gram=v_gram, a_blocks=a_blocks, d_b=d_b)


def evaluation_row(space: FemSpace, nu, x) -> tuple[np.ndarray, np.ndarray]:
    """Rows of P1 interpolation at the points (nu, x), one per point.

    Returns (nodes, weights), both (points, 3): row i is the three nodes of
    point i's triangle and its barycentric weights there, so evaluate_p1
    interpolates full nodal values at every point by gathering.  nu and x
    broadcast; the rows follow their flattened order.  Each point's cell is
    searched on the two axes' node arrays (the upper walls belong to the
    last cell), and its local coordinates give the weights.  A point
    outside the closed domain raises ValueError.
    """
    nu, x = (c.ravel() for c in np.broadcast_arrays(nu, x))
    d = space.domain
    tol = 1e-12 * max(d.nu_max - d.nu_min, d.x_max - d.x_min)
    inside = (d.nu_min - tol <= nu) & (nu <= d.nu_max + tol)
    inside &= (d.x_min - tol <= x) & (x <= d.x_max + tol)
    if not inside.all():
        i = np.argmin(inside)
        raise ValueError(f"point ({nu[i]}, {x[i]}) lies outside the domain")
    a = np.clip(np.searchsorted(space.nu, nu, side="right") - 1, 0, space.n_nu - 1)
    b = np.clip(np.searchsorted(space.x, x, side="right") - 1, 0, space.n_x - 1)
    s = (nu - space.nu[a]) / (space.nu[a + 1] - space.nu[a])
    t = (x - space.x[b]) / (space.x[b + 1] - space.x[b])
    # lower triangle [n00, n10, n11] where s >= t, upper [n00, n11, n01]
    lower = s >= t
    cell = a * space.n_x + b
    nodes = space.triangles[np.where(lower, cell, cell + space.triangles.shape[0] // 2)]
    weights = np.column_stack([1.0 - np.maximum(s, t), np.where(lower, s - t, s), np.where(lower, t, t - s)])
    return nodes, weights


def evaluate_p1(rows, coefficients: np.ndarray) -> np.ndarray:
    """P1 interpolant of nodal coefficients at the points of evaluation_row rows.

    coefficients is indexed by the rows' node indices along its first axis;
    any further axes carry through, so a (nodes, m) array gives (points, m).
    Each value sums the three weighted node values in row order, the order
    of a sparse row product.
    """
    nodes, weights = rows
    c = coefficients[nodes]  # (points, 3, ...)
    w = weights.reshape(weights.shape + (1,) * (c.ndim - 2))
    return w[:, 0] * c[:, 0] + w[:, 1] * c[:, 1] + w[:, 2] * c[:, 2]
