"""P1 finite element discretization of the log-transformed pricing domain.

The computational domain (nu_min, nu_max) x (x_min, x_max) is tiled by a
structured triangulation of the tensor grid of one node array per axis.
All parameter-independent blocks are assembled in one pass, vectorized
over triangles, as values on one CSR pattern per mesh (assemble_blocks),
bit for bit the values of one COO assembly per integral; the biorthogonal dual
basis enters only through the diagonal pairing entries int(phi_p).  Point
location and P1 interpolation are vectorized over points: evaluation_row
turns a batch of points into interpolation rows, the three nodes and
barycentric weights of each point's triangle, which evaluate_p1 applies to
nodal values by gathering.

scipy.sparse is imported by the functions that build sparse matrices, here
and in solvers and rbm, so that importing any hestoncal module loads only
NumPy: the closed-form and tree routes never load the sparse stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
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


#: The element integrals int w (D phi_j)(D phi_i) that assemble_blocks
#: assembles, as (weight, D on the trial function phi_j, D on the test
#: function phi_i): weight "one" or "nu" (the variance coordinate), D None
#: (identity), "nu" or "x".
_INTEGRALS = (
    ("one", None, None),  # mass
    ("one", "nu", "nu"),  # V-Gram, with the next
    ("one", "x", "x"),
    ("nu", "nu", "nu"),  # the affine operator blocks, in the order of affine_coefficients
    ("nu", "nu", "x"),  # the mixed block, a symmetrized pair with the next
    ("nu", "x", "nu"),
    ("nu", "x", "x"),
    ("one", "nu", None),
    ("nu", "nu", None),
    ("one", "x", None),
    ("nu", "x", None),
)


def _element_values(space: FemSpace) -> np.ndarray:
    """The element matrices of every integral of _INTEGRALS, in COO order.

    Row b holds integral b's 9 J element entries: local pair (i, j) of
    triangle t, tested with phi_i and taking phi_j as trial function, at
    (3 i + j) J + t; its last entry is the -0.0 that _summation pads with.
    The geometry and the quadrature factors are computed once; each pair's
    values are 2 area einsum("q,jq->j", QW, w fi fj) on a fresh contiguous
    product, which is how each entry has always been rounded (einsum may
    round a strided operand differently).  With w = 1, w fi is fi and
    fi fj is fj fi exactly, so a symmetric integral's pair (j, i) reuses
    (i, j).
    """
    p, area, grads = _triangle_geometry(space)
    J = space.triangles.shape[0]
    nq = _QP.shape[0]
    lam = np.column_stack([1.0 - _QP[:, 0] - _QP[:, 1], _QP[:, 0], _QP[:, 1]])  # (nq, 3)
    qnu = np.einsum("qk,jk->jq", lam, p[:, :, 0])  # (J, nq) quadrature point nu
    # (J, nq) values of the derivative/identity of basis k at quad points
    factors = {(None, k): np.broadcast_to(lam[:, k], (J, nq)) for k in range(3)}
    for col, d in enumerate(("nu", "x")):
        for k in range(3):
            factors[d, k] = np.repeat(grads[:, k, col][:, None], nq, axis=1)
    two_area = 2.0 * area
    out = np.empty((len(_INTEGRALS), 9 * J + 1))
    out[:, -1] = -0.0
    for b, (weight, d_trial, d_test) in enumerate(_INTEGRALS):
        pair = out[b, :-1].reshape(3, 3, J)
        for i in range(3):
            wfi = factors[d_test, i] if weight == "one" else qnu * factors[d_test, i]
            for j in range(3):
                if weight == "one" and d_trial == d_test and j < i:
                    pair[i, j] = pair[j, i]
                else:
                    np.multiply(two_area, np.einsum("q,jq->j", _QW, wfi * factors[d_trial, j]), out=pair[i, j])
    return out


@dataclass(frozen=True)
class CsrPattern:
    """A canonical square CSR pattern (each row's column indices sorted and
    unique) that several matrices share."""

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        # shared by every matrix made on the pattern, so none may change them in place
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The CSR matrix of the values data at the pattern's entries, its
        exact zeros left out; when there is none, it shares the pattern's arrays.

        With finite operands no product changes by the zeros it leaves out
        (a sparse product's sums start from +0.0), but SuperLU does not see them.
        """
        import scipy.sparse as sp

        n = self.indptr.size - 1
        if (keep := data != 0).all():
            return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))
        ends = np.concatenate(([0], np.cumsum(keep)))
        return sp.csr_matrix((data[keep], self.indices[keep], ends[self.indptr]), shape=(n, n))


def _summation(space: FemSpace) -> tuple[CsrPattern, np.ndarray]:
    """The CSR pattern of every element matrix sum of the mesh and how
    SciPy sums it.

    COO to CSR conversion sorts the 9 J element entries by row, stably,
    then sorts each row's column indices (an unstable sort) and sums each
    run of duplicates left to right.  The order is read once, by sorting a
    CSR whose data are the COO positions.  Returns the pattern and the
    (terms, nnz) gather: row k holds the COO position of every entry's
    k-th term, 9 J where an entry has fewer terms; a -0.0 goes there, which
    adds exactly nothing.
    """
    import scipy.sparse as sp

    t = space.triangles.T
    rows = t[[0, 0, 0, 1, 1, 1, 2, 2, 2]].ravel()
    cols = t[[0, 1, 2, 0, 1, 2, 0, 1, 2]].ravel()
    n = space.n_nodes
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    unsorted = sp.csr_matrix((order.astype(float), cols[order], indptr), shape=(n, n))
    unsorted.sort_indices()
    position = unsorted.data.astype(np.int64)
    key = rows[position] * n + unsorted.indices
    first = np.concatenate(([True], key[1:] != key[:-1]))
    start = np.flatnonzero(first)
    run = np.cumsum(first) - 1
    terms = np.full((np.diff(np.append(start, key.size)).max(), start.size), rows.size)
    terms[np.arange(key.size) - start[run], run] = position
    run_indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[position[start]], minlength=n))))
    indices = unsorted.indices[start]
    return CsrPattern(run_indptr.astype(indices.dtype), indices), terms


@dataclass
class AssemblyBlocks:
    """Parameter-independent blocks of one FemSpace, as values on its one CSR pattern.

    a_values: the eight blocks of the affine operator split (see
    heston_operator.affine_coefficients for their coefficients), each its
    values at all of pattern's entries, exact zeros and their signs
    included; the last, int phi_j phi_i, is the mass.
    free_entries: the positions of pattern's entries in free rows and
    columns, in order, whose free-DOF pattern is free_pattern.
    mass: the mass matrix on all nodes; mass_free and v_gram_free, the H1
    semi-norm Gram matrix int grad phi_j . grad phi_i, on the free DOFs.
    d_b: diagonal of the biorthogonal pairing, (D_B)_pp = int phi_p.
    Every matrix made from values leaves their exact zeros out.
    """

    space: FemSpace
    pattern: CsrPattern = field(repr=False)
    a_values: list = field(repr=False)
    free_entries: np.ndarray = field(repr=False)
    free_pattern: CsrPattern = field(repr=False)
    mass: sp.csr_matrix = field(repr=False)
    mass_free: sp.csr_matrix = field(repr=False)
    v_gram_free: sp.csr_matrix = field(repr=False)
    d_b: np.ndarray = field(repr=False)

    def free_matrix(self, values: np.ndarray) -> sp.csr_matrix:
        """The matrix of values on pattern restricted to the free DOFs, by the one
        gather: SciPy's mat[free][:, free] without its exact zeros."""
        return self.free_pattern.matrix(values[self.free_entries])

    @property
    def d_b_free(self) -> np.ndarray:
        return self.d_b[self.space.free]


def assemble_blocks(space: FemSpace) -> AssemblyBlocks:
    """Assemble the affine operator blocks, V-Gram and the dual pairing in one pass.

    Every integral's element values (_element_values) are summed into CSR
    data through the mesh's one summation gather (_summation): term by term,
    left to right, the additions SciPy's COO to CSR conversion makes.  The
    pairs summed into the V-Gram and the mixed block are then added entry by
    entry, as SciPy adds two matrices on one pattern.  Every block equals
    the one that separate COO assemblies and sparse sums give, bit for bit.
    """
    pattern, terms = _summation(space)
    values = _element_values(space)
    data = np.take(values, terms[0], axis=1)
    for k in range(1, terms.shape[0]):
        data += np.take(values, terms[k], axis=1)
    del values, terms
    # the entries in free rows and columns, renumbered to free DOFs, in SciPy's order of mat[free][:, free]
    is_free = ~space.dirichlet
    in_free = np.repeat(is_free, np.diff(pattern.indptr)) & is_free[pattern.indices]
    ends = np.concatenate(([0], np.cumsum(in_free)))
    free_indptr = np.append(ends[pattern.indptr[space.free]], ends[-1])
    free_indices = space.free_index[pattern.indices[in_free]]
    free_pattern = CsrPattern(free_indptr.astype(pattern.indices.dtype), free_indices.astype(pattern.indices.dtype))
    free_entries = np.flatnonzero(in_free)
    # each its own array, which the matrices made from it may share
    a_values = [data[3].copy(), data[4] + data[5], *(d.copy() for d in data[6:]), data[0].copy()]
    mass = pattern.matrix(a_values[7])
    return AssemblyBlocks(
        space=space,
        pattern=pattern,
        a_values=a_values,
        free_entries=free_entries,
        free_pattern=free_pattern,
        mass=mass,
        mass_free=free_pattern.matrix(a_values[7][free_entries]),
        v_gram_free=free_pattern.matrix((data[1] + data[2])[free_entries]),
        d_b=np.asarray(mass.sum(axis=1)).ravel(),  # partition of unity
    )


def evaluation_row(space: FemSpace, nu, x) -> tuple[np.ndarray, np.ndarray]:
    """Rows of P1 interpolation at the points (nu, x), one per point.

    Returns (nodes, weights), both (points, 3): row i is the three nodes of
    point i's triangle and its barycentric weights there, so evaluate_p1
    interpolates full nodal values at every point by gathering.  nu and x
    broadcast; the rows follow their flattened order.  Each point's cell is
    searched on the two axes' inner nodes, so that the search itself puts
    the upper walls in the last cell, and its local coordinates give the
    weights.  A point outside the closed domain raises ValueError.
    """
    nu, x = (c.ravel() for c in np.broadcast_arrays(nu, x))
    d = space.domain
    tol = 1e-12 * max(d.nu_max - d.nu_min, d.x_max - d.x_min)
    inside = (d.nu_min - tol <= nu) & (nu <= d.nu_max + tol)
    inside &= (d.x_min - tol <= x) & (x <= d.x_max + tol)
    if not inside.all():
        i = np.argmin(inside)
        raise ValueError(f"point ({nu[i]}, {x[i]}) lies outside the domain")
    a = np.searchsorted(space.nu[1:-1], nu, side="right")
    b = np.searchsorted(space.x[1:-1], x, side="right")
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
