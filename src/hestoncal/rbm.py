"""Reduced-basis surrogates: POD-Greedy (European) and POD-Angle-Greedy
(American) offline construction, affine operator projection, and dense
online solves with a cone-constrained multiplier, all of the unit-strike put
on the mesh (FemSpace) that each model holds.

The primal basis is orthonormal in the H1 semi-norm Gram inner product; the
dual cone is spanned by normalized nonnegative multiplier snapshots and kept
inf-sup stable through supremizer enrichment of the primal space.  The
online solve is the Galerkin projection of the detailed one: it runs the
same time loop (solvers.march) with the same load formula, and each
American step is solved by the shared active-set kernel through the dense
Schur complement of each active set (_schur_step).  It returns the detailed
solve's surface type, solvers.PriceSurface with basis psi; solvers.price_at
gathers the rows of psi at each quote's three nodes once, so its products
with the coefficients cost O(N) per quote and time level, independent of
the finite-element dimension.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .heston_operator import (
    N_AFFINE,
    THETA,
    BoundaryData,
    affine_coefficients,
    boundary_data,
    lift_and_rhs,
    payoff_vector,
)
from .mesh import MASS, AssemblyBlocks, FemSpace, assemble_blocks, mesh_from_nodes
from .params import ModelParams
from .solvers import LCPError, PriceSurface, TimeGrid, march, solve_american, solve_european

log = logging.getLogger(__name__)

#: Relative norm below which gram_orthonormalize drops a vector as dependent.
ORTHO_TOL = 1e-10
# consecutive re-picks of the worst training point without an error decrease
# after which the greedy stops as stagnated
STALL_PATIENCE = 3


@dataclass(frozen=True)
class GreedyConfig:
    """Offline settings: basis size cap and training tolerance."""

    n_max: int = 60
    tol: float = 1e-5


def make_training_grid(box, counts, r: float) -> list[ModelParams]:
    """Uniform tensor grid over the four PDE axes of the parameter box.

    counts gives the points along (xi, rho, gamma, kappa).  The PDE solution
    does not depend on the initial variance nu0, so the box's nu0 axis is
    not sampled, and a trailing fifth (nu0) count is accepted and ignored.
    The points come in row-major order with the externally fixed rate r
    attached.
    """
    axes = [np.linspace(lo, hi, c) for lo, hi, c in zip(box.lo[:4], box.hi[:4], counts)]
    return [ModelParams(*pde, r) for pde in itertools.product(*axes)]


# ---------------------------------------------------------------------------
# basic linear-algebra building blocks


def _inner(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X^T Y for column blocks over the free DOFs, summed by NumPy's own loops.

    BLAS splits these long sums across threads for some shapes, so a matmul
    here would make the basis depend on the BLAS thread count.
    """
    return np.einsum("ki,kj->ij", X, Y)


def pod1(trajectory: np.ndarray, gram) -> np.ndarray:
    """First dominant POD mode of snapshot columns in the gram inner product.

    Method of snapshots, for S of either shape: eigendecompose the small
    correlation matrix C = S^T G S; the mode is S q1 / sqrt(lambda1), unit
    gram-norm, its largest-magnitude component positive.  All-zero and
    numerically singular snapshots are refused.
    """
    S = np.asarray(trajectory, dtype=float)
    C = _inner(S, gram @ S)
    if not np.any(np.abs(C) > 0.0):
        raise ValueError("all-zero snapshot trajectory")
    w, Q = np.linalg.eigh(0.5 * (C + C.T))
    k = int(np.argmax(w))
    if w[k] <= 0.0:
        raise ValueError("snapshot correlation matrix is numerically singular")
    z = S @ (Q[:, k] / np.sqrt(w[k]))
    imax = int(np.argmax(np.abs(z)))
    if z[imax] < 0:
        z = -z
    return z


def gram_orthonormalize(vectors, gram, basis=()):
    """Modified Gram-Schmidt in the gram inner product, applied twice.

    Orthogonalizes each vector against the orthonormal basis vectors (a
    sequence, such as psi.T for the columns of psi) and the previously
    accepted vectors; vectors whose norm collapses below ORTHO_TOL (relative
    to their input norm) are dropped.
    """
    accepted = []
    cols = list(basis)
    for v in vectors:
        v = np.asarray(v, dtype=float).copy()
        n0 = np.sqrt(v @ (gram @ v))
        if n0 == 0.0:
            continue
        for _ in range(2):
            for b in cols + accepted:
                v -= (b @ (gram @ v)) * b
        n = np.sqrt(v @ (gram @ v))
        if n <= ORTHO_TOL * n0 or n == 0.0:
            continue
        accepted.append(v / n)
    return accepted


def angle_to_space(eta: np.ndarray, ortho, w_diag: np.ndarray) -> float:
    """Angle arccos(|Pi_Y eta|_W / |eta|_W) between eta and Y = span(ortho).

    The W inner product is diagonal (dual pairing weights), and ortho is a
    W-orthonormal sequence of vectors; an empty one gives a right angle.
    """
    norm_eta = np.sqrt(eta @ (w_diag * eta))
    if norm_eta == 0.0:
        raise ValueError("cannot measure the angle of a zero vector")
    proj_sq = sum(float(b @ (w_diag * eta)) ** 2 for b in ortho)
    ratio = np.sqrt(max(proj_sq, 0.0)) / norm_eta
    return float(np.arccos(np.clip(ratio, 0.0, 1.0)))


def supremizer(xi_vec: np.ndarray, blocks: AssemblyBlocks) -> np.ndarray:
    """Solve (T xi, v)_V = b(xi, v) on the free DOFs.

    With the diagonal pairing, b(xi, v) = sum_p d_p xi_p v_p, so the right
    hand side is D_B xi.
    """
    import scipy.sparse.linalg as spla

    rhs = blocks.d_b_free * xi_vec
    return spla.spsolve(blocks.v_gram_free.tocsc(), rhs)


# ---------------------------------------------------------------------------
# reduced model container


@dataclass
class ReducedModel:
    """Offline output of _project_offline: the FEM blocks it projected, time grid, bases,
    projected blocks, greedy history.  The mesh is blocks.space.  The projected mass is the
    affine block mesh.MASS, a_red[MASS] and alift_red[MASS]."""

    style: str
    blocks: AssemblyBlocks = field(repr=False, compare=False)
    grid: TimeGrid
    psi: np.ndarray = field(repr=False)  # (n_free, N)
    a_red: np.ndarray = field(repr=False)  # (Q_a, N, N)
    alift_red: np.ndarray = field(repr=False)  # (Q_a, N)  psi^T (A_q L0)|free
    u0_red: np.ndarray = field(repr=False)  # (N,)
    # the Dirichlet lift's shape, which does not depend on the rate
    lift_shape: np.ndarray = field(repr=False, compare=False)
    xi: np.ndarray | None = field(default=None, repr=False)  # (n_free, N_W)
    b_red: np.ndarray | None = field(default=None, repr=False)  # (N_W, N)
    g_red: np.ndarray | None = field(default=None, repr=False)  # (N_W,)
    selected_mu: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    stagnated: bool = False

    @property
    def space(self) -> FemSpace:
        return self.blocks.space

    @property
    def dim(self) -> int:
        return self.psi.shape[1]

    @property
    def n_dual(self) -> int:
        return 0 if self.xi is None else self.xi.shape[1]

    def check_discretization(self, space: FemSpace, grid: TimeGrid, name) -> None:
        """Refuse a run on other node arrays (not only other cell counts) or another time
        grid than this model was built on: ValueError names the basis, name, and what differs."""
        built = self.space
        if (built.n_nu, built.n_x) != (space.n_nu, space.n_x):
            raise ValueError(f"{name} was built on mesh (n_nu, n_x) = {built.n_nu, built.n_x}; "
                             f"this run has {space.n_nu, space.n_x}")
        for axis, ours, theirs in (("variance", built.nu, space.nu), ("log-moneyness", built.x, space.x)):
            if not np.array_equal(ours, theirs):
                raise ValueError(f"{name} was built on other {axis} nodes than this run's, "
                                 f"up to {np.abs(ours - theirs).max():.3g} apart")
        if self.grid != grid:
            raise ValueError(f"{name} was built on {self.grid}; this run has {grid}")


def _project_offline(
    style: str,
    blocks: AssemblyBlocks,
    grid: TimeGrid,
    psi: np.ndarray,
    xi: np.ndarray | None,
    **history,
) -> ReducedModel:
    """Project the affine blocks onto psi (and xi); history holds the greedy
    record (selected_mu, errors, stagnated) of a finished build."""
    space = blocks.space
    free = space.free
    L0 = boundary_data(space, style, r=1.0).shape  # the shape is r independent
    L0.flags.writeable = False
    a_red = np.empty((N_AFFINE, psi.shape[1], psi.shape[1]))
    alift = np.empty((N_AFFINE, psi.shape[1]))
    for q, values in enumerate(blocks.a_values):
        a_red[q] = _inner(psi, blocks.free_matrix(values) @ psi)
        alift[q] = psi.T @ (blocks.pattern.matrix(values) @ L0)[free]
    payoff = payoff_vector(space)
    u0_red = psi.T @ (blocks.v_gram_free @ payoff)
    b_red = g_red = None
    if style == "american":
        d = blocks.d_b_free
        b_red = _inner(xi * d[:, None], psi)
        g_red = (xi * d[:, None]).T @ payoff
    return ReducedModel(
        style=style,
        blocks=blocks,
        grid=grid,
        psi=psi,
        a_red=a_red,
        alift_red=alift,
        u0_red=u0_red,
        lift_shape=L0,
        xi=xi,
        b_red=b_red,
        g_red=g_red,
        **history,
    )


# ---------------------------------------------------------------------------
# online solves


def solve_reduced(model: ReducedModel, mu: ModelParams) -> PriceSurface:
    """Dense online unit-strike Crank-Nicolson solve; American adds the cone multiplier.

    The result is the surface of basis = psi: U holds the reduced
    coefficients and lam the multipliers in dual cone coordinates.
    """
    grid = model.grid
    dt = grid.dt
    theta_q = affine_coefficients(mu)
    A = np.tensordot(theta_q, model.a_red, axes=1)
    m_dt = model.a_red[MASS] / dt
    S = m_dt + THETA * A
    R = m_dt - (1.0 - THETA) * A
    bnd = BoundaryData(style=model.style, r=mu.r, shape=model.lift_shape)
    load = lift_and_rhs(model.alift_red[MASS], theta_q @ model.alift_red, bnd, dt)
    s_inv = np.linalg.inv(S)
    if model.style == "european":
        U, lam = march(model.u0_red, R, load, grid.I, lambda rhs: s_inv @ rhs)
    else:
        g = model.g_red
        U, lam = march(model.u0_red, R, load, grid.I, _schur_step(s_inv, model.b_red, g), g)
    return PriceSurface(space=model.space, grid=grid, boundary=bnd, basis=model.psi, U=U, lam=lam)


def _schur_step(s_inv, B, g):
    """Per-set factorizations of the steps of one reduced solve.

    _schur_step(s_inv, B, g)(active) returns solve(rhs) -> (a, beta, B a) of
    the step S a - B^T beta = rhs with beta = 0 off the active set and
    B a = g on it, in dual cone coordinates beta, so c = B a.  S is
    pre-inverted; block elimination gives beta_A = k_A - K_A rhs with
    K_A = (B S^-1 B^T)_AA^-1 (B S^-1)_A and k_A = (B S^-1 B^T)_AA^-1 g_A,
    and a = S^-1 (rhs + B_A^T beta_A).  The factorization inverts the Schur
    block once and folds all of it into one affine map y = M rhs + m of the
    stacked (a, beta, B a), so each iteration of the kernel is one product.  The
    empty set's map is the beta = 0 one, M = free and m = 0, with no 0 x 0
    inverse and no empty products: the general formula subtracts and adds
    +0.0 there, which leaves M as it is, and m stays added so that a -0.0
    of M rhs becomes +0.0 as it does on every other set.  It keeps no
    state, like fem_step: march holds the one slot.  A singular Schur block
    raises solvers.LCPError when the set is factorized.
    """
    n_w, n = B.shape
    bs = B @ s_inv  # (n_w, N)
    free = np.vstack((s_inv, np.zeros((n_w, n)), bs))  # the map with beta = 0
    lift = np.vstack((s_inv @ B.T, np.eye(n_w), bs @ B.T))  # d(a, beta, B a) / d beta
    zero = np.zeros(n + 2 * n_w)

    def factor(active):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            M, m = free, zero
        else:
            lift_a = lift[:, idx]
            try:
                inv = np.linalg.inv(lift_a[n + n_w + idx])  # the Schur block
            except np.linalg.LinAlgError:
                raise LCPError(n_w, 0, np.nan, "singular Schur block") from None
            M, m = free - lift_a @ (inv @ bs[idx]), lift_a @ (inv @ g[idx])

        def solve(rhs):
            y = M @ rhs
            y += m
            return y[:n], y[n : n + n_w], y[n + n_w :]

        return solve

    return factor


# ---------------------------------------------------------------------------
# greedy construction


def _final_error(model_like, mu, u_final_det, gram):
    """V-norm error between detailed and reduced final-time coefficients."""
    diff = model_like.psi @ solve_reduced(model_like, mu).U[-1] - u_final_det
    return float(np.sqrt(diff @ (gram @ diff)))


def pod_greedy(
    style: str,
    train: list[ModelParams],
    space: FemSpace,
    blocks: AssemblyBlocks,
    grid: TimeGrid,
    config: GreedyConfig = GreedyConfig(),
) -> ReducedModel:
    """POD-Greedy (European) / POD-Angle-Greedy (American) basis construction.

    The initial basis is the first training point's final level and, for an
    American build, the supremizer of its final multiplier.  Each pick adds
    the first POD mode of its trajectory's projection residual, for any
    number of time levels against free nodes, and in an American build the
    multiplier snapshot at the widest angle to span(xi) with its supremizer.
    One step, add_dual, takes every multiplier, the initial one included.
    The error measure is the true V-norm error between the detailed and the
    reduced solution at final time.  Every detailed training solve runs once
    up front and its whole surface is kept: the picks read their trajectories
    and multipliers from it, and the error sweep reads its final levels.
    That holds len(train) * (I+1) * n_free * 16 bytes (8 for a European
    build, which has no multipliers).  A cap n_max with no room for a pick
    beyond the initial basis is refused.
    """
    import scipy.sparse as sp

    if style not in ("american", "european"):
        raise ValueError(f"unknown style {style!r}")
    if not train:
        raise ValueError("training set is empty")
    if len({m.as_array().tobytes() for m in train}) != len(train):
        raise ValueError("training points must be pairwise distinct")
    gram = blocks.v_gram_free
    w_diag = blocks.d_b_free
    w_gram = sp.diags(w_diag)

    # detailed sweep: the surfaces of the picks and the finals of the error measure
    solve = solve_european if style == "european" else solve_american
    surfs = []
    for i, mu in enumerate(train):
        surfs.append(solve(mu, space, blocks, grid))
        log.info("detailed training solve %d/%d", i + 1, len(train))

    xi = None  # columns: the W-normalized multiplier snapshots
    xi_ortho = []  # W-orthonormal basis of span(xi), extended with xi

    def add_dual(lam):
        """Add lam, W-normalized, to xi and xi_ortho and return its supremizer.
        Picks pass snapshots at a positive angle to span(xi): only the first can vanish."""
        nonlocal xi
        norm = np.sqrt(lam @ (w_diag * lam))
        if norm == 0.0:
            raise ValueError("initial multiplier snapshot vanishes")
        xi_new = lam / norm
        xi = xi_new[:, None] if xi is None else np.column_stack([xi, xi_new])
        xi_ortho.extend(gram_orthonormalize([xi_new], w_gram, basis=xi_ortho))
        return supremizer(xi_new, blocks)

    # initialization: first training point, k' = final step
    init_vectors = [surfs[0].U[-1]]
    if style == "american":
        init_vectors.append(add_dual(surfs[0].lam[-1]))
    psi = np.column_stack(gram_orthonormalize(init_vectors, gram))
    if psi.shape[1] >= config.n_max:
        raise ValueError(
            f"n_max={config.n_max} leaves no room for a greedy pick beyond the "
            f"initial basis of size {psi.shape[1]}"
        )
    selected = [train[0]]
    errors = []

    stagnated = False
    prev_pick = None
    prev_err = np.inf
    stall = 0
    while psi.shape[1] < config.n_max:
        model = _project_offline(style, blocks, grid, psi, xi)
        errs = np.array([_final_error(model, mu, surf.U[-1], gram) for mu, surf in zip(train, surfs)])
        i_worst = int(np.argmax(errs))
        eps_train = float(errs[i_worst])
        errors.append(eps_train)
        if eps_train < config.tol:
            break
        # stagnation: the same worst parameter is re-picked without any error
        # decrease for STALL_PATIENCE consecutive rounds (transient
        # non-decrease is normal for greedy worst-case errors)
        if prev_pick == i_worst and eps_train >= prev_err * (1.0 - 1e-12):
            stall += 1
            if stall >= STALL_PATIENCE:
                log.warning("greedy stagnation at training index %d", i_worst)
                stagnated = True
                break
        else:
            stall = 0
        prev_pick, prev_err = i_worst, eps_train
        mu_n = train[i_worst]
        selected.append(mu_n)
        surf = surfs[i_worst]
        log.info("greedy pick %s err %.3e dim %d", mu_n, eps_train, psi.shape[1])

        # the POD mode of the projection residual, then the widest dual direction
        new_primal = []
        snaps = surf.U.T  # columns
        try:
            new_primal.append(pod1(snaps - psi @ _inner(psi, gram @ snaps), gram))
        except ValueError:
            log.info("projection residual vanished for %s", mu_n)
        if style == "american":
            lams = surf.lam[1:]
            angles = [angle_to_space(l, xi_ortho, w_diag) if np.any(l) else 0.0 for l in lams]
            k_best = int(np.argmax(angles))
            if angles[k_best] < 1e-10:
                log.info("duplicate dual direction at %s; skipping dual enrichment", mu_n)
            else:
                new_primal.append(add_dual(lams[k_best]))
        added = gram_orthonormalize(new_primal, gram, basis=psi.T)
        if not added:
            log.warning("no primal enrichment possible; stopping greedy loop")
            stagnated = True
            break
        psi = np.column_stack([psi] + added)

    return _project_offline(
        style, blocks, grid, psi, xi,
        selected_mu=selected, errors=errors, stagnated=stagnated,
    )


def pod_angle_greedy_american(train, space, blocks, grid, config=GreedyConfig()):
    return pod_greedy("american", train, space, blocks, grid, config)


# ---------------------------------------------------------------------------
# serialization

FORMAT_VERSION = 2


def save_reduced_model(model: ReducedModel, path) -> None:
    """Serialize what the build cannot re-derive (the bases, the mesh's node arrays, the time
    grid and the greedy history) to a versioned .npz container at exactly path (np.savez would
    append .npz to a file name without it)."""
    meta = {
        "format_version": FORMAT_VERSION,
        "style": model.style,
        # the theta weight and the strike every solve fixes, so that load can refuse others
        "grid": [model.grid.T, model.grid.I, THETA],
        "K": 1.0,
        "selected_mu": [list(m.as_array()) for m in model.selected_mu],
        "errors": model.errors,
        "stagnated": model.stagnated,
    }
    arrays = {"psi": model.psi, "xi": model.xi, "nu": model.space.nu, "x": model.space.x}
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **{name: a for name, a in arrays.items() if a is not None})


#: The keys of a container's meta that load_reduced_model reads besides format_version.
META_KEYS = ("grid", "K", "style", "selected_mu", "errors", "stagnated")


def _from_meta(path, key, make, value):
    """make(*value) for a list value of a container's meta key; any other value, or one that
    make refuses, raises ValueError naming the file and the key."""
    try:
        if not isinstance(value, list):
            raise TypeError(f"a {type(value).__name__}, not a list")
        return make(*value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: the container's meta {key} holds {value!r}, which is malformed ({exc})") from None


def load_reduced_model(path) -> ReducedModel:
    """Load a container and project the affine blocks of the mesh its node arrays give onto its
    bases.  A file without meta, a format_version, a key of META_KEYS or node arrays, of another
    version than FORMAT_VERSION, with another theta, strike or free-node count, or without a basis
    its style needs, is refused; so is a grid other than [T, I, theta] or a selected_mu row other
    than five parameters."""
    with np.load(path) as data:
        if "meta" not in data.files:
            raise ValueError(f"{path}: the container has no meta")
        meta = json.loads(bytes(data["meta"]).decode())
        if "format_version" not in meta:
            raise ValueError(f"{path}: the container's meta has no format_version")
        if meta["format_version"] != FORMAT_VERSION:
            raise ValueError(
                f"{path} is a version-{meta['format_version']} container and only version "
                f"{FORMAT_VERSION} loads; rebuild the basis with hestoncal build-basis"
            )
        for key in META_KEYS:
            if key not in meta:
                raise ValueError(f"{path}: the container's meta has no {key}")
        grid, theta = _from_meta(path, "grid", lambda T, I, theta: (TimeGrid(T=T, I=I), theta), meta["grid"])
        rows = _from_meta(path, "selected_mu", lambda *rows: rows, meta["selected_mu"])
        selected_mu = [_from_meta(path, "selected_mu", ModelParams, row) for row in rows]
        if theta != THETA or meta["K"] != 1.0:
            raise ValueError(
                f"{path} was solved with theta {theta} and K {meta['K']}; only {THETA} and 1 load"
            )
        missing = [name for name in ("nu", "x") if name not in data.files]
        if missing:
            raise ValueError(f"{path}: the container has no {' or '.join(missing)} node array")
        space = mesh_from_nodes(data["nu"], data["x"])
        names = ("psi", "xi") if meta["style"] == "american" else ("psi",)
        missing = [name for name in names if name not in data.files]
        if missing:
            raise ValueError(f"{path}: the {meta['style']} container has no {' or '.join(missing)} basis")
        bases = {name: data[name] for name in names}
    for name, basis in bases.items():
        if len(basis) != space.n_free:
            raise ValueError(f"{path}: {name} has {len(basis)} rows for {space.n_free} free nodes")
    return _project_offline(
        meta["style"], assemble_blocks(space), grid, bases["psi"], bases.get("xi"),
        selected_mu=selected_mu,
        errors=list(meta["errors"]),
        stagnated=bool(meta["stagnated"]),
    )
