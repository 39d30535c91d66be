"""Reduced-basis surrogates: POD-Greedy (European) and POD-Angle-Greedy
(American) offline construction, affine operator projection, and dense
online solves with a cone-constrained multiplier.

The primal basis is orthonormal in the H1 semi-norm Gram inner product; the
dual cone is spanned by normalized nonnegative multiplier snapshots and kept
inf-sup stable through supremizer enrichment of the primal space.  Each
online American step is solved by the active-set kernel shared with the
detailed solver (solvers.solve_complementarity) through a dense
Schur-complement callback.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .heston_operator import N_AFFINE, affine_coefficients, boundary_data, obstacle_vector
from .mesh import AssemblyBlocks, Domain2D, FemSpace, assemble_blocks, build_mesh, evaluation_row
from .params import ModelParams
from .solvers import (
    TimeGrid,
    _initial_condition,
    interpolate_in_time,
    solve_american,
    solve_complementarity,
    solve_european,
)

log = logging.getLogger(__name__)

ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class GreedyConfig:
    """Offline settings: basis size cap, training tolerance, snapshot stride."""

    n_max: int = 60
    tol: float = 1e-5
    snapshot_stride: int = 1  # time subsampling of POD trajectories
    stall_patience: int = 3  # consecutive repeated picks without decrease


def make_training_grid(box, counts, r: float) -> list[ModelParams]:
    """Uniform tensor grid over the 5-dimensional parameter box.

    The grid spans (xi, rho, gamma, kappa, nu0), but the PDE solution does
    not depend on the initial-variance coordinate, so the tensor grid is
    collapsed to the distinct (xi, rho, gamma, kappa) combinations with the
    externally fixed rate r attached.
    """
    axes = [np.linspace(lo, hi, c) for lo, hi, c in zip(box.lo, box.hi, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    train = []
    seen = set()
    for row in pts:
        key = (row[0], row[1], row[2], row[3])
        if key in seen:
            continue
        seen.add(key)
        train.append(ModelParams(row[0], row[1], row[2], row[3], r))
    return train


# ---------------------------------------------------------------------------
# basic linear-algebra building blocks


def pod1(trajectory: np.ndarray, gram) -> np.ndarray:
    """First dominant POD mode of snapshot columns in the gram inner product.

    Method of snapshots: eigendecompose the small correlation matrix
    C = S^T G S; the mode is S q1 / sqrt(lambda1), unit gram-norm.  The sign
    is fixed by making the largest-magnitude component positive.
    """
    S = np.atleast_2d(np.asarray(trajectory, dtype=float))
    if S.ndim != 2:
        raise ValueError("trajectory must be a 2-d array of snapshot columns")
    if S.shape[0] < S.shape[1]:
        raise ValueError("snapshots must be columns")
    C = S.T @ (gram @ S)
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


def gram_orthonormalize(vectors, gram, basis=None, tol: float = ORTHO_TOL):
    """Modified Gram-Schmidt in the gram inner product, applied twice.

    Orthogonalizes each vector against the existing basis columns and the
    previously accepted vectors; vectors whose norm collapses below tol
    (relative to their input norm) are dropped.
    """
    accepted = []
    cols = [] if basis is None else [basis[:, i] for i in range(basis.shape[1])]
    for v in vectors:
        v = np.asarray(v, dtype=float).copy()
        n0 = np.sqrt(v @ (gram @ v))
        if n0 == 0.0:
            continue
        for _ in range(2):
            for b in cols + accepted:
                v -= (b @ (gram @ v)) * b
        n = np.sqrt(v @ (gram @ v))
        if n <= tol * n0 or n == 0.0:
            continue
        accepted.append(v / n)
    return accepted


def angle_to_space(eta: np.ndarray, basis: np.ndarray, w_diag: np.ndarray) -> float:
    """Angle arccos(|Pi_Y eta|_W / |eta|_W) between eta and span(basis).

    The W inner product is diagonal (dual pairing weights); the basis is
    W-orthonormalized internally.
    """
    norm_eta = np.sqrt(eta @ (w_diag * eta))
    if norm_eta == 0.0:
        raise ValueError("cannot measure the angle of a zero vector")
    if basis is None or basis.size == 0:
        return 0.5 * np.pi
    ortho = gram_orthonormalize([basis[:, j] for j in range(basis.shape[1])], _DiagGram(w_diag))
    proj_sq = sum(float(b @ (w_diag * eta)) ** 2 for b in ortho)
    ratio = np.sqrt(max(proj_sq, 0.0)) / norm_eta
    return float(np.arccos(np.clip(ratio, 0.0, 1.0)))


class _DiagGram:
    """Diagonal matrix wrapper so vector weights fit the gram @ v idiom."""

    def __init__(self, diag):
        self.diag = np.asarray(diag, dtype=float)

    def __matmul__(self, v):
        return self.diag * v


def supremizer(xi_vec: np.ndarray, blocks: AssemblyBlocks) -> np.ndarray:
    """Solve (T xi, v)_V = b(xi, v) on the free DOFs.

    With the diagonal pairing, b(xi, v) = sum_p d_p xi_p v_p, so the right
    hand side is D_B xi.
    """
    rhs = blocks.d_b_free * xi_vec
    return spla.spsolve(blocks.v_gram_free.tocsc(), rhs)


# ---------------------------------------------------------------------------
# reduced model container


@dataclass
class ReducedModel:
    """Offline output: bases, projected affine blocks and greedy history."""

    style: str
    domain: Domain2D
    n_nu: int
    n_x: int
    grid: TimeGrid
    K: float
    psi: np.ndarray = field(repr=False)  # (n_free, N)
    a_red: np.ndarray = field(repr=False)  # (Q_a, N, N)
    m_red: np.ndarray = field(repr=False)  # (N, N)
    mlift_red: np.ndarray = field(repr=False)  # (N,)  psi^T (M L0)|free
    alift_red: np.ndarray = field(repr=False)  # (Q_a, N)
    u0_red: np.ndarray = field(repr=False)  # (N,)
    xi: np.ndarray | None = field(default=None, repr=False)  # (n_free, N_W)
    b_red: np.ndarray | None = field(default=None, repr=False)  # (N_W, N)
    g_red: np.ndarray | None = field(default=None, repr=False)  # (N_W,)
    selected_mu: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    stagnated: bool = False
    _space: FemSpace | None = field(default=None, repr=False)
    _boundary: object | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.psi.shape[1]

    @property
    def n_dual(self) -> int:
        return 0 if self.xi is None else self.xi.shape[1]

    def space(self) -> FemSpace:
        if self._space is None:
            self._space = build_mesh(self.domain, self.n_nu, self.n_x)
        return self._space

    def boundary(self, r: float):
        if self._boundary is None or self._boundary.r != r:
            self._boundary = boundary_data(self.space(), self.style, self.K, r)
        return self._boundary


def _project_offline(
    style: str,
    space: FemSpace,
    blocks: AssemblyBlocks,
    grid: TimeGrid,
    psi: np.ndarray,
    xi: np.ndarray | None,
    K: float,
    selected,
    errors,
    stagnated: bool,
    domain: Domain2D,
) -> ReducedModel:
    free = space.free
    bnd = boundary_data(space, style, K, r=1.0)  # shape is r independent
    L0 = bnd.shape
    a_red = np.empty((N_AFFINE, psi.shape[1], psi.shape[1]))
    alift = np.empty((N_AFFINE, psi.shape[1]))
    for q in range(N_AFFINE):
        Aq = blocks.a_blocks[q]
        a_red[q] = psi.T @ (blocks.restrict(Aq) @ psi)
        alift[q] = psi.T @ (Aq @ L0)[free]
    m_red = psi.T @ (blocks.mass_free @ psi)
    mlift = psi.T @ (blocks.mass @ L0)[free]
    u0 = _initial_condition(space, bnd, K)
    u0_red = psi.T @ (blocks.v_gram_free @ u0)
    b_red = g_red = None
    if style == "american":
        d = blocks.d_b_free
        b_red = (xi * d[:, None]).T @ psi
        g_free = obstacle_vector(space, bnd, K)
        g_red = (xi * d[:, None]).T @ g_free
    return ReducedModel(
        style=style,
        domain=domain,
        n_nu=space.n_nu,
        n_x=space.n_x,
        grid=grid,
        K=K,
        psi=psi,
        a_red=a_red,
        m_red=m_red,
        mlift_red=mlift,
        alift_red=alift,
        u0_red=u0_red,
        xi=xi,
        b_red=b_red,
        g_red=g_red,
        selected_mu=list(selected),
        errors=list(errors),
        stagnated=stagnated,
        _space=space,
    )


# ---------------------------------------------------------------------------
# online solves


@dataclass
class ReducedTrajectory:
    model: ReducedModel
    mu: ModelParams
    coeffs: np.ndarray = field(repr=False)  # (I+1, N)
    multipliers: np.ndarray | None = field(default=None, repr=False)

    def price(self, S0: float, K_i: float, nu0: float, T_i: float) -> float:
        """Point-evaluate the reduced surface, scaled by strike homogeneity.

        Off-grid maturities are handled as in solvers.price_at.
        """
        model = self.model
        if T_i == 0.0:
            return float(max(K_i - S0, 0.0))
        x = float(np.log(S0 / K_i))
        space = model.space()
        tri, lam = evaluation_row(space, (nu0, x))
        bnd = model.boundary(self.mu.r)
        lift_shape = float(bnd.shape[tri] @ lam)
        fi = space.free_index[tri]
        mask = fi >= 0
        row = lam[mask] @ model.psi[fi[mask]] if mask.any() else None

        def level_value(k: int) -> float:
            value = bnd.scale(k * model.grid.dt) * lift_shape
            if row is not None:
                value += float(row @ self.coeffs[k])
            return value

        return interpolate_in_time(model.grid, T_i, level_value) * K_i / model.K


def solve_reduced(model: ReducedModel, mu: ModelParams) -> ReducedTrajectory:
    """Dense online theta-scheme solve; American adds the cone multiplier."""
    grid = model.grid
    dt, th = grid.dt, grid.theta
    theta_q = affine_coefficients(mu)
    A = np.tensordot(theta_q, model.a_red, axes=1)
    alift = theta_q @ model.alift_red
    S = model.m_red / dt + th * A
    R = model.m_red / dt - (1.0 - th) * A
    N = model.dim
    coeffs = np.empty((grid.I + 1, N))
    coeffs[0] = model.u0_red
    if model.style == "european":
        bnd = model.boundary(mu.r)
        s = [bnd.scale(t) for t in grid.times()]
        lu = np.linalg.inv(S)
        for k in range(grid.I):
            f = -(s[k + 1] - s[k]) / dt * model.mlift_red - (
                th * s[k + 1] + (1.0 - th) * s[k]
            ) * alift
            coeffs[k + 1] = lu @ (R @ coeffs[k] + f)
        return ReducedTrajectory(model=model, mu=mu, coeffs=coeffs)

    B = model.b_red
    g = model.g_red
    n_w = B.shape[0]
    mult = np.zeros((grid.I + 1, n_w))
    f_static = -alift  # American lift is time-independent: scale == 1
    # block elimination: a = S^{-1}(rhs + B_A^T beta); the active-set system
    # reduces to the small Schur complement (B S^{-1} B^T)_AA
    s_inv = np.linalg.inv(S)
    bs = B @ s_inv  # (n_w, N)
    schur = bs @ B.T  # (n_w, n_w)
    active = np.zeros(n_w, dtype=bool)
    for k in range(grid.I):
        rhs = R @ coeffs[k] + f_static
        coeffs[k + 1], mult[k + 1], active = solve_complementarity(
            _schur_step(s_inv, bs, schur, B, g, rhs), g, active
        )
    return ReducedTrajectory(model=model, mu=mu, coeffs=coeffs, multipliers=mult)


def _schur_step(s_inv, bs, schur, B, g, rhs):
    """solve_complementarity callback of one reduced step.

    S a - B^T beta = rhs with beta = 0 off the active set and B a = g on it,
    in dual cone coordinates beta, so c = B a.  S is pre-inverted, and
    beta on the active set solves the Schur complement (B S^-1 B^T)_AA.
    """
    n_w = g.size
    a_free = s_inv @ rhs
    ba_free = bs @ rhs  # = B a with beta = 0

    def solve(active):
        idx = np.flatnonzero(active)
        beta = np.zeros(n_w)
        if idx.size == 0:
            return a_free, beta, ba_free
        rhs_small = g[idx] - ba_free[idx]
        small = schur[np.ix_(idx, idx)]
        try:
            beta_act = np.linalg.solve(small, rhs_small)
        except np.linalg.LinAlgError:
            beta_act = np.linalg.lstsq(small, rhs_small, rcond=None)[0]
        beta[idx] = beta_act
        a = a_free + s_inv @ (B.T[:, idx] @ beta_act)
        return a, beta, ba_free + schur[:, idx] @ beta_act

    return solve


# ---------------------------------------------------------------------------
# greedy construction


def _final_error(model_like, mu, u_final_det, gram):
    """V-norm error between detailed and reduced final-time coefficients."""
    traj = solve_reduced(model_like, mu)
    diff = model_like.psi @ traj.coeffs[-1] - u_final_det
    return float(np.sqrt(diff @ (gram @ diff)))


def _detailed_solve(style, mu, space, blocks, grid, K):
    if style == "european":
        return solve_european(mu, space, blocks, grid, K)
    return solve_american(mu, space, blocks, grid, K)


def pod_greedy(
    style: str,
    train: list[ModelParams],
    space: FemSpace,
    blocks: AssemblyBlocks,
    grid: TimeGrid,
    config: GreedyConfig = GreedyConfig(),
    K: float = 1.0,
    progress: bool = False,
) -> ReducedModel:
    """POD-Greedy (European) / POD-Angle-Greedy (American) basis construction.

    The error measure is the true V-norm error between the detailed and the
    reduced solution at final time; all detailed training trajectories are
    computed once up front and only their final-time snapshots are kept,
    the full trajectory of a selected parameter being recomputed on demand.
    """
    if not train:
        raise ValueError("training set is empty")
    if len({m.as_array().tobytes() for m in train}) != len(train):
        raise ValueError("training points must be pairwise distinct")
    style = style.lower()
    gram = blocks.v_gram_free
    w_diag = blocks.d_b_free
    stride = max(1, config.snapshot_stride)

    # detailed sweep: final-time snapshots for the error measure
    finals = np.empty((len(train), space.n_free))
    traj_cache: dict[int, object] = {}
    for i, mu in enumerate(train):
        surf = _detailed_solve(style, mu, space, blocks, grid, K)
        finals[i] = surf.U[-1]
        if i == 0:
            traj_cache[0] = surf
        if progress:
            log.info("detailed training solve %d/%d", i + 1, len(train))

    domain = space.domain
    selected = []
    errors = []

    # initialization: first training point, k' = final step
    mu0 = train[0]
    surf0 = traj_cache[0]
    k_prime = grid.I
    xi = None
    init_vectors = [surf0.U[k_prime]]
    if style == "american":
        lam0 = surf0.lam[k_prime]
        norm0 = np.sqrt(lam0 @ (w_diag * lam0))
        if norm0 == 0.0:
            raise ValueError("initial multiplier snapshot vanishes")
        xi0 = lam0 / norm0
        xi = xi0[:, None]
        init_vectors.append(supremizer(xi0, blocks))
    psi_cols = gram_orthonormalize(init_vectors, gram)
    psi = np.column_stack(psi_cols)
    selected.append(mu0)

    def current_model():
        return _project_offline(
            style, space, blocks, grid, psi, xi, K, selected, errors, False, domain
        )

    stagnated = False
    prev_pick = None
    prev_err = np.inf
    stall = 0
    while psi.shape[1] < config.n_max:
        model = current_model()
        errs = np.array([_final_error(model, mu, finals[i], gram) for i, mu in enumerate(train)])
        i_worst = int(np.argmax(errs))
        eps_train = float(errs[i_worst])
        errors.append(eps_train)
        if eps_train < config.tol:
            break
        # stagnation: the same worst parameter is re-picked without any error
        # decrease for `stall_patience` consecutive rounds (transient
        # non-decrease is normal for greedy worst-case errors)
        if prev_pick == i_worst and eps_train >= prev_err * (1.0 - 1e-12):
            stall += 1
            if stall >= config.stall_patience:
                log.warning("greedy stagnation at training index %d", i_worst)
                stagnated = True
                break
        else:
            stall = 0
        prev_pick, prev_err = i_worst, eps_train
        mu_n = train[i_worst]
        selected.append(mu_n)
        if i_worst in traj_cache:
            surf = traj_cache[i_worst]
        else:
            surf = _detailed_solve(style, mu_n, space, blocks, grid, K)
            traj_cache[i_worst] = surf
        if progress:
            log.info("greedy pick %s err %.3e dim %d", mu_n, eps_train, psi.shape[1])

        new_primal = []
        if style == "american":
            lams = surf.lam[1::stride]
            angles = [
                angle_to_space(l, xi, w_diag) if np.any(l) else 0.0 for l in lams
            ]
            k_best = int(np.argmax(angles))
            if angles[k_best] < 1e-10:
                log.info("duplicate dual direction at %s; skipping dual enrichment", mu_n)
            else:
                lam_new = lams[k_best]
                xi_new = lam_new / np.sqrt(lam_new @ (w_diag * lam_new))
                xi = np.column_stack([xi, xi_new])
                new_primal.append(supremizer(xi_new, blocks))

        snaps = surf.U[::stride].T  # columns
        proj = psi @ (psi.T @ (gram @ snaps))
        resid = snaps - proj
        try:
            psi_new = pod1(resid, gram)
            new_primal.insert(0, psi_new)
        except ValueError:
            log.info("projection residual vanished for %s", mu_n)
        added = gram_orthonormalize(new_primal, gram, basis=psi)
        if not added:
            log.warning("no primal enrichment possible; stopping greedy loop")
            stagnated = True
            break
        psi = np.column_stack([psi] + added)

    return _project_offline(
        style, space, blocks, grid, psi, xi, K, selected, errors, stagnated, domain
    )


def pod_greedy_european(train, space, blocks, grid, config=GreedyConfig(), K=1.0, **kw):
    return pod_greedy("european", train, space, blocks, grid, config, K, **kw)


def pod_angle_greedy_american(train, space, blocks, grid, config=GreedyConfig(), K=1.0, **kw):
    return pod_greedy("american", train, space, blocks, grid, config, K, **kw)


# ---------------------------------------------------------------------------
# serialization

FORMAT_VERSION = 1


def save_reduced_model(model: ReducedModel, path) -> None:
    """Serialize the model to a versioned .npz container."""
    meta = {
        "format_version": FORMAT_VERSION,
        "style": model.style,
        "domain": [model.domain.nu_min, model.domain.nu_max, model.domain.x_min, model.domain.x_max],
        "n_nu": model.n_nu,
        "n_x": model.n_x,
        "grid": [model.grid.T, model.grid.I, model.grid.theta],
        "K": model.K,
        "selected_mu": [list(m.as_array()) for m in model.selected_mu],
        "errors": model.errors,
        "stagnated": model.stagnated,
    }
    arrays = {
        "psi": model.psi,
        "a_red": model.a_red,
        "m_red": model.m_red,
        "mlift_red": model.mlift_red,
        "alift_red": model.alift_red,
        "u0_red": model.u0_red,
        "meta": np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
    }
    if model.style == "american":
        arrays.update(xi=model.xi, b_red=model.b_red, g_red=model.g_red)
    np.savez(path, **arrays)


def load_reduced_model(path) -> ReducedModel:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta["format_version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported container version {meta['format_version']}")
        domain = Domain2D(*meta["domain"])
        grid = TimeGrid(T=meta["grid"][0], I=int(meta["grid"][1]), theta=meta["grid"][2])
        style = meta["style"]
        return ReducedModel(
            style=style,
            domain=domain,
            n_nu=int(meta["n_nu"]),
            n_x=int(meta["n_x"]),
            grid=grid,
            K=meta["K"],
            psi=data["psi"],
            a_red=data["a_red"],
            m_red=data["m_red"],
            mlift_red=data["mlift_red"],
            alift_red=data["alift_red"],
            u0_red=data["u0_red"],
            xi=data["xi"] if style == "american" else None,
            b_red=data["b_red"] if style == "american" else None,
            g_red=data["g_red"] if style == "american" else None,
            selected_mu=[ModelParams(*row) for row in meta["selected_mu"]],
            errors=list(meta["errors"]),
            stagnated=bool(meta["stagnated"]),
        )
