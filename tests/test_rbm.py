"""Reduced-basis offline construction and online solves (toy scale)."""

import json
import os
import subprocess
import sys
from pathlib import Path
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from hestoncal.calibration import PdeBackend, ReducedBackend
from hestoncal.mesh import Domain2D, assemble_blocks, build_mesh, mesh_from_nodes
from hestoncal.params import DEFAULT_PARAM_BOX, ModelParams, ParamBox
from hestoncal.rbm import (
    GreedyConfig,
    _project_offline,
    _schur_step,
    angle_to_space,
    gram_orthonormalize,
    load_reduced_model,
    make_training_grid,
    pod1,
    pod_greedy,
    pod_angle_greedy_american,
    save_reduced_model,
    solve_reduced,
    supremizer,
)
from hestoncal import rbm, solvers
from hestoncal.solvers import (
    LCPError,
    TimeGrid,
    price_at,
    principal_pivoting,
    solve_american,
    solve_complementarity,
    solve_european,
)


@pytest.fixture(scope="module")
def toy_european(toy):
    space, blocks, grid = toy
    mu = ModelParams(0.3, -0.5, 0.1, 1.0, 0.03)
    return pod_greedy("european", [mu], space, blocks, grid, GreedyConfig(n_max=6, tol=1e-14))


def test_training_grid_collapses_nu0_axis():
    train = make_training_grid(DEFAULT_PARAM_BOX, (3, 3, 3, 3, 3), 0.05)
    assert len(train) == 81  # 3^4: the PDE does not depend on nu0
    assert len({(m.xi, m.rho, m.gamma, m.kappa) for m in train}) == 81
    assert all(m.r == 0.05 for m in train)
    # the counts are the PDE axes; a trailing nu0 count changes nothing
    assert make_training_grid(DEFAULT_PARAM_BOX, (3, 3, 3, 3), 0.05) == train


@pytest.mark.parametrize("counts", [(3, 3, 3, 3, 3), (2, 3, 1, 4, 2), (1, 1, 2, 1, 5)])
def test_training_grid_keeps_first_occurrence_order_of_5d_grid(counts):
    # train[0] seeds the greedy, so the order fixes the basis
    box = DEFAULT_PARAM_BOX
    axes = [np.linspace(lo, hi, c) for lo, hi, c in zip(box.lo, box.hi, counts)]
    rows = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    first = list(dict.fromkeys(tuple(row[:4]) for row in rows))
    train = make_training_grid(box, counts, 0.05)
    assert [(m.xi, m.rho, m.gamma, m.kappa) for m in train] == first


def test_pod1_matches_dense_oracle(toy):
    """Tall and wide snapshot matrices alike: a greedy on a coarse mesh has
    more time levels than free nodes."""
    space, blocks, _ = toy
    rng = np.random.default_rng(3)
    G = blocks.v_gram_free.toarray()
    # dense oracle: SVD of L^T S with G = L L^T
    L = np.linalg.cholesky(G)
    for n_snaps in (12, space.n_free + 40):
        snaps = rng.normal(size=(space.n_free, n_snaps))
        mode = pod1(snaps, blocks.v_gram_free)
        U, s, _ = np.linalg.svd(L.T @ snaps, full_matrices=False)
        ref = np.linalg.solve(L.T, U[:, 0])
        if ref[np.argmax(np.abs(ref))] < 0:
            ref = -ref
        assert np.linalg.norm(mode - ref) <= 1e-8
        assert mode @ (G @ mode) == pytest.approx(1.0, abs=1e-12)


def test_pod1_rejects_degenerate_input(toy):
    space, blocks, _ = toy
    with pytest.raises(ValueError):
        pod1(np.zeros((space.n_free, 3)), blocks.v_gram_free)


def test_gram_orthonormalize_drops_dependent_vectors(toy):
    space, blocks, _ = toy
    rng = np.random.default_rng(5)
    v1 = rng.normal(size=space.n_free)
    v2 = rng.normal(size=space.n_free)
    out = gram_orthonormalize([v1, v2, v1 + v2], blocks.v_gram_free)
    assert len(out) == 2
    G = blocks.v_gram_free
    B = np.column_stack(out)
    assert np.allclose(B.T @ (G @ B), np.eye(2), atol=1e-12)


def test_angle_properties(toy):
    space, blocks, _ = toy
    w = blocks.d_b_free
    rng = np.random.default_rng(11)
    b = rng.normal(size=space.n_free)
    b /= np.sqrt(b @ (w * b))
    assert angle_to_space(b, [b], w) <= 1e-7  # in-space vector: zero angle
    # orthogonal complement vector: right angle
    v = rng.normal(size=space.n_free)
    v -= (b @ (w * v)) * b
    assert angle_to_space(v, [b], w) == pytest.approx(np.pi / 2, abs=1e-7)
    assert angle_to_space(v, [], w) == 0.5 * np.pi


def test_angle_matches_least_squares_projection(toy):
    # a non-orthogonal, nonnegative dual basis, W-orthonormalized as the
    # greedy keeps it, against the dense least-squares W-projection
    space, blocks, _ = toy
    w = blocks.d_b_free
    rng = np.random.default_rng(17)
    xi = np.abs(rng.normal(size=(space.n_free, 3)))
    xi[:, 2] += 0.8 * xi[:, 0]
    ortho = gram_orthonormalize(list(xi.T), sp.diags(w))
    assert len(ortho) == 3
    sqrt_w = np.sqrt(w)
    for eta in (rng.normal(size=space.n_free), np.abs(rng.normal(size=space.n_free)),
                xi @ [0.3, -1.0, 2.0] + 0.1 * rng.normal(size=space.n_free)):
        coef = np.linalg.lstsq(sqrt_w[:, None] * xi, sqrt_w * eta, rcond=None)[0]
        proj = xi @ coef
        ratio = np.sqrt(proj @ (w * proj) / (eta @ (w * eta)))
        assert angle_to_space(eta, ortho, w) == pytest.approx(np.arccos(ratio), abs=1e-12)


def test_supremizer_properties(toy):
    space, blocks, _ = toy
    assert np.allclose(supremizer(np.zeros(space.n_free), blocks), 0.0)
    rng = np.random.default_rng(13)
    xi = np.abs(rng.normal(size=space.n_free))
    t = supremizer(xi, blocks)
    # b(xi, T xi) = |T xi|_V^2 > 0
    lhs = xi @ (blocks.d_b_free * t)
    rhs = t @ (blocks.v_gram_free @ t)
    assert lhs == pytest.approx(rhs, rel=1e-10)
    assert rhs > 0.0


def test_greedy_basis_is_orthonormal(toy, toy_american):
    space, blocks, _ = toy
    m = toy_american
    G = blocks.v_gram_free
    gram = m.psi.T @ (G @ m.psi)
    assert np.allclose(gram, np.eye(m.dim), atol=1e-10)
    # dual cone vectors are nonnegative multiplier snapshots, normalized
    assert np.all(m.xi >= -1e-14)


def test_greedy_training_error_decreases(toy, toy_american):
    errs = np.asarray(toy_american.errors)
    assert errs[-1] <= 0.5 * errs[0]


def test_reduced_american_matches_detailed_at_selected_mu(toy, toy_american):
    space, blocks, grid = toy
    m = toy_american
    mu = m.selected_mu[-1]
    surf = solve_american(mu, space, blocks, grid)
    traj = solve_reduced(m, mu)
    for T in (0.5, 1.0):
        p_det = price_at(surf, 1.0, 1.0, 0.2, T)
        p_red = price_at(traj, 1.0, 1.0, 0.2, T)
        assert p_red == pytest.approx(p_det, abs=5e-3)


@pytest.mark.parametrize("style", ["european", "american"])
def test_full_basis_reduced_solve_is_the_detailed_solve(style):
    """The online solve is the Galerkin projection of the detailed theta-scheme.

    With a V-orthonormal basis of the whole free space, psi = L^-T for
    V = L L^T, and for American the dual vectors xi_p = e_p / sqrt(d_p),
    the projection is exact: psi @ U_N is the detailed U and the cone
    coordinates beta_p / sqrt(d_p) are the detailed multiplier.
    """
    space = build_mesh(Domain2D(), 8, 8)
    blocks = assemble_blocks(space)
    grid = TimeGrid(1.0, 24)
    mu = ModelParams(0.7, -0.8, 0.3, 1.4, 0.05)
    psi = np.linalg.inv(np.linalg.cholesky(blocks.v_gram_free.toarray())).T
    sqrt_d = np.sqrt(blocks.d_b_free)
    xi = np.diag(1.0 / sqrt_d) if style == "american" else None
    traj = solve_reduced(_project_offline(style, space, blocks, grid, psi, xi), mu)
    solver = solve_american if style == "american" else solve_european
    surf = solver(mu, space, blocks, grid)
    U = traj.U @ psi.T
    assert np.abs(U - surf.U).max() <= 1e-10 * np.abs(surf.U).max()
    if style == "american":
        lam = traj.lam / sqrt_d
        assert np.abs(lam - surf.lam).max() <= 1e-10 * np.abs(surf.lam).max()


@pytest.mark.parametrize("name", ["toy_european", "toy_american"])
def test_non_finite_reduced_solve_raises(name, request):
    model = request.getfixturevalue(name)
    broken = replace(model, u0_red=np.full(model.dim, np.nan))
    with pytest.raises(FloatingPointError, match="at step 0"):
        solve_reduced(broken, model.selected_mu[0])


def test_reduced_feasibility(toy, toy_american):
    m = toy_american
    mu = m.selected_mu[0]
    traj = solve_reduced(m, mu)
    # B_N u_N >= g_N - 1e-8 and multipliers in the cone
    for k in (1, m.grid.I // 2, m.grid.I):
        slack = m.b_red @ traj.U[k] - m.g_red
        assert slack.min() >= -1e-8
        assert traj.lam[k].min() >= -1e-12


def test_greedy_adds_a_pod_mode_at_every_pick_with_more_time_levels_than_free_nodes(caplog):
    """On 8 x 8 with I = 120 each trajectory has 121 levels for 63 free
    nodes.  Every pick still adds its projection residual's POD mode next
    to its supremizer, so the basis is twice the dual space, and the
    training error falls."""
    space = build_mesh(Domain2D(), 8, 8)
    assert space.n_free == 63
    train = make_training_grid(DEFAULT_PARAM_BOX, (2, 2, 1, 1), 0.05)
    with caplog.at_level("INFO", logger="hestoncal.rbm"):
        model = pod_greedy("american", train, space, assemble_blocks(space), TimeGrid(2.0, 120),
                           GreedyConfig(n_max=10))
    assert "projection residual vanished" not in caplog.text
    assert (model.dim, model.n_dual) == (10, 5)
    errs = np.asarray(model.errors)
    assert np.all(np.diff(errs) < 0)
    assert errs[-1] < 0.4


def test_european_greedy_reproduces_single_trajectory(toy):
    space, blocks, grid = toy
    mu = ModelParams(0.3, -0.5, 0.1, 1.0, 0.03)
    m = pod_greedy("european", [mu], space, blocks, grid, GreedyConfig(n_max=12, tol=1e-14))
    errs = np.asarray(m.errors)
    assert np.all(np.diff(errs) <= 1e-12)  # monotone decrease on its own snapshot
    assert errs[-1] <= 1e-4


def test_greedy_solves_each_training_point_once(toy, toy_train, monkeypatch):
    """The picks reuse their sweep solves instead of solving again."""
    solved = []

    def counting(mu, *args):
        solved.append(mu)
        return solve_american(mu, *args)

    monkeypatch.setattr(rbm, "solve_american", counting)
    space, blocks, grid = toy
    model = pod_greedy("american", toy_train, space, blocks, grid, GreedyConfig(n_max=8, tol=1e-12))
    assert any(mu != toy_train[0] for mu in model.selected_mu[1:])
    assert solved == toy_train


@pytest.mark.parametrize("style", ["bermudan", "American", ""])
def test_greedy_refuses_an_unknown_style_before_any_solve(toy, toy_train, style, monkeypatch):
    def solve(*args):
        raise AssertionError("solved before refusing the style")

    monkeypatch.setattr(rbm, "solve_american", solve)
    monkeypatch.setattr(rbm, "solve_european", solve)
    with pytest.raises(ValueError, match=f"unknown style {style!r}"):
        pod_greedy(style, toy_train, *toy, GreedyConfig(n_max=8))


@pytest.mark.parametrize("style, n_init", [("american", 2), ("european", 1)])
def test_greedy_refuses_a_cap_without_room_for_a_pick(toy, style, n_init):
    space, blocks, grid = toy
    mu = ModelParams(0.3, -0.5, 0.1, 1.0, 0.03)
    with pytest.raises(ValueError, match=f"n_max={n_init} .*initial basis of size {n_init}"):
        pod_greedy(style, [mu], space, blocks, grid, GreedyConfig(n_max=n_init))


def test_backend_agreement_european(toy):
    space, blocks, grid = toy
    mu = ModelParams(0.3, -0.5, 0.1, 1.0, 0.03)
    m = pod_greedy("european", [mu], space, blocks, grid, GreedyConfig(n_max=16, tol=1e-14))
    theta = np.array([mu.xi, mu.rho, mu.gamma, mu.kappa, 0.15])

    class Q:
        def __init__(self, T, K):
            self.maturity, self.strike = T, K

    quotes = [Q(0.5, 0.9), Q(1.0, 1.0), Q(1.0, 1.1)]
    det = PdeBackend("DetailedEu", space, blocks, grid).price_vector(theta, quotes, 1.0, mu.r)
    red = ReducedBackend("ReducedEu", m).price_vector(theta, quotes, 1.0, mu.r)
    assert np.allclose(det, red, atol=1e-6)


ARRAY_FIELDS = ("psi", "a_red", "m_red", "mlift_red", "alift_red", "u0_red", "xi", "b_red", "g_red")


def _assert_same_model(back, m):
    assert (back.style, back.space.n_nu, back.space.n_x, back.space.domain, back.grid) == (
        m.style, m.space.n_nu, m.space.n_x, m.space.domain, m.grid
    )
    for name in ("nu", "x"):
        assert getattr(back.space, name).tobytes() == getattr(m.space, name).tobytes(), name
    assert back.lift_shape.tobytes() == m.lift_shape.tobytes()
    assert back.selected_mu == m.selected_mu
    assert back.errors == m.errors and back.stagnated == m.stagnated
    for name in ARRAY_FIELDS:
        a, b = getattr(back, name), getattr(m, name)
        assert (a is None) == (b is None), name
        if b is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    # online solves are bit-identical through the round trip
    for mu in m.selected_mu:
        t1, t2 = solve_reduced(m, mu), solve_reduced(back, mu)
        assert t1.U.tobytes() == t2.U.tobytes()
        if m.style == "american":
            assert t1.lam.tobytes() == t2.lam.tobytes()


def test_serialization_round_trip(tmp_path, toy_american, toy_european):
    for m in (toy_american, toy_european):
        path = tmp_path / f"{m.style}.npz"
        save_reduced_model(m, path)
        with np.load(path) as data:
            dual = {"xi"} if m.style == "american" else set()
            assert set(data.files) == {"meta", "psi", "nu", "x", *dual}
        _assert_same_model(load_reduced_model(path), m)
    assert toy_european.xi is None and toy_european.b_red is None and toy_european.g_red is None


def _container(path):
    """The members of the container at path, with its meta decoded."""
    with np.load(path) as data:
        members = {name: data[name] for name in data.files}
    members["meta"] = json.loads(bytes(members["meta"]).decode())
    return members


def _rewrite(path, members):
    """Write members (meta as a dict, if present) as a container at path."""
    if "meta" in members:
        members = {**members, "meta": np.frombuffer(
            json.dumps(members["meta"], sort_keys=True).encode(), dtype=np.uint8)}
    np.savez(path, **members)


def test_container_meta_names_no_mesh(tmp_path, toy_american):
    """A version-2 container's mesh is its node arrays alone: its meta holds
    no domain and no interval counts, and a meta edited to name another mesh
    with as many free nodes (14 x 18 for 16 x 16) loads the same model."""
    path = tmp_path / "m.npz"
    save_reduced_model(toy_american, path)
    members = _container(path)
    assert members["meta"]["format_version"] == 2
    assert not {"domain", "n_nu", "n_x"} & set(members["meta"])
    members["meta"].update(domain=[1e-5, 3.0, -5.0, 5.0], n_nu=14, n_x=18)
    assert build_mesh(Domain2D(), 14, 18).n_free == toy_american.space.n_free
    _rewrite(path, members)
    _assert_same_model(load_reduced_model(path), toy_american)


def test_graded_basis_round_trips_through_container(tmp_path):
    """A basis built on a mesh graded in x (x = 0.1 sinh(z), z uniform)
    loads onto the same node arrays, with bit-identical online solves."""
    x = 0.1 * np.sinh(np.linspace(-np.arcsinh(50.0), np.arcsinh(50.0), 13))
    x[[0, -1]] = -5.0, 5.0
    space = mesh_from_nodes(np.linspace(1e-5, 3.0, 11), x)
    train = [ModelParams(0.3, -0.5, 0.1, 1.0, 0.03), ModelParams(0.5, -0.2, 0.2, 2.0, 0.03)]
    m = pod_greedy("american", train, space, assemble_blocks(space), TimeGrid(1.0, 20), GreedyConfig(n_max=6))
    path = tmp_path / "graded.npz"
    save_reduced_model(m, path)
    back = load_reduced_model(path)
    assert np.array_equal(back.space.x, x) and not np.array_equal(back.space.x, build_mesh(Domain2D(), 10, 12).x)
    _assert_same_model(back, m)


def test_refuses_container_whose_node_arrays_do_not_fit_its_bases(tmp_path, toy_american):
    """A version-2 file whose node arrays give another free-node count than
    its bases have rows is refused, naming both counts."""
    path = tmp_path / "m.npz"
    save_reduced_model(toy_american, path)
    members = _container(path)
    members["x"] = members["x"][:-1]
    _rewrite(path, members)
    n_rows = toy_american.space.n_free
    with pytest.raises(ValueError, match=f"psi has {n_rows} rows.* {n_rows - 17} free nodes"):
        load_reduced_model(path)


@pytest.mark.parametrize("style", ["american", "european"])
def test_refuses_container_in_version_1_key_layout(tmp_path, style, toy_american, toy_european):
    """A version-1 file (its mesh named by a domain and interval counts in
    its meta, no node arrays) is refused, naming the file, its version and
    the command that rebuilds it."""
    m = toy_american if style == "american" else toy_european
    path = tmp_path / "v1.npz"
    save_reduced_model(m, path)
    members = _container(path)
    d = m.space.domain
    members["meta"].update(format_version=1, domain=[d.nu_min, d.nu_max, d.x_min, d.x_max],
                           n_nu=m.space.n_nu, n_x=m.space.n_x)
    del members["nu"], members["x"]
    _rewrite(path, members)
    with pytest.raises(ValueError, match=r"v1\.npz is a version-1 container.*hestoncal build-basis"):
        load_reduced_model(path)


@pytest.mark.parametrize("changes, named", [
    ({"grid": [1.0, 20, 1.0]}, "theta 1.0"),
    ({"K": 2.0}, "K 2.0"),
], ids=["theta", "strike"])
def test_refuses_container_solved_with_another_theta_or_strike(tmp_path, changes, named, toy_american):
    """Every solve is the Crank-Nicolson unit-strike put, so a file that
    records another theta weight or strike is refused, naming the value."""
    path = tmp_path / "other.npz"
    save_reduced_model(toy_american, path)
    members = _container(path)
    members["meta"].update(changes)
    _rewrite(path, members)
    with pytest.raises(ValueError, match=named):
        load_reduced_model(path)


@pytest.mark.parametrize("steps", [20.0, 20.5])
def test_refuses_container_whose_grid_has_a_non_integral_step_count(tmp_path, steps, toy_american):
    """The step count is refused, not truncated to an integer."""
    path = tmp_path / "float_steps.npz"
    save_reduced_model(toy_american, path)
    members = _container(path)
    members["meta"]["grid"][1] = steps
    _rewrite(path, members)
    with pytest.raises(ValueError, match=f"time steps must be an integer, got {steps}"):
        load_reduced_model(path)


@pytest.mark.parametrize("changes", [{"n_x": 17}, {"n_nu": 17}, {"n_nu": 20}], ids=["n_x", "n_nu", "n_nu_20"])
def test_refuses_container_whose_bases_do_not_fit_its_mesh(tmp_path, changes, toy_american):
    """A file whose node arrays make a mesh with another number of free
    nodes than its bases have rows is refused, naming both counts, instead
    of pricing on the wrong nodes."""
    path = tmp_path / "other_mesh.npz"
    save_reduced_model(toy_american, path)
    other = build_mesh(Domain2D(), changes.get("n_nu", 16), changes.get("n_x", 16))
    members = _container(path)
    members["nu"], members["x"] = other.nu, other.x
    _rewrite(path, members)
    n_rows = toy_american.space.n_free
    with pytest.raises(ValueError, match=f"psi has {n_rows} rows.* {other.n_free} free nodes"):
        load_reduced_model(path)


def test_refuses_container_whose_dual_basis_does_not_fit_its_mesh(tmp_path, toy_american):
    path = tmp_path / "short_xi.npz"
    save_reduced_model(toy_american, path)
    members = _container(path)
    members["xi"] = members["xi"][1:]
    _rewrite(path, members)
    n_free = toy_american.space.n_free
    with pytest.raises(ValueError, match=f"xi has {n_free - 1} rows.* {n_free} free nodes"):
        load_reduced_model(path)


@pytest.mark.parametrize("basis", ["psi", "xi"])
def test_refuses_american_container_without_a_basis(tmp_path, basis, toy_american):
    """A version-2 American file without its primal or dual basis is refused,
    naming the file and the basis, instead of failing in the projection."""
    path = tmp_path / "no_basis.npz"
    save_reduced_model(toy_american, path)
    members = _container(path)
    del members[basis]
    _rewrite(path, members)
    with pytest.raises(ValueError, match=f"no_basis.npz: the american container has no {basis} basis"):
        load_reduced_model(path)


@pytest.mark.parametrize("drop, named", [
    (lambda members: members.pop("meta"), "the container has no meta"),
    (lambda members: members.pop("nu"), "the container has no nu node array"),
    (lambda members: members["meta"].pop("format_version"),
     "the container's meta has no format_version"),
], ids=["meta", "nu", "format_version"])
def test_refuses_container_without_a_member(tmp_path, drop, named, toy_american):
    """A file without its meta, a node array or a format_version in its meta
    is refused with a ValueError naming the file and the missing member."""
    path = tmp_path / "broken.npz"
    save_reduced_model(toy_american, path)
    members = _container(path)
    drop(members)
    _rewrite(path, members)
    with pytest.raises(ValueError, match=f"broken.npz: {named}"):
        load_reduced_model(path)


@pytest.mark.parametrize("key", rbm.META_KEYS)
def test_refuses_container_whose_meta_lacks_a_key(tmp_path, key, toy_american):
    """A version-2 meta without a key that loading reads is refused with a
    ValueError naming the file and the key, not a KeyError."""
    path = tmp_path / "no_key.npz"
    save_reduced_model(toy_american, path)
    members = _container(path)
    del members["meta"][key]
    _rewrite(path, members)
    with pytest.raises(ValueError, match=f"no_key.npz: the container's meta has no {key}$"):
        load_reduced_model(path)


#: Builds a two-point American basis on the 33 x 33 mesh with I = 125, where
#: the snapshot correlation of pod1 is large enough for BLAS to thread, and
#: saves it to the path given as the first argument.
_THREAD_BUILD = """
import sys
from hestoncal.mesh import Domain2D, assemble_blocks, build_mesh
from hestoncal.params import ModelParams
from hestoncal.rbm import GreedyConfig, pod_greedy, save_reduced_model
from hestoncal.solvers import TimeGrid
space = build_mesh(Domain2D(), 33, 33)
train = [ModelParams(0.7, -0.8, 0.3, 1.4, 0.05), ModelParams(0.5, -0.6, 0.2, 2.0, 0.05)]
model = pod_greedy("american", train, space, assemble_blocks(space), TimeGrid(2.0, 125), GreedyConfig(n_max=4))
save_reduced_model(model, sys.argv[1])
"""


def test_basis_build_does_not_depend_on_blas_thread_count(tmp_path):
    """The same greedy build at one and at two BLAS threads saves the same
    container byte for byte."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        paths.append(tmp_path / f"threads_{threads}.npz")
        subprocess.run([sys.executable, "-c", _THREAD_BUILD, str(paths[-1])], env=env, check=True, timeout=300)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_error_decays_with_basis_size(toy, toy_train):
    space, blocks, grid = toy
    mu_test = ModelParams(0.35, -0.45, 0.12, 1.2, 0.03)
    surf = solve_american(mu_test, space, blocks, grid)
    u_ref = surf.U[-1]
    G = blocks.v_gram_free
    errs = []
    for n in (6, 12, 24):
        m = pod_angle_greedy_american(
            toy_train, space, blocks, grid, GreedyConfig(n_max=n, tol=1e-12)
        )
        traj = solve_reduced(m, mu_test)
        u_red = m.psi @ traj.U[-1]
        d = u_ref - u_red
        errs.append(float(np.sqrt(d @ (G @ d))))
    assert errs[-1] <= errs[0]


def test_reduced_price_off_grid_matches_detailed(toy):
    """Reduced and FEM pricers interpolate off-grid maturities alike."""
    space, blocks, grid = toy
    mu = ModelParams(0.3, -0.5, 0.1, 1.0, 0.03)
    m = pod_greedy("european", [mu], space, blocks, grid, GreedyConfig(n_max=16, tol=1e-14))
    surf = solve_european(mu, space, blocks, grid)
    traj = solve_reduced(m, mu)
    for T in (0.27, 0.5, 0.93):  # off the dt = 0.05 grid, except 0.5
        for K in (0.9, 1.0, 1.1):
            p_det = price_at(surf, 1.0, K, 0.15, T)
            assert price_at(traj, 1.0, K, 0.15, T) == pytest.approx(p_det, abs=1e-6)
    with pytest.raises(ValueError, match="horizon"):
        price_at(traj, 1.0, 1.0, 0.15, 1.2)


def _lcp(M, q):
    """Kernel callback solve(active, key) of the LCP 0 <= beta  perp  M beta + q >= 0.

    With c = M beta and g = -q the slack c - g is M beta + q.
    """

    def solve(active, key):
        idx = np.flatnonzero(active)
        beta = np.zeros(q.size)
        beta[idx] = np.linalg.solve(M[np.ix_(idx, idx)], -q[idx])
        return beta, beta, M @ beta

    return solve, -q


def _assert_lcp_solution(M, q, beta):
    w = M @ beta + q
    scale = max(1.0, np.abs(q).max(), np.abs(M).max() * np.abs(beta).max())
    assert beta.min() >= 0.0
    assert w.min() >= -1e-12 * scale
    assert np.abs(np.minimum(beta, w)).max() <= 1e-12 * scale


def test_pivot_lcp_ill_conditioned_spd():
    """cond(M) = 1e6: projected Gauss-Seidel stalls here, pivoting is exact."""
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    M = Q @ np.diag(np.logspace(0, -6, 6)) @ Q.T
    q = rng.normal(size=6)
    _, beta, active = principal_pivoting(*_lcp(M, q), np.zeros(6, dtype=bool))
    _assert_lcp_solution(M, q, beta)
    assert np.all(beta[~active] == 0.0)


P_MATRIX = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 2.0], [2.0, 0.0, 1.0]])


@pytest.mark.parametrize("start", range(8))
def test_pivot_lcp_p_matrix_from_every_warm_start(start):
    """A non-symmetric P-matrix on which flip-all Newton cycles from 6 of 8 starts."""
    q = -np.ones(3)
    active0 = np.array([(start >> i) & 1 for i in range(3)], dtype=bool)
    _, beta, _ = principal_pivoting(*_lcp(P_MATRIX, q), active0)
    _assert_lcp_solution(P_MATRIX, q, beta)
    assert beta == pytest.approx(np.full(3, 1.0 / 3.0), rel=1e-14)


#: (M, q, solution, starts from which Newton revisits a set and pivots).  The
#: "merge" key names a rule the kernel no longer has; it stays so that the
#: case's test IDs stay stable.
KERNEL_CASES = {
    "merge": (P_MATRIX, -np.ones(3), np.full(3, 1.0 / 3.0), (1, 2, 3, 4, 5, 6)),
    "pivot": (
        np.array([[1.0, 1.0, 0.0], [-3.0, 1.0, 3.0], [3.0, 0.0, 1.0]]),
        np.array([1.0, 2.0, 1.0]),
        np.zeros(3),
        (1, 2, 3, 4, 5, 6),
    ),
}


@pytest.mark.parametrize("start", range(8))
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_p_matrix_from_every_warm_start(case, start, monkeypatch):
    """The whole kernel: Newton, then pivoting where it cycles."""
    M, q, solution, cycling = KERNEL_CASES[case]
    pivoted = []

    def counted(*args):
        pivoted.append(start)
        return principal_pivoting(*args)

    monkeypatch.setattr(solvers, "principal_pivoting", counted)
    active0 = np.array([(start >> i) & 1 for i in range(3)], dtype=bool)
    _, beta, _ = solve_complementarity(*_lcp(M, q), active0, np.abs(q).max())
    _assert_lcp_solution(M, q, beta)
    assert beta == pytest.approx(solution, rel=1e-14, abs=0.0)
    assert bool(pivoted) == (start in cycling)


def test_pivot_lcp_without_solution_raises_typed_error():
    with pytest.raises(LCPError) as info:
        principal_pivoting(*_lcp(np.array([[-1.0]]), np.array([-1.0])), np.zeros(1, dtype=bool))
    err = info.value
    assert isinstance(err, RuntimeError)
    assert err.n == 1 and err.pivots >= 1 and err.residual > 0.0
    assert "n=1" in str(err)


def test_singular_schur_block_raises_typed_error():
    """Two equal constraint rows with equal obstacles, both active: the Schur
    block (B S^-1 B^T)_AA is singular, and the step raises instead of
    returning a least-squares multiplier."""
    B = np.array([[1.0, 2.0, 0.5], [1.0, 2.0, 0.5], [0.0, 1.0, -1.0]])
    g = np.array([0.3, 0.3, -0.2])
    s_inv = np.linalg.inv(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]]))
    factor = _schur_step(s_inv, B, g)
    with pytest.raises(LCPError, match="singular Schur block") as info:
        factor(np.array([True, True, False]))(np.array([1.0, -0.5, 0.25]))
    assert isinstance(info.value, RuntimeError) and info.value.n == 3
    # either row alone is a regular block
    _, beta, c = factor(np.array([True, False, False]))(np.array([1.0, -0.5, 0.25]))
    assert c[0] == pytest.approx(g[0], rel=1e-14) and beta[1:].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("subset", range(16))
def test_schur_step_matches_the_bordered_saddle_point_solve(subset):
    """Every active set of a 4-row case, the empty one included: (a, beta_A)
    solve S a - B_A^T beta_A = rhs, (B a)_A = g_A, beta is exactly 0 off A
    and c = B a."""
    rng = np.random.default_rng(11)
    n, n_w = 6, 4
    S = 4.0 * np.eye(n) + rng.normal(scale=0.5, size=(n, n))  # nonsymmetric, like the CN step
    B = rng.normal(size=(n_w, n))
    g = rng.normal(size=n_w)
    rhs = rng.normal(size=n)
    active = np.array([(subset >> i) & 1 for i in range(n_w)], dtype=bool)
    idx = np.flatnonzero(active)
    bordered = np.block([[S, -B[idx].T], [B[idx], np.zeros((idx.size, idx.size))]])
    ref = np.linalg.solve(bordered, np.concatenate((rhs, g[idx])))
    a_ref, beta_ref = ref[:n], np.zeros(n_w)
    beta_ref[idx] = ref[n:]

    a, beta, c = _schur_step(np.linalg.inv(S), B, g)(active)(rhs)
    for got, want in ((a, a_ref), (beta, beta_ref), (c, B @ a_ref)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert (beta[~active] == 0.0).all()


def test_schur_step_empty_set_map_is_the_general_formula_bit_for_bit():
    """The empty set's map, built without the 0 x 0 inverse and the empty
    products, solves to the general formula's bytes.  Bytes compare the sign
    of every zero: the beta rows are zero, and rhs and S^-1 hold -0.0."""
    rng = np.random.default_rng(23)
    n, n_w = 6, 4
    s_inv = np.linalg.inv(4.0 * np.eye(n) + rng.normal(scale=0.5, size=(n, n)))
    s_inv[0, :3] = -0.0
    B = rng.normal(size=(n_w, n))
    g = rng.normal(size=n_w)
    bs = B @ s_inv
    free = np.vstack((s_inv, np.zeros((n_w, n)), bs))
    lift = np.vstack((s_inv @ B.T, np.eye(n_w), bs @ B.T))
    idx = np.flatnonzero(np.zeros(n_w, dtype=bool))
    lift_a = lift[:, idx]
    inv = np.linalg.inv(lift_a[n + n_w + idx])
    M, m = free - lift_a @ (inv @ bs[idx]), lift_a @ (inv @ g[idx])
    solve = _schur_step(s_inv, B, g)(np.zeros(n_w, dtype=bool))
    for rhs in (rng.normal(size=n), np.full(n, -0.0), -np.abs(rng.normal(size=n))):
        want = M @ rhs + m
        got = solve(rhs)
        assert np.concatenate(got).tobytes() == want.tobytes()
        assert not np.signbit(got[1]).any()
