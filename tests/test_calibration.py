"""Objective, finite-difference derivatives and the projected optimizer."""

import numpy as np
import pytest

from hestoncal.calibration import (
    VARIANTS,
    ClosedFormBackend,
    OptimizerOptions,
    PdeBackend,
    ReducedBackend,
    _evaluation_inputs,
    calibrate,
    calibrate_reduced_refined,
    fd_jacobian,
    localized_box,
    make_backend,
    objective,
    optimize,
    route_quotes,
)
from hestoncal.closed_form import heston_put_cf
from hestoncal.mesh import Domain2D, assemble_blocks, build_mesh, mesh_from_nodes
from hestoncal.params import DEFAULT_CALIB_BOX, DEFAULT_PARAM_BOX, ModelParams, ParamBox, feller_margin
from hestoncal.quotes import Quote, QuoteSet, generate_synthetic
from hestoncal.rbm import GreedyConfig, pod_greedy, solve_reduced
from hestoncal.solvers import TimeGrid, solve_american, solve_european
from hestoncal.trees import TreeConfig, deamericanize_set


class _ArrayBackend:
    """Toy backend returning fixed per-quote prices independent of theta."""

    variant = "Toy"

    def __init__(self, prices):
        self.prices = np.asarray(prices, dtype=float)

    def price_vector(self, theta, quotes, S0, r):
        return self.prices


def _quote_set(prices):
    quotes = tuple(
        Quote(maturity=1.0, strike=100.0 + i, style="european", price=float(p))
        for i, p in enumerate(prices)
    )
    return QuoteSet(quotes=quotes, S0=100.0, r=0.02)


def test_objective_self_consistency():
    # model == observed -> zero cost and residuals
    qs = _quote_set([1.0, 2.0, 3.0])
    backend = _ArrayBackend(qs.prices())
    J, r = objective(np.zeros(5), qs, backend)
    assert J <= 1e-20
    assert np.all(r == 0.0)


def test_objective_single_quote_arithmetic():
    # M=1, observed 2.0, model 1.5 -> J = (0.5)^2 = 0.25
    qs = _quote_set([2.0])
    backend = _ArrayBackend([1.5])
    J, r = objective(np.zeros(5), qs, backend)
    assert J == pytest.approx(0.25)
    assert r[0] == pytest.approx(0.5)


def test_objective_is_mean_square_of_residuals():
    qs = _quote_set([1.0, 2.0, 4.0])
    backend = _ArrayBackend([1.1, 1.8, 4.4])
    J, r = objective(np.zeros(5), qs, backend)
    assert J == pytest.approx(float(r @ r) / r.size)


#: A box whose upper bounds no probe of the fd_jacobian tests below reaches,
#: and the mask that varies every coordinate: optimize passes both.
_WIDE_BOX = ParamBox(lower=(-10.0,) * 5, upper=(10.0,) * 5)
_ALL = np.ones(5, dtype=bool)


def test_fd_jacobian_quadratic_oracle():
    A = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    b = np.array([0.3, -0.2, 0.1, 0.0, -0.4])
    resid = lambda th: np.array([0.5 * th @ A @ th + b @ th])
    theta = np.array([0.4, -0.3, 0.25, 1.1, 0.2])
    jac, _ = fd_jacobian(resid, theta, resid(theta), _WIDE_BOX, _ALL)
    exact = A @ theta + b
    assert np.allclose(jac[0], exact, atol=1e-4)


def test_fd_jacobian_flips_at_upper_bound():
    box = ParamBox(lower=(0.0,) * 5, upper=(1.0, 1.0, 1.0, 1.0, 1.0))
    probes = []

    def resid(th):
        probes.append(th.copy())
        return th**2

    theta = np.ones(5)  # every coordinate at the upper bound
    jac, n = fd_jacobian(resid, theta, resid(theta), box, _ALL)
    assert n == 5
    assert all(np.all(th <= 1.0) for th in probes), "probe left the box"
    assert np.allclose(jac, np.diag(2.0 * theta), atol=1e-4)


def test_fd_jacobian_matches_central_difference():
    def resid(th):
        return np.array([th[0] ** 2 - th[1], np.sin(th[2]) + th[3] * th[4], th[1] * th[3]])

    theta = np.array([0.5, -0.4, 0.3, 1.2, 0.25])
    r0 = resid(theta)
    jac, _ = fd_jacobian(resid, theta, r0, _WIDE_BOX, _ALL)
    h = 1e-6
    central = np.empty_like(jac)
    for i in range(5):
        e = np.zeros(5)
        e[i] = h
        central[:, i] = (resid(theta + e) - resid(theta - e)) / (2 * h)
    assert np.allclose(jac, central, atol=1e-5)


def test_fd_jacobian_mask_zeroes_fixed_columns():
    resid = lambda th: th[:3] ** 2
    theta = np.array([0.5, 0.5, 0.5, 2.0, 0.3])
    mask = np.array([True, True, True, False, True])
    jac, n = fd_jacobian(resid, theta, resid(theta), _WIDE_BOX, mask)
    assert np.all(jac[:, 3] == 0.0)
    assert n == 4  # one probe per free coordinate


def test_optimize_quadratic_recovers_target_inside_box():
    target = np.array([0.5, -0.3, 0.2, 1.0, 0.3])
    resid = lambda th: th - target
    box = DEFAULT_CALIB_BOX
    x0 = np.array([0.3, 0.0, 0.4, 2.0, 0.5])
    theta, J, iters, n_evals, status = optimize(resid, x0, box)
    assert np.allclose(theta, target, atol=1e-6)
    assert J <= 1e-12
    assert status in ("converged_dj", "converged_step")


def test_optimize_respects_box_exactly():
    # unconstrained optimum outside the box -> iterate clamps to the face
    target = np.array([2.0, -0.3, 0.2, 1.0, 0.3])  # xi target above 0.9
    resid = lambda th: th - target
    theta, *_ = optimize(resid, DEFAULT_CALIB_BOX.midpoint(), DEFAULT_CALIB_BOX)
    assert theta[0] == DEFAULT_CALIB_BOX.hi[0]
    assert np.allclose(theta[1:], target[1:], atol=1e-6)


def test_optimize_improves_objective():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(8, 5))
    resid = lambda th: A @ (th - np.array([0.4, -0.2, 0.3, 1.5, 0.2])) + 0.01
    x0 = DEFAULT_CALIB_BOX.midpoint()
    J0 = float(resid(x0) @ resid(x0)) / 8
    theta, J, *_ = optimize(resid, x0, DEFAULT_CALIB_BOX)
    assert J <= J0


def test_optimize_feller_penalty_reaches_feasible_point():
    # pull toward a Feller-violating target; penalty must keep 2*kappa*gamma
    # - xi^2 >= 0 at the reported optimum
    target = np.array([0.9, -0.5, 0.02, 0.2, 0.3])
    resid = lambda th: th - target
    opts = OptimizerOptions(feller=True)
    theta, J, iters, n_evals, status = optimize(
        resid, DEFAULT_CALIB_BOX.midpoint(), DEFAULT_CALIB_BOX, opts
    )
    assert status != "feller_infeasible"
    assert feller_margin(theta[0], theta[2], theta[3]) >= 0.0


def test_optimize_feller_reweighting_prices_nothing_uncounted():
    # each growth of the penalty weight reuses the residual in hand: every
    # call of the residual function is one of the n_evals objective evaluations
    target = np.array([0.9, -0.5, 0.02, 0.2, 0.3])
    calls = []

    def resid(th):
        calls.append(th)
        return th - target

    *_, n_evals, _ = optimize(resid, DEFAULT_CALIB_BOX.midpoint(), DEFAULT_CALIB_BOX,
                              OptimizerOptions(feller=True))
    assert len(calls) == n_evals


def test_optimize_fixed_kappa():
    target = np.array([0.5, -0.3, 0.2, 1.0, 0.3])
    resid = lambda th: th - target
    x0 = np.array([0.3, 0.0, 0.4, 2.0, 0.5])
    opts = OptimizerOptions(fix_kappa=True)
    theta, *_ = optimize(resid, x0, DEFAULT_CALIB_BOX, opts)
    assert theta[3] == x0[3]
    assert np.allclose(np.delete(theta, 3), np.delete(target, 3), atol=1e-6)


class _RaisingBackend:
    """exp(theta) prices; the xi axis above `ceiling` cannot be priced."""

    variant = "Toy"

    def __init__(self, ceiling):
        self.ceiling = ceiling
        self.calls = self.raised = 0

    def price_vector(self, theta, quotes, S0, r):
        self.calls += 1
        if theta[0] > self.ceiling:
            self.raised += 1
            raise FloatingPointError("non-finite solution")
        return np.exp(theta)


def test_calibrate_rejects_trial_steps_that_raise():
    # the convex exp makes the first Gauss-Newton step overshoot xi = 0.6 to
    # about 0.69, inside the region the backend cannot price; the trial must
    # count as rejected, raise the damping and let the run go on
    target = np.array([0.6, -0.5, 0.2, 1.0, 0.3])
    quotes = tuple(
        Quote(maturity=1.0, strike=100.0, style="european", price=float(p)) for p in np.exp(target)
    )
    qs = QuoteSet(quotes=quotes, S0=100.0, r=0.02)
    backend = _RaisingBackend(ceiling=0.62)
    x0 = np.array([0.2, -0.5, 0.2, 1.0, 0.3])
    report = calibrate(qs, backend, DEFAULT_CALIB_BOX, x0=x0)
    assert backend.raised >= 1
    assert report.status in ("converged_dj", "converged_step")
    assert np.allclose(report.theta_star, target, atol=1e-5)
    # every trial, the raised ones included, is an evaluation
    assert report.n_evals + 1 == backend.calls


def test_calibrate_counts_both_calls_of_a_retried_probe():
    # the forward probe of xi (h = 1e-6) crosses the ceiling, raises and is
    # retried at h/10; both calls are evaluations
    target = np.array([0.6, -0.5, 0.2, 1.0, 0.3])
    quotes = tuple(
        Quote(maturity=1.0, strike=100.0, style="european", price=float(p)) for p in np.exp(target)
    )
    qs = QuoteSet(quotes=quotes, S0=100.0, r=0.02)
    x0 = np.array([0.2, -0.5, 0.2, 1.0, 0.3])
    backend = _RaisingBackend(ceiling=x0[0] + 5e-7)
    report = calibrate(qs, backend, DEFAULT_CALIB_BOX, x0=x0, options=OptimizerOptions(max_iter=1))
    assert backend.raised >= 1
    assert report.n_evals + 1 == backend.calls


def test_fd_jacobian_lets_programming_errors_through():
    calls = []

    def resid(th):
        calls.append(th)
        if len(calls) == 1:
            raise TypeError("not a pricing failure")
        return th

    with pytest.raises(TypeError):
        fd_jacobian(resid, np.ones(5), np.ones(5), _WIDE_BOX, _ALL)


def test_calibrate_report_fields_consistent():
    theta_ex = np.array([0.25, -0.5, 0.10, 0.4, 0.10])
    backend = ClosedFormBackend()
    layout = [
        Quote(maturity=T, strike=K, style="european", price=np.nan)
        for T in (0.5, 1.0)
        for K in (90.0, 100.0, 110.0)
    ]
    prices = backend.price_vector(theta_ex, layout, 100.0, 0.05)
    quotes = QuoteSet(
        quotes=tuple(
            Quote(maturity=q.maturity, strike=q.strike, style="european", price=float(p))
            for q, p in zip(layout, prices)
        ),
        S0=100.0,
        r=0.05,
    )
    x0 = np.array([0.35, -0.4, 0.15, 0.8, 0.15])
    report = calibrate(quotes, backend, DEFAULT_CALIB_BOX, x0=x0)
    assert report.status in ("converged_dj", "converged_step")
    # residual identity: observed - model == residuals
    assert np.allclose(report.observed - report.model_prices, report.residuals)
    assert report.J_star <= 1e-10
    assert np.linalg.norm(report.theta_star - theta_ex) <= 1e-3
    # J(theta*) no worse than J(x0)
    J0, _ = objective(x0, quotes, backend)
    assert report.J_star <= J0


def test_calibrate_rejects_x0_outside_box():
    qs = _quote_set([1.0])
    backend = _ArrayBackend([1.0])
    with pytest.raises(ValueError):
        calibrate(qs, backend, DEFAULT_CALIB_BOX, x0=np.array([5.0, 0.0, 0.2, 1.0, 0.3]))


# ---------------------------------------------------------------------------
# the backend registry

REGISTRY_R = 0.03
REGISTRY_THETA = np.array([0.3, -0.5, 0.1, 1.0, 0.15])
# one maturity on the dt = 0.1 grid, one between two levels, and a strike
# whose point lies in a cell at the x_min wall, where the lift is nonzero
REGISTRY_QUOTES = [
    Quote(maturity=0.5, strike=0.9, style="european", price=np.nan),
    Quote(maturity=0.35, strike=1.1, style="european", price=np.nan),
    Quote(maturity=0.35, strike=60.0, style="european", price=np.nan),
]
# market-scale quotes: unsorted, repeated and off-grid maturities
GOOGLE_S0 = 523.755
GOOGLE_QUOTES = [
    Quote(maturity=T, strike=K, style="european", price=np.nan)
    for T, K in [
        (0.35, 650.0), (0.1, 400.0), (1.0, 523.755), (0.35, 480.0), (0.5, 610.0),
        (0.73, 455.0), (0.1, 575.0), (0.35, 400.0), (0.05, 500.0), (1.0, 650.0),
    ]
]


@pytest.fixture(scope="module")
def registry_inputs():
    space = build_mesh(Domain2D(), 8, 8)
    fem = (space, assemble_blocks(space), TimeGrid(1.0, 10))
    train = [ModelParams(0.3, -0.5, 0.1, 1.0, REGISTRY_R), ModelParams(0.5, -0.3, 0.2, 2.0, REGISTRY_R)]
    bases = {
        style: pod_greedy(style, train, *fem, GreedyConfig(n_max=6)) for style in ("american", "european")
    }
    return fem, bases


def _p1_weights(space, nu, x):
    """Nodes and barycentric weights of the point (nu, x): a 2 x 2 solve in
    every triangle, keeping the first one that contains the point."""
    for tri, corners in zip(space.triangles, space.coords[space.triangles]):
        st = np.linalg.solve((corners[1:] - corners[0]).T, np.array([nu, x]) - corners[0])
        lam = np.array([1.0 - st[0] - st[1], st[0], st[1]])
        if lam.min() >= -1e-12:
            return tri, lam
    raise AssertionError(f"({nu}, {x}) lies in no triangle")


def _blend_in_time(grid, T_i, level_value):
    """Linear interpolation in time between the levels around T_i."""
    k = T_i / grid.dt
    if abs(k - round(k)) <= 1e-9 * max(1.0, k):
        return level_value(round(k))
    k0 = int(k)
    return (1.0 - (k - k0)) * level_value(k0) + (k - k0) * level_value(k0 + 1)


def _fem_quote_price(surf, S0, K_i, nu0, T_i):
    """One quote from a FEM surface: its full nodal values interpolated."""
    tri, lam = _p1_weights(surf.space, nu0, np.log(S0 / K_i))

    def level_value(k):
        full = surf.boundary.scale(k * surf.grid.dt) * surf.boundary.shape
        full[surf.space.free] += surf.U[k]
        return full[tri] @ lam

    return _blend_in_time(surf.grid, T_i, level_value) * K_i


def _reduced_quote_price(surf, S0, K_i, nu0, T_i):
    """One quote from a reduced surface: the free part of its interpolation
    row projected onto psi, plus the interpolated lift."""
    space = surf.space
    tri, lam = _p1_weights(space, nu0, np.log(S0 / K_i))
    free_index = np.full(space.n_nodes, -1)
    free_index[space.free] = np.arange(space.n_free)
    fi = free_index[tri]
    row = lam[fi >= 0] @ surf.basis[fi[fi >= 0]]
    lift_shape = surf.boundary.shape[tri] @ lam

    def level_value(k):
        return surf.boundary.scale(k * surf.grid.dt) * lift_shape + row @ surf.U[k]

    return _blend_in_time(surf.grid, T_i, level_value) * K_i


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_every_variant_prices_through_make_backend(variant, registry_inputs):
    """Every variant's quote vector matches a per-quote oracle to 1e-14."""
    fem, bases = registry_inputs
    spec = VARIANTS[variant]
    backend = make_backend(variant, fem=lambda: fem, model=bases[spec.style])
    assert type(backend) is spec.backend and backend.variant == variant

    mu, nu0 = ModelParams(*REGISTRY_THETA[:4], REGISTRY_R), REGISTRY_THETA[4]
    if spec.backend is PdeBackend:
        solver = solve_american if spec.style == "american" else solve_european
        surf, oracle = solver(mu, *fem), _fem_quote_price
        assert surf.basis is None
    elif spec.backend is ReducedBackend:
        surf, oracle = solve_reduced(bases[spec.style], mu), _reduced_quote_price
        assert surf.basis is bases[spec.style].psi
    else:
        def oracle(_, S0, K_i, nu0, T_i):
            return heston_put_cf(S0, np.array([K_i]), T_i, mu, nu0)[0]

        surf = None
    for S0, quotes in ((1.0, REGISTRY_QUOTES), (GOOGLE_S0, GOOGLE_QUOTES)):
        prices = backend.price_vector(REGISTRY_THETA, quotes, S0, REGISTRY_R)
        want = np.array([oracle(surf, S0, q.strike, nu0, q.maturity) for q in quotes])
        assert prices.shape == want.shape
        assert np.all(np.abs(prices - want) <= 1e-14 * np.abs(want)), (S0, prices - want)


@pytest.mark.xfail(
    strict=True,
    reason="the P1 interpolant of the concave exercise payoff lies below the payoff "
    "between nodes: here 287 of 3,360 prices fall below intrinsic, worst by 4.7e-2",
)
def test_detailed_american_puts_above_intrinsic_over_whole_calib_box():
    """Seeded DEFAULT_CALIB_BOX sweep of DetailedAm against P >= max(K - S0, 0)."""
    r, strikes = 0.05, np.linspace(0.5, 1.5, 21)
    space = build_mesh(Domain2D(), 16, 16)
    fem = (space, assemble_blocks(space), TimeGrid(2.0, 48))
    backend = make_backend("DetailedAm", fem=lambda: fem)
    quotes = [
        Quote(maturity=T, strike=K, style="american", price=np.nan)
        for T in (1.0 / 12.0, 0.5, 1.0, 2.0)
        for K in strikes
    ]
    intrinsic = np.maximum(np.array([q.strike for q in quotes]) - 1.0, 0.0)
    box = DEFAULT_CALIB_BOX
    rng = np.random.default_rng(1)
    shortfall = np.concatenate([
        intrinsic - backend.price_vector(theta, quotes, 1.0, r)
        for theta in box.lo + rng.random((40, 5)) * (box.hi - box.lo)
    ])
    below = shortfall > 1e-12
    assert not below.any(), f"{below.sum()} of {below.size}, worst {shortfall.max():.2e}"


def test_make_backend_rejects_missing_or_mismatched_bases(registry_inputs):
    fem, bases = registry_inputs
    with pytest.raises(ValueError, match="reduced basis"):
        make_backend("ReducedAm", fem=lambda: fem)
    # a basis of the other style is never used silently
    for variant in ("ReducedEu", "DasReduced"):
        with pytest.raises(ValueError, match="basis is american"):
            make_backend(variant, model=bases["american"])
    with pytest.raises(ValueError, match="basis is european"):
        ReducedBackend("ReducedAm", bases["european"])


#: American quotes at S0 = 100, r = 0.02; the second is below intrinsic.
ROUTE_QUOTES = QuoteSet(
    (
        Quote(maturity=0.5, strike=100.0, style="american", price=7.0),
        Quote(maturity=0.5, strike=120.0, style="american", price=1.0),
        Quote(maturity=1.0, strike=95.0, style="american", price=6.0),
    ),
    S0=100.0,
    r=0.02,
)
DAS_VARIANTS = [name for name, v in VARIANTS.items() if v.deamericanize]


@pytest.mark.parametrize("variant", DAS_VARIANTS)
def test_route_quotes_deamericanizes_for_das_variants(variant):
    cfg = TreeConfig(steps=100)
    pseudo = deamericanize_set(ROUTE_QUOTES.quotes, 100.0, 0.02, cfg)
    want = QuoteSet(
        tuple(Quote(p.maturity, p.strike, "european", price=p.pseudo_price) for p in pseudo),
        S0=100.0,
        r=0.02,
    )
    got = route_quotes(variant, ROUTE_QUOTES, cfg)
    assert got == want
    assert [q.strike for q in got] == [100.0, 95.0]


@pytest.mark.parametrize("variant", DAS_VARIANTS)
def test_route_quotes_passes_european_sets_and_refuses_mixed_ones(variant):
    european = _quote_set([0.1, 0.2])
    assert route_quotes(variant, european) is european
    mixed = european.with_quotes(european.quotes + ROUTE_QUOTES.quotes[:1])
    with pytest.raises(ValueError, match="mixed-style"):
        route_quotes(variant, mixed)


@pytest.mark.parametrize("variant", [name for name in VARIANTS if name not in DAS_VARIANTS])
def test_route_quotes_refuses_the_other_style_for_direct_variants(variant):
    sets = {"american": ROUTE_QUOTES, "european": _quote_set([0.1, 0.2])}
    style = VARIANTS[variant].style
    other = "european" if style == "american" else "american"
    own = sets[style]
    assert route_quotes(variant, own) is own
    for wrong in (sets[other], own.with_quotes(own.quotes + sets[other].quotes)):
        with pytest.raises(ValueError, match=f"holds {other} ones"):
            route_quotes(variant, wrong)


@pytest.mark.parametrize(
    "mesh, grid, named",
    [((9, 8), TimeGrid(1.0, 10), ("9, 8)", "8, 8)")), ((8, 8), TimeGrid(1.0, 12), ("I=12", "I=10"))],
    ids=["mesh", "steps"],
)
def test_calibrate_reduced_refined_refuses_another_discretization(
    registry_inputs, monkeypatch, mesh, grid, named
):
    """A refinement basis is never built on another mesh or time grid than
    its pilot's: the mismatch raises, naming both, before any calibration or
    greedy runs."""
    from hestoncal import calibration, rbm

    def never(*args, **kwargs):
        raise AssertionError("ran before the discretization check")

    monkeypatch.setattr(calibration, "calibrate", never)
    monkeypatch.setattr(rbm, "pod_angle_greedy_american", never)
    pilot = registry_inputs[1]["american"]
    space = build_mesh(Domain2D(), *mesh)
    with pytest.raises(ValueError, match="pilot") as err:
        calibrate_reduced_refined(
            ROUTE_QUOTES, pilot, space, assemble_blocks(space), grid, DEFAULT_CALIB_BOX, DEFAULT_CALIB_BOX
        )
    assert all(name in str(err.value) for name in named)


def test_localized_box_stays_inside_the_calibration_box():
    """The training box allows rho up to 0.95 but calibration only up to 0.3:
    a pilot at rho = 0.25 gets a refined box that stops at 0.3, not 0.40."""
    pilot = np.array([0.5, 0.25, 0.2, 2.0, 0.3])
    box = localized_box(pilot, (0.25, 0.15, 0.10, 1.0), DEFAULT_PARAM_BOX, DEFAULT_CALIB_BOX)
    assert box.hi[1] == DEFAULT_CALIB_BOX.hi[1]
    assert np.all(box.lo >= DEFAULT_CALIB_BOX.lo) and np.all(box.hi <= DEFAULT_CALIB_BOX.hi)
    assert box.contains(pilot)


@pytest.mark.parametrize("variant", ["DasClosedForm", "DetailedAm", "ReducedAm"])
def test_every_backend_prices_an_empty_quote_list_as_an_empty_vector(variant, registry_inputs):
    fem, bases = registry_inputs
    backend = make_backend(variant, fem=lambda: fem, model=bases[VARIANTS[variant].style])
    prices = backend.price_vector(REGISTRY_THETA, [], 1.0, REGISTRY_R)
    assert prices.shape == (0,)


def test_evaluation_inputs_round_trip_and_refuse_a_nu0_that_is_not_finite_and_positive():
    """theta and a quote list become (mu, nu0, strikes, maturities), in the
    quotes' order; a nu0 that is not finite and positive is refused."""
    quotes = [Quote(maturity=2.0, strike=1.1, style="american", price=0.2),
              Quote(maturity=0.5, strike=0.9, style="american", price=0.1)]
    mu, nu0, strikes, maturities = _evaluation_inputs([0.7, -0.8, 0.3, 1.4, 0.3], quotes, 0.05)
    assert mu == ModelParams(0.7, -0.8, 0.3, 1.4, 0.05) and nu0 == 0.3
    assert strikes.tolist() == [1.1, 0.9] and maturities.tolist() == [2.0, 0.5]
    for bad in (np.nan, np.inf, -np.inf, 0.0, -0.1):
        with pytest.raises(ValueError, match="nu0 must be finite and positive"):
            _evaluation_inputs([0.5, 0.0, 0.2, 1.0, bad], quotes, 0.05)


@pytest.mark.parametrize("variant", ["DasClosedForm", "DetailedAm", "ReducedAm"])
def test_every_backend_refuses_a_nu0_that_is_not_finite_and_positive_before_it_prices(
    variant, registry_inputs, monkeypatch
):
    from hestoncal import calibration

    def never(*args, **kwargs):
        raise AssertionError("priced before nu0 was checked")

    for name in ("heston_put_cf", "solve_american", "solve_reduced"):
        monkeypatch.setattr(calibration, name, never)
    fem, bases = registry_inputs
    backend = make_backend(variant, fem=lambda: fem, model=bases[VARIANTS[variant].style])
    with pytest.raises(ValueError, match="nu0 must be finite and positive, got 0.0"):
        backend.price_vector([0.3, -0.5, 0.1, 1.0, 0.0], REGISTRY_QUOTES, 1.0, REGISTRY_R)


def test_calibrate_reduced_refined_refines_on_a_graded_pilot_basis():
    """Every refinement basis is built on the pilot basis's own node arrays
    and time grid, here graded in x (x = 0.1 sinh(z), z uniform)."""
    x = 0.1 * np.sinh(np.linspace(-np.arcsinh(50.0), np.arcsinh(50.0), 9))
    x[[0, -1]] = -5.0, 5.0
    space = mesh_from_nodes(np.linspace(1e-5, 3.0, 9), x)
    blocks, grid = assemble_blocks(space), TimeGrid(2.0, 8)
    theta = np.array([0.25, -0.5, 0.10, 0.4, 0.10])
    quotes = generate_synthetic(theta, 0.05, "american", PdeBackend("DetailedAm", space, blocks, grid).price_vector)
    train = [ModelParams(0.3, -0.5, 0.1, 1.0, 0.05), ModelParams(0.5, -0.2, 0.2, 2.0, 0.05)]
    pilot = pod_greedy("american", train, space, blocks, grid, GreedyConfig(n_max=4))
    _, refined, _ = calibrate_reduced_refined(
        quotes, pilot, space, blocks, grid, DEFAULT_CALIB_BOX, DEFAULT_PARAM_BOX,
        greedy_config=GreedyConfig(n_max=4), x0=theta, options=OptimizerOptions(max_iter=1),
    )
    assert refined.space.nu.tobytes() == space.nu.tobytes()
    assert refined.space.x.tobytes() == x.tobytes()
    assert refined.grid == grid
