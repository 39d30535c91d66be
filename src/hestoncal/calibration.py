"""Least-squares calibration of the volatility-model parameters
(xi, rho, gamma, kappa, nu0) against observed put quotes.

One objective, many pricing backends: detailed finite-element (American or
European), reduced-basis surrogate, and — after de-Americanizing the quotes —
European finite-element, reduced European, or the semi-closed-form pricer.
The optimizer is a box-constrained projected Levenberg-Marquardt with
finite-difference Jacobians and an optional quadratic penalty enforcing the
positive-variance (Feller) inequality.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .closed_form import IntegrationConfig, heston_put_cf
from .mesh import AssemblyBlocks, FemSpace, evaluation_row
from .params import FELLER_EPS, CalibParams, ModelParams, ParamBox, clamp_to_box, feller_margin
from .rbm import ReducedModel, solve_reduced
from .solvers import TimeGrid, price_at, solve_american, solve_european

log = logging.getLogger(__name__)

MAX_ITER = 200
TOL_DJ = 1e-12
TOL_STEP = 1e-5
FD_SCALE = 1e-6

PDE_VARIANTS = ("DetailedAm", "DetailedEu", "ReducedAm", "ReducedEu")
DAS_VARIANTS = ("DasPde", "DasReduced", "DasClosedForm")
ALL_VARIANTS = PDE_VARIANTS + DAS_VARIANTS


# ---------------------------------------------------------------------------
# backends: map a parameter vector to model prices for a fixed quote list


@dataclass
class PdeBackend:
    """Detailed finite-element pricer; one unit-strike solve per evaluation."""

    variant: str  # DetailedAm | DetailedEu | DasPde
    space: FemSpace
    blocks: AssemblyBlocks
    grid: TimeGrid

    @property
    def style(self) -> str:
        return "american" if self.variant == "DetailedAm" else "european"

    def price_vector(self, theta, quotes, S0, r) -> np.ndarray:
        p = CalibParams.from_array(theta)
        mu = p.to_model(r)
        solver = solve_american if self.style == "american" else solve_european
        surf = solver(mu, self.space, self.blocks, self.grid, K=1.0)
        return np.array([price_at(surf, S0, q.strike, p.nu0, q.maturity) for q in quotes])


@dataclass
class ReducedBackend:
    """Reduced-basis surrogate pricer (online solves only)."""

    variant: str  # ReducedAm | ReducedEu | DasReduced
    model: ReducedModel

    def price_vector(self, theta, quotes, S0, r) -> np.ndarray:
        p = CalibParams.from_array(theta)
        mu = p.to_model(r)
        traj = solve_reduced(self.model, mu)
        return np.array([traj.price(S0, q.strike, p.nu0, q.maturity) for q in quotes])


@dataclass
class ClosedFormBackend:
    """Semi-closed-form European put pricer (per-quote Fourier integrals)."""

    variant: str = "DasClosedForm"
    config: IntegrationConfig = field(default_factory=IntegrationConfig)

    def price_vector(self, theta, quotes, S0, r) -> np.ndarray:
        p = CalibParams.from_array(theta)
        mu = p.to_model(r)
        return np.array(
            [
                heston_put_cf(S0, q.strike, q.maturity, mu, p.nu0, self.config)
                for q in quotes
            ]
        )


# ---------------------------------------------------------------------------
# objective and finite differences


def objective(theta, quote_set, backend, weights=None):
    """Mean squared pricing error and the raw residual vector.

    J = (1/M) sum w_i (P_i_obs - P_i_model)^2 with uniform unit weights by
    default.
    """
    observed = quote_set.prices()
    model = backend.price_vector(theta, quote_set.quotes, quote_set.S0, quote_set.r)
    residuals = observed - model
    if weights is None:
        J = float(residuals @ residuals) / residuals.size
    else:
        w = np.asarray(weights, dtype=float)
        J = float(w @ (residuals * residuals)) / residuals.size
    return J, residuals


def _fd_steps(theta, box: ParamBox | None):
    """Forward-difference steps, flipped one-sided at active upper bounds."""
    h = FD_SCALE * np.maximum(1.0, np.abs(theta))
    if box is not None:
        at_upper = theta + h > box.hi
        h[at_upper] = -h[at_upper]
    return h


def fd_gradient(fun, theta, box: ParamBox | None = None) -> np.ndarray:
    """Forward-difference gradient of a scalar function of theta.

    A probe failure is retried once with a ten times smaller step.
    """
    theta = np.asarray(theta, dtype=float)
    f0 = fun(theta)
    h = _fd_steps(theta, box)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h[i]
        try:
            fi = fun(theta + e)
        except Exception:
            e[i] = h[i] / 10.0
            fi = fun(theta + e)
        grad[i] = (fi - f0) / e[i]
    return grad


def fd_jacobian(resid_fun, theta, r0, box: ParamBox | None = None, mask=None):
    """Forward-difference Jacobian of the residual vector at theta.

    mask marks the coordinates actually varied (frozen coordinates get a zero
    column, keeping indexing stable).
    """
    theta = np.asarray(theta, dtype=float)
    h = _fd_steps(theta, box)
    jac = np.zeros((r0.size, theta.size))
    n_evals = 0
    for i in range(theta.size):
        if mask is not None and not mask[i]:
            continue
        e = np.zeros_like(theta)
        e[i] = h[i]
        try:
            ri = resid_fun(theta + e)
        except Exception:
            e[i] = h[i] / 10.0
            ri = resid_fun(theta + e)
        n_evals += 1
        jac[:, i] = (ri - r0) / e[i]
    return jac, n_evals


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimizerOptions:
    max_iter: int = MAX_ITER
    tol_dj: float = TOL_DJ
    tol_step: float = TOL_STEP
    lm_lambda0: float = 1e-3
    lm_increase: float = 10.0
    lm_decrease: float = 0.1
    feller: bool = False
    feller_weight0: float = 1.0
    feller_growth: float = 10.0
    fix_kappa: bool = False
    weights: np.ndarray | None = None


@dataclass
class CalibReport:
    """Everything a run produced: optimum, diagnostics such as iteration and
    objective-evaluation counts, per-quote residuals, and phase timings."""

    variant: str
    theta_star: np.ndarray
    J_star: float
    x0: np.ndarray
    iterations: int
    n_evals: int
    status: str
    residuals: np.ndarray
    rel_errors: np.ndarray
    observed: np.ndarray
    model_prices: np.ndarray
    maturities: np.ndarray
    strikes: np.ndarray
    time_preprocess: float
    time_calibrate: float
    feller_active: bool
    feller_margin: float

    def param_dict(self) -> dict:
        names = ["xi", "rho", "gamma", "kappa", "nu0"]
        return dict(zip(names, [float(v) for v in self.theta_star]))


def _feller_residual(theta, weight):
    violation = max(0.0, FELLER_EPS - feller_margin(theta[0], theta[2], theta[3]))
    return np.sqrt(weight) * violation


def optimize(resid_fun, x0, box: ParamBox, options: OptimizerOptions | None = None):
    """Box-projected Levenberg-Marquardt on the residual vector.

    Returns (theta, J, iterations, n_evals, status).  resid_fun(theta) must
    return the raw residual vector; the positive-variance penalty is appended
    internally when enabled, with a weight that grows until the iterate is
    feasible.
    """
    opt = options or OptimizerOptions()
    theta = clamp_to_box(np.asarray(x0, dtype=float), box)
    mask = np.ones(theta.size, dtype=bool)
    if opt.fix_kappa:
        mask[3] = False
    pen_weight = opt.feller_weight0

    def full_resid(th, w):
        r = np.asarray(resid_fun(th), dtype=float)
        if opt.weights is not None:
            r = np.sqrt(np.asarray(opt.weights, dtype=float)) * r
        if opt.feller:
            r = np.append(r, _feller_residual(th, w))
        return r

    def cost(r):
        return float(r @ r) / r.size

    r = full_resid(theta, pen_weight)
    n_evals = 1
    J = cost(r)
    lam = opt.lm_lambda0
    nu = 2.0
    status = "max_iterations"
    it = 0
    for it in range(1, opt.max_iter + 1):
        jac, je = fd_jacobian(lambda th: full_resid(th, pen_weight), theta, r, box, mask)
        n_evals += je
        jtj = jac.T @ jac
        jtr = jac.T @ r
        step_norm = np.inf
        accepted = False
        gain = 0.0
        for _ in range(30):
            damp = lam * np.diag(np.where(mask, np.maximum(np.diag(jtj), 1e-12), 1.0))
            lhs = jtj + damp
            lhs[~mask, :] = 0.0
            lhs[:, ~mask] = 0.0
            lhs[~mask, ~mask] = 1.0
            rhs = -np.where(mask, jtr, 0.0)
            delta = np.linalg.solve(lhs, rhs)
            theta_new = clamp_to_box(theta + delta, box)
            step = theta_new - theta
            step_norm = float(np.linalg.norm(step))
            r_new = full_resid(theta_new, pen_weight)
            n_evals += 1
            J_new = cost(r_new)
            if J_new <= J:
                # gain ratio: actual vs predicted decrease of the local model
                pred = -(2.0 * (jtr @ step) + step @ (jtj @ step)) / r.size
                gain = (J - J_new) / pred if pred > 0 else 0.0
                accepted = True
                break
            lam *= nu
            nu *= 2.0
        if not accepted:
            status = "stalled"
            break
        dj = J - J_new
        theta, r, J = theta_new, r_new, J_new
        # Marquardt-Fletcher damping update from the gain ratio
        lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), 1e-14)
        nu = 2.0
        if opt.feller and feller_margin(theta[0], theta[2], theta[3]) < FELLER_EPS:
            pen_weight *= opt.feller_growth
            r = full_resid(theta, pen_weight)
            J = cost(r)
            continue  # objective changed; convergence checks are meaningless here
        if dj <= opt.tol_dj:
            status = "converged_dj"
            break
        if step_norm <= opt.tol_step:
            status = "converged_step"
            break
    if opt.feller and feller_margin(theta[0], theta[2], theta[3]) < FELLER_EPS:
        status = "feller_infeasible"
    return theta, J, it, n_evals, status


def localized_box(pilot_theta, half_widths, pde_box: ParamBox, calib_box: ParamBox) -> ParamBox:
    """Training box for a refined basis: pilot +- half_widths in the PDE
    coordinates (xi, rho, gamma, kappa), clipped to the global PDE box; the
    initial-variance axis is inherited from the calibration box because the
    PDE basis does not depend on nu0."""
    th = np.asarray(pilot_theta, dtype=float)
    hw = np.asarray(half_widths, dtype=float)
    if hw.shape != (4,):
        raise ValueError("half_widths must cover (xi, rho, gamma, kappa)")
    lo = np.maximum(pde_box.lo[:4], th[:4] - hw)
    hi = np.minimum(pde_box.hi[:4], th[:4] + hw)
    return ParamBox(lower=(*lo, calib_box.lo[4]), upper=(*hi, calib_box.hi[4]))


def calibrate_reduced_refined(
    quote_set,
    pilot_model: ReducedModel,
    space: FemSpace,
    blocks: AssemblyBlocks,
    grid: TimeGrid,
    calib_box: ParamBox,
    pde_box: ParamBox,
    half_widths=(0.25, 0.15, 0.10, 1.0),
    train_counts=(3, 3, 3, 3, 3),
    greedy_config=None,
    x0=None,
    options=None,
    n_refine: int = 2,
    shrink: float = 0.5,
):
    """Reduced-basis calibration with iterative training-box refinement.

    The pricing-error landscape has a nearly flat valley through the true
    parameters, so the O(1e-3) bias of a surrogate trained on the full
    parameter box displaces the surrogate's minimizer a long way along that
    valley. A pilot calibration against the global surrogate locates the
    valley; each refinement round then rebuilds the basis on a training grid
    localized around the current optimum — half-widths shrinking by `shrink`
    per round, which shrinks the surrogate bias below the identifiable
    scale — and re-calibrates inside the localized box, warm-started.

    Returns (report, refined_model, pilot_report) for the last round;
    report.time_preprocess accumulates the offline basis-construction time
    of all rounds, while time_calibrate is the online cost of the final
    optimization only.
    """
    from .rbm import GreedyConfig, make_training_grid, pod_angle_greedy_american

    if n_refine < 1:
        raise ValueError("n_refine must be at least 1")
    pilot_backend = _reduced_backend_for(pilot_model)
    # The pilot only needs to locate the valley to within the localization
    # half-widths, so stop it early instead of polishing a biased optimum.
    opt = options or OptimizerOptions()
    pilot_opt = replace(opt, tol_step=max(opt.tol_step, 1e-3), max_iter=min(opt.max_iter, 50))
    pilot_report = calibrate(quote_set, pilot_backend, calib_box, x0=x0, options=pilot_opt)

    theta = pilot_report.theta_star
    hw = np.asarray(half_widths, dtype=float)
    t_offline = 0.0
    report, refined = None, None
    for _ in range(n_refine):
        local = localized_box(theta, hw, pde_box, calib_box)
        train = make_training_grid(local, train_counts, quote_set.r)
        t0 = time.perf_counter()
        refined = pod_angle_greedy_american(
            train, space, blocks, grid, greedy_config or GreedyConfig()
        )
        t_offline += time.perf_counter() - t0

        backend = _reduced_backend_for(refined)
        report = calibrate(
            quote_set,
            backend,
            local,
            x0=theta,
            options=options,
            time_preprocess=t_offline,
        )
        theta = report.theta_star
        hw = shrink * hw
    return report, refined, pilot_report


def _reduced_backend_for(model: ReducedModel) -> "ReducedBackend":
    variant = "ReducedAm" if model.style == "american" else "ReducedEu"
    return ReducedBackend(variant, model)


def calibrate(quote_set, backend, box: ParamBox, x0=None, options=None, time_preprocess=0.0):
    """Full pipeline around one backend: optimize, then report residuals.

    De-Americanization (for the Das* variants) must already have been applied
    to quote_set; its wall time is passed through as the preprocessing phase.
    """
    opt = options or OptimizerOptions()
    if x0 is None:
        x0 = box.midpoint()
    x0 = np.asarray(x0, dtype=float)
    if not box.contains(x0):
        raise ValueError("initial guess lies outside the parameter box")

    def resid_fun(th):
        return objective(th, quote_set, backend)[1]

    t0 = time.perf_counter()
    theta, _, iters, n_evals, status = optimize(resid_fun, x0, box, opt)
    t_calib = time.perf_counter() - t0

    J_star, residuals = objective(theta, quote_set, backend, weights=opt.weights)
    observed = quote_set.prices()
    model = observed - residuals
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(residuals) / np.abs(observed)
    return CalibReport(
        variant=backend.variant,
        theta_star=theta,
        J_star=J_star,
        x0=x0,
        iterations=iters,
        n_evals=n_evals,
        status=status,
        residuals=residuals,
        rel_errors=rel,
        observed=observed,
        model_prices=model,
        maturities=np.array([q.maturity for q in quote_set]),
        strikes=np.array([q.strike for q in quote_set]),
        time_preprocess=time_preprocess,
        time_calibrate=t_calib,
        feller_active=opt.feller,
        feller_margin=feller_margin(theta[0], theta[2], theta[3]),
    )
