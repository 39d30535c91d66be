"""Least-squares calibration of the volatility-model parameters
(xi, rho, gamma, kappa, nu0) against observed put quotes.

One objective, many pricing backends: detailed finite-element (American or
European), reduced-basis surrogate, and — after de-Americanizing the quotes —
European finite-element, reduced European, or the semi-closed-form pricer.
VARIANTS names these routes, route_quotes turns a quote set into the quotes
a route fits (the one place quotes are de-Americanized for a route), and
make_backend builds its pricer.  The optimizer is
a box-constrained projected Levenberg-Marquardt with finite-difference
Jacobians and an optional quadratic penalty enforcing the positive-variance
(Feller) inequality.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from .closed_form import heston_put_cf
from .mesh import AssemblyBlocks, FemSpace
from .params import FELLER_EPS, ModelParams, ParamBox, _check_finite_positive, clamp_to_box, feller_margin
from .quotes import Quote, QuoteSet
from .rbm import ReducedModel, solve_reduced
from .solvers import TimeGrid, price_at, solve_american, solve_european
from .trees import TreeConfig, deamericanize_set

log = logging.getLogger(__name__)

MAX_ITER = 200
TOL_DJ = 1e-12
TOL_STEP = 1e-5
FD_SCALE = 1e-6
LM_LAMBDA0 = 1e-3
#: Initial weight of the Feller penalty, and its growth factor after each
#: accepted iterate that still violates the inequality.
FELLER_WEIGHT0 = 1.0
FELLER_GROWTH = 10.0
#: Per-round shrink factor of calibrate_reduced_refined's half-widths.
REFINE_SHRINK = 0.5
#: Numerical failures of a backend (non-finite solution, unsolved
#: complementarity problem, singular factorization) that reject an LM trial.
TRIAL_ERRORS = (ArithmeticError, RuntimeError, np.linalg.LinAlgError)


# ---------------------------------------------------------------------------
# backends: map a parameter vector to model prices for a fixed quote list


def _strikes_and_maturities(quotes) -> tuple[np.ndarray, np.ndarray]:
    """The strike and maturity arrays of a quote list, in its order; empty
    for an empty list."""
    return np.array([(q.strike, q.maturity) for q in quotes]).reshape(-1, 2).T


def _evaluation_inputs(theta, quotes, r):
    """What every backend prices theta = (xi, rho, gamma, kappa, nu0) and a
    quote list from: (mu, nu0, strikes, maturities), mu being the PDE
    parameters with the rate r.  A nu0 that is not finite and positive is
    refused."""
    xi, rho, gamma, kappa, nu0 = (float(v) for v in theta)
    _check_finite_positive("nu0", nu0)
    return ModelParams(xi, rho, gamma, kappa, r), nu0, *_strikes_and_maturities(quotes)


@dataclass
class PdeBackend:
    """Detailed finite-element pricer; one unit-strike solve per evaluation."""

    variant: str  # DetailedAm | DetailedEu | DasPde
    space: FemSpace
    blocks: AssemblyBlocks
    grid: TimeGrid

    def price_vector(self, theta, quotes, S0, r) -> np.ndarray:
        mu, nu0, strikes, maturities = _evaluation_inputs(theta, quotes, r)
        solver = solve_american if VARIANTS[self.variant].style == "american" else solve_european
        return price_at(solver(mu, self.space, self.blocks, self.grid), S0, strikes, nu0, maturities)


@dataclass
class ReducedBackend:
    """Reduced-basis surrogate pricer (online solves only)."""

    variant: str  # ReducedAm | ReducedEu | DasReduced
    model: ReducedModel

    def __post_init__(self):
        style = VARIANTS[self.variant].style
        if self.model.style != style:
            raise ValueError(
                f"backend {self.variant} prices {style} puts; the basis is {self.model.style}"
            )

    def price_vector(self, theta, quotes, S0, r) -> np.ndarray:
        mu, nu0, strikes, maturities = _evaluation_inputs(theta, quotes, r)
        return price_at(solve_reduced(self.model, mu), S0, strikes, nu0, maturities)


class ClosedFormBackend:
    """Semi-closed-form European put pricer; one heston_put_cf call, and so
    one characteristic-function pass, prices every quote."""

    variant = "DasClosedForm"

    def price_vector(self, theta, quotes, S0, r) -> np.ndarray:
        mu, nu0, strikes, maturities = _evaluation_inputs(theta, quotes, r)
        return heston_put_cf(S0, strikes, maturities, mu, nu0)


@dataclass(frozen=True)
class Variant:
    """One calibration route: the backend class that prices it, the option
    style that backend solves for, and whether American quotes are
    de-Americanized before calibration."""

    backend: type
    style: str
    deamericanize: bool


#: Every calibration route by name; the CLI's --backend choices.
VARIANTS = {
    "DetailedAm": Variant(PdeBackend, "american", False),
    "DetailedEu": Variant(PdeBackend, "european", False),
    "ReducedAm": Variant(ReducedBackend, "american", False),
    "ReducedEu": Variant(ReducedBackend, "european", False),
    "DasPde": Variant(PdeBackend, "european", True),
    "DasReduced": Variant(ReducedBackend, "european", True),
    "DasClosedForm": Variant(ClosedFormBackend, "european", True),
}


def route_quotes(variant: str, quote_set: QuoteSet, tree_config: TreeConfig = TreeConfig()) -> QuoteSet:
    """The quotes VARIANTS[variant] fits.

    A de-Americanizing variant turns an all-American set into its
    pseudo-European quotes (dropping the non-invertible ones) and refuses a
    mixed-style set.  A quote of a style the variant does not price is an
    error.
    """
    v = VARIANTS[variant]
    styles = {q.style for q in quote_set}
    if v.deamericanize and "american" in styles:
        if styles != {"american"}:
            raise ValueError("mixed-style quote sets are not supported by the DAS backends")
        pseudo = deamericanize_set(quote_set.quotes, quote_set.S0, quote_set.r, tree_config)
        return quote_set.with_quotes(
            Quote(p.maturity, p.strike, "european", price=p.pseudo_price) for p in pseudo
        )
    wrong = sorted(styles - {v.style})
    if wrong:
        raise ValueError(f"backend {variant} fits {v.style} quotes; the quote set holds {wrong[0]} ones")
    return quote_set


def make_backend(variant: str, fem=None, model: ReducedModel | None = None):
    """The backend of VARIANTS[variant].

    fem() returns (space, blocks, grid) and is called only by the
    finite-element variants; model is the reduced variants' basis.
    """
    cls = VARIANTS[variant].backend
    if cls is PdeBackend:
        return PdeBackend(variant, *fem())
    if cls is ReducedBackend:
        if model is None:
            raise ValueError(f"backend {variant} requires a reduced basis (--basis)")
        return ReducedBackend(variant, model)
    return ClosedFormBackend()


# ---------------------------------------------------------------------------
# objective and finite differences


def objective(theta, quote_set, backend):
    """Mean squared pricing error and the raw residual vector.

    J = (1/M) sum (P_i_obs - P_i_model)^2.
    """
    observed = quote_set.prices()
    model = backend.price_vector(theta, quote_set.quotes, quote_set.S0, quote_set.r)
    residuals = observed - model
    J = float(residuals @ residuals) / residuals.size
    return J, residuals


def _fd_steps(theta, box: ParamBox):
    """Forward-difference steps, flipped one-sided at active upper bounds."""
    h = FD_SCALE * np.maximum(1.0, np.abs(theta))
    at_upper = theta + h > box.hi
    h[at_upper] = -h[at_upper]
    return h


def fd_jacobian(resid_fun, theta, r0, box: ParamBox, mask):
    """Forward-difference Jacobian of the residual vector at theta.

    The steps flip at box's upper bounds; mask marks the coordinates varied
    (frozen ones get a zero column, keeping indexing stable).  A probe that
    raises one of TRIAL_ERRORS is retried once at a tenth of the step; both
    calls count in the returned number of evaluations.
    """
    theta = np.asarray(theta, dtype=float)
    h = _fd_steps(theta, box)
    jac = np.zeros((r0.size, theta.size))
    n_evals = 0
    for i in range(theta.size):
        if not mask[i]:
            continue
        e = np.zeros_like(theta)
        e[i] = h[i]
        try:
            ri = resid_fun(theta + e)
        except TRIAL_ERRORS:
            n_evals += 1
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
    tol_step: float = TOL_STEP
    feller: bool = False
    fix_kappa: bool = False


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
    feasible.  A trial step whose evaluation raises one of TRIAL_ERRORS is
    rejected like one that raises the cost; it still counts in n_evals.
    """
    opt = options or OptimizerOptions()
    theta = clamp_to_box(np.asarray(x0, dtype=float), box)
    mask = np.ones(theta.size, dtype=bool)
    if opt.fix_kappa:
        mask[3] = False
    pen_weight = FELLER_WEIGHT0

    def full_resid(th, w):
        r = np.asarray(resid_fun(th), dtype=float)
        if opt.feller:
            r = np.append(r, _feller_residual(th, w))
        return r

    def cost(r):
        return float(r @ r) / r.size

    r = full_resid(theta, pen_weight)
    n_evals = 1
    J = cost(r)
    lam = LM_LAMBDA0
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
            # a frozen coordinate has a zero Jacobian column, hence a zero step
            damp = lam * np.diag(np.maximum(np.diag(jtj), 1e-12))
            delta = np.linalg.solve(jtj + damp, -jtr)
            theta_new = clamp_to_box(theta + delta, box)
            step = theta_new - theta
            step_norm = float(np.linalg.norm(step))
            n_evals += 1
            try:
                r_new = full_resid(theta_new, pen_weight)
            except TRIAL_ERRORS as exc:
                # a trial the backend cannot price is rejected like one
                # that raises the cost
                log.info("LM trial at %s rejected: %r", theta_new, exc)
            else:
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
            pen_weight *= FELLER_GROWTH
            # only the penalty entry depends on the weight: no re-pricing
            r = np.append(r[:-1], _feller_residual(theta, pen_weight))
            J = cost(r)
            continue  # objective changed; convergence checks are meaningless here
        if dj <= TOL_DJ:
            status = "converged_dj"
            break
        if step_norm <= opt.tol_step:
            status = "converged_step"
            break
    if opt.feller and feller_margin(theta[0], theta[2], theta[3]) < FELLER_EPS:
        status = "feller_infeasible"
    return theta, J, it, n_evals, status


def localized_box(pilot_theta, half_widths, pde_box: ParamBox, calib_box: ParamBox) -> ParamBox:
    """Training and calibration box of a refined basis: pilot +- half_widths
    in the PDE coordinates (xi, rho, gamma, kappa), clipped to both the
    global PDE box and the calibration box, so that a refined optimum stays
    a point of calib_box; the initial-variance axis is inherited from the
    calibration box because the PDE basis does not depend on nu0."""
    th = np.asarray(pilot_theta, dtype=float)
    hw = np.asarray(half_widths, dtype=float)
    if hw.shape != (4,):
        raise ValueError("half_widths must cover (xi, rho, gamma, kappa)")
    lo = np.max([pde_box.lo[:4], calib_box.lo[:4], th[:4] - hw], axis=0)
    hi = np.min([pde_box.hi[:4], calib_box.hi[:4], th[:4] + hw], axis=0)
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
    train_counts=(3, 3, 3, 3),
    greedy_config=None,
    x0=None,
    options=None,
    n_refine: int = 2,
):
    """Reduced-basis calibration with iterative training-box refinement.

    The pricing-error landscape has a nearly flat valley through the true
    parameters, so the O(1e-3) bias of a surrogate trained on the full
    parameter box displaces the surrogate's minimizer a long way along that
    valley. A pilot calibration against the global surrogate locates the
    valley; each refinement round then rebuilds the basis on a training grid
    localized around the current optimum — half-widths shrinking by
    REFINE_SHRINK per round, which shrinks the surrogate bias below the
    identifiable scale — and re-calibrates inside the localized box,
    warm-started.  Every round prices with ReducedAm, so pilot_model must be
    an American basis.

    space and grid must be the mesh and time grid pilot_model was built on,
    so that every refinement basis discretizes the pilot's problem; other
    node arrays or another grid raise ValueError (ReducedModel.check_discretization).

    Returns (report, refined_model, pilot_report) for the last round;
    report.time_preprocess accumulates the offline basis-construction time
    of all rounds, while time_calibrate is the online cost of the final
    optimization only.
    """
    from .rbm import GreedyConfig, make_training_grid, pod_angle_greedy_american

    if n_refine < 1:
        raise ValueError("n_refine must be at least 1")
    pilot_model.check_discretization(space, grid, "the pilot basis")
    pilot_backend = make_backend("ReducedAm", model=pilot_model)
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

        backend = make_backend("ReducedAm", model=refined)
        report = calibrate(
            quote_set,
            backend,
            local,
            x0=theta,
            options=options,
            time_preprocess=t_offline,
        )
        theta = report.theta_star
        hw = REFINE_SHRINK * hw
    return report, refined, pilot_report


def calibrate(quote_set, backend, box: ParamBox, x0=None, options=None, time_preprocess=0.0):
    """Full pipeline around one backend: optimize, then report residuals.

    quote_set holds the quotes the backend fits (route_quotes); the wall
    time of that step is passed through as the preprocessing phase.
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

    J_star, residuals = objective(theta, quote_set, backend)
    strikes, maturities = _strikes_and_maturities(quote_set)
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
        maturities=maturities,
        strikes=strikes,
        time_preprocess=time_preprocess,
        time_calibrate=t_calib,
        feller_active=opt.feller,
        feller_margin=feller_margin(theta[0], theta[2], theta[3]),
    )
