"""Semi-closed-form Heston European put pricer.

Uses the branch-cut-safe ("little trap") formulation of the characteristic
function and the two-probability representation of the call, with the put
recovered by put-call parity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ModelParams


@dataclass(frozen=True)
class IntegrationConfig:
    """Fourier integral settings: truncation bound and panel refinement."""

    bound: float = 200.0
    nodes: int = 64  # Gauss-Legendre nodes per panel
    tol: float = 1e-10
    max_doublings: int = 10

    def __post_init__(self):
        if self.bound <= 0:
            raise ValueError("truncation bound must be positive")
        if self.nodes < 32:
            raise ValueError("need at least 32 quadrature nodes")


DEFAULT_INTEGRATION = IntegrationConfig()


def _clog1p(z):
    """log(1 + z) for complex z, accurate for small |z|."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < 1e-4
    out = np.empty_like(z)
    zs = z[small]
    out[small] = zs * (1.0 - zs * (0.5 - zs / 3.0))
    out[~small] = np.log(1.0 + z[~small])
    return out


def heston_cf(u, T: float, mu: ModelParams, nu0: float, S0: float):
    """Characteristic function of log S_T, E[exp(i u log S_T)].

    Branch-safe formulation: the log argument (1 - g exp(-dT)) / (1 - g)
    with |g| <= 1 never crosses the negative real axis.
    """
    u = np.asarray(u, dtype=np.complex128)
    xi, rho, gamma, kappa, r = mu.xi, mu.rho, mu.gamma, mu.kappa, mu.r
    i = 1j
    a = kappa * gamma
    b = kappa
    beta = b - rho * xi * i * u
    d = np.sqrt(beta * beta + xi * xi * (i * u + u * u))
    # beta - d rationalized to avoid cancellation for small xi
    beta_minus_d = -xi * xi * (i * u + u * u) / (beta + d)
    g = beta_minus_d / (beta + d)
    exp_dt = np.exp(-d * T)
    # log((1 - g e^{-dT}) / (1 - g)) = log1p(g (1 - e^{-dT}) / (1 - g))
    log_term = _clog1p(g * (1.0 - exp_dt) / (1.0 - g))
    C = r * i * u * T + (a / (xi * xi)) * (beta_minus_d * T - 2.0 * log_term)
    D = beta_minus_d / (xi * xi) * (1.0 - exp_dt) / (1.0 - g * exp_dt)
    val = np.exp(i * u * np.log(S0) + C + D * nu0)
    if not np.all(np.isfinite(val)):
        raise FloatingPointError(
            f"characteristic function overflow at T={T}, mu={mu}, nu0={nu0}"
        )
    return val


def _probability(j: int, S0, K, T, mu, nu0, config) -> float:
    """P_j = 1/2 + (1/pi) int_0^inf Re[e^{-iu ln K} f_j(u) / (iu)] du."""
    lnK = np.log(K)

    if j == 1:
        # f(-i) = E[S_T] = S0 e^{rT}; heston_cf itself is 0/0 there when
        # kappa < rho xi, because beta + d vanishes
        denom = S0 * np.exp(mu.r * T)

        def fj(u):
            return heston_cf(u - 1j, T, mu, nu0, S0) / denom

    else:

        def fj(u):
            return heston_cf(u, T, mu, nu0, S0)

    def integrand(u):
        return (np.exp(-1j * u * lnK) * fj(u) / (1j * u)).real

    gl_x, gl_w = np.polynomial.legendre.leggauss(config.nodes)
    value = None
    prev_diff = np.inf
    stagnant = 0
    panels = 1
    for _ in range(config.max_doublings + 1):
        edges = np.linspace(0.0, config.bound, panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        pts = (mids[:, None] + half * gl_x[None, :]).ravel()
        est = half * float(integrand(pts) @ np.tile(gl_w, panels))
        if value is not None:
            diff = abs(est - value)
            if diff < config.tol:
                return 0.5 + est / np.pi
            # refinement stalled at the round-off floor of the integrand
            stagnant = stagnant + 1 if diff >= 0.5 * prev_diff else 0
            if stagnant >= 2 and diff < 1e-6:
                return 0.5 + est / np.pi
            prev_diff = diff
        value = est
        panels *= 2
    raise RuntimeError("Fourier quadrature did not converge")


def heston_call_cf(
    S0: float,
    K: float,
    T: float,
    mu: ModelParams,
    nu0: float,
    config: IntegrationConfig = DEFAULT_INTEGRATION,
) -> float:
    """European call price S0 P1 - K e^{-rT} P2."""
    p1 = _probability(1, S0, K, T, mu, nu0, config)
    p2 = _probability(2, S0, K, T, mu, nu0, config)
    return S0 * p1 - K * np.exp(-mu.r * T) * p2


def heston_put_cf(
    S0: float,
    K: float,
    T: float,
    mu: ModelParams,
    nu0: float,
    config: IntegrationConfig = DEFAULT_INTEGRATION,
) -> float:
    """European put price via the call representation and put-call parity."""
    call = heston_call_cf(S0, K, T, mu, nu0, config)
    return call - S0 + K * np.exp(-mu.r * T)
