"""Semi-closed-form Heston European put pricer.

Uses the branch-cut-safe ("little trap") formulation of the characteristic
function (Albrecher et al. 2007) and Lewis's single-integral formula for the
put (Lewis 2001), whose integrand takes the characteristic function at
u - i/2 and decays as |phi| / (u^2 + 1/4).  The integral runs on one fixed
composite Gauss-Legendre grid of [0, 200] (4 panels of 128 nodes) built
once.  The characteristic function does not depend on the strike, and its
maturity-independent terms not on T, so one heston_cf call at every
maturity of a quote vector serves every quote.  The strike kernel
e^{-iu ln K} factors over the panels as e^{-i m_p ln K} e^{-i h x_j ln K}
(panel midpoint m_p, node offset h x_j), 4 + 128 exponentials per strike
instead of 512.
"""

from __future__ import annotations

import functools

import numpy as np

from .params import ModelParams


@functools.cache
def _grid(panels: int):
    """(mids, offsets, weights) of the composite Gauss-Legendre rule of 128
    nodes per panel on [0, 200]: node j of panel p is mids[p] + offsets[j],
    of weight weights[j].  Wide panels of many nodes, because the integrand's
    poles at u = +-i/2 slow the convergence of a narrow first panel.  Built on
    first use: leggauss's eigensolver alone adds about 1 MB of resident memory
    to a process that never prices with it."""
    x, w = np.polynomial.legendre.leggauss(128)
    edges = np.linspace(0.0, 200.0, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    return 0.5 * (edges[:-1] + edges[1:]), half * x, half * w


def _clog1p(z):
    """log(1 + z) for complex z, accurate for small |z|."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < 1e-4
    out = np.empty_like(z)
    zs = z[small]
    out[small] = zs * (1.0 - zs * (0.5 - zs / 3.0))
    out[~small] = np.log(1.0 + z[~small])
    return out


def heston_cf(u, T, mu: ModelParams, nu0: float, S0: float):
    """Characteristic function of log S_T, E[exp(i u log S_T)].

    T is a maturity or an array of them; the result has shape
    T.shape + u.shape, and the terms that do not depend on T are computed
    once.  Branch-safe formulation: the log argument (1 - g exp(-dT)) / (1 - g)
    with |g| <= 1 never crosses the negative real axis.
    """
    u = np.asarray(u, dtype=np.complex128)
    T = np.asarray(T, dtype=float)
    T = T.reshape(T.shape + (1,) * u.ndim)
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
    bad = ~np.isfinite(val)
    if bad.any():
        T_bad = float(np.broadcast_to(T, val.shape)[bad][0])
        raise FloatingPointError(
            f"characteristic function overflow at T={T_bad}, mu={mu}, nu0={nu0}"
        )
    return val


def _put(S0, K, T, mu, nu0, mids, offsets, weights):
    """European puts of the quotes (K, T) on the panel rule (mids, offsets,
    weights) of _grid, by Lewis's formula

        P = K e^{-rT} - (sqrt(K) e^{-rT} / pi)
            int_0^inf Re[e^{-iu ln K} heston_cf(u - i/2)] / (u^2 + 1/4) du.

    At u - i/2, d^2 - beta^2 = xi^2 (u^2 + 1/4) > 0, so beta + d never
    vanishes, as it does at u = -i when kappa < rho xi.  K and T broadcast;
    one heston_cf call serves every maturity.
    """
    K, T = np.broadcast_arrays(np.asarray(K, dtype=float), np.asarray(T, dtype=float))
    shape, K, T = K.shape, K.ravel(), T.ravel()
    u = (mids[:, None] + offsets).ravel()
    maturities, group = np.unique(T, return_inverse=True)
    # (maturity, node) integrands without the strike kernel
    f = heston_cf(u - 0.5j, maturities, mu, nu0, S0)
    f *= np.tile(weights, mids.size) / (u * u + 0.25)
    log_k = np.log(K)
    panel = np.exp(-1j * np.multiply.outer(log_k, mids))
    node = np.exp(-1j * np.multiply.outer(log_k, offsets))
    integral = np.empty(K.size)
    for g in range(maturities.size):
        at = np.flatnonzero(group == g)
        kernel = (panel[at, :, None] * node[at, None, :]).reshape(at.size, u.size)
        # a row sum, unlike a matrix product, rounds alike for one or many strikes
        integral[at] = (kernel * f[g]).real.sum(axis=-1)
    return (np.exp(-mu.r * T) * (K - np.sqrt(K) / np.pi * integral)).reshape(shape)


def heston_put_cf(S0: float, K, T, mu: ModelParams, nu0: float):
    """European put prices of the quotes (K, T) from one heston_cf call.

    K and T broadcast as in solvers.price_at; scalars give a float, else an
    array of the broadcast shape."""
    put = _put(S0, K, T, mu, nu0, *_grid(4))
    return float(put) if put.ndim == 0 else put
