"""Semi-closed-form Heston European put pricer.

Uses the branch-cut-safe ("little trap") formulation of the characteristic
function (Albrecher et al. 2007) and the two-probability representation of
the call, with the put recovered by put-call parity.  Both probability
integrals run on one fixed composite Gauss-Legendre grid of [0, 200]
(8 panels of 64 nodes) built once.  The characteristic function does not
depend on the strike, so a single heston_cf call on [u - i, u] serves P1, P2
and every strike of one maturity.
"""

from __future__ import annotations

import functools

import numpy as np

from .params import ModelParams


@functools.cache
def _grid(panels: int):
    """Nodes and weights of the composite Gauss-Legendre rule of 64 nodes per
    panel on [0, 200].  Built on first use: leggauss's eigensolver alone adds
    about 1 MB of resident memory to a process that never prices with it."""
    x, w = np.polynomial.legendre.leggauss(64)
    edges = np.linspace(0.0, 200.0, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    return (mids[:, None] + half * x[None, :]).ravel(), half * np.tile(w, panels)


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


def _put(S0, K, T, mu, nu0, u, w):
    """European put at the strikes K from the quadrature nodes u, weights w.

    P_j = 1/2 + (1/pi) int_0^inf Re[e^{-iu ln K} f_j(u) / (iu)] du with
    f_2 = heston_cf(u) and f_1 = heston_cf(u - i) / (S0 e^{rT}); the exact
    normalizer E[S_T] avoids heston_cf(-i), which is 0/0 when kappa < rho xi.
    """
    K = np.asarray(K, dtype=float)
    f = heston_cf(np.concatenate([u - 1j, u]), T, mu, nu0, S0)
    f1 = f[: u.size] / (S0 * np.exp(mu.r * T))
    f2 = f[u.size :]
    kernel = np.exp(-1j * np.multiply.outer(np.log(K), u)) / (1j * u)
    # a row sum, unlike a matrix product, rounds alike for one or many strikes
    p1 = 0.5 + ((kernel * f1).real * w).sum(axis=-1) / np.pi
    p2 = 0.5 + ((kernel * f2).real * w).sum(axis=-1) / np.pi
    disc_K = K * np.exp(-mu.r * T)
    return S0 * p1 - disc_K * p2 - S0 + disc_K


def heston_put_cf(S0: float, K: float | np.ndarray, T: float, mu: ModelParams, nu0: float):
    """European put price at one strike (a float) or an array of strikes
    (an array of the same shape), all of maturity T."""
    put = _put(S0, K, T, mu, nu0, *_grid(8))
    return float(put) if put.ndim == 0 else put
