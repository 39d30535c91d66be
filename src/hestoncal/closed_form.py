"""Semi-closed-form Heston European put pricer.

Uses the branch-cut-safe ("little trap") formulation of the characteristic
function (Albrecher et al. 2007) and Lewis's single-integral formula for the
put (Lewis 2001), whose integrand takes the characteristic function at
u - i/2 and decays as |phi| / (u^2 + 1/4).  The integral runs on one fixed
graded Gauss-Legendre rule of [0, 200] (248 nodes on 5 panels, narrow next
to u = 0) built once.  The characteristic function does not depend on the
strike, and its maturity-independent terms not on T, so one heston_cf call
at every maturity of a quote vector serves every quote.  Nothing on the
strike side depends on the parameters: the kernel e^{-iu ln K} with the
weights and 1/(u^2 + 1/4) folded in is built once per quote set and cached,
and an evaluation reduces it against the heston_cf pass in real arithmetic.
The complex log of heston_cf is real arithmetic too, log1p and atan2."""

from __future__ import annotations

import functools

import numpy as np

from .params import ModelParams


#: Panel edges of the rule on [0, 200] and the Gauss-Legendre nodes of each panel.
_EDGES = (0.0, 2.0, 10.0, 40.0, 100.0, 200.0)
_NODES = (24, 24, 48, 64, 88)


@functools.cache
def _rule():
    """(nodes, weights) of the composite Gauss-Legendre rule on [0, 200]
    whose panels run between _EDGES with _NODES nodes each.  A panel's rule
    converges at a rate set by the distance of the integrand's nearest
    singularity relative to the panel's width.  The poles at u = +-i/2 lie
    half a unit from the end u = 0, so the panels start narrow there and
    widen geometrically, and each needs few nodes (Trefethen, SIAM Review
    2008); further out each panel has the nodes the oscillation of
    e^{-iu ln(K/S0)} needs for K/S0 from 0.1 to 10.  Built on first use, so
    a process that never prices runs no leggauss eigensolve; read-only, as
    every caller shares it."""
    u, w = [], []
    for a, b, n in zip(_EDGES[:-1], _EDGES[1:], _NODES):
        x, wx = np.polynomial.legendre.leggauss(n)
        u.append(0.5 * (a + b) + 0.5 * (b - a) * x)
        w.append(0.5 * (b - a) * wx)
    out = np.concatenate(u), np.concatenate(w)
    for a in out:
        a.flags.writeable = False
    return out


def _clog1p(z):
    """log(1 + z) for complex z in real arithmetic, z = x + iy:
    (1/2) log1p(t) + i atan2(y, 1 + x), t = x (2 + x) + y^2 = |1 + z|^2 - 1.

    Where |t| > 3/4 the real part is log|1 + z| from hypot instead: t loses
    its relative accuracy as |1 + z| -> 0 and overflows near |z| = 1e154, and
    hypot does neither.  A zero imaginary part keeps its sign, so z < -1
    maps to either side of the cut.
    """
    x, y = z.real, z.imag
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t = x * (2.0 + x) + y * y
        re = 0.5 * np.log1p(t)
    far = ~(np.abs(t) <= 0.75)
    if far.any():
        re = np.where(far, np.log(np.hypot(1.0 + x, y)), re)
    return re + 1j * np.arctan2(y, 1.0 + x)


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


@functools.lru_cache(maxsize=1)
def _strike_side(K: bytes, T: bytes):
    """The parameter-free side of Lewis's integral on _rule for the quotes
    (K, T), given as the bytes of float64 arrays: (nodes u - i/2, unique
    maturities, each quote's index into them, kernel), read-only.

    Row q of the kernel interleaves w_j cos(u_j ln K_q) / (u_j^2 + 1/4) and
    w_j sin(u_j ln K_q) / (u_j^2 + 1/4), so that its dot product with the
    float64 view of a heston_cf row is the quadrature of
    int_0^inf Re[e^{-iu ln K_q} heston_cf(u - i/2)] / (u^2 + 1/4) du.  A
    calibration prices one quote vector many times, so the one cached entry
    serves every evaluation after the first; K and T are checked here once.
    """
    K, T = np.frombuffer(K), np.frombuffer(T)
    if not (np.all((0.0 < K) & (K < np.inf)) and np.all((0.0 < T) & (T < np.inf))):
        raise ValueError("K and T must be positive and finite")
    u, w = _rule()
    phase = np.multiply.outer(np.log(K), u)
    kernel = np.empty(phase.shape + (2,))
    np.cos(phase, out=kernel[..., 0])
    np.sin(phase, out=kernel[..., 1])
    kernel *= (w / (u * u + 0.25))[:, None]
    kernel = kernel.reshape(K.size, 2 * u.size)
    maturities, group = np.unique(T, return_inverse=True)
    out = (u - 0.5j, maturities, group, kernel)
    for a in out:
        a.flags.writeable = False
    return out


def heston_put_cf(S0: float, K, T, mu: ModelParams, nu0: float) -> np.ndarray:
    """European put prices of the quotes (K, T) on _rule, by Lewis's formula

        P = K e^{-rT} - (sqrt(K) e^{-rT} / pi)
            int_0^inf Re[e^{-iu ln K} heston_cf(u - i/2)] / (u^2 + 1/4) du.

    At u - i/2, d^2 - beta^2 = xi^2 (u^2 + 1/4) > 0, so beta + d never
    vanishes, as it does at u = -i when kappa < rho xi.  K and T broadcast
    as in solvers.price_at, and the result is an array of the broadcast
    shape (0-d for a scalar K and T).  S0, K and T must be positive and
    finite.  The strike kernel comes from _strike_side, built once per
    quote set; an evaluation is one heston_cf call at every maturity and
    one real dot product per quote, a row reduction that rounds alike in
    any batch.
    """
    if not 0.0 < S0 < np.inf:
        raise ValueError("S0 must be positive and finite")
    K, T = np.broadcast_arrays(np.asarray(K, dtype=float), np.asarray(T, dtype=float))
    shape, K, T = K.shape, K.ravel(), T.ravel()
    nodes, maturities, group, kernel = _strike_side(K.tobytes(), T.tobytes())
    f = heston_cf(nodes, maturities, mu, nu0, S0)
    integral = np.einsum("ij,ij->i", kernel, f.view(np.float64)[group])
    return (np.exp(-mu.r * T) * (K - np.sqrt(K) / np.pi * integral)).reshape(shape)
