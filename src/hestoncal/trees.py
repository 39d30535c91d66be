"""De-Americanization: per-quote CRR binomial trees.

Each observed American put price is matched by a flat-volatility CRR tree
(bisection on sigma); the calibrated tree then prices the pseudo-European
put with the same strike and maturity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TreeConfig:
    steps: int = 500
    sigma_lo: float = 1e-4
    sigma_hi: float = 5.0
    price_tol: float = 1e-8

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("need at least one tree step")
        if not 0 < self.sigma_lo < self.sigma_hi:
            raise ValueError("volatility bracket must be nonempty and positive")


@dataclass(frozen=True)
class PseudoQuote:
    """A de-Americanized observation."""

    maturity: float
    strike: float
    observed_price: float
    sigma_star: float
    pseudo_price: float
    invertible: bool = True


def crr_price(
    S0: float,
    K: float,
    T: float,
    r: float,
    sigma: float,
    steps: int,
    style: str = "european",
) -> float:
    """CRR lattice put price with u = exp(sigma sqrt(dt)), d = 1/u.

    American style applies the intrinsic-value maximum at every node.
    """
    if min(S0, K, T, sigma) <= 0:
        raise ValueError("S0, K, T and sigma must be positive")
    dt = T / steps
    u = np.exp(sigma * np.sqrt(dt))
    d = 1.0 / u
    disc = np.exp(-r * dt)
    p = (np.exp(r * dt) - d) / (u - d)
    if not 0.0 < p < 1.0:
        raise ValueError(
            f"risk-neutral probability {p:.4g} outside (0,1); "
            "increase sigma or the number of steps"
        )
    # every node price S0 u^m, m = -steps..steps; level n holds m = -n, -n+2, ..., n
    s = S0 * u ** np.arange(-steps, steps + 1.0)
    values = np.maximum(K - s[::2], 0.0)
    american = style == "american"
    for n in range(steps - 1, -1, -1):
        values = disc * (p * values[1 : n + 2] + (1.0 - p) * values[: n + 1])
        if american:
            np.maximum(values, K - s[steps - n : steps + n + 1 : 2], out=values)
    return float(values[0])


def invert_volatility(
    observed_price: float,
    S0: float,
    K: float,
    T: float,
    r: float,
    config: TreeConfig = TreeConfig(),
) -> tuple[float, bool]:
    """Bisection for the flat volatility whose American tree price matches.

    Returns (sigma_star, invertible).  Prices at or below the intrinsic
    floor, above the strike, or outside the bracket's attainable range are
    flagged non-invertible (the deep-ITM zero-time-value case degenerates to
    sigma_lo).
    """
    intrinsic = max(K - S0, 0.0)
    if observed_price > K or observed_price < intrinsic:
        return np.nan, False
    # the CRR probability needs sigma > r sqrt(dt); lift the bracket edge
    sigma_floor = 1.000001 * r * np.sqrt(T / config.steps)
    lo, hi = max(config.sigma_lo, sigma_floor), config.sigma_hi
    p_lo = crr_price(S0, K, T, r, lo, config.steps, "american")
    p_hi = crr_price(S0, K, T, r, hi, config.steps, "american")
    if observed_price <= p_lo:
        # zero time value; degenerate but representable at the bracket edge
        return lo, abs(observed_price - p_lo) <= max(config.price_tol, 1e-6 * K)
    if observed_price > p_hi:
        return np.nan, False
    # American tree price is monotone increasing in sigma
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        p_mid = crr_price(S0, K, T, r, mid, config.steps, "american")
        if abs(p_mid - observed_price) < config.price_tol:
            return mid, True
        if p_mid < observed_price:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi), True


def deamericanize_quote(
    maturity: float,
    strike: float,
    observed_price: float,
    S0: float,
    r: float,
    config: TreeConfig = TreeConfig(),
) -> PseudoQuote:
    sigma, ok = invert_volatility(observed_price, S0, strike, maturity, r, config)
    if not ok:
        return PseudoQuote(maturity, strike, observed_price, np.nan, np.nan, False)
    pseudo = crr_price(S0, strike, maturity, r, sigma, config.steps, "european")
    return PseudoQuote(maturity, strike, observed_price, sigma, pseudo, True)


def deamericanize_set(quotes, S0: float, r: float, config: TreeConfig = TreeConfig()):
    """Transform a list of (maturity, strike, price) American observations.

    Non-invertible quotes are dropped with a log entry; raises if nothing
    survives.  Output order follows the input order.
    """
    out = []
    for q in quotes:
        pq = deamericanize_quote(q.maturity, q.strike, q.price, S0, r, config)
        if pq.invertible:
            out.append(pq)
        else:
            log.warning(
                "dropping non-invertible quote T=%g K=%g price=%g",
                q.maturity,
                q.strike,
                q.price,
            )
    if not out:
        raise ValueError("no quote survived the de-Americanization transform")
    return out
