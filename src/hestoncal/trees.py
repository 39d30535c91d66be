"""De-Americanization: CRR binomial trees, a quote set at a time.

Each observed American put price is matched by a flat-volatility CRR tree;
the calibrated tree then prices the pseudo-European put with the same
strike and maturity.  A tree is array-valued: one backward induction prices
every row (own strike, maturity and volatility) of a quote set.  The
volatility inversions of all rows advance in lockstep, one batched tree per
step of a bracketed Illinois regula falsi (Dowell & Jarratt, BIT 1971).
Rows never interact, so a quote's result does not depend on its batch.
deamericanize_set is the one transform of a quote list.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

# root-finder steps after which a row still unmatched is non-invertible
_MAX_ITER = 200
# volatility bracket of the inversion and its price tolerance
SIGMA_LO = 1e-4
SIGMA_HI = 5.0
PRICE_TOL = 1e-8


@dataclass(frozen=True)
class TreeConfig:
    steps: int = 500

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("need at least one tree step")


@dataclass(frozen=True)
class PseudoQuote:
    """A de-Americanized observation."""

    maturity: float
    strike: float
    observed_price: float
    sigma_star: float
    pseudo_price: float


def _rows(*args):
    """(is_scalar, equal-length float rows) of scalar or array arguments."""
    scalar = all(np.ndim(a) == 0 for a in args)
    return scalar, np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, dtype=float)) for a in args))


def crr_price(
    S0: float,
    K,
    T,
    r: float,
    sigma,
    steps: int,
    style: str = "european",
):
    """CRR lattice put prices with u = exp(sigma sqrt(dt)), d = 1/u.

    K, T and sigma are scalars or equal-length arrays, one row per option,
    and each row has its own dt, u, p and discount.  Returns a float when all
    three are scalars, else an array.  American style applies the
    intrinsic-value maximum at every node.
    """
    scalar, (K, T, sigma) = _rows(K, T, sigma)
    if not (S0 > 0 and np.all(K > 0) and np.all(T > 0) and np.all(sigma > 0)):
        raise ValueError("S0, K, T and sigma must be positive")
    dt = (T / steps)[:, None]
    u = np.exp(sigma[:, None] * np.sqrt(dt))
    d = 1.0 / u
    p = (np.exp(r * dt) - d) / (u - d)
    bad = ~((0.0 < p) & (p < 1.0))
    if bad.any():
        raise ValueError(
            f"risk-neutral probability {p[bad][0]:.4g} outside (0,1); "
            "increase sigma or the number of steps"
        )
    disc = np.exp(-r * dt)
    up, down = disc * p, disc * (1.0 - p)
    # exercise values at every node price S0 u^m, m = -steps..steps; level n
    # holds m = -n, -n+2, ..., n, a contiguous run of one parity class of m
    exercise = K[:, None] - S0 * u ** np.arange(-steps, steps + 1.0)
    by_parity = (exercise[:, 0::2].copy(), exercise[:, 1::2].copy())
    values = np.maximum(by_parity[0], 0.0)
    scratch = np.empty_like(values)
    american = style == "american"
    for n in range(steps - 1, -1, -1):
        np.multiply(values[:, 1 : n + 2], up, out=scratch[:, : n + 1])
        values = values[:, : n + 1]
        values *= down
        values += scratch[:, : n + 1]
        if american:
            j = steps - n  # position of m = -n among all node prices
            np.maximum(values, by_parity[j % 2][:, j // 2 : j // 2 + n + 1], out=values)
    return float(values[0, 0]) if scalar else values[:, 0].copy()


def invert_volatility(
    observed_price,
    S0: float,
    K,
    T,
    r: float,
    config: TreeConfig = TreeConfig(),
):
    """Flat volatilities whose American tree prices match, found in lockstep.

    observed_price, K and T are scalars or equal-length arrays.  Each row's
    root is bracketed by [max(SIGMA_LO, r sqrt(dt)), SIGMA_HI] and found by
    Illinois regula falsi; every step prices all unfinished rows in one
    batched tree, and a row finishes once its price is within PRICE_TOL or
    its bracket is narrower than 1e-14.

    Returns (sigma_star, invertible), floats for scalar input.  Prices at or
    below the intrinsic floor, above the strike, above the SIGMA_HI tree, or
    still unmatched after _MAX_ITER steps are flagged non-invertible (the
    deep-ITM zero-time-value case degenerates to the lower bracket edge).
    """
    scalar, (obs, K, T) = _rows(observed_price, K, T)
    sigma = np.full(obs.shape, np.nan)
    ok = np.zeros(obs.shape, dtype=bool)
    # the CRR probability needs sigma > r sqrt(dt); lift the bracket edge
    lo = np.maximum(SIGMA_LO, 1.000001 * r * np.sqrt(T / config.steps))
    rows = np.flatnonzero((obs <= K) & (obs >= np.maximum(K - S0, 0.0)))
    a, b = lo[rows], np.full(rows.size, SIGMA_HI)
    fa = crr_price(S0, K[rows], T[rows], r, a, config.steps, "american") - obs[rows]
    fb = crr_price(S0, K[rows], T[rows], r, b, config.steps, "american") - obs[rows]
    # zero time value; degenerate but representable at the bracket edge
    edge = fa >= 0
    sigma[rows[edge]] = a[edge]
    ok[rows[edge]] = np.abs(fa[edge]) <= np.maximum(PRICE_TOL, 1e-6 * K[rows[edge]])
    # the American tree price increases with sigma: fa < 0 <= fb brackets a root
    keep = ~edge & (fb >= 0)
    rows, a, b, fa, fb = rows[keep], a[keep], b[keep], fa[keep], fb[keep]
    side = np.zeros(rows.size)  # which end moved last: -1 lower, +1 upper
    for _ in range(_MAX_ITER):
        if not rows.size:
            break
        c = b - fb * (b - a) / (fb - fa)
        fc = crr_price(S0, K[rows], T[rows], r, c, config.steps, "american") - obs[rows]
        hit = np.abs(fc) < PRICE_TOL
        low = fc < 0
        # Illinois: an end kept twice in a row has its value halved
        fb[low & (side < 0)] *= 0.5
        fa[~low & (side > 0)] *= 0.5
        a[low], fa[low] = c[low], fc[low]
        b[~low], fb[~low] = c[~low], fc[~low]
        side = np.where(low, -1.0, 1.0)
        narrow = ~hit & (b - a < 1e-14)
        sigma[rows[hit]] = c[hit]
        sigma[rows[narrow]] = 0.5 * (a[narrow] + b[narrow])
        ok[rows[hit | narrow]] = True
        keep = ~(hit | narrow)
        rows, a, b, fa, fb, side = rows[keep], a[keep], b[keep], fa[keep], fb[keep], side[keep]
    if scalar:
        return float(sigma[0]), bool(ok[0])
    return sigma, ok


def deamericanize_set(quotes, S0: float, r: float, config: TreeConfig = TreeConfig()):
    """Transform a list of American quotes, each priced at its mid.

    All quotes are inverted together and the survivors priced by one
    European tree.  Non-invertible quotes are dropped with a log entry;
    raises if nothing survives.  Output order follows the input order.
    """
    quotes = list(quotes)
    T, K, obs = np.array([(q.maturity, q.strike, q.mid) for q in quotes], dtype=float).T
    sigma, ok = invert_volatility(obs, S0, K, T, r, config)
    for q, good in zip(quotes, ok):
        if not good:
            log.warning("dropping non-invertible quote T=%g K=%g price=%g", q.maturity, q.strike, q.mid)
    if not ok.any():
        raise ValueError("no quote survived the de-Americanization transform")
    pseudo = crr_price(S0, K[ok], T[ok], r, sigma[ok], config.steps, "european")
    return [
        PseudoQuote(float(t), float(k), float(o), float(s), float(v))
        for t, k, o, s, v in zip(T[ok], K[ok], obs[ok], sigma[ok], pseudo)
    ]
