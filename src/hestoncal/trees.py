"""De-Americanization: CRR binomial trees, a quote set at a time.

Each observed American put price is matched by a flat-volatility CRR tree;
the calibrated tree then prices the pseudo-European put with the same
strike and maturity.  A tree is array-valued: one backward induction prices
every row (own strike, maturity and volatility) of a quote set.  Its
lattice is node-major, shape (node, row): each level is four whole-array
operations, each one contiguous loop over the level's nodes and rows.  A
row-major lattice runs each of them as one strided loop per row, and took
2.5 to 3 times as long for 10 to 401 rows (one x86_64 core).  The
volatility inversions of all rows advance in lockstep, one batched tree per
step of a bracketed Illinois regula falsi (Dowell & Jarratt, BIT 1971).
Each row's bracket starts near its root, from the Black-Scholes implied
volatility of its observed price read as a European price and a doubled
Newton step from it, down or up; a row both trials miss is widened to the
full volatility bracket.  Rows never interact, so
a quote's result does not depend on its batch.
deamericanize_set is the one transform of a quote list.
"""

from __future__ import annotations

import logging
import math
import operator
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
        try:
            steps = operator.index(self.steps)
        except TypeError:
            raise ValueError(f"tree steps must be an integer, got {self.steps!r}") from None
        if steps < 1:
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
    """Equal-length float rows of scalar or array arguments."""
    return np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, dtype=float)) for a in args))


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
    and each row has its own dt, u, p and discount.  Returns an array with
    one price per row, a scalar argument counting as one row.  American
    style applies the intrinsic-value maximum at every node; style is
    "american" or "european".

    The lattice is stored node-major, shape (node, row), so each level's
    multiply, scale, add and maximum run over one contiguous leading slice
    of the arrays, not over a strided segment per row, and the branch
    weights are full (step, row) arrays so that no operand broadcasts.
    """
    if style not in ("american", "european"):
        raise ValueError(f"unknown style {style!r}")
    K, T, sigma = _rows(K, T, sigma)
    if not (S0 > 0 and np.all(K > 0) and np.all(T > 0) and np.all(sigma > 0)):
        raise ValueError("S0, K, T and sigma must be positive")
    dt = T / steps
    u = np.exp(sigma * np.sqrt(dt))
    d = 1.0 / u
    p = (np.exp(r * dt) - d) / (u - d)
    bad = ~((0.0 < p) & (p < 1.0))
    if bad.any():
        raise ValueError(
            f"risk-neutral probability {p[bad][0]:.4g} outside (0,1); "
            "increase sigma or the number of steps"
        )
    disc = np.exp(-r * dt)
    up = np.tile(disc * p, (steps, 1))
    down = np.tile(disc * (1.0 - p), (steps, 1))
    # exercise values at every node price S0 u^m, m = -steps..steps; level n
    # holds m = -n, -n+2, ..., n, a contiguous run of one parity class of m.
    # They are computed whole: powers taken per parity class round some u^m
    # differently (seen at steps 1 and 2)
    exercise = K - S0 * u ** np.arange(-steps, steps + 1.0)[:, None]
    by_parity = (exercise[0::2].copy(), exercise[1::2].copy())
    values = np.maximum(by_parity[0], 0.0)
    scratch = np.empty_like(values)
    american = style == "american"
    for n in range(steps - 1, -1, -1):
        np.multiply(values[1 : n + 2], up[: n + 1], out=scratch[: n + 1])
        values = values[: n + 1]
        values *= down[: n + 1]
        values += scratch[: n + 1]
        if american:
            j = steps - n  # position of m = -n among all node prices
            np.maximum(values, by_parity[j % 2][j // 2 : j // 2 + n + 1], out=values)
    return values[0].copy()


def _bs_put_implied_volatility(price: float, S0: float, K: float, T: float, r: float):
    """(sigma, vega) of the Black-Scholes put worth `price`, or (nan, nan).

    Newton's method from the inflection point of the price in sigma (at
    least 0.1), which converges monotonically (Manaster & Koehler, J. Finance
    1982), kept inside a bisection bracket.  A price outside the open no-arbitrage
    interval ((K e^{-rT} - S0)^+, K e^{-rT}) has no root; nor, here, has one
    the iteration does not match to 1e-13 K e^{-rT} at positive vega.
    """
    k = K * math.exp(-r * T)
    if not max(k - S0, 0.0) < price < k:
        return math.nan, math.nan
    sqrt_t, log_m = math.sqrt(T), math.log(S0 / k)
    lo, hi = 0.0, math.inf
    sigma = max(math.sqrt(2.0 * abs(log_m) / T), 0.1)
    for _ in range(100):
        d1 = log_m / (sigma * sqrt_t) + 0.5 * sigma * sqrt_t
        d2 = d1 - sigma * sqrt_t
        diff = k * 0.5 * math.erfc(d2 / math.sqrt(2.0)) - S0 * 0.5 * math.erfc(d1 / math.sqrt(2.0)) - price
        vega = S0 * sqrt_t * math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
        if abs(diff) <= 1e-13 * k and vega > 0:
            return sigma, vega
        lo, hi = (sigma, hi) if diff < 0 else (lo, sigma)
        step = sigma - diff / vega if vega > 0 else math.nan
        sigma = step if lo < step < hi else (2.0 * sigma if hi == math.inf else 0.5 * (lo + hi))
    return math.nan, math.nan


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
    root lies in [lo, SIGMA_HI], lo = max(SIGMA_LO, |r| sqrt(dt)), and is
    found by Illinois regula falsi; every step prices all unfinished rows in
    one batched tree, and a row finishes once its price is within PRICE_TOL
    or its bracket is narrower than 1e-14.

    The bracket starts near the root, from the Black-Scholes implied
    volatility sigma_E of the observed price: an American price is at least
    the European one, so the root mostly lies below sigma_E, up to the
    tree's error.  The second trial is a doubled Newton step from there,
    sigma_E - 2 (P_tree(sigma_E) - price) / vega_BS(sigma_E): down where the
    tree price at sigma_E is above the observed one, and up, mirrored,
    where it is below.  Both are clipped into [lo, SIGMA_HI], the step taken
    from the clipped sigma_E, and priced in one batched tree per trial.  A
    row with no Black-Scholes root starts from [lo, SIGMA_HI], and a row
    whose two trials both miss its root is widened to lo or SIGMA_HI and
    re-priced there.

    Returns the arrays (sigma_star, invertible).  Prices at or below the
    intrinsic floor, above the strike, above the SIGMA_HI tree, or still
    unmatched after _MAX_ITER steps are flagged non-invertible (the
    deep-ITM zero-time-value case degenerates to the lower bracket edge).
    """
    obs, K, T = _rows(observed_price, K, T)
    sigma = np.full(obs.shape, np.nan)
    ok = np.zeros(obs.shape, dtype=bool)
    rows = np.flatnonzero((obs <= K) & (obs >= np.maximum(K - S0, 0.0)))
    # the CRR probability needs sigma > |r| sqrt(dt); lift the bracket edge
    lo = np.maximum(SIGMA_LO, 1.000001 * abs(r) * np.sqrt(T[rows] / config.steps))

    def excess(i, s):
        """American tree prices of rows i at volatilities s, minus the observed prices."""
        if not i.size:
            return np.zeros(0)
        return crr_price(S0, K[i], T[i], r, s, config.steps, "american") - obs[i]

    guess, vega = np.array(
        [_bs_put_implied_volatility(obs[i], S0, K[i], T[i], r) for i in rows]
    ).reshape(-1, 2).T
    b = np.clip(np.where(np.isnan(guess), SIGMA_HI, guess), lo, SIGMA_HI)
    fb = excess(rows, b)
    # the second trial: a doubled Newton step from b, downward where the tree
    # price at b is above the observed one, mirrored upward where it is below
    c = np.where(np.isnan(guess), lo, np.clip(b - 2.0 * fb / vega, lo, SIGMA_HI))
    fc = fb.copy()
    apart = c != b
    fc[apart] = excess(rows[apart], c[apart])
    high = c > b
    a, fa = np.where(high, b, c), np.where(high, fb, fc)
    b, fb = np.where(high, c, b), np.where(high, fc, fb)
    # a start whose trials both miss its root is widened to the bracket edge on that side
    up, down = (fb < 0) & (b < SIGMA_HI), (fa >= 0) & (a > lo)
    a[up], fa[up] = b[up], fb[up]
    b[down], fb[down] = a[down], fa[down]
    a[down], b[up] = lo[down], SIGMA_HI
    wide = up | down
    f = excess(rows[wide], np.where(up, b, a)[wide])
    fb[up], fa[down] = f[up[wide]], f[down[wide]]
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
        fc = excess(rows, c)
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
    return sigma, ok


def deamericanize_set(quotes, S0: float, r: float, config: TreeConfig = TreeConfig()):
    """Transform a list of American quotes, each priced at its mid.

    All quotes are inverted together and the survivors priced by one
    European tree.  Non-invertible quotes are dropped with a log entry;
    raises if the list is empty or nothing survives.  Output order follows
    the input order.
    """
    quotes = list(quotes)
    if not quotes:
        raise ValueError("no quotes to de-Americanize")
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
