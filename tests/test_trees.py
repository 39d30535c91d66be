"""CRR tree pricing and the de-Americanization transform."""

import logging
import math

import numpy as np
import pytest

from hestoncal import trees
from hestoncal.quotes import Quote, load_google_quotes, preprocess_quotes
from hestoncal.trees import (
    PRICE_TOL,
    SIGMA_HI,
    SIGMA_LO,
    PseudoQuote,
    TreeConfig,
    crr_price,
    deamericanize_set,
    invert_volatility,
)


def _crr_reference(S0, K, T, r, sigma, steps, style):
    """The scalar CRR level loop, one tree per option, discounting each level."""
    dt = T / steps
    u = np.exp(sigma * np.sqrt(dt))
    d = 1.0 / u
    disc = np.exp(-r * dt)
    p = (np.exp(r * dt) - d) / (u - d)
    s = S0 * u ** np.arange(-steps, steps + 1.0)
    values = np.maximum(K - s[::2], 0.0)
    for n in range(steps - 1, -1, -1):
        values = disc * (p * values[1 : n + 2] + (1.0 - p) * values[: n + 1])
        if style == "american":
            np.maximum(values, K - s[steps - n : steps + n + 1 : 2], out=values)
    return float(values[0])


def _crr_row_major(S0, K, T, r, sigma, steps, style="european"):
    """The row-major lattice, shape (row, node), that crr_price's node-major
    one replaced: the same arithmetic per node in the same order."""
    K, T, sigma = trees._rows(K, T, sigma)
    if not (S0 > 0 and np.all(K > 0) and np.all(T > 0) and np.all(sigma > 0)):
        raise ValueError("S0, K, T and sigma must be positive")
    dt = (T / steps)[:, None]
    u = np.exp(sigma[:, None] * np.sqrt(dt))
    d = 1.0 / u
    p = (np.exp(r * dt) - d) / (u - d)
    bad = ~((0.0 < p) & (p < 1.0))
    if bad.any():
        raise ValueError(f"risk-neutral probability {p[bad][0]:.4g} outside (0,1)")
    disc = np.exp(-r * dt)
    up, down = disc * p, disc * (1.0 - p)
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
            j = steps - n
            np.maximum(values, by_parity[j % 2][:, j // 2 : j // 2 + n + 1], out=values)
    return values[:, 0].copy()


def _invert_bisection(observed_price, S0, K, T, r, config):
    """Per-quote bisection on the scalar reference tree: (sigma, invertible)."""
    price = lambda sigma: _crr_reference(S0, K, T, r, sigma, config.steps, "american")
    if observed_price > K or observed_price < max(K - S0, 0.0):
        return np.nan, False
    lo = max(SIGMA_LO, 1.000001 * r * np.sqrt(T / config.steps))
    hi = SIGMA_HI
    p_lo = price(lo)
    if observed_price <= p_lo:
        return lo, abs(observed_price - p_lo) <= max(PRICE_TOL, 1e-6 * K)
    if observed_price > price(hi):
        return np.nan, False
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        p_mid = price(mid)
        if abs(p_mid - observed_price) < PRICE_TOL:
            return mid, True
        lo, hi = (mid, hi) if p_mid < observed_price else (lo, mid)
        if hi - lo < 1e-14:
            return 0.5 * (lo + hi), True
    raise AssertionError("bisection did not stop")


def _random_quotes(seed, n, S0, r, config):
    """Seeded (T, K, price) rows: American tree prices at random volatilities,
    rounded to cents, plus one row of each non-invertible kind and a deep-ITM
    zero-time-value row."""
    rng = np.random.default_rng(seed)
    T = rng.uniform(0.05, 2.0, n)
    K = rng.uniform(0.6 * S0, 1.5 * S0, n)
    sigma = rng.uniform(0.05, 1.0, n)
    price = np.round(crr_price(S0, K, T, r, sigma, config.steps, "american"), 2)
    T = np.append(T, [0.5, 0.5, 2.0, 1.0])
    K = np.append(K, [1.2 * S0, S0, S0, 1.8 * S0])
    # below intrinsic, above the strike, above the SIGMA_HI tree, intrinsic
    price = np.append(price, [0.1 * S0, 1.01 * S0, 0.9999 * S0, 0.8 * S0])
    return T, K, price


def _bs_put(S0, K, T, r, sigma):
    d1 = (math.log(S0 / K) + (r + 0.5 * sigma**2) * T) / (sigma * math.sqrt(T))
    d2 = d1 - sigma * math.sqrt(T)
    cdf = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))
    return K * math.exp(-r * T) * cdf(-d2) - S0 * cdf(-d1)


def test_one_step_tree_hand_value():
    # One step, S0=K=100, T=1, r=0, sigma=0.2: u=e^0.2, d=e^-0.2, p=(1-d)/(u-d)
    u = math.exp(0.2)
    d = 1.0 / u
    p = (1.0 - d) / (u - d)
    expected = (1.0 - p) * (100.0 - 100.0 * d)
    got = crr_price(100.0, 100.0, 1.0, 0.0, 0.2, steps=1, style="european")
    assert got == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(9.9666, abs=5e-4)


def test_converges_to_black_scholes():
    ref = _bs_put(100.0, 105.0, 0.75, 0.03, 0.25)
    got = crr_price(100.0, 105.0, 0.75, 0.03, 0.25, steps=2000, style="european")
    assert got == pytest.approx(ref, abs=2e-3)


def test_american_dominates_european_on_lattice():
    for sigma in (0.1, 0.3, 0.6):
        for K in (80.0, 100.0, 120.0):
            eu = crr_price(100.0, K, 1.0, 0.05, sigma, steps=200, style="european")
            am = crr_price(100.0, K, 1.0, 0.05, sigma, steps=200, style="american")
            assert am >= eu - 1e-14


def test_r0_american_equals_european_on_lattice():
    # With r = 0 the discounted payoff is a supermartingale-free case: early
    # exercise has no value and the backward recursions coincide node by node.
    for K in (80.0, 100.0, 125.0):
        eu = crr_price(100.0, K, 2.0, 0.0, 0.3, steps=500, style="european")
        am = crr_price(100.0, K, 2.0, 0.0, 0.3, steps=500, style="american")
        assert abs(am - eu) <= 1e-6


def test_monotone_in_sigma_and_maturity():
    prices = [
        crr_price(100.0, 100.0, 1.0, 0.02, s, steps=300, style="american")
        for s in (0.05, 0.1, 0.2, 0.4, 0.8)
    ]
    assert all(b > a for a, b in zip(prices, prices[1:]))
    prices_t = [
        crr_price(100.0, 100.0, t, 0.02, 0.3, steps=300, style="american")
        for t in (0.1, 0.5, 1.0, 2.0)
    ]
    assert all(b > a for a, b in zip(prices_t, prices_t[1:]))


def test_invalid_inputs_raise():
    with pytest.raises(ValueError):
        crr_price(100.0, 100.0, 1.0, 0.05, -0.1, steps=10)
    with pytest.raises(ValueError):
        crr_price(-1.0, 100.0, 1.0, 0.05, 0.2, steps=10)
    with pytest.raises(ValueError):
        TreeConfig(steps=0)
    for steps in (2.5, 500.0, "500", None):
        with pytest.raises(ValueError, match="tree steps must be an integer"):
            TreeConfig(steps=steps)
    # NumPy integers are integers
    assert TreeConfig(steps=np.int64(7)).steps == 7
    assert crr_price(100.0, 100.0, 1.0, 0.05, 0.2, TreeConfig(steps=np.int32(7)).steps).shape == (1,)


def test_unknown_style_raises():
    # any other style used to price European silently
    for style in ("bermudan", "American", ""):
        with pytest.raises(ValueError, match=f"unknown style {style!r}"):
            crr_price(100.0, 100.0, 1.0, 0.05, 0.2, 10, style)


def test_deamericanize_empty_quote_list_raises():
    with pytest.raises(ValueError, match="no quotes to de-Americanize"):
        deamericanize_set([], 100.0, 0.02)
    with pytest.raises(ValueError, match="no quotes to de-Americanize"):
        deamericanize_set(iter(()), 100.0, 0.02)


def test_sigma_round_trip():
    cfg = TreeConfig()
    for sigma_true in (0.12, 0.35, 0.9):
        obs = crr_price(100.0, 105.0, 0.8, 0.03, sigma_true, cfg.steps, "american")
        sigma, ok = invert_volatility(obs, 100.0, 105.0, 0.8, 0.03, cfg)
        assert ok
        assert sigma == pytest.approx(sigma_true, abs=1e-6)


def test_pseudo_price_below_observed():
    # The pseudo-European price strips the early-exercise premium.
    [pq] = deamericanize_set([Quote(1.0, 110.0, "american", price=12.5)], 100.0, 0.04)
    assert pq.observed_price == 12.5
    assert pq.pseudo_price <= pq.observed_price + 1e-12


def test_non_invertible_quotes_flagged():
    # above-strike and below-intrinsic prices cannot come from any tree
    assert not invert_volatility(101.0, 100.0, 100.0, 1.0, 0.02)[1]
    assert not invert_volatility(5.0, 100.0, 120.0, 1.0, 0.02)[1]


def test_deamericanize_set_drops_and_orders():
    quotes = [
        Quote(maturity=0.5, strike=100.0, price=7.0, style="american"),
        Quote(maturity=0.5, strike=120.0, price=1.0, style="american"),  # < intrinsic
        Quote(maturity=1.0, strike=95.0, price=6.0, style="american"),
    ]
    out = deamericanize_set(quotes, 100.0, 0.02)
    assert [pq.strike for pq in out] == [100.0, 95.0]
    assert all(isinstance(pq, PseudoQuote) for pq in out)
    with pytest.raises(ValueError):
        deamericanize_set([quotes[1]], 100.0, 0.02)


def test_deamericanize_set_prices_bid_ask_quotes_at_their_mid(caplog):
    """A quote with only a bid/ask pair is inverted at its mid, as
    QuoteSet.prices() prices it, and is named by its mid when dropped."""
    spreads = [(0.5, 100.0, 6.9, 7.1), (0.5, 120.0, 0.9, 1.1), (1.0, 95.0, 5.0, 5.2)]
    bid_ask = [Quote(T, K, "american", bid=b, ask=a) for T, K, b, a in spreads]
    at_mid = [Quote(T, K, "american", price=0.5 * (b + a)) for T, K, b, a in spreads]
    with caplog.at_level("WARNING", logger="hestoncal.trees"):
        out = deamericanize_set(bid_ask, 100.0, 0.02)
    assert [r.getMessage() for r in caplog.records] == ["dropping non-invertible quote T=0.5 K=120 price=1"]
    assert [pq.strike for pq in out] == [100.0, 95.0]
    assert out == deamericanize_set(at_mid, 100.0, 0.02)


def test_determinism():
    quote = Quote(0.75, 102.0, "american", price=8.0)
    assert deamericanize_set([quote], 100.0, 0.015) == deamericanize_set([quote], 100.0, 0.015)


def test_zero_time_value_degenerates_to_bracket_edge():
    # deep ITM with price equal to the SIGMA_LO tree price
    cfg = TreeConfig()
    r = 0.0015
    lo = max(SIGMA_LO, 1.000001 * r * np.sqrt(1.0 / cfg.steps))
    p_lo = crr_price(100.0, 180.0, 1.0, r, lo, cfg.steps, "american")
    sigma, ok = invert_volatility(p_lo, 100.0, 180.0, 1.0, r, cfg)
    assert ok and sigma == pytest.approx(lo)


def test_array_tree_matches_scalar_reference():
    # folding the discount into the branch probabilities reorders roundings
    rng = np.random.default_rng(7)
    K = rng.uniform(60.0, 150.0, 24)
    T = rng.uniform(0.02, 3.0, 24)
    sigma = rng.uniform(0.02, 1.5, 24)
    for r in (0.0, 0.05):
        for style in ("european", "american"):
            for steps in (1, 2, 7, 500):
                got = crr_price(100.0, K, T, r, sigma, steps, style)
                ref = [_crr_reference(100.0, k, t, r, v, steps, style)
                       for k, t, v in zip(K, T, sigma)]
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)
    # a scalar argument counts as one row
    assert crr_price(100.0, 90.0, 1.0, 0.05, 0.3, 50, "american").shape == (1,)
    assert crr_price(100.0, K[:3], 1.0, 0.05, 0.3, 50).shape == (3,)


@pytest.mark.parametrize("r", [0.0, 0.0015, 0.05, -0.005])
def test_node_major_lattice_matches_row_major_bit_for_bit(r):
    # the node-major lattice does each node's arithmetic in the row-major
    # order, so every price is the same double, for any row count
    pre = preprocess_quotes(load_google_quotes())
    K = np.array([q.strike for q in pre])
    T = np.array([q.maturity for q in pre])
    assert K.size == 401
    rng = np.random.default_rng(3)
    sigma = rng.uniform(0.1, 1.5, K.size)
    order = rng.permutation(K.size)  # mixed maturities in every prefix
    for rows in (1, 2, 10, 401):
        i = order[:rows]
        for steps in (1, 2, 7, 500):
            for style in ("american", "european"):
                got = crr_price(pre.S0, K[i], T[i], r, sigma[i], steps, style)
                ref = _crr_row_major(pre.S0, K[i], T[i], r, sigma[i], steps, style)
                assert np.array_equal(got, ref), (rows, steps, style)


@pytest.mark.parametrize("r", [0.0015, -0.005])
def test_deamericanize_set_matches_row_major_lattice(monkeypatch, r):
    # every sigma*, pseudo price and dropped quote of the 401 bundled quotes
    # is the one the row-major lattice gives
    pre = preprocess_quotes(load_google_quotes())
    got = deamericanize_set(pre.quotes, pre.S0, r)
    monkeypatch.setattr(trees, "crr_price", _crr_row_major)
    ref = deamericanize_set(pre.quotes, pre.S0, r)
    assert 300 < len(ref) < len(pre)
    assert got == ref


def test_set_equals_quote_by_quote_bit_for_bit():
    # a batched tree must not couple its rows: each quote of a mixed set gets
    # exactly what it gets alone, whatever it is batched with
    S0, r, cfg = 100.0, 0.0015, TreeConfig()
    lo = max(SIGMA_LO, 1.000001 * r * np.sqrt(1.0 / cfg.steps))
    [edge_price] = crr_price(S0, 180.0, 1.0, r, lo, cfg.steps, "american")
    quotes = [
        Quote(maturity=0.25, strike=95.0, price=2.31, style="american"),
        Quote(maturity=1.0, strike=180.0, price=edge_price, style="american"),
        Quote(maturity=0.5, strike=120.0, price=1.0, style="american"),  # < intrinsic
        Quote(maturity=2.0, strike=80.0, price=3.9, style="american"),
        Quote(maturity=0.5, strike=100.0, price=7.0, style="american"),
        Quote(maturity=1.0, strike=110.0, price=14.2, style="american"),
    ]
    flags = [invert_volatility(q.price, S0, q.strike, q.maturity, r, cfg)[1] for q in quotes]
    assert flags == [True, True, False, True, True, True]
    expected = [deamericanize_set([q], S0, r, cfg)[0] for q, ok in zip(quotes, flags) if ok]
    assert expected[1].sigma_star == lo
    assert deamericanize_set(quotes, S0, r, cfg) == expected
    assert deamericanize_set(quotes[::-1], S0, r, cfg) == expected[::-1]
    assert deamericanize_set(quotes[3:], S0, r, cfg) == expected[2:]


@pytest.mark.parametrize("r", [0.0, 0.05])
def test_inversion_residual_and_flags_against_bisection(r):
    S0, cfg = 100.0, TreeConfig(steps=200)
    T, K, price = _random_quotes(11, 30, S0, r, cfg)
    sigma, ok = invert_volatility(price, S0, K, T, r, cfg)
    reference = [_invert_bisection(p, S0, k, t, r, cfg)[1] for p, k, t in zip(price, K, T)]
    # flags equal per-quote bisection's, with every kind of row present
    assert ok.tolist() == reference
    assert 0 < ok.sum() < ok.size
    lo = np.maximum(SIGMA_LO, 1.000001 * r * np.sqrt(T / cfg.steps))
    edge = ok & (sigma == lo)
    assert edge.any()
    residual = np.abs(crr_price(S0, K[ok], T[ok], r, sigma[ok], cfg.steps, "american") - price[ok])
    assert np.all((residual < PRICE_TOL) | edge[ok])


def test_iteration_cap_flags_non_invertible(monkeypatch, caplog):
    S0, r = 100.0, 0.02
    quotes = [
        Quote(maturity=0.5, strike=100.0, price=7.0, style="american"),
        Quote(maturity=1.0, strike=180.0, price=80.0, style="american"),  # zero time value
    ]
    assert invert_volatility(7.0, S0, 100.0, 0.5, r)[1]
    # the Black-Scholes start brackets this row so tightly that two Illinois
    # steps match it; one does not
    monkeypatch.setattr(trees, "_MAX_ITER", 1)
    [sigma], [ok] = invert_volatility(7.0, S0, 100.0, 0.5, r)
    assert not ok and math.isnan(sigma)
    with caplog.at_level(logging.WARNING, logger="hestoncal.trees"):
        out = deamericanize_set(quotes, S0, r)
    assert [pq.strike for pq in out] == [180.0]
    assert "dropping non-invertible quote T=0.5 K=100" in caplog.text


def test_negative_rate_round_trip():
    # the CRR probability needs sigma > |r| sqrt(dt), so the lower bracket
    # edge is lifted by |r| whatever the sign of r
    S0, K, T, r, cfg = 100.0, 100.0, 1.0, -0.005, TreeConfig()
    assert invert_volatility(8.0, S0, K, T, r, cfg)[1]
    obs = crr_price(S0, K, T, r, 0.3, cfg.steps, "american")
    sigma, ok = invert_volatility(obs, S0, K, T, r, cfg)
    assert ok
    assert sigma == pytest.approx(0.3, abs=1e-6)


def test_negative_rate_deamericanize_set():
    S0, r = 100.0, -0.005
    quotes = [
        Quote(maturity=0.25, strike=95.0, price=2.31, style="american"),
        Quote(maturity=0.5, strike=120.0, price=1.0, style="american"),  # < intrinsic
        Quote(maturity=1.0, strike=100.0, price=8.0, style="american"),
        Quote(maturity=2.0, strike=110.0, price=18.5, style="american"),
    ]
    out = deamericanize_set(quotes, S0, r)
    assert [pq.strike for pq in out] == [95.0, 100.0, 110.0]
    for pq in out:
        am = crr_price(S0, pq.strike, pq.maturity, r, pq.sigma_star, 500, "american")
        assert abs(am - pq.observed_price) < PRICE_TOL
        # with r <= 0 early exercise of a put is worth nothing
        assert abs(pq.pseudo_price - pq.observed_price) < PRICE_TOL


def _google_tree_rows(monkeypatch):
    """De-Americanize the bundled Google puts a maturity at a time:
    (quotes, kept pseudo-quotes, rows of every tree, American rows priced at
    a bracket edge, SIGMA_HI or the lifted lower edge of the row)."""
    rows, edge = [], []
    crr = trees.crr_price

    def counting(S0, K, T, r, sigma, steps, style="european"):
        K_, T_, sigma_ = np.broadcast_arrays(np.atleast_1d(K), np.atleast_1d(T), np.atleast_1d(sigma))
        rows.append(K_.size)
        if style == "american":
            lo = np.maximum(SIGMA_LO, 1.000001 * abs(r) * np.sqrt(T_ / steps))
            edge.append(np.sum((sigma_ == SIGMA_HI) | (sigma_ == lo)))
        return crr(S0, K, T, r, sigma, steps, style)

    monkeypatch.setattr(trees, "crr_price", counting)
    pre = preprocess_quotes(load_google_quotes())
    kept = [
        pq
        for T in pre.maturities()
        for pq in deamericanize_set([q for q in pre if q.maturity == T], pre.S0, pre.r)
    ]
    return pre, kept, sum(rows), sum(edge)


def test_google_quotes_need_few_trees_per_quote(monkeypatch):
    # every tree row counts, the final European pricing included; the full
    # [SIGMA_LO, SIGMA_HI] start needed 11.33 rows per quote
    pre, kept, rows, _ = _google_tree_rows(monkeypatch)
    assert len(pre) == 401
    assert len(kept) == 376
    assert rows <= 7 * len(pre)


def test_google_quotes_rarely_reach_a_bracket_edge(monkeypatch):
    # a start that misses high tries a mirrored Newton step up before
    # SIGMA_HI; widening every such row straight to SIGMA_HI priced 86 rows
    # at an edge
    _, kept, _, edge = _google_tree_rows(monkeypatch)
    assert len(kept) == 376
    assert edge <= 1


@pytest.mark.parametrize("r", [0.0, 0.03, -0.005])
def test_black_scholes_implied_volatility_round_trip(r):
    S0 = 100.0
    for K in (60.0, 90.0, 100.0, 115.0, 150.0):
        for T in (0.02, 0.25, 1.0, 3.0):
            for sigma in (0.05, 0.2, 0.6, 1.5):
                price = _bs_put(S0, K, T, r, sigma)
                if price - max(K * math.exp(-r * T) - S0, 0.0) < 1e-6:
                    continue  # no time value to read a volatility from
                got, vega = trees._bs_put_implied_volatility(price, S0, K, T, r)
                assert got == pytest.approx(sigma, rel=1e-7), (K, T, sigma)
                assert vega > 0


def test_prices_without_black_scholes_root_start_from_full_bracket():
    # at or above K e^{-rT} no European put has the price; the rows start from
    # [lo, SIGMA_HI] and get per-quote bisection's flags and volatilities
    S0, r, cfg = 100.0, 0.05, TreeConfig(steps=200)
    K = np.array([100.0, 100.0, 2500.0, 2500.0, 2500.0])
    T = np.ones(5)
    price = np.array([100.0 * math.exp(-r), 99.5, 2400.0, 2410.0, 2499.0])
    for p, k, t in zip(price, K, T):
        assert math.isnan(trees._bs_put_implied_volatility(p, S0, k, t, r)[0])
    sigma, ok = invert_volatility(price, S0, K, T, r, cfg)
    reference = [_invert_bisection(p, S0, k, t, r, cfg) for p, k, t in zip(price, K, T)]
    assert ok.tolist() == [flag for _, flag in reference]
    assert 0 < ok.sum() < ok.size
    np.testing.assert_allclose(sigma[ok], [s for s, flag in reference if flag], rtol=1e-6)
