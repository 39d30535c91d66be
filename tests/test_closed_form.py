"""Semi-closed-form Heston European pricer."""

import math

import numpy as np
import pytest

from hestoncal.closed_form import (
    IntegrationConfig,
    heston_call_cf,
    heston_cf,
    heston_put_cf,
)
from hestoncal.params import ModelParams


MU = ModelParams(xi=0.25, rho=-0.5, gamma=0.10, kappa=0.4, r=0.05)
NU0 = 0.10


def _bs_put(S0, K, T, r, sigma):
    d1 = (math.log(S0 / K) + (r + 0.5 * sigma**2) * T) / (sigma * math.sqrt(T))
    d2 = d1 - sigma * math.sqrt(T)
    cdf = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))
    return K * math.exp(-r * T) * cdf(-d2) - S0 * cdf(-d1)


def test_cf_at_zero_is_one():
    val = heston_cf(np.array([0.0]), 1.0, MU, NU0, 100.0)[0]
    assert val == pytest.approx(1.0, abs=1e-14)


def test_cf_modulus_bounded_by_one():
    u = np.linspace(0.01, 150.0, 400)
    val = heston_cf(u, 2.0, MU, NU0, 100.0)
    assert np.all(np.abs(val) <= 1.0 + 1e-12)


def test_cf_martingale_moment():
    # E[S_T] = S0 e^{rT}: the characteristic function at u = -i
    val = heston_cf(np.array([-1j]), 1.5, MU, NU0, 100.0)[0]
    assert val.imag == pytest.approx(0.0, abs=1e-9)
    assert val.real == pytest.approx(100.0 * math.exp(MU.r * 1.5), rel=1e-9)


def test_black_scholes_limit():
    # xi -> 0, gamma = nu0 = sigma^2, any kappa: variance is frozen at sigma^2
    sigma = 0.3
    mu = ModelParams(xi=1e-6, rho=0.0, gamma=sigma**2, kappa=1.0, r=0.04)
    got = heston_put_cf(100.0, 100.0, 1.0, mu, sigma**2)
    ref = _bs_put(100.0, 100.0, 1.0, 0.04, sigma)
    assert got == pytest.approx(ref, abs=1e-6)
    # hand value: S0=K=100, T=1, r=4%, sigma=30% -> d1=0.28333, d2=-0.01667,
    # put = 96.0789*Phi(0.01667) - 100*Phi(-0.28333) = 9.832
    assert ref == pytest.approx(9.832, abs=2e-3)


def test_put_call_parity():
    for K in (80.0, 100.0, 120.0):
        call = heston_call_cf(100.0, K, 1.0, MU, NU0)
        put = heston_put_cf(100.0, K, 1.0, MU, NU0)
        parity = call - put - (100.0 - K * math.exp(-MU.r))
        assert parity == pytest.approx(0.0, abs=1e-8)


def test_arbitrage_bounds():
    for K in (70.0, 100.0, 140.0):
        for T in (0.1, 1.0, 3.0):
            p = heston_put_cf(100.0, K, T, MU, NU0)
            lower = max(K * math.exp(-MU.r * T) - 100.0, 0.0)
            assert lower - 1e-10 <= p <= K * math.exp(-MU.r * T) + 1e-10


def test_monotone_and_convex_in_strike():
    ks = np.linspace(60.0, 150.0, 19)
    ps = np.array([heston_put_cf(100.0, k, 1.0, MU, NU0) for k in ks])
    d1 = np.diff(ps)
    assert np.all(d1 > 0.0)  # increasing in strike
    d2 = np.diff(d1)
    assert np.all(d2 > -1e-10)  # convex in strike


def test_truncation_invariance():
    p_default = heston_put_cf(100.0, 95.0, 0.5, MU, NU0)
    p_wide = heston_put_cf(
        100.0, 95.0, 0.5, MU, NU0, IntegrationConfig(bound=400.0, nodes=96)
    )
    assert p_default == pytest.approx(p_wide, abs=1e-8)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        IntegrationConfig(bound=-1.0)
    with pytest.raises(ValueError):
        IntegrationConfig(nodes=8)


def test_deterministic():
    a = heston_put_cf(100.0, 90.0, 2.0, MU, NU0)
    b = heston_put_cf(100.0, 90.0, 2.0, MU, NU0)
    assert a == b


@pytest.mark.parametrize("gamma, nu0", [(0.25, 0.1), (0.5, 1.0)])
def test_put_finite_where_kappa_below_rho_xi(gamma, nu0):
    """At the calibration-box corner xi=0.9, rho=0.3, kappa=0.1, beta + d
    vanishes at u = -i, where the P1 normalizer used to be evaluated.

    Near-zero variance (gamma and nu0 at their lower bounds) is left out:
    there the fixed Fourier truncation prices short puts slightly below
    zero anywhere in the box, a quadrature error this test does not cover.
    """
    mu = ModelParams(xi=0.9, rho=0.3, gamma=gamma, kappa=0.1, r=0.05)
    for T in (0.1, 1.0):
        for K in (0.8, 1.0, 1.2):
            p = heston_put_cf(1.0, K, T, mu, nu0)
            disc_K = K * math.exp(-mu.r * T)
            assert math.isfinite(p)
            assert max(disc_K - 1.0, 0.0) - 1e-9 <= p <= disc_K
