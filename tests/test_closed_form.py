"""Semi-closed-form Heston European pricer."""

import math

import numpy as np
import pytest

from hestoncal import closed_form
from hestoncal.calibration import ClosedFormBackend, PdeBackend
from hestoncal.closed_form import heston_cf, heston_put_cf
from hestoncal.mesh import Domain2D, assemble_blocks, build_mesh
from hestoncal.params import DEFAULT_CALIB_BOX, ModelParams
from hestoncal.quotes import GOOGLE_S0, Quote, load_google_quotes
from hestoncal.solvers import TimeGrid


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


def test_black_scholes_limit_at_a_negative_rate():
    """The frozen-variance limit also holds for r < 0, across strikes and maturities."""
    sigma, r = 0.3, -0.005
    mu = ModelParams(xi=1e-6, rho=0.0, gamma=sigma**2, kappa=1.0, r=r)
    for K in (80.0, 100.0, 125.0):
        for T in (0.25, 1.0, 2.0):
            got = heston_put_cf(100.0, K, T, mu, sigma**2)
            assert got == pytest.approx(_bs_put(100.0, K, T, r, sigma), abs=1e-6)


def test_detailed_eu_matches_closed_form_at_a_negative_rate():
    """DetailedEu against the closed form at r = -0.005, on acceptance
    criterion 6's coarse grid (40 x 40, I = 125) and probes."""
    theta = np.array([0.25, -0.50, 0.10, 0.4, 0.10])
    space = build_mesh(Domain2D(), 40, 40)
    pde = PdeBackend("DetailedEu", space, assemble_blocks(space), TimeGrid(2.0, 125))
    quotes = [Quote(T, K, "european", price=0.0) for K in (0.8, 0.9, 1.0, 1.1, 1.2) for T in (0.5, 1.0, 2.0)]
    fem = pde.price_vector(theta, quotes, 1.0, -0.005)
    cf = ClosedFormBackend().price_vector(theta, quotes, 1.0, -0.005)
    assert np.abs(fem - cf).max() <= 1e-2


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


@pytest.mark.xfail(
    strict=True,
    reason="the Fourier integral stops at u = 200: on the graded rule 24 of 8,400 "
    "short-maturity puts leave the bounds, worst by 1.8e-8, as on 4 uniform panels "
    "of 128 nodes; carried to u = 800 none do",
)
def test_put_bounds_over_whole_calib_box():
    """Seeded DEFAULT_CALIB_BOX sweep of the no-arbitrage put bounds
    max(K e^{-rT} - S0, 0) <= P <= K e^{-rT} at short maturities."""
    r, strikes = 0.05, np.linspace(0.5, 1.5, 7)
    box = DEFAULT_CALIB_BOX
    rng = np.random.default_rng(1)
    excess = []
    for _ in range(400):
        theta = box.lo + rng.random(5) * (box.hi - box.lo)
        mu, nu0 = ModelParams(*theta[:4], r), theta[4]
        for T in (0.05, 0.1, 1.0 / 6.0):
            put = heston_put_cf(1.0, strikes, T, mu, nu0)
            disc = strikes * math.exp(-r * T)
            excess.append(np.maximum(np.maximum(disc - 1.0, 0.0) - put, put - disc))
    excess = np.concatenate(excess)
    assert np.all(excess <= 1e-12), f"{np.sum(excess > 1e-12)} of {excess.size}, worst {excess.max():.2e}"


def _rule(upper, panels):
    """(nodes, weights) of the uniform oracle: `panels` equal panels of 128
    Gauss-Legendre nodes on [0, upper]."""
    x, w = np.polynomial.legendre.leggauss(128)
    edges = np.linspace(0.0, upper, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    return (mids[:, None] + half * x).ravel(), np.tile(half * w, panels)


def _direct_put(S0, K, T, mu, nu0, u, w):
    """Lewis's put on the rule (u, w) with one exponential e^{-iu ln K} per
    strike and node: the oracle of the cached strike kernel."""
    f = heston_cf(u - 0.5j, T, mu, nu0, S0) / (u * u + 0.25)
    kernel = np.exp(-1j * np.multiply.outer(np.log(K), u))
    integral = ((kernel * f).real * w).sum(axis=-1)
    return np.exp(-mu.r * T) * (K - np.sqrt(K) / np.pi * integral)


def _fixed_grid_cases():
    """(mu, nu0, T, S0, K) over 40 seeded whole-box points, test and Google
    maturities, unit and Google strikes."""
    google_T = sorted({q.maturity for q in load_google_quotes().quotes})
    maturities = [0.1, 1.0 / 6.0, 0.5, 2.0] + google_T
    cases = [(1.0, np.linspace(0.5, 1.5, 11)), (GOOGLE_S0, np.linspace(250.0, 880.0, 10))]
    box = DEFAULT_CALIB_BOX
    rng = np.random.default_rng(20150202)
    for theta in box.lo + rng.random((40, 5)) * (box.hi - box.lo):
        for T in maturities:
            for S0, K in cases:
                yield ModelParams(*theta[:4], 0.05), theta[4], T, S0, K


def test_fixed_grid_converges():
    """The module's graded rule agrees with the uniform rule of 8 panels of
    128 nodes on the same [0, 200] to 1e-12 max(S0, K) over seeded
    whole-box parameters."""
    oracle = _rule(200.0, 8)
    for mu, nu0, T, S0, K in _fixed_grid_cases():
        got = heston_put_cf(S0, K, T, mu, nu0)
        ref = _direct_put(S0, K, T, mu, nu0, *oracle)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(S0, K)), (mu, T, S0)


def test_rule_matches_uniform_oracle_across_moneyness():
    """The module's graded rule agrees with the uniform oracle of
    test_fixed_grid_converges to 1e-12 max(S0, K) for K/S0 from 0.1 to 10
    and T from 0.02 to 3 over seeded whole-box parameters: its outer panels
    resolve the oscillation e^{-iu ln(K/S0)} of the deepest strikes."""
    oracle = _rule(200.0, 8)
    moneyness = np.geomspace(0.1, 10.0, 21)
    box = DEFAULT_CALIB_BOX
    rng = np.random.default_rng(31)
    for theta in box.lo + rng.random((60, 5)) * (box.hi - box.lo):
        mu, nu0 = ModelParams(*theta[:4], 0.05), theta[4]
        for T in (0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0):
            for S0 in (1.0, GOOGLE_S0):
                K = S0 * moneyness
                got = heston_put_cf(S0, K, T, mu, nu0)
                ref = _direct_put(S0, K, T, mu, nu0, *oracle)
                assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(S0, K)), (theta, T, S0)


def test_rule_nodes_increase_inside_its_interval():
    """The rule's nodes increase inside (0, 200), its weights integrate a
    constant over [0, 200], and the cached arrays are read-only."""
    u, w = closed_form._rule()
    assert u.size == sum(closed_form._NODES)
    assert 0.0 < u[0] and np.all(np.diff(u) > 0.0) and u[-1] < 200.0
    assert np.all(w > 0.0) and w.sum() == pytest.approx(200.0, rel=1e-14)
    assert not (u.flags.writeable or w.flags.writeable)


def test_truncation_at_200_is_small():
    """Stopping the integral at u = 200 moves no price of the fixed-grid
    cases by more than 2e-5 max(S0, K) from the integral carried to 1600."""
    wide = _rule(1600.0, 32)
    for mu, nu0, T, S0, K in _fixed_grid_cases():
        got = heston_put_cf(S0, K, T, mu, nu0)
        ref = _direct_put(S0, K, T, mu, nu0, *wide)
        assert np.all(np.abs(got - ref) <= 2e-5 * np.maximum(S0, K)), (mu, T, S0)


def test_array_strikes_match_scalar_calls():
    ks = np.linspace(60.0, 150.0, 19)
    for T in (0.1, 1.0, 3.0):
        many = heston_put_cf(100.0, ks, T, MU, NU0)
        one = np.array([heston_put_cf(100.0, k, T, MU, NU0) for k in ks])
        assert many.shape == ks.shape
        np.testing.assert_allclose(many, one, rtol=1e-14, atol=0.0)
    # a scalar K and T give a 0-d array
    single = heston_put_cf(100.0, 100.0, 1.0, MU, NU0)
    assert isinstance(single, np.ndarray) and single.shape == ()


def test_backend_prices_interleaved_maturities_in_quote_order():
    theta = np.array([0.25, -0.5, 0.10, 0.4, 0.10])
    layout = [(1.0, 90.0), (0.25, 100.0), (2.0, 80.0), (0.25, 120.0), (1.0, 110.0), (2.0, 100.0)]
    quotes = [Quote(maturity=T, strike=K, style="european", price=np.nan) for T, K in layout]
    got = ClosedFormBackend().price_vector(theta, quotes, 100.0, 0.05)
    mu = ModelParams(*theta[:4], 0.05)
    want = [heston_put_cf(100.0, K, T, mu, theta[4]) for T, K in layout]
    np.testing.assert_array_equal(got, want)


def test_backend_makes_one_cf_call_per_evaluation(monkeypatch):
    calls = []
    cf = closed_form.heston_cf

    def counting(u, T, *args):
        calls.append(np.size(T))
        return cf(u, T, *args)

    monkeypatch.setattr(closed_form, "heston_cf", counting)
    maturities = (0.05, 0.25, 0.5, 1.0, 2.0)
    quotes = [Quote(maturity=T, strike=K, style="european", price=np.nan)
              for K in (80.0, 100.0, 120.0) for T in maturities]
    theta = np.array([0.25, -0.5, 0.10, 0.4, 0.10])
    ClosedFormBackend().price_vector(theta, quotes, 100.0, 0.05)
    assert calls == [len(maturities)]
    # the second evaluation finds the strike kernel cached and still makes one
    ClosedFormBackend().price_vector(theta * 1.01, quotes, 100.0, 0.05)
    assert calls == [len(maturities)] * 2


def test_cf_of_many_maturities_equals_one_call_each():
    u = np.linspace(0.0, 200.0, 301) - 0.5j
    maturities = np.array([0.05, 0.25, 1.0, 3.0])
    many = heston_cf(u, maturities, MU, NU0, 100.0)
    assert many.shape == (4, 301)
    for row, T in zip(many, maturities):
        np.testing.assert_array_equal(row, heston_cf(u, T, MU, NU0, 100.0))


def test_cf_overflow_names_the_maturity():
    # E[S_T^2] grows like e^{2rT}: overflows at T = 400 but not at T = 1
    mu = ModelParams(xi=0.25, rho=-0.5, gamma=0.10, kappa=0.4, r=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        heston_cf(np.array([-2j]), 1.0, mu, NU0, 1.0)
        with pytest.raises(FloatingPointError, match=r"T=400\.0"):
            heston_cf(np.array([-2j]), np.array([1.0, 400.0]), mu, NU0, 1.0)


def _two_probability_put(S0, K, T, mu, nu0, u, w):
    """The put from the two probabilities P_j = 1/2 + (1/pi) int_0^inf
    Re[e^{-iu ln K} f_j(u) / (iu)] du, f_2 = heston_cf(u) and f_1 =
    heston_cf(u - i) / (S0 e^{rT}), and put-call parity: an oracle of
    Lewis's formula independent of it."""
    f1 = heston_cf(u - 1j, T, mu, nu0, S0) / (S0 * np.exp(mu.r * T))
    f2 = heston_cf(u, T, mu, nu0, S0)
    kernel = np.exp(-1j * np.multiply.outer(np.log(K), u)) / (1j * u)
    p1 = 0.5 + ((kernel * f1).real * w).sum(axis=-1) / np.pi
    p2 = 0.5 + ((kernel * f2).real * w).sum(axis=-1) / np.pi
    disc_K = K * np.exp(-mu.r * T)
    return S0 * p1 - disc_K * p2 - S0 + disc_K


def test_single_integral_matches_two_probabilities():
    """Both representations of the put, on one rule of [0, 1600], agree to
    1e-10 max(S0, K) on the fixed-grid cases."""
    wide = _rule(1600.0, 32)
    for mu, nu0, T, S0, K in _fixed_grid_cases():
        got = _direct_put(S0, K, T, mu, nu0, *wide)
        ref = _two_probability_put(S0, K, T, mu, nu0, *wide)
        assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(S0, K)), (mu, T, S0)


def test_factorized_kernel_matches_direct_exponentials():
    google = load_google_quotes().quotes
    google_T = sorted({q.maturity for q in google})
    cases = [(1.0, np.linspace(0.5, 1.5, 11)), (GOOGLE_S0, np.array(sorted({q.strike for q in google})))]
    box = DEFAULT_CALIB_BOX
    rng = np.random.default_rng(7)
    for theta in box.lo + rng.random((20, 5)) * (box.hi - box.lo):
        mu, nu0 = ModelParams(*theta[:4], 0.0015), theta[4]
        for T in [0.1, 1.0] + google_T:
            for S0, K in cases:
                got = heston_put_cf(S0, K, T, mu, nu0)
                ref = _direct_put(S0, K, T, mu, nu0, *closed_form._rule())
                assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(S0, K)), (theta, T, S0)


def test_deterministic():
    a = heston_put_cf(100.0, 90.0, 2.0, MU, NU0)
    b = heston_put_cf(100.0, 90.0, 2.0, MU, NU0)
    assert a == b


@pytest.mark.parametrize("gamma, nu0", [(0.25, 0.1), (0.5, 1.0)])
def test_put_finite_where_kappa_below_rho_xi(gamma, nu0):
    """At the calibration-box corner xi=0.9, rho=0.3, kappa=0.1, beta + d
    vanishes at u = -i, where no put formula of this module evaluates the
    characteristic function: Lewis's formula takes it at u - i/2, where
    d^2 - beta^2 = xi^2 (u^2 + 1/4) > 0, so beta + d never vanishes.

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


MU_CHECKS = ModelParams(xi=0.5, rho=-0.5, gamma=0.1, kappa=1.0, r=0.05)


@pytest.mark.parametrize(
    "S0, K, T",
    [
        (1.0, -1.0, 1.0),
        (1.0, np.nan, 1.0),
        (1.0, np.inf, 1.0),
        (1.0, np.array([0.9, 0.0, 1.1]), 1.0),
        (1.0, 1.0, -0.5),
        (1.0, 1.0, 0.0),
        (1.0, 1.0, np.nan),
        (1.0, np.array([0.9, 1.1]), np.array([0.5, np.inf])),
        (-1.0, 1.0, 1.0),
        (0.0, 1.0, 1.0),
        (np.nan, 1.0, 1.0),
        (np.inf, 1.0, 1.0),
    ],
)
def test_put_refuses_nonpositive_or_nonfinite_inputs(S0, K, T):
    """No put has such a spot, strike or maturity.  Unchecked, K = -1 or NaN
    prices NaN, T = -0.5 a put of -3286, T = 0 an at-the-money put of
    0.0016, and S0 = -1 stops in heston_cf with an overflow error."""
    with pytest.raises(ValueError, match="must be positive and finite"):
        heston_put_cf(S0, K, T, MU_CHECKS, 0.1)


def test_refused_quote_set_keeps_the_cached_one():
    heston_put_cf(1.0, 1.0, 1.0, MU_CHECKS, 0.1)
    hits = closed_form._strike_side.cache_info().hits
    for _ in range(2):
        with pytest.raises(ValueError):
            heston_put_cf(1.0, -1.0, 1.0, MU_CHECKS, 0.1)
    heston_put_cf(1.0, 1.0, 1.0, MU_CHECKS, 0.1)
    assert closed_form._strike_side.cache_info().hits == hits + 1


def _google_quote_set():
    quotes = load_google_quotes().quotes[::8]
    return np.array([q.strike for q in quotes]), np.array([q.maturity for q in quotes])


def test_cached_kernel_gives_the_same_bits():
    """A miss and a hit price alike, also after another quote vector has
    taken the cache's one entry in between."""
    K, T = _google_quote_set()
    price = lambda K: heston_put_cf(GOOGLE_S0, K, T, MU, NU0)
    closed_form._strike_side.cache_clear()
    miss = price(K)
    hits = closed_form._strike_side.cache_info().hits
    np.testing.assert_array_equal(price(K), miss)
    assert closed_form._strike_side.cache_info().hits == hits + 1
    other = price(K * 1.01)
    assert not np.array_equal(other, miss)
    np.testing.assert_array_equal(price(K), miss)


def test_cache_holds_one_read_only_entry():
    K, T = _google_quote_set()
    heston_put_cf(GOOGLE_S0, K, T, MU, NU0)
    heston_put_cf(GOOGLE_S0, K[:5], T[:5], MU, NU0)
    info = closed_form._strike_side.cache_info()
    assert info.maxsize == 1 and info.currsize == 1
    # the key heston_put_cf forms: a hit on the entry it left
    entry = closed_form._strike_side(K[:5].tobytes(), T[:5].tobytes())
    assert closed_form._strike_side.cache_info().hits == info.hits + 1
    for a in entry:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


@pytest.fixture
def mp():
    """mpmath at 30 significant digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        yield mpmath


def _assert_clog1p_matches_mpmath(mp, z):
    """_clog1p within 4 units of float64 round-off of log(1 + z) at 30
    digits, normwise.  A zero imaginary part takes its side of the cut from
    its sign, which an mpmath zero does not carry."""
    got = closed_form._clog1p(z)
    for zi, gi in zip(z, got):
        want = mp.log1p(mp.mpc(zi.real, abs(zi.imag)))
        if math.copysign(1.0, zi.imag) < 0:
            want = mp.conj(want)
        err = abs(mp.mpc(gi.real, gi.imag) - want) / abs(want)
        assert err <= 4 * np.finfo(float).eps, (zi, gi, want)


def test_clog1p_matches_mpmath_from_tiny_to_huge(mp):
    """|z| from 1e-300 to 1e300 at 29 angles: y^2 underflows at the low end
    and x (2 + x) + y^2 overflows above 1e154."""
    angles = np.exp(1j * np.linspace(-np.pi, np.pi, 29))
    _assert_clog1p_matches_mpmath(mp, np.multiply.outer(10.0 ** np.arange(-300, 301, 5.0), angles).ravel())


def test_clog1p_matches_mpmath_at_the_cut_and_near_minus_one(mp):
    """z < -1 with +-0 and tiny imaginary parts, on both sides of the cut,
    and z within 1e-12 ... 0.1 of -1, where log1p(x (2 + x) + y^2) cancels."""
    on_cut = [complex(x, y) for x in (-1e300, -1e10, -3.0, -2.0, -1.5, -1.0 - 1e-8)
              for y in (0.0, -0.0, 1e-300, -1e-300, 1e-10, -1e-10)]
    sides = closed_form._clog1p(np.array([complex(-2.0, 0.0), complex(-2.0, -0.0)])).imag
    assert sides.tolist() == [math.pi, -math.pi]
    angles = np.exp(1j * np.linspace(-np.pi, np.pi, 29))
    near = -1.0 + np.multiply.outer(10.0 ** np.arange(-12.0, 0.0), angles).ravel()
    _assert_clog1p_matches_mpmath(mp, np.concatenate([on_cut, near]))


def test_clog1p_matches_mpmath_on_heston_cf_arguments(mp, monkeypatch):
    """A seeded sample of the arguments heston_cf forms on the put's nodes
    over DEFAULT_CALIB_BOX, its kappa < rho xi corner and its nu0 floor, at
    the test and Google maturities.  They come near neither place where
    the real form alone fails: |1 + z| > 0.5, and |z| < 2 is far from the
    overflow of x (2 + x) + y^2 near |z| = 1e154."""
    seen = []
    clog1p = closed_form._clog1p
    monkeypatch.setattr(closed_form, "_clog1p", lambda z: seen.append(z.ravel()) or clog1p(z))
    google_T = sorted({q.maturity for q in load_google_quotes().quotes})
    maturities = np.array([0.05, 0.1, 1.0 / 6.0, 0.5, 1.0, 2.0] + google_T)
    nodes = closed_form._rule()[0] - 0.5j
    box = DEFAULT_CALIB_BOX
    rng = np.random.default_rng(5)
    cases = [(ModelParams(*t[:4], 0.05), t[4]) for t in box.lo + rng.random((20, 5)) * (box.hi - box.lo)]
    cases += [(ModelParams(xi=0.9, rho=0.3, gamma=gamma, kappa=0.1, r=0.05), box.lo[4])
              for gamma in (box.lo[2], box.hi[2])]
    for mu, nu0 in cases:
        heston_cf(nodes, maturities, mu, nu0, 1.0)
    z = np.concatenate(seen)
    assert np.abs(1.0 + z).min() > 0.5 and np.abs(z).max() < 2.0
    _assert_clog1p_matches_mpmath(mp, rng.choice(z, 2000, replace=False))
