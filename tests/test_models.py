import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from statichedge import (
    BsParams,
    DomainError,
    MjdParams,
    OptionRef,
    SeriesError,
    StaticHedgeError,
    annualized_variance,
    call_marks,
    call_price,
    delta,
    put_price,
    strike_gamma_weight,
)
from statichedge import models
from statichedge.models import TAU_FLOOR, mjd_series_terms

from conftest import BS_TARGET_PRICE, MJD_TARGET_PRICE, MATURITY, SPOT, STRIKE, U1


@pytest.mark.parametrize("model_name", ["bs_model", "mjd_model"])
def test_call_marks_are_bitwise_per_pair_prices(request, model_name, monkeypatch):
    model = request.getfixturevalue(model_name)
    # a small block forces several call_price blocks per maturity
    monkeypatch.setattr(models, "MAX_BLOCK", 100)
    spots = np.array([80.0, 100.0, 125.0])
    pairs = [(k, T) for T in (U1, MATURITY) for k in (70.0, 90.0, 100.0, 110.0, 130.0)]
    pairs.append((90.0, U1))
    # at t = U1 the U1 calls are worth intrinsic value
    for S, t in ((spots, 0.05), (SPOT, 0.0), (spots, U1), (SPOT, U1)):
        marks = call_marks(model, S, t, pairs)
        assert len(marks) == 10
        for strike, maturity in pairs:
            expected = call_price(model, S, t, strike, maturity)
            assert np.array_equal(marks[strike, maturity], expected)
            assert type(marks[strike, maturity]) is type(expected)
            if np.ndim(S) == 0:
                assert type(marks[strike, maturity]) is float
    with pytest.raises(DomainError):
        call_marks(model, SPOT, MATURITY, pairs)


class _CountingPool(ThreadPoolExecutor):
    """A one-worker pool that counts the tasks handed to it."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.tasks = 0

    def submit(self, fn, /, *args, **kwargs):
        self.tasks += 1
        return super().submit(fn, *args, **kwargs)


@pytest.mark.parametrize("model_name", ["bs_model", "mjd_model"])
@pytest.mark.parametrize("shape", ["scalar", "paths", "grid"])
def test_pooled_kernels_are_bitwise_the_serial_ones(request, model_name, shape):
    model = request.getfixturevalue(model_name)
    t, maturity = 0.05, U1 + 0.05
    n_terms = np.size(models._mixture(model, maturity - t)[0])
    step = models.MAX_BLOCK // n_terms
    rng = np.random.default_rng(7)
    # more than two blocks, the last one short
    size = 2 * step + step // 3
    if shape == "scalar":
        S, K = SPOT, rng.uniform(50.0, 150.0, size)
    elif shape == "paths":
        S, K = SPOT * np.exp(0.2 * rng.standard_normal(size)), STRIKE
    else:
        n_strikes = 40
        S = SPOT * np.exp(0.2 * rng.standard_normal((1, -(-size // n_strikes))))
        K = np.linspace(60.0, 140.0, n_strikes)[:, None]
    assert np.broadcast(S, K).size > 2 * step
    with _CountingPool() as pool:
        for kernel in (call_price, delta):
            serial = kernel(model, S, t, K, maturity)
            pooled = kernel(model, S, t, K, maturity, pool)
            assert pooled.shape == serial.shape == np.broadcast(S, K).shape
            assert pooled.tobytes() == serial.tobytes()
            # every element is the one a one-element call gives
            S_all, K_all = np.broadcast_arrays(S, K)
            picks = [0, step - 1, step, serial.size - 1]
            for i in picks + rng.integers(0, serial.size, 20).tolist():
                one = kernel(model, S_all.flat[i], t, K_all.flat[i], maturity)
                assert serial.flat[i] == one
    # the calling thread takes the first of the three blocks; the pool is
    # offered the other two
    assert pool.tasks == 2 * 2


def _out_of_place(kernel, model, S, t, K, T):
    """A kernel's formula written with one temporary per operation, on the
    whole input at once: the reference its blocked, in-place evaluation
    must match to the bit."""
    Sa, Ka = np.asarray(S, dtype=float)[..., None], np.asarray(K, dtype=float)[..., None]
    tau = T - t
    probs, rates, vols, spot_disc, strike_disc, outer = models._mixture(model, tau)
    st = vols * math.sqrt(tau)
    d1 = (np.log(Sa / Ka) + (rates - model.delta_yield + 0.5 * vols ** 2) * tau) / st
    if kernel is call_price:
        terms = probs * (Sa * spot_disc * ndtr(d1) - Ka * strike_disc * ndtr(d1 - st))
    elif kernel is delta:
        terms = probs * spot_disc * ndtr(d1)
    else:
        npdf = np.exp(-0.5 * np.square(d1)) / math.sqrt(2.0 * math.pi)
        terms = probs * spot_disc * npdf / (Sa * st)
    return outer * terms.sum(axis=-1)


@pytest.mark.parametrize("model_name", ["bs_model", "mjd_model"])
@pytest.mark.parametrize("kernel", [call_price, delta, strike_gamma_weight])
def test_kernels_match_their_out_of_place_formulas(request, model_name, kernel):
    model = request.getfixturevalue(model_name)
    rng = np.random.default_rng(11)
    for n_spots in (3, 2000):  # one block, and several for the priced kernels
        S = SPOT * np.exp(0.3 * rng.standard_normal((1, n_spots)))
        K = np.linspace(40.0, 180.0, 25)[:, None]
        got = kernel(model, S, 0.05, K, U1)
        assert got.tobytes() == _out_of_place(kernel, model, S, 0.05, K, U1).tobytes()


def test_bs_reference_price(bs_model):
    assert call_price(bs_model, SPOT, 0.0, STRIKE, MATURITY) == pytest.approx(
        BS_TARGET_PRICE, abs=1e-6
    )


def test_mjd_reference_price(mjd_model):
    assert call_price(mjd_model, SPOT, 0.0, STRIKE, MATURITY) == pytest.approx(
        MJD_TARGET_PRICE, abs=1e-5
    )


def test_call_small_strike_limit(bs_model):
    # K -> 0: the call is worth the (dividend-discounted) forward stock
    price = call_price(bs_model, SPOT, 0.0, 1e-8, MATURITY)
    assert price == pytest.approx(SPOT * math.exp(-bs_model.delta_yield * MATURITY), rel=1e-9)


def test_put_by_parity(bs_model):
    expected = BS_TARGET_PRICE - SPOT + STRIKE * math.exp(-0.06)
    assert put_price(bs_model, SPOT, 0.0, STRIKE, MATURITY) == pytest.approx(expected, abs=1e-3)


def test_put_limits(bs_model, mjd_model):
    assert put_price(bs_model, SPOT, 0.0, 1e-8, MATURITY) == pytest.approx(0.0, abs=1e-8)
    for model in (bs_model, mjd_model):
        K = 1e6
        expected = K * math.exp(-model.r * MATURITY) - SPOT * math.exp(
            -model.delta_yield * MATURITY
        )
        assert put_price(model, SPOT, 0.0, K, MATURITY) == pytest.approx(expected, rel=1e-6)


def test_parity_invariant(bs_model, mjd_model):
    rng = np.random.default_rng(7)
    for model in (bs_model, mjd_model):
        for _ in range(50):
            S = rng.uniform(40, 200)
            K = rng.uniform(40, 200)
            T = rng.uniform(0.05, 2.0)
            lhs = call_price(model, S, 0.0, K, T) - put_price(model, S, 0.0, K, T)
            rhs = S * math.exp(-model.delta_yield * T) - K * math.exp(-model.r * T)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_price_monotonicity(bs_model, mjd_model):
    rng = np.random.default_rng(11)
    for model in (bs_model, mjd_model):
        for _ in range(50):
            S = rng.uniform(50, 150)
            K = rng.uniform(50, 150)
            T = rng.uniform(0.1, 1.5)
            bump_k = call_price(model, S, 0.0, K * 1.01, T)
            bump_s = call_price(model, S * 1.01, 0.0, K, T)
            base = call_price(model, S, 0.0, K, T)
            assert bump_k <= base + 1e-10
            assert bump_s >= base - 1e-10


def test_delta_reference_value(bs_model):
    # d1 = (0.06 + 0.27^2/2) / 0.27 = 0.35722..., N(d1) = 0.63954
    assert delta(bs_model, SPOT, 0.0, STRIKE, MATURITY) == pytest.approx(0.63954, abs=1e-4)


def test_delta_large_spot_limit(bs_model, mjd_model):
    for model in (bs_model, mjd_model):
        expected = math.exp(-model.delta_yield * MATURITY)
        assert delta(model, 1e7, 0.0, STRIKE, MATURITY) == pytest.approx(expected, abs=1e-9)


def test_delta_matches_finite_difference(bs_model, mjd_model):
    rng = np.random.default_rng(3)
    for model in (bs_model, mjd_model):
        for _ in range(100):
            S = rng.uniform(60, 160)
            K = rng.uniform(60, 160)
            T = rng.uniform(0.1, 1.5)
            h = 1e-4 * S
            fd = (call_price(model, S + h, 0.0, K, T)
                  - call_price(model, S - h, 0.0, K, T)) / (2 * h)
            assert delta(model, S, 0.0, K, T) == pytest.approx(fd, abs=1e-6)


def test_gamma_weight_normalizes_to_dividend_discount(bs_model):
    # integral of the gamma bell over all spot levels is e^{-q (T-u)} = 1 here
    total, _ = quad(
        lambda x: strike_gamma_weight(bs_model, x, U1, STRIKE, MATURITY),
        0.0, np.inf, limit=400,
    )
    assert total == pytest.approx(1.0, abs=1e-8)


def test_gamma_weight_bell_shape(bs_model):
    # the log-normal gamma bell peaks at K e^{(q - r - 3 sigma^2/2)(T-u)}
    grid = np.linspace(40.0, 180.0, 561)
    w = strike_gamma_weight(bs_model, grid, U1, STRIKE, MATURITY)
    peak = int(np.argmax(w))
    tau = MATURITY - U1
    analytic_peak = STRIKE * math.exp(
        (bs_model.delta_yield - bs_model.r - 1.5 * bs_model.sigma ** 2) * tau
    )
    assert grid[peak] == pytest.approx(analytic_peak, rel=0.01)
    assert 80.0 <= grid[peak] <= 120.0
    # unimodal: increasing before the peak, decreasing after
    assert np.all(np.diff(w[: peak + 1]) > 0)
    assert np.all(np.diff(w[peak:]) < 0)


def test_gamma_weight_matches_second_difference(bs_model, mjd_model):
    rng = np.random.default_rng(5)
    for model in (bs_model, mjd_model):
        for _ in range(100):
            x = rng.uniform(60, 160)
            K = rng.uniform(60, 160)
            u = rng.uniform(0.05, 0.6)
            h = 1e-3 * K
            fd = (call_price(model, x + h, u, K, MATURITY)
                  - 2 * call_price(model, x, u, K, MATURITY)
                  + call_price(model, x - h, u, K, MATURITY)) / h ** 2
            assert strike_gamma_weight(model, x, u, K, MATURITY) == pytest.approx(fd, abs=1e-5)


def test_mjd_degenerates_to_bs_without_jumps(bs_model):
    degenerate = MjdParams(r=0.06, delta_yield=0.0, sigma=0.27,
                           lam=0.0, mu_j=-0.1, sigma_j=0.13, mu=0.1)
    grid = np.linspace(50.0, 180.0, 27)
    for S in (80.0, 100.0, 125.0):
        a = call_price(degenerate, S, 0.0, STRIKE, MATURITY)
        b = call_price(bs_model, S, 0.0, STRIKE, MATURITY)
        assert a == pytest.approx(b, abs=1e-12)
        assert delta(degenerate, S, 0.0, STRIKE, MATURITY) == pytest.approx(
            delta(bs_model, S, 0.0, STRIKE, MATURITY), abs=1e-12
        )
    wa = strike_gamma_weight(degenerate, grid, U1, STRIKE, MATURITY)
    wb = strike_gamma_weight(bs_model, grid, U1, STRIKE, MATURITY)
    assert np.allclose(wa, wb, atol=1e-12)


def test_mjd_series_truncation_is_converged(mjd_model):
    tau = MATURITY
    probs, rns, sns = mjd_series_terms(mjd_model, tau)
    assert probs[-1] < 1e-14 and len(probs) >= 20
    # contribution of ten further terms is below double-precision noise
    lam_tau = mjd_model.lam * tau
    extra = 0.0
    prob = probs[-1]
    for n in range(len(probs), len(probs) + 10):
        prob = prob * lam_tau / n
        extra += prob * SPOT  # upper bound on each term's price contribution
    assert extra < 1e-12


def test_mjd_series_cap_raises():
    crazy = MjdParams(r=0.06, delta_yield=0.0, sigma=0.2,
                      lam=400.0, mu_j=0.0, sigma_j=0.1)
    with pytest.raises(SeriesError):
        call_price(crazy, SPOT, 0.0, STRIKE, MATURITY)
    # failures are not cached: every call raises again
    for _ in range(2):
        with pytest.raises(SeriesError):
            mjd_series_terms(crazy, MATURITY)


def test_mjd_series_covers_the_mass_of_both_legs():
    # g > 0: the spot leg's Poisson(lam (1 + g) tau) mean is 11.1 at lam tau = 0.69
    model = MjdParams(r=0.05, delta_yield=0.0, sigma=0.2, lam=0.69, mu_j=0.11, sigma_j=2.31)
    probs, rns, _ = mjd_series_terms(model, 1.0)
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-13)
    assert math.fsum(probs * np.exp(rns - model.r)) == pytest.approx(1.0, abs=1e-13)


def test_mjd_series_refuses_spot_legs_past_the_float_range():
    # summing to the spot leg's tail would need e^{(r_n - q) tau} beyond e^600
    wild = MjdParams(r=0.05, delta_yield=0.0, sigma=0.15, lam=0.19, mu_j=2.32, sigma_j=2.51)
    with pytest.raises(SeriesError, match="spot-leg discount"):
        call_price(wild, SPOT, 0.0, STRIKE, 1.87)


@pytest.mark.parametrize("lam", [0.0, 2.0])
def test_series_cache_shares_read_only_terms(mjd_model, lam):
    first = replace(mjd_model, lam=lam)
    twin = replace(mjd_model, lam=lam)
    assert first == twin and first is not twin
    terms = mjd_series_terms(first, U1)
    # equal parameters built separately hit one cache entry
    assert mjd_series_terms(twin, U1) is terms
    for cached, fresh in zip(terms, mjd_series_terms.__wrapped__(first, U1)):
        assert np.array_equal(cached, fresh) and cached.dtype == fresh.dtype
        with pytest.raises(ValueError):
            cached[0] = 0.0
    # both branches: the one-term lam == 0 case and the Poisson series
    assert (len(terms[0]) == 1) == (lam == 0.0)


def test_each_jump_kernel_call_asks_for_its_series_once(mjd_model, monkeypatch):
    # The bench tracer counts series terms per call_price through this
    # module attribute, so no cache may sit in front of it.
    asked = []
    real = models.mjd_series_terms

    def counter(params, tau):
        asked.append(tau)
        return real(params, tau)

    monkeypatch.setattr(models, "mjd_series_terms", counter)
    for kernel, args in ((call_price, (SPOT, 0.0, STRIKE, MATURITY)),
                         (delta, (SPOT, 0.0, STRIKE, MATURITY)),
                         (strike_gamma_weight, (np.array([90.0, 110.0]), U1, STRIKE, MATURITY))):
        asked.clear()
        kernel(mjd_model, *args)
        kernel(mjd_model, *args)
        assert len(asked) == 2


def test_intrinsic_at_expiry_and_domain_errors(bs_model):
    assert call_price(bs_model, 120.0, 1.0, STRIKE, MATURITY) == pytest.approx(20.0)
    assert call_price(bs_model, 80.0, 1.0, STRIKE, MATURITY) == 0.0
    assert put_price(bs_model, 80.0, 1.0, STRIKE, MATURITY) == pytest.approx(20.0)
    with pytest.raises(DomainError):
        call_price(bs_model, SPOT, 1.5, STRIKE, MATURITY)
    with pytest.raises(DomainError):
        delta(bs_model, SPOT, 1.0, STRIKE, MATURITY)
    with pytest.raises(DomainError):
        strike_gamma_weight(bs_model, SPOT, MATURITY, STRIKE, MATURITY)
    with pytest.raises(DomainError):
        call_price(bs_model, -1.0, 0.0, STRIKE, MATURITY)


@pytest.mark.parametrize("fn", [call_price, delta, strike_gamma_weight])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_spot_or_strike_is_domain_error(bs_model, fn, bad):
    with pytest.raises(DomainError, match="finite"):
        fn(bs_model, np.array([SPOT, bad]), 0.0, STRIKE, MATURITY)
    with pytest.raises(DomainError, match="finite"):
        fn(bs_model, SPOT, 0.0, bad, MATURITY)


@pytest.mark.parametrize("model_name", ["bs_model", "mjd_model"])
@pytest.mark.parametrize("fn, t_name", [(call_price, "t"), (put_price, "t"), (delta, "t"),
                                        (strike_gamma_weight, "u")])
@pytest.mark.parametrize("slot", [0, 1])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_time_is_domain_error_naming_it(request, model_name, fn, t_name, slot, bad):
    times = [U1, MATURITY]
    times[slot] = bad
    name = (t_name, "T")[slot]
    with pytest.raises(DomainError, match=f"^{name} must be finite, got {bad!r}$"):
        fn(request.getfixturevalue(model_name), SPOT, times[0], STRIKE, times[1])


def test_option_ref_is_a_call_and_takes_no_kind():
    with pytest.raises(TypeError):
        OptionRef(100.0, 1.0, "put")
    with pytest.raises(TypeError):
        OptionRef(strike=100.0, maturity=1.0, kind="call")


def test_parameter_validation():
    with pytest.raises(DomainError):
        BsParams(r=0.06, delta_yield=0.0, sigma=0.0)
    with pytest.raises(DomainError):
        MjdParams(r=0.06, delta_yield=0.0, sigma=0.2, lam=-1.0, mu_j=0.0, sigma_j=0.1)
    with pytest.raises(DomainError):
        MjdParams(r=0.06, delta_yield=0.0, sigma=0.2, lam=1.0, mu_j=0.0, sigma_j=0.0)
    with pytest.raises(DomainError, match=r"^sigma must be > 0, got 0\.0$"):
        MjdParams(r=0.06, delta_yield=0.0, sigma=0.0, lam=1.0, mu_j=0.0, sigma_j=0.1)
    with pytest.raises(DomainError):
        OptionRef(strike=-5.0, maturity=1.0)
    with pytest.raises(DomainError, match=r"^maturity must be > 0, got 0\.0$"):
        OptionRef(strike=100.0, maturity=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=f"^r must be finite, got {bad!r}$"):
            BsParams(r=bad, delta_yield=0.0, sigma=0.2)
        with pytest.raises(DomainError, match=f"^mu_j must be finite, got {bad!r}$"):
            MjdParams(r=0.06, delta_yield=0.0, sigma=0.2, lam=1.0, mu_j=bad, sigma_j=0.1)
    # finite parameters whose square or mean jump size overflows a float
    with pytest.raises(DomainError, match=r"^sigma \*\* 2 must be finite, got inf$"):
        BsParams(r=0.06, delta_yield=0.0, sigma=1e200)
    mjd = {"r": 0.06, "delta_yield": 0.0, "sigma": 0.2, "lam": 1.0, "mu_j": 0.0, "sigma_j": 0.1}
    g = "g = expm1(mu_j + sigma_j ** 2 / 2)"
    for field, value, name in [("sigma", 1e200, "sigma ** 2"), ("mu_j", 800.0, g),
                               ("sigma_j", 1e200, g)]:
        with pytest.raises(DomainError, match=f"^{re.escape(name)} must be finite, got inf$"):
            MjdParams(**{**mjd, field: value})


@pytest.mark.parametrize("field, value", [("mu_j", -1e300), ("mu_j", -1e155),
                                          ("lam", 1e300)])
def test_mjd_total_variance_must_be_finite(field, value):
    # g stays finite (expm1 of a huge negative is -1); the variance does not
    mjd = {"r": 0.06, "delta_yield": 0.0, "sigma": 0.2, "lam": 1.0, "mu_j": -1e150,
           "sigma_j": 0.1, field: value}
    with pytest.raises(DomainError, match=r"^variance sigma \*\* 2 \+ lam \* \(mu_j \*\* 2 "
                                          r"\+ sigma_j \*\* 2\) must be finite, got inf$"):
        MjdParams(**mjd)


def test_annualized_variance(bs_model, mjd_model):
    assert annualized_variance(bs_model) == 0.27 ** 2
    assert annualized_variance(mjd_model) == pytest.approx(0.0734, abs=1e-12)
    no_jumps = MjdParams(r=0.06, delta_yield=0.0, sigma=0.31,
                         lam=0.0, mu_j=-0.1, sigma_j=0.13)
    assert annualized_variance(no_jumps) == pytest.approx(0.31 ** 2, abs=1e-15)
    # sigma back-solved from a fixed total variance of 0.27^2 at lam = 1
    sigma = math.sqrt(0.27 ** 2 - 1.0 * ((-0.1) ** 2 + 0.13 ** 2))
    assert sigma == pytest.approx(0.2144, abs=1e-4)
    rebuilt = MjdParams(r=0.06, delta_yield=0.02, sigma=sigma,
                        lam=1.0, mu_j=-0.1, sigma_j=0.13)
    assert annualized_variance(rebuilt) == pytest.approx(0.0729, abs=1e-12)


def test_vectorized_pricing_matches_scalar(bs_model, mjd_model):
    S = np.array([80.0, 100.0, 120.0])
    for model in (bs_model, mjd_model):
        vec = call_price(model, S, 0.0, STRIKE, MATURITY)
        assert vec.shape == (3,)
        for s, v in zip(S, vec):
            assert v == call_price(model, float(s), 0.0, STRIKE, MATURITY)
        K = np.array([90.0, 110.0])
        vec_k = strike_gamma_weight(model, 100.0, U1, K, MATURITY)
        for k, v in zip(K, vec_k):
            assert v == strike_gamma_weight(model, 100.0, U1, float(k), MATURITY)


def _reference_kernels(model, S, t, K, T):
    """Per-family closed forms ``(call, delta, gamma weight)`` on
    pre-broadcast inputs: the Black-Scholes formula with its discounts on
    the legs, and the jump model's Poisson series with the risk-free
    discount outside the sum."""
    Sa, Ka = np.broadcast_arrays(np.asarray(S, dtype=float), np.asarray(K, dtype=float))
    tau = float(T) - float(t)
    q = model.delta_yield

    def npdf(x):
        return np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)

    if isinstance(model, MjdParams):
        probs, rns, sns = mjd_series_terms(model, tau)
        st = sns * math.sqrt(tau)
        d1 = (np.log(Sa[..., None] / Ka[..., None])
              + (rns - q + 0.5 * sns ** 2) * tau) / st
        disc = math.exp(-model.r * tau)
        call = disc * (probs * (Sa[..., None] * np.exp((rns - q) * tau) * ndtr(d1)
                                - Ka[..., None] * ndtr(d1 - st))).sum(axis=-1)
        dlt = disc * (probs * np.exp((rns - q) * tau) * ndtr(d1)).sum(axis=-1)
        gamma = disc * (probs * np.exp((rns - q) * tau) * npdf(d1)
                        / (Sa[..., None] * st)).sum(axis=-1)
    else:
        st = model.sigma * math.sqrt(tau)
        d1 = (np.log(Sa / Ka) + (model.r - q + 0.5 * model.sigma ** 2) * tau) / st
        call = Sa * math.exp(-q * tau) * ndtr(d1) - Ka * math.exp(-model.r * tau) * ndtr(d1 - st)
        dlt = math.exp(-q * tau) * ndtr(d1)
        gamma = math.exp(-q * tau) * npdf(d1) / (Sa * st)
    return call, dlt, gamma


_KERNEL_MODELS = {
    "bs": BsParams(r=0.06, delta_yield=0.03, sigma=0.27),
    "mjd": MjdParams(r=0.06, delta_yield=0.02, sigma=0.14, lam=2.0, mu_j=-0.1, sigma_j=0.13),
    "mjd_lam0": MjdParams(r=0.06, delta_yield=0.02, sigma=0.14, lam=0.0, mu_j=-0.1,
                          sigma_j=0.13),
}


@pytest.mark.parametrize("name", list(_KERNEL_MODELS))
def test_kernels_are_bitwise_the_per_family_closed_forms(name):
    model = _KERNEL_MODELS[name]
    inputs = [
        (100.0, 95.0),
        (100.0, np.array([70.0, 100.0, 130.0])),
        (np.array([80.0, 100.0, 125.0]), np.array([90.0, 100.0, 110.0])),
        (np.array([[80.0], [100.0], [125.0]]), np.array([70.0, 100.0, 130.0, 160.0])),
    ]
    # the last horizon sits just above the intrinsic-value floor
    times = [(0.0, 1.0), (0.3, 0.5), (0.5 - 2 * TAU_FLOOR, 0.5)]
    for S, K in inputs:
        for t, T in times:
            assert T - t > TAU_FLOOR
            expected = _reference_kernels(model, S, t, K, T)
            for fn, ref in zip((call_price, delta, strike_gamma_weight), expected):
                out = fn(model, S, t, K, T)
                assert np.shape(out) == np.broadcast(S, K).shape
                np.testing.assert_array_equal(out, ref)


# The wide box of jump models on which the series must either converge or
# raise: diffusion vol to 10, intensity to 300, |mu_j| and sigma_j to 3.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sigma=st.floats(0.01, 10.0), lam=st.floats(0.0, 300.0), mu_j=st.floats(-3.0, 3.0),
       sigma_j=st.floats(0.01, 3.0), T=st.floats(0.01, 2.0), r=st.floats(0.0, 0.1),
       q=st.floats(0.0, 0.1))
def test_jump_kernels_respect_no_arbitrage_over_a_wide_box(sigma, lam, mu_j, sigma_j, T,
                                                           r, q):
    model = MjdParams(r=r, delta_yield=q, sigma=sigma, lam=lam, mu_j=mu_j, sigma_j=sigma_j)
    K = SPOT * np.exp(np.linspace(-2.5, 2.5, 11))
    try:
        call = call_price(model, SPOT, 0.0, K, T)
        put = put_price(model, SPOT, 0.0, K, T)
        dlt = delta(model, SPOT, 0.0, K, T)
        gamma = strike_gamma_weight(model, SPOT, 0.0, K, T)
    except StaticHedgeError:
        return
    tol = 1e-8
    spot_pv, strike_pv = SPOT * math.exp(-q * T), K * math.exp(-r * T)
    for value in (call, put, dlt, gamma):
        assert np.isfinite(value).all()
    assert (call >= np.maximum(spot_pv - strike_pv, 0.0) - tol).all()
    assert (call <= spot_pv + tol).all()
    assert (put >= np.maximum(strike_pv - spot_pv, 0.0) - tol).all()
    assert (put <= strike_pv + tol).all()
    np.testing.assert_allclose(put, call - spot_pv + strike_pv, rtol=0.0, atol=tol)
    # decreasing and convex in K: slopes lie in [-e^{-rT}, 0] and do not fall
    slopes = np.diff(call) / np.diff(K)
    assert (slopes <= tol).all() and (slopes >= -math.exp(-r * T) - tol).all()
    assert (np.diff(slopes) >= -tol).all()
    assert ((dlt >= -tol) & (dlt <= math.exp(-q * T) + tol)).all()
    assert (np.diff(dlt) <= tol).all()
    assert (gamma >= -tol).all()
