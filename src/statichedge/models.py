"""Closed-form pricing, deltas, and strike-gamma weights for the two
supported risk-neutral models.

``BsParams`` is plain geometric Brownian motion; ``MjdParams`` adds
log-normally distributed jumps arriving at Poisson rate ``lam``, in which
case the call price is the classic Poisson-weighted mixture of adjusted
Black-Scholes prices.  ``strike_gamma_weight`` is the second derivative of
the call pricing function in its spot slot - the gamma bell that prices a
long-dated call off a continuum of shorter-dated ones.

All operations are pure, accept numpy arrays in the spot/strike slots
(broadcasting them), and are safe for concurrent use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, SeriesError

__all__ = [
    "BsParams",
    "MjdParams",
    "ModelSpec",
    "OptionRef",
    "call_price",
    "call_marks",
    "put_price",
    "delta",
    "strike_gamma_weight",
    "annualized_variance",
]

# Floor applied to the time-to-expiry inside d-formulas; below it prices
# collapse to intrinsic value.
TAU_FLOOR = 1e-10

# Poisson series truncation: stop at the first term index >= MIN_TERMS whose
# probability mass drops below PMF_CUTOFF; refuse to sum past MAX_TERMS.
MIN_TERMS = 20
PMF_CUTOFF = 1e-14
MAX_TERMS = 180

# Largest (spots x strikes x series terms) block that ``call_marks`` hands
# to one ``call_price`` call, and largest block of uniforms that
# ``simulation.simulate_paths`` transforms at once; bigger blocks only
# raise peak memory.
MAX_BLOCK = 2 ** 15

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _npdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def _require_finite(name, value):
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class BsParams:
    """Geometric Brownian motion parameters (rates per year, vol per sqrt-year).

    ``mu`` is the real-world drift used only by the path simulator; pricing
    uses the risk-free rate ``r`` and dividend yield ``delta_yield``.
    """

    r: float
    delta_yield: float
    sigma: float
    mu: float = 0.0

    def __post_init__(self):
        for name in ("r", "delta_yield", "sigma", "mu"):
            _require_finite(name, getattr(self, name))
        if self.sigma <= 0.0:
            raise DomainError(f"sigma must be > 0, got {self.sigma!r}")


@dataclass(frozen=True)
class MjdParams:
    """Jump-diffusion parameters: diffusion vol ``sigma``, jump intensity
    ``lam`` (per year), and N(mu_j, sigma_j^2) log-jump sizes."""

    r: float
    delta_yield: float
    sigma: float
    lam: float
    mu_j: float
    sigma_j: float
    mu: float = 0.0

    def __post_init__(self):
        for name in ("r", "delta_yield", "sigma", "lam", "mu_j", "sigma_j", "mu"):
            _require_finite(name, getattr(self, name))
        if self.sigma <= 0.0:
            raise DomainError(f"sigma must be > 0, got {self.sigma!r}")
        if self.sigma_j <= 0.0:
            raise DomainError(f"sigma_j must be > 0, got {self.sigma_j!r}")
        if self.lam < 0.0:
            raise DomainError(f"lam must be >= 0, got {self.lam!r}")
        _require_finite("g", self.g)

    @property
    def g(self) -> float:
        """Mean proportional jump size, exp(mu_j + sigma_j^2 / 2) - 1."""
        return math.expm1(self.mu_j + 0.5 * self.sigma_j ** 2)


ModelSpec = Union[BsParams, MjdParams]


@dataclass(frozen=True)
class OptionRef:
    """A European option identified by strike, maturity (years) and kind."""

    strike: float
    maturity: float
    kind: str = "call"

    def __post_init__(self):
        if self.strike <= 0.0 or not math.isfinite(self.strike):
            raise DomainError(f"strike must be > 0, got {self.strike!r}")
        if self.maturity <= 0.0 or not math.isfinite(self.maturity):
            raise DomainError(f"maturity must be > 0, got {self.maturity!r}")
        if self.kind not in ("call", "put"):
            raise DomainError(f"kind must be 'call' or 'put', got {self.kind!r}")


def _as_positive_pair(S, K):
    Sa, Ka = np.asarray(S, dtype=float), np.asarray(K, dtype=float)
    # Written so that NaN fails the comparison as well as zero and +-inf.
    if not (np.all((Sa > 0.0) & (Sa < math.inf)) and np.all((Ka > 0.0) & (Ka < math.inf))):
        raise DomainError("spot and strike must be finite and strictly positive")
    return np.broadcast_arrays(Sa, Ka)


def _maybe_scalar(out):
    return float(out) if out.ndim == 0 else out


def _tau_or_intrinsic(t, T):
    """Return time to expiry, or None when the option should be priced at
    intrinsic value (inside the expiry floor)."""
    tau = float(T) - float(t)
    if tau < -1e-12:
        raise DomainError(f"valuation time {t!r} is after expiry {T!r}")
    if tau <= TAU_FLOOR:
        return None
    return tau


def mjd_series_terms(params: MjdParams, tau: float):
    """Poisson-mixture terms (prob_n, r_n, sigma_n) for a horizon ``tau``.

    r_n absorbs the jump compensator and the conditional mean of ``n``
    jumps; sigma_n^2 adds the per-horizon jump variance.  Truncated at the
    first index >= MIN_TERMS whose Poisson mass falls below PMF_CUTOFF.
    """
    if params.lam == 0.0:
        return np.array([1.0]), np.array([params.r]), np.array([params.sigma])
    lt = params.lam * tau
    lam_g = params.lam * params.g
    drift_per_jump = params.mu_j + 0.5 * params.sigma_j ** 2
    probs, rns, sns = [], [], []
    prob = math.exp(-lt)
    n = 0
    while True:
        probs.append(prob)
        rns.append(params.r - lam_g + n * drift_per_jump / tau)
        sns.append(math.sqrt(params.sigma ** 2 + n * params.sigma_j ** 2 / tau))
        n += 1
        # only stop once past the Poisson mode, where the pmf is decreasing
        if n >= MIN_TERMS and n > lt and prob < PMF_CUTOFF:
            break
        if n > MAX_TERMS:
            raise SeriesError(
                f"jump series not converged after {MAX_TERMS} terms "
                f"(lam * tau = {lt:g})"
            )
        prob = prob * lt / n
    return np.array(probs), np.array(rns), np.array(sns)


def _bs_d1(Sa, Ka, tau, model: BsParams):
    """Black-Scholes ``d1`` and ``sigma sqrt(tau)``."""
    st = model.sigma * math.sqrt(tau)
    d1 = (np.log(Sa / Ka) + (model.r - model.delta_yield + 0.5 * model.sigma ** 2) * tau) / st
    return d1, st


def _mjd_d1(Sa, Ka, tau, model: MjdParams):
    """Per-term ``d1_n`` on a trailing series axis, with ``sigma_n sqrt(tau)``,
    the Poisson probabilities and the per-term rates."""
    probs, rns, sns = mjd_series_terms(model, tau)
    st = sns * math.sqrt(tau)
    d1 = (np.log(Sa[..., None] / Ka[..., None])
          + (rns - model.delta_yield + 0.5 * sns ** 2) * tau) / st
    return d1, st, probs, rns


def call_price(model: ModelSpec, S, t, K, T):
    """Risk-neutral price of a European call C(S, t, K, T).

    Under jump diffusion this is the Poisson-probability-weighted sum of
    Black-Scholes-type terms with per-term rate r_n and vol sigma_n,
    discounted at the risk-free rate.  ``S`` and ``K`` broadcast.
    """
    Sa, Ka = _as_positive_pair(S, K)
    tau = _tau_or_intrinsic(t, T)
    if tau is None:
        return _maybe_scalar(np.maximum(Sa - Ka, 0.0))
    q = model.delta_yield
    if isinstance(model, MjdParams):
        d1, st, probs, rns = _mjd_d1(Sa, Ka, tau, model)
        terms = probs * (Sa[..., None] * np.exp((rns - q) * tau) * ndtr(d1)
                         - Ka[..., None] * ndtr(d1 - st))
        out = math.exp(-model.r * tau) * terms.sum(axis=-1)
    else:
        d1, st = _bs_d1(Sa, Ka, tau, model)
        out = Sa * math.exp(-q * tau) * ndtr(d1) - Ka * math.exp(-model.r * tau) * ndtr(d1 - st)
    return _maybe_scalar(np.asarray(out))


def call_marks(model: ModelSpec, S, t, pairs) -> dict:
    """Mark each distinct ``(strike, maturity)`` in ``pairs`` once at spot
    ``S`` and time ``t``; returns ``{(strike, maturity): price}``.

    The strikes of one maturity share a ``call_price`` call on a trailing
    strike axis, in blocks of at most ``MAX_BLOCK`` (spots x strikes x
    series terms) elements.  Pricing is elementwise and sums the series per
    element, so every mark is bitwise ``call_price(model, S, t, strike,
    maturity)``.  Marks are floats for a scalar ``S``, else arrays shaped
    like ``S``.
    """
    Sa = np.asarray(S, dtype=float)
    by_maturity = {}
    for strike, maturity in pairs:
        by_maturity.setdefault(maturity, {})[strike] = None
    marks = {}
    for maturity, strikes in by_maturity.items():
        strikes = list(strikes)
        tau = _tau_or_intrinsic(t, maturity)
        terms = 1
        if tau is not None and isinstance(model, MjdParams):
            terms = len(mjd_series_terms(model, tau)[0])
        step = max(1, MAX_BLOCK // (max(Sa.size, 1) * terms))
        for lo in range(0, len(strikes), step):
            block = strikes[lo:lo + step]
            prices = np.asarray(call_price(model, Sa[..., None], t, block, maturity))
            for j, strike in enumerate(block):
                mark = prices[..., j]
                marks[strike, maturity] = float(mark) if Sa.ndim == 0 else mark
    return marks


def put_price(model: ModelSpec, S, t, K, T):
    """European put via put-call parity: P = C - S e^{-q tau} + K e^{-r tau}."""
    Sa, Ka = _as_positive_pair(S, K)
    tau = _tau_or_intrinsic(t, T)
    if tau is None:
        return _maybe_scalar(np.maximum(Ka - Sa, 0.0))
    call = call_price(model, Sa, t, Ka, T)
    out = call - Sa * math.exp(-model.delta_yield * tau) + Ka * math.exp(-model.r * tau)
    return _maybe_scalar(np.asarray(out))


def delta(model: ModelSpec, S, t, K, T):
    """Spot sensitivity dC/dS of the call pricing function.

    For the jump model this is the exact derivative of the implemented
    price series, e^{-r tau} sum_n Pr(n) e^{(r_n - q) tau} N(d1_n),
    which a finite-difference cross-check pins down to ~1e-8.
    """
    Sa, Ka = _as_positive_pair(S, K)
    tau = _tau_or_intrinsic(t, T)
    if tau is None:
        raise DomainError("delta undefined at or after expiry")
    q = model.delta_yield
    if isinstance(model, MjdParams):
        d1, _, probs, rns = _mjd_d1(Sa, Ka, tau, model)
        out = math.exp(-model.r * tau) * (probs * np.exp((rns - q) * tau)
                                          * ndtr(d1)).sum(axis=-1)
    else:
        d1, _ = _bs_d1(Sa, Ka, tau, model)
        out = math.exp(-q * tau) * ndtr(d1)
    return _maybe_scalar(np.asarray(out))


def strike_gamma_weight(model: ModelSpec, x, u, K, T):
    """Second spot derivative of the call pricing function, d^2C/dx^2 (x, u, K, T).

    Evaluated at spot level ``x`` and time ``u`` for the option struck at
    ``K`` maturing at ``T``: the gamma bell centred near the strike that
    weights shorter-maturity options in the spanning portfolios.  ``x``
    and ``K`` broadcast, so one call covers both the single-maturity
    weight w(k) = d2C/dx2(k, u1, K, T) and the inter-maturity kernel
    w2(k2, k1) = d2C/dx2(k2, u2, k1, u1).
    """
    xa, Ka = _as_positive_pair(x, K)
    tau = _tau_or_intrinsic(u, T)
    if tau is None:
        raise DomainError(f"weight undefined for u >= T (u={u!r}, T={T!r})")
    q = model.delta_yield
    if isinstance(model, MjdParams):
        d1, st, probs, rns = _mjd_d1(xa, Ka, tau, model)
        terms = probs * np.exp((rns - q) * tau) * _npdf(d1) / (xa[..., None] * st)
        out = math.exp(-model.r * tau) * terms.sum(axis=-1)
    else:
        d1, st = _bs_d1(xa, Ka, tau, model)
        out = math.exp(-q * tau) * _npdf(d1) / (xa * st)
    return _maybe_scalar(np.asarray(out))


def annualized_variance(params: MjdParams) -> float:
    """Total per-year return variance sigma^2 + lam (mu_j^2 + sigma_j^2)."""
    return params.sigma ** 2 + params.lam * (params.mu_j ** 2 + params.sigma_j ** 2)
