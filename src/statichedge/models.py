"""Closed-form pricing, deltas, and strike-gamma weights for the two
supported risk-neutral models.

``BsParams`` is plain geometric Brownian motion; ``MjdParams`` adds
log-normally distributed jumps arriving at Poisson rate ``lam``.  Both are
one Poisson-weighted mixture of adjusted Black-Scholes terms
(``_mixture``): the jump model sums its truncated series, and Black-Scholes
is the one-term case, so ``call_price``, ``delta`` and
``strike_gamma_weight`` each hold a single formula.  The discounts sit
where each family's classic formula puts them: Black-Scholes discounts the
spot and strike legs of its one term, and the jump series discounts its sum
once at the risk-free rate.  The two placements agree mathematically but
round differently, and keeping them keeps every price bitwise unchanged.
``strike_gamma_weight`` is the second derivative of the call pricing
function in its spot slot - the gamma bell that prices a long-dated call
off a continuum of shorter-dated ones.

All operations are pure, accept numpy arrays in the spot/strike slots
(broadcasting them), and are safe for concurrent use.  The jump series of
each ``(params, tau)`` is computed once per process and kept in a bounded
cache (``SERIES_CACHE_SIZE`` entries) on ``mjd_series_terms``: its arrays
are read-only because every caller shares them, and the cache is
thread-safe (two threads may compute one entry twice, with equal results).
A series that fails to converge raises on every call; failures are not
cached.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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

# Poisson series truncation: stop at the first term index >= MIN_TERMS past
# both legs' Poisson means where both legs' masses drop below PMF_CUTOFF;
# refuse to sum past MAX_TERMS.
MIN_TERMS = 20
PMF_CUTOFF = 1e-14
MAX_TERMS = 180
# Largest spot-leg growth exponent (r_n - q) tau a series term may carry: its
# discount e^{(r_n - q) tau} times any plausible spot stays finite, where a
# larger one overflows to inf and turns the term into NaN.
MAX_SPOT_EXPONENT = 600.0

# Distinct (params, tau) series kept by ``mjd_series_terms``.  An entry holds
# at most 3 x (MAX_TERMS + 1) floats, so a full cache stays below 5 MB.
SERIES_CACHE_SIZE = 1024

# Largest (elements x series terms) block that ``call_price`` and ``delta``
# evaluate at once, and largest block of uniforms that
# ``simulation.simulate_paths`` transforms at once; bigger blocks only
# raise peak memory.  Given an executor, the two kernels share their blocks
# between the calling thread and the executor.
MAX_BLOCK = 2 ** 15

_SQRT_2PI = math.sqrt(2.0 * math.pi)


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
        _require_finite("sigma ** 2", self.sigma * self.sigma)


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
        _require_finite("sigma ** 2", self.sigma * self.sigma)
        if self.sigma * self.sigma == 0.0:  # the n = 0 series term would have vol 0
            raise DomainError(f"sigma ** 2 must be > 0, got 0.0 from sigma {self.sigma!r}")
        try:
            g = self.g
        except OverflowError:
            g = math.inf
        _require_finite("g = expm1(mu_j + sigma_j ** 2 / 2)", g)
        try:
            variance = annualized_variance(self)
        except OverflowError:
            variance = math.inf
        _require_finite("variance sigma ** 2 + lam * (mu_j ** 2 + sigma_j ** 2)", variance)

    @property
    def g(self) -> float:
        """Mean proportional jump size, exp(mu_j + sigma_j^2 / 2) - 1."""
        return math.expm1(self.mu_j + 0.5 * self.sigma_j ** 2)


ModelSpec = Union[BsParams, MjdParams]


@dataclass(frozen=True)
class OptionRef:
    """A European call identified by strike and maturity (years)."""

    strike: float
    maturity: float

    def __post_init__(self):
        if self.strike <= 0.0 or not math.isfinite(self.strike):
            raise DomainError(f"strike must be > 0, got {self.strike!r}")
        if self.maturity <= 0.0 or not math.isfinite(self.maturity):
            raise DomainError(f"maturity must be > 0, got {self.maturity!r}")


def _as_positive_pair(S, K):
    Sa, Ka = np.asarray(S, dtype=float), np.asarray(K, dtype=float)
    # Written so that NaN fails the comparison as well as zero and +-inf.
    if not (((Sa > 0.0) & (Sa < math.inf)).all() and ((Ka > 0.0) & (Ka < math.inf)).all()):
        raise DomainError("spot and strike must be finite and strictly positive")
    return Sa, Ka


def _maybe_scalar(out):
    return float(out) if out.ndim == 0 else out


def _tau_or_intrinsic(t, T, t_name="t"):
    """Return time to expiry, or None when the option should be priced at
    intrinsic value (inside the expiry floor).  A NaN or infinite time
    raises ``DomainError`` naming it (``t_name`` for ``t``, else ``T``)."""
    tau = float(T) - float(t)
    if not math.isfinite(tau):
        _require_finite(t_name, float(t))
        _require_finite("T", float(T))
    if tau < -1e-12:
        raise DomainError(f"valuation time {t!r} is after expiry {T!r}")
    if tau <= TAU_FLOOR:
        return None
    return tau


def _read_only(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def mjd_series_terms(params: MjdParams, tau: float):
    """Poisson-mixture terms (prob_n, r_n, sigma_n) for a horizon ``tau``.

    r_n absorbs the jump compensator and the conditional mean of ``n``
    jumps; sigma_n^2 adds the per-horizon jump variance.  The two legs of a
    call weight term ``n`` by different Poisson pmfs: the strike leg by
    prob_n, the Poisson(lam tau) pmf, and the spot leg by prob_n e^{(r_n -
    r) tau} = e^{-lam g tau} (1 + g)^n prob_n, the Poisson(lam (1 + g) tau)
    pmf.  The series stops at the first index >= MIN_TERMS that is past
    both means and where both pmfs have fallen below PMF_CUTOFF, so the
    mass left out of either leg is negligible; past MAX_TERMS it raises
    ``SeriesError``, and so does a series whose spot-leg exponent
    (r_n - q) tau passes MAX_SPOT_EXPONENT.  Cached per ``(params, tau)``;
    the returned arrays are read-only.
    """
    if params.lam == 0.0:
        return _read_only(np.array([1.0]), np.array([params.r]), np.array([params.sigma]))
    lt = params.lam * tau
    lt_spot = lt * (1.0 + params.g)
    lam_g = params.lam * params.g
    drift_per_jump = params.mu_j + 0.5 * params.sigma_j ** 2
    probs, rns, sns = [], [], []
    prob = math.exp(-lt)
    prob_spot = math.exp(-lt_spot)
    n = 0
    while True:
        probs.append(prob)
        rns.append(params.r - lam_g + n * drift_per_jump / tau)
        sns.append(math.sqrt(params.sigma ** 2 + n * params.sigma_j ** 2 / tau))
        n += 1
        # only stop once past both Poisson modes, where both pmfs are decreasing
        if n >= MIN_TERMS and n > max(lt, lt_spot) and max(prob, prob_spot) < PMF_CUTOFF:
            break
        if n > MAX_TERMS:
            raise SeriesError(
                f"jump series not converged after {MAX_TERMS} terms "
                f"(lam * tau = {lt:g}, lam * (1 + g) * tau = {lt_spot:g})"
            )
        prob = prob * lt / n
        prob_spot = prob_spot * lt_spot / n
    # r_n is linear in n, so its largest value is at an end of the series
    if (max(rns[0], rns[-1]) - params.delta_yield) * tau > MAX_SPOT_EXPONENT:
        raise SeriesError(
            f"jump series spot-leg discount exceeds e^{MAX_SPOT_EXPONENT:g} "
            f"over {len(rns)} terms (log(1 + g) = {drift_per_jump:g})"
        )
    return _read_only(np.array(probs), np.array(rns), np.array(sns))


def _mixture(model: ModelSpec, tau: float):
    """``(probs, rates, vols, spot_disc, strike_disc, outer)``: the call price
    at horizon ``tau`` is ``outer`` times the probs-weighted sum of
    Black-Scholes terms with rate r_n and vol sigma_n, whose spot and strike
    legs are discounted by spot_disc_n and strike_disc_n.  Black-Scholes is
    one term of Python floats; the jump model's come from ``mjd_series_terms``.
    """
    q = model.delta_yield
    if isinstance(model, MjdParams):
        probs, rates, vols = mjd_series_terms(model, tau)
        return probs, rates, vols, np.exp((rates - q) * tau), 1.0, math.exp(-model.r * tau)
    return 1.0, model.r, model.sigma, math.exp(-q * tau), math.exp(-model.r * tau), 1.0


def _d1(Sa, Ka, tau, q, rates, vols, out=None):
    """Per-term ``d1`` on a trailing series axis, written to ``out`` (a
    fresh array when None), and ``vols sqrt(tau)``."""
    st = vols * math.sqrt(tau)
    d1 = np.add(np.log(Sa[..., None] / Ka[..., None]), (rates - q + 0.5 * vols ** 2) * tau,
                out=out)
    d1 /= st
    return d1, st


def _in_blocks(body, Sa, Ka, n_terms, n_work, executor):
    """``body(Sa, Ka, work)`` on the broadcast of ``Sa`` and ``Ka``,
    evaluated in row blocks of at most ``MAX_BLOCK`` (elements x
    ``n_terms``).

    ``body`` must be elementwise apart from a per-element sum over a
    trailing term axis, so every block gives its elements bitwise what one
    call on the whole input gives.  ``work`` holds ``n_work`` scratch
    arrays shaped like the block's (elements, terms) grid, which ``body``
    may overwrite.  Input that fits one block goes to ``body`` as it is.
    Larger input is flattened, and its blocks are shared out between the
    calling thread and, when ``executor`` is given, tasks on it; each
    thread reuses one workspace for every block it takes, and each block
    writes its own slice of the result.  ``body`` may run on a worker
    thread, so it calls no public function of the package and no
    ``mjd_series_terms``: those run on the calling thread, where the
    benchmark's span tracer follows them.
    """
    grid = np.broadcast(Sa, Ka)
    step = max(1, MAX_BLOCK // n_terms)
    if grid.size <= step:
        return body(Sa, Ka, np.empty((n_work, *grid.shape, n_terms)))
    Sf = np.broadcast_to(Sa, grid.shape).reshape(-1)
    Kf = np.broadcast_to(Ka, grid.shape).reshape(-1)
    out = np.empty(grid.size)
    blocks = range(0, grid.size, step)
    starts = iter(blocks)  # shared: each thread takes the next block

    def run():
        work = None
        for lo in starts:
            hi = min(lo + step, grid.size)
            if work is None:
                work = np.empty((n_work, step, n_terms))
            out[lo:hi] = body(Sf[lo:hi], Kf[lo:hi], work[:, :hi - lo])

    helpers = [executor.submit(run) for _ in blocks[1:]] if executor is not None else []
    run()
    for helper in helpers:
        helper.result()
    return out.reshape(grid.shape)


def call_price(model: ModelSpec, S, t, K, T, executor=None):
    """Risk-neutral price of a European call C(S, t, K, T).

    The ``_mixture`` sum of Black-Scholes prices with per-term rate r_n and
    vol sigma_n: one term under plain GBM, the Poisson-weighted series under
    jump diffusion.  ``S`` and ``K`` broadcast.  The sum is evaluated in
    blocks of at most ``MAX_BLOCK`` (elements x series terms), shared
    between the calling thread and ``executor`` (a
    ``concurrent.futures.ThreadPoolExecutor``: the blocks write into one
    shared result) when one is given; the result does not depend on either.
    """
    Sa, Ka = _as_positive_pair(S, K)
    tau = _tau_or_intrinsic(t, T)
    if tau is None:
        return _maybe_scalar(np.maximum(Sa - Ka, 0.0))
    probs, rates, vols, spot_disc, strike_disc, outer = _mixture(model, tau)
    q = model.delta_yield

    def body(Sa, Ka, work):
        # probs ((S spot_disc) N(d1) - (K strike_disc) N(d1 - st)) in the
        # workspace, with the rounding of that expression
        d1, terms, spot_leg = work
        d1, st = _d1(Sa, Ka, tau, q, rates, vols, out=d1)
        ndtr(d1, out=terms)
        terms *= np.multiply(Sa[..., None], spot_disc, out=spot_leg)
        d1 -= st
        strike_leg = ndtr(d1, out=d1)
        strike_leg *= Ka[..., None] * strike_disc
        terms -= strike_leg
        terms *= probs
        return outer * terms.sum(axis=-1)

    return _maybe_scalar(np.asarray(_in_blocks(body, Sa, Ka, np.size(probs), 3, executor)))


def call_marks(model: ModelSpec, S, t, pairs, executor=None) -> dict:
    """Mark each distinct ``(strike, maturity)`` in ``pairs`` once at spot
    ``S`` and time ``t``; returns ``{(strike, maturity): price}``.

    The strikes of one maturity share one ``call_price`` call on a leading
    strike axis, which blocks the work and shares it with ``executor`` (see
    ``call_price``).  Pricing is elementwise and sums the series per
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
        strike_axis = np.array(strikes, dtype=float).reshape((-1,) + (1,) * Sa.ndim)
        prices = call_price(model, Sa, t, strike_axis, maturity, executor)
        columns = prices.tolist() if Sa.ndim == 0 else prices
        marks.update(zip(((strike, maturity) for strike in strikes), columns))
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


def delta(model: ModelSpec, S, t, K, T, executor=None):
    """Spot sensitivity dC/dS of the call pricing function.

    The exact derivative of the ``_mixture`` sum, outer * sum_n Pr(n)
    spot_disc_n N(d1_n); for the jump model a finite-difference
    cross-check pins it down to ~1e-8.  Blocked, and shared with
    ``executor``, as ``call_price`` is.
    """
    Sa, Ka = _as_positive_pair(S, K)
    tau = _tau_or_intrinsic(t, T)
    if tau is None:
        raise DomainError("delta undefined at or after expiry")
    probs, rates, vols, spot_disc, _, outer = _mixture(model, tau)
    q = model.delta_yield

    def body(Sa, Ka, work):
        d1, _ = _d1(Sa, Ka, tau, q, rates, vols, out=work[0])
        terms = ndtr(d1, out=d1)
        terms *= probs * spot_disc
        return outer * terms.sum(axis=-1)

    return _maybe_scalar(np.asarray(_in_blocks(body, Sa, Ka, np.size(probs), 1, executor)))


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
    tau = _tau_or_intrinsic(u, T, "u")
    if tau is None:
        raise DomainError(f"weight undefined for u >= T (u={u!r}, T={T!r})")
    probs, rates, vols, spot_disc, _, outer = _mixture(model, tau)
    d1, st = _d1(xa, Ka, tau, model.delta_yield, rates, vols)
    # probs spot_disc n(d1) / (x st), with the normal density n in place
    terms = np.square(d1, out=d1)
    terms *= -0.5
    np.exp(terms, out=terms)
    terms /= _SQRT_2PI
    terms *= probs * spot_disc
    terms /= xa[..., None] * st
    return _maybe_scalar(np.asarray(outer * terms.sum(axis=-1)))


def annualized_variance(model: ModelSpec) -> float:
    """Total per-year return variance V of either model: sigma^2 under plain
    GBM, sigma^2 + lam (mu_j^2 + sigma_j^2) under jump diffusion."""
    if isinstance(model, MjdParams):
        return model.sigma ** 2 + model.lam * (model.mu_j ** 2 + model.sigma_j ** 2)
    return model.sigma ** 2
