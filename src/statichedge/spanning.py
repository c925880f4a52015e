"""Static hedge portfolio construction and inception-error diagnostics.

A long-dated call is replicated with baskets of shorter-dated calls in two
families:

* ``CW_a`` / ``CW_b``: Gauss-Hermite ladders.  A log-normal change of
  variables turns the gamma-weighted spanning integral into a Hermite
  integral, so the ladder strikes are the Hermite nodes mapped through
  ``hermite_strike_map``.  ``CW_a`` picks the largest ladder that fits the
  available strike band; ``CW_b`` uses a fixed order and drops rungs that
  fall outside the band.
* ``GQ1`` / ``GQ2`` / ``GQn``: band-limited Gauss-Legendre hedges.  ``GQ1``
  quadratures the gamma weight over one maturity's strike band.  Adding a
  second (shorter) maturity re-spans the strike mass the first band could
  not reach: its legs carry the ``modified_weight`` obtained by pushing the
  excluded gamma mass through the inter-maturity gamma kernel.  ``GQn``
  iterates the same construction over up to four maturities.

``build_sweep`` builds every static hedge of every value of a sweep in
one pass.  The GQ hedges are nested: ``GQ1`` takes the first level of a
Legendre recursion, ``GQ2`` its first two and ``GQn`` every level.  The
excluded mass a level carries down depends on the model and the band
prefix above it but not on the order, and a Hermite ladder on the maturity
and the order but not on the band, so each is computed once per call,
keyed by what it reads, and shared by every method and value that needs
it.  One ``call_marks`` pass per distinct model then marks the target and
every leg at inception.  The five public builders are its one-case,
one-method calls.

Every portfolio records ``b0``, the signed cash residual that makes the
package worth exactly the target at inception (invested at the risk-free
rate by the simulation harness).  ``edl`` is the matching inception
diagnostic, reported as hedge value minus target value.
"""
from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SingularMaturityError, SpanningError
from .models import (
    ModelSpec,
    OptionRef,
    annualized_variance,
    call_marks,
    call_price,  # noqa: F401 - bench/test_bench.py checks the tracer rebinds it here
    strike_gamma_weight,
)
from .quadrature import HERMITE, LAGUERRE, LEGENDRE, ORDER_CAP, make_rule, map_to_interval

__all__ = [
    "StrikeBand",
    "HedgeLeg",
    "HedgePortfolio",
    "ModifiedWeightConfig",
    "hermite_strike_map",
    "build_cw_a",
    "build_cw_b",
    "build_gq1",
    "build_gq2",
    "build_gq_n",
    "build_sweep",
    "modified_weight",
    "portfolio_value",
    "edl",
    "pdl",
    "leg_table",
    "portfolio_to_csv",
    "portfolio_from_csv",
]

# Reject short maturities closer than this gap: the inter-maturity kernel
# has the maturity spacing in its denominator and degenerates as it closes.
MATURITY_GAP = 1e-4

# Builders recurse over at most this many short maturities; the nested
# re-spanning cost grows with each level.
MAX_BANDS = 4

# A first-level band that covers the target's gamma bell out to this many
# widths either side of its centre gets its nodes on the bell, in log-strike.
BELL_WIDTHS = 10.0

# Each static method: the leading bands it hedges with (None: all of them,
# 1 to MAX_BANDS) and the quadrature rule its order ``n`` sizes.  ``CW_a``
# picks its own order and ignores ``n``, which is still held to the cap.
STATIC_METHODS = {
    "CW_a": (1, HERMITE),
    "CW_b": (1, HERMITE),
    "GQ1": (1, LEGENDRE),
    "GQ2": (2, LEGENDRE),
    "GQn": (None, LEGENDRE),
}


@dataclass(frozen=True)
class StrikeBand:
    """Available strike interval [lo, hi] for options of one maturity."""

    maturity: float
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.maturity > 0.0 and math.isfinite(self.maturity)):
            raise SpanningError(f"band maturity must be > 0, got {self.maturity!r}")
        if not (0.0 <= self.lo < self.hi):
            raise SpanningError(f"need 0 <= lo < hi, got [{self.lo!r}, {self.hi!r}]")
        if not math.isfinite(self.hi):
            raise SpanningError("band upper strike must be finite")

    def contains(self, strike: float) -> bool:
        return self.lo <= strike <= self.hi


@dataclass(frozen=True)
class HedgeLeg:
    """One short-maturity call position: strike, maturity, signed quantity."""

    strike: float
    maturity: float
    weight: float


@dataclass(frozen=True)
class HedgePortfolio:
    """A static basket of short-maturity calls plus the cash residual ``b0``.

    ``b0 = target value - sum of leg values`` at inception, so the package
    (legs + cash) matches the target exactly at time 0; legs are sorted by
    (maturity, strike).
    """

    target: OptionRef
    spot: float
    legs: tuple[HedgeLeg, ...]
    b0: float
    method_tag: str

    @property
    def maturities(self) -> tuple[float, ...]:
        return tuple(sorted({leg.maturity for leg in self.legs}))


@dataclass(frozen=True)
class ModifiedWeightConfig:
    """Inner quadrature orders for the excluded-region integrals: a Legendre
    rule below the band and a shifted Laguerre rule above it.  Each order
    lies in ``[1, ORDER_CAP]`` of its rule."""

    n_inner_gq: int = 5
    n_laguerre: int = 20

    def __post_init__(self):
        for name, kind in (("n_inner_gq", LEGENDRE), ("n_laguerre", LAGUERRE)):
            n = getattr(self, name)
            if not 1 <= n <= ORDER_CAP[kind]:
                raise SpanningError(f"{name}: {kind} order must lie in "
                                    f"[1, {ORDER_CAP[kind]}], got {n!r}")


def check_band_order(bands, target: OptionRef):
    """Require band maturities to precede the target's and to strictly
    decrease; messages name ``bands[i].maturity``.  The minimum gap between
    maturities is guarded by the carry step (``_level_weight``) instead."""
    for i, band in enumerate(bands):
        if band.maturity >= target.maturity:
            raise SpanningError(
                f"bands[{i}].maturity: must precede target maturity {target.maturity}"
            )
    for i in range(1, len(bands)):
        if bands[i].maturity >= bands[i - 1].maturity:
            raise SpanningError(
                f"bands[{i}].maturity: maturities must strictly decrease "
                f"(non-decreasing step {bands[i - 1].maturity!r} -> {bands[i].maturity!r})"
            )


def check_method(name: str, n, bands) -> int:
    """The number of leading ``bands`` static method ``name`` hedges with.

    Requires enough bands (at least one for ``GQn``), at most ``MAX_BANDS``
    for ``GQn``, and an order ``n`` (None: unchecked) in ``[1, ORDER_CAP]``
    of the rule it sizes; raises ``SpanningError``."""
    if name not in STATIC_METHODS:
        raise SpanningError(f"unknown static method {name!r}")
    depth, rule = STATIC_METHODS[name]
    depth = depth or max(len(bands), 1)
    if len(bands) < depth:
        raise SpanningError(f"{name} requires {depth} band(s), got {len(bands)}")
    if depth > MAX_BANDS:
        raise SpanningError(f"{name} spans at most {MAX_BANDS} maturities, got {depth}")
    if n is not None and not 1 <= n <= ORDER_CAP[rule]:
        bound = ">= 1" if n < 1 else f"<= {ORDER_CAP[rule]}"
        raise SpanningError(f"{name} uses {rule} rules of order {bound}, got {n!r}")
    return depth


def _hermite_strikes(model: ModelSpec, K: float, T: float, u: float, n: int):
    """The order-``n`` Hermite rule, its strikes mapped to maturity ``u``
    and the spread ``s`` of the map (see ``hermite_strike_map``)."""
    if u >= T:
        raise SpanningError(f"need u < T, got u={u!r}, T={T!r}")
    tau = T - u
    var = annualized_variance(model)
    spread = math.sqrt(2.0 * var * tau)
    drift = (model.delta_yield - model.r - 0.5 * var) * tau
    rule = make_rule(HERMITE, n)
    return rule, K * np.exp(rule.nodes * spread + drift), spread


def hermite_strike_map(model: ModelSpec, K: float, T: float, u: float, n: int):
    """Hermite ladder of ``n`` (strike, weight) pairs for maturity ``u``.

    Strikes follow the log-normal map ``K exp(x_j s + (q - r - V/2)(T-u))``
    with ``s = sqrt(2 V (T-u))``, where V is the diffusion variance under
    plain GBM and the total annualized variance under jump diffusion.  Each
    weight is the gamma weight at the mapped strike times the Jacobian of
    the map, divided by the Hermite density ``e^{-x_j^2}``.  Strikes come
    out ascending.
    """
    rule, strikes, spread = _hermite_strikes(model, K, T, u, n)
    gammas = strike_gamma_weight(model, strikes, u, K, T)
    weights = gammas * strikes * spread * rule.weights * np.exp(rule.nodes ** 2)
    return list(zip(strikes.tolist(), np.asarray(weights).reshape(-1).tolist()))


def _excluded_region_rule(band: StrikeBand, cfg: ModifiedWeightConfig):
    """Quadrature nodes/weights for integrals over [0, lo] union [hi, inf).

    The left piece is a mapped Legendre rule (skipped when ``lo == 0``: the
    interval is zero-width and Legendre nodes are interior anyway).  The
    right tail is a shifted Laguerre rule with the exponential weight
    divided back out; the gamma-kernel integrands decay log-normally,
    much faster than ``e^{-x}``, so a modest order suffices.
    """
    nodes, weights = [], []
    if band.lo > 0.0:
        inner = map_to_interval(make_rule(LEGENDRE, cfg.n_inner_gq), 0.0, band.lo)
        nodes.append(inner.nodes)
        weights.append(inner.weights)
    lag = make_rule(LAGUERRE, cfg.n_laguerre)
    nodes.append(lag.nodes + band.hi)
    weights.append(lag.weights * np.exp(lag.nodes))
    return np.concatenate(nodes), np.concatenate(weights)


def _level_weight(model, target, x, u, carry):
    """Evaluate the spanning weight for maturity ``u`` at strikes ``x``.

    ``carry`` is None at the first (longest) short maturity, where the
    weight is the target option's gamma; deeper levels push the previous
    level's excluded mass through the inter-maturity gamma kernel, which
    is guarded here against maturities closer than ``MATURITY_GAP``.
    """
    x = np.asarray(x, dtype=float)
    if carry is None:
        return strike_gamma_weight(model, x, u, target.strike, target.maturity)
    prev_nodes, prev_vals, prev_u = carry
    if prev_u - u < MATURITY_GAP:
        raise SingularMaturityError(
            f"maturity {u!r} must precede {prev_u!r} by at least the "
            f"{MATURITY_GAP:g}-year guard; the inter-maturity weight degenerates there"
        )
    kernel = strike_gamma_weight(model, x[..., None], u, prev_nodes, prev_u)
    return kernel @ prev_vals


def _level_rule(model, target, band, n, first):
    """The strikes and weights of a level's order-``n`` Legendre rule on
    ``band``.  The first level's weight, the target's gamma, is a bell in
    log-strike of centre c = ln K - (r - q + V/2)(T - u) and width s =
    sqrt(V (T - u)), V the ``annualized_variance``; a band that covers
    [exp(c - L s), exp(c + L s)], L = ``BELL_WIDTHS``, gets its nodes there in
    log-strike, each weight times its strike (in strike, they would straddle
    the bell).  Any other band or level keeps the rule in strike."""
    rule = make_rule(LEGENDRE, n)
    if first:
        tau, var = target.maturity - band.maturity, annualized_variance(model)
        centre = math.log(target.strike) - (model.r - model.delta_yield + 0.5 * var) * tau
        half = BELL_WIDTHS * math.sqrt(var * tau)
        # the upper test first: once it holds, exp(centre - half) cannot overflow
        if centre + half <= math.log(band.hi) and band.lo <= math.exp(centre - half):
            bell = map_to_interval(rule, centre - half, centre + half)
            strikes = np.exp(bell.nodes)
            return strikes, bell.weights * strikes
    rule = map_to_interval(rule, band.lo, band.hi)
    return rule.nodes, rule.weights


def _excluded_mass(model, target, band, cfg, carry):
    """The carry for the next level: ``band``'s excluded-region nodes, their
    quadrature-weighted spanning weights, and the band maturity."""
    nodes, wts = _excluded_region_rule(band, cfg)
    return nodes, wts * _level_weight(model, target, nodes, band.maturity, carry), band.maturity


def _outside_stacklevel():
    """The ``warnings.warn`` stacklevel, counted from the caller of this
    function, of the first frame outside this module."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    return level


def _cw_a_legs(model, target, band, ladder):
    """The largest ``ladder(model, u, n)`` whose strikes all fit ``band``.

    The order search maps strikes only; the gamma weight is evaluated at
    the chosen order, or at order 1 before the centre strike is rejected.
    A strike the weight rejects (0 or inf) ends the search too, and the
    ladder of that order then raises the weight's error, so errors come as
    when every trial order was weighted.
    """
    u, n, fits = band.maturity, 0, True
    while fits and n < ORDER_CAP[HERMITE]:
        _, strikes, _ = _hermite_strikes(model, target.strike, target.maturity, u, n + 1)
        fits = all(band.contains(k) and k > 0.0 for k in strikes.tolist())
        n += fits
    pairs = ladder(model, u, max(n, 1))
    if not fits and not all(0.0 < k < math.inf for k in strikes.tolist()):
        ladder(model, u, n + 1)  # raises: the weight rejects these strikes
    if n == 0:
        raise SpanningError(
            f"band [{band.lo}, {band.hi}] excludes the hermite center strike "
            f"{pairs[0][0]:.4f}"
        )
    return [HedgeLeg(k, u, w) for k, w in pairs]


def _inception_pairs(target, method_legs):
    """Each method's (strike, maturity) pairs, its legs then the target."""
    for legs in method_legs:
        for leg in legs:
            yield leg.strike, leg.maturity
        yield target.strike, target.maturity


def _inception_marks(S, target, built):
    """``{model: marks}`` at inception for the ``(model, {method: legs})``
    of ``built``: one ``call_marks`` pass per distinct model over its cases'
    pairs in case order.  On a pricing error every case is priced on its
    own, in order, so the error raised is the one that order meets first."""
    pairs = {}
    for model, legs in built:
        pairs.setdefault(model, []).extend(_inception_pairs(target, legs.values()))
    try:
        return {model: call_marks(model, S, 0.0, p) for model, p in pairs.items()}
    except NumericalError:
        for model, legs in built:
            call_marks(model, S, 0.0, _inception_pairs(target, legs.values()))
        raise


def _priced(target, S, name, legs, marks):
    """The portfolio of ``legs`` with ``b0`` the target mark minus the
    weighted leg marks."""
    price = marks[target.strike, target.maturity]
    return HedgePortfolio(target, float(S), legs, float(price - _legs_value(legs, marks)), name)


def build_sweep(
    target: OptionRef,
    S: float,
    cases,
    cfg: ModifiedWeightConfig = ModifiedWeightConfig(),
) -> list:
    """Every static hedge of every case of a sweep in one pass.

    ``cases`` lists one ``(model, bands, orders)`` per sweep value, in
    value order, where ``orders`` maps each method (``CW_a``, ``CW_b``,
    ``GQ1``, ``GQ2``, ``GQn``) to its quadrature order (``CW_a`` picks its
    own and ignores it).  Returns one ``{method: HedgePortfolio}`` per
    case, in the order of its ``orders``.

    ``CW_a`` and ``CW_b`` hedge with ``bands[0]``, ``GQ1`` and ``GQ2``
    with the first one and two bands, and ``GQn`` with all of them.  The
    GQ hedges are nested: the ``GQ2`` legs are the ``GQ1`` legs plus a
    second level, and the mass a level carries down never depends on the
    order.  So each carry, each GQ level, each Hermite ladder and each
    method's legs is computed once for the whole call, by the cached
    closures below, each keyed by the frozen model, the band prefix and the
    order it reads; ``cfg`` sizes the excluded-region rules of levels past
    the first.  Then one ``call_marks`` pass per distinct model marks the
    target and every leg at inception, and each ``b0`` is the target mark
    minus the weighted leg marks summed in leg order.  Nothing outlives the
    call, and a failure caches nothing, so only finished work is reused.

    Cases are built in order, and each case's methods in the order of its
    ``orders``; the first one that fails raises, unless the inception
    pricing of an earlier case or method fails, which comes first.
    """

    @functools.cache
    def ladder(model, u, n):
        return hermite_strike_map(model, target.strike, target.maturity, u, n)

    @functools.cache
    def carry(model, bands):
        """The excluded mass carried past the last of ``bands``: None for
        no band, where the level weight is the target's gamma."""
        if not bands:
            return None
        return _excluded_mass(model, target, bands[-1], cfg, carry(model, bands[:-1]))

    @functools.cache
    def level(model, bands, n):
        """The order-``n`` Legendre legs of the last of ``bands``."""
        into, band = carry(model, bands[:-1]), bands[-1]
        strikes, weights = _level_rule(model, target, band, n, into is None)
        wt = _level_weight(model, target, strikes, band.maturity, into)
        return [HedgeLeg(k, band.maturity, w)
                for k, w in zip(strikes.tolist(), (weights * wt).tolist())]

    @functools.cache
    def method_legs(name, model, bands, n):
        """Legs of static method ``name`` on the ``bands`` it hedges with,
        sorted by (maturity, strike)."""
        if name == "CW_a":
            legs = _cw_a_legs(model, target, bands[0], ladder)
        elif name == "CW_b":
            # the rungs of the order-n ladder inside the band
            legs = [HedgeLeg(k, bands[0].maturity, w)
                    for k, w in ladder(model, bands[0].maturity, n) if bands[0].contains(k)]
        else:
            legs = [leg for depth in range(1, len(bands) + 1)
                    for leg in level(model, bands[:depth], n)]
        return tuple(sorted(legs, key=lambda leg: (leg.maturity, leg.strike)))

    built = []
    try:
        for model, bands, orders in cases:
            bands, legs = tuple(bands), {}
            built.append((model, legs))
            for name, n in orders.items():
                depth = check_method(name, n, bands)
                check_band_order(bands[:depth], target)
                legs[name] = method_legs(name, model, bands[:depth], None if name == "CW_a" else n)
                if name == "CW_b" and not legs[name]:  # for every case, naming the caller
                    warnings.warn(f"all {n} hermite strikes fall outside "
                                  f"[{bands[0].lo}, {bands[0].hi}]; portfolio is pure cash",
                                  stacklevel=_outside_stacklevel())
    finally:
        carry = None  # the one self-referencing cache: freed on return, not by the cycle collector
        # Also after a failed build: a pricing error of an earlier case or
        # method comes first, as when each case was priced after its build.
        marks = _inception_marks(S, target, built)
    return [{name: _priced(target, S, name, hedge, marks[model])
             for name, hedge in legs.items()} for model, legs in built]


def build_cw_a(model: ModelSpec, target: OptionRef, S: float, band: StrikeBand) -> HedgePortfolio:
    """Largest Hermite ladder whose strikes all fit inside the band: the
    one-case, one-method call of ``build_sweep``.

    The order search starts at 1 and stops at the first order with a strike
    outside ``[band.lo, band.hi]``; the previous order wins.
    """
    return build_sweep(target, S, [(model, [band], {"CW_a": None})])[0]["CW_a"]


def build_cw_b(model: ModelSpec, target: OptionRef, S: float, band: StrikeBand, n: int) -> HedgePortfolio:
    """Fixed-order Hermite ladder with out-of-band strikes dropped (warns
    when none is left): the one-case, one-method call of ``build_sweep``."""
    return build_sweep(target, S, [(model, [band], {"CW_b": n})])[0]["CW_b"]


def build_gq1(model: ModelSpec, target: OptionRef, S: float, band: StrikeBand, n: int) -> HedgePortfolio:
    """Single-maturity Legendre hedge: leg strikes at the mapped nodes of an
    order-``n`` rule on the band, weighted by the gamma weight there; the
    one-case, one-method call of ``build_sweep``."""
    return build_sweep(target, S, [(model, [band], {"GQ1": n})])[0]["GQ1"]


def build_gq2(
    model: ModelSpec,
    target: OptionRef,
    S: float,
    band1: StrikeBand,
    band2: StrikeBand,
    n: int,
    cfg: ModifiedWeightConfig = ModifiedWeightConfig(),
) -> HedgePortfolio:
    """Two-maturity hedge: band1 legs as in ``build_gq1`` plus band2 legs
    carrying the modified weight that re-spans band1's excluded strike
    mass; the one-case, one-method call of ``build_sweep``."""
    return build_sweep(target, S, [(model, [band1, band2], {"GQ2": n})], cfg)[0]["GQ2"]


def build_gq_n(
    model: ModelSpec,
    target: OptionRef,
    S: float,
    bands,
    n: int,
    cfg: ModifiedWeightConfig = ModifiedWeightConfig(),
) -> HedgePortfolio:
    """Iterated multi-maturity hedge over strictly decreasing maturities:
    the one-case, one-method call of ``build_sweep``.

    Each level's weight pushes the previous level's out-of-band mass
    through the inter-maturity gamma kernel; with one band this reduces to
    ``build_gq1`` and with two it reproduces ``build_gq2`` exactly.
    """
    return build_sweep(target, S, [(model, bands, {"GQn": n})], cfg)[0]["GQn"]


def modified_weight(
    model: ModelSpec,
    target: OptionRef,
    k2,
    band1: StrikeBand,
    u2: float,
    cfg: ModifiedWeightConfig = ModifiedWeightConfig(),
):
    """Second-maturity weight: the gamma mass excluded by ``band1`` pushed
    down to maturity ``u2``.

    Computes ``integral over [0, lo] union [hi, inf) of w(y) w2(k2, y) dy``
    with ``w`` the target's gamma weight at the band maturity and ``w2`` the
    inter-maturity gamma kernel, using the configured inner rules.
    Nonnegative for every ``k2`` since both factors are gamma densities;
    identically ~0 when the band excludes nothing.  ``k2`` may be a scalar
    or an array.
    """
    carry = _excluded_mass(model, target, band1, cfg, None)
    out = _level_weight(model, target, k2, u2, carry)
    return float(out) if np.ndim(k2) == 0 else out


def portfolio_value(portfolio: HedgePortfolio, model: ModelSpec, S, t: float):
    """Mark the legs (only) at spot ``S`` and time ``t``; legs at maturity
    are worth intrinsic value.  The cash residual ``b0`` is not included.

    Each maturity's strikes are priced in one ``call_marks`` pass and the
    weighted marks are summed in leg order."""
    marks = call_marks(model, S, t, ((leg.strike, leg.maturity) for leg in portfolio.legs))
    return _legs_value(portfolio.legs, marks)


def _legs_value(legs, marks, total=0.0):
    """``total`` plus the weighted ``marks[strike, maturity]`` of ``legs``,
    added in leg order: the one leg sum of inception pricing,
    ``portfolio_value`` and ``simulation.static_hedge_runs``."""
    for leg in legs:
        total = total + leg.weight * marks[leg.strike, leg.maturity]
    return total


def edl(target_value: float, hedge_value: float) -> float:
    """Signed inception error of a hedge: hedge value minus target value.

    Negative values mean the basket is worth less than the target (the
    shortfall is borrowed as ``b0 = -edl`` to complete the package); this
    is the sign convention used throughout the reported comparisons.
    """
    return hedge_value - target_value


def pdl(edl_gq1: float, edl_gq2: float) -> float | None:
    """Percentage decrease in loss from adding the second maturity:
    (|edl_gq1| - |edl_gq2|) / |edl_gq1| * 100, or None when the GQ1 loss
    is zero and the percentage is undefined."""
    if edl_gq1 == 0.0:
        return None
    return (abs(edl_gq1) - abs(edl_gq2)) / abs(edl_gq1) * 100.0


_HEADER_PREFIX = "# "


def leg_table(portfolio: HedgePortfolio) -> list[str]:
    """The leg table as text lines: the ``maturity,strike,weight`` header,
    then one row per leg at full float precision (``repr``)."""
    return ["maturity,strike,weight"] + [
        f"{leg.maturity!r},{leg.strike!r},{leg.weight!r}" for leg in portfolio.legs
    ]


def portfolio_to_csv(portfolio: HedgePortfolio, path):
    """Serialize to the flat record format: ``key=value`` header comments
    (method tag, target descriptor, spot, b0) then one ``maturity,strike,
    weight`` row per leg, full float precision."""
    lines = [
        "# statichedge portfolio v1",
        f"# method_tag={portfolio.method_tag}",
        "# target_kind=call",
        f"# target_strike={portfolio.target.strike!r}",
        f"# target_maturity={portfolio.target.maturity!r}",
        f"# spot={portfolio.spot!r}",
        f"# b0={portfolio.b0!r}",
    ]
    lines.extend(leg_table(portfolio))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def portfolio_from_csv(path) -> HedgePortfolio:
    """Inverse of ``portfolio_to_csv``.  A file that is not UTF-8 text, a
    missing, non-numeric or non-finite number, a strike, maturity or spot
    <= 0, or a ``target_kind`` other than call raises ``SpanningError``
    naming the file (and the row or header field)."""
    meta = {}
    legs = []
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [line.strip() for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise SpanningError(f"portfolio file {path}: not UTF-8 text ({exc})") from exc
    for line in rows:
        if line.startswith(_HEADER_PREFIX.strip()):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
        elif line and not line.startswith("maturity"):
            try:
                maturity, strike, weight = (float(part) for part in line.split(","))
            except ValueError as exc:
                raise SpanningError(
                    f"portfolio file {path}: malformed leg row {line!r}"
                ) from exc
            # Written so that NaN fails the comparisons too.
            if not (0.0 < maturity < math.inf and 0.0 < strike < math.inf
                    and math.isfinite(weight)):
                raise SpanningError(f"portfolio file {path}: leg row {line!r} needs a finite "
                                    "maturity and strike > 0 and a finite weight")
            legs.append(HedgeLeg(strike, maturity, weight))

    def header(key, positive=True):
        if key not in meta:
            raise SpanningError(f"portfolio file {path} missing header field {key!r}")
        try:
            value = float(meta[key])
        except ValueError:
            value = math.nan  # not a number: rejected below
        if not math.isfinite(value) or (positive and value <= 0.0):
            raise SpanningError(f"portfolio file {path}: header field {key}={meta[key]!r} "
                                f"must be finite{' and > 0' if positive else ''}")
        return value

    kind = meta.get("target_kind", "call")
    if kind != "call":
        raise SpanningError(f"portfolio file {path}: header field target_kind={kind!r} "
                            "must be 'call'")
    return HedgePortfolio(
        target=OptionRef(header("target_strike"), header("target_maturity")),
        spot=header("spot"),
        legs=tuple(sorted(legs, key=lambda leg: (leg.maturity, leg.strike))),
        b0=header("b0", positive=False),
        method_tag=meta.get("method_tag", "unknown"),
    )
