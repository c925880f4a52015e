import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from statichedge import (
    BsParams,
    DomainError,
    HedgePortfolio,
    MjdParams,
    ModifiedWeightConfig,
    OptionRef,
    SeriesError,
    SingularMaturityError,
    SpanningError,
    StrikeBand,
    build_cw_a,
    build_cw_b,
    build_gq1,
    build_gq2,
    build_gq_n,
    build_sweep,
    call_price,
    edl,
    hermite_strike_map,
    make_rule,
    map_to_interval,
    modified_weight,
    pdl,
    portfolio_from_csv,
    portfolio_to_csv,
    portfolio_value,
    strike_gamma_weight,
)

from conftest import BS_TARGET_PRICE, MATURITY, MJD_TARGET_PRICE, SPOT, STRIKE, U1, U2


def portfolio_edl(portfolio: HedgePortfolio) -> float:
    """Inception error (hedge minus target); b0 absorbs exactly the negative."""
    return -portfolio.b0


# ---------------------------------------------------------------------------
# Hermite strike ladders
# ---------------------------------------------------------------------------


def test_hermite_map_single_point_is_center(bs_model):
    ((strike, weight),) = hermite_strike_map(bs_model, STRIKE, MATURITY, U1, 1)
    tau = MATURITY - U1
    center = STRIKE * math.exp(
        (bs_model.delta_yield - bs_model.r - 0.5 * bs_model.sigma ** 2) * tau
    )
    assert strike == pytest.approx(center, rel=1e-12)
    assert weight > 0


def test_hermite_map_two_point_error(bs_model, target):
    pairs = hermite_strike_map(bs_model, STRIKE, MATURITY, U1, 2)
    hedge = sum(w * call_price(bs_model, SPOT, 0.0, k, U1) for k, w in pairs)
    assert edl(BS_TARGET_PRICE, hedge) == pytest.approx(0.9464, abs=5e-4)


def test_hermite_map_strikes_ascend(bs_model, mjd_model):
    for model in (bs_model, mjd_model):
        strikes = [k for k, _ in hermite_strike_map(model, STRIKE, MATURITY, U1, 12)]
        assert strikes == sorted(strikes)


def test_hermite_map_mjd_three_point_error(mjd_model):
    # The three-rung jump-model ladder misprices by -2.246 at these
    # parameters (the reference comparisons round it to -2.24).
    pairs = hermite_strike_map(mjd_model, STRIKE, MATURITY, U1, 3)
    hedge = sum(w * call_price(mjd_model, SPOT, 0.0, k, U1) for k, w in pairs)
    assert edl(MJD_TARGET_PRICE, hedge) == pytest.approx(-2.246, abs=1e-2)


def test_hermite_map_rejects_late_maturity(bs_model):
    with pytest.raises(SpanningError):
        hermite_strike_map(bs_model, STRIKE, MATURITY, MATURITY, 3)


# ---------------------------------------------------------------------------
# CW builders
# ---------------------------------------------------------------------------


def test_cw_a_wide_band(bs_model, target):
    portfolio = build_cw_a(bs_model, target, SPOT, StrikeBand(U1, 0.0, 130.0))
    assert len(portfolio.legs) == 2
    assert portfolio_edl(portfolio) == pytest.approx(0.9464, abs=5e-4)
    assert portfolio.method_tag == "CW_a"


def test_cw_a_narrow_band(bs_model, target):
    portfolio = build_cw_a(bs_model, target, SPOT, StrikeBand(U1, 80.0, 120.0))
    assert len(portfolio.legs) == 1
    assert portfolio_edl(portfolio) == pytest.approx(-3.8, abs=0.05)


def test_cw_a_narrow_band_mjd(mjd_model, target):
    portfolio = build_cw_a(mjd_model, target, SPOT, StrikeBand(U1, 80.0, 120.0))
    assert len(portfolio.legs) == 1
    assert portfolio_edl(portfolio) == pytest.approx(-2.54, abs=0.01)


def test_cw_a_center_excluded(bs_model, target):
    with pytest.raises(SpanningError, match="center"):
        build_cw_a(bs_model, target, SPOT, StrikeBand(U1, 120.0, 130.0))


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
def test_cw_a_keeps_the_last_order_before_a_strike_underflows(target):
    # At sigma 30 the order-163 ladder is the first with a strike that
    # underflows to 0: the order search stops there, and order 162 wins
    # without order 163 ever being weighted.  Its 4.9e-322 strike overflows
    # a division while pricing, hence the filtered warning.
    model = BsParams(0.06, 0.0, 30.0)
    ladder = hermite_strike_map(model, STRIKE, MATURITY, 0.5, 162)
    with pytest.raises(DomainError, match="^spot and strike must be finite and strictly positive$"):
        hermite_strike_map(model, STRIKE, MATURITY, 0.5, 163)
    portfolio = build_cw_a(model, target, SPOT, StrikeBand(0.5, 0.0, 1e300))
    assert [(leg.strike, leg.weight) for leg in portfolio.legs] == ladder
    assert len(ladder) == 162 and ladder[0][0] > 0.0
    assert abs(portfolio.b0) < 1e-10


def test_cw_b_survivor_counts_and_errors(bs_model, target):
    band = StrikeBand(U1, 0.0, 130.0)
    p25 = build_cw_b(bs_model, target, SPOT, band, 25)
    assert len(p25.legs) == 15
    assert portfolio_edl(p25) == pytest.approx(3.2e-5, abs=5e-4)
    p10 = build_cw_b(bs_model, target, SPOT, band, 10)
    assert len(p10.legs) == 6
    assert portfolio_edl(p10) == pytest.approx(-0.01357, abs=5e-4)


def test_cw_b_mjd_high_order(mjd_model, target):
    portfolio = build_cw_b(mjd_model, target, SPOT, StrikeBand(U1, 0.0, 150.0), 100)
    assert len(portfolio.legs) == 56
    assert portfolio_edl(portfolio) == pytest.approx(-6.82e-6, abs=2e-5)


def test_cw_b_all_dropped(bs_model, target):
    band = StrikeBand(U1, 200.0, 210.0)
    with pytest.warns(UserWarning, match="pure cash"):
        portfolio = build_cw_b(bs_model, target, SPOT, band, 3)
    assert portfolio.legs == ()
    assert portfolio.b0 == pytest.approx(
        call_price(bs_model, SPOT, 0.0, STRIKE, MATURITY)
    )


def test_cw_b_warning_names_the_caller_of_the_public_builder(bs_model, target):
    band = StrikeBand(U1, 200.0, 210.0)
    with pytest.warns(UserWarning, match="pure cash") as record:
        build_cw_b(bs_model, target, SPOT, band, 3)
        build_sweep(target, SPOT, [(bs_model, [band], {"CW_b": 3})])
        # once per CW_b build of each case, the shared ladder notwithstanding
        build_sweep(target, SPOT, [(bs_model, [band], {"CW_b": 3})] * 2)
    assert [w.filename for w in record] == [__file__] * 4


def test_sweep_pricing_error_is_the_first_in_case_order(monkeypatch, bs_model, mjd_model,
                                                        target):
    # Pricing fails for the jump model everywhere and for the diffusion model
    # only at the third case's band maturity.  Case by case the jump model's
    # case fails first, although the diffusion model's pass is the first one.
    from statichedge import spanning

    marks = spanning.call_marks

    def failing_marks(model, S, t, pairs):
        pairs = list(pairs)
        bad = {m for _, m in pairs if model == mjd_model or m == 0.05}
        if bad:
            raise SeriesError(f"{type(model).__name__} at {min(bad)}")
        return marks(model, S, t, pairs)

    monkeypatch.setattr(spanning, "call_marks", failing_marks)
    orders = {"GQ1": 4}
    cases = [(bs_model, [StrikeBand(U1, 80.0, 120.0)], orders),
             (mjd_model, [StrikeBand(U1, 80.0, 120.0)], orders),
             (bs_model, [StrikeBand(0.05, 80.0, 120.0)], orders)]
    with pytest.raises(SeriesError, match=f"^MjdParams at {U1}$"):
        build_sweep(target, SPOT, cases)
    with pytest.raises(SeriesError, match="^BsParams at 0.05$"):
        build_sweep(target, SPOT, cases[::2])


# ---------------------------------------------------------------------------
# Single-maturity quadrature hedge
# ---------------------------------------------------------------------------

TABLE1_GQ1 = {6: -0.28426, 8: -0.05559, 10: -0.00625,
              15: -0.00067, 25: -0.00067, 50: -0.00067}


def test_gq1_band_limited_errors(bs_model, target):
    band = StrikeBand(U1, 0.0, 130.0)
    for n, expected in TABLE1_GQ1.items():
        portfolio = build_gq1(bs_model, target, SPOT, band, n)
        assert portfolio_edl(portfolio) == pytest.approx(expected, abs=5e-4), f"n={n}"


def test_gq1_mjd_errors(mjd_model, target):
    band = StrikeBand(U1, 0.0, 150.0)
    for n in (50, 100):
        portfolio = build_gq1(mjd_model, target, SPOT, band, n)
        assert portfolio_edl(portfolio) == pytest.approx(-8.98e-6, abs=2e-5)


def test_gq1_weights_nonnegative(bs_model, mjd_model, target):
    for model in (bs_model, mjd_model):
        portfolio = build_gq1(model, target, SPOT, StrikeBand(U1, 40.0, 160.0), 30)
        assert all(leg.weight >= 0 for leg in portfolio.legs)


def test_gq1_quadrature_count_stability(bs_model, target):
    # past ~25 nodes the band-limited hedge value stops moving
    band = StrikeBand(U1, 0.0, 130.0)
    for n in (25, 30, 40, 50):
        a = portfolio_edl(build_gq1(bs_model, target, SPOT, band, n))
        b = portfolio_edl(build_gq1(bs_model, target, SPOT, band, 2 * n))
        assert abs(a - b) < 1e-3


def _strikes_and_weights(legs):
    return [leg.strike for leg in legs], [leg.weight for leg in legs]


def test_only_a_first_level_band_that_covers_the_bell_takes_log_strike_nodes(bs_model, target):
    from statichedge.quadrature import LEGENDRE
    from statichedge.spanning import BELL_WIDTHS

    tau, var = MATURITY - U1, bs_model.sigma ** 2
    centre = math.log(STRIKE) - (bs_model.r - bs_model.delta_yield + var / 2) * tau
    half = BELL_WIDTHS * math.sqrt(var * tau)
    lo, hi = math.exp(centre - half), math.exp(centre + half)

    def gamma(strikes, u=U1):
        return strike_gamma_weight(bs_model, strikes, u, STRIKE, MATURITY)

    bell = map_to_interval(make_rule(LEGENDRE, 12), centre - half, centre + half)
    strikes = np.exp(bell.nodes)
    covering = StrikeBand(U1, 0.99 * lo, 1.01 * hi)
    assert _strikes_and_weights(build_gq1(bs_model, target, SPOT, covering, 12).legs) == (
        strikes.tolist(), (bell.weights * strikes * gamma(strikes)).tolist())
    # a band that misses one side of the bell keeps the rule in strike
    for band in (StrikeBand(U1, 1.01 * lo, 1.01 * hi), StrikeBand(U1, 0.99 * lo, 0.99 * hi)):
        rule = map_to_interval(make_rule(LEGENDRE, 12), band.lo, band.hi)
        assert _strikes_and_weights(build_gq1(bs_model, target, SPOT, band, 12).legs) == (
            rule.nodes.tolist(), (rule.weights * gamma(rule.nodes)).tolist())
    # so does a deeper level: GQ2's second band is ruled in strike however wide
    second = StrikeBand(U2, 0.5 * lo, 2.0 * hi)
    legs = build_gq2(bs_model, target, SPOT, covering, second, 12).legs
    rule = map_to_interval(make_rule(LEGENDRE, 12), second.lo, second.hi)
    assert [leg.strike for leg in legs if leg.maturity == U2] == rule.nodes.tolist()


def test_gq1_wide_band_mjd_resolves_the_bell(target):
    # lambda = 2 and 120 nodes on [1, 10000]: in strike the worst |edl| is ~6
    rng = np.random.default_rng(11)
    for _ in range(10):
        model = MjdParams(r=0.06, delta_yield=0.02, sigma=rng.uniform(0.1, 0.5),
                          lam=2.0, mu_j=-0.1, sigma_j=0.13, mu=0.1)
        band = StrikeBand(MATURITY - rng.uniform(0.1, 0.9), 1.0, 10000.0)
        assert abs(portfolio_edl(build_gq1(model, target, SPOT, band, 120))) < 1e-5


# ---------------------------------------------------------------------------
# Modified second-maturity weight
# ---------------------------------------------------------------------------


def test_excluded_region_rule_integrates_the_tail_and_the_left_piece():
    from statichedge.spanning import _excluded_region_rule

    # lo = 0: only the shifted Laguerre tail on [hi, inf)
    cfg = ModifiedWeightConfig(n_laguerre=20)
    for a in (0.5, 3.0):
        nodes, weights = _excluded_region_rule(StrikeBand(0.1, 0.0, a), cfg)
        assert weights @ np.exp(-nodes) == pytest.approx(math.exp(-a), abs=1e-12)
    nodes, weights = _excluded_region_rule(StrikeBand(0.1, 0.0, 2.0), cfg)
    assert weights @ (nodes * np.exp(-nodes ** 2)) == pytest.approx(0.5 * math.exp(-4.0),
                                                                     abs=1e-6)
    # lo > 0: the left piece is an order-n_inner_gq Legendre rule on [0, lo]
    lo = 80.0
    nodes, weights = _excluded_region_rule(StrikeBand(0.1, lo, 120.0), ModifiedWeightConfig())
    left = nodes < lo
    assert left.sum() == ModifiedWeightConfig().n_inner_gq and np.all(nodes[~left] > 120.0)
    cubic = np.polynomial.Polynomial([-5.0, 3.0, -1.0, 2.0])
    exact = cubic.integ()(lo) - cubic.integ()(0.0)
    assert weights[left] @ cubic(nodes[left]) == pytest.approx(exact, rel=1e-12)


def test_modified_weight_vanishes_when_nothing_excluded(bs_model, target):
    band = StrikeBand(U1, 0.0, 1e6)
    for k2 in (50.0, 100.0, 150.0):
        assert modified_weight(bs_model, target, k2, band, U2) < 1e-10


def test_modified_weight_nonnegative(bs_model, mjd_model, target):
    band = StrikeBand(U1, 80.0, 120.0)
    grid = np.linspace(20.0, 220.0, 81)
    for model in (bs_model, mjd_model):
        values = modified_weight(model, target, grid, band, U2)
        assert np.all(values >= 0.0)


def test_modified_weight_respanning_identity(bs_model, target):
    # With accurate inner rules, the re-spanned second-maturity mass prices
    # back exactly the value the first band excluded.
    band = StrikeBand(U1, 80.0, 120.0)
    cfg = ModifiedWeightConfig(n_inner_gq=20, n_laguerre=20)

    lhs, _ = quad(
        lambda k2: modified_weight(bs_model, target, k2, band, U2, cfg)
        * call_price(bs_model, SPOT, 0.0, k2, U2),
        0.0, np.inf, limit=400,
    )
    inside, _ = quad(
        lambda k1: strike_gamma_weight(bs_model, k1, U1, STRIKE, MATURITY)
        * call_price(bs_model, SPOT, 0.0, k1, U1),
        band.lo, band.hi, limit=200,
    )
    rhs = call_price(bs_model, SPOT, 0.0, STRIKE, MATURITY) - inside
    assert lhs == pytest.approx(rhs, abs=1e-3)


def test_modified_weight_guard(bs_model, target):
    band = StrikeBand(U1, 80.0, 120.0)
    with pytest.raises(SingularMaturityError):
        modified_weight(bs_model, target, 100.0, band, U1 - 5e-5)
    with pytest.raises(SpanningError):
        modified_weight(bs_model, target, 100.0, band, U1 + 0.01)


# ---------------------------------------------------------------------------
# Two- and n-maturity quadrature hedges
# ---------------------------------------------------------------------------

TABLE2_ROWS = [
    # (band1, band2, gq1, gq2, pdl)
    ((80, 120), (80, 120), -8.9, -8.3, 6.7),
    ((80, 120), (75, 120), -8.9, -7.2, 19.5),
    ((80, 120), (55, 120), -8.9, 1.6, 82.2),
    ((60, 105), (60, 105), -2.1, -1.7, 20.0),
    ((75, 110), (75, 110), -7.1, -6.5, 9.4),
    ((55, 110), (75, 110), -1.0, -0.9, 6.7),
    ((55, 110), (65, 105), -1.0, -0.9, 4.7),
]

TABLE7_ROWS = [
    ((80, 120), (80, 120), -6.80, -6.52, 4.10),
    ((80, 120), (75, 120), -6.80, -4.86, 28.5),
    ((80, 120), (60, 120), -6.80, -1.21, 82.21),
]


def test_gq2_strike_band_sweep(bs_model, target):
    for (lo1, hi1), (lo2, hi2), e1, e2, _ in TABLE2_ROWS:
        p1 = build_gq1(bs_model, target, SPOT, StrikeBand(U1, lo1, hi1), 4)
        p2 = build_gq2(bs_model, target, SPOT, StrikeBand(U1, lo1, hi1),
                       StrikeBand(U2, lo2, hi2), 4)
        assert portfolio_edl(p1) == pytest.approx(e1, abs=0.1)
        assert portfolio_edl(p2) == pytest.approx(e2, abs=0.1)


def test_gq2_strike_band_sweep_mjd(mjd_model, target):
    for (lo1, hi1), (lo2, hi2), e1, e2, _ in TABLE7_ROWS:
        p1 = build_gq1(mjd_model, target, SPOT, StrikeBand(U1, lo1, hi1), 20)
        p2 = build_gq2(mjd_model, target, SPOT, StrikeBand(U1, lo1, hi1),
                       StrikeBand(U2, lo2, hi2), 20)
        assert portfolio_edl(p1) == pytest.approx(e1, abs=0.1)
        assert portfolio_edl(p2) == pytest.approx(e2, abs=0.1)


def test_gq2_second_maturity_always_helps(bs_model, mjd_model, target):
    for model, rows, n in ((bs_model, TABLE2_ROWS, 4), (mjd_model, TABLE7_ROWS, 20)):
        for (lo1, hi1), (lo2, hi2), *_ in rows:
            e1 = portfolio_edl(build_gq1(model, target, SPOT, StrikeBand(U1, lo1, hi1), n))
            e2 = portfolio_edl(build_gq2(model, target, SPOT, StrikeBand(U1, lo1, hi1),
                                         StrikeBand(U2, lo2, hi2), n))
            assert abs(e2) <= abs(e1)


def test_gq2_band2_weights_are_rule_times_modified_weight(bs_model, mjd_model, target):
    band1 = StrikeBand(U1, 80.0, 120.0)
    band2 = StrikeBand(U2, 60.0, 120.0)
    cfg = ModifiedWeightConfig(n_inner_gq=7, n_laguerre=16)
    rule = map_to_interval(make_rule("legendre", 6), band2.lo, band2.hi)
    for model in (bs_model, mjd_model):
        portfolio = build_gq2(model, target, SPOT, band1, band2, 6, cfg)
        legs = [leg for leg in portfolio.legs if leg.maturity == U2]
        expected = rule.weights * modified_weight(model, target, rule.nodes, band1, U2, cfg)
        assert [leg.strike for leg in legs] == rule.nodes.tolist()
        assert [leg.weight for leg in legs] == expected.tolist()
        # Python floats, so leg tables print the same repr
        assert all(type(leg.strike) is float and type(leg.weight) is float
                   for leg in portfolio.legs)


def test_gq2_weights_nonnegative(bs_model, target):
    portfolio = build_gq2(bs_model, target, SPOT, StrikeBand(U1, 80.0, 120.0),
                          StrikeBand(U2, 55.0, 120.0), 12)
    assert all(leg.weight >= 0 for leg in portfolio.legs)


def test_gq_n_two_bands_matches_gq2_bitwise(bs_model, target):
    b1 = StrikeBand(U1, 80.0, 120.0)
    b2 = StrikeBand(U2, 55.0, 120.0)
    via_2 = build_gq2(bs_model, target, SPOT, b1, b2, 7)
    via_n = build_gq_n(bs_model, target, SPOT, [b1, b2], 7)
    assert via_2.legs == via_n.legs
    assert via_2.b0 == via_n.b0


def test_gq_n_single_band_matches_gq1(bs_model, target):
    band = StrikeBand(U1, 80.0, 120.0)
    assert build_gq_n(bs_model, target, SPOT, [band], 9).legs == \
        build_gq1(bs_model, target, SPOT, band, 9).legs


def test_gq_n_third_band_never_hurts(bs_model, target):
    b1 = StrikeBand(U1, 80.0, 120.0)
    b2 = StrikeBand(U2, 80.0, 120.0)
    b3 = StrikeBand(0.04, 0.0, 1e6)
    e2 = portfolio_edl(build_gq2(bs_model, target, SPOT, b1, b2, 4))
    e3 = portfolio_edl(build_gq_n(bs_model, target, SPOT, [b1, b2, b3], 4))
    assert abs(e3) <= abs(e2) + 1e-12


def test_gq_n_band_validation(bs_model, target):
    b1 = StrikeBand(U1, 80.0, 120.0)
    bands5 = [StrikeBand(U1 - 0.03 * i, 80.0, 120.0) for i in range(5)]
    with pytest.raises(SpanningError, match="at most"):
        build_gq_n(bs_model, target, SPOT, bands5, 4)
    with pytest.raises(SpanningError, match="decreasing"):
        build_gq_n(bs_model, target, SPOT, [b1, StrikeBand(U1 + 0.05, 80.0, 120.0)], 4)
    with pytest.raises(SingularMaturityError):
        build_gq_n(bs_model, target, SPOT,
                   [b1, StrikeBand(U1 - 5e-5, 80.0, 120.0)], 4)
    with pytest.raises(SpanningError):
        build_gq1(bs_model, target, SPOT, StrikeBand(MATURITY + 0.1, 80.0, 120.0), 4)
    with pytest.raises(SpanningError, match="^band upper strike must be finite$"):
        StrikeBand(U1, 80.0, math.inf)
    for name in ("DH", "XX"):
        with pytest.raises(SpanningError, match=f"^unknown static method '{name}'$"):
            build_sweep(target, SPOT, [(bs_model, [b1], {name: 4})])


def test_zero_variance_model_builds_no_static_hedge(target):
    # sigma ** 2 underflows to 0, and every static rule spreads its strikes by sqrt(V tau)
    model = BsParams(0.06, 0.0, 1e-300)
    b1, b2 = StrikeBand(10 / 63, 80.0, 120.0), StrikeBand(5 / 63, 80.0, 120.0)
    message = (r"^sigma 1e-300 gives a return variance of 0\.0: "
               r"no static hedge can spread its strikes$")
    for build in (lambda: build_cw_a(model, target, SPOT, b1),
                  lambda: build_cw_b(model, target, SPOT, b1, 20),
                  lambda: build_gq1(model, target, SPOT, b1, 5),
                  lambda: build_gq2(model, target, SPOT, b1, b2, 5),
                  lambda: build_gq_n(model, target, SPOT, [b1, b2], 5)):
        with pytest.raises(SpanningError, match=message):
            build()
    # a case with no static method (a DH-only config) builds nothing, and the kernel still prices
    assert build_sweep(target, SPOT, [(model, [b1], {})]) == [{}]
    assert math.isfinite(call_price(model, SPOT, 0.0, STRIKE, MATURITY))


# ---------------------------------------------------------------------------
# Valuation and diagnostics
# ---------------------------------------------------------------------------


def test_portfolio_value_empty_and_single_leg(bs_model, target):
    empty = HedgePortfolio(target, SPOT, (), 0.0, "CW_b")
    assert portfolio_value(empty, bs_model, SPOT, 0.0) == 0.0
    single = build_cw_a(bs_model, target, SPOT, StrikeBand(U1, 80.0, 120.0))
    leg = single.legs[0]
    expected = leg.weight * call_price(bs_model, SPOT, 0.0, leg.strike, leg.maturity)
    assert portfolio_value(single, bs_model, SPOT, 0.0) == pytest.approx(expected)


def test_portfolio_value_reference_level(bs_model, target):
    # the stable band-limited hedge is worth the target minus the small
    # strike mass above the band cutoff
    portfolio = build_gq1(bs_model, target, SPOT, StrikeBand(U1, 0.0, 130.0), 25)
    value = portfolio_value(portfolio, bs_model, SPOT, 0.0)
    assert value == pytest.approx(BS_TARGET_PRICE - 0.00067, abs=1e-4)


def test_portfolio_value_at_leg_maturity_is_intrinsic(bs_model, target):
    portfolio = build_gq1(bs_model, target, SPOT, StrikeBand(U1, 80.0, 120.0), 3)
    expected = sum(leg.weight * max(110.0 - leg.strike, 0.0) for leg in portfolio.legs)
    assert portfolio_value(portfolio, bs_model, 110.0, U1) == pytest.approx(expected)


@pytest.mark.parametrize("model_name", ["bs_model", "mjd_model"])
def test_portfolio_value_is_bitwise_the_per_leg_sum(request, model_name, target):
    model = request.getfixturevalue(model_name)
    portfolio = build_gq2(model, target, SPOT, StrikeBand(U1, 80.0, 120.0),
                          StrikeBand(U2, 60.0, 120.0), 12)
    spots = np.array([70.0, 100.0, 130.0])
    # at t = U2 the band-2 legs are valued at their maturity (intrinsic)
    for S, t in ((SPOT, 0.0), (spots, 0.0), (110.0, U2), (spots, U2)):
        expected = 0.0
        for leg in portfolio.legs:
            expected = expected + leg.weight * call_price(model, S, t, leg.strike,
                                                          leg.maturity)
        value = portfolio_value(portfolio, model, S, t)
        assert np.array_equal(value, expected)
        assert type(value) is type(expected)


def test_edl_and_pdl():
    assert edl(13.5926277, 13.5926277) == 0.0
    assert pdl(-8.9, -8.3) == pytest.approx(6.7, abs=0.05)
    assert pdl(1.25, 1.25) == 0.0
    assert pdl(-1.25, -1.25) == 0.0
    assert pdl(0.0, 1.0) is None


def test_b0_is_negative_edl(bs_model, target):
    portfolio = build_gq1(bs_model, target, SPOT, StrikeBand(U1, 80.0, 120.0), 10)
    hedge = portfolio_value(portfolio, bs_model, SPOT, 0.0)
    tgt = call_price(bs_model, SPOT, 0.0, STRIKE, MATURITY)
    assert portfolio.b0 == pytest.approx(tgt - hedge, abs=1e-12)
    assert edl(tgt, hedge) == pytest.approx(-portfolio.b0, abs=1e-12)


def test_legs_sorted_by_maturity_then_strike(bs_model, target):
    portfolio = build_gq2(bs_model, target, SPOT, StrikeBand(U1, 80.0, 120.0),
                          StrikeBand(U2, 55.0, 120.0), 5)
    keys = [(leg.maturity, leg.strike) for leg in portfolio.legs]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# Maturity-spacing behavior
# ---------------------------------------------------------------------------


def test_gq1_improves_with_later_first_maturity(bs_model, target):
    # Table-4 pattern: wide band, error magnitude shrinks as u1 grows
    values = []
    for u1 in (0.0833, 0.1587, 0.3175, 0.6349):
        p = build_gq1(bs_model, target, SPOT, StrikeBand(u1, 60.0, 120.0), 15)
        values.append(portfolio_edl(p))
    expected = [-2.36, -1.91, -1.11, -0.27]
    for got, want in zip(values, expected):
        assert got == pytest.approx(want, abs=0.05)
    assert all(abs(a) > abs(b) for a, b in zip(values, values[1:]))


def test_gq2_error_shrinks_as_u2_approaches_u1(bs_model, target):
    b1 = StrikeBand(U1, 80.0, 120.0)
    magnitudes = []
    for u2 in (0.02, 0.04, 0.06, 0.08):
        p = build_gq2(bs_model, target, SPOT, b1, StrikeBand(u2, 55.0, 120.0), 20)
        magnitudes.append(abs(portfolio_edl(p)))
    assert all(a > b for a, b in zip(magnitudes, magnitudes[1:]))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_portfolio_csv_round_trip(bs_model, target, tmp_path):
    portfolio = build_gq2(bs_model, target, SPOT, StrikeBand(U1, 80.0, 120.0),
                          StrikeBand(U2, 55.0, 120.0), 6)
    path = tmp_path / "portfolio.csv"
    portfolio_to_csv(portfolio, path)
    loaded = portfolio_from_csv(path)
    assert loaded == portfolio
    # bitwise, not just ==: the file keeps every float's exact bits
    assert [(leg.strike.hex(), leg.maturity.hex(), leg.weight.hex()) for leg in loaded.legs] == [
        (leg.strike.hex(), leg.maturity.hex(), leg.weight.hex()) for leg in portfolio.legs]
    assert (loaded.b0.hex(), loaded.spot.hex()) == (portfolio.b0.hex(), portfolio.spot.hex())


_PORTFOLIO_HEADER = {"target_strike": "100.0", "target_maturity": "1.0", "spot": "100.0",
                     "b0": "0.5"}


@pytest.mark.parametrize("header, row, fragment", [
    ({}, "0.1,nan,1.0", "leg row '0.1,nan,1.0'"),
    ({}, "0.1,-5,1.0", "leg row '0.1,-5,1.0'"),
    ({}, "0.0,100.0,1.0", "leg row '0.0,100.0,1.0'"),
    ({}, "0.1,100.0,inf", "leg row '0.1,100.0,inf'"),
    ({}, "inf,100.0,1.0", "leg row 'inf,100.0,1.0'"),
    ({"spot": "nan"}, "0.1,100.0,1.0", "header field spot='nan' must be finite and > 0"),
    ({"spot": "abc"}, "0.1,100.0,1.0", "header field spot='abc' must be finite and > 0"),
    ({"spot": "-1.0"}, "0.1,100.0,1.0", "header field spot='-1.0' must be finite and > 0"),
    ({"b0": "inf"}, "0.1,100.0,1.0", "header field b0='inf' must be finite"),
    ({"target_strike": "0"}, "0.1,100.0,1.0", "header field target_strike='0'"),
    ({"target_maturity": "x"}, "0.1,100.0,1.0", "header field target_maturity='x'"),
    ({"target_kind": "straddle"}, "0.1,100.0,1.0",
     "header field target_kind='straddle' must be 'call'"),
    ({"target_kind": "put"}, "0.1,100.0,1.0", "header field target_kind='put' must be 'call'"),
])
def test_portfolio_csv_rejects_bad_numbers(tmp_path, header, row, fragment):
    path = tmp_path / "bad.csv"
    lines = [f"# {key}={value}" for key, value in {**_PORTFOLIO_HEADER, **header}.items()]
    path.write_text("\n".join(lines + ["maturity,strike,weight", row]) + "\n")
    with pytest.raises(SpanningError, match=f"portfolio file {re.escape(str(path))}: "
                                           f"{re.escape(fragment)}"):
        portfolio_from_csv(path)


def test_portfolio_csv_that_is_not_utf8_is_spanning_error(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"# b0=\xff\xfe\n")
    with pytest.raises(SpanningError, match=f"^portfolio file {re.escape(str(path))}: "
                                           "not UTF-8 text"):
        portfolio_from_csv(path)


def test_portfolio_csv_target_kind_header_is_optional(tmp_path):
    lines = [f"# {key}={value}" for key, value in _PORTFOLIO_HEADER.items()]
    rows = ["maturity,strike,weight", "0.1,100.0,1.0"]
    (tmp_path / "bare.csv").write_text("\n".join(lines + rows) + "\n")
    (tmp_path / "call.csv").write_text("\n".join(["# target_kind=call"] + lines + rows) + "\n")
    bare = portfolio_from_csv(tmp_path / "bare.csv")
    assert bare == portfolio_from_csv(tmp_path / "call.csv")
    assert bare.target == OptionRef(100.0, 1.0)


def test_portfolio_csv_missing_header(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("maturity,strike,weight\n0.1,100.0,1.0\n")
    with pytest.raises(SpanningError, match="missing header"):
        portfolio_from_csv(path)
    path.write_text("# b0=0.0\nmaturity,strike,weight\n0.1,100.0\n")
    with pytest.raises(SpanningError, match="malformed leg row '0.1,100.0'"):
        portfolio_from_csv(path)
