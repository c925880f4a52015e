import csv
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtri

from statichedge import (
    BsParams,
    MjdParams,
    OptionRef,
    PathSet,
    SimConfig,
    SimulationError,
    StrikeBand,
    build_cw_b,
    build_gq1,
    build_gq2,
    call_price,
    delta,
    delta_hedge_run,
    pfe_curves,
    simulate_paths,
    static_hedge_run,
    static_hedge_runs,
    summarize,
    write_errors_csv,
)
from statichedge import simulation
from statichedge.models import MAX_BLOCK
from statichedge.simulation import MAX_JUMPS_PER_STEP, _path_states, _poisson_inverse

from conftest import MATURITY, SPOT, STEP, STRIKE, U1_GRID, U2_GRID


def test_sim_config_validation():
    # every error names its field
    with pytest.raises(SimulationError, match=r"^n_paths: must be >= 1, got 0$"):
        SimConfig(n_paths=0, seed=1, step=0.01, horizon=0.1, spot0=100.0)
    with pytest.raises(SimulationError, match=r"^horizon: 0\.1 is not on the step grid"):
        SimConfig(n_paths=10, seed=1, step=0.03, horizon=0.1, spot0=100.0)
    with pytest.raises(SimulationError, match=r"^step: must be > 0, got -0\.01$"):
        SimConfig(n_paths=10, seed=1, step=-0.01, horizon=0.1, spot0=100.0)
    with pytest.raises(SimulationError, match=r"^seed: must be >= 0, got -1$"):
        SimConfig(n_paths=10, seed=-1, step=0.01, horizon=0.1, spot0=100.0)
    with pytest.raises(SimulationError, match=r"^horizon: must be at least one step"):
        SimConfig(n_paths=10, seed=1, step=0.01, horizon=0.0, spot0=100.0)
    with pytest.raises(SimulationError, match=r"^spot0: must be > 0, got 0\.0$"):
        SimConfig(n_paths=10, seed=1, step=0.01, horizon=0.1, spot0=0.0)
    cfg = SimConfig(n_paths=10, seed=1, step=STEP, horizon=U1_GRID, spot0=100.0)
    assert cfg.n_steps == 40


@pytest.mark.parametrize("field", ["step", "horizon", "spot0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_sim_config_rejects_non_finite_fields(field, value):
    fields = {"n_paths": 10, "seed": 1, "step": 0.01, "horizon": 0.1, "spot0": 100.0,
              field: value}
    with pytest.raises(SimulationError, match=f"^{field}: must be finite, got {value!r}$"):
        SimConfig(**fields)


@pytest.mark.parametrize("n_paths", [2 ** 32 + 1, 1e300])
def test_sim_config_caps_paths_at_the_spawn_key_range(n_paths):
    # rejected before anything is allocated
    with pytest.raises(SimulationError, match=r"^n_paths: must be <= 2\*\*32, got "):
        SimConfig(n_paths=n_paths, seed=1, step=0.01, horizon=0.1, spot0=100.0)


def test_grid_index_is_one_rule_with_one_tolerance():
    assert simulation.grid_index("t", 21 / 252, 1 / 252) == 21
    assert simulation.grid_index("t", 0.1 + 5e-10, 0.01) == 10
    with pytest.raises(SimulationError, match=r"^t: 0\.1 is not on the step grid"):
        simulation.grid_index("t", 0.1, 0.03)
    # the horizon check is the same rule
    cfg = SimConfig(n_paths=2, seed=1, step=0.01, horizon=0.1 + 5e-10, spot0=100.0)
    assert cfg.n_steps == 10
    assert np.array_equal(cfg.times, np.arange(11) * 0.01)


def test_paths_deterministic_and_positive(bs_model):
    cfg = SimConfig(n_paths=64, seed=42, step=STEP, horizon=U1_GRID, spot0=SPOT)
    a = simulate_paths(bs_model, cfg)
    b = simulate_paths(bs_model, cfg)
    assert np.array_equal(a.values, b.values)
    assert np.all(a.values > 0)
    assert np.all(a.values[:, 0] == SPOT)
    c = simulate_paths(bs_model, SimConfig(64, 43, STEP, U1_GRID, SPOT))
    assert not np.array_equal(a.values, c.values)


def test_path_substreams_nest_when_adding_paths(bs_model):
    small = simulate_paths(bs_model, SimConfig(32, 9, STEP, U2_GRID, SPOT))
    large = simulate_paths(bs_model, SimConfig(64, 9, STEP, U2_GRID, SPOT))
    assert np.array_equal(large.values[:32], small.values)


def test_deterministic_limit_path():
    quiet = BsParams(r=0.06, delta_yield=0.01, sigma=1e-12, mu=0.1)
    cfg = SimConfig(n_paths=3, seed=5, step=0.05, horizon=0.5, spot0=SPOT)
    paths = simulate_paths(quiet, cfg)
    expected = SPOT * np.exp((quiet.mu - quiet.delta_yield) * paths.times)
    assert np.allclose(paths.values, expected[None, :], rtol=1e-8)


def test_mjd_lam_zero_equals_bs_paths(bs_model):
    degenerate = MjdParams(r=0.06, delta_yield=0.0, sigma=0.27,
                           lam=0.0, mu_j=-0.1, sigma_j=0.13, mu=0.1)
    cfg = SimConfig(n_paths=50, seed=77, step=STEP, horizon=U2_GRID, spot0=SPOT)
    assert np.array_equal(simulate_paths(degenerate, cfg).values,
                          simulate_paths(bs_model, cfg).values)


def _per_path_paths(model, cfg):
    """Reference simulator: one path at a time, three successive uniform
    draws of ``n_steps`` each on the path's own substream."""
    n_steps, h = cfg.n_steps, cfg.step
    sqrt_h = math.sqrt(h)
    jump = isinstance(model, MjdParams)
    drift = (model.mu - model.delta_yield - 0.5 * model.sigma ** 2) * h
    if jump:
        drift = (model.mu - model.delta_yield - model.lam * model.g
                 - 0.5 * model.sigma ** 2) * h
    values = np.empty((cfg.n_paths, n_steps + 1))
    values[:, 0] = cfg.spot0
    for i, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.n_paths)):
        rng = np.random.Generator(np.random.PCG64(child))
        log_increments = drift + model.sigma * sqrt_h * ndtri(rng.random(n_steps))
        if jump:
            counts = _poisson_inverse(rng.random(n_steps), model.lam * h)
            z_jump = ndtri(rng.random(n_steps))
            log_increments = log_increments + (
                counts * model.mu_j + model.sigma_j * np.sqrt(counts) * z_jump
            )
        values[i, 1:] = cfg.spot0 * np.exp(np.cumsum(log_increments))
    return values


@pytest.mark.parametrize("model_name", ["bs", "mjd", "mjd_lam0"])
def test_block_simulation_is_bitwise_the_per_path_loop(model_name, bs_model, mjd_model):
    model = {"bs": bs_model, "mjd": mjd_model,
             "mjd_lam0": MjdParams(r=0.06, delta_yield=0.0, sigma=0.27,
                                   lam=0.0, mu_j=-0.1, sigma_j=0.13, mu=0.1)}[model_name]
    # 300 paths x 252 steps: 3 blocks of paths for GBM, 7 for the jump model
    cfg = SimConfig(n_paths=300, seed=1234, step=STEP, horizon=252 * STEP, spot0=SPOT)
    draws = 3 if isinstance(model, MjdParams) else 1
    assert cfg.n_paths * draws * cfg.n_steps > 2 * MAX_BLOCK
    assert np.array_equal(simulate_paths(model, cfg).values, _per_path_paths(model, cfg))
    # one path per block when a single path holds more than MAX_BLOCK uniforms
    long = SimConfig(n_paths=2, seed=5, step=1e-4, horizon=MAX_BLOCK * 1e-4 + 0.1,
                     spot0=SPOT)
    assert np.array_equal(simulate_paths(model, long).values, _per_path_paths(model, long))


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 128 + 9,
                                  2 ** 200 + 1])
def test_path_states_match_numpy_spawn(seed):
    # one to seven 32-bit entropy words; past four the pool mixes in extra words
    for n_paths in (1, 2, 1000):
        children = np.random.SeedSequence(seed).spawn(n_paths)
        expected = [np.random.PCG64(child).state for child in children]
        assert list(_path_states(seed, 0, n_paths)) == expected
        # a later block derives the same states as the full range
        assert list(_path_states(seed, n_paths // 2, n_paths)) == expected[n_paths // 2:]


@pytest.mark.parametrize("model_name", ["bs", "mjd"])
def test_terminal_mean_matches_carry_drift(model_name, bs_model, mjd_model):
    model = bs_model if model_name == "bs" else mjd_model
    horizon = 0.5
    cfg = SimConfig(n_paths=100_000, seed=2024, step=horizon / 2, horizon=horizon,
                    spot0=SPOT)
    paths = simulate_paths(model, cfg)
    ratios = paths.values[:, -1] / SPOT
    expected = math.exp((model.mu - model.delta_yield) * horizon)
    se = ratios.std(ddof=1) / math.sqrt(cfg.n_paths)
    assert abs(ratios.mean() - expected) < 3 * se


def test_delta_hedge_starts_at_zero(bs_model, target):
    cfg = SimConfig(n_paths=16, seed=3, step=STEP, horizon=U2_GRID, spot0=SPOT)
    errors = delta_hedge_run(simulate_paths(bs_model, cfg), bs_model, target)
    assert np.all(errors[:, 0] == 0.0)


def test_delta_hedge_refinement_limit(bs_model, target):
    # halving the step scales the discrete-hedging error like sqrt(step)
    coarse_cfg = SimConfig(n_paths=200, seed=10, step=U2_GRID / 21,
                           horizon=U2_GRID, spot0=SPOT)
    coarse = delta_hedge_run(simulate_paths(bs_model, coarse_cfg), bs_model, target)
    rmse_coarse = math.sqrt(np.mean(coarse[:, -1] ** 2))

    fine_cfg = SimConfig(n_paths=200, seed=10, step=U2_GRID / 833,
                         horizon=U2_GRID, spot0=SPOT)
    fine = delta_hedge_run(simulate_paths(bs_model, fine_cfg), bs_model, target)
    rmse_fine = math.sqrt(np.mean(fine[:, -1] ** 2))

    predicted = rmse_coarse * math.sqrt(21.0 / 833.0)
    assert rmse_fine < 0.025
    assert 0.7 * predicted < rmse_fine < 1.3 * predicted


def test_delta_hedge_horizon_check(bs_model, target):
    cfg = SimConfig(n_paths=4, seed=1, step=0.25, horizon=1.0, spot0=SPOT)
    with pytest.raises(SimulationError):
        delta_hedge_run(simulate_paths(bs_model, cfg), bs_model, target)


@pytest.mark.parametrize("model_name", ["bs_model", "mjd_model"])
def test_delta_hedge_columns_are_bitwise_the_full_run(request, model_name, target):
    model = request.getfixturevalue(model_name)
    paths = simulate_paths(model, SimConfig(n_paths=60, seed=12, step=STEP,
                                            horizon=U2_GRID, spot0=SPOT))
    full = delta_hedge_run(paths, model, target)
    for columns in ([0], [21], [21, 3, 3, 0, 14]):
        assert np.array_equal(delta_hedge_run(paths, model, target, columns),
                              full[:, columns])
    for rows in (slice(0, 17), slice(17, 60)):
        block = PathSet(paths.times, paths.values[rows])
        assert np.array_equal(delta_hedge_run(block, model, target, [21, 3]),
                              full[rows][:, [21, 3]])


@pytest.mark.parametrize("model_name", ["bs_model", "mjd_model"])
def test_delta_hedge_inception_delta_is_bitwise_the_per_path_array(request, model_name,
                                                                   target):
    model = request.getfixturevalue(model_name)
    paths = simulate_paths(model, SimConfig(n_paths=40, seed=8, step=STEP,
                                            horizon=U2_GRID, spot0=SPOT))
    S, times = paths.values, paths.times
    # the recursion with the first delta taken on the whole column S[:, 0]
    V = np.full(paths.n_paths, call_price(model, SPOT, 0.0, target.strike, target.maturity))
    expected = np.zeros_like(S)
    for i in range(1, len(times)):
        d_prev = delta(model, S[:, i - 1], times[i - 1], target.strike, target.maturity)
        V = d_prev * S[:, i] + (V - d_prev * S[:, i - 1]) * math.exp(model.r * (times[i] - times[i - 1]))
        marks = call_price(model, S[:, i], times[i], target.strike, target.maturity)
        expected[:, i] = math.exp(-model.r * times[i]) * (V - marks)
    got = delta_hedge_run(paths, model, target)
    assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in expected.ravel().tolist()]


def test_delta_hedge_marks_only_the_kept_columns(monkeypatch, bs_model, target):
    calls = []

    def counting_call_price(*args):
        calls.append(args[2])
        return call_price(*args)

    monkeypatch.setattr(simulation, "call_price", counting_call_price)
    paths = simulate_paths(bs_model, SimConfig(n_paths=8, seed=2, step=STEP,
                                               horizon=U2_GRID, spot0=SPOT))
    delta_hedge_run(paths, bs_model, target, [14])
    assert calls == [0.0, paths.times[14]]


def test_hedge_runs_reject_columns_off_the_grid(bs_model, target):
    paths = simulate_paths(bs_model, SimConfig(n_paths=4, seed=2, step=STEP,
                                               horizon=U2_GRID, spot0=SPOT))
    portfolio = _standard_portfolios(bs_model, target)[2]
    not_integer = "is not an integer grid index"
    for column, fragment in ((22, "is outside the grid"), (-1, "is outside the grid"),
                             (2.7, not_integer), (20.9, not_integer), (2.0, not_integer),
                             (True, not_integer), (np.True_, not_integer), ("3", not_integer)):
        with pytest.raises(SimulationError, match=f"^column {re.escape(repr(column))} {fragment}"):
            delta_hedge_run(paths, bs_model, target, [column])
        with pytest.raises(SimulationError, match=fragment):
            static_hedge_runs(paths, [portfolio], bs_model, [column])
    # numpy integers are grid indices like ints
    assert np.array_equal(static_hedge_runs(paths, [portfolio], bs_model, [np.int64(3)])[0],
                          static_hedge_runs(paths, [portfolio], bs_model, [3])[0])


@pytest.mark.parametrize("times, values", [
    (np.array([0.0]), np.full((3, 1), 100.0)),
    (np.arange(3) * STEP, np.full((2, 5), 100.0)),
    (np.arange(3) * STEP, np.full(3, 100.0)),
    (np.zeros((1, 3)), np.full((2, 1, 3), 100.0)),
])
def test_path_set_rejects_mismatched_shapes(times, values):
    with pytest.raises(SimulationError, match="^paths: need at least 2 grid times"):
        PathSet(times, values)


@pytest.mark.parametrize("values", [
    np.empty((0, 3)),
    np.array([[100.0, 101.0, 99.0], [80.0, 81.0, 79.0]]),
    np.array([[math.nan, 1.0, 1.0]]),
])
def test_path_set_rejects_paths_that_start_apart(values):
    with pytest.raises(SimulationError, match="^paths: need at least one path, and every path "
                                              "must start at the same spot$"):
        PathSet(np.arange(3) * STEP, values)


def test_static_hedge_runs_reject_a_portfolio_built_at_another_spot(bs_model, target):
    paths = simulate_paths(bs_model, SimConfig(n_paths=4, seed=2, step=STEP,
                                               horizon=U2_GRID, spot0=SPOT))
    portfolio = build_gq1(bs_model, target, 80.0, StrikeBand(U1_GRID, 80.0, 120.0), 8)
    with pytest.raises(SimulationError, match=r"^GQ1: portfolio spot 80\.0 is not the paths' "
                                              rf"start spot {SPOT!r}$"):
        static_hedge_runs(paths, [_standard_portfolios(bs_model, target)[2], portfolio],
                          bs_model)


def _standard_portfolios(model, target):
    b1 = StrikeBand(U1_GRID, 80.0, 120.0)
    b2 = StrikeBand(U2_GRID, 60.0, 120.0)
    return [
        build_cw_b(model, target, SPOT, b1, 15),
        build_gq1(model, target, SPOT, b1, 15),
        build_gq2(model, target, SPOT, b1, b2, 15),
    ]


def test_static_hedge_error_zero_at_inception(bs_model, mjd_model, target):
    for model in (bs_model, mjd_model):
        cfg = SimConfig(n_paths=32, seed=8, step=STEP, horizon=U2_GRID, spot0=SPOT)
        paths = simulate_paths(model, cfg)
        for portfolio in _standard_portfolios(model, target):
            errors = static_hedge_run(paths, portfolio, model)
            assert np.allclose(errors[:, 0], 0.0, atol=1e-12)


def test_static_hedge_matured_leg_cash_accrues(bs_model, target):
    # past the short maturity the hedge holds payoffs in the money market;
    # errors stay finite and the matured cash grows at the risk-free rate
    cfg = SimConfig(n_paths=8, seed=21, step=STEP, horizon=U1_GRID, spot0=SPOT)
    paths = simulate_paths(bs_model, cfg)
    portfolio = build_gq2(bs_model, target, SPOT, StrikeBand(U1_GRID, 80.0, 120.0),
                          StrikeBand(U2_GRID, 60.0, 120.0), 15)
    errors = static_hedge_run(paths, portfolio, bs_model)
    assert errors.shape == paths.values.shape
    assert np.all(np.isfinite(errors))


def test_static_hedge_grid_checks(bs_model, target):
    portfolio = build_gq1(bs_model, target, SPOT, StrikeBand(U1_GRID, 80.0, 120.0), 5)
    too_long = SimConfig(n_paths=4, seed=1, step=U1_GRID / 2, horizon=2 * U1_GRID,
                         spot0=SPOT)
    with pytest.raises(SimulationError):
        static_hedge_run(simulate_paths(bs_model, too_long), portfolio, bs_model)
    off_grid = SimConfig(n_paths=4, seed=1, step=U1_GRID / 3, horizon=U1_GRID,
                         spot0=SPOT)
    shifted = build_gq1(bs_model, target, SPOT,
                        StrikeBand(U1_GRID * 0.6, 80.0, 120.0), 5)
    with pytest.raises(SimulationError, match="grid"):
        static_hedge_run(simulate_paths(bs_model, off_grid), shifted, bs_model)


def _per_leg_walk(paths, portfolio, model):
    """Reference hedge walk that prices every leg and the target with its
    own ``call_price`` call at every grid time."""
    times, S, r = paths.times, paths.values, model.r
    target = portfolio.target
    expiry = {m: round(m / (times[1] - times[0]))
              for m in portfolio.maturities if m <= times[-1] + 1e-9}
    errors = np.zeros_like(S)
    cash = np.zeros(paths.n_paths)
    for i, t in enumerate(times):
        if i > 0:
            cash = cash * math.exp(r * (t - times[i - 1]))
            for leg in portfolio.legs:
                if expiry.get(leg.maturity) == i:
                    cash = cash + leg.weight * np.maximum(S[:, i] - leg.strike, 0.0)
        hedge = portfolio.b0 * math.exp(r * t) + cash
        for leg in portfolio.legs:
            if expiry.get(leg.maturity, i + 1) > i:
                hedge = hedge + leg.weight * call_price(model, S[:, i], t, leg.strike,
                                                        leg.maturity)
        marks = call_price(model, S[:, i], t, target.strike, target.maturity)
        errors[:, i] = math.exp(-r * t) * (hedge - marks)
    return errors


@pytest.mark.parametrize("model_name", ["bs_model", "mjd_model"])
def test_shared_walk_is_bitwise_the_per_leg_walk(request, model_name, target):
    model = request.getfixturevalue(model_name)
    # GQ1's legs are GQ2's band-1 legs, so strikes are shared across
    # portfolios; the band-2 legs expire on the grid inside the horizon.
    portfolios = _standard_portfolios(model, target)
    portfolios.append(build_gq2(model, target, SPOT, StrikeBand(U1_GRID, 70.0, 130.0),
                                StrikeBand(U2_GRID, 60.0, 120.0), 8))
    paths = simulate_paths(model, SimConfig(n_paths=200, seed=3, step=STEP,
                                            horizon=24 * STEP, spot0=SPOT))
    runs = static_hedge_runs(paths, portfolios, model)
    for portfolio, errors in zip(portfolios, runs):
        reference = _per_leg_walk(paths, portfolio, model)
        assert np.array_equal(errors, reference)
        assert np.array_equal(static_hedge_run(paths, portfolio, model), reference)
    columns = [24, 21, 21, 0]
    for full, kept in zip(runs, static_hedge_runs(paths, portfolios, model, columns)):
        assert np.array_equal(kept, full[:, columns])
    for rows in (slice(0, 77), slice(77, 200)):
        block = PathSet(paths.times, paths.values[rows])
        for full, part in zip(runs, static_hedge_runs(block, portfolios, model)):
            assert np.array_equal(part, full[rows])


@pytest.mark.parametrize("lam_h", [80.0, 800.0])
def test_poisson_cap_overflow_raises(lam_h):
    # exp(-800) underflows, so every draw would otherwise read 64 jumps; at
    # lam * h = 80 most draws need more than 64 and would be truncated.
    model = MjdParams(r=0.06, delta_yield=0.0, sigma=0.2, lam=lam_h / 0.01,
                      mu_j=-0.01, sigma_j=0.01, mu=0.1)
    cfg = SimConfig(n_paths=3, seed=1, step=0.01, horizon=0.02, spot0=SPOT)
    with pytest.raises(SimulationError, match=f"lam \\* h = {lam_h:g};"):
        simulate_paths(model, cfg)


def test_poisson_cap_first_hit_in_a_later_block_raises():
    # lam * h = 40: P(N > 64) = 1.7e-4 per draw.  With seed 3 the first
    # draw past the cap falls on path 25, two blocks after the first one.
    model = MjdParams(r=0.06, delta_yield=0.0, sigma=0.2, lam=4000.0,
                      mu_j=-0.01, sigma_j=0.01, mu=0.1)
    first_bad = 25
    assert MAX_BLOCK // (3 * 1000) < first_bad
    clean = SimConfig(n_paths=first_bad, seed=3, step=0.01, horizon=10.0, spot0=SPOT)
    assert np.all(np.isfinite(simulate_paths(model, clean).values))
    with pytest.raises(SimulationError, match="lam \\* h = 40;"):
        simulate_paths(model, replace(clean, n_paths=first_bad + 1))


def test_poisson_inverse_reaches_the_cap_without_truncating():
    # Poisson(64): cdf(63) = 0.483, cdf(64) = 0.533, cdf(65) = 0.582
    assert _poisson_inverse(np.array([0.5]), 64.0).tolist() == [MAX_JUMPS_PER_STEP]
    with pytest.raises(SimulationError, match="64-jump cap"):
        _poisson_inverse(np.array([0.5, 0.56]), 64.0)


def test_summarize_constant_and_symmetric_samples():
    stats = summarize(np.full(32, 1.5))
    assert stats.mean == pytest.approx(1.5)
    assert stats.rmse == pytest.approx(1.5)
    assert stats.mae == pytest.approx(1.5)
    assert stats.skewness == 0.0 and stats.kurtosis == 0.0
    assert stats.degenerate

    stats = summarize(np.array([-0.7, 0.7] * 16))
    assert stats.mean == pytest.approx(0.0, abs=1e-15)
    assert stats.rmse == pytest.approx(0.7)
    assert stats.skewness == pytest.approx(0.0, abs=1e-12)


def test_summarize_normal_sample_moments():
    draws = np.random.default_rng(123).standard_normal(100_000)
    stats = summarize(draws)
    assert stats.skewness == pytest.approx(0.0, abs=0.03)
    assert stats.kurtosis == pytest.approx(0.0, abs=0.06)
    assert stats.rmse == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("n", [2, 3, 199, 200, 1000])
def test_summarize_percentiles_are_bitwise_one_at_a_time(n):
    e = np.random.default_rng(n).standard_normal(n)
    e[: n // 3] = e[0]  # ties
    stats = summarize(e)
    assert stats.p95.hex() == float(np.percentile(e, 95)).hex()
    assert stats.p05.hex() == float(np.percentile(e, 5)).hex()


def test_summarize_rejects_tiny_samples():
    with pytest.raises(SimulationError):
        summarize(np.array([1.0]))


def test_stats_ordering_invariants(bs_model, target):
    cfg = SimConfig(n_paths=500, seed=4, step=STEP, horizon=U2_GRID, spot0=SPOT)
    paths = simulate_paths(bs_model, cfg)
    for portfolio in _standard_portfolios(bs_model, target):
        stats = summarize(static_hedge_run(paths, portfolio, bs_model)[:, -1])
        assert stats.min <= stats.p05 <= stats.p95 <= stats.max
        assert stats.rmse >= abs(stats.mean)
        assert stats.mae <= stats.rmse


def test_pfe_curves_basics(bs_model, target):
    cfg = SimConfig(n_paths=400, seed=6, step=STEP, horizon=U2_GRID, spot0=SPOT)
    paths = simulate_paths(bs_model, cfg)
    portfolio = _standard_portfolios(bs_model, target)[2]
    errors = static_hedge_run(paths, portfolio, bs_model)
    curves = pfe_curves(errors)
    assert curves[95][0] == pytest.approx(0.0, abs=1e-12)
    assert curves[5][0] == pytest.approx(0.0, abs=1e-12)
    means = errors.mean(axis=0)
    assert np.all(curves[95] >= means - 1e-12)
    assert np.all(curves[5] <= means + 1e-12)
    with pytest.raises(SimulationError):
        pfe_curves(errors[:1])


def test_rmse_stable_under_doubling_paths(bs_model, target):
    # nested substreams: the first 1000 paths of the 2000-path run are the
    # 1000-path run, so the RMSE move is pure extra-sample noise
    portfolio = _standard_portfolios(bs_model, target)[2]
    rmses = []
    for n_paths in (1000, 2000):
        cfg = SimConfig(n_paths=n_paths, seed=31, step=STEP, horizon=U2_GRID,
                        spot0=SPOT)
        errors = static_hedge_run(simulate_paths(bs_model, cfg), portfolio, bs_model)
        rmses.append((errors[:, -1], math.sqrt(np.mean(errors[:, -1] ** 2))))
    (small_errs, rmse_small), (_, rmse_large) = rmses
    rng = np.random.default_rng(99)
    boots = [
        math.sqrt(np.mean(rng.choice(small_errs, size=small_errs.size) ** 2))
        for _ in range(200)
    ]
    se = np.std(boots, ddof=1)
    assert abs(rmse_large - rmse_small) < 3 * se


def test_serialized_portfolio_drives_simulation(tmp_path, bs_model, target):
    # the flat portfolio file is a full interface: a reloaded portfolio
    # produces the same error matrix as the in-memory one
    from statichedge import portfolio_from_csv, portfolio_to_csv

    portfolio = build_gq2(bs_model, target, SPOT, StrikeBand(U1_GRID, 80.0, 120.0),
                          StrikeBand(U2_GRID, 60.0, 120.0), 8)
    path = tmp_path / "gq2.csv"
    portfolio_to_csv(portfolio, path)
    reloaded = portfolio_from_csv(path)
    cfg = SimConfig(n_paths=16, seed=44, step=STEP, horizon=U2_GRID, spot0=SPOT)
    paths = simulate_paths(bs_model, cfg)
    assert np.array_equal(static_hedge_run(paths, reloaded, bs_model),
                          static_hedge_run(paths, portfolio, bs_model))


def test_write_errors_csv(tmp_path, bs_model, target):
    cfg = SimConfig(n_paths=5, seed=2, step=STEP, horizon=U2_GRID, spot0=SPOT)
    paths = simulate_paths(bs_model, cfg)
    errors = delta_hedge_run(paths, bs_model, target)
    out = tmp_path / "errors.csv"
    write_errors_csv(out, paths.times, errors)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("path,0.0,")
    recovered = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    assert np.array_equal(recovered, errors)


def _csv_module_errors(path, times, errors):
    """The ``csv.writer`` dump that ``write_errors_csv`` reproduces byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path"] + [repr(float(t)) for t in times])
        for idx, row in enumerate(np.asarray(errors)):
            writer.writerow([idx] + [repr(float(v)) for v in row])


@pytest.mark.parametrize("shape", [(50, 1), (50, 22), (21,), (50, 21, 1)])
def test_write_errors_csv_rejects_a_matrix_off_its_times(tmp_path, shape):
    times = np.arange(21) * STEP
    with pytest.raises(SimulationError, match=r"^errors: need one column per grid time, "
                                              rf"got shape {re.escape(str(shape))}"):
        write_errors_csv(tmp_path / "errors.csv", times, np.zeros(shape))
    assert not (tmp_path / "errors.csv").exists()


@pytest.mark.parametrize("n_paths", [1, 12])
def test_write_errors_csv_bytes_match_the_csv_module(tmp_path, n_paths):
    times = np.arange(6) * STEP
    errors = np.random.default_rng(8).normal(scale=2.0, size=(n_paths, 6))
    errors[0, 1:] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
    write_errors_csv(tmp_path / "fast.csv", times, errors)
    _csv_module_errors(tmp_path / "ref.csv", times, errors)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
