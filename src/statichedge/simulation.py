"""Seeded Monte-Carlo evolution of hedge errors through time.

Paths are simulated under the real-world drift ``mu`` with exact-in-
distribution stepping (log-normal increments; under jump diffusion plus a
Poisson number of normal log-jumps per step).  Reproducibility contract:
path ``i`` draws from exactly the generator
``PCG64(SeedSequence(seed).spawn(n_paths)[i])``, normals come from the
inverse normal cdf applied to uniforms, and jump counts from Poisson
inversion - so results are bit-identical across runs and independent of
any outer parallelism.  The paths' generator states are derived in one
vectorized pass per block of paths (``_path_states``: numpy's
``SeedSequence`` spawn and ``PCG64`` seeding, replayed on arrays), and
the tests pin them to numpy's own.  Each path takes all its uniforms from
its generator in one draw, in the fixed order diffusion, jump count, jump
size; the transforms then run on blocks of paths as array operations,
which gives every path bitwise the values a one-path-at-a-time loop
computes.

Hedge evolution marks everything under the risk-neutral parameters:

* ``delta_hedge_run`` rebalances the stock hedge once per grid step using
  the self-financing recursion, and marks the target only at the grid
  times it returns.
* ``static_hedge_runs`` holds any number of ``HedgePortfolio``s fixed on
  one path set, accrues each inception cash residual ``b0`` at the
  risk-free rate, and rolls matured legs' payoffs forward in the money
  market.  It is one time-major walk that marks each distinct (strike,
  maturity) once per grid time: at every returned grid time it prices the
  union of live legs and targets, one ``call_price`` call per maturity
  (``models.call_marks``), then adds each portfolio's weighted marks in
  its own leg order.  Every sum is therefore bitwise the one a walk over
  that portfolio alone computes, and ``static_hedge_run`` is the
  one-portfolio case.  Marks are taken only at the returned grid times;
  matured payoffs roll forward at every step.

Errors are discounted (hedge minus target) and are exactly zero at time 0
for every static portfolio, since ``b0`` absorbs the inception gap.  Both
hedge runs take an optional executor and hand it to ``call_price`` and
``delta``, which share their blocks between the calling thread and the
executor; the walks themselves stay on the calling thread, and the errors
do not depend on the executor.

The grid is ``SimConfig.times``, shared by ``simulate_paths`` and the CLI
writers.  ``grid_index`` is the one on-grid rule (within ``1e-9`` of a
multiple of ``step``), and ``_leg_columns`` the one horizon and leg-grid
check: both hedge runs call it, and so does the experiment config for each
sweep value, before any path is simulated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import ndtri

from .errors import SimulationError
from .models import MAX_BLOCK, MjdParams, ModelSpec, OptionRef, call_marks, call_price, delta
from .spanning import HedgePortfolio, _legs_value

__all__ = [
    "SimConfig",
    "PathSet",
    "grid_index",
    "HedgeErrorStats",
    "simulate_paths",
    "delta_hedge_run",
    "static_hedge_run",
    "static_hedge_runs",
    "summarize",
    "pfe_curves",
    "write_errors_csv",
]

# Poisson inversion cap.  At step intensities lam * h << 1 the tail beyond a
# few jumps per step is already below float resolution; a draw that reaches
# the cap with mass left raises instead of being truncated.
MAX_JUMPS_PER_STEP = 64

_GRID_TOL = 1e-9

# numpy's SeedSequence hashing constants and PCG64's 128-bit LCG multiplier
# (numpy/random/bit_generator.pyx, numpy/random/src/pcg64/pcg64.h).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def grid_index(name: str, t: float, step: float) -> int:
    """Index of the grid time ``t`` on a grid of spacing ``step``: the
    multiple of ``step`` within ``1e-9`` of ``t``.  Raises
    ``SimulationError`` naming ``name`` when there is none."""
    i = round(t / step)
    if abs(i * step - t) > _GRID_TOL:
        raise SimulationError(f"{name}: {t!r} is not on the step grid (step {step!r})")
    return i


@dataclass(frozen=True)
class SimConfig:
    """Simulation grid: ``n_paths`` paths of ``horizon / step`` exact steps.
    Errors name the bad field, e.g. ``step: must be > 0, got 0.0``."""

    n_paths: int
    seed: int
    step: float
    horizon: float
    spot0: float

    def __post_init__(self):
        for name in ("step", "horizon", "spot0"):
            if not math.isfinite(getattr(self, name)):
                raise SimulationError(f"{name}: must be finite, got {getattr(self, name)!r}")
        if self.n_paths < 1:
            raise SimulationError(f"n_paths: must be >= 1, got {self.n_paths!r}")
        if self.n_paths > 2 ** 32:  # each path's spawn key is mixed as one uint32
            raise SimulationError(f"n_paths: must be <= 2**32, got {self.n_paths!r}")
        if self.seed < 0:
            raise SimulationError(f"seed: must be >= 0, got {self.seed!r}")
        if self.step <= 0.0:
            raise SimulationError(f"step: must be > 0, got {self.step!r}")
        if self.spot0 <= 0.0:
            raise SimulationError(f"spot0: must be > 0, got {self.spot0!r}")
        if grid_index("horizon", self.horizon, self.step) < 1:
            raise SimulationError(f"horizon: must be at least one step, got {self.horizon!r}")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.step)

    @property
    def times(self) -> np.ndarray:
        """The grid times ``0, step, ..., n_steps * step``."""
        return np.arange(self.n_steps + 1) * self.step


@dataclass(frozen=True)
class PathSet:
    """Simulated spot grid: ``times`` of shape (N+1,), ``values`` of shape
    (n_paths, N+1) with ``values[:, 0] == spot0``.  Any other shapes,
    fewer than two grid times, no path, or paths that start at different
    spots raise ``SimulationError``."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.times.ndim != 1 or self.times.size < 2 or self.values.shape[1:] != self.times.shape:
            raise SimulationError(f"paths: need at least 2 grid times and an (n_paths, n_times) "
                                  f"value matrix, got times of shape {self.times.shape} and "
                                  f"values of shape {self.values.shape}")
        if not self.values.shape[0] or np.any(self.values[:, 0] != self.values[0, 0]):
            raise SimulationError("paths: need at least one path, and every path must "
                                  "start at the same spot")
        self.times.setflags(write=False)
        self.values.setflags(write=False)

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]


def _poisson_inverse(u: np.ndarray, lam_h: float) -> np.ndarray:
    """Poisson counts by cdf inversion, vectorized over the uniforms."""
    counts = np.zeros(u.shape, dtype=np.int64)
    pk = np.full(u.shape, math.exp(-lam_h))
    cdf = pk.copy()
    remaining = u > cdf
    k = 0
    while remaining.any() and k < MAX_JUMPS_PER_STEP:
        k += 1
        pk = pk * (lam_h / k)
        cdf = cdf + pk
        counts[remaining] = k
        remaining = u > cdf
    if remaining.any():
        raise SimulationError(
            f"Poisson jump count exceeds the {MAX_JUMPS_PER_STEP}-jump cap per step "
            f"at lam * h = {lam_h:g}; shorten the step"
        )
    return counts


def _hashmix(values: np.ndarray, const: int, mult: int) -> tuple:
    """One SeedSequence hash step on ``uint32`` ``values``: returns the
    hashed values and the advanced hash constant."""
    advanced = const * mult & _MASK32
    hashed = (values ^ np.uint32(const)) * np.uint32(advanced)
    return hashed ^ hashed >> np.uint32(16), advanced


def _path_states(seed: int, lo: int, hi: int):
    """Yield the ``PCG64`` states of paths ``lo .. hi - 1``: path ``i`` gets
    bitwise ``PCG64(SeedSequence(seed).spawn(n)[i]).state`` for any
    ``n > i``.

    A spawned child hashes the parent's entropy and then its spawn key
    ``i``, so its pool is the parent's pool with the key mixed in.  That
    last mix and ``generate_state(4, uint64)`` run on a ``uint32`` array
    over the block's keys; the hash constant reaches the key after 4 + 12
    steps, plus 4 per entropy word past the pool (seeds >= 2^128).  PCG64
    then seeds its 128-bit LCG from the four words with Python ints, one
    path at a time, so a block never holds all its state dicts at once.
    """
    seed = int(seed)
    pool = np.random.SeedSequence(seed).pool
    words = max(1, -(-seed.bit_length() // 32))
    steps = _POOL_SIZE * (_POOL_SIZE + max(0, words - _POOL_SIZE))
    const = _INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK32
    keys = np.arange(lo, hi, dtype=np.uint32)
    mixer = np.empty((hi - lo, _POOL_SIZE), dtype=np.uint32)
    out = np.empty((hi - lo, 2 * _POOL_SIZE), dtype=np.uint32)
    with np.errstate(over="ignore"):
        for d in range(_POOL_SIZE):
            hashed, const = _hashmix(keys, const, _MULT_A)
            mixed = np.uint32(_MIX_MULT_L) * pool[d] - np.uint32(_MIX_MULT_R) * hashed
            mixer[:, d] = mixed ^ mixed >> np.uint32(16)
        const = _INIT_B
        for k in range(2 * _POOL_SIZE):
            out[:, k], const = _hashmix(mixer[:, k % _POOL_SIZE], const, _MULT_B)
    for row in out.astype("<u4").view("<u8").astype(np.uint64):
        s_hi, s_lo, i_hi, i_lo = row.tolist()
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def simulate_paths(model: ModelSpec, cfg: SimConfig) -> PathSet:
    """Simulate spot paths under the real-world drift ``model.mu``.

    Each step is exact in distribution: plain GBM draws one normal per
    step; the jump model additionally compensates the drift by ``lam * g``
    and adds ``N_k ~ Poisson(lam h)`` normal log-jumps, realized through a
    single normal with mean ``N_k mu_j`` and variance ``N_k sigma_j^2``.
    With ``lam == 0`` the jump model consumes extra uniforms but produces
    bit-identical path values to the GBM simulator.

    Path ``i`` draws all its uniforms in one call on exactly the generator
    ``PCG64(SeedSequence(cfg.seed).spawn(cfg.n_paths)[i])``: the diffusion
    uniforms of every step, then (jump model) the Poisson uniforms, then
    the jump-size uniforms.  One ``PCG64`` is reseeded per path from
    ``_path_states``, which derives a block's states in one vectorized
    pass.  The transforms run on blocks of paths holding at most
    ``MAX_BLOCK`` uniforms (or one path), and every step is elementwise
    or a per-row running sum, so each path is bitwise the one a per-path
    loop computes.
    """
    n_steps = cfg.n_steps
    h = cfg.step
    sqrt_h = math.sqrt(h)
    jump = isinstance(model, MjdParams)
    drift = (model.mu - model.delta_yield - 0.5 * model.sigma ** 2) * h
    if jump:
        drift = (model.mu - model.delta_yield - model.lam * model.g
                 - 0.5 * model.sigma ** 2) * h
        lam_h = model.lam * h
    draws = 3 if jump else 1
    values = np.empty((cfg.n_paths, n_steps + 1))
    values[:, 0] = cfg.spot0
    bitgen = np.random.PCG64(0)
    generator = np.random.Generator(bitgen)
    rows = max(1, MAX_BLOCK // (draws * n_steps))
    for lo in range(0, cfg.n_paths, rows):
        hi = min(lo + rows, cfg.n_paths)
        u = np.empty((hi - lo, draws, n_steps))
        for state, out in zip(_path_states(cfg.seed, lo, hi), u):
            bitgen.state = state
            generator.random(out=out)
        log_increments = drift + model.sigma * sqrt_h * ndtri(u[:, 0])
        if jump:
            counts = _poisson_inverse(u[:, 1], lam_h)
            z_jump = ndtri(u[:, 2])
            log_increments = log_increments + (
                counts * model.mu_j + model.sigma_j * np.sqrt(counts) * z_jump
            )
        growth = np.exp(np.cumsum(log_increments, axis=1))
        np.multiply(cfg.spot0, growth, out=values[lo:hi, 1:])
    return PathSet(cfg.times, values)


def _leg_columns(times: np.ndarray, target: OptionRef, maturities=()) -> dict:
    """``{maturity: grid index}`` of the leg ``maturities`` inside the
    horizon of the grid ``times``, each of which must lie on the grid so its
    payoff is observed.  The horizon must stay below the ``target`` maturity
    and must not pass the longest leg."""
    horizon, step = float(times[-1]), float(times[1] - times[0])
    if horizon >= target.maturity:
        raise SimulationError(f"horizon: grid horizon {horizon!r} must stay below the "
                              f"target maturity {target.maturity!r}")
    if maturities and horizon > max(maturities) + _GRID_TOL:
        raise SimulationError(f"horizon: grid horizon {horizon!r} extends past the longest "
                              f"hedge leg {max(maturities)!r}")
    return {m: grid_index("leg maturity", m, step) for m in maturities
            if m <= horizon + _GRID_TOL}


def _column_slots(times: np.ndarray, columns) -> tuple:
    """Resolve the grid ``columns`` a hedge run returns (default: every grid
    time) to ``(n_columns, {grid index: output positions})``.  A column
    that is a bool or not an integer raises ``SimulationError``."""
    columns = range(len(times)) if columns is None else list(columns)
    slots = {}
    for j, c in enumerate(columns):
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
            raise SimulationError(f"column {c!r} is not an integer grid index")
        if not 0 <= c < len(times):
            raise SimulationError(f"column {c!r} is outside the grid 0..{len(times) - 1}")
        slots.setdefault(c, []).append(j)
    return len(columns), slots


def delta_hedge_run(paths: PathSet, model: ModelSpec, target: OptionRef,
                    columns=None, executor=None) -> np.ndarray:
    """Discounted errors of a discretely rebalanced delta hedge.

    Self-financing recursion ``V_i = D_{i-1} S_i + (V_{i-1} - D_{i-1}
    S_{i-1}) e^{r h}`` started from the target price, with the greek and
    all marks under the risk-neutral parameters; the inception price and
    delta are taken once at ``S[0, 0]``, where every path starts.  Returns
    an (n_paths, len(columns)) matrix, column ``j`` holding ``e^{-r t_i}
    (V_i - C(S_i, t_i))`` at grid index ``i = columns[j]`` (default: every
    grid time); grid index 0 is identically zero.  The recursion runs at
    every step, but the target is marked only at the returned grid times.
    The kernels share their blocks with ``executor`` when one is given.
    """
    times = paths.times
    _leg_columns(times, target)
    n_columns, slots = _column_slots(times, columns)
    r = model.r
    S = paths.values
    errors = np.zeros((paths.n_paths, n_columns))
    V = np.full(paths.n_paths, call_price(model, S[0, 0], 0.0, target.strike, target.maturity))
    for i in range(1, len(times)):
        h = times[i] - times[i - 1]
        # every path starts at S[0, 0], so the inception delta is one scalar
        spots = S[0, 0] if i == 1 else S[:, i - 1]
        d_prev = delta(model, spots, times[i - 1], target.strike, target.maturity, executor)
        V = d_prev * S[:, i] + (V - d_prev * S[:, i - 1]) * math.exp(r * h)
        if i in slots:
            marks = call_price(model, S[:, i], times[i], target.strike, target.maturity,
                               executor)
            errors[:, slots[i]] = (math.exp(-r * times[i]) * (V - marks))[:, None]
    return errors


def static_hedge_runs(paths: PathSet, portfolios, model: ModelSpec, columns=None,
                      executor=None) -> list:
    """Discounted errors of several static hedges held on one path set.

    Returns one (n_paths, len(columns)) matrix per portfolio, column ``j``
    holding the errors at grid index ``columns[j]`` (default: every grid
    time).  Each portfolio's hedge value is its live legs marked to model,
    plus ``b0`` accrued at the risk-free rate, plus the intrinsic payoffs
    of its matured legs rolled forward in the money market.  Errors are
    ``e^{-r t} (hedge - target price)``.  Live legs and targets are marked
    once per returned grid time for all portfolios together, one
    ``call_price`` call per maturity, which shares its blocks with
    ``executor`` when one is given; ``spanning._legs_value`` then adds each
    portfolio's live legs to its cash and matured payoffs, in leg order.
    A portfolio built at another spot than the paths' start raises
    ``SimulationError``.
    """
    times = paths.times
    # Each leg's expiry grid index, or None for a leg that outlives the horizon.
    expiries = []
    for p in portfolios:
        if p.spot != paths.values[0, 0]:
            raise SimulationError(f"{p.method_tag}: portfolio spot {p.spot!r} is not the "
                                  f"paths' start spot {float(paths.values[0, 0])!r}")
        expiry = _leg_columns(times, p.target, p.maturities)
        expiries.append([expiry.get(leg.maturity) for leg in p.legs])
    n_columns, slots = _column_slots(times, columns)
    r = model.r
    S = paths.values
    out = [np.zeros((paths.n_paths, n_columns)) for _ in portfolios]
    matured = [np.zeros(paths.n_paths) for _ in portfolios]
    for i, t in enumerate(times):
        if i > 0:
            growth = math.exp(r * (t - times[i - 1]))
            for k, (portfolio, expiry) in enumerate(zip(portfolios, expiries)):
                matured[k] = matured[k] * growth
                for leg, e in zip(portfolio.legs, expiry):
                    if e == i:
                        matured[k] = matured[k] + leg.weight * np.maximum(
                            S[:, i] - leg.strike, 0.0
                        )
        if i not in slots:
            continue
        live = [[leg for leg, e in zip(p.legs, expiry) if e is None or e > i]
                for p, expiry in zip(portfolios, expiries)]
        marks = call_marks(model, S[:, i], t, [
            *((p.target.strike, p.target.maturity) for p in portfolios),
            *((leg.strike, leg.maturity) for legs in live for leg in legs),
        ], executor)
        for k, portfolio in enumerate(portfolios):
            hedge = _legs_value(live[k], marks, portfolio.b0 * math.exp(r * t) + matured[k])
            target = marks[portfolio.target.strike, portfolio.target.maturity]
            out[k][:, slots[i]] = (math.exp(-r * t) * (hedge - target))[:, None]
    return out


def static_hedge_run(paths: PathSet, portfolio: HedgePortfolio, model: ModelSpec) -> np.ndarray:
    """Discounted errors of one static hedge at every grid time: the
    one-portfolio case of ``static_hedge_runs``.  Errors vanish at time 0
    by the construction of ``b0``."""
    return static_hedge_runs(paths, [portfolio], model)[0]


@dataclass(frozen=True)
class HedgeErrorStats:
    """Summary of one cross-path error sample (percentiles interpolated
    linearly, rmse about zero, excess-kurtosis convention)."""

    p95: float
    p05: float
    rmse: float
    mean: float
    mae: float
    min: float
    max: float
    skewness: float
    kurtosis: float
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def summarize(errors: np.ndarray) -> HedgeErrorStats:
    """Summarize a vector of hedge errors at one fixed time."""
    e = np.asarray(errors, dtype=float).ravel()
    if e.size < 2:
        raise SimulationError("need at least 2 samples to summarize")
    mean = float(e.mean())
    centered = e - mean
    m2 = float(np.mean(centered ** 2))
    degenerate = float(np.ptp(e)) == 0.0 or m2 == 0.0
    if degenerate:
        skew = kurt = 0.0
    else:
        skew = float(np.mean(centered ** 3) / m2 ** 1.5)
        kurt = float(np.mean(centered ** 4) / m2 ** 2 - 3.0)
    p95, p05 = np.percentile(e, [95, 5]).tolist()
    return HedgeErrorStats(
        p95=p95,
        p05=p05,
        rmse=float(np.sqrt(np.mean(e ** 2))),
        mean=mean,
        mae=float(np.mean(np.abs(e))),
        min=float(e.min()),
        max=float(e.max()),
        skewness=skew,
        kurtosis=kurt,
        degenerate=degenerate,
    )


def pfe_curves(errors: np.ndarray, levels=(95, 5)) -> dict:
    """Per-time percentiles of the cross-path error distribution.

    Returns ``{level: array over grid times}``; errors are already
    discounted by the hedge runs, so these are discounted exposures.
    """
    e = np.asarray(errors, dtype=float)
    if e.ndim != 2 or e.shape[0] < 2:
        raise SimulationError("need an (n_paths, n_times) matrix with >= 2 paths")
    return {level: np.percentile(e, level, axis=0) for level in levels}


def write_errors_csv(path, times: np.ndarray, errors: np.ndarray):
    """Dump an error matrix, one row per path, columns labeled by grid time.

    Cells are the ``repr`` of each value as a Python float, and rows end in
    ``\\r\\n``: the bytes the ``csv`` module's default dialect writes for
    these cells, none of which needs quoting.  An ``errors`` matrix that
    is not 2-D with one column per time raises ``SimulationError``.
    """
    times, errors = np.asarray(times, dtype=float), np.asarray(errors, dtype=float)
    if errors.ndim != 2 or errors.shape[1:] != times.shape:
        raise SimulationError(f"errors: need one column per grid time, got shape "
                              f"{errors.shape} for times of shape {times.shape}")
    header = ",".join(["path"] + [repr(t) for t in times.tolist()])
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(f"{idx},{','.join(map(repr, row))}\r\n"
                      for idx, row in enumerate(errors.tolist()))
