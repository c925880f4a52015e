"""Static hedging of European options with shorter-maturity option baskets.

Subpackages:

* ``quadrature``: Gauss-Legendre/Hermite/Laguerre rules and the affine
  map of a Legendre rule onto an interval.
* ``models``: closed-form pricing, deltas and strike-gamma weights under
  geometric Brownian motion and Merton-style jump diffusion.
* ``spanning``: static hedge construction (Hermite ladders and band-limited
  quadrature hedges over one or several short maturities) plus inception
  diagnostics.
* ``simulation``: seeded Monte-Carlo hedge-error evolution, summary
  statistics and exposure percentile curves.
* ``experiments`` / ``cli``: config-driven batch runner and its command
  line front end.
"""

__version__ = "1.0.0"

from .errors import (
    ConfigError,
    DomainError,
    NumericalError,
    QuadratureError,
    SeriesError,
    SimulationError,
    SingularMaturityError,
    SpanningError,
    StaticHedgeError,
)
from .models import (
    BsParams,
    MjdParams,
    ModelSpec,
    OptionRef,
    annualized_variance,
    call_marks,
    call_price,
    delta,
    put_price,
    strike_gamma_weight,
)
from .quadrature import QuadratureRule, make_rule, map_to_interval
from .simulation import (
    HedgeErrorStats,
    PathSet,
    SimConfig,
    delta_hedge_run,
    pfe_curves,
    simulate_paths,
    static_hedge_run,
    static_hedge_runs,
    summarize,
    write_errors_csv,
)
from .spanning import (
    HedgeLeg,
    HedgePortfolio,
    ModifiedWeightConfig,
    StrikeBand,
    build_cw_a,
    build_cw_b,
    build_gq1,
    build_gq2,
    build_gq_n,
    build_sweep,
    edl,
    hermite_strike_map,
    leg_table,
    modified_weight,
    pdl,
    portfolio_from_csv,
    portfolio_to_csv,
    portfolio_value,
)

__all__ = [name for name in dir() if not name.startswith("_")]
