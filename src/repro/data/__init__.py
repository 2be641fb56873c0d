"""Market-data substrate: synthetic crypto market + simulated exchange.

Substitutes the paper's Poloniex 2016–2021 dataset, which needs the live
exchange API, with a deterministic regime-switching jump-diffusion
market and an offline Poloniex-compatible API.
"""

from .generator import (
    DEFAULT_PERIOD_SECONDS,
    CoinSpec,
    MarketGenerator,
    default_universe,
)
from .market import (
    MarketData,
    market_from_state,
    market_to_state,
    unvalidated_market,
)
from .poloniex import (
    DEFAULT_FETCH_RETRY,
    PoloniexError,
    PoloniexSimulator,
    PoloniexTransientError,
    VALID_PERIODS,
)
from .regimes import (
    Regime,
    RegimeSchedule,
    default_crypto_schedule,
    format_date,
    parse_date,
)
from .selection import (
    PAPER_NUM_ASSETS,
    PAPER_VOLUME_WINDOW_DAYS,
    select_universe,
    top_volume_assets,
)
from .splits import (
    TABLE1_WINDOWS,
    ExperimentWindow,
    get_window,
    walk_forward_windows,
)
from .validation import (
    REPAIR_POLICIES,
    AnomalyReport,
    DataAnomalyError,
    validate_panel,
)

__all__ = [
    "AnomalyReport",
    "CoinSpec",
    "DEFAULT_FETCH_RETRY",
    "DEFAULT_PERIOD_SECONDS",
    "DataAnomalyError",
    "ExperimentWindow",
    "MarketData",
    "MarketGenerator",
    "PAPER_NUM_ASSETS",
    "PAPER_VOLUME_WINDOW_DAYS",
    "PoloniexError",
    "PoloniexSimulator",
    "PoloniexTransientError",
    "REPAIR_POLICIES",
    "Regime",
    "RegimeSchedule",
    "TABLE1_WINDOWS",
    "VALID_PERIODS",
    "default_crypto_schedule",
    "default_universe",
    "format_date",
    "get_window",
    "market_from_state",
    "market_to_state",
    "parse_date",
    "select_universe",
    "top_volume_assets",
    "unvalidated_market",
    "validate_panel",
    "walk_forward_windows",
]
