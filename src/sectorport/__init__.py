"""Sector portfolio construction, Monte-Carlo frontiers, LSTM forecasting, backtesting."""

from .backtest import (
    Allocation,
    BacktestLedger,
    SummaryRow,
    allocate,
    roi,
    run_backtest,
    value_portfolio,
)
from .config import RunConfig, SectorUniverse, derive_seed, load_config
from .lstm import (
    LstmConfig,
    LstmModel,
    Scaler,
    fit_scaler,
    gradient_check,
    huber_loss,
    load_checkpoint,
    mae,
    make_windows,
    predict_batch,
    predict_next,
    save_checkpoint,
    train,
)
from .market_data import (
    AlignedCloseMatrix,
    AssetStats,
    PriceSeries,
    ReturnSeries,
    align,
    asset_stats,
    daily_returns,
    fetch_history,
    parse_csv,
    serialize_csv,
)
from .portfolio import (
    CovarianceMatrix,
    FrontierCloud,
    FrontierPoint,
    PortfolioWeights,
    build_frontier,
    max_sharpe_portfolio,
    mean_and_covariance,
    min_variance_portfolio,
    sharpe_ratio,
)

__version__ = "0.1.0"
