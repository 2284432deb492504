"""Mean-variance statistics, Monte-Carlo efficient frontiers, and portfolio selection.

The frontier is the full cloud of randomly weighted portfolios (the config's
n_draws of them), held as columns: a (draws, symbols) weight matrix and one array
each of returns, risks and Sharpe ratios. The minimum-variance and
maximum-Sharpe portfolios are its argmin and argmax, and the selectors return
those draw indices. Weight vectors are independent uniform(0,1)
draws normalized to sum to one, so short selling is excluded by construction.
The CSV export is a stream of text blocks of 8192 rows, so writing a cloud to
a file holds one block of text at a time, never the whole export.

Draw ``i`` always consumes doubles ``[i*n, (i+1)*n)`` of a single PCG64
stream keyed by the seed, so the clouds of one seed are nested prefixes of
each other across n_draws.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

from .market_data import TRADING_DAYS, daily_returns

_CSV_BLOCK_ROWS = 8192


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Annualized return covariance, validated symmetric and PSD."""

    symbols: tuple[str, ...]
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != len(self.symbols):
            raise ValueError(f"covariance shape {m.shape} does not match {len(self.symbols)} symbols")
        if not np.all(np.abs(m - m.T) <= 1e-12):
            raise ValueError("covariance matrix is not symmetric")
        sym = (m + m.T) / 2.0
        eigvals = np.linalg.eigvalsh(sym)
        if eigvals.min() < -1e-9:
            raise ValueError(f"covariance matrix is not PSD (min eigenvalue {eigvals.min():.3g})")
        object.__setattr__(self, "entries", sym)


@dataclass(frozen=True, eq=False)
class PortfolioWeights:
    """Nonnegative allocation fractions summing to one."""

    symbols: tuple[str, ...]
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.symbols),):
            raise ValueError(f"{len(self.symbols)} symbols but weight shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {float(w.sum())}, not 1")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True, eq=False)
class FrontierCloud:
    """Monte-Carlo cloud as columns, row i being draw i: weights (n, k), the others (n,)."""

    symbols: tuple[str, ...]
    weights: np.ndarray = field(repr=False)
    returns: np.ndarray = field(repr=False)
    risks: np.ndarray = field(repr=False)
    sharpes: np.ndarray = field(repr=False)

    def __post_init__(self):
        n, k = len(self.weights), len(self.symbols)
        if n < 1:
            raise ValueError("empty frontier cloud")
        shapes = [np.shape(a) for a in (self.weights, self.returns, self.risks, self.sharpes)]
        if shapes != [(n, k), (n,), (n,), (n,)]:
            raise ValueError(f"column shapes {shapes} do not fit {n} draws of {k} symbols")

    @property
    def n_draws(self) -> int:
        return len(self.weights)


def mean_and_covariance(symbols: tuple[str, ...], closes: np.ndarray) -> tuple[np.ndarray, CovarianceMatrix]:
    """Annualized mean vector and sample covariance of the daily returns of an aligned
    close matrix, whose columns are the symbols'.

    Daily means and the n-1 sample covariance are both scaled by 250 trading
    days, matching the volatility annualization convention.
    """
    if closes.shape[0] < 3:
        raise ValueError(f"need >= 3 aligned dates, got {closes.shape[0]}")
    rets = daily_returns(closes)
    mean = rets.mean(axis=0) * TRADING_DAYS
    cov = np.atleast_2d(np.cov(rets, rowvar=False, ddof=1)) * TRADING_DAYS
    cov = (cov + cov.T) / 2.0
    return mean, CovarianceMatrix(symbols, cov)


def sharpe_ratio(
    annual_return: float | np.ndarray,
    annual_risk: float | np.ndarray,
    risk_free: float,
) -> float | np.ndarray:
    """Excess return over the risk-free rate per unit of risk, for scalars or arrays."""
    if np.any(np.less_equal(annual_risk, 0)):
        raise ValueError(f"annual_risk must be positive, got {np.min(annual_risk)}")
    return (annual_return - risk_free) / annual_risk


def _weight_block(seed: int, count: int, n_assets: int) -> np.ndarray:
    """Weight rows for the first count draws of the seed's stream.

    Row i is doubles [i*n, (i+1)*n) of PCG64(seed)'s output divided by their sum, in place: the
    bits of an out-of-place division, without allocating a second (count, n_assets) block.
    """
    raw = Generator(PCG64(SeedSequence(seed))).random((count, n_assets))
    raw /= raw.sum(axis=1, keepdims=True)
    return raw


def build_frontier(
    mean: np.ndarray,
    cov: CovarianceMatrix,
    n_draws: int,
    risk_free: float,
    seed: int,
) -> FrontierCloud:
    """Monte-Carlo cloud of randomly weighted portfolios.

    Deterministic for a fixed (seed, n_draws): every draw's weights are a
    fixed function of (seed, draw_index), so prefixes are nested across
    different n_draws values.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    mean = np.asarray(mean, dtype=float)
    symbols = cov.symbols
    n = len(symbols)
    if mean.shape != (n,):
        raise ValueError(f"mean shape {mean.shape} does not match {n} symbols")

    weights = _weight_block(seed, n_draws, n)
    returns = weights @ mean
    variances = np.einsum("ij,ij->i", weights @ cov.entries, weights)
    if variances.min() < -1e-9:
        raise ValueError(f"invalid covariance: w'Cw = {variances.min():.3g} < 0")
    risks = np.sqrt(np.maximum(variances, 0.0))
    sharpes = sharpe_ratio(returns, risks, risk_free)
    return FrontierCloud(symbols, weights, returns, risks, sharpes)


def min_variance_portfolio(cloud: FrontierCloud) -> int:
    """Draw index of the cloud's minimum risk; ties resolve to the lowest index."""
    return int(np.argmin(cloud.risks))


def max_sharpe_portfolio(cloud: FrontierCloud) -> int:
    """Draw index of the cloud's maximum Sharpe ratio; ties resolve to the lowest index."""
    if (cloud.risks <= 0).any():
        raise ValueError("all points must have positive risk")
    return int(np.argmax(cloud.sharpes))


def frontier_csv_blocks(cloud: FrontierCloud, start: int = 0, stop: int | None = None) -> Iterator[str]:
    """Frontier export of draws [start, stop) as text blocks of _CSV_BLOCK_ROWS rows,
    after the header when start is 0.

    Columns draw_index,risk,return,sharpe,w_<SYM>... with 12 significant digits.
    Each row's text depends only on its draw, so the exports of adjacent ranges,
    joined, are the export of their union; the whole cloud's joined blocks are the
    file. A writer that consumes them one by one holds one block (about 2 MB at 12
    symbols), never the whole text.
    """
    stop = cloud.n_draws if stop is None else stop
    row = "%d" + ",%.12g" * (3 + len(cloud.symbols)) + "\n"
    if start == 0:
        yield "draw_index,risk,return,sharpe," + ",".join(f"w_{s}" for s in cloud.symbols) + "\n"
    # The draw index goes through %d as a float.
    columns = (cloud.risks, cloud.returns, cloud.sharpes, cloud.weights)
    for lo in range(start, stop, _CSV_BLOCK_ROWS):
        hi = min(lo + _CSV_BLOCK_ROWS, stop)
        block = np.column_stack((np.arange(lo, hi), *(c[lo:hi] for c in columns)))
        yield (row * (hi - lo)) % tuple(block.ravel().tolist())


def portfolio_report(sector_name: str, cloud: FrontierCloud, min_risk: int, opt_risk: int) -> dict:
    """Report dict with the blocks of cloud's draws min_risk and opt_risk, one weight per symbol."""

    def block(i: int) -> dict:
        return {
            "weights": {s: float(w) for s, w in zip(cloud.symbols, cloud.weights[i])},
            "annual_return": float(cloud.returns[i]),
            "annual_risk": float(cloud.risks[i]),
        }

    return {"sector": sector_name, "min_risk": block(min_risk), "opt_risk": block(opt_risk)}
