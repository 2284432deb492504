"""Mean-variance statistics, Monte-Carlo efficient frontiers, and portfolio selection.

The frontier is the full cloud of randomly weighted portfolios (the config's
n_draws of them), held as columns: a (draws, symbols) weight matrix and one array
each of returns, risks and Sharpe ratios. The minimum-variance and
maximum-Sharpe portfolios are its argmin and argmax, and the selectors return
those draw indices. Weight vectors are independent uniform(0,1)
draws normalized to sum to one, so short selling is excluded by construction.
The cloud is computed 8192 rows at a time, and exported as CSV text 1024 rows at
a time, so an export holds one block of text.

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

_BLOCK_ROWS = 8192
# A block's floats and % arguments take about four times the memory of its text, so text blocks are smaller.
_TEXT_BLOCK_ROWS = 1024


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Annualized return covariance, a symmetric k x k matrix as mean_and_covariance builds it, validated PSD."""

    symbols: tuple[str, ...]
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        eigvals = np.linalg.eigvalsh(self.entries)
        if eigvals.min() < -1e-9:
            raise ValueError(f"covariance matrix is not PSD (min eigenvalue {eigvals.min():.3g})")


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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        rets = daily_returns(closes)
        mean = rets.mean(axis=0) * TRADING_DAYS
        cov = np.atleast_2d(np.cov(rets, rowvar=False, ddof=1)) * TRADING_DAYS
        cov = (cov + cov.T) / 2.0
    finite = np.isfinite(mean) & np.isfinite(np.diagonal(cov))
    if not finite.all():
        raise ValueError(f"{symbols[np.argmin(finite)]}: annualized return mean or variance is not finite")
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


def _blocks(n_draws: int) -> Iterator[tuple[int, int]]:
    """Row ranges [lo, hi) of the cloud's blocks of _BLOCK_ROWS rows, a lone last row joined to the one before.

    BLAS takes a GEMV's rows in small groups, the last few of a call by another kernel, and NumPy takes a one-row
    product as a dot, so these edges give each draw the bits of one whole-array product at one BLAS thread.
    """
    edges = [*range(0, max(n_draws - 1, 1), _BLOCK_ROWS), n_draws]
    return zip(edges, edges[1:])


# Keys the .pick entries cli caches by the prices and settings a cloud is built from, so any change to the bits of
# PriceSeries.restrict, market_data.align, mean_and_covariance or the draw must change it.
_CLOUD_TAG = b"sectorport cloud 2"


def _draw_block(rng: Generator, mean: np.ndarray, cov: CovarianceMatrix, weights, returns, risks):
    """Fill weights with rng's next rows, each k doubles divided by their sum in place (the bits of an
    out-of-place division), returns with their w'mean, and risks with their sqrt(max(w'Cw, 0)). Such a w has
    |w| <= 1, so CovarianceMatrix's PSD check keeps w'Cw >= -1e-9 and the clamp takes only rounding."""
    rng.random(out=weights)
    weights /= weights.sum(axis=1, keepdims=True)
    np.matmul(weights, mean, out=returns)
    np.einsum("ij,ij->i", weights @ cov.entries, weights, out=risks)
    np.sqrt(np.maximum(risks, 0.0, out=risks), out=risks)


def build_frontier(mean: np.ndarray, cov: CovarianceMatrix, n_draws: int, risk_free: float, seed: int) -> FrontierCloud:
    """Monte-Carlo cloud of the seed's first n_draws draws, computed block by block."""
    rng = Generator(PCG64(SeedSequence(seed)))
    weights, returns, risks = np.empty((n_draws, len(cov.symbols))), np.empty(n_draws), np.empty(n_draws)
    for lo, hi in _blocks(n_draws):
        _draw_block(rng, mean, cov, weights[lo:hi], returns[lo:hi], risks[lo:hi])
    return FrontierCloud(cov.symbols, weights, returns, risks, sharpe_ratio(returns, risks, risk_free))


def min_variance_portfolio(cloud: FrontierCloud) -> int:
    """Draw index of the cloud's minimum risk; ties resolve to the lowest index."""
    return int(np.argmin(cloud.risks))


def max_sharpe_portfolio(cloud: FrontierCloud) -> int:
    """Draw index of the cloud's maximum Sharpe ratio; ties resolve to the lowest index."""
    return int(np.argmax(cloud.sharpes))


def frontier_csv_blocks(cloud: FrontierCloud, start: int = 0, stop: int | None = None) -> Iterator[str]:
    """Frontier export of draws [start, stop) as text blocks of _TEXT_BLOCK_ROWS rows,
    after the header when the range holds draw 0.

    Columns draw_index,risk,return,sharpe,w_<SYM>... with 12 significant digits.
    Each row's text depends only on its draw, so the exports of adjacent ranges,
    joined, are the export of their union; the whole cloud's joined blocks are the
    file. A writer that consumes them one by one holds one block (a traced peak of
    about 1.3 MB at 12 symbols), never the whole text.
    """
    stop = cloud.n_draws if stop is None else stop
    row = "%d" + ",%.12g" * (3 + len(cloud.symbols)) + "\n"
    if start == 0 < stop:
        yield "draw_index,risk,return,sharpe," + ",".join(f"w_{s}" for s in cloud.symbols) + "\n"
    # The draw index goes through %d as a float.
    columns = (cloud.risks, cloud.returns, cloud.sharpes, cloud.weights)
    for lo in range(start, stop, _TEXT_BLOCK_ROWS):
        hi = min(lo + _TEXT_BLOCK_ROWS, stop)
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
