"""Reference computations the portfolio tests compare the Monte-Carlo frontier against."""

import numpy as np

from sectorport.portfolio import CovarianceMatrix, PortfolioWeights


def portfolio_stats(w: PortfolioWeights, mean: np.ndarray, cov) -> tuple[float, float]:
    """Annualized (return, risk) of one weight vector: w'mean and sqrt(w'Cw)."""
    entries = cov.entries if isinstance(cov, CovarianceMatrix) else np.asarray(cov, dtype=float)
    wv = w.weights
    mean = np.asarray(mean, dtype=float)
    if mean.shape != wv.shape or entries.shape != (wv.size, wv.size):
        raise ValueError(
            f"dimension mismatch: weights {wv.shape}, mean {mean.shape}, cov {entries.shape}"
        )
    variance = float(wv @ entries @ wv)
    if variance < -1e-9:
        raise ValueError(f"invalid covariance: w'Cw = {variance:.3g} < 0")
    return float(wv @ mean), float(np.sqrt(max(variance, 0.0)))


def analytic_min_variance(cov: CovarianceMatrix) -> PortfolioWeights:
    """Closed-form minimum-variance weights C^-1 1 / (1' C^-1 1).

    This is the unconstrained (sum-to-one only) optimum, used as a testing
    oracle for the Monte-Carlo frontier. It is only comparable to the
    nonnegative cloud when all components come out nonnegative; otherwise the
    fixture is invalid and an error is raised.
    """
    ones = np.ones(len(cov.symbols))
    try:
        x = np.linalg.solve(cov.entries, ones)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular covariance matrix: {exc}") from exc
    w = x / x.sum()
    if (w < 0).any():
        raise ValueError(
            "unconstrained minimum-variance weights have negative components; "
            "fixture invalid for nonnegative comparison"
        )
    return PortfolioWeights(cov.symbols, w)
