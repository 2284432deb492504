"""Reference computations the tests compare the library against.

The portfolio tests compare the Monte-Carlo frontier against the first two;
the LSTM kernel test compares every step of the time-major kernel against
lstm_cell_step.
"""

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


def lstm_cell_step(x_t, h_prev, c_prev, params) -> tuple[np.ndarray, np.ndarray]:
    """One textbook LSTM step in float64; returns (h_t, c_t).

    Gate blocks are stacked [input, forget, candidate, output] along the last
    axis of params.wx, params.wh and params.b, the gates are 1 / (1 + exp(-z))
    and the candidate and cell output tanh. x_t, h_prev and c_prev may carry
    leading batch axes. Written apart from the library kernel, which computes
    the logistic as 0.5 * (1 + tanh(z / 2)) in place over all gates at once.
    """
    wx = np.asarray(params.wx, dtype=np.float64)
    wh = np.asarray(params.wh, dtype=np.float64)
    b = np.asarray(params.b, dtype=np.float64)
    width = wh.shape[0]
    z = np.asarray(x_t, dtype=np.float64) @ wx + np.asarray(h_prev, dtype=np.float64) @ wh + b
    i = 1.0 / (1.0 + np.exp(-z[..., :width]))
    f = 1.0 / (1.0 + np.exp(-z[..., width : 2 * width]))
    g = np.tanh(z[..., 2 * width : 3 * width])
    o = 1.0 / (1.0 + np.exp(-z[..., 3 * width :]))
    c_t = f * np.asarray(c_prev, dtype=np.float64) + i * g
    h_t = o * np.tanh(c_t)
    return h_t, c_t
