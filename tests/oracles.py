"""Reference computations the tests compare the library against.

The portfolio tests compare the Monte-Carlo frontier against the first two;
the LSTM kernel test compares every step of the time-major kernel against
lstm_cell_step; gradient_check compares BPTT against central finite
differences on a float64_copy of a model.
"""

from dataclasses import replace

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

from sectorport.lstm import LstmModel, backward_batch, forward_batch, huber_gradient, huber_loss
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


def lstm_cell_step(x_t, h_prev, c_prev, wx, wh, b) -> tuple[np.ndarray, np.ndarray]:
    """One textbook LSTM step in float64; returns (h_t, c_t).

    Gate blocks are stacked [input, forget, candidate, output] along the last
    axis of wx, wh and b, the gates are 1 / (1 + exp(-z))
    and the candidate and cell output tanh. x_t, h_prev and c_prev may carry
    leading batch axes. Written apart from the library kernel, which computes
    the logistic as 0.5 * (1 + tanh(z / 2)) in place over all gates at once.
    """
    wx = np.asarray(wx, dtype=np.float64)
    wh = np.asarray(wh, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    width = wh.shape[0]
    z = np.asarray(x_t, dtype=np.float64) @ wx + np.asarray(h_prev, dtype=np.float64) @ wh + b
    i = 1.0 / (1.0 + np.exp(-z[..., :width]))
    f = 1.0 / (1.0 + np.exp(-z[..., width : 2 * width]))
    g = np.tanh(z[..., 2 * width : 3 * width])
    o = 1.0 / (1.0 + np.exp(-z[..., 3 * width :]))
    c_t = f * np.asarray(c_prev, dtype=np.float64) + i * g
    h_t = o * np.tanh(c_t)
    return h_t, c_t


def float64_copy(model: LstmModel) -> LstmModel:
    """A copy of the model with every parameter tensor in float64; the kernel follows that dtype."""
    return replace(model, params={name: arr.astype(np.float64) for name, arr in model.params.items()})


def gradient_check(
    model: LstmModel,
    inputs: np.ndarray,
    targets: np.ndarray,
    epsilon: float = 1e-5,
    coords_per_tensor: int = 100,
    coord_seed: int = 0,
    fault: str | None = None,
) -> float:
    """Max relative error of BPTT gradients vs central finite differences.

    Checks every parameter tensor on the Huber loss of the given scaled
    sample batch, dropout off. Tensors larger than coords_per_tensor are
    subsampled at seeded random coordinates. The relative error denominator
    is max(|analytic|, |numeric|, 1e-8). `fault` names a tensor whose
    analytic gradient is doubled first (for verifying the check can fail).
    The check runs on a float64 copy of the model: central differences at
    epsilon = 1e-5 are below float32 resolution.
    """
    model = float64_copy(model)
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    delta = model.config.huber_delta

    def loss() -> float:
        pred, _ = forward_batch(model, inputs, training=False)
        return float(np.mean(huber_loss(targets, pred, delta)))

    pred, cache = forward_batch(model, inputs, training=False)
    d_y = huber_gradient(targets, pred, delta) / targets.size
    analytic = backward_batch(model, cache, d_y)
    if fault is not None:
        if fault not in analytic:
            raise KeyError(f"unknown tensor {fault!r}")
        analytic[fault] = analytic[fault] * 2.0

    coord_rng = Generator(PCG64(SeedSequence(coord_seed)))
    worst = 0.0
    for name, param in model.params.items():
        flat = param.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        if flat.size <= coords_per_tensor:
            coords = np.arange(flat.size)
        else:
            coords = coord_rng.choice(flat.size, size=coords_per_tensor, replace=False)
        for k in coords:
            orig = flat[k]
            flat[k] = orig + epsilon
            hi = loss()
            flat[k] = orig - epsilon
            lo = loss()
            flat[k] = orig
            numeric = (hi - lo) / (2.0 * epsilon)
            a = grad_flat[k]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
