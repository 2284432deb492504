"""Reference computations the tests compare the library against.

The portfolio tests compare the Monte-Carlo frontier against the first two;
the LSTM kernel test compares every step of the time-major kernel against
lstm_cell_step, and the mask tests the blocked dropout draw against
dropout_mask; gradient_check compares BPTT against central finite
differences on a float64_copy of a model. The row-layout kernel at the end
is the reference the gate-major kernel must equal byte for byte.
"""

from dataclasses import replace

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

from sectorport import lstm
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


def dropout_mask(rng: Generator, shape, rate: float, dtype=lstm.COMPUTE_DTYPE) -> np.ndarray:
    """Inverted-dropout mask in one draw: survivors scaled by 1/(1-rate), expectation 1.

    The uniforms are drawn in float64 whatever the dtype, so the rng stream
    is the same. lstm._sequence_mask, which draws every mask of forward_batch
    a few batch rows at a time, must give a batch-major draw's bits.
    """
    return (rng.random(shape) >= rate) * np.array(1.0 / (1.0 - rate), dtype=dtype)


def float64_copy(model: LstmModel) -> LstmModel:
    """A copy of the model with every parameter tensor in float64; the kernel follows that dtype."""
    return replace(model, flat=model.flat.astype(np.float64))


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
        pred, _ = forward_batch(model, inputs, training=False, pool=lstm._BufferPool())
        return float(np.mean(huber_loss(targets, pred, delta)))

    pred, cache = forward_batch(model, inputs, training=False, pool=lstm._BufferPool())
    d_y = huber_gradient(targets, pred, delta) / targets.size
    analytic = backward_batch(model, cache, d_y, lstm._BufferPool())
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


# --------------------------------------------------- row-layout LSTM kernel
# The kernel as it was before its gates went gate-major: every step's gates
# are one (B, 4H) row, BPTT forms the local gate derivatives for all steps
# before its time loop, and Adam steps one parameter at a time. The
# functions take the library's current arguments, so that patching them over
# lstm._layer_forward, lstm._layer_backward and lstm._Adam turns
# forward_batch, backward_batch and train into the reference. Both kernels
# make the same BLAS calls on the same operands, so on any machine and at
# any thread count their results must be equal byte for byte.


def _row_activate(z, k, out=None):
    out = np.multiply(z, k, out=out)
    np.tanh(out, out=out)
    out *= k
    out += 1.0 - k
    return out


def _row_coefficients(width, dtype):
    return np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype=dtype), width)


def row_layer_forward(x, wx, wh, b, pool, key):
    """lstm._layer_forward with (T, B, 4H) gates in fresh arrays; pool and key are unused."""
    steps, batch, d = x.shape
    w, dtype = wh.shape[0], wh.dtype
    gates = np.empty((steps, batch, 4 * w), dtype=dtype)
    if d == 1:
        np.multiply(x, wx[0], out=gates)
    else:
        np.matmul(x.reshape(steps * batch, d), wx, out=gates.reshape(steps * batch, 4 * w))
    gates += b
    c, tc, h = (np.empty((steps, batch, w), dtype=dtype) for _ in range(3))
    z = np.empty((batch, 4 * w), dtype=dtype)
    ig = np.empty((batch, w), dtype=dtype)
    z_sums = np.empty(steps, dtype=dtype)
    coef = _row_coefficients(w, dtype)
    h_prev = np.zeros((batch, w), dtype=dtype)
    c_prev = np.zeros((batch, w), dtype=dtype)
    with np.errstate(invalid="ignore", over="ignore"):
        for t in range(steps):
            a = gates[t]
            np.matmul(h_prev, wh, out=z)
            z += a
            z_sums[t] = z.sum()
            _row_activate(z, coef, out=a)
            np.multiply(a[:, w : 2 * w], c_prev, out=c[t])
            np.multiply(a[:, :w], a[:, 2 * w : 3 * w], out=ig)
            c[t] += ig
            np.tanh(c[t], out=tc[t])
            np.multiply(a[:, 3 * w :], tc[t], out=h[t])
            h_prev, c_prev = h[t], c[t]
    if not np.isfinite(z_sums).all():
        raise FloatingPointError(lstm._BLOW_UP)
    return lstm._LayerCache(x, gates, c, tc, h)


def row_layer_backward(cache, wx, wh, dh_out, pool, d_x_name, out):
    """lstm._layer_backward over row_layer_forward's cache, in fresh arrays; copies the weight gradients into out."""
    steps, batch, w = cache.c.shape
    dtype = cache.c.dtype
    coef = _row_coefficients(w, dtype)
    a = cache.gates.reshape(steps, batch, 4, w)
    dz = cache.gates - (1.0 - coef)
    dz *= dz
    np.subtract(coef * coef, dz, out=dz)
    dz_blocks = dz.reshape(steps, batch, 4, w)
    dz_blocks[:, :, 0] *= a[:, :, 2]
    dz_blocks[0, :, 1] = 0.0
    dz_blocks[1:, :, 1] *= cache.c[:-1]
    dz_blocks[:, :, 2] *= a[:, :, 0]
    dz_blocks[:, :, 3] *= cache.tc
    dc_dh = cache.tc * cache.tc
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= a[:, :, 3]

    seq = dh_out if dh_out.ndim == 3 else None
    dh = (dh_out[-1] if seq is not None else dh_out).copy()
    dc = np.zeros_like(dh)
    wh_t = wh.T
    for t in range(steps - 1, -1, -1):
        dc += dh * dc_dh[t]
        dz_blocks[t, :, :3] *= dc[:, None, :]
        dz_blocks[t, :, 3] *= dh
        if t:
            dc *= a[t, :, 1]
            np.matmul(dz[t], wh_t, out=dh)
            if seq is not None:
                dh += seq[t - 1]

    dz_rows = dz.reshape(steps * batch, 4 * w)
    d_wx, d_wh, d_b = out
    d_wx[...] = cache.xt.reshape(steps * batch, -1).T @ dz_rows
    d_wh[...] = cache.ht[:-1].reshape(-1, w).T @ dz_rows[batch:]
    d_b[...] = dz_rows.sum(axis=0)
    if d_x_name is None:
        return None
    return (dz_rows @ wx.T).reshape(steps, batch, -1)


class RowAdam:
    """lstm._Adam as the out-of-place expressions it stepped each parameter with.

    Every operation is elementwise, so stepping the flat arrays whole gives
    the bits that stepping them one parameter at a time did.
    """

    def __init__(self, params):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def step(self, params, grads, lr, pool):
        self.t += 1
        bc1 = 1.0 - lstm.ADAM_BETA1**self.t
        bc2 = 1.0 - lstm.ADAM_BETA2**self.t
        m, v = self.m, self.v
        m *= lstm.ADAM_BETA1
        m += (1.0 - lstm.ADAM_BETA1) * grads
        v *= lstm.ADAM_BETA2
        v += (1.0 - lstm.ADAM_BETA2) * grads * grads
        params -= lr * (m / bc1) / (np.sqrt(v / bc2) + lstm.ADAM_EPS)


def patch_row_kernel(monkeypatch):
    """Make forward_batch, backward_batch and train run the row-layout reference until monkeypatch undoes it."""
    monkeypatch.setattr(lstm, "_layer_forward", row_layer_forward)
    monkeypatch.setattr(lstm, "_layer_backward", row_layer_backward)
    monkeypatch.setattr(lstm, "_Adam", RowAdam)
