"""Univariate LSTM close-price forecaster, implemented from scratch in NumPy.

Architecture: stacked LSTM layers over a window of scaled closes (every layer
but the last emits its full hidden sequence; the last layer's final hidden
state feeds a ReLU dense layer and a single logistic output node). Inverted
dropout follows each LSTM layer during training. Training is mini-batch Adam
with full backpropagation through time under Huber loss; closes are min-max
scaled into [0, 1] because the logistic head can only emit (0, 1).

Cell equations are the standard formulation: logistic input/forget/output
gates, tanh candidate and cell output,

    c_t = f * c_prev + i * g,    h_t = o * tanh(c_t).

Gate blocks are stacked [input, forget, candidate, output] along the last
axis of each weight matrix.

The model computes in float32 (COMPUTE_DTYPE): parameters, activations, the
BPTT cache, gradients and Adam moments. Single precision halves the bytes
every GEMM, gate pass and cached activation moves, and NumPy's float32 tanh
is several times faster than the float64 one; at paper scale that about
halves training and inference time, while the final validation MAE moves by
less than 1e-6 relative. The kernel follows the dtype of the parameters, so
the tests run it on float64 copies as a reference. Checkpoints store the
parameters as float32 too.

forecast is the one inference entry point: the predicted closes for a row
range of a series, each from the window that ends `horizon` rows earlier.
train and forecast scale the closes and cast them to the model's dtype in
one checked pass, scale_closes, and take input_windows views of the result.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

from .config import LstmConfig, build

CHECKPOINT_MAGIC = b"SPLSTMCK"
CHECKPOINT_VERSION = 2
_DIGEST_SIZE = hashlib.sha256().digest_size

COMPUTE_DTYPE = np.float32

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

TRAIN_FRACTION = 0.9  # chronological train/validation split of windows


@dataclass(frozen=True)
class Scaler:
    """Affine map of [min, max] onto [0, 1]; values outside pass through unclipped."""

    min: float
    max: float

    def __post_init__(self):
        if not self.max > self.min:
            raise ValueError(f"expected max > min, got [{self.min}, {self.max}]")

    def transform(self, x):
        return (np.asarray(x, dtype=float) - self.min) / (self.max - self.min)

    def inverse_transform(self, y):
        return np.asarray(y, dtype=float) * (self.max - self.min) + self.min


def fit_scaler(train_closes) -> Scaler:
    """Min-max scaler over the training closes; rejects constant series."""
    x = np.asarray(train_closes, dtype=float)
    if x.size < 2 or x.min() == x.max():
        raise ValueError("need at least 2 distinct values to fit a scaler")
    return Scaler(float(x.min()), float(x.max()))


def input_windows(closes, window: int, horizon: int, lo: int, hi: int) -> np.ndarray:
    """The input windows of rows [lo, hi) of a close series, as a (hi - lo, window) read-only view.

    Row k's window ends `horizon` rows before it, closes[k - horizon - window
    + 1 : k - horizon + 1], so it holds only closes known `horizon` rows
    earlier; rows up to `horizon` past the end of closes have one. train asks
    for every row with a target, forecast for the rows it predicts. An empty
    row range is an error. The windows have the dtype of closes.
    """
    closes = np.asarray(closes)
    first = lo - (window + horizon - 1)
    if first < 0:
        raise ValueError(f"row {lo} needs {window + horizon - 1} rows of history before it, has {lo}")
    if hi > closes.size + horizon:
        raise ValueError(f"rows [{lo}, {hi}) run more than {horizon} past the {closes.size} closes")
    if hi <= lo:
        raise ValueError(f"series of length {closes.size} too short for window {window} + horizon {horizon}")
    return np.lib.stride_tricks.sliding_window_view(closes, window)[first : first + hi - lo]


@dataclass(frozen=True, eq=False)
class LstmModel:
    """The config, the scaler and every parameter, in one flat array laid out as _carve says."""

    config: LstmConfig
    scaler: Scaler
    flat: np.ndarray
    params: dict[str, np.ndarray] = field(init=False, repr=False)  # views of flat, so writing one writes the model

    def __post_init__(self):
        object.__setattr__(self, "params", _carve(self.flat, self.config))

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the parameters, which every kernel buffer shares."""
        return self.flat.dtype

    def check_finite(self):
        for name, arr in self.params.items():
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite values in parameter {name}")


def _param_shapes(config: LstmConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in LstmModel.params order: the one statement of the layout."""
    shapes: dict[str, tuple[int, ...]] = {}
    d = 1
    for idx, width in enumerate(config.lstm_layers):
        shapes[f"lstm{idx}.wx"] = (d, 4 * width)
        shapes[f"lstm{idx}.wh"] = (width, 4 * width)
        shapes[f"lstm{idx}.b"] = (4 * width,)
        d = width
    shapes["dense.w"] = (d, config.dense_width)
    shapes["dense.b"] = (config.dense_width,)
    shapes["out.w"] = (config.dense_width, 1)
    shapes["out.b"] = (1,)
    return shapes


def _param_count(config: LstmConfig) -> int:
    return sum(math.prod(shape) for shape in _param_shapes(config).values())


def _carve(flat: np.ndarray, config: LstmConfig) -> dict[str, np.ndarray]:
    """Views of flat, back to back, named and shaped as _param_shapes(config) lists them."""
    views, end = {}, 0
    for name, shape in _param_shapes(config).items():
        start, end = end, end + math.prod(shape)
        views[name] = flat[start:end].reshape(shape)
    return views


def _glorot(rng: Generator, shape: tuple[int, int]) -> np.ndarray:
    # Drawn in float64 and then narrowed, so the rng stream does not depend on the dtype.
    limit = math.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape).astype(COMPUTE_DTYPE)


def init_model(config: LstmConfig, scaler: Scaler, rng: Generator) -> LstmModel:
    """Glorot-uniform weights drawn in _param_shapes order, zero biases except forget-gate biases at 1.0."""
    model = LstmModel(config, scaler, np.zeros(_param_count(config), dtype=COMPUTE_DTYPE))
    for arr in model.params.values():
        if arr.ndim == 2:
            arr[...] = _glorot(rng, arr.shape)
    for i, width in enumerate(config.lstm_layers):
        model.params[f"lstm{i}.b"][width : 2 * width] = 1.0  # forget gate: start remembering
    return model


def _activate(z: np.ndarray, k, k_rest, out: np.ndarray | None = None) -> np.ndarray:
    """k_rest + k * tanh(k * z) with k_rest = 1 - k: the logistic function where k = 0.5, tanh where k = 1.

    0.5 * (1 + tanh(z / 2)) is the logistic function in one tanh pass, with
    no masking, so one call activates a whole block of gates.
    """
    out = np.multiply(z, k, out=out)
    np.tanh(out, out=out)
    out *= k
    out += k_rest
    return out


class InputRangeError(ValueError):
    """A finite close that the model's dtype cannot hold once scaled; row is its index in the closes."""

    def __init__(self, row: int, close: float, dtype: np.dtype):
        super().__init__(f"close {close!r} is beyond {dtype.name} range once scaled")
        self.row = row


def scale_closes(scaler: Scaler, closes, lo: int, hi: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """closes[lo:hi] min-max scaled, in float64 and cast to dtype: train's and forecast's one scale and cast.

    The earliest close whose cast overflows raises InputRangeError with its
    row in closes, before the kernel would take its inf for a parameter blow-up.
    """
    closes = np.asarray(closes[lo:hi], dtype=float)
    with np.errstate(over="ignore"):
        scaled = scaler.transform(closes)
        cast = scaled.astype(dtype)
    overflow = np.flatnonzero(~np.isfinite(cast))
    if overflow.size:
        raise InputRangeError(lo + int(overflow[0]), float(closes[overflow[0]]), cast.dtype)
    return scaled, cast


def _gate_coefficients(pool: _BufferPool, shape: tuple[int, int, int], dtype) -> tuple[np.ndarray, np.ndarray]:
    """k of _activate and 1 - k as (4, B, H) gate blocks: 0.5 on the logistic gates i, f, o; 1 on the candidate g."""
    k = pool.take("k", shape, dtype)
    k[...] = np.array([0.5, 0.5, 1.0, 0.5], dtype=dtype)[:, None, None]
    return k, np.subtract(1.0, k, out=pool.take("1-k", shape, dtype))


_MASK_DRAW = 1 << 16  # cap on the float64 uniforms a sequence mask's draw holds at once (512 KB)


def _sequence_mask(rng: Generator, mask: np.ndarray, rate: float) -> np.ndarray:
    """Fill the time-major (T, B, H) mask with an inverted-dropout mask: survivors 1/(1-rate), expectation 1.

    The float64 uniforms are drawn batch-major, whatever the dtype, so seeded
    runs do not depend on the cache layout or the dtype; the mask is
    time-major, so its products are contiguous. The uniforms come a few
    whole batch rows at a time, at most _MASK_DRAW of them unless one row is
    larger; consecutive draws continue one stream.
    """
    steps, batch, width = mask.shape
    rows = min(batch, max(1, _MASK_DRAW // (steps * width)))
    uniforms = np.empty((rows, steps, width))
    scale = np.array(1.0 / (1.0 - rate), dtype=mask.dtype)
    for lo in range(0, batch, rows):
        u = rng.random(out=uniforms[: min(rows, batch - lo)])
        block = mask[:, lo : lo + len(u)].swapaxes(0, 1)
        block[...] = u >= rate  # 1 or 0, then times scale: dropout_mask's bits
        block *= scale
    return mask


_BLOW_UP = "non-finite gate pre-activation (parameter blow-up)"


class _BufferPool:
    """Named flat arrays that the batches of one train or predict_batch call reuse.

    take hands out a C-contiguous view of the first prod(shape) elements of the
    array called name, so a ragged last batch is carved from a full batch's
    array, and replaces the array only when a request outgrows it. A view
    aliases every earlier view of its name: the kernels write a buffer before
    they read it, and a batch's activations are dead before the next batch
    takes the same names. A dead cache buffer is scratch space under another
    shape too: a deeper layer's dropped-out input, and BPTT's rebuild of it,
    take that layer's h; BPTT's d_x takes its cell states, Adam a gate cache.
    Per-step blocks such as tanh(c_t) are shared by every layer.
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


@dataclass
class _LayerCache:
    """One layer's forward activations, time-major; the gates are gate-major within each step.

    It holds only what BPTT cannot rebuild bit for bit in one elementwise
    pass: tanh(c) is recomputed from c, and a deeper layer's input from the
    layer below's h and mask.
    """

    gates: np.ndarray  # (T, 4, B, H) activations [i, f, g, o]: gates[t, k] is one contiguous block
    c: np.ndarray  # (T, B, H) cell state
    ht: np.ndarray  # (T, B, H) hidden sequence


@dataclass
class ForwardCache:
    x: np.ndarray  # (T, B, 1) the windows, time-major: the first layer's input
    layers: list[_LayerCache]
    seq_masks: list[np.ndarray | None]  # (T, B, H) dropout masks on non-final layer sequences
    last_mask: np.ndarray | None  # dropout mask on the final hidden state
    h_last: np.ndarray  # post-dropout final hidden state (B, H)
    a1: np.ndarray  # dense pre-activation
    r1: np.ndarray  # dense ReLU output
    y: np.ndarray  # (B,) logistic predictions


def _layer_forward(
    x: np.ndarray, wx: np.ndarray, wh: np.ndarray, b: np.ndarray, pool: _BufferPool, key: str
) -> _LayerCache:
    """One layer over a time-major input x (T, B, D), caching into pool under names that start with key.

    The gates are gate-major within each step, so every elementwise pass of
    a step runs on contiguous (B, H) blocks; each step adds h_prev @ wh to
    its input projection x_t @ wx + b and activates its gates in place. The
    projection of all steps is one broadcast product for D = 1, stored
    gate-major. For D > 1 it is one GEMM that writes rows into the gates
    buffer, where step t's rows fill the bytes of gates[t]; the step copies
    them out gate-major, adding the bias, before it overwrites them. Either
    way the projection reads all of x before the first step writes h, so x
    may be a view of the layer's own h buffer. tanh(c_t) lives in one (B, H)
    block, and the cache keeps only the gates, c and h. A running sum of the
    pre-activations is non-finite whenever one of them is (finite values sum
    to inf only near the float range, which is blow-up as well), so one
    check at the end of the layer rejects what a per-step one would.
    """
    steps, batch, d = x.shape
    w, dtype = wh.shape[0], wh.dtype
    gates = pool.take(key + "gates", (steps, 4, batch, w), dtype)
    b_gates = b.reshape(4, 1, w)
    rows = None
    if d == 1:  # OpenBLAS runs a K=1 GEMM slowly; the broadcast product is the same bits
        np.multiply(x[:, None], wx.reshape(4, 1, w), out=gates)
        gates += b_gates
    else:
        rows = gates.reshape(steps, batch, 4, w)
        np.matmul(x.reshape(steps * batch, d), wx, out=rows.reshape(steps * batch, 4 * w))
        x_gates = pool.take("x_gates", (4, batch, w), dtype)  # step t's x_t @ wx + b, gate-major
    c, h = (pool.take(key + name, (steps, batch, w), dtype) for name in ("c", "h"))
    z = pool.take("z", (batch, 4 * w), dtype)
    z_gates = z.reshape(batch, 4, w).swapaxes(0, 1)
    ig = pool.take("ig", (batch, w), dtype)
    tc = pool.take("tc", (batch, w), dtype)  # step t's tanh(c_t); BPTT recomputes it
    z_sum = np.zeros((4, batch, w), dtype=dtype)
    k, k_rest = _gate_coefficients(pool, z_sum.shape, dtype)
    h_prev = c_prev = np.zeros((batch, w), dtype=dtype)
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite values run on to the check
        for t, (a, c_t, h_t) in enumerate(zip(gates, c, h)):
            np.matmul(h_prev, wh, out=z)
            if rows is None:
                a += z_gates
            else:
                np.add(rows[t].swapaxes(0, 1), b_gates, out=x_gates)
                np.add(x_gates, z_gates, out=a)
            z_sum += a
            i, f, g, o = _activate(a, k, k_rest, out=a)
            np.multiply(f, c_prev, out=c_t)
            np.multiply(i, g, out=ig)
            c_t += ig
            np.tanh(c_t, out=tc)
            np.multiply(o, tc, out=h_t)
            h_prev, c_prev = h_t, c_t
    if not np.isfinite(z_sum).all():
        raise FloatingPointError(_BLOW_UP)
    return _LayerCache(gates, c, h)


def forward_batch(
    model: LstmModel, X: np.ndarray, training: bool, pool: _BufferPool, rng: Generator | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """Run a batch of scaled windows through the stack.

    X has shape (batch, window) and is cast to the model's dtype; returns
    predictions in (0, 1) and the cache needed for backpropagation, all in
    that dtype. Dropout is applied only when training; rate 0 applies no masks
    at all, so it matches inference exactly. Every mask, the final hidden
    state's as a (1, B, H) sequence, is drawn by _sequence_mask. A layer's
    dropped-out sequence feeds the next layer from that layer's h buffer,
    which it overwrites; BPTT rebuilds it from the h and the mask. The cached
    activations and masks live in pool, so the cache holds only until the
    next call that takes the same pool, or until backward_batch consumes it.
    """
    X = np.asarray(X, dtype=model.dtype)
    if X.ndim != 2 or X.shape[1] != model.config.window:
        raise ValueError(f"expected (batch, {model.config.window}) input, got {X.shape}")
    rate = model.config.dropout_rate
    use_dropout = training and rate > 0.0
    if use_dropout and rng is None:
        raise ValueError("training forward with dropout needs an rng")

    x = seq = np.ascontiguousarray(X.T)[:, :, None]
    caches: list[_LayerCache] = []
    seq_masks: list[np.ndarray | None] = []
    last_mask = None
    p = model.params
    n_layers = len(model.config.lstm_layers)
    for idx in range(n_layers):
        key = f"lstm{idx}."
        cache = _layer_forward(seq, p[key + "wx"], p[key + "wh"], p[key + "b"], pool, key)
        caches.append(cache)
        if idx < n_layers - 1:
            mask = None
            seq = cache.ht
            if use_dropout:
                mask = _sequence_mask(rng, pool.take(key + "mask", seq.shape, seq.dtype), rate)
                seq = np.multiply(seq, mask, out=pool.take(f"lstm{idx + 1}.h", seq.shape, seq.dtype))
            seq_masks.append(mask)
        else:
            h_last = cache.ht[-1]
            if use_dropout:
                last_mask = _sequence_mask(rng, pool.take(key + "mask", (1, *h_last.shape), h_last.dtype), rate)[0]
                h_last = h_last * last_mask

    a1 = h_last @ p["dense.w"] + p["dense.b"]
    r1 = np.maximum(a1, 0.0)
    z2 = r1 @ p["out.w"] + p["out.b"]
    y = _activate(z2, 0.5, 0.5)[:, 0]
    return y, ForwardCache(x, caches, seq_masks, last_mask, h_last, a1, r1, y)


def predict_batch(model: LstmModel, X: np.ndarray, pool: _BufferPool | None = None) -> np.ndarray:
    """Inference predictions in (0, 1) for scaled windows X (n, window), in the model's dtype.

    Runs forward_batch on consecutive blocks of config.batch_size rows, every
    block in the same pool (given, or one for this call), and keeps only the
    predictions. So one block's activations are held at a time, in arrays
    the first block allocates, however many windows there are.
    """
    X = np.asarray(X, dtype=model.dtype)
    if pool is None:
        pool = _BufferPool()
    step = model.config.batch_size
    out = np.empty(len(X), dtype=X.dtype)
    for lo in range(0, len(X), step):
        out[lo : lo + step] = forward_batch(model, X[lo : lo + step], training=False, pool=pool)[0]
    return out


def _layer_backward(
    cache: _LayerCache,
    x: np.ndarray,
    mask: np.ndarray | None,
    wx: np.ndarray,
    wh: np.ndarray,
    dh_out: np.ndarray,
    pool: _BufferPool,
    key: str | None,
    out,
) -> np.ndarray | None:
    """BPTT through one layer; writes (d_wx, d_wh, d_b) into out and returns d_x, time-major.

    x is the layer's input before dropout, (T, B, D), and mask its dropout
    mask or None: the windows for the first layer, the layer below's h and
    mask for a deeper one. dh_out is dL/dh from above: (T, B, H) for a layer
    whose whole sequence feeds the next layer, or (B, H) for the final
    layer, whose last hidden state alone feeds the head. Step t recomputes
    tanh(c_t) into a (B, H) block, with the forward's bits, and forms dz_t,
    the gradient wrt its gate pre-activations, on its contiguous gate blocks
    (the local derivatives scaled by dL/dc_t and dL/dh_t). It writes dz_t
    over the step's gates, once read, as row t of a (T, B, 4H) array. Only
    dz_t @ wh.T is sequential; the weight and input gradients are single
    GEMMs over all T * B rows after the loop.

    The per-step workspace is dead when the layer returns, so every layer
    takes it from pool under one name. key names a deeper layer's cache
    buffers, which are dead once read: x * mask is rebuilt into its h after
    d_wh is formed, and d_x goes to its c, which nothing reads after the
    time loop. With key None (the first layer, whose input is the data)
    d_x is not computed and comes back None.
    """
    steps, batch, w = cache.c.shape
    dtype = cache.c.dtype
    a, c = cache.gates, cache.c
    dz = a.reshape(steps, batch, 4 * w)
    dz_gates = a.reshape(steps, batch, 4, w)
    s = pool.take("s", (4, batch, w), dtype)  # step t's dz, gate-major
    s_i, s_f, s_g, s_o = s
    q = pool.take("q", (batch, w), dtype)  # step t's dL/dh_t * dc_t/dh_t
    tc = pool.take("tc", (batch, w), dtype)  # step t's tanh(c_t)
    k, k_rest = _gate_coefficients(pool, s.shape, dtype)
    k2 = np.multiply(k, k, out=pool.take("k2", s.shape, dtype))
    seq = dh_out if dh_out.ndim == 3 else None
    dh = pool.take("dh", (batch, w), dtype)
    dh[...] = dh_out[-1] if seq is not None else dh_out
    dc = pool.take("dc", (batch, w), dtype)
    dc.fill(0.0)
    wh_t = wh.T
    for t in range(steps - 1, -1, -1):
        i, f, g, o = a[t]
        np.tanh(c[t], out=tc)
        # a = (1 - k) + k * tanh(k * z) (see _activate), so da/dz = k^2 - (a - (1 - k))^2.
        np.subtract(a[t], k_rest, out=s)
        s *= s
        np.subtract(k2, s, out=s)
        s_i *= g  # dc_t/di = g
        s_f *= c[t - 1] if t else 0.0  # dc_t/df = c_{t-1}, and c_{-1} = 0
        s_g *= i  # dc_t/dg = i
        s_o *= tc  # dh_t/do = tanh(c_t)
        np.subtract(1.0, np.multiply(tc, tc, out=q), out=q)
        q *= o  # dc_t/dh_t through tanh(c_t)
        q *= dh
        dc += q
        for block in (s_i, s_f, s_g):  # one contiguous pass each: a broadcast pass takes an iterator buffer
            block *= dc
        s_o *= dh
        if t:
            dc *= f  # before dz_t overwrites f
        dz_gates[t] = s.swapaxes(0, 1)
        if t:
            np.matmul(dz[t], wh_t, out=dh)
            if seq is not None:
                dh += seq[t - 1]

    dz_rows = dz.reshape(steps * batch, 4 * w)
    d_wx, d_wh, d_b = out
    np.matmul(cache.ht[:-1].reshape(-1, w).T, dz_rows[batch:], out=d_wh)
    if mask is not None:  # the layer's input as forward_batch fed it, in its h, dead now
        x = np.multiply(x, mask, out=pool.take(key + "h", x.shape, dtype))
    np.matmul(x.reshape(steps * batch, -1).T, dz_rows, out=d_wx)
    np.sum(dz_rows, axis=0, out=d_b)
    if key is None:
        return None
    d_x = pool.take(key + "c", x.shape, dtype)
    np.matmul(dz_rows, wx.T, out=d_x.reshape(steps * batch, -1))
    return d_x


def backward_batch(
    model: LstmModel, cache: ForwardCache, d_y: np.ndarray, pool: _BufferPool
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss wrt every parameter, given dL/dy per sample.

    d_y is cast to the dtype of the predictions, so the gradients have the
    parameters' dtype. They are _carve's views of pool's flat "grads" array,
    beside the BPTT workspace, so they hold until the next call that takes
    the same pool.

    The cache is consumed: BPTT writes each layer's gate gradients over its
    gates, and, when pool is the one forward_batch filled, each deeper
    layer's rebuilt input over its hidden sequence and its d_x over its cell
    states.
    """
    grads = _carve(pool.take("grads", model.flat.shape, model.dtype), model.config)
    y = cache.y
    d_y = np.asarray(d_y, dtype=y.dtype)
    dz2 = (d_y * y * (1.0 - y))[:, None]
    np.matmul(cache.r1.T, dz2, out=grads["out.w"])
    np.sum(dz2, axis=0, out=grads["out.b"])
    p = model.params
    da1 = dz2 @ p["out.w"].T
    da1 *= cache.a1 > 0.0
    np.matmul(cache.h_last.T, da1, out=grads["dense.w"])
    np.sum(da1, axis=0, out=grads["dense.b"])
    dh = da1 @ p["dense.w"].T
    if cache.last_mask is not None:
        dh *= cache.last_mask

    # The final layer receives gradient only at its last timestep.
    for idx in range(len(model.config.lstm_layers) - 1, -1, -1):
        key = f"lstm{idx}."
        out = grads[key + "wx"], grads[key + "wh"], grads[key + "b"]
        x = cache.layers[idx - 1].ht if idx else cache.x
        mask = cache.seq_masks[idx - 1] if idx else None
        d_x = _layer_backward(
            cache.layers[idx], x, mask, p[key + "wx"], p[key + "wh"], dh, pool, key if idx else None, out
        )
        if mask is not None:
            d_x *= mask
        dh = d_x
    return grads


def huber_loss(y, y_hat, delta: float) -> np.ndarray:
    """Huber loss on the residual y - y_hat, elementwise: quadratic within delta, linear beyond.

    delta is positive: LstmConfig rejects any other huber_delta.
    """
    r = np.asarray(y, dtype=float) - np.asarray(y_hat, dtype=float)
    a = np.abs(r)
    return np.where(a <= delta, 0.5 * r * r, delta * (a - 0.5 * delta))


def huber_gradient(y, y_hat, delta: float) -> np.ndarray:
    """dL/dy_hat of the Huber loss, elementwise."""
    r = np.asarray(y, dtype=float) - np.asarray(y_hat, dtype=float)
    return np.where(np.abs(r) <= delta, -r, -delta * np.sign(r))


class _Adam:
    """Adam over one flat parameter array, its moments flat alike: a step is a few whole-array passes."""

    def __init__(self, params: np.ndarray):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float, pool: _BufferPool):
        """Update params in place; the two work rows are pool's first gate cache, dead after backward_batch."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        u, r = pool.take("lstm0.gates", (2, params.size), params.dtype)
        self.m *= ADAM_BETA1
        self.m += np.multiply(grads, 1.0 - ADAM_BETA1, out=u)
        self.v *= ADAM_BETA2
        self.v += np.multiply(np.multiply(grads, 1.0 - ADAM_BETA2, out=u), grads, out=u)
        np.multiply(np.divide(self.m, bc1, out=u), lr, out=u)  # lr * m_hat
        np.add(np.sqrt(np.divide(self.v, bc2, out=r), out=r), ADAM_EPS, out=r)  # sqrt(v_hat) + eps
        params -= np.divide(u, r, out=u)


def train(config: LstmConfig, closes) -> tuple[LstmModel, tuple[tuple, ...]]:
    """Fit the model on a close series; returns the model and its trace.

    The trace holds one (epoch, train_loss, train_mae, val_loss, val_mae)
    row per epoch, the columns of trace_csv_text. Windows are split 90/10
    chronologically; the scaler is fit only on closes touched by the
    training split. Mini-batch order, dropout masks, and initialization all
    derive from config.seed, so a rerun is bit-identical. The closes are
    scaled and cast to COMPUTE_DTYPE once, by scale_closes; targets, losses
    and the trace stay float64. Every batch, and the validation after each
    epoch, runs in one _BufferPool, so one batch's forward cache and BPTT
    workspace are held at a time, in arrays the first batch allocates.
    """
    closes = np.asarray(closes, dtype=float)
    first = config.window + config.horizon - 1  # the first row with a full window
    n_rows = len(input_windows(closes, config.window, config.horizon, first, len(closes)))  # rejects a short series
    n_train = max(1, int(n_rows * TRAIN_FRACTION))
    scaler = fit_scaler(closes[: first + n_train])
    scaled, cast = scale_closes(scaler, closes, 0, len(closes), COMPUTE_DTYPE)
    inputs = input_windows(cast, config.window, config.horizon, first, len(closes))
    targets = scaled[first:]

    rng = Generator(PCG64(SeedSequence(config.seed)))
    model = init_model(config, scaler, rng)
    adam = _Adam(model.flat)
    pool = _BufferPool()

    x_val, y_val = inputs[n_train:], targets[n_train:]
    trace = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_train)
        loss_sum = 0.0
        mae_sum = 0.0
        for batch_idx, lo in enumerate(range(0, n_train, config.batch_size)):
            sel = order[lo : lo + config.batch_size]
            xb, yb = inputs[sel], targets[sel]
            try:
                pred, cache = forward_batch(model, xb, training=True, pool=pool, rng=rng)
            except FloatingPointError as exc:
                raise RuntimeError(f"non-finite loss at epoch {epoch}, batch {batch_idx}: {exc}") from exc
            losses = huber_loss(yb, pred, config.huber_delta)
            loss = float(np.mean(losses))
            if not np.isfinite(loss):
                raise RuntimeError(f"non-finite loss at epoch {epoch}, batch {batch_idx}")
            loss_sum += loss * sel.size
            mae_sum += float(np.sum(np.abs(yb - pred)))
            d_y = huber_gradient(yb, pred, config.huber_delta) / sel.size
            backward_batch(model, cache, d_y, pool)  # into pool's flat "grads" array, which Adam reads
            adam.step(model.flat, pool.take("grads", model.flat.shape, model.dtype), config.learning_rate, pool)

        if y_val.size:
            val_pred = predict_batch(model, x_val, pool)
            val_loss = float(np.mean(huber_loss(y_val, val_pred, config.huber_delta)))
            val_mae = float(np.mean(np.abs(y_val - val_pred)))
        else:
            val_loss = val_mae = float("nan")
        trace.append((epoch, loss_sum / n_train, mae_sum / n_train, val_loss, val_mae))
    return model, tuple(trace)


def forecast(model: LstmModel, closes, lo: int, hi: int) -> np.ndarray:
    """Predicted closes for rows [lo, hi) of a close series, in float64, from their input_windows.

    Only the closes the windows read are scaled, so a close that overflows
    the model's dtype once scaled raises InputRangeError only when a window
    reads it.
    """
    config = model.config
    input_windows(closes, config.window, config.horizon, lo, hi)  # rejects rows the closes cannot serve
    reach = config.window + config.horizon - 1  # from a window's first close to its row
    _, cast = scale_closes(model.scaler, closes, lo - reach, hi - config.horizon, model.dtype)
    inputs = input_windows(cast, config.window, config.horizon, reach, reach + hi - lo)
    return model.scaler.inverse_transform(predict_batch(model, inputs))


def trace_csv_text(trace) -> str:
    """Training trace export: epoch,train_loss,train_mae,val_loss,val_mae, one line per trace row."""
    lines = ["epoch,train_loss,train_mae,val_loss,val_mae"]
    for epoch, train_loss, train_mae, val_loss, val_mae in trace:
        lines.append(f"{epoch},{train_loss:.12g},{train_mae:.12g},{val_loss:.12g},{val_mae:.12g}")
    return "\n".join(lines) + "\n"


def checkpoint_bytes(model: LstmModel) -> bytes:
    """Serialize a model to the checkpoint container format, version 2.

    Layout: 8-byte magic, little-endian uint32 header length, UTF-8 JSON
    header (version, config, scaler bounds), the parameters in _param_shapes
    order as little-endian float32 in C order, and the sha256 of all the
    bytes before it. The config fixes every parameter's shape.
    """
    header = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "scaler": asdict(model.scaler),
    }
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = b"".join(
        [CHECKPOINT_MAGIC, struct.pack("<I", len(encoded)), encoded]
        + [np.ascontiguousarray(model.flat, dtype="<f4").tobytes()]
    )
    return body + hashlib.sha256(body).digest()


def _from_header(header: dict, part: str, cls):
    """build's cls from the header's part, which holds every field: a writer's gap does not take a default."""
    context = f"corrupt checkpoint header: {part}"
    value = build(cls, header.get(part), context)
    missing = sorted(set(vars(value)) - set(header[part]))
    if missing:
        raise ValueError(f"{context}: missing the keys {missing}")
    return value


def model_from_checkpoint_bytes(blob: bytes) -> LstmModel:
    """Parse and validate a checkpoint; raises ValueError on any corruption.

    The checks run in order: magic, header length and JSON, version, the
    sha256 trailer, then the config, the scaler, the payload length its
    config needs, and finiteness.
    """
    if len(blob) < len(CHECKPOINT_MAGIC) + 4 or blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError("not a model checkpoint (bad magic)")
    pos = len(CHECKPOINT_MAGIC)
    (header_len,) = struct.unpack("<I", blob[pos : pos + 4])
    pos += 4
    try:
        header = json.loads(blob[pos : pos + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"corrupt checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError("corrupt checkpoint header: not a JSON object")
    version = header.get("version")
    if version == 1:
        raise ValueError("checkpoint version 1 is no longer read: retrain to write version 2")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    pos += header_len
    if hashlib.sha256(memoryview(blob)[:-_DIGEST_SIZE]).digest() != blob[-_DIGEST_SIZE:]:
        raise ValueError("checkpoint digest mismatch: the file is corrupt or truncated")

    config, scaler = _from_header(header, "config", LstmConfig), _from_header(header, "scaler", Scaler)

    have, need = len(blob) - pos - _DIGEST_SIZE, 4 * _param_count(config)
    if have != need:
        raise ValueError(f"checkpoint payload is {have} bytes, its config needs {need}")
    # One copy: a writable, aligned float32 array that no longer refers to blob.
    flat = np.frombuffer(blob, dtype="<f4", count=need // 4, offset=pos).astype(COMPUTE_DTYPE)
    model = LstmModel(config, scaler, flat)
    model.check_finite()
    return model


def load_checkpoint(path) -> LstmModel:
    with open(path, "rb") as fh:
        return model_from_checkpoint_bytes(fh.read())

