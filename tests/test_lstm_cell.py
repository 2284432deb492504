"""Cell mechanics, forward pass, dropout, windowing, scaling, and loss functions."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, PCG64, SeedSequence

from oracles import dropout_mask, float64_copy, lstm_cell_step
from sectorport import lstm
from sectorport.config import LstmConfig
from sectorport.lstm import (
    Scaler,
    backward_batch,
    fit_scaler,
    forward_batch,
    huber_gradient,
    huber_loss,
    init_model,
    input_windows,
    predict_batch,
    train,
)


def small_model(seed=0, **overrides):
    defaults = dict(window=8, lstm_layers=(5,), dense_width=6, dropout_rate=0.3, seed=seed)
    defaults.update(overrides)
    config = LstmConfig(**defaults)
    rng = Generator(PCG64(SeedSequence(seed)))
    return init_model(config, Scaler(0.0, 1.0), rng)


# ------------------------------------------------------------ lstm_cell_step
# lstm_cell_step is the float64 oracle in tests/oracles.py. The first tests
# check it against a scalar loop; the kernel test then checks the library
# against it.

def reference_cell_step(x, h_prev, c_prev, wx, wh, b, width):
    """Scalar-loop reference implementation, written independently of the oracle."""

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    z = []
    for j in range(4 * width):
        acc = b[j]
        for k in range(len(x)):
            acc += x[k] * wx[k][j]
        for k in range(width):
            acc += h_prev[k] * wh[k][j]
        z.append(acc)
    h_new, c_new = [], []
    for j in range(width):
        i_g = sig(z[j])
        f_g = sig(z[width + j])
        g_g = math.tanh(z[2 * width + j])
        o_g = sig(z[3 * width + j])
        c_j = f_g * c_prev[j] + i_g * g_g
        c_new.append(c_j)
        h_new.append(o_g * math.tanh(c_j))
    return h_new, c_new


def test_cell_step_matches_reference_implementation():
    width, d = 3, 2
    rng = Generator(PCG64(SeedSequence(17)))
    wx = rng.normal(size=(d, 4 * width))
    wh = rng.normal(size=(width, 4 * width))
    b = rng.normal(size=4 * width)
    x = rng.normal(size=d)
    h_prev = rng.normal(size=width)
    c_prev = rng.normal(size=width)
    h, c = lstm_cell_step(x, h_prev, c_prev, wx, wh, b)
    h_ref, c_ref = reference_cell_step(
        x.tolist(), h_prev.tolist(), c_prev.tolist(), wx.tolist(), wh.tolist(), b.tolist(), width
    )
    np.testing.assert_allclose(h, h_ref, atol=1e-12, rtol=0)
    np.testing.assert_allclose(c, c_ref, atol=1e-12, rtol=0)


def test_forward_batch_matches_reference_over_window():
    # two layers, 4 steps, 2 samples: every cached h_t and c_t of the kernel,
    # run on a float64 copy, equals the oracle cell iterated over the window
    config = LstmConfig(window=4, lstm_layers=(3, 2), dense_width=4, dropout_rate=0.0)
    rng = Generator(PCG64(SeedSequence(21)))
    model = float64_copy(init_model(config, Scaler(0.0, 1.0), rng))
    p = model.params
    for idx in range(len(config.lstm_layers)):
        p[f"lstm{idx}.b"][...] = rng.normal(size=p[f"lstm{idx}.b"].shape)
    X = rng.random((2, config.window))
    _, cache = forward_batch(model, X, False, lstm._BufferPool())
    seq = X[:, :, None]  # (batch, T, D)
    for idx, (width, lc) in enumerate(zip(config.lstm_layers, cache.layers)):
        layer = p[f"lstm{idx}.wx"], p[f"lstm{idx}.wh"], p[f"lstm{idx}.b"]
        h = c = np.zeros((2, width))
        hs = []
        for t in range(config.window):
            h, c = lstm_cell_step(seq[:, t], h, c, *layer)
            np.testing.assert_allclose(lc.ht[t], h, atol=1e-12, rtol=0)
            np.testing.assert_allclose(lc.c[t], c, atol=1e-12, rtol=0)
            hs.append(h)
        seq = np.stack(hs, axis=1)


def test_cell_step_all_zero_gives_zero_hidden():
    width = 4
    wx, wh, b = np.zeros((1, 16)), np.zeros((4, 16)), np.zeros(16)
    h, c = lstm_cell_step(np.zeros(1), np.zeros(4), np.zeros(4), wx, wh, b)
    np.testing.assert_array_equal(h, np.zeros(width))
    np.testing.assert_array_equal(c, np.zeros(width))


def test_cell_step_saturated_forget_gate_is_pure_memory():
    # forget bias -> +inf and input bias -> -inf: c_t == c_prev
    width = 3
    b = np.zeros(4 * width)
    b[0:width] = -50.0  # input gate closed
    b[width : 2 * width] = 50.0  # forget gate open
    wx, wh = np.zeros((1, 4 * width)), np.zeros((width, 4 * width))
    c_prev = np.array([0.5, -1.0, 2.0])
    _, c = lstm_cell_step(np.zeros(1), np.zeros(width), c_prev, wx, wh, b)
    np.testing.assert_allclose(c, c_prev, atol=1e-10)


def test_cell_step_rejects_nonfinite_parameters():
    # a one-step window of one unit is a single cell step of the kernel
    model = small_model(window=1, lstm_layers=(1,))
    model.params["lstm0.wx"][...] = np.inf
    with pytest.raises(FloatingPointError, match="blow-up"):
        forward_batch(model, np.ones((1, 1)), False, lstm._BufferPool())


@pytest.mark.parametrize(
    "layers,layer,tensor,index,value",
    [
        ((5,), 0, "wh", (1, 2), np.inf),
        ((5,), 0, "b", (3,), np.inf),
        ((5, 4), 1, "wh", (0, 5), np.nan),
    ],
    ids=["inf-wh", "inf-b", "nan-wh-layer-1"],
)
def test_forward_rejects_nonfinite_parameter_as_blow_up(layers, layer, tensor, index, value):
    # the poisoned layer is the last one, so no later layer's input can catch it
    model = small_model(lstm_layers=layers)
    model.params[f"lstm{layer}.{tensor}"][index] = value
    X = Generator(PCG64(SeedSequence(12))).random((3, 8))
    with pytest.raises(FloatingPointError, match="blow-up"):
        forward_batch(model, X, False, lstm._BufferPool())


def test_forward_rejects_nan_input_window_as_blow_up():
    model = small_model(lstm_layers=(5, 4))
    X = Generator(PCG64(SeedSequence(13))).random((3, 8))
    X[1, 6] = np.nan
    with pytest.raises(FloatingPointError, match="blow-up"):
        forward_batch(model, X, False, lstm._BufferPool())


@pytest.mark.parametrize("training", [False, True], ids=["inference", "training"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("layers", [(5,), (5, 4)])
def test_forward_rejects_nonfinite_input_at_a_middle_step_as_blow_up(layers, value, training):
    # An infinite input saturates the gates it reaches to finite activations,
    # so only a check of the pre-activations sees it; the other windows of
    # the batch are finite.
    model = small_model(lstm_layers=layers, dropout_rate=0.3)
    X = Generator(PCG64(SeedSequence(14))).random((4, 8))
    X[2, 4] = value
    rng = Generator(PCG64(SeedSequence(15))) if training else None
    with pytest.raises(FloatingPointError, match="blow-up"):
        forward_batch(model, X, training=training, pool=lstm._BufferPool(), rng=rng)


# ------------------------------------------------------------------ forward

def test_forward_output_strictly_inside_unit_interval():
    model = small_model()
    rng = Generator(PCG64(SeedSequence(2)))
    for _ in range(10):
        y, _ = forward_batch(model, rng.random((1, 8)), False, lstm._BufferPool())
        assert 0.0 < y[0] < 1.0


def test_forward_inference_is_deterministic():
    model = small_model()
    window = Generator(PCG64(SeedSequence(3))).random(8)
    assert forward_batch(model, window[None], False, lstm._BufferPool())[0] == forward_batch(model, window[None], False, lstm._BufferPool())[0]


def test_default_config_layer_one_emits_50_by_256():
    config = LstmConfig()
    rng = Generator(PCG64(SeedSequence(0)))
    model = init_model(config, Scaler(0.0, 1.0), rng)
    x = rng.random((1, 50))
    _, cache = forward_batch(model, x, False, lstm._BufferPool())
    assert cache.x.shape == (50, 1, 1)  # the first layer's input, time-major
    assert cache.layers[0].ht.shape == (50, 1, 256)  # the second layer's input
    assert cache.layers[1].ht.shape == (50, 1, 256)


@pytest.mark.parametrize("steps, batch, width", [(20, 64, 16), (50, 64, 256)])
def test_one_input_projection_by_broadcast_equals_the_gemm_bitwise(steps, batch, width):
    # the first layer's input has one feature, so its projection runs as a broadcast multiply
    config = LstmConfig(window=steps, lstm_layers=(width,), dense_width=8, batch_size=batch)
    rng = Generator(PCG64(SeedSequence(7)))
    wx = init_model(config, Scaler(0.0, 1.0), rng).params["lstm0.wx"]
    for x in (rng.random((steps, batch, 1)), rng.standard_normal((steps, batch, 1)) * 1e3):
        x = x.astype(wx.dtype)
        gemm = (x.reshape(steps * batch, 1) @ wx).reshape(steps, batch, 4 * width)
        broadcast = np.multiply(x, wx[0])
        assert broadcast.dtype == gemm.dtype and broadcast.shape == gemm.shape
        assert broadcast.tobytes() == gemm.tobytes()


def test_predict_batch_matches_per_window_forward():
    # 150 windows in blocks of 64: the last block is partial
    model = float64_copy(small_model(seed=14, lstm_layers=(5, 4), batch_size=64))
    X = Generator(PCG64(SeedSequence(15))).random((150, 8))
    blocked = predict_batch(model, X)
    assert blocked.shape == (150,)
    per_window = [forward_batch(model, x[None], False, lstm._BufferPool())[0][0] for x in X]
    np.testing.assert_allclose(blocked, per_window, rtol=1e-12, atol=0)


def test_predict_batch_runs_blocks_of_batch_size(monkeypatch):
    import sectorport.lstm as fc

    model = small_model(batch_size=64)
    sizes = []
    real = fc.forward_batch

    def spy(model, X, training=False, rng=None, pool=None):
        sizes.append((len(X), training))
        return real(model, X, training=training, rng=rng, pool=pool)

    monkeypatch.setattr(fc, "forward_batch", spy)
    assert predict_batch(model, np.full((150, 8), 0.5)).shape == (150,)
    assert sizes == [(64, False), (64, False), (22, False)]
    assert predict_batch(model, np.empty((0, 8))).shape == (0,)


# -------------------------------------------------------------- buffer pool
# train and predict_batch run every batch in one _BufferPool. A reused buffer
# holds the last batch's values where a fresh page reads as zero, so the
# pooled runs below start from buffers filled with NaN: a read before a write
# shows in the bits.

def nan_filled(pool):
    for flat in pool._flat.values():
        flat.fill(np.nan)
    return pool


def test_pooled_forward_and_backward_equal_fresh_arrays_bitwise():
    for layers in ((5, 4), (4, 5)):  # the deeper layer's d_x outgrows, or fits in, its cell states
        model = small_model(seed=21, lstm_layers=layers, dropout_rate=0.3, batch_size=16)
        data = Generator(PCG64(SeedSequence(22)))
        batches = [data.random((16, 8)), data.random((7, 8)), data.random((16, 8))]  # full, ragged, full
        pool = lstm._BufferPool()
        _, cache = forward_batch(model, batches[0], training=True, rng=Generator(PCG64(SeedSequence(0))), pool=pool)
        backward_batch(model, cache, np.ones(16), pool)  # allocates every buffer at the full batch size
        fresh_rng, pooled_rng = (Generator(PCG64(SeedSequence(23))) for _ in range(2))
        for X in batches:
            d_y = data.standard_normal(len(X))
            y, cache = forward_batch(model, X, training=True, rng=fresh_rng, pool=lstm._BufferPool())
            grads = backward_batch(model, cache, d_y, lstm._BufferPool())
            y_pool, cache = forward_batch(model, X, training=True, rng=pooled_rng, pool=nan_filled(pool))
            grads_pool = backward_batch(model, cache, d_y, pool)
            assert y_pool.tobytes() == y.tobytes(), layers
            assert list(grads_pool) == list(grads)
            for name, g in grads.items():
                assert grads_pool[name].tobytes() == g.tobytes(), (layers, name)


def test_pooled_predict_batch_equals_fresh_forward_per_block_bitwise():
    model = small_model(seed=24, lstm_layers=(5, 4), batch_size=16)
    X = Generator(PCG64(SeedSequence(25))).random((40, 8)).astype(model.dtype)  # blocks of 16, 16, 8
    pool = lstm._BufferPool()
    predict_batch(model, X, pool)
    per_block = np.concatenate([forward_batch(model, X[lo : lo + 16], False, lstm._BufferPool())[0] for lo in range(0, 40, 16)])
    assert predict_batch(model, X, nan_filled(pool)).tobytes() == per_block.tobytes()


def traced_peak(fn) -> int:
    """Peak bytes that fn allocates, by tracemalloc, which NumPy reports its arrays to."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


POOL_MODEL = dict(window=20, lstm_layers=(32, 32), dense_width=32, dropout_rate=0.3, batch_size=32, epochs=1)


def test_predict_batch_memory_is_one_block():
    model = small_model(seed=26, **POOL_MODEL)
    X = Generator(PCG64(SeedSequence(27))).random((320, 20)).astype(model.dtype)  # 10 blocks
    one_block = traced_peak(lambda: forward_batch(model, X[:32], False, lstm._BufferPool()))
    ten_blocks = traced_peak(lambda: predict_batch(model, X))
    assert ten_blocks <= 1.1 * one_block, f"{ten_blocks / 1e6:.2f} MB against {one_block / 1e6:.2f} MB for one block"


def test_train_memory_is_one_training_step():
    config = LstmConfig(**POOL_MODEL, seed=28)
    closes = 100.0 + np.cumsum(Generator(PCG64(SeedSequence(29))).standard_normal(420))  # 12 training batches
    model = small_model(seed=28, **POOL_MODEL)
    X = Generator(PCG64(SeedSequence(30))).random((32, 20))

    def step():
        _, cache = forward_batch(model, X, training=True, rng=Generator(PCG64(SeedSequence(31))), pool=lstm._BufferPool())
        backward_batch(model, cache, np.ones(32), lstm._BufferPool())

    one_step = traced_peak(step)
    training = traced_peak(lambda: train(config, closes))
    assert training <= 1.25 * one_step, f"{training / 1e6:.2f} MB against {one_step / 1e6:.2f} MB for one step"


def test_pooled_backward_allocates_under_a_quarter_of_one_sequence_block():
    # BPTT's workspace, its per-step buffers and the gradients all live in the
    # pool, so once two steps have sized it, a backward pass allocates only
    # the head's few (B, dense) temporaries
    model = small_model(seed=32, **POOL_MODEL)
    data = Generator(PCG64(SeedSequence(33)))
    X, d_y = data.random((32, 20)), data.standard_normal(32)
    pool = lstm._BufferPool()
    for seed in (34, 35, 36):  # two warm-up steps, then the forward whose cache is measured
        _, cache = forward_batch(model, X, training=True, rng=Generator(PCG64(SeedSequence(seed))), pool=pool)
        if seed != 36:
            backward_batch(model, cache, d_y, pool)
    block = 20 * 32 * 32 * model.dtype.itemsize  # one (T, B, H) array
    peak = traced_peak(lambda: backward_batch(model, cache, d_y, pool))
    assert peak < block / 4, f"{peak / 1e3:.1f} KB against {block / 1e3:.1f} KB for one (T, B, H) block"


def test_pooled_training_step_allocates_under_one_sequence_block():
    # The deeper layer's input projection and BPTT's gate gradients live in the
    # gate caches, d_x in the cell states and Adam's work rows in a consumed
    # gate cache; the masks between layers are drawn a few batch rows at a
    # time. At this width a mask is several _MASK_DRAW blocks, as at paper
    # width, so a whole warm training step allocates less than one (T, B, H)
    # array; one batch-major draw of the mask alone would take more than two.
    steps, batch, width = 50, 64, 128
    model = small_model(seed=37, window=steps, lstm_layers=(width, width), dense_width=32, batch_size=batch)
    assert steps * batch * width > 2 * lstm._MASK_DRAW
    data = Generator(PCG64(SeedSequence(38)))
    X, d_y = data.random((batch, steps)), data.standard_normal(batch)
    pool = lstm._BufferPool()
    adam = lstm._Adam(model.flat)

    def step(seed):
        _, cache = forward_batch(model, X, training=True, rng=Generator(PCG64(SeedSequence(seed))), pool=pool)
        backward_batch(model, cache, d_y, pool)
        adam.step(model.flat, pool.take("grads", model.flat.shape, model.dtype), 1e-3, pool)

    step(39)  # sizes the pool
    block = steps * batch * width * model.dtype.itemsize
    peak = traced_peak(lambda: step(40))
    assert peak < block, f"{peak / 1e3:.1f} KB against {block / 1e3:.1f} KB for one (T, B, H) block"


def _train_pool(monkeypatch):
    """(config, pool): train on POOL_MODEL, and the one pool it ran in."""
    pools = []

    class RecordedPool(lstm._BufferPool):
        def __init__(self):
            super().__init__()
            pools.append(self)

    monkeypatch.setattr(lstm, "_BufferPool", RecordedPool)
    config = LstmConfig(**POOL_MODEL, seed=41)
    train(config, 100.0 + np.cumsum(Generator(PCG64(SeedSequence(42))).standard_normal(420)))
    (pool,) = pools
    return config, pool


def test_train_pool_holds_no_sequence_sized_workspace(monkeypatch):
    # every (T, B, 4H) buffer in train's pool is a layer's gate cache: BPTT and
    # the deeper layers' projection have no workspace of their own
    config, pool = _train_pool(monkeypatch)
    steps, batch = config.window, config.batch_size
    gate_caches = {f"lstm{i}.gates" for i in range(len(config.lstm_layers))}
    for name, flat in pool._flat.items():
        sequence_sized = any(flat.size >= steps * batch * 4 * w for w in config.lstm_layers)
        assert name in gate_caches or not sequence_sized, f"{name}: {flat.size} elements"


def test_train_pool_caches_only_what_bptt_cannot_rebuild(monkeypatch):
    # tanh(c) and a deeper layer's dropped-out input are one elementwise pass
    # from c and from the layer below's h and mask, so BPTT rebuilds them:
    # each layer keeps only its gates, c and h at sequence size, plus one
    # mask per boundary between layers
    config, pool = _train_pool(monkeypatch)
    n_layers = len(config.lstm_layers)
    allowed = {f"lstm{i}.{name}" for i in range(n_layers) for name in ("gates", "c", "h")}
    allowed |= {f"lstm{i}.mask" for i in range(n_layers - 1)}
    smallest = config.window * config.batch_size * min(config.lstm_layers)
    held = {name for name, flat in pool._flat.items() if flat.size >= smallest}
    assert held == allowed, f"extra {sorted(held - allowed)}, missing {sorted(allowed - held)}"


# ----------------------------------------------------------- float32 kernel

def _arrays(obj):
    """Every ndarray held by a cache, a gradient dict, a model or a list of them."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))


def _training_step(model, X, targets, seed=16, pool=None):
    """One dropout forward, BPTT and Adam step in one pool; returns (predictions, cache, grads, adam)."""
    pool = pool or lstm._BufferPool()
    rng = Generator(PCG64(SeedSequence(seed)))
    y, cache = forward_batch(model, X, training=True, rng=rng, pool=pool)
    grads = backward_batch(model, cache, huber_gradient(targets, y, 1.0) / len(targets), pool)
    adam = lstm._Adam(model.flat)
    adam.step(model.flat, pool.take("grads", model.flat.shape, model.dtype), 1e-3, pool)
    return y, cache, grads, adam


def test_init_model_stores_float64_draws_as_float32():
    # the Glorot values are float64 draws narrowed, and the rng is left where
    # float64 draws leave it, so dropout masks and batch order keep their stream
    model = small_model(seed=3, lstm_layers=(5, 4))
    rng = Generator(PCG64(SeedSequence(3)))
    init_model(model.config, model.scaler, rng)
    replay = Generator(PCG64(SeedSequence(3)))
    for name, arr in model.params.items():
        assert arr.dtype == np.float32, name
        if arr.ndim == 2:  # weights are drawn, biases are constants
            limit = math.sqrt(6.0 / sum(arr.shape))
            np.testing.assert_array_equal(arr, replay.uniform(-limit, limit, arr.shape).astype(np.float32))
    assert rng.random() == replay.random()
    a = dropout_mask(Generator(PCG64(SeedSequence(4))), (3, 5), 0.3, np.float32)
    b = dropout_mask(Generator(PCG64(SeedSequence(4))), (3, 5), 0.3, np.float64)
    assert a.dtype == np.float32
    np.testing.assert_array_equal(a, b.astype(np.float32))


def test_float32_model_keeps_every_array_float32():
    model = small_model(seed=5, lstm_layers=(5, 4), dropout_rate=0.3)
    rng = Generator(PCG64(SeedSequence(6)))
    X, targets = rng.random((7, 8)), rng.random(7)  # float64 in, as the CLI passes them
    y, cache, grads, adam = _training_step(model, X, targets)
    assert cache.seq_masks[0] is not None and cache.last_mask is not None
    held = {
        "cache": list(_arrays(cache)),
        "grads": list(_arrays(grads)),
        "adam": list(_arrays([adam.m, adam.v])),
        "params": list(_arrays(model)),
        "predict_batch": [predict_batch(model, X)],
    }
    for where, arrays in held.items():
        assert arrays and {a.dtype for a in arrays} == {np.dtype(np.float32)}, where
    cfg = LstmConfig(window=8, lstm_layers=(4,), dense_width=4, batch_size=16, epochs=1)
    trained, _ = train(cfg, 100.0 + np.sin(np.arange(60) / 3.0))
    assert {a.dtype for a in _arrays(trained)} == {np.dtype(np.float32)}


class _NoFloat64(np.ndarray):
    """An array whose every ufunc call (operators, matmul, reductions) rejects a float64 operand or result."""

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        operands = inputs + (out or ())
        if any(isinstance(x, (np.ndarray, np.float64)) and x.dtype == np.float64 for x in operands):
            raise AssertionError(f"{ufunc.__name__}.{method} on a float64 operand")
        plain = [x.view(np.ndarray) if isinstance(x, np.ndarray) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(x.view(np.ndarray) for x in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        if isinstance(result, np.ndarray):
            if result.dtype == np.float64:
                raise AssertionError(f"{ufunc.__name__}.{method} widens to float64")
            return result.view(_NoFloat64)
        return result


class _NoFloat64Pool(lstm._BufferPool):
    def take(self, name, shape, dtype):
        return super().take(name, shape, dtype).view(_NoFloat64)


def test_float32_kernel_never_computes_in_float64():
    # every value derived from the parameters, and every buffer the kernel
    # writes into, is a _NoFloat64 array, so an operation that widens
    # anywhere in forward, BPTT, Adam or inference raises
    model = small_model(seed=7, lstm_layers=(5, 4), dropout_rate=0.3)
    model = dataclasses.replace(model, flat=model.flat.view(_NoFloat64))
    rng = Generator(PCG64(SeedSequence(8)))
    X, targets = rng.random((5, 8)), rng.random(5)
    _training_step(model, X, targets, pool=_NoFloat64Pool())
    predict_batch(model, X, _NoFloat64Pool())


def test_float32_matches_float64_copy():
    # Same parameters, same dropout masks. Float32 rounds each operation to a
    # relative 6e-8; over seeds 9-18 of this model the worst differences were
    # 3.5e-8 on the predictions, 1.5e-7 on h and c, and 8.4e-7 of a gradient
    # tensor's largest entry. The bounds below leave at least a sixfold margin.
    model = small_model(seed=9, window=20, lstm_layers=(16, 8), dense_width=12, dropout_rate=0.3)
    ref = float64_copy(model)
    rng = Generator(PCG64(SeedSequence(10)))
    X, targets = rng.random((40, 20)), rng.random(40)
    np.testing.assert_allclose(predict_batch(model, X), predict_batch(ref, X), rtol=0, atol=1e-6)
    y32, c32, g32, _ = _training_step(model, X, targets)
    y64, c64, g64, _ = _training_step(ref, X, targets)
    assert y64.dtype == np.float64 and y32.dtype == np.float32
    np.testing.assert_allclose(y32, y64, rtol=0, atol=1e-6)
    for l32, l64 in zip(c32.layers, c64.layers):
        np.testing.assert_allclose(l32.ht, l64.ht, rtol=0, atol=1e-6)
        np.testing.assert_allclose(l32.c, l64.c, rtol=0, atol=1e-6)
    for name, g in g64.items():
        np.testing.assert_allclose(g32[name], g, rtol=0, atol=1e-5 * np.abs(g).max(), err_msg=name)


# ------------------------------------------------------------------ dropout

def test_dropout_rate_zero_equals_inference_exactly():
    model = small_model(dropout_rate=0.0)
    window = Generator(PCG64(SeedSequence(5))).random(8)
    rng = Generator(PCG64(SeedSequence(6)))
    trained, _ = forward_batch(model, window[None], training=True, pool=lstm._BufferPool(), rng=rng)
    assert trained == forward_batch(model, window[None], False, lstm._BufferPool())[0]


def test_dropout_mask_expectation_is_one():
    rate = 0.3
    rng = Generator(PCG64(SeedSequence(8)))
    n = 10_000
    masks = dropout_mask(rng, (n, 50), rate)
    observed = masks.mean(axis=0)
    stderr = math.sqrt(rate / (1.0 - rate) / n)
    assert np.abs(observed - 1.0).max() < 3 * stderr


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize(
    "steps,batch,width,cap",
    [(5, 3, 4, None), (5, 9, 4, 60), (5, 10, 4, 60), (3, 2, 7, 5), (50, 64, 256, None)],
    ids=["one-block", "three-blocks", "ragged", "row-over-cap", "paper-width"],
)
def test_sequence_mask_equals_one_batch_major_draw(monkeypatch, steps, batch, width, cap, dtype):
    # forward_batch's masks between layers are drawn a few batch rows at a time,
    # straight into the time-major mask; the bits and the rng state afterwards
    # are those of one batch-major dropout_mask draw
    if cap is not None:
        monkeypatch.setattr(lstm, "_MASK_DRAW", cap)
    drawn, replay = (Generator(PCG64(SeedSequence(43))) for _ in range(2))
    mask = lstm._sequence_mask(drawn, np.full((steps, batch, width), np.nan, dtype), 0.3)
    expected = dropout_mask(replay, (batch, steps, width), 0.3, dtype).swapaxes(0, 1)
    assert mask.dtype == expected.dtype
    assert mask.tobytes() == np.ascontiguousarray(expected).tobytes()
    assert drawn.bit_generator.state == replay.bit_generator.state


def test_dropout_masks_resampled_per_call():
    rng = Generator(PCG64(SeedSequence(9)))
    a = dropout_mask(rng, (4, 4), 0.5)
    b = dropout_mask(rng, (4, 4), 0.5)
    assert not np.array_equal(a, b)


def test_training_forward_with_dropout_differs_from_inference():
    model = small_model(dropout_rate=0.5)
    window = Generator(PCG64(SeedSequence(10))).random(8)
    rng = Generator(PCG64(SeedSequence(11)))
    trained, _ = forward_batch(model, window[None], training=True, pool=lstm._BufferPool(), rng=rng)
    assert trained != forward_batch(model, window[None], False, lstm._BufferPool())[0]


def test_train_draws_every_dropout_mask_from_its_seeded_rng(monkeypatch):
    # forward_batch does not check that a training call with dropout has an rng; train is its one such caller
    rngs = []

    def recording_forward(model, X, training, pool, rng=None):
        if training:
            rngs.append(rng)
        return forward_batch(model, X, training, pool, rng)

    monkeypatch.setattr(lstm, "forward_batch", recording_forward)
    cfg = LstmConfig(window=8, lstm_layers=(4,), dense_width=4, dropout_rate=0.3, batch_size=16, epochs=2)
    train(cfg, 100.0 + np.sin(np.arange(60) / 3.0))
    assert rngs and all(isinstance(rng, Generator) for rng in rngs)
    assert len({id(rng) for rng in rngs}) == 1


# -------------------------------------------------------------------- huber

@pytest.mark.parametrize(
    "y,y_hat,delta,expected",
    [
        (1.0, 1.0, 1.0, 0.0),
        (1.0, 0.5, 1.0, 0.125),  # quadratic branch: 0.5 * 0.25
        (3.0, 0.0, 1.0, 2.5),  # linear branch: 1 * (3 - 0.5)
        (0.0, 3.0, 1.0, 2.5),  # symmetric in the residual
    ],
)
def test_huber_values(y, y_hat, delta, expected):
    assert huber_loss(y, y_hat, delta) == pytest.approx(expected, abs=1e-15)


def test_huber_vectorizes():
    out = huber_loss(np.array([1.0, 3.0]), np.array([0.5, 0.0]), 1.0)
    np.testing.assert_allclose(out, [0.125, 2.5])



# ------------------------------------------------------------ input_windows
# The (window -> target) samples train fits: rows [window + horizon - 1,
# len(closes)), each paired with its own close as the target.

def training_samples(closes, window, horizon):
    closes = np.asarray(closes, dtype=float)
    first = window + horizon - 1
    return input_windows(closes, window, horizon, first, len(closes)), closes[first:]


def test_make_windows_sample_count():
    inputs, targets = training_samples(np.arange(52, dtype=float), window=50, horizon=1)
    assert inputs.shape == (2, 50)
    assert targets.shape == (2,)


def test_make_windows_enumeration():
    inputs, targets = training_samples([1.0, 2.0, 3.0, 4.0, 5.0], window=2, horizon=1)
    np.testing.assert_array_equal(inputs, [[1, 2], [2, 3], [3, 4]])
    np.testing.assert_array_equal(targets, [3, 4, 5])


def test_make_windows_boundary_too_short():
    with pytest.raises(ValueError, match="too short"):
        training_samples(np.arange(5, dtype=float), window=4, horizon=2)


def test_make_windows_horizon_shifts_targets():
    inputs, targets = training_samples([1.0, 2.0, 3.0, 4.0, 5.0], window=2, horizon=2)
    np.testing.assert_array_equal(inputs, [[1, 2], [2, 3]])
    np.testing.assert_array_equal(targets, [4, 5])


@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=60)
def test_make_windows_count_formula(window, horizon, extra):
    length = window + horizon + extra
    inputs, targets = training_samples(np.arange(length, dtype=float), window, horizon)
    assert targets.size == length - window - horizon + 1
    assert inputs.shape == (targets.size, window)


# ------------------------------------------------------------------- scaler

def test_scaler_unit_range_is_identity():
    s = Scaler(0.0, 1.0)
    x = np.array([0.0, 0.25, 1.0])
    np.testing.assert_array_equal(s.transform(x), x)


def test_scaler_endpoints():
    s = fit_scaler([10.0, 30.0, 20.0])
    assert s.transform(10.0) == 0.0
    assert s.transform(30.0) == 1.0


def test_scaler_round_trip_in_and_beyond_range():
    s = fit_scaler([50.0, 150.0])
    xs = np.linspace(40.0, 160.0, 25)  # 10% beyond both ends
    np.testing.assert_allclose(s.inverse_transform(s.transform(xs)), xs, rtol=1e-10)


def test_scaler_passes_out_of_range_unclipped():
    s = fit_scaler([0.0, 10.0])
    assert s.transform(20.0) == 2.0
    assert s.transform(-10.0) == -1.0


def test_fit_scaler_rejects_constant_series():
    with pytest.raises(ValueError, match="distinct"):
        fit_scaler([5.0, 5.0, 5.0])


def test_scaler_rejects_inverted_bounds():
    with pytest.raises(ValueError, match="max > min"):
        Scaler(1.0, 1.0)
