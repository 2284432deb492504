"""Cell mechanics, forward pass, dropout, windowing, scaling, and loss functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, PCG64, SeedSequence

from sectorport.lstm import (
    LayerParams,
    LstmConfig,
    Scaler,
    dropout_mask,
    fit_scaler,
    forward_batch,
    huber_loss,
    init_model,
    lstm_cell_step,
    mae,
    make_windows,
    predict_batch,
)


def small_model(seed=0, **overrides):
    defaults = dict(window=8, lstm_layers=(5,), dense_width=6, dropout_rate=0.3, seed=seed)
    defaults.update(overrides)
    config = LstmConfig(**defaults)
    rng = Generator(PCG64(SeedSequence(seed)))
    return init_model(config, Scaler(0.0, 1.0), rng)


# ------------------------------------------------------------ lstm_cell_step

def reference_cell_step(x, h_prev, c_prev, wx, wh, b, width):
    """Scalar-loop reference implementation, written independently of the module."""

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
    params = LayerParams(
        wx=rng.normal(size=(d, 4 * width)),
        wh=rng.normal(size=(width, 4 * width)),
        b=rng.normal(size=4 * width),
    )
    x = rng.normal(size=d)
    h_prev = rng.normal(size=width)
    c_prev = rng.normal(size=width)
    h, c = lstm_cell_step(x, h_prev, c_prev, params)
    h_ref, c_ref = reference_cell_step(
        x.tolist(), h_prev.tolist(), c_prev.tolist(), params.wx.tolist(), params.wh.tolist(),
        params.b.tolist(), width
    )
    np.testing.assert_allclose(h, h_ref, atol=1e-12, rtol=0)
    np.testing.assert_allclose(c, c_ref, atol=1e-12, rtol=0)


def test_forward_batch_matches_reference_over_window():
    # two layers, 4 steps, 2 samples: every cached h_t and c_t of the kernel
    # equals the scalar reference iterated over the window
    config = LstmConfig(window=4, lstm_layers=(3, 2), dense_width=4, dropout_rate=0.0)
    rng = Generator(PCG64(SeedSequence(21)))
    model = init_model(config, Scaler(0.0, 1.0), rng)
    for layer in model.layers:
        layer.b[...] = rng.normal(size=layer.b.shape)
    X = rng.random((2, config.window))
    _, cache = forward_batch(model, X)
    for sample in range(2):
        seq = [[v] for v in X[sample]]
        for params, lc in zip(model.layers, cache.layers):
            width = params.width
            h, c = [0.0] * width, [0.0] * width
            hs = []
            for t, x_t in enumerate(seq):
                h, c = reference_cell_step(
                    x_t, h, c, params.wx.tolist(), params.wh.tolist(), params.b.tolist(), width
                )
                np.testing.assert_allclose(lc.h[sample, t], h, atol=1e-12, rtol=0)
                np.testing.assert_allclose(lc.c[t, sample], c, atol=1e-12, rtol=0)
                hs.append(h)
            seq = hs


def test_cell_step_all_zero_gives_zero_hidden():
    width = 4
    params = LayerParams(np.zeros((1, 16)), np.zeros((4, 16)), np.zeros(16))
    h, c = lstm_cell_step(np.zeros(1), np.zeros(4), np.zeros(4), params)
    np.testing.assert_array_equal(h, np.zeros(width))
    np.testing.assert_array_equal(c, np.zeros(width))


def test_cell_step_saturated_forget_gate_is_pure_memory():
    # forget bias -> +inf and input bias -> -inf: c_t == c_prev
    width = 3
    b = np.zeros(4 * width)
    b[0:width] = -50.0  # input gate closed
    b[width : 2 * width] = 50.0  # forget gate open
    params = LayerParams(np.zeros((1, 4 * width)), np.zeros((width, 4 * width)), b)
    c_prev = np.array([0.5, -1.0, 2.0])
    _, c = lstm_cell_step(np.zeros(1), np.zeros(width), c_prev, params)
    np.testing.assert_allclose(c, c_prev, atol=1e-10)


def test_cell_step_rejects_nonfinite_parameters():
    params = LayerParams(np.full((1, 4), np.inf), np.zeros((1, 4)), np.zeros(4))
    with pytest.raises(FloatingPointError, match="blow-up"):
        lstm_cell_step(np.ones(1), np.zeros(1), np.zeros(1), params)


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
    getattr(model.layers[layer], tensor)[index] = value
    X = Generator(PCG64(SeedSequence(12))).random((3, 8))
    with pytest.raises(FloatingPointError, match="blow-up"):
        forward_batch(model, X)


def test_forward_rejects_nan_input_window_as_blow_up():
    model = small_model(lstm_layers=(5, 4))
    X = Generator(PCG64(SeedSequence(13))).random((3, 8))
    X[1, 6] = np.nan
    with pytest.raises(FloatingPointError, match="blow-up"):
        forward_batch(model, X)


# ------------------------------------------------------------------ forward

def test_forward_output_strictly_inside_unit_interval():
    model = small_model()
    rng = Generator(PCG64(SeedSequence(2)))
    for _ in range(10):
        y, _ = forward_batch(model, rng.random((1, 8)))
        assert 0.0 < y[0] < 1.0


def test_forward_inference_is_deterministic():
    model = small_model()
    window = Generator(PCG64(SeedSequence(3))).random(8)
    assert forward_batch(model, window[None])[0] == forward_batch(model, window[None])[0]


def test_forward_rejects_wrong_window_length():
    model = small_model()
    with pytest.raises(ValueError, match=r"expected \(batch, 8\) input, got \(1, 9\)"):
        forward_batch(model, np.ones(9)[None])


def test_default_config_layer_one_emits_50_by_256():
    config = LstmConfig()
    rng = Generator(PCG64(SeedSequence(0)))
    model = init_model(config, Scaler(0.0, 1.0), rng)
    x = rng.random((1, 50))
    _, cache = forward_batch(model, x)
    assert cache.layers[0].h.shape == (1, 50, 256)
    assert cache.layers[1].x.shape == (1, 50, 256)
    assert cache.layers[1].h.shape == (1, 50, 256)


def test_predict_batch_matches_per_window_forward():
    # 150 windows in blocks of 64: the last block is partial
    model = small_model(seed=14, lstm_layers=(5, 4), batch_size=64)
    X = Generator(PCG64(SeedSequence(15))).random((150, 8))
    blocked = predict_batch(model, X)
    assert blocked.shape == (150,)
    per_window = [forward_batch(model, x[None])[0][0] for x in X]
    np.testing.assert_allclose(blocked, per_window, rtol=1e-12, atol=0)


def test_predict_batch_runs_blocks_of_batch_size(monkeypatch):
    import sectorport.lstm as fc

    model = small_model(batch_size=64)
    sizes = []
    real = fc.forward_batch

    def spy(model, X, training=False, rng=None):
        sizes.append((len(X), training))
        return real(model, X, training=training, rng=rng)

    monkeypatch.setattr(fc, "forward_batch", spy)
    assert predict_batch(model, np.full((150, 8), 0.5)).shape == (150,)
    assert sizes == [(64, False), (64, False), (22, False)]
    assert predict_batch(model, np.empty((0, 8))).shape == (0,)


def test_training_forward_needs_rng_when_dropout_active():
    model = small_model(dropout_rate=0.5)
    with pytest.raises(ValueError, match="rng"):
        forward_batch(model, np.ones((1, 8)), training=True)


# ------------------------------------------------------------------ dropout

def test_dropout_rate_zero_equals_inference_exactly():
    model = small_model(dropout_rate=0.0)
    window = Generator(PCG64(SeedSequence(5))).random(8)
    rng = Generator(PCG64(SeedSequence(6)))
    trained, _ = forward_batch(model, window[None], training=True, rng=rng)
    assert trained == forward_batch(model, window[None])[0]


def test_dropout_mask_expectation_is_one():
    rate = 0.3
    rng = Generator(PCG64(SeedSequence(8)))
    n = 10_000
    masks = dropout_mask(rng, (n, 50), rate)
    observed = masks.mean(axis=0)
    stderr = math.sqrt(rate / (1.0 - rate) / n)
    assert np.abs(observed - 1.0).max() < 3 * stderr


def test_dropout_masks_resampled_per_call():
    rng = Generator(PCG64(SeedSequence(9)))
    a = dropout_mask(rng, (4, 4), 0.5)
    b = dropout_mask(rng, (4, 4), 0.5)
    assert not np.array_equal(a, b)


def test_training_forward_with_dropout_differs_from_inference():
    model = small_model(dropout_rate=0.5)
    window = Generator(PCG64(SeedSequence(10))).random(8)
    rng = Generator(PCG64(SeedSequence(11)))
    trained, _ = forward_batch(model, window[None], training=True, rng=rng)
    assert trained != forward_batch(model, window[None])[0]


# --------------------------------------------------------------- huber / mae

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


def test_huber_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        huber_loss(1.0, 0.0, 0.0)


def test_huber_vectorizes():
    out = huber_loss(np.array([1.0, 3.0]), np.array([0.5, 0.0]), 1.0)
    np.testing.assert_allclose(out, [0.125, 2.5])


@pytest.mark.parametrize(
    "y,y_hat,expected",
    [
        ([1.0, 2.0], [1.0, 2.0], 0.0),
        ([0.0, 1.0], [1.0, 1.0], 0.5),
        ([2.0], [-1.0], 3.0),
    ],
)
def test_mae_values(y, y_hat, expected):
    assert mae(y, y_hat) == pytest.approx(expected)


def test_mae_rejects_mismatch_and_empty():
    with pytest.raises(ValueError, match="mismatch"):
        mae([1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="empty"):
        mae([], [])


# ------------------------------------------------------------- make_windows

def test_make_windows_sample_count():
    ds = make_windows(np.arange(52, dtype=float), window=50, horizon=1)
    assert ds.inputs.shape == (2, 50)
    assert ds.targets.shape == (2,)


def test_make_windows_enumeration():
    ds = make_windows([1.0, 2.0, 3.0, 4.0, 5.0], window=2, horizon=1)
    np.testing.assert_array_equal(ds.inputs, [[1, 2], [2, 3], [3, 4]])
    np.testing.assert_array_equal(ds.targets, [3, 4, 5])


def test_make_windows_boundary_too_short():
    with pytest.raises(ValueError, match="too short"):
        make_windows(np.arange(5, dtype=float), window=4, horizon=2)


def test_make_windows_horizon_shifts_targets():
    ds = make_windows([1.0, 2.0, 3.0, 4.0, 5.0], window=2, horizon=2)
    np.testing.assert_array_equal(ds.inputs, [[1, 2], [2, 3]])
    np.testing.assert_array_equal(ds.targets, [4, 5])


@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=60)
def test_make_windows_count_formula(window, horizon, extra):
    length = window + horizon + extra
    ds = make_windows(np.arange(length, dtype=float), window, horizon)
    assert ds.targets.size == length - window - horizon + 1
    assert ds.inputs.shape == (ds.targets.size, window)


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
