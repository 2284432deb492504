"""The gate-major LSTM kernel equals the row-layout reference in tests/oracles.py byte for byte.

Both kernels make the same BLAS calls on the same operands and the same
elementwise operations in the same order, so every prediction, cached
activation, gradient, checkpoint and training trace must be bitwise equal,
at any BLAS thread count. A difference of one ulp anywhere fails.
"""

import numpy as np
import pytest
from numpy.random import Generator, PCG64, SeedSequence

from oracles import float64_copy, patch_row_kernel
from sectorport import lstm
from sectorport.config import LstmConfig
from sectorport.lstm import Scaler, backward_batch, checkpoint_bytes, forward_batch, init_model, trace_csv_text, train

LAYERS = [(1,), (5,), (16,), (33,), (5, 16), (33, 1), (16, 5, 33)]
BATCH = 16


def model_for(layers, window, dropout, dtype):
    config = LstmConfig(window=window, lstm_layers=layers, dense_width=6, dropout_rate=dropout, batch_size=BATCH)
    model = init_model(config, Scaler(0.0, 1.0), Generator(PCG64(SeedSequence(sum(layers) + window))))
    return float64_copy(model) if dtype == np.float64 else model


def step_bytes(model, X, d_y, pool=None) -> dict[str, bytes]:
    """The bytes of one inference forward, one training forward and its BPTT: predictions, activations, gradients."""
    out = {"inference": forward_batch(model, X, False, pool or lstm._BufferPool())[0].tobytes()}
    y, cache = forward_batch(model, X, training=True, rng=Generator(PCG64(SeedSequence(7))), pool=pool or lstm._BufferPool())
    out["y"] = y.tobytes()
    for idx, layer in enumerate(cache.layers):
        gates = layer.gates if layer.gates.ndim == 3 else layer.gates.swapaxes(1, 2)  # (T, B, 4H) in C order
        for name, arr in (("gates", gates), ("c", layer.c), ("tc", layer.tc), ("h", layer.ht)):
            out[f"lstm{idx}.{name}"] = np.ascontiguousarray(arr).tobytes()
    for name, g in backward_batch(model, cache, d_y, pool or lstm._BufferPool()).items():
        out[f"d {name}"] = g.tobytes()
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("window", [1, 7, 20])
@pytest.mark.parametrize("layers", LAYERS, ids=["x".join(map(str, layers)) for layers in LAYERS])
def test_forward_and_backward_equal_the_row_layout_reference_bitwise(monkeypatch, layers, window, dropout, dtype):
    model = model_for(layers, window, dropout, dtype)
    data = Generator(PCG64(SeedSequence(window)))
    pool = lstm._BufferPool()
    for rows in (BATCH, 7):  # a full batch, then a ragged one carved from the full batch's buffers
        X, d_y = data.random((rows, window)), data.standard_normal(rows)
        kernel = step_bytes(model, X, d_y, pool)
        with monkeypatch.context() as patched:
            patch_row_kernel(patched)
            reference = step_bytes(model, X, d_y)
        assert list(kernel) == list(reference)
        for name, expected in reference.items():
            assert kernel[name] == expected, f"{name}, batch of {rows}"


def test_the_reference_is_the_row_layout_kernel(monkeypatch):
    # the patch takes hold: the reference caches its gates as (T, B, 4H) rows
    model = model_for((5,), 7, 0.0, np.float32)
    with monkeypatch.context() as patched:
        patch_row_kernel(patched)
        assert forward_batch(model, np.ones((3, 7)), False, lstm._BufferPool())[1].layers[0].gates.shape == (7, 3, 20)
    assert forward_batch(model, np.ones((3, 7)), False, lstm._BufferPool())[1].layers[0].gates.shape == (7, 4, 3, 5)


@pytest.mark.parametrize(
    "layers,window,dropout,batch_size",
    [((16,), 20, 0.1, 64), ((5, 16), 7, 0.3, 16), ((33, 1, 5), 1, 0.0, 8), ((1,), 20, 0.3, 32)],
    ids=["demo", "5x16", "33x1x5", "1"],
)
def test_two_epoch_training_equals_the_row_layout_reference_bitwise(monkeypatch, layers, window, dropout, batch_size):
    # 260 closes leave 260 - window windows, whose training split ends in a ragged batch for every row above
    config = LstmConfig(
        window=window, lstm_layers=layers, dense_width=8, dropout_rate=dropout, batch_size=batch_size, epochs=2
    )
    closes = 100.0 + np.cumsum(Generator(PCG64(SeedSequence(window))).standard_normal(260))
    assert int((260 - window) * lstm.TRAIN_FRACTION) % batch_size
    kernel, kernel_trace = train(config, closes)
    with monkeypatch.context() as patched:
        patch_row_kernel(patched)
        reference, reference_trace = train(config, closes)
    assert checkpoint_bytes(kernel) == checkpoint_bytes(reference)
    assert trace_csv_text(kernel_trace) == trace_csv_text(reference_trace)
