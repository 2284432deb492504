"""BPTT gradients against central finite differences."""

import numpy as np
import pytest
from numpy.random import Generator, PCG64, SeedSequence

from sectorport.config import LstmConfig
from sectorport.lstm import Scaler, init_model

from oracles import float64_copy, gradient_check

TINY = dict(window=5, lstm_layers=(4,), dense_width=4, dropout_rate=0.0)


def build(seed, **overrides):
    cfg = LstmConfig(**{**TINY, **overrides, "seed": seed})
    rng = Generator(PCG64(SeedSequence(seed)))
    model = init_model(cfg, Scaler(0.0, 1.0), rng)
    inputs = rng.random((3, cfg.window))
    targets = rng.random(3)
    return model, inputs, targets


def test_gradient_check_single_layer():
    model, inputs, targets = build(seed=0)
    assert gradient_check(model, inputs, targets) < 1e-4


def test_gradient_check_two_layers():
    model, inputs, targets = build(seed=1, window=6, lstm_layers=(4, 3), dense_width=5)
    assert gradient_check(model, inputs, targets) < 1e-4


def test_gradient_check_single_sample():
    model, inputs, targets = build(seed=2)
    assert gradient_check(model, inputs[:1], targets[:1]) < 1e-4


def test_zero_model_on_zero_input_agrees_at_machine_scale():
    from sectorport.lstm import backward_batch, forward_batch, huber_gradient, huber_loss

    cfg = LstmConfig(**TINY, seed=0)
    model = init_model(cfg, Scaler(0.0, 1.0), Generator(PCG64(SeedSequence(0))))
    for arr in model.params.values():
        arr[...] = 0.0
    inputs = np.zeros((2, 5))
    targets = np.full(2, 0.5)

    pred, cache = forward_batch(model, inputs)
    grads = backward_batch(model, cache, huber_gradient(targets, pred, 1.0) / 2)
    # x = 0 means lstm0.wx cannot influence the loss: analytic and numeric
    # gradients are both exactly zero
    assert np.array_equal(grads["lstm0.wx"], np.zeros_like(model.params["lstm0.wx"]))
    wx = model.params["lstm0.wx"].reshape(-1)
    for k in range(wx.size):
        for eps in (1e-5, -1e-5):
            wx[k] = eps
            moved, _ = forward_batch(model, inputs)
            wx[k] = 0.0
            assert float(np.mean(huber_loss(targets, moved, 1.0))) == float(
                np.mean(huber_loss(targets, pred, 1.0))
            )
    # the full check still agrees to machine scale (FD noise on other tensors)
    assert gradient_check(model, inputs, targets) < 1e-8


@pytest.mark.parametrize(
    "tensor",
    ["lstm0.wx", "lstm0.wh", "lstm0.b", "dense.w", "dense.b", "out.w", "out.b"],
)
def test_injected_double_gradient_fault_is_detected(tensor):
    model, inputs, targets = build(seed=0)
    err = gradient_check(model, inputs, targets, fault=tensor)
    assert err == pytest.approx(0.5, abs=0.01)
    assert err > 1e-4


def test_fault_on_unknown_tensor_is_rejected():
    model, inputs, targets = build(seed=0)
    with pytest.raises(KeyError):
        gradient_check(model, inputs, targets, fault="nope.w")


def test_gradient_check_subsamples_large_tensors():
    model, inputs, targets = build(seed=3, lstm_layers=(12,), dense_width=12)
    # wh is 12x48 = 576 coords; capped to 50 per tensor keeps this quick
    assert gradient_check(model, inputs, targets, coords_per_tensor=50) < 1e-4


def test_gradient_check_through_dropout_masks():
    # Two layers with dropout on the hidden sequence and on the final state.
    # Every loss evaluation re-seeds the rng, so all evaluations share masks.
    from sectorport.lstm import backward_batch, forward_batch, huber_gradient, huber_loss

    model, inputs, targets = build(
        seed=4, window=6, lstm_layers=(4, 3), dense_width=5, dropout_rate=0.4
    )
    model = float64_copy(model)  # central differences at eps = 1e-5 need float64

    def run():
        return forward_batch(model, inputs, training=True, rng=Generator(PCG64(SeedSequence(99))))

    def loss():
        pred, _ = run()
        return float(np.mean(huber_loss(targets, pred, 1.0)))

    pred, cache = run()
    assert (cache.seq_masks[0] == 0).any() and (cache.seq_masks[0] != 0).any()
    assert (cache.last_mask == 0).any() and (cache.last_mask != 0).any()
    analytic = backward_batch(model, cache, huber_gradient(targets, pred, 1.0) / targets.size)

    eps = 1e-5
    worst = 0.0
    for name, param in model.params.items():
        flat = param.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            hi = loss()
            flat[k] = orig - eps
            lo = loss()
            flat[k] = orig
            numeric = (hi - lo) / (2.0 * eps)
            a = analytic[name].reshape(-1)[k]
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    assert worst < 1e-4
