"""Training loop: determinism, splits, learnability, and failure modes."""

import warnings

import numpy as np
import pytest
from numpy.random import Generator, PCG64, SeedSequence

from sectorport import lstm as fc
from sectorport.config import LstmConfig
from sectorport.lstm import checkpoint_bytes, forecast, init_model, predict_batch, train

QUICK = dict(
    window=10,
    lstm_layers=(8,),
    dense_width=8,
    dropout_rate=0.0,
    batch_size=32,
    learning_rate=3e-3,
)


def sine_series(n=300, period=25.0):
    return 100.0 + 10.0 * np.sin(np.arange(n) * (2 * np.pi / period))


def test_zero_epochs_returns_initialized_model_and_empty_trace():
    cfg = LstmConfig(**QUICK, epochs=0, seed=42)
    model, trace = train(cfg, sine_series())
    assert trace == ()
    # parameters must equal a fresh initialization from the same seed
    rng = Generator(PCG64(SeedSequence(42)))
    fresh = init_model(cfg, model.scaler, rng)
    for name, arr in model.params.items():
        np.testing.assert_array_equal(arr, fresh.params[name])


def test_training_is_bit_identical_for_fixed_seed():
    cfg = LstmConfig(**{**QUICK, "dropout_rate": 0.2}, epochs=3, seed=7)
    a, a_trace = train(cfg, sine_series(150))
    b, b_trace = train(cfg, sine_series(150))
    assert checkpoint_bytes(a) == checkpoint_bytes(b)
    assert a_trace == b_trace


def test_loss_decreases_on_learnable_fixture():
    cfg = LstmConfig(**QUICK, epochs=30, seed=0)
    _, trace = train(cfg, sine_series())
    assert trace[-1][1] < trace[0][1]  # train_loss


def test_trace_has_one_row_per_epoch_with_validation_metrics():
    cfg = LstmConfig(**QUICK, epochs=2, seed=1)
    _, trace = train(cfg, sine_series(200))
    assert [row[0] for row in trace] == [1, 2]
    for row in trace:
        assert np.isfinite(row[1:]).all()  # train_loss, train_mae, val_loss, val_mae


def test_scaler_fit_on_training_split_only():
    # the price spike lives in the validation tail, so the scaler can't see it
    closes = np.concatenate([np.linspace(10.0, 20.0, 90), np.linspace(30.0, 40.0, 10)])
    cfg = LstmConfig(window=5, lstm_layers=(4,), dense_width=4, dropout_rate=0.0,
                     batch_size=16, epochs=1, seed=0)
    model, _ = train(cfg, closes)
    n = closes.size - cfg.window - cfg.horizon + 1
    n_train = int(n * fc.TRAIN_FRACTION)
    train_closes = closes[: (n_train - 1) + cfg.window + cfg.horizon]
    assert model.scaler.max == train_closes.max() < closes.max()
    assert model.scaler.min == train_closes.min()


def test_train_insufficient_data():
    cfg = LstmConfig(**QUICK, epochs=1, seed=0)
    with pytest.raises(ValueError, match="too short"):
        train(cfg, np.arange(5, dtype=float))


def test_nonfinite_loss_aborts_with_coordinates(monkeypatch):
    cfg = LstmConfig(**QUICK, epochs=1, seed=0)

    def poisoned(model, X, training=False, rng=None, pool=None):
        return np.full(X.shape[0], np.nan), None

    monkeypatch.setattr(fc, "forward_batch", poisoned)
    with pytest.raises(RuntimeError, match="epoch 1, batch 0"):
        train(cfg, sine_series(100))


def test_parameter_blowup_aborts_with_coordinates(monkeypatch):
    cfg = LstmConfig(**QUICK, epochs=1, seed=0)

    def exploding(model, X, training=False, rng=None, pool=None):
        raise FloatingPointError("non-finite gate pre-activation")

    monkeypatch.setattr(fc, "forward_batch", exploding)
    with pytest.raises(RuntimeError, match="epoch 1, batch 0"):
        train(cfg, sine_series(100))


def test_predict_next_constant_series_value():
    # ramp gives the scaler a nondegenerate range; the plateau teaches v
    v = 100.0
    closes = np.concatenate([np.linspace(0.8 * v, 1.2 * v, 40), np.full(120, v)])
    cfg = LstmConfig(**QUICK, epochs=150, seed=1)
    model, _ = train(cfg, closes)
    row = cfg.window + cfg.horizon - 1  # the first row past the window
    (pred,) = forecast(model, np.full(cfg.window, v), row, row + 1)
    assert pred == pytest.approx(v, rel=0.02)


def test_predict_next_deterministic_and_validates_window():
    cfg = LstmConfig(**QUICK, epochs=1, seed=3)
    model, _ = train(cfg, sine_series(100))
    closes = sine_series(100)
    first = cfg.window + cfg.horizon - 1
    again = forecast(model, closes, first, 100)
    np.testing.assert_array_equal(forecast(model, closes, first, 100), again)
    with pytest.raises(ValueError, match="history"):
        forecast(model, closes, first - 1, 100)


def test_prediction_bounded_by_affine_image_of_unit_interval():
    # logistic outputs in (0,1) map inside [min, max] after inverse scaling
    cfg = LstmConfig(**QUICK, epochs=2, seed=5)
    model, _ = train(cfg, sine_series(150))
    scaler = model.scaler
    rng = Generator(PCG64(SeedSequence(0)))
    for _ in range(5):
        window = scaler.min + (scaler.max - scaler.min) * rng.random(cfg.window)
        (pred,) = forecast(model, window, cfg.window, cfg.window + 1)
        assert scaler.min <= pred <= scaler.max


def test_forecast_row_k_uses_the_window_ending_horizon_rows_before_it():
    cfg = LstmConfig(**QUICK, horizon=3, epochs=1, seed=8)
    closes = sine_series(60)
    model, _ = train(cfg, closes)
    first = cfg.window + cfg.horizon - 1
    predicted = forecast(model, closes, first, len(closes) + cfg.horizon)
    windows = np.array([closes[k - cfg.horizon - cfg.window + 1 : k - cfg.horizon + 1]
                        for k in range(first, len(closes) + cfg.horizon)])
    expected = model.scaler.inverse_transform(predict_batch(model, model.scaler.transform(windows)))
    np.testing.assert_array_equal(predicted, expected)
    with pytest.raises(ValueError, match="history"):
        forecast(model, closes, first - 1, first)
    with pytest.raises(ValueError, match="past the 60 closes"):
        forecast(model, closes, first, len(closes) + cfg.horizon + 1)


def test_forecast_names_the_earliest_close_beyond_float32_range():
    # two finite closes overflow float32 once scaled; the error is a ValueError at
    # the earlier one's row, raised before the kernel sees an inf, and warns of no cast
    cfg = LstmConfig(**QUICK, horizon=2, epochs=1, seed=9)
    closes = sine_series(80)
    model, _ = train(cfg, closes)
    closes[[50, 47]] = [1e300, -1e45]
    first = cfg.window + cfg.horizon - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fc.InputRangeError, match=r"^close -1e\+45 is beyond float32 range once scaled$") as info:
            forecast(model, closes, first, len(closes))
    assert info.value.row == 47 and isinstance(info.value, ValueError)
    # rows whose windows end before row 47 are forecast as before
    last = 47 + cfg.horizon
    np.testing.assert_array_equal(forecast(model, closes, first, last), forecast(model, closes[:47], first, last))


def test_forward_rejects_nonfinite_parameters():
    cfg = LstmConfig(**QUICK, epochs=1, seed=6)
    model, _ = train(cfg, sine_series(100))
    model.params["lstm0.wx"][0, 0] = np.inf
    with pytest.raises(FloatingPointError, match="blow-up"):
        fc.forward_batch(model, np.zeros((1, cfg.window)) + 0.5, False, fc._BufferPool())
