"""Checkpoint container: round trips, byte determinism, corruption detection."""

import hashlib
import json
import re
import struct

import numpy as np
import pytest
from numpy.random import Generator, PCG64, SeedSequence

from sectorport.config import LstmConfig, build
from sectorport.lstm import (
    CHECKPOINT_MAGIC,
    Scaler,
    checkpoint_bytes,
    forecast,
    init_model,
    load_checkpoint,
    model_from_checkpoint_bytes,
)

from oracles import float64_copy


def make_model(seed=0):
    cfg = LstmConfig(window=6, lstm_layers=(4, 3), dense_width=5, dropout_rate=0.1, seed=seed)
    rng = Generator(PCG64(SeedSequence(seed)))
    return init_model(cfg, Scaler(50.0, 150.0), rng)


def split_blob(blob):
    """(header dict, payload bytes) of a checkpoint; the payload stops before the sha256 trailer."""
    n = len(CHECKPOINT_MAGIC)
    (header_len,) = struct.unpack("<I", blob[n : n + 4])
    header = json.loads(blob[n + 4 : n + 4 + header_len])
    return header, blob[n + 4 + header_len : -32]


def repack(header, payload, sealed=True):
    """A checkpoint of header and payload, sealed with the sha256 trailer of its bytes."""
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = CHECKPOINT_MAGIC + struct.pack("<I", len(encoded)) + encoded + payload
    return body + hashlib.sha256(body).digest() if sealed else body


def test_round_trip_preserves_everything(tmp_path):
    model = make_model()
    path = tmp_path / "m.ckpt"
    path.write_bytes(checkpoint_bytes(model))
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.scaler == model.scaler
    for name, arr in model.params.items():
        np.testing.assert_array_equal(loaded.params[name], arr)


def test_round_trip_preserves_predictions(tmp_path):
    model = make_model(seed=4)
    path = tmp_path / "m.ckpt"
    path.write_bytes(checkpoint_bytes(model))
    loaded = load_checkpoint(path)
    window = np.linspace(60.0, 140.0, model.config.window)
    row = model.config.window + model.config.horizon - 1  # the first row past the window
    assert forecast(loaded, window, row, row + 1) == forecast(model, window, row, row + 1)


def test_serialization_is_byte_deterministic():
    assert checkpoint_bytes(make_model(seed=2)) == checkpoint_bytes(make_model(seed=2))


def test_header_is_self_describing():
    # the config fixes every parameter's shape; the payload is float32 in the model's params order
    model = make_model()
    blob = checkpoint_bytes(model)
    header, payload = split_blob(blob)
    assert set(header) == {"version", "config", "scaler"}
    assert header["version"] == 2
    assert header["scaler"] == {"min": 50.0, "max": 150.0}
    assert build(LstmConfig, header["config"], "config") == model.config
    expected = np.concatenate([a.ravel() for a in model.params.values()])
    np.testing.assert_array_equal(np.frombuffer(payload, dtype="<f4"), expected)
    assert blob[-32:] == hashlib.sha256(blob[:-32]).digest()


def test_seeded_checkpoint_bytes_are_pinned():
    # Pins the payload order and the order of the Glorot draws against a
    # literal, not against the model's own order. Init draws and
    # serialisation use no BLAS, so the digest is the same on every machine.
    blob = checkpoint_bytes(make_model(seed=7))
    assert len(blob) == 1130
    digest = "fd1a22a1087cf342003148bf770d3a3f9b43d41e8ec00c57ef39498e6e2d5287"
    assert hashlib.sha256(blob).hexdigest() == digest


def test_bad_magic_rejected():
    blob = b"XXXXXXXX" + checkpoint_bytes(make_model())[8:]
    with pytest.raises(ValueError, match="magic"):
        model_from_checkpoint_bytes(blob)


def test_unsupported_version_rejected():
    header, payload = split_blob(checkpoint_bytes(make_model()))
    header["version"] = 99
    with pytest.raises(ValueError, match="version"):
        model_from_checkpoint_bytes(repack(header, payload))


def test_version_1_checkpoint_rejected_saying_retrain():
    # the v1 layout: a tensor table in the header, float64 payload, no digest
    model = make_model()
    header, _ = split_blob(checkpoint_bytes(model))
    header["version"] = 1
    header["tensors"], payload = [], b""
    for name, arr in model.params.items():
        header["tensors"].append({"name": name, "shape": list(arr.shape), "offset": len(payload)})
        payload += arr.astype("<f8").tobytes()
    with pytest.raises(ValueError, match="version 1.*retrain"):
        model_from_checkpoint_bytes(repack(header, payload, sealed=False))


def test_truncated_payload_rejected():
    # re-sealed, so the length check and not the digest rejects it
    header, payload = split_blob(checkpoint_bytes(make_model()))
    need = len(payload)
    with pytest.raises(ValueError, match=f"payload is {need - 16} bytes, its config needs {need}"):
        model_from_checkpoint_bytes(repack(header, payload[:-16]))


def test_nonfinite_parameters_rejected():
    header, payload = split_blob(checkpoint_bytes(make_model()))
    bad = bytearray(payload)
    bad[4:8] = struct.pack("<f", float("nan"))
    with pytest.raises(ValueError, match="non-finite.*lstm0.wx"):
        model_from_checkpoint_bytes(repack(header, bytes(bad)))


@pytest.mark.parametrize("key, value", [("min", "50.0"), ("min", True), ("max", float("nan")), ("max", None)])
def test_scaler_bound_must_be_a_finite_number(key, value):
    # re-sealed, so the bound check and not the digest rejects it
    header, payload = split_blob(checkpoint_bytes(make_model()))
    header["scaler"][key] = value
    with pytest.raises(ValueError, match=f"^corrupt checkpoint header: scaler: {key}: expected a finite number"):
        model_from_checkpoint_bytes(repack(header, payload))


@pytest.mark.parametrize(
    "part, change, message",
    [
        ("config", lambda config: {**config, "colour": "red"}, "config: unknown keys ['colour']"),
        ("config", lambda config: [1, 2], "config: expected a mapping, got [1, 2]"),
        ("scaler", lambda scaler: {"min": scaler["min"]}, "scaler: missing the keys ['max']"),
    ],
    ids=["unknown-key", "config-list", "scaler-without-max"],
)
def test_header_error_names_the_key(part, change, message):
    # these used to report a Python exception's repr: TypeError(...) or KeyError('max')
    header, payload = split_blob(checkpoint_bytes(make_model()))
    header[part] = change(header[part])
    with pytest.raises(ValueError, match=f"^corrupt checkpoint header: {re.escape(message)}$"):
        model_from_checkpoint_bytes(repack(header, payload))


@pytest.mark.parametrize("part, dropped", [("config", ["horizon", "window"]), ("scaler", ["max", "min"])])
def test_header_without_every_field_is_rejected(part, dropped):
    # re-sealed: window and horizon have defaults and leave the payload length alone, so a header
    # without them used to load as a 50-close, one-day model
    header, payload = split_blob(checkpoint_bytes(make_model()))
    for key in dropped:
        del header[part][key]
    message = f"corrupt checkpoint header: {part}: missing the keys {dropped}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        model_from_checkpoint_bytes(repack(header, payload))


def test_trailing_bytes_rejected():
    header, payload = split_blob(checkpoint_bytes(make_model()))
    need = len(payload)
    with pytest.raises(ValueError, match=f"payload is {need + 8} bytes, its config needs {need}"):
        model_from_checkpoint_bytes(repack(header, payload + b"\x00" * 8))


def test_float64_checkpoint_loads_narrowed_to_float32():
    # a float64 model holding values that float32 cannot hold exactly is written narrowed
    wide = float64_copy(make_model(seed=5))
    for arr in wide.params.values():
        arr += 1e-10
    loaded = model_from_checkpoint_bytes(checkpoint_bytes(wide))
    for name, arr in wide.params.items():
        assert loaded.params[name].dtype == np.float32
        np.testing.assert_array_equal(loaded.params[name], arr.astype(np.float32))


def test_every_prefix_raises_value_error():
    blob = checkpoint_bytes(make_model())
    for end in range(len(blob)):
        with pytest.raises(ValueError):
            model_from_checkpoint_bytes(blob[:end])


def test_flipped_byte_loads_as_float32_or_raises_value_error():
    # The sha256 trailer covers every byte: each bit alone and all eight at
    # once, at every position of the checkpoint, must raise ValueError.
    blob = checkpoint_bytes(make_model())
    for pos in range(len(blob)):
        for mask in (1, 2, 4, 8, 16, 32, 64, 128, 255):
            flipped = bytearray(blob)
            flipped[pos] ^= mask
            with pytest.raises(ValueError):
                model_from_checkpoint_bytes(bytes(flipped))
