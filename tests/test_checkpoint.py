"""Checkpoint container: round trips, byte determinism, corruption detection."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, PCG64, SeedSequence

from sectorport.lstm import (
    CHECKPOINT_MAGIC,
    LstmConfig,
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
    """(header dict, payload bytes, header length) of a checkpoint."""
    n = len(CHECKPOINT_MAGIC)
    (header_len,) = struct.unpack("<I", blob[n : n + 4])
    header = json.loads(blob[n + 4 : n + 4 + header_len])
    return header, blob[n + 4 + header_len :], header_len


def repack(header, payload):
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return CHECKPOINT_MAGIC + struct.pack("<I", len(encoded)) + encoded + payload


def test_round_trip_preserves_everything(tmp_path):
    model = make_model()
    path = tmp_path / "m.ckpt"
    path.write_bytes(checkpoint_bytes(model))
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.scaler == model.scaler
    for name, arr in model.named_params().items():
        np.testing.assert_array_equal(loaded.named_params()[name], arr)


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
    header, payload, _ = split_blob(checkpoint_bytes(make_model()))
    assert header["version"] == 1
    assert header["scaler"] == {"min": 50.0, "max": 150.0}
    names = [t["name"] for t in header["tensors"]]
    assert names[:3] == ["lstm0.wx", "lstm0.wh", "lstm0.b"]
    assert names[-2:] == ["out.w", "out.b"]
    total = sum(int(np.prod(t["shape"])) for t in header["tensors"])
    assert len(payload) == total * 8


def test_bad_magic_rejected():
    blob = b"XXXXXXXX" + checkpoint_bytes(make_model())[8:]
    with pytest.raises(ValueError, match="magic"):
        model_from_checkpoint_bytes(blob)


def test_unsupported_version_rejected():
    header, payload, _ = split_blob(checkpoint_bytes(make_model()))
    header["version"] = 99
    with pytest.raises(ValueError, match="version"):
        model_from_checkpoint_bytes(repack(header, payload))


def test_tampered_shape_rejected():
    header, payload, _ = split_blob(checkpoint_bytes(make_model()))
    header["tensors"][0]["shape"] = [2, 16]
    with pytest.raises(ValueError, match="do not match"):
        model_from_checkpoint_bytes(repack(header, payload))


def test_truncated_payload_rejected():
    blob = checkpoint_bytes(make_model())
    with pytest.raises(ValueError, match="truncated"):
        model_from_checkpoint_bytes(blob[:-16])


def test_nonfinite_parameters_rejected():
    header, payload, _ = split_blob(checkpoint_bytes(make_model()))
    bad = bytearray(payload)
    bad[:8] = struct.pack("<d", float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        model_from_checkpoint_bytes(repack(header, bytes(bad)))


def test_trailing_bytes_rejected_naming_last_tensor():
    blob = checkpoint_bytes(make_model())
    with pytest.raises(ValueError, match="trailing.*out.b"):
        model_from_checkpoint_bytes(blob + b"\x00" * 8)


def test_aliased_offsets_rejected_naming_tensor():
    # every tensor read from the start of the payload
    header, payload, _ = split_blob(checkpoint_bytes(make_model()))
    for t in header["tensors"]:
        t["offset"] = 0
    with pytest.raises(ValueError, match="lstm0.wh"):
        model_from_checkpoint_bytes(repack(header, payload))


def test_overlapping_offset_rejected_naming_tensor():
    header, payload, _ = split_blob(checkpoint_bytes(make_model()))
    header["tensors"][2]["offset"] -= 8
    with pytest.raises(ValueError, match="lstm0.b"):
        model_from_checkpoint_bytes(repack(header, payload))


def test_gap_between_tensors_rejected_naming_tensor():
    # a hole before the last tensor, padded so the payload length still adds up
    header, payload, _ = split_blob(checkpoint_bytes(make_model()))
    last = header["tensors"][-1]
    last["offset"] += 8
    padded = payload[: last["offset"] - 8] + b"\x00" * 8 + payload[last["offset"] - 8 :]
    with pytest.raises(ValueError, match="out.b"):
        model_from_checkpoint_bytes(repack(header, padded))


def test_duplicate_tensor_entry_rejected():
    header, payload, _ = split_blob(checkpoint_bytes(make_model()))
    extra = dict(header["tensors"][-1], offset=len(payload))
    header["tensors"].append(extra)
    with pytest.raises(ValueError, match="do not match"):
        model_from_checkpoint_bytes(repack(header, payload + payload[-8:]))


def test_float64_checkpoint_loads_narrowed_to_float32():
    # a checkpoint of float64 values that float32 cannot hold exactly
    wide = float64_copy(make_model(seed=5))
    for arr in wide.named_params().values():
        arr += 1e-10
    loaded = model_from_checkpoint_bytes(checkpoint_bytes(wide))
    for name, arr in wide.named_params().items():
        assert loaded.named_params()[name].dtype == np.float32
        np.testing.assert_array_equal(loaded.named_params()[name], arr.astype(np.float32))


def test_value_beyond_float32_range_rejected():
    header, payload, _ = split_blob(checkpoint_bytes(make_model()))
    bad = bytearray(payload)
    bad[8:16] = struct.pack("<d", 1e300)
    with pytest.raises(ValueError, match="non-finite.*lstm0.wx"):
        model_from_checkpoint_bytes(repack(header, bytes(bad)))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_flipped_byte_loads_as_float32_or_raises_value_error(data):
    # The v1 container has no checksum, so a flip that lands on the sign,
    # exponent or upper mantissa of a value, or on a digit of a config or
    # scaler number, can load a different well-formed model. What holds for
    # every flip: ValueError and nothing else, or a float32 model that differs
    # from the original at most in the element holding the flipped byte, and
    # not at all when the byte lies below float32's mantissa.
    model = make_model()
    blob = checkpoint_bytes(model)
    payload_start = len(CHECKPOINT_MAGIC) + 4 + split_blob(blob)[2]
    pos = data.draw(st.integers(0, len(blob) - 1), label="byte")
    flipped = bytearray(blob)
    flipped[pos] ^= data.draw(st.integers(1, 255), label="xor mask")
    try:
        loaded = model_from_checkpoint_bytes(bytes(flipped))
    except ValueError:
        return
    assert {a.dtype for a in loaded.named_params().values()} == {np.dtype(np.float32)}
    before = np.concatenate([a.ravel() for a in model.named_params().values()])
    after = np.concatenate([a.ravel() for a in loaded.named_params().values()])
    changed = set(np.flatnonzero(after != before).tolist())
    if pos < payload_start:
        assert not changed
    else:
        element, byte = divmod(pos - payload_start, 8)
        assert (loaded.config, loaded.scaler) == (model.config, model.scaler)
        assert changed <= ({element} if byte >= 3 else set())
