import json
import struct
import zlib

import numpy as np
import pytest

from edgefit import container, dataset, model, quantize, synth
from edgefit.errors import CorruptFile, VersionMismatch
from edgefit.model import ModelConfig, build, fold_batchnorm


def save_windows(path):
    dataset.save_windows(path, synth.make_random_windows(6, seed=2))


def save_model(path):
    model.save(build(ModelConfig(width=4), seed=0), path)


def save_qmodel(path):
    folded = fold_batchnorm(build(ModelConfig(width=4), seed=0))
    stats = quantize.calibrate(folded, synth.make_random_windows(16, seed=1))
    quantize.save(quantize.quantize_model(folded, stats), path)


# kind -> (save, load, magic, the tensor the missing/short cases cut)
KINDS = {
    "windows": (save_windows, dataset.load_windows, dataset.WINDOW_MAGIC,
                "label"),
    "model": (save_model, model.load, model.MODEL_MAGIC, "stem.gamma"),
    "qmodel": (save_qmodel, quantize.load, quantize.QUANT_MAGIC,
               "stem.w_scale"),
}


def rewrite(path, magic, edit):
    """Re-save path's container after edit(meta, tensors): the checksum
    stays valid, so only the loader's own checks can reject the file."""
    contents = container.read(path, magic)
    edit(contents.meta, contents.tensors)
    container.write(path, magic, contents.meta, contents.tensors)


def payload_middle(blob):
    (header_len,) = struct.unpack_from("<I", blob, 4)
    return (8 + header_len + len(blob) - 4) // 2


def truncated(path, magic, name):
    path.write_bytes(path.read_bytes()[:-5])


def flipped_payload_byte(path, magic, name):
    blob = bytearray(path.read_bytes())
    blob[payload_middle(blob)] ^= 0x10
    path.write_bytes(bytes(blob))


def trailing_byte(path, magic, name):
    path.write_bytes(path.read_bytes() + b"\x00")


def version_1_magic(path, magic, name):
    path.write_bytes(magic[:3] + b"1" + path.read_bytes()[4:])


def missing_tensor(path, magic, name):
    rewrite(path, magic, lambda meta, tensors: tensors.pop(name))


def short_tensor(path, magic, name):
    rewrite(path, magic,
            lambda meta, tensors: tensors.update({name: tensors[name][:-1]}))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("corrupt, error", [
    (truncated, CorruptFile),
    (flipped_payload_byte, CorruptFile),
    (trailing_byte, CorruptFile),
    (version_1_magic, VersionMismatch),
    (missing_tensor, CorruptFile),
    (short_tensor, CorruptFile),
])
def test_corrupt_file_rejected(tmp_path, kind, corrupt, error):
    save, load, magic, name = KINDS[kind]
    path = tmp_path / "f.bin"
    save(path)
    load(path)
    corrupt(path, magic, name)
    with pytest.raises(error):
        load(path)


@pytest.mark.parametrize("kind", KINDS)
def test_unexpected_tensor_rejected(tmp_path, kind):
    save, load, magic, _ = KINDS[kind]
    path = tmp_path / "f.bin"
    save(path)
    rewrite(path, magic, lambda meta, tensors: tensors.update(
        {"extra": np.zeros(3, "<f4")}))
    with pytest.raises(CorruptFile, match="unexpected tensors"):
        load(path)


def forge(path, header, payload=b"", magic=b"TEST"):
    """A container with any header bytes and payload, checksummed."""
    body = magic + struct.pack("<I", len(header)) + header + payload
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def header(*records, meta=None):
    return json.dumps({"meta": {} if meta is None else meta,
                       "tensors": list(records)}).encode()


def test_round_trip_every_dtype(tmp_path):
    tensors = {"f": np.arange(6, dtype=np.float32).reshape(2, 3),
               "i": np.array([-128, 127], np.int8),
               "u": np.array([0, 255], np.uint8),
               "n": np.array(-7, np.int32),
               "e": np.zeros((0, 4), np.float32)}
    path = tmp_path / "t"
    container.write(path, b"TEST", {"k": [1, 2.5]}, tensors)
    contents = container.read(path, b"TEST")
    assert contents.meta == {"k": [1, 2.5]}
    assert list(contents.tensors) == list(tensors)
    for name, arr in tensors.items():
        got = contents.take(name, arr.dtype.str, arr.shape)
        np.testing.assert_array_equal(got, arr)
    contents.finish()


@pytest.mark.parametrize("head, payload", [
    (b"{", b""),                                     # not JSON
    (b"[]", b""),                                    # not an object
    (header(meta=[1]), b""),                         # meta not an object
    (header(["x", "<f8", [1]]), bytes(8)),           # dtype
    (header(["x", "<f4", [-1]]), b""),               # shape
    (header(["x", "<f4", [1.5]]), b""),              # shape
    (header(["x", "<f4", [1]], ["x", "<f4", [1]]), bytes(8)),   # duplicate
    (header(["x", "<f4"]), b""),                     # short record
    (header(["x", "<f4", [100]]), bytes(4)),         # truncated
    (header(["x", "<f4", [1]]), bytes(5)),           # trailing bytes
    (b"[" * 100000 + b"]" * 100000, b""),            # nested too deep
])
def test_forged_header_rejected(tmp_path, head, payload):
    path = tmp_path / "t"
    forge(path, head, payload)
    with pytest.raises(CorruptFile):
        container.read(path, b"TEST")


def test_header_length_past_the_end(tmp_path):
    path = tmp_path / "t"
    body = b"TEST" + struct.pack("<I", 1000) + b"{}"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CorruptFile, match="header"):
        container.read(path, b"TEST")


def test_tiny_and_missing_files(tmp_path):
    path = tmp_path / "t"
    path.write_bytes(b"TEST")
    with pytest.raises(CorruptFile):
        container.read(path, b"TEST")
    with pytest.raises(CorruptFile):
        container.read(tmp_path / "absent", b"TEST")


@pytest.mark.parametrize("edit", [
    lambda cfg: cfg.update(width=10 ** 6),     # more weights than the file
    lambda cfg: cfg.update(width=4.0),
    lambda cfg: cfg.update(width="4"),
    lambda cfg: cfg.update(kernel=2),
    lambda cfg: cfg.update(bn_eps=float("nan")),
    lambda cfg: cfg.update(depth=3),
    lambda cfg: cfg.pop("width"),
])
@pytest.mark.parametrize("kind", ["model", "qmodel"])
def test_bad_model_config_rejected(tmp_path, kind, edit):
    save, load, magic, _ = KINDS[kind]
    path = tmp_path / "f.bin"
    save(path)
    rewrite(path, magic, lambda meta, tensors: edit(meta["config"]))
    with pytest.raises(CorruptFile, match="config"):
        load(path)


@pytest.mark.parametrize("value", [None, 1, "yes"])
def test_bn_folded_must_be_bool(tmp_path, value):
    path = tmp_path / "m.efm"
    save_model(path)
    rewrite(path, model.MODEL_MAGIC,
            lambda meta, tensors: meta.update(bn_folded=value))
    with pytest.raises(CorruptFile, match="bn_folded"):
        model.load(path)

