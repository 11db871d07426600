"""The one binary container behind every file edgefit writes: windows
(EFW2), float models (EFM3) and int8 models (EFQ3).

Layout, integers little-endian:

    magic        4 bytes naming the kind and its version, e.g. b"EFM3"
    header_len   u32
    header       header_len bytes of JSON with sorted keys:
                 {"meta": {...}, "tensors": [[name, dtype, shape], ...]}
    payload      each tensor's bytes in header order, C order, in its
                 dtype: "<f4", "|i1", "|u1" or "<i4"
    crc32        u32 CRC-32 of every byte before it

The kind's module owns the metadata and the tensor names, and its loader
takes every tensor by name, dtype and shape, so a file that holds a
tensor too few, too many or of the wrong shape is CorruptFile. Equal
inputs give equal bytes.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptFile, VersionMismatch

DTYPES = ("<f4", "|i1", "|u1", "<i4")
_U32 = struct.Struct("<I")


def write(path: str | Path, magic: bytes, meta: dict,
          tensors: dict[str, np.ndarray]) -> None:
    """Write meta (JSON-serializable) and tensors, in the dict's order;
    every tensor's dtype must be one of DTYPES."""
    arrays = [np.asarray(a, a.dtype.newbyteorder("<"), order="C")
              for a in tensors.values()]
    records = [[name, a.dtype.str, list(a.shape)]
               for name, a in zip(tensors, arrays)]
    header = json.dumps({"meta": meta, "tensors": records}, sort_keys=True,
                        separators=(",", ":")).encode()
    crc = 0
    with open(path, "wb") as f:
        for chunk in (magic, _U32.pack(len(header)), header, *arrays):
            f.write(chunk)
            crc = zlib.crc32(chunk, crc)
        f.write(_U32.pack(crc))


@dataclass
class Contents:
    """A container's metadata and the tensors no loader has taken yet."""

    path: Path
    meta: dict
    tensors: dict[str, np.ndarray]

    def take(self, name: str, dtype: str, shape) -> np.ndarray:
        """The tensor called name, which must have this dtype and shape."""
        arr = self.tensors.pop(name, None)
        if arr is None:
            raise CorruptFile(f"{self.path}: no tensor {name}")
        if (arr.dtype.str, arr.shape) != (dtype, tuple(shape)):
            raise CorruptFile(f"{self.path}: tensor {name} is {arr.dtype.str} "
                              f"{arr.shape}, expected {dtype} {tuple(shape)}")
        return arr

    def finish(self) -> None:
        """Raise CorruptFile if the file holds a tensor no loader took."""
        if self.tensors:
            raise CorruptFile(
                f"{self.path}: unexpected tensors {sorted(self.tensors)}")


def read(path: str | Path, magic: bytes) -> Contents:
    """Check and parse a container of the kind magic names; each tensor is
    a fresh, writable array."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as e:     # missing, a directory or unreadable
        raise CorruptFile(f"{path}: cannot read ({e.strerror})") from None
    if len(blob) < 12:
        raise CorruptFile(f"{path}: truncated at {len(blob)} bytes")
    if blob[:4] != magic:
        raise VersionMismatch(f"{path}: magic {blob[:4]!r}, "
                              f"expected {magic!r}")
    end = len(blob) - 4
    if zlib.crc32(memoryview(blob)[:end]) != _U32.unpack_from(blob, end)[0]:
        raise CorruptFile(f"{path}: checksum mismatch")
    offset = 8 + _U32.unpack_from(blob, 4)[0]
    try:
        header = json.loads(blob[8:offset])
        meta, records = header["meta"], header["tensors"]
        tensors = {}
        for name, dtype, shape in records:
            if (not isinstance(name, str) or name in tensors
                    or dtype not in DTYPES or not isinstance(shape, list)
                    or not all(type(d) is int and d >= 0 for d in shape)):
                raise ValueError(f"bad tensor record {[name, dtype, shape]}")
            count = math.prod(shape)
            size = count * np.dtype(dtype).itemsize
            if offset + size > end:
                raise CorruptFile(f"{path}: truncated in tensor {name}")
            tensors[name] = np.frombuffer(blob, dtype, count,
                                          offset).reshape(shape).copy()
            offset += size
        if not isinstance(meta, dict):
            raise ValueError("metadata is not an object")
    except (ValueError, TypeError, KeyError, RecursionError) as e:
        raise CorruptFile(f"{path}: bad header ({e})") from None
    if offset != end:
        raise CorruptFile(f"{path}: {end - offset} trailing bytes")
    return Contents(path, meta, tensors)
