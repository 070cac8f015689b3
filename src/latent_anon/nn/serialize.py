"""Flat binary tensor container, magic "LANN1".

Layout, all integers 64-bit little-endian:

    b"LANN1"
    per tensor: name length, name (utf-8), rank, dims..., elements as
    float64 little-endian in C order

Tensors are written in insertion order and read back in the same order.
"""

import struct

import numpy as np

MAGIC = b"LANN1"
_U64 = struct.Struct("<Q")


class ContainerError(ValueError):
    """Malformed or truncated tensor container."""


def write_tensors(f, tensors):
    """Write the container to an open binary file object."""
    f.write(MAGIC)
    for name, value in tensors.items():
        arr = np.ascontiguousarray(value, dtype="<f8")
        encoded = name.encode("utf-8")
        f.write(struct.pack("<Q", len(encoded)))
        f.write(encoded)
        f.write(struct.pack("<Q", arr.ndim))
        for dim in arr.shape:
            f.write(struct.pack("<Q", dim))
        f.write(arr.tobytes(order="C"))


def read_tensors(f):
    """Read a container from an open binary file object. Every length in the
    file is checked against the bytes left before it is used, so a corrupt
    header raises ContainerError."""
    raw = memoryview(f.read())
    if raw[: len(MAGIC)] != MAGIC:
        raise ContainerError(f"bad magic {bytes(raw[:len(MAGIC)])!r}, expected {MAGIC!r}")
    pos = len(MAGIC)

    def take(n, what):
        nonlocal pos
        if n > len(raw) - pos:
            raise ContainerError(f"truncated container while reading {what}")
        pos += n
        return raw[pos - n : pos]

    tensors = {}
    while pos < len(raw):
        (name_len,) = _U64.unpack(take(8, "name length"))
        try:
            name = bytes(take(name_len, "tensor name")).decode("utf-8")
        except UnicodeDecodeError:
            raise ContainerError("tensor name is not valid utf-8") from None
        (rank,) = _U64.unpack(take(8, "rank"))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank, f"dims of {name!r}"))
        count = 1
        for dim in dims:
            count *= dim
        raw_elements = take(8 * count, f"elements of {name!r}")
        try:
            tensors[name] = np.frombuffer(raw_elements, dtype="<f8").reshape(dims).copy()
        except ValueError as exc:
            raise ContainerError(f"tensor {name!r} has unusable dims {dims}: {exc}") from None
    return tensors
