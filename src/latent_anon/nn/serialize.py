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


def _read_exact(f, n, what):
    data = f.read(n)
    if len(data) != n:
        raise ContainerError(f"truncated container while reading {what}")
    return data


def read_tensors(f):
    """Read a container from an open binary file object."""
    magic = f.read(len(MAGIC))
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}, expected {MAGIC!r}")
    tensors = {}
    while True:
        head = f.read(8)
        if head == b"":
            break
        if len(head) != 8:
            raise ContainerError("truncated container while reading name length")
        (name_len,) = struct.unpack("<Q", head)
        name = _read_exact(f, name_len, "tensor name").decode("utf-8")
        (rank,) = struct.unpack("<Q", _read_exact(f, 8, "rank"))
        dims = tuple(struct.unpack("<Q", _read_exact(f, 8, "dims"))[0] for _ in range(rank))
        count = 1
        for dim in dims:
            count *= dim
        raw = _read_exact(f, count * 8, f"elements of {name!r}")
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
    return tensors

