"""The checked frame shared by the artefact files (EMBA archives, ZBAR1 tables,
model files): magic, a version byte, a fixed little-endian header struct, the
body, then a CRC32 (u32) of every byte before it. Each format keeps its own
magic, header and error class."""

import struct
import zlib

import numpy as np

_CRC = struct.Struct("<I")


def write_framed(path, magic, version, header, *body):
    """Write the frame around the packed header and the bytes-like body parts."""
    head = magic + bytes([version]) + header
    crc = zlib.crc32(head)
    for part in body:
        crc = zlib.crc32(part, crc)
    with open(path, "wb") as f:
        f.writelines((head, *body, _CRC.pack(crc)))


def unframe(raw, magic, version, header_struct, error):
    """(header fields, body memoryview) of raw. Raises error on bad magic, a
    short file, an unknown version or a CRC mismatch."""
    name, start = magic.decode(), len(magic) + 1 + header_struct.size
    if raw[: len(magic)] != magic:
        raise error(f"bad magic {raw[:len(magic)]!r}, expected {magic!r}")
    if len(raw) < start + _CRC.size:
        raise error(f"truncated {name} file")
    if raw[len(magic)] != version:
        raise error(f"unsupported {name} version {raw[len(magic)]}")
    end = len(raw) - _CRC.size
    if zlib.crc32(memoryview(raw)[:end]) != _CRC.unpack_from(raw, end)[0]:
        raise error(f"{name} checksum mismatch")
    return header_struct.unpack_from(raw, len(magic) + 1), memoryview(raw)[start:end]


def records(body, dtype, count, error):
    """The body as exactly count fixed-size records of dtype (read-only)."""
    if len(body) != count * dtype.itemsize:
        raise error(f"body has {len(body)} bytes, expected {count} records of {dtype.itemsize}")
    return np.frombuffer(body, dtype=dtype, count=count)
