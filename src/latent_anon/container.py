"""The checked frame shared by the artefact files (EMBA archives, ZBAR1 tables,
model files): magic, a version byte, a fixed little-endian header struct, the
body, then a CRC32 (u32) of every byte before it. Each format keeps its own
magic, header and error class.

A frame above _OVERLAP_BYTES has its CRC computed on another core
(cores.submit) while this thread writes the file, or parses the body."""

import struct
import zlib
from concurrent.futures import wait

import numpy as np

from . import cores

_CRC = struct.Struct("<I")

# The frame size from which the CRC runs beside the I/O: a pool hand-off
# costs about 40 us, the CRC of 256 KiB about 70 us.
_OVERLAP_BYTES = 256 * 1024


def _checksum(parts):
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return crc


def write_framed(path, magic, version, header, *body):
    """Write the frame around the packed header and the bytes-like body parts."""
    parts = (magic + bytes([version]) + header, *body)
    size = sum(memoryview(part).nbytes for part in parts)
    pending = cores.submit(_checksum, parts) if size > _OVERLAP_BYTES else None
    try:
        with open(path, "wb") as f:
            f.writelines(parts)
            f.write(_CRC.pack(_checksum(parts) if pending is None else pending.result()))
    finally:
        if pending is not None:
            wait([pending])


def unframe(raw, magic, version, header_struct, error, parse):
    """parse(header fields, body memoryview) of raw, returned once raw's CRC
    has matched. Raises error on bad magic, a short file, an unknown version
    or a CRC mismatch, and a mismatch before any error parse raises."""
    name, start = magic.decode(), len(magic) + 1 + header_struct.size
    if raw[: len(magic)] != magic:
        raise error(f"bad magic {raw[:len(magic)]!r}, expected {magic!r}")
    if len(raw) < start + _CRC.size:
        raise error(f"truncated {name} file")
    if raw[len(magic)] != version:
        raise error(f"unsupported {name} version {raw[len(magic)]}")
    end = len(raw) - _CRC.size
    expected, framed = _CRC.unpack_from(raw, end)[0], memoryview(raw)[:end]
    pending = cores.submit(zlib.crc32, framed) if end > _OVERLAP_BYTES else None
    if pending is None and zlib.crc32(framed) != expected:
        raise error(f"{name} checksum mismatch")
    try:
        return parse(header_struct.unpack_from(raw, len(magic) + 1), framed[start:])
    finally:
        if pending is not None and pending.result() != expected:
            raise error(f"{name} checksum mismatch") from None


def records(body, dtype, count, error):
    """The body as exactly count fixed-size records of dtype (read-only)."""
    if len(body) != count * dtype.itemsize:
        raise error(f"body has {len(body)} bytes, expected {count} records of {dtype.itemsize}")
    return np.frombuffer(body, dtype=dtype, count=count)
