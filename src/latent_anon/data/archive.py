"""Embedding archive format, magic "EMBA1", in the shared checked frame
(`latent_anon.container`). Layout (little-endian):

    b"EMBA1", version byte 0x02
    header: window, stride, channels, public classes, private classes as
    uint32, then the embedding count as uint64
    per embedding: public label uint16, private label uint16, then
    window * channels float64 values
    CRC32 of every byte before it

Only version 2 loads; version 1 files, which lack the CRC, are rejected.
The arrays are stored raw, so a round trip is bit-exact.
"""

import struct
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .. import container
from .types import Embedding

MAGIC = b"EMBA1"
VERSION = 2
_HEADER = struct.Struct("<IIIIIQ")


class ArchiveError(ValueError):
    """Malformed or truncated embedding archive."""


@dataclass
class ArchiveMeta:
    window: int
    stride: int
    n_channels: int
    n_public: int
    n_private: int

    @property
    def dim(self):
        return self.window * self.n_channels


def _record_dtype(dim):
    return np.dtype([("public", "<u2"), ("private", "<u2"), ("x", "<f8", (dim,))])


def save_embeddings(path, embeddings, meta):
    dim = meta.dim
    records = np.empty(len(embeddings), dtype=_record_dtype(dim))
    for k, e in enumerate(embeddings):
        if e.true_public is None or e.true_private is None:
            raise ArchiveError(f"embedding {k} is missing labels")
        if not (0 <= e.true_public < meta.n_public and 0 <= e.true_private < meta.n_private):
            raise ArchiveError(f"embedding {k} has labels outside the declared class counts")
        if e.x.shape != (dim,):
            raise ArchiveError(f"embedding {k} has dim {e.x.shape}, expected ({dim},)")
        records[k] = (e.true_public, e.true_private, e.x)
    header = _HEADER.pack(*astuple(meta), len(embeddings))
    container.write_framed(path, MAGIC, VERSION, header, records)


def load_embeddings(path):
    """Returns (embeddings, meta). Subject and origin provenance is not stored."""
    return container.unframe(Path(path).read_bytes(), MAGIC, VERSION, _HEADER, ArchiveError, _parse)


def _parse(header, body):
    meta, count = ArchiveMeta(*header[:5]), header[5]
    records = container.records(body, _record_dtype(meta.dim), count, ArchiveError)
    bad = (records["public"] >= meta.n_public) | (records["private"] >= meta.n_private)
    if bad.any():
        raise ArchiveError(f"embedding {bad.argmax()} has labels outside the declared class counts")
    # a copy per row: the record fields are unaligned views into one buffer
    return [
        Embedding(x=x.copy(), true_public=u, true_private=i)
        for u, i, x in zip(records["public"].tolist(), records["private"].tolist(), records["x"])
    ], meta
