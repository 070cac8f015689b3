"""Latent-space transformations: class-mean tables, transfer vectors and the
Modify function that picks the target private class.

A mean table holds, for every (public class u, private class i) cell, the
average latent vector of the training embeddings in that cell. Moving a
latent z from private class i to i' within public class u is

    z_hat = z - mean(u, i) + mean(u, i')

which is exact arithmetic: applying the reverse transfer restores z bit for
bit up to float addition rounding.

Modify is either deterministic (a fixed-point-free bijection over class
indices, by default the cyclic shift i -> i+1 mod M) or probabilistic (the
same bijection applied with probability 1/2, decided by one draw from a
cryptographically secure source per embedding).
"""

import secrets
import struct
import zlib
from dataclasses import dataclass

import numpy as np

TABLE_MAGIC = b"ZBAR1"
TABLE_VERSION = 1


class TableError(ValueError):
    """Missing table cell or malformed table file."""


class MeanLatentTable:
    """Per-(public, private) mean latent vectors with population counts."""

    def __init__(self, n_public, n_private, latent_dim, cells):
        if n_public < 1 or n_private < 1 or latent_dim < 1:
            raise ValueError("table dimensions must be positive")
        self.n_public = n_public
        self.n_private = n_private
        self.latent_dim = latent_dim
        self._cells = {}
        for (u, i), (mean, count) in cells.items():
            mean = np.asarray(mean, dtype=float)
            if not (0 <= u < n_public and 0 <= i < n_private):
                raise ValueError(f"cell ({u}, {i}) outside the declared class counts")
            if mean.shape != (latent_dim,):
                raise ValueError(f"cell ({u}, {i}) has dim {mean.shape}, expected ({latent_dim},)")
            if count < 1:
                raise ValueError(f"cell ({u}, {i}) has count {count}")
            if not np.all(np.isfinite(mean)):
                raise ValueError(f"cell ({u}, {i}) has non-finite mean")
            self._cells[(u, i)] = (mean, int(count))

    def has(self, u, i):
        return (u, i) in self._cells

    def mean(self, u, i):
        try:
            return self._cells[(u, i)][0]
        except KeyError:
            raise TableError(f"no mean latent recorded for cell (u={u}, i={i})") from None

    def count(self, u, i):
        try:
            return self._cells[(u, i)][1]
        except KeyError:
            raise TableError(f"no mean latent recorded for cell (u={u}, i={i})") from None

    def cells(self):
        return dict(self._cells)

    def __eq__(self, other):
        if not isinstance(other, MeanLatentTable):
            return NotImplemented
        if (self.n_public, self.n_private, self.latent_dim) != (
            other.n_public,
            other.n_private,
            other.latent_dim,
        ):
            return False
        if set(self._cells) != set(other._cells):
            return False
        return all(
            self._cells[k][1] == other._cells[k][1]
            and np.array_equal(self._cells[k][0], other._cells[k][0])
            for k in self._cells
        )


def compute_mean_table(latents, n_public=None, n_private=None):
    """Build the table from (latent vector, public, private) triples.

    Sums use numpy's pairwise reduction over a stacked array, so the result
    is stable under permutations of the input up to tiny reassociation error.
    """
    latents = list(latents)
    if not latents:
        raise ValueError("no latents given")
    dim = np.asarray(latents[0][0]).shape
    if len(dim) != 1:
        raise ValueError("latents must be vectors")
    groups = {}
    for z, u, i in latents:
        z = np.asarray(z, dtype=float)
        if z.shape != dim:
            raise ValueError(f"inconsistent latent dims: {z.shape} vs {dim}")
        groups.setdefault((int(u), int(i)), []).append(z)
    u_max = max(u for u, _ in groups)
    i_max = max(i for _, i in groups)
    n_public = int(n_public) if n_public is not None else u_max + 1
    n_private = int(n_private) if n_private is not None else i_max + 1
    cells = {}
    for key, vectors in groups.items():
        stacked = np.stack(vectors)
        cells[key] = (stacked.sum(axis=0) / len(vectors), len(vectors))
    return MeanLatentTable(n_public, n_private, dim[0], cells)


@dataclass
class TransferVector:
    """mean(u, to) - mean(u, from): the step that moves a latent between
    private classes while staying inside public class u."""

    delta: np.ndarray
    public: int
    from_private: int
    to_private: int


def transfer_vector(table, u, i, i_prime):
    return TransferVector(
        delta=table.mean(u, i_prime) - table.mean(u, i),
        public=u,
        from_private=i,
        to_private=i_prime,
    )


def apply_transfer(z, table, u, i, i_prime):
    """z - mean(u, i) + mean(u, i'). The identity when i' == i."""
    z = np.asarray(z, dtype=float)
    if z.shape != (table.latent_dim,):
        raise ValueError(f"latent has shape {z.shape}, table expects ({table.latent_dim},)")
    if i_prime == i:
        return z.copy()
    return z - table.mean(u, i) + table.mean(u, i_prime)


# --- the Modify function -----------------------------------------------------


def cyclic_mapping(n_classes):
    """Default fixed-point-free bijection: i -> (i + 1) mod M."""
    if n_classes < 2:
        raise ValueError("a fixed-point-free bijection needs at least two classes")
    return tuple((i + 1) % n_classes for i in range(n_classes))


def validate_mapping(mapping, n_classes):
    mapping = tuple(int(v) for v in mapping)
    if len(mapping) != n_classes or sorted(mapping) != list(range(n_classes)):
        raise ValueError(f"mapping {mapping} is not a bijection on [0, {n_classes})")
    if n_classes >= 2 and any(m == i for i, m in enumerate(mapping)):
        raise ValueError(f"mapping {mapping} has a fixed point")
    return mapping


class SecureCoin:
    """Unbiased randomness from the operating system's CSPRNG.

    Failures of the underlying entropy source raise; there is no fallback to
    a seeded generator.
    """

    def flip(self):
        return secrets.randbits(1) == 1


class SequenceCoin:
    """Test double fed with a fixed sequence of outcomes."""

    def __init__(self, flips=()):
        self._flips = list(flips)

    def flip(self):
        if not self._flips:
            raise RuntimeError("SequenceCoin ran out of injected flips")
        return bool(self._flips.pop(0))


class ConstantCoin:
    """Always or never apply; used to pin probabilistic behavior in tests."""

    def __init__(self, value):
        self.value = bool(value)

    def flip(self):
        return self.value


def modify_deterministic(i, n_classes, mapping=None):
    """Always move to the mapped class; never returns i itself."""
    return ModifyPolicy("deterministic", n_classes, mapping).modify(i)[0]


def modify_probabilistic(i, n_classes, coin, mapping=None):
    """Apply the mapping with probability 1/2, decided by one coin draw.

    Returns (target class, applied flag).
    """
    return ModifyPolicy("probabilistic", n_classes, mapping).modify(i, coin)


@dataclass
class ModifyPolicy:
    """How the pipeline picks the target private class.

    mode "deterministic" always applies the mapping, "probabilistic" applies
    it with probability 1/2 via the coin, and "identity" keeps the predicted
    class (reconstruction-only runs).
    """

    mode: str = "deterministic"
    n_classes: int = 2
    mapping: tuple | None = None

    def __post_init__(self):
        if self.mode not in ("deterministic", "probabilistic", "identity"):
            raise ValueError(f"unknown modify mode {self.mode!r}")
        if self.mode != "identity":
            if self.mapping is None:
                self.mapping = cyclic_mapping(self.n_classes)
            else:
                self.mapping = validate_mapping(self.mapping, self.n_classes)

    def modify(self, i, coin=None):
        """Returns (target class, applied flag)."""
        if not 0 <= i < self.n_classes:
            raise ValueError(f"class {i} outside [0, {self.n_classes})")
        if self.mode == "identity":
            return i, False
        if self.mode == "deterministic":
            return self.mapping[i], True
        if coin is None:
            raise ValueError("probabilistic mode needs a randomness source")
        if not coin.flip():
            return i, False
        return self.mapping[i], True


# --- table file format --------------------------------------------------------


def save_table(table, path):
    """Write the distribution file: magic, version, dims, one fixed-size
    record per (u, i) cell, then a CRC32 of everything before it."""
    payload = bytearray()
    payload += TABLE_MAGIC
    payload += struct.pack("<B", TABLE_VERSION)
    payload += struct.pack("<HHI", table.n_public, table.n_private, table.latent_dim)
    zeros = np.zeros(table.latent_dim)
    for u in range(table.n_public):
        for i in range(table.n_private):
            if table.has(u, i):
                mean, count = table.mean(u, i), table.count(u, i)
                payload += struct.pack("<BQ", 1, count)
                payload += np.ascontiguousarray(mean, dtype="<f8").tobytes()
            else:
                payload += struct.pack("<BQ", 0, 0)
                payload += np.ascontiguousarray(zeros, dtype="<f8").tobytes()
    payload += struct.pack("<I", zlib.crc32(bytes(payload)))
    with open(path, "wb") as f:
        f.write(bytes(payload))


def load_table(path):
    with open(path, "rb") as f:
        raw = f.read()
    head_len = len(TABLE_MAGIC) + 1 + struct.calcsize("<HHI")
    if len(raw) < head_len + 4:
        raise TableError("truncated table file")
    if raw[: len(TABLE_MAGIC)] != TABLE_MAGIC:
        raise TableError(f"bad magic {raw[:len(TABLE_MAGIC)]!r}, expected {TABLE_MAGIC!r}")
    (version,) = struct.unpack_from("<B", raw, len(TABLE_MAGIC))
    if version != TABLE_VERSION:
        raise TableError(f"unsupported table version {version}")
    n_public, n_private, latent_dim = struct.unpack_from("<HHI", raw, len(TABLE_MAGIC) + 1)
    record = struct.calcsize("<BQ") + latent_dim * 8
    expected = head_len + n_public * n_private * record + 4
    if len(raw) != expected:
        raise TableError(f"table file has {len(raw)} bytes, expected {expected}")
    (stored_crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(raw[:-4]) != stored_crc:
        raise TableError("table checksum mismatch")
    cells = {}
    offset = head_len
    for u in range(n_public):
        for i in range(n_private):
            present, count = struct.unpack_from("<BQ", raw, offset)
            offset += struct.calcsize("<BQ")
            mean = np.frombuffer(raw, dtype="<f8", count=latent_dim, offset=offset).copy()
            offset += latent_dim * 8
            if present:
                cells[(u, i)] = (mean, count)
    return MeanLatentTable(n_public, n_private, latent_dim, cells)
