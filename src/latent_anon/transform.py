"""Latent-space transformations: class-mean tables, the transfer step and the
Modify function that picks the target private class.

A mean table holds, for every (public class u, private class i) cell, the
average latent vector of the training embeddings in that cell. It is dense:
`means` has shape (U, M, J) and `counts` shape (U, M), and a count of 0 marks
a cell with no training embeddings. The ZBAR1 file stores the same layout as
one record per cell, in the checked frame of `container`. Moving a latent z
from private class i to i' within public class u is

    z_hat = z - mean(u, i) + mean(u, i')

which is exact arithmetic: applying the reverse transfer restores z bit for
bit up to float addition rounding.

Modify is either deterministic (the cyclic shift i -> i+1 mod M, a
fixed-point-free bijection over class indices) or probabilistic (the same
shift applied with probability 1/2, decided by one draw from a
cryptographically secure source per embedding).
"""

import secrets
import struct
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import container

TABLE_MAGIC = b"ZBAR1"
TABLE_VERSION = 1


class TableError(ValueError):
    """Missing table cell or malformed table file."""


class MeanLatentTable:
    """Per-(public, private) mean latent vectors with population counts.

    cells maps (u, i) to (mean, count); cells left out are absent.
    """

    def __init__(self, n_public, n_private, latent_dim, cells):
        if n_public < 1 or n_private < 1 or latent_dim < 1:
            raise ValueError("table dimensions must be positive")
        self.n_public = n_public
        self.n_private = n_private
        self.latent_dim = latent_dim
        self.means = np.zeros((n_public, n_private, latent_dim))
        self.counts = np.zeros((n_public, n_private), dtype=np.uint64)
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
            self.means[u, i] = mean
            self.counts[u, i] = count

    def has(self, u, i):
        return 0 <= u < self.n_public and 0 <= i < self.n_private and bool(self.counts[u, i])

    def mean(self, u, i):
        if not self.has(u, i):
            raise TableError(f"no mean latent recorded for cell (u={u}, i={i})")
        return self.means[u, i]

    def cells(self):
        return {
            (int(u), int(i)): (self.means[u, i], int(self.counts[u, i]))
            for u, i in np.argwhere(self.counts > 0)
        }

    def __eq__(self, other):
        if not isinstance(other, MeanLatentTable):
            return NotImplemented
        return (
            (self.n_public, self.n_private, self.latent_dim)
            == (other.n_public, other.n_private, other.latent_dim)
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.means, other.means)
        )


def compute_mean_table(latents, n_public, n_private):
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
    cells = {key: (np.stack(v).sum(axis=0) / len(v), len(v)) for key, v in groups.items()}
    return MeanLatentTable(int(n_public), int(n_private), dim[0], cells)


def transfer_vector(table, u, i, i_prime):
    """mean(u, i') - mean(u, i): the step that moves a latent between private
    classes while staying inside public class u."""
    return table.mean(u, i_prime) - table.mean(u, i)


def apply_transfer(z, table, u, i, i_prime):
    """z - mean(u, i) + mean(u, i'). The identity when i' == i."""
    z = np.asarray(z, dtype=float)
    if z.shape != (table.latent_dim,):
        raise ValueError(f"latent has shape {z.shape}, table expects ({table.latent_dim},)")
    if i_prime == i:
        return z.copy()
    z_hat = z - table.mean(u, i)
    z_hat += table.mean(u, i_prime)
    return z_hat


# --- the Modify function -----------------------------------------------------


def cyclic_mapping(n_classes):
    """The Modify bijection, fixed-point free: i -> (i + 1) mod M."""
    if n_classes < 2:
        raise ValueError("a fixed-point-free bijection needs at least two classes")
    return tuple((i + 1) % n_classes for i in range(n_classes))


class SecureCoin:
    """Unbiased randomness from the operating system's CSPRNG.

    Failures of the underlying entropy source raise; there is no fallback to
    a seeded generator.
    """

    def flip(self):
        return secrets.randbits(1) == 1


# stateless: every flip draws from the OS CSPRNG, so one instance serves all calls
_SECURE_COIN = SecureCoin()


class SequenceCoin:
    """Test double fed with a fixed sequence of outcomes."""

    def __init__(self, flips=()):
        self._flips = deque(flips)

    def flip(self):
        if not self._flips:
            raise RuntimeError("SequenceCoin ran out of injected flips")
        return bool(self._flips.popleft())


class ConstantCoin:
    """Always or never apply; used to pin probabilistic behavior in tests."""

    def __init__(self, value):
        self.value = bool(value)

    def flip(self):
        return self.value


@dataclass
class ModifyPolicy:
    """How the pipeline picks the target private class.

    mode "deterministic" always applies the mapping, "probabilistic" applies
    it with probability 1/2 via the coin, and "identity" keeps the predicted
    class (reconstruction-only runs). The mapping is the cyclic shift outside
    identity mode and None in it.
    """

    mode: str = "deterministic"
    n_classes: int = 2
    mapping: tuple | None = field(init=False)

    def __post_init__(self):
        if self.mode not in ("deterministic", "probabilistic", "identity"):
            raise ValueError(f"unknown modify mode {self.mode!r}")
        self.mapping = None if self.mode == "identity" else cyclic_mapping(self.n_classes)

    def modify(self, i, coin=None):
        """Returns (target class, applied flag). Probabilistic mode flips
        `coin`, or the secure source when it is None."""
        if not 0 <= i < self.n_classes:
            raise ValueError(f"class {i} outside [0, {self.n_classes})")
        if self.mode == "identity":
            return i, False
        if self.mode == "deterministic":
            return self.mapping[i], True
        if not (_SECURE_COIN if coin is None else coin).flip():
            return i, False
        return self.mapping[i], True


# --- table file format --------------------------------------------------------


def _record_dtype(latent_dim):
    """One packed ZBAR1 cell record: present flag, count, mean."""
    return np.dtype([("present", "u1"), ("count", "<u8"), ("mean", "<f8", (latent_dim,))])


_HEADER = struct.Struct("<HHI")  # n_public, n_private, latent_dim


def save_table(table, path):
    """Write the distribution file in the shared frame (`container`): dims,
    then one fixed-size record per (u, i) cell in row-major order, absent
    cells as all-zero records."""
    records = np.zeros((table.n_public, table.n_private), dtype=_record_dtype(table.latent_dim))
    records["present"] = table.counts > 0
    records["count"] = table.counts
    records["mean"] = table.means
    header = _HEADER.pack(table.n_public, table.n_private, table.latent_dim)
    container.write_framed(path, TABLE_MAGIC, TABLE_VERSION, header, records)


def load_table(path):
    raw = Path(path).read_bytes()
    dims, body = container.unframe(raw, TABLE_MAGIC, TABLE_VERSION, _HEADER, TableError)
    n_public, n_private, latent_dim = dims
    records = container.records(body, _record_dtype(latent_dim), n_public * n_private, TableError)
    records = records.reshape(n_public, n_private)
    cells = {
        (int(u), int(i)): (records["mean"][u, i], records["count"][u, i])
        for u, i in np.argwhere(records["present"])
    }
    return MeanLatentTable(n_public, n_private, latent_dim, cells)
