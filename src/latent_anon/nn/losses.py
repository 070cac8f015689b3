"""Loss functions and the softmax used throughout the model zoo."""

import math

import numpy as np

LOG_FLOOR = 1e-12


def softmax(logits):
    """Numerically stable softmax over the last axis.

    Subtracts the per-row maximum before exponentiation, so constant shifts
    of the logits leave the output unchanged and no overflow can occur.
    """
    return softmax_inplace(np.array(logits, dtype=float, ndmin=1))


def softmax_inplace(z, row=None):
    """softmax(z) written into the float array z, which is returned. row, a
    z.shape[:-1] + (1,) buffer for the per-row maximum and sum, spares the
    training pass an allocation. An empty or non-finite z raises ValueError."""
    if z.size == 0:
        raise ValueError("softmax of an empty input")
    # the sum is finite only if every logit is
    if not math.isfinite(np.add.reduce(z, axis=None)) and not np.isfinite(z).all():
        raise ValueError("softmax requires finite logits")
    row = np.maximum.reduce(z, axis=-1, keepdims=True, out=row)
    z -= row
    np.exp(z, out=z)
    np.add.reduce(z, axis=-1, keepdims=True, out=row)
    z /= row
    return z


def as_labels(labels):
    """Class labels as ints. A value that is not a whole number raises
    ValueError instead of being truncated."""
    labels = np.asarray(labels)
    whole = labels.dtype.kind in "biu" or np.all(np.isfinite(labels) & (labels == np.round(labels)))
    if not whole:
        raise ValueError(f"labels must be whole numbers, got {labels}")
    return labels.astype(int, copy=False)


def labels_in_range(labels, n):
    """Whether every label of a 1-D as_labels array lies in [0, n), in one
    reduction: viewed as unsigned, a negative label exceeds any n."""
    return not labels.size or int(np.maximum.reduce(labels.view(f"u{labels.itemsize}"))) < n


def cross_entropy_from_labels(probs, labels):
    """Per-row -log p[label] for a (B, M) probability matrix. Returns shape (B,)."""
    probs = np.asarray(probs, dtype=float)
    labels = as_labels(labels)
    if probs.ndim != 2 or labels.shape != (probs.shape[0],):
        raise ValueError("expected (B, M) probs and (B,) labels")
    if not labels_in_range(labels, probs.shape[1]):
        raise ValueError(f"label out of range [0, {probs.shape[1]})")
    picked = probs[np.arange(labels.size), labels]
    return -np.log(np.maximum(picked, LOG_FLOOR))


def squared_error(x, x_hat):
    """Half sum of squared differences over the last axis.

    1-D inputs give a float, 2-D inputs give one value per row.
    """
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    out = 0.5 * np.sum((x - x_hat) ** 2, axis=-1)
    return float(out) if x.ndim == 1 else out
