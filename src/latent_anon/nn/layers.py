"""Dense layers and MLP stacks with hand-written forward/backward passes.

Everything is double precision. Layers hold no per-call state: forward returns
a cache that backward consumes, so inference on frozen parameters is safe from
multiple threads.
"""

import numpy as np

from .losses import softmax

ACTIVATIONS = ("identity", "relu", "tanh", "softmax")


def _activate(name, z):
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    if name == "softmax":
        return softmax(z, axis=-1)
    raise ValueError(f"unknown activation {name!r}")


def _activation_backward(name, z, y, d_y):
    """Gradient w.r.t. the pre-activation z, given the upstream gradient d_y."""
    if name == "identity":
        return d_y
    if name == "relu":
        # subgradient 0 at the kink z == 0
        return d_y * (z > 0)
    if name == "tanh":
        return d_y * (1.0 - y * y)
    if name == "softmax":
        return y * (d_y - np.sum(d_y * y, axis=-1, keepdims=True))
    raise ValueError(f"unknown activation {name!r}")


def _as_batch(d, z, single):
    """Upstream gradient as a (B, n_out) batch, checked against the output z."""
    d2 = np.asarray(d, dtype=float)
    if single:
        d2 = d2[None, :]
    if d2.shape != z.shape:
        raise ValueError(f"gradient shape {np.shape(d)} does not match output {z.shape}")
    return d2


class Dense:
    """Fully connected layer: y = activation(W @ x + b).

    W has shape (n_out, n_in) and is initialized uniformly in
    [-sqrt(6/(n_in+n_out)), +sqrt(6/(n_in+n_out))]; biases start at zero.
    Accepts a single vector (n_in,) or a batch (B, n_in).
    """

    def __init__(self, n_in, n_out, activation="identity", rng=None):
        if n_in < 1 or n_out < 1:
            raise ValueError("layer dimensions must be positive")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if rng is None:
            rng = np.random.default_rng()
        limit = np.sqrt(6.0 / (n_in + n_out))
        self.W = rng.uniform(-limit, limit, size=(n_out, n_in))
        self.b = np.zeros(n_out)
        self.activation = activation
        self.n_in = n_in
        self.n_out = n_out

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x2 = x[None, :] if single else x
        if x2.ndim != 2 or x2.shape[1] != self.n_in:
            raise ValueError(f"expected input with {self.n_in} features, got shape {x.shape}")
        z = x2 @ self.W.T + self.b
        y = _activate(self.activation, z)
        cache = (x2, z, y, single)
        return (y[0] if single else y), cache

    def backward(self, d_out, cache):
        """Returns (d_x, d_W, d_b) for the upstream gradient d_out."""
        _, z, y, single = cache
        d2 = _as_batch(d_out, z, single)
        dz = _activation_backward(self.activation, z, y, d2)
        return self.backward_preactivation(dz[0] if single else dz, cache)

    def backward_preactivation(self, d_z, cache):
        """Returns (d_x, d_W, d_b) for a gradient w.r.t. the pre-activation z.

        Used when the activation derivative is fused into the loss gradient
        (softmax + cross entropy).
        """
        x2, z, _, single = cache
        dz = _as_batch(d_z, z, single)
        d_x = dz @ self.W
        return (d_x[0] if single else d_x), dz.T @ x2, dz.sum(axis=0)

    def parameters(self):
        return [self.W, self.b]


class MLP:
    """A chain of Dense layers.

    sizes = [n_0, n_1, ..., n_L]; activations has one entry per layer.
    """

    def __init__(self, sizes, activations, rng=None):
        if len(sizes) < 2:
            raise ValueError("an MLP needs at least one layer")
        if len(activations) != len(sizes) - 1:
            raise ValueError("need one activation per layer")
        self.layers = [
            Dense(sizes[k], sizes[k + 1], activations[k], rng) for k in range(len(sizes) - 1)
        ]
        self.sizes = tuple(sizes)
        self.activations = tuple(activations)

    def forward(self, x):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def backward(self, d_out, caches):
        """Returns (d_x, grads) with grads aligned with parameters()."""
        grads = []
        d = d_out
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            d, d_w, d_b = layer.backward(d, cache)
            grads[:0] = (d_w, d_b)
        return d, grads

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]
