"""Dense layers and MLP stacks with hand-written forward/backward passes.

Everything is double precision. Layers take batches only, one row per item;
the models lift a single vector to a one-row batch once, at their boundary,
with as_batch. Layers hold no per-call state: forward returns a cache that
backward consumes, so inference on frozen parameters is safe from multiple
threads.

Training uses forward. Inference uses the cacheless pass: Dense.infer applies
the layer with no cache and no checks, and MLP.logits checks the (B, n_0)
batch once at its boundary, then returns the last layer's pre-activation
(MLP.infer applies the last activation to it). Both run the same arithmetic
as forward, so their outputs are bitwise equal to forward's.

Each model holds its parameters in one contiguous float64 vector
(flatten_parameters): every Dense.W and Dense.b is a view into it, in
parameters() order, so the trainer updates the whole model with one Adam
step. backward(..., input_grad=False) skips the gradient w.r.t. the layer
input, d_z @ W, which no trainer needs for a model's first layer.
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


def as_batch(x):
    """x as a float (B, n) batch, and whether it came as one (n,) vector."""
    x = np.asarray(x, dtype=float)
    return (x[None, :], True) if x.ndim == 1 else (x, False)


def check_batch(x, n_in):
    """x as a float (B, n_in) batch; any other shape raises ValueError."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != n_in:
        raise ValueError(f"expected a (B, {n_in}) batch, got shape {x.shape}")
    return x


def _check_grad(d, z):
    """The upstream gradient must match the layer output z, one row per item."""
    if np.shape(d) != z.shape:
        raise ValueError(f"gradient shape {np.shape(d)} does not match output {z.shape}")


class Dense:
    """Fully connected layer: y = activation(W @ x + b).

    W has shape (n_out, n_in) and is initialized uniformly in
    [-sqrt(6/(n_in+n_out)), +sqrt(6/(n_in+n_out))]; biases start at zero.
    forward takes a (B, n_in) batch.
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
        x = check_batch(x, self.n_in)
        z = x @ self.W.T + self.b
        y = _activate(self.activation, z)
        return y, (x, z, y)

    def infer(self, x):
        """activation(x @ W.T + b) for a float (B, n_in) batch the caller
        has checked; no cache."""
        return _activate(self.activation, x @ self.W.T + self.b)

    def backward(self, d_out, cache, input_grad=True):
        """Returns (d_x, d_W, d_b) for the upstream gradient d_out; d_x is
        None when input_grad is False."""
        _, z, y = cache
        _check_grad(d_out, z)
        d_z = _activation_backward(self.activation, z, y, d_out)
        return self.backward_preactivation(d_z, cache, input_grad)

    def backward_preactivation(self, d_z, cache, input_grad=True):
        """Returns (d_x, d_W, d_b) for a gradient w.r.t. the pre-activation z;
        d_x is None when input_grad is False.

        Used when the activation derivative is fused into the loss gradient
        (softmax + cross entropy).
        """
        x, z, _ = cache
        _check_grad(d_z, z)
        d_x = d_z @ self.W if input_grad else None
        return d_x, d_z.T @ x, d_z.sum(axis=0)

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

    def logits(self, x):
        """The last layer's pre-activation for a (B, sizes[0]) batch, checked
        once here."""
        x = check_batch(x, self.sizes[0])
        for layer in self.layers[:-1]:
            x = layer.infer(x)
        last = self.layers[-1]
        return x @ last.W.T + last.b

    def infer(self, x):
        """forward's output without the caches."""
        return _activate(self.activations[-1], self.logits(x))

    def backward(self, d_out, caches, input_grad=True):
        """Returns (d_x, grads) with grads aligned with parameters(); d_x is
        None when input_grad is False."""
        grads = []
        d = d_out
        for k in reversed(range(len(self.layers))):
            d, d_w, d_b = self.layers[k].backward(d, caches[k], input_grad or k > 0)
            grads[:0] = (d_w, d_b)
        return d, grads

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]


def flatten_parameters(layers):
    """Move the W and b of every Dense layer, in order, into one contiguous
    float64 vector and rebind them as views into it. Returns the vector;
    parameter values are unchanged. The vector starts on a 64-byte boundary,
    so wide SIMD loads of the weight matrices do not straddle cache lines."""
    params = [p.ravel() for layer in layers for p in layer.parameters()]
    n = sum(p.size for p in params)
    buffer = np.empty(n + 8)
    start = (-buffer.ctypes.data % 64) // 8
    flat = buffer[start : start + n]
    np.concatenate(params, out=flat)
    offset = 0
    for layer in layers:
        layer.W = flat[offset : offset + layer.W.size].reshape(layer.W.shape)
        offset += layer.W.size
        layer.b = flat[offset : offset + layer.b.size]
        offset += layer.b.size
    return flat
