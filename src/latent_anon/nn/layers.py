"""Dense layers and MLP stacks with hand-written forward/backward passes.

Everything is double precision. Layers hold no per-call state: forward
returns a cache that backward consumes, so inference on frozen parameters is
safe from multiple threads.

forward takes batches only, one row per item; with backward it is the
reference that the tests compare ChainWorkspace against. Inference uses the
cacheless pass, which takes a single (n,) row or a (B, n) batch: Dense.infer
applies the layer with no cache and no checks, and MLP.logits checks the row
or batch once at its boundary (check_rows), then returns the last layer's
pre-activation (MLP.infer applies the last activation to it in place). Both
add the bias and apply tanh/relu in place, so each layer allocates one
array. A batch's product is x @ W.T, forward's operation, so its outputs
are bitwise equal to forward's. A row's product is W.dot(x): the same BLAS
matrix-vector kernel that x @ W.T of a one-row batch reaches, with the same
bits at every deployed shape and in thousands of random ones, but at about
half the per-call cost of the matmul ufunc. dot releases the GIL where @
does not, so only rows take it: a batch, such as each call the attack's
threads make, keeps @.

Each model holds its parameters in one contiguous float64 vector
(flatten_parameters): every Dense.W and Dense.b is a view into it, in
parameters() order, so the trainer updates the whole model with one Adam
step. backward(..., input_grad=False) skips the gradient w.r.t. the layer
input, d_z @ W, which no trainer needs for a model's first layer.

The trainers run ChainWorkspace, not forward/backward: the same operations
in the same order, so bitwise the same values as the reference, written into
arrays allocated once per (model, batch size) and into (dW, db) views of one
flat gradient laid out like the parameter vector (layer_views).
"""

import math

import numpy as np

from .losses import LOG_FLOOR, softmax

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


# A float64 zero as a 0-d array: a ufunc takes it about 0.2 us faster than
# the Python float 0.0, which it must first convert, with the same result.
_ZERO = np.zeros(())


def _activate_inplace(name, z):
    """_activate(name, z), written into z where the activation allows."""
    if name == "relu":
        return np.maximum(z, _ZERO, out=z)
    if name == "tanh":
        return np.tanh(z, out=z)
    return _activate(name, z)


def _activation_backward_inplace(name, y, d, scratch):
    """_activation_backward for relu or tanh, written into d; scratch is a
    buffer shaped like y. relu's mask (z > 0) is read from y = max(z, 0),
    which is positive exactly where z is. identity and softmax leave d as
    it is: a softmax layer's d is already the fused softmax + cross-entropy
    gradient w.r.t. its pre-activation."""
    if name == "relu":
        np.greater(y, 0.0, out=scratch)
        d *= scratch
    elif name == "tanh":
        np.multiply(y, y, out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        d *= scratch
    return d


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


def check_batch(x, n_in):
    """x as a float (B, n_in) batch; any other shape raises ValueError."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != n_in:
        raise ValueError(f"expected a (B, {n_in}) batch, got shape {x.shape}")
    return x


def check_rows(x, n):
    """x as a float (n,) row or (B, n) batch; any other shape raises
    ValueError."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise ValueError(f"expected a (B, {n}) batch or a ({n},) row, got shape {x.shape}")
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
        """activation(x @ W.T + b) for a float (n_in,) row or (B, n_in)
        batch the caller has checked; no cache. A row's product is
        W.dot(x), a batch's x @ W.T; the bias and the activation are applied
        in place, into the product."""
        z = self.W.dot(x) if x.ndim == 1 else x @ self.W.T
        z += self.b
        return _activate_inplace(self.activation, z)

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
        """The last layer's pre-activation for a (sizes[0],) row or a
        (B, sizes[0]) batch, checked once here; a row gives a row."""
        x = check_rows(x, self.sizes[0])
        for layer in self.layers[:-1]:
            x = layer.infer(x)
        last = self.layers[-1]
        z = last.W.dot(x) if x.ndim == 1 else x @ last.W.T
        z += last.b
        return z

    def infer(self, x):
        """forward's output without the caches; the last activation is
        applied in place where _activate_inplace allows."""
        return _activate_inplace(self.activations[-1], self.logits(x))

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


def layer_views(layers, flat):
    """One (W-shaped, b-shaped) pair of views into flat per Dense layer, laid
    out in parameters() order: the layout of a model's parameter vector and
    of its flat gradient."""
    views, offset = [], 0
    for layer in layers:
        n_w = layer.n_out * layer.n_in
        w = flat[offset : offset + n_w].reshape(layer.n_out, layer.n_in)
        b = flat[offset + n_w : offset + n_w + layer.n_out]
        views.append((w, b))
        offset += n_w + layer.n_out
    return views


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
    for layer, (w, b) in zip(layers, layer_views(layers, flat)):
        layer.W, layer.b = w, b
    return flat


class ChainWorkspace:
    """Arrays for training passes of a chain of Dense layers at one batch
    size B: each layer's output, a scratch array of the same shape and the
    gradient w.r.t. its input, allocated once, plus grads, one (dW, db) pair
    of views per layer (layer_views of a flat gradient).

    forward and backward run Dense.forward and Dense.backward's operations
    in the same order, so every value is bitwise equal to theirs, but write
    only into these arrays. Reductions call the ufunc's reduce directly,
    the same reduction without the ndarray method's Python wrapper. The
    arrays are reused by the next pass, so a workspace serves one training
    call at a time.
    """

    def __init__(self, layers, batch, grads):
        self.outputs = [np.empty((batch, layer.n_out)) for layer in layers]
        # per layer: the parameter views, the activation, the output, a
        # scratch array, the input gradient and the (dW, db) views
        self._layers = [
            (layer.W, layer.W.T, layer.b, layer.activation, out, np.empty_like(out),
             np.empty((batch, layer.n_in)), d_w, d_b)
            for layer, out, (d_w, d_b) in zip(layers, self.outputs, grads)
        ]
        # per row: softmax's maximum and sum; the flat index, probability
        # and gradient entry of the labelled class
        self.row = np.empty((batch, 1))
        self.row_offsets = np.arange(batch) * layers[-1].n_out
        self.flat_index = np.empty(batch, dtype=np.intp)
        self.picked = np.empty(batch)
        self.picked_grad = np.empty(batch)
        self.input = None

    def forward(self, x):
        """The chain's output for a checked (B, n_0) batch x, which must stay
        unchanged until backward. A softmax layer raises ValueError, as
        softmax does, on an empty batch or a non-finite logit."""
        self.input = x
        for _, w_t, b, activation, out, *_ in self._layers:
            np.matmul(x, w_t, out=out)
            out += b
            if activation == "softmax":
                self._softmax(out)
            else:
                _activate_inplace(activation, out)
            x = out
        return x

    def _softmax(self, z):
        if z.size == 0:
            raise ValueError("softmax of an empty input")
        # the sum is finite only if every logit is
        if not math.isfinite(np.add.reduce(z, axis=None)) and not np.isfinite(z).all():
            raise ValueError("softmax requires finite logits")
        row = self.row
        np.maximum.reduce(z, axis=-1, keepdims=True, out=row)
        z -= row
        np.exp(z, out=z)
        np.add.reduce(z, axis=-1, keepdims=True, out=row)
        z /= row

    def cross_entropy(self, labels):
        """For a chain ending in softmax, after forward: the summed
        -log p[label] of the output (labels checked in range by the caller,
        as cross_entropy_from_labels does), and the output turned in place
        into softmax + cross entropy's fused gradient w.r.t. the last
        pre-activation, probs - onehot(labels), ready for backward."""
        probs = self.outputs[-1].reshape(-1)
        index, picked = self.flat_index, self.picked
        np.add(self.row_offsets, labels, out=index)
        probs.take(index, out=picked, mode="clip")
        np.subtract(picked, 1.0, out=self.picked_grad)
        probs.put(index, self.picked_grad, mode="clip")
        np.maximum(picked, LOG_FLOOR, out=picked)
        np.log(picked, out=picked)
        np.negative(picked, out=picked)
        return float(np.add.reduce(picked))

    def backward(self, d, input_grad=False):
        """Write each layer's dW and db into grads for d, the gradient w.r.t.
        the chain's output (for a softmax last layer, w.r.t. its
        pre-activation: cross_entropy's fused gradient). d is overwritten.
        Returns the gradient w.r.t. the chain's input when input_grad, else
        None."""
        layers = self._layers
        for k in range(len(layers) - 1, -1, -1):
            w, _, _, activation, out, scratch, d_input, d_w, d_b = layers[k]
            _activation_backward_inplace(activation, out, d, scratch)
            np.matmul(d.T, layers[k - 1][4] if k else self.input, out=d_w)
            np.add.reduce(d, axis=0, out=d_b)
            if k == 0 and not input_grad:
                return None
            d = np.matmul(d, w, out=d_input)
        return d
