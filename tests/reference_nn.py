"""The cache-based pass that nn.layers shipped beside ChainWorkspace, cut to
its arithmetic: the same operations in the same order, with no shape checks.
It is the bitwise reference for ChainWorkspace and the models'
loss_and_gradients. forward returns one (input, pre-activation, output) cache
per layer, and backward consumes them; a softmax layer takes the fused
softmax + cross-entropy gradient w.r.t. its pre-activation, as ChainWorkspace
does.
"""

import numpy as np

from latent_anon.nn import cross_entropy_from_labels, softmax
from latent_anon.nn.layers import ChainWorkspace, check_batch, layer_views
from latent_anon.nn.losses import as_labels

ACTIVATE = {
    "identity": lambda z: z, "relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh, "softmax": softmax,
}


def forward(layers, x):
    """The caches of a chain of Dense layers on a (B, n_0) batch; the chain's
    output is caches[-1][2]."""
    caches = []
    for layer in layers:
        z = x @ layer.W.T + layer.b
        caches.append((x, z, ACTIVATE[layer.activation](z)))
        x = caches[-1][2]
    return caches


def backward(layers, caches, d, input_grad=True):
    """(d_x, grads) for d, the gradient w.r.t. the chain's output: grads holds
    (dW, db) per layer in parameters() order, and d_x is None when
    input_grad is False."""
    grads = []
    for k in reversed(range(len(layers))):
        layer, (x, z, y) = layers[k], caches[k]
        if layer.activation == "relu":
            d = d * (z > 0)
        elif layer.activation == "tanh":
            d = d * (1.0 - y * y)
        grads[:0] = (d.T @ x, d.sum(axis=0))
        d = d @ layer.W if input_grad or k > 0 else None
    return d, grads


def classifier_loss(model, x, labels, input_grad=False):
    """Classifier.loss_and_gradients on this pass, with its errors: the summed
    cross entropy and the gradients. input_grad computes the gradient w.r.t.
    x too, as the pass did before the first layer skipped it."""
    y = as_labels(labels)
    caches = forward(model.mlp.layers, check_batch(x, model.input_dim))
    ce = cross_entropy_from_labels(caches[-1][2], y)
    g = caches[-1][2].copy()
    g[np.arange(y.size), y] -= 1.0
    return float(ce.sum()), backward(model.mlp.layers, caches, g, input_grad)[1]


def workspace(layers, batch):
    """A ChainWorkspace of layers at batch size batch and its gradients, views
    of a fresh flat vector aligned with the layers' parameters()."""
    views = layer_views(layers, np.empty(sum(p.size for layer in layers for p in layer.parameters())))
    return ChainWorkspace(layers, batch, views), [g for pair in views for g in pair]
