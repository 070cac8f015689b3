"""MLP attribute classifiers used both for evaluation and inside the pipeline."""

import numpy as np

from ..nn.layers import MLP, as_batch
from ..nn.losses import as_labels, cross_entropy_from_labels


class Classifier:
    """relu MLP with a softmax output over attribute classes.

    attribute is "public" or "private"; it is metadata only, the math does
    not depend on it.
    """

    def __init__(self, input_dim, n_classes, attribute="public", hidden=(64, 32), rng=None):
        if n_classes < 1:
            raise ValueError("need at least one class")
        if attribute not in ("public", "private"):
            raise ValueError("attribute must be 'public' or 'private'")
        hidden = tuple(hidden)
        self.input_dim = input_dim
        self.n_classes = n_classes
        self.attribute = attribute
        self.hidden = hidden
        self.mlp = MLP(
            [input_dim, *hidden, n_classes],
            ["relu"] * len(hidden) + ["softmax"],
            rng,
        )

    def parameters(self):
        return self.mlp.parameters()

    def named_tensors(self):
        out = {}
        for k, layer in enumerate(self.mlp.layers):
            out[f"mlp.{k}.W"] = layer.W
            out[f"mlp.{k}.b"] = layer.b
        return out

    def predict_proba(self, x):
        """Class probabilities of one vector (n,) or of each row of a batch."""
        xb, single = as_batch(x)
        probs, _ = self.mlp.forward(xb)
        return probs[0] if single else probs

    def predict(self, x):
        """Argmax class; ties resolve to the lower index."""
        probs = self.predict_proba(x)
        return int(np.argmax(probs)) if probs.ndim == 1 else np.argmax(probs, axis=-1)

    def loss_and_gradients(self, x, labels):
        """Summed cross entropy over the batch plus gradients aligned with parameters()."""
        y = as_labels(labels)
        probs, caches = self.mlp.forward(x)
        ce = cross_entropy_from_labels(probs, y)
        g = probs.copy()
        g[np.arange(y.size), y] -= 1.0
        d, d_w, d_b = self.mlp.layers[-1].backward_preactivation(g, caches[-1])
        grads = [d_w, d_b]
        for layer, cache in zip(reversed(self.mlp.layers[:-1]), reversed(caches[:-1])):
            d, d_w, d_b = layer.backward(d, cache)
            grads[:0] = (d_w, d_b)
        return float(ce.sum()), grads
