"""MLP attribute classifiers used both for evaluation and inside the pipeline."""

import numpy as np

from ..nn.layers import MLP, as_batch, flatten_parameters
from ..nn.losses import as_labels, cross_entropy_from_labels


class Classifier:
    """relu MLP with a softmax output over attribute classes.

    attribute is "public" or "private"; it is metadata only, the math does
    not depend on it. Inference runs the cacheless pass (MLP.logits and
    MLP.infer); training runs forward with its caches. predict takes the
    argmax of the logits after checking they are finite: softmax is
    monotone, so this is the argmax of predict_proba wherever the top two
    probabilities differ in float64, and at an exact tie of the
    probabilities the larger logit wins.

    parameter_vector holds every parameter, in parameters() order; each
    layer's W and b are views into it.
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
        self.parameter_vector = flatten_parameters(self.mlp.layers)

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
        probs = self.mlp.infer(xb)
        return probs[0] if single else probs

    def predict(self, x):
        """Argmax of the logits; equal logits resolve to the lower index. An
        empty batch or a non-finite logit raises ValueError, as in
        predict_proba."""
        xb, single = as_batch(x)
        logits = self.mlp.logits(xb)
        if logits.size == 0:
            raise ValueError("predict of an empty batch")
        if not np.isfinite(logits).all():
            raise ValueError("predict requires finite logits")
        return int(np.argmax(logits[0])) if single else np.argmax(logits, axis=-1)

    def loss_and_gradients(self, x, labels):
        """Summed cross entropy over the batch plus gradients aligned with
        parameters(); the gradient w.r.t. the input rows is not computed."""
        y = as_labels(labels)
        probs, caches = self.mlp.forward(x)
        ce = cross_entropy_from_labels(probs, y)
        g = probs.copy()
        g[np.arange(y.size), y] -= 1.0
        layers = self.mlp.layers
        last = len(layers) - 1
        d, d_w, d_b = layers[last].backward_preactivation(g, caches[last], last > 0)
        grads = [d_w, d_b]
        for k in reversed(range(last)):
            d, d_w, d_b = layers[k].backward(d, caches[k], k > 0)
            grads[:0] = (d_w, d_b)
        return float(ce.sum()), grads
