"""MLP attribute classifiers used both for evaluation and inside the pipeline."""

import math

import numpy as np

from ..nn.layers import MLP, ChainWorkspace, check_batch, flatten_parameters, layer_views
from ..nn.losses import as_labels, labels_in_range


class Classifier:
    """relu MLP with a softmax output over attribute classes.

    attribute is "public" or "private"; it is metadata only, the math does
    not depend on it. Inference runs the cacheless pass (MLP.logits and
    MLP.infer); training runs a ChainWorkspace. predict takes the
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
            self.layer_sizes(input_dim, n_classes, hidden)[0],
            ["relu"] * len(hidden) + ["softmax"],
            rng,
        )
        self.parameter_vector = flatten_parameters(self.mlp.layers)

    @staticmethod
    def layer_sizes(input_dim, n_classes, hidden):
        """Widths, input to output, of the one MLP, as VaeModel.layer_sizes."""
        return [[input_dim, *hidden, n_classes]]

    def parameters(self):
        return self.mlp.parameters()

    def predict_proba(self, x):
        """Class probabilities of one vector (n,) or of each row of a batch."""
        return self.mlp.infer(x)

    def predict(self, x):
        """Argmax of the logits: an int for one vector (n,), one label per
        row for a batch. Equal logits resolve to the lower index. An empty
        batch or a non-finite logit raises ValueError, as in predict_proba."""
        logits = self.mlp.logits(x)
        if logits.size == 0:
            raise ValueError("predict of an empty batch")
        # one dot product: the sum of squares is finite only if every logit
        # is; one that overflows gets the exact check
        flat = logits.ravel()
        if not math.isfinite(flat.dot(flat)) and not np.isfinite(logits).all():
            raise ValueError("predict requires finite logits")
        labels = logits.argmax(axis=-1)
        return int(labels) if logits.ndim == 1 else labels

    def loss_and_gradients(self, x, labels, workspace=None):
        """Summed cross entropy over the batch plus gradients aligned with
        parameters(); the gradient w.r.t. the input rows is not computed.

        workspace, a ClassifierWorkspace of this model for the batch size,
        holds every intermediate array, and the returned gradients are views
        of its flat gradient, overwritten by its next use. Without one the
        call builds its own, so the gradients are fresh arrays.
        """
        y = as_labels(labels)
        x = check_batch(x, self.input_dim)
        ws = ClassifierWorkspace(self, x.shape[0]) if workspace is None else workspace
        if ws.x.shape != x.shape:
            raise ValueError(f"workspace for batch {ws.x.shape} used for {x.shape}")
        ws.chain.forward(x)
        if y.shape != (x.shape[0],):
            raise ValueError("expected (B, M) probs and (B,) labels")
        if not labels_in_range(y, self.n_classes):
            raise ValueError(f"label out of range [0, {self.n_classes})")
        loss = ws.chain.cross_entropy(y)
        ws.chain.backward(ws.chain.outputs[-1])
        return loss, ws.gradients


class ClassifierWorkspace:
    """Every array of one Classifier.loss_and_gradients pass at batch size
    batch: the layer workspace, x and labels for the caller to fill with the
    batch, and grad, the flat gradient in parameter_vector's layout (shared
    by a training call's workspaces when given) that gradients views."""

    def __init__(self, model, batch, grad=None):
        self.grad = np.empty(model.parameter_vector.size) if grad is None else grad
        views = layer_views(model.mlp.layers, self.grad)
        self.gradients = [g for pair in views for g in pair]
        self.chain = ChainWorkspace(model.mlp.layers, batch, views)
        self.x = np.empty((batch, model.input_dim))
        self.labels = np.empty(batch, dtype=np.intp)
