"""Training loops. All randomness flows from the config seed, so a fixed seed
reproduces models bit for bit."""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from ..nn.losses import as_labels
from ..nn.optim import Adam
from .classifier import Classifier, ClassifierWorkspace
from .vae import VaeModel, VaeWorkspace, loss_and_gradients


@dataclass
class TrainConfig:
    alpha: float = 2.0
    beta: float = 1.0
    epochs: int = 200
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    latent_dim: int = 8
    hidden: tuple = (64, 32)

    def __post_init__(self):
        # runs on replace() too, so every derived config is checked
        for name, low in (("epochs", 0), ("batch_size", 1), ("latent_dim", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not (
            isinstance(self.hidden, tuple)
            and all(isinstance(h, numbers.Integral) and h >= 1 for h in self.hidden)
        ):
            raise ValueError(f"hidden must be a tuple of integers >= 1, got {self.hidden!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        # 0 switches a term off; a negative weight would train the negated term
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    def with_seed(self, seed):
        return replace(self, seed=int(seed))


def _stack(embeddings, attribute):
    x = np.stack([e.x for e in embeddings]).astype(float)
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise ValueError(f"embedding {int(np.argmin(finite))} has a non-finite value")
    if attribute == "public":
        labels = [e.true_public for e in embeddings]
    else:
        labels = [e.true_private for e in embeddings]
    if any(label is None for label in labels):
        raise ValueError(f"{attribute} labels missing from the dataset")
    return x, as_labels(labels)


def derive_seed(*tags):
    """Independent child seed for one use of a base seed, e.g. (seed, run)."""
    return int(np.random.SeedSequence([int(t) for t in tags]).generate_state(1)[0])


def _fit(model, step, n, config, rng):
    """Minibatch Adam over n rows. step(idx, grad) writes the gradient of the
    rows idx into grad, a flat vector in parameter_vector's layout, and
    returns their summed loss; one Adam step then updates the model's
    parameter_vector. Returns the mean per-row loss of each epoch; zero epochs
    leave the parameters untouched."""
    params = [model.parameter_vector]
    grads = [np.empty_like(model.parameter_vector)]
    opt = Adam(learning_rate=config.learning_rate)
    history = []
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        epoch_total = 0.0
        for start in range(0, n, config.batch_size):
            epoch_total += step(perm[start : start + config.batch_size], grads[0])
            opt.step(params, grads)
        history.append(epoch_total / n)
    return history


def _batch_step(x, y, make_workspace, loss):
    """A step for _fit: gathers the rows idx of x and y into the workspace
    for their batch size and returns loss(workspace). make_workspace(batch,
    grad) builds a workspace on a size's first use; one training call sees
    at most two sizes, the full batch and the last one, and its workspaces
    die with it."""
    workspaces = {}

    def step(idx, grad):
        ws = workspaces.get(idx.size)
        if ws is None:
            ws = workspaces[idx.size] = make_workspace(idx.size, grad)
        # idx is a slice of a permutation of the rows, so always in range
        x.take(idx, axis=0, out=ws.x, mode="clip")
        y.take(idx, out=ws.labels, mode="clip")
        return loss(ws)

    return step


def train_vae(embeddings, config, n_private):
    """Train one attribute-specific VAE on embeddings of a single public class.

    Returns (model, history) where history holds the mean per-item loss of
    each epoch. epochs=0 returns the freshly initialized model untouched.
    """
    if not embeddings:
        raise ValueError("empty dataset")
    publics = {e.true_public for e in embeddings}
    if len(publics) != 1:
        raise ValueError(f"mixed public classes in one VAE dataset: {sorted(publics)}")
    public_class = publics.pop()
    x, y = _stack(embeddings, "private")
    m = int(n_private)
    if y.max() >= m:
        raise ValueError(f"private label {y.max()} out of range [0, {m})")

    rng = np.random.default_rng(config.seed)
    model = VaeModel(
        input_dim=x.shape[1],
        latent_dim=config.latent_dim,
        n_private=m,
        public_class=public_class,
        hidden=config.hidden,
        rng=rng,
        alpha=config.alpha,
        beta=config.beta,
    )

    def loss(ws):
        # the noise is drawn after the epoch's permutation, batch by batch
        rng.standard_normal(out=ws.noise)
        breakdown, _ = loss_and_gradients(
            model, ws.x, ws.labels, config.alpha, config.beta, ws.noise, ws
        )
        return breakdown.total

    step = _batch_step(x, y, lambda batch, grad: VaeWorkspace(model, batch, grad), loss)
    return model, _fit(model, step, x.shape[0], config, rng)


def train_classifier(embeddings, attribute, config, n_classes):
    """Train an attribute classifier. Returns (model, history of mean epoch loss)."""
    if not embeddings:
        raise ValueError("empty dataset")
    x, y = _stack(embeddings, attribute)
    c = int(n_classes)
    if y.max() >= c:
        raise ValueError(f"{attribute} label {y.max()} out of range [0, {c})")

    rng = np.random.default_rng(config.seed)
    model = Classifier(x.shape[1], c, attribute=attribute, hidden=config.hidden, rng=rng)
    step = _batch_step(
        x,
        y,
        lambda batch, grad: ClassifierWorkspace(model, batch, grad),
        lambda ws: model.loss_and_gradients(ws.x, ws.labels, ws)[0],
    )
    return model, _fit(model, step, x.shape[0], config, rng)


def evaluate_accuracy(model, embeddings, attribute):
    """Fraction of embeddings whose true label the classifier predicts."""
    if not embeddings:
        raise ValueError("empty dataset")
    x, y = _stack(embeddings, attribute)
    return float(np.mean(model.predict(x) == y))
