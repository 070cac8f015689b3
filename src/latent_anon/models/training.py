"""Training loops. All randomness flows from the config seed, so a fixed seed
reproduces models bit for bit."""

import math
from dataclasses import dataclass, replace

import numpy as np

from ..nn.losses import as_labels
from ..nn.optim import Adam
from .classifier import Classifier
from .vae import VaeModel, loss_and_gradients


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
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")

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


def _fit(model, loss_and_grads, n, config, rng):
    """Minibatch Adam over n rows. loss_and_grads(idx) returns the summed loss
    and the gradients of the rows idx, aligned with model.parameters(); they
    are gathered into one flat gradient, and one Adam step updates the model's
    parameter_vector. Returns the mean per-row loss of each epoch; zero epochs
    leave the parameters untouched."""
    params = [model.parameter_vector]
    flat_grad = np.empty_like(model.parameter_vector)
    opt = Adam(learning_rate=config.learning_rate)
    history = []
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        epoch_total = 0.0
        for start in range(0, n, config.batch_size):
            loss, grads = loss_and_grads(perm[start : start + config.batch_size])
            np.concatenate([g.ravel() for g in grads], out=flat_grad)
            opt.step(params, [flat_grad])
            epoch_total += loss
        history.append(epoch_total / n)
    return history


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

    def loss_and_grads(idx):
        # the noise is drawn after the epoch's permutation, batch by batch
        noise = rng.standard_normal((idx.size, config.latent_dim))
        breakdown, grads = loss_and_gradients(
            model, x[idx], y[idx], config.alpha, config.beta, noise
        )
        return breakdown.total, grads

    return model, _fit(model, loss_and_grads, x.shape[0], config, rng)


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
    loss_and_grads = lambda idx: model.loss_and_gradients(x[idx], y[idx])
    return model, _fit(model, loss_and_grads, x.shape[0], config, rng)


def evaluate_accuracy(model, embeddings, attribute):
    """Fraction of embeddings whose true label the classifier predicts."""
    if not embeddings:
        raise ValueError("empty dataset")
    x, y = _stack(embeddings, attribute)
    return float(np.mean(model.predict(x) == y))
