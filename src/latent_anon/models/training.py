"""Training loops. All randomness flows from the config seed, so a fixed seed
reproduces models bit for bit."""

from dataclasses import dataclass, replace

import numpy as np

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

    def with_seed(self, seed):
        return replace(self, seed=int(seed))


def _stack(embeddings, attribute):
    x = np.stack([e.x for e in embeddings]).astype(float)
    if attribute == "public":
        labels = [e.true_public for e in embeddings]
    else:
        labels = [e.true_private for e in embeddings]
    if any(label is None for label in labels):
        raise ValueError(f"{attribute} labels missing from the dataset")
    return x, np.asarray(labels, dtype=int)


def train_vae(embeddings, config, n_private=None):
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
    m = int(n_private) if n_private is not None else int(y.max()) + 1
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
    history = []
    if config.epochs == 0:
        return model, history
    opt = Adam(learning_rate=config.learning_rate)
    params = model.parameters()
    n = x.shape[0]
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        epoch_total = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            noise = rng.standard_normal((idx.size, config.latent_dim))
            breakdown, grads = loss_and_gradients(
                model, x[idx], y[idx], config.alpha, config.beta, noise
            )
            opt.step(params, grads)
            epoch_total += breakdown.total
        history.append(epoch_total / n)
    return model, history


def train_classifier(embeddings, attribute, config, n_classes=None):
    """Train an attribute classifier. Returns (model, history of mean epoch loss)."""
    if not embeddings:
        raise ValueError("empty dataset")
    x, y = _stack(embeddings, attribute)
    c = int(n_classes) if n_classes is not None else int(y.max()) + 1
    if y.max() >= c:
        raise ValueError(f"{attribute} label {y.max()} out of range [0, {c})")

    rng = np.random.default_rng(config.seed)
    model = Classifier(x.shape[1], c, attribute=attribute, hidden=config.hidden, rng=rng)
    history = []
    if config.epochs == 0:
        return model, history
    opt = Adam(learning_rate=config.learning_rate)
    params = model.parameters()
    n = x.shape[0]
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        epoch_total = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            ce, grads = model.loss_and_gradients(x[idx], y[idx])
            opt.step(params, grads)
            epoch_total += ce
        history.append(epoch_total / n)
    return model, history


def evaluate_accuracy(model, embeddings, attribute):
    """Fraction of embeddings whose true label the classifier predicts."""
    if not embeddings:
        raise ValueError("empty dataset")
    x, y = _stack(embeddings, attribute)
    return float(np.mean(model.predict(x) == y))
