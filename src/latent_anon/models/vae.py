"""Variational autoencoder with a Gaussian latent and a latent classification head.

One model serves one public attribute class. The encoder maps an embedding to
(mu, logvar) of a diagonal Gaussian posterior, the decoder reconstructs from a
latent point, and a single softmax layer on the latent predicts the private
attribute class while training. That head shapes the latent space so private
classes become linearly separable; at anonymization time it is not used.

Training minimizes, summed over a batch,

    reconstruction + beta * KL + alpha * cross_entropy(head(z), private label)

where reconstruction is half squared error (unit-variance Gaussian likelihood)
and KL is the closed form against a standard normal prior, including its 1/2
factor, which the beta weight therefore multiplies.
"""

from dataclasses import dataclass

import numpy as np

from ..nn.layers import MLP, Dense, as_batch, check_batch, flatten_parameters
from ..nn.losses import as_labels, cross_entropy_from_labels, squared_error


@dataclass
class LatentDistribution:
    """Encoder output: mean and log variance (natural log of sigma squared)."""

    mu: np.ndarray
    logvar: np.ndarray


@dataclass
class LossBreakdown:
    reconstruction: float
    kl: float
    classification: float
    total: float
    alpha: float
    beta: float


def sample_latent(dist, noise):
    """Reparameterized sample: z = mu + exp(logvar / 2) * noise."""
    noise = np.asarray(noise, dtype=float)
    if noise.shape != np.shape(dist.mu):
        raise ValueError(f"noise shape {noise.shape} does not match mu {np.shape(dist.mu)}")
    return dist.mu + np.exp(0.5 * dist.logvar) * noise


def kl_gaussian(dist):
    """Closed-form KL(q || N(0, I)) for a diagonal Gaussian posterior.

    -1/2 * sum_j (1 + logvar_j - exp(logvar_j) - mu_j^2), clamped at zero to
    absorb rounding at the optimum. 1-D input gives a float, 2-D one value
    per row.
    """
    mu = np.asarray(dist.mu, dtype=float)
    logvar = np.asarray(dist.logvar, dtype=float)
    if mu.shape != logvar.shape:
        raise ValueError("mu and logvar must have the same shape")
    per = -0.5 * np.sum(1.0 + logvar - np.exp(logvar) - mu * mu, axis=-1)
    per = np.maximum(per, 0.0)
    return float(per) if mu.ndim == 1 else per


def reconstruction_loss(x, x_hat):
    """Half squared error; the Gaussian unit-variance log-likelihood up to a constant."""
    return squared_error(x, x_hat)


class VaeModel:
    """Encoder/decoder pair plus the private-attribute head, for one public class.

    encode, decode and classify_latent run the cacheless inference pass
    (MLP.infer, Dense.infer), bitwise equal to forward; loss_and_gradients
    runs forward with its caches. parameter_vector holds every parameter, in
    parameters() order; each layer's W and b are views into it.
    """

    def __init__(
        self,
        input_dim,
        latent_dim,
        n_private,
        public_class=0,
        hidden=(64, 32),
        rng=None,
        alpha=2.0,
        beta=1.0,
    ):
        if rng is None:
            rng = np.random.default_rng()
        hidden = tuple(hidden)
        if not hidden:
            raise ValueError("need at least one hidden layer")
        self.input_dim = input_dim
        self.latent_dim = latent_dim
        self.n_private = n_private
        self.public_class = public_class
        self.hidden = hidden
        self.alpha = alpha
        self.beta = beta
        self.encoder = MLP([input_dim, *hidden], ["tanh"] * len(hidden), rng)
        self.mu_head = Dense(hidden[-1], latent_dim, "identity", rng)
        self.logvar_head = Dense(hidden[-1], latent_dim, "identity", rng)
        self.decoder = MLP(
            [latent_dim, *hidden[::-1], input_dim],
            ["tanh"] * len(hidden) + ["identity"],
            rng,
        )
        self.class_head = Dense(latent_dim, n_private, "softmax", rng)
        self.parameter_vector = flatten_parameters(self._layers())

    def _layers(self):
        return [
            *self.encoder.layers,
            self.mu_head,
            self.logvar_head,
            *self.decoder.layers,
            self.class_head,
        ]

    def parameters(self):
        return [p for layer in self._layers() for p in layer.parameters()]

    def named_tensors(self):
        out = {}
        for prefix, mlp in (("encoder", self.encoder), ("decoder", self.decoder)):
            for k, layer in enumerate(mlp.layers):
                out[f"{prefix}.{k}.W"] = layer.W
                out[f"{prefix}.{k}.b"] = layer.b
        for prefix, layer in (
            ("mu_head", self.mu_head),
            ("logvar_head", self.logvar_head),
            ("class_head", self.class_head),
        ):
            out[f"{prefix}.W"] = layer.W
            out[f"{prefix}.b"] = layer.b
        return out

    def encode(self, x):
        """Deterministic map to the posterior parameters (mu, logvar) of one
        vector (n,) or of each row of a batch."""
        xb, single = as_batch(x)
        h = self.encoder.infer(xb)
        mu = self.mu_head.infer(h)
        logvar = self.logvar_head.infer(h)
        if single:
            mu, logvar = mu[0], logvar[0]
        return LatentDistribution(mu=mu, logvar=logvar)

    def decode(self, z):
        zb, single = as_batch(z)
        x_hat = self.decoder.infer(zb)
        return x_hat[0] if single else x_hat

    def classify_latent(self, z):
        """Softmax distribution of the private-attribute head at z."""
        zb, single = as_batch(z)
        probs = self.class_head.infer(check_batch(zb, self.latent_dim))
        return probs[0] if single else probs


def loss_and_gradients(model, x, labels, alpha, beta, noise):
    """Batch loss summed over items, recon + beta * KL + alpha * head cross
    entropy, as a LossBreakdown plus gradients aligned with model.parameters().

    noise is the standard-normal draw for the reparameterized latent sample,
    one row per item; tests inject it, trainers draw it fresh. The reverse
    sweep is hand-orchestrated: the latent gradient collects the decoder
    branch and the alpha-weighted classification branch, then flows into mu
    and logvar together with the beta-weighted KL terms.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected a nonempty (B, n) batch, got shape {x.shape}")
    y = as_labels(labels)
    if y.shape != (x.shape[0],):
        raise ValueError(f"expected {x.shape[0]} labels, got shape {y.shape}")
    if y.min() < 0 or y.max() >= model.n_private:
        raise ValueError(f"private label out of range [0, {model.n_private})")
    noise = np.asarray(noise, dtype=float)
    if noise.shape != (x.shape[0], model.latent_dim):
        raise ValueError(f"noise shape {noise.shape} does not match (batch, latent_dim)")

    h, enc_caches = model.encoder.forward(x)
    mu, mu_cache = model.mu_head.forward(h)
    logvar, lv_cache = model.logvar_head.forward(h)
    sigma = np.exp(0.5 * logvar)
    z = mu + sigma * noise
    x_hat, dec_caches = model.decoder.forward(z)
    probs, cls_cache = model.class_head.forward(z)

    recon = float(squared_error(x, x_hat).sum())
    kl = float(kl_gaussian(LatentDistribution(mu, logvar)).sum())
    ce = float(cross_entropy_from_labels(probs, y).sum())
    breakdown = LossBreakdown(
        reconstruction=recon,
        kl=kl,
        classification=ce,
        total=float(recon + beta * kl + alpha * ce),
        alpha=alpha,
        beta=beta,
    )

    d_z, dec_grads = model.decoder.backward(x_hat - x, dec_caches)
    # fused softmax + cross entropy; exact while probs stay above the log floor
    g = probs.copy()
    g[np.arange(y.size), y] -= 1.0
    g *= alpha
    d_z_cls, d_w_cls, d_b_cls = model.class_head.backward_preactivation(g, cls_cache)
    d_z = d_z + d_z_cls

    d_mu = d_z + beta * mu
    d_logvar = d_z * noise * 0.5 * sigma + beta * 0.5 * (np.exp(logvar) - 1.0)
    d_h, d_w_mu, d_b_mu = model.mu_head.backward(d_mu, mu_cache)
    d_h_lv, d_w_lv, d_b_lv = model.logvar_head.backward(d_logvar, lv_cache)
    d_h = d_h + d_h_lv
    _, enc_grads = model.encoder.backward(d_h, enc_caches, input_grad=False)
    # same order as VaeModel.parameters()
    grads = enc_grads + [d_w_mu, d_b_mu, d_w_lv, d_b_lv] + dec_grads + [d_w_cls, d_b_cls]
    return breakdown, grads
