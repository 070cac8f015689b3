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

from ..nn.layers import (
    MLP,
    ChainWorkspace,
    Dense,
    check_batch,
    check_rows,
    flatten_parameters,
    layer_views,
)
from ..nn.losses import as_labels, labels_in_range, squared_error


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


# 0.5 as a 0-d float64 array, which a ufunc takes faster than a Python float
_HALF = np.full((), 0.5)


def sample_latent(dist, noise):
    """Reparameterized sample: z = mu + exp(logvar / 2) * noise, computed in
    the one new buffer that logvar / 2 makes (IEEE addition commutes, so
    adding mu last is bitwise the same)."""
    noise = np.asarray(noise, dtype=float)
    if noise.shape != np.shape(dist.mu):
        raise ValueError(f"noise shape {noise.shape} does not match mu {np.shape(dist.mu)}")
    z = np.multiply(_HALF, dist.logvar)
    np.exp(z, out=z)
    z *= noise
    z += dist.mu
    return z


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
    (MLP.infer, Dense.infer) on a vector or a batch, bitwise equal to
    forward; loss_and_gradients runs a VaeWorkspace. parameter_vector holds
    every parameter, in parameters() order; each layer's W and b are views
    into it.
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
        encoder, mu_head, logvar_head, decoder, class_head = self.layer_sizes(
            input_dim, latent_dim, n_private, hidden
        )
        self.input_dim = input_dim
        self.latent_dim = latent_dim
        self.n_private = n_private
        self.public_class = public_class
        self.hidden = hidden
        self.alpha = alpha
        self.beta = beta
        self.encoder = MLP(encoder, ["tanh"] * len(hidden), rng)
        self.mu_head = Dense(*mu_head, "identity", rng)
        self.logvar_head = Dense(*logvar_head, "identity", rng)
        self.decoder = MLP(decoder, ["tanh"] * len(hidden) + ["identity"], rng)
        self.class_head = Dense(*class_head, "softmax", rng)
        self.parameter_vector = flatten_parameters(self._layers())

    @staticmethod
    def layer_sizes(input_dim, latent_dim, n_private, hidden):
        """Widths, input to output, of the encoder, the mu and logvar heads,
        the decoder and the class head: the layers in parameters() order."""
        if not hidden:
            raise ValueError("need at least one hidden layer")
        head = [hidden[-1], latent_dim]
        decoder = [latent_dim, *hidden[::-1], input_dim]
        return [[input_dim, *hidden], head, head, decoder, [latent_dim, n_private]]

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

    def encode(self, x):
        """Deterministic map to the posterior parameters (mu, logvar) of one
        vector (n,) or of each row of a batch."""
        h = self.encoder.infer(x)
        return LatentDistribution(mu=self.mu_head.infer(h), logvar=self.logvar_head.infer(h))

    def decode(self, z):
        """The reconstruction of one latent vector (J,) or of each row of a
        batch."""
        return self.decoder.infer(z)

    def classify_latent(self, z):
        """Softmax distribution of the private-attribute head at one latent
        vector (J,) or at each row of a batch."""
        return self.class_head.infer(check_rows(z, self.latent_dim))


class VaeWorkspace:
    """Every array of one loss_and_gradients pass at batch size batch: a
    layer workspace per part (encoder, the two heads, decoder, class head),
    the latent-sized and row-sized intermediates, x, labels and noise for
    the caller to fill with the batch, and grad, the flat gradient in
    parameter_vector's layout (shared by a training call's workspaces when
    given) that gradients views."""

    def __init__(self, model, batch, grad=None):
        self.grad = np.empty(model.parameter_vector.size) if grad is None else grad
        views = layer_views(model._layers(), self.grad)
        self.gradients = [g for pair in views for g in pair]
        n_enc = len(model.encoder.layers)
        self.encoder = ChainWorkspace(model.encoder.layers, batch, views[:n_enc])
        self.mu_head = ChainWorkspace([model.mu_head], batch, views[n_enc : n_enc + 1])
        self.logvar_head = ChainWorkspace([model.logvar_head], batch, views[n_enc + 1 : n_enc + 2])
        self.decoder = ChainWorkspace(model.decoder.layers, batch, views[n_enc + 2 : -1])
        self.class_head = ChainWorkspace([model.class_head], batch, views[-1:])
        self.x = np.empty((batch, model.input_dim))
        self.labels = np.empty(batch, dtype=np.intp)
        latent = (batch, model.latent_dim)
        (
            self.noise, self.sigma, self.z, self.exp_logvar,
            self.d_mu, self.d_logvar, self.scratch, self.mu_squared,
        ) = (np.empty(latent) for _ in range(8))
        self.squares = np.empty((batch, model.input_dim))
        self.row = np.empty(batch)


def loss_and_gradients(model, x, labels, alpha, beta, noise, workspace=None):
    """Batch loss summed over items, recon + beta * KL + alpha * head cross
    entropy, as a LossBreakdown plus gradients aligned with model.parameters().

    noise is the standard-normal draw for the reparameterized latent sample,
    one row per item; tests inject it, trainers draw it fresh. The reverse
    sweep is hand-orchestrated: the latent gradient collects the decoder
    branch and the alpha-weighted classification branch, then flows into mu
    and logvar together with the beta-weighted KL terms.

    workspace, a VaeWorkspace of this model for the batch size, holds every
    intermediate array, and the returned gradients are views of its flat
    gradient, overwritten by its next use. Without one the call builds its
    own, so the gradients are fresh arrays. Each value is computed by the
    operations of the textbook formulas, in their order.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected a nonempty (B, n) batch, got shape {x.shape}")
    y = as_labels(labels)
    if y.shape != (x.shape[0],):
        raise ValueError(f"expected {x.shape[0]} labels, got shape {y.shape}")
    if not labels_in_range(y, model.n_private):
        raise ValueError(f"private label out of range [0, {model.n_private})")
    noise = np.asarray(noise, dtype=float)
    if noise.shape != (x.shape[0], model.latent_dim):
        raise ValueError(f"noise shape {noise.shape} does not match (batch, latent_dim)")
    check_batch(x, model.input_dim)
    ws = VaeWorkspace(model, x.shape[0]) if workspace is None else workspace
    if ws.x.shape != x.shape:
        raise ValueError(f"workspace for batch {ws.x.shape} used for {x.shape}")

    h = ws.encoder.forward(x)
    mu = ws.mu_head.forward(h)
    logvar = ws.logvar_head.forward(h)
    # z = mu + exp(0.5 * logvar) * noise
    sigma = np.multiply(0.5, logvar, out=ws.sigma)
    np.exp(sigma, out=sigma)
    z = np.multiply(sigma, noise, out=ws.z)
    z += mu
    x_hat = ws.decoder.forward(z)
    ws.class_head.forward(z)

    # reconstruction: sum over rows of 0.5 * sum_d (x_hat - x)^2; negating
    # the residual leaves its square unchanged
    residual = np.subtract(x_hat, x, out=x_hat)
    np.square(residual, out=ws.squares)
    row = np.add.reduce(ws.squares, axis=-1, out=ws.row)
    row *= 0.5
    recon = float(np.add.reduce(row))
    # kl_gaussian: -0.5 * sum_j (1 + logvar - exp(logvar) - mu^2), at least 0
    t = np.add(1.0, logvar, out=ws.scratch)
    exp_logvar = np.exp(logvar, out=ws.exp_logvar)
    t -= exp_logvar
    t -= np.multiply(mu, mu, out=ws.mu_squared)
    np.add.reduce(t, axis=-1, out=row)
    np.multiply(-0.5, row, out=row)
    np.maximum(row, 0.0, out=row)
    kl = float(np.add.reduce(row))
    ce = ws.class_head.cross_entropy(y)
    breakdown = LossBreakdown(
        reconstruction=recon,
        kl=kl,
        classification=ce,
        total=float(recon + beta * kl + alpha * ce),
        alpha=alpha,
        beta=beta,
    )

    d_z = ws.decoder.backward(residual, input_grad=True)
    # fused softmax + cross entropy; exact while probs stay above the log floor
    g = ws.class_head.outputs[-1]
    g *= alpha
    d_z += ws.class_head.backward(g, input_grad=True)

    # d_mu = d_z + beta * mu
    d_mu = np.multiply(beta, mu, out=ws.d_mu)
    d_mu += d_z
    # d_logvar = d_z * noise * 0.5 * sigma + beta * 0.5 * (exp(logvar) - 1)
    d_logvar = np.multiply(d_z, noise, out=ws.d_logvar)
    d_logvar *= 0.5
    d_logvar *= sigma
    t = np.subtract(exp_logvar, 1.0, out=ws.scratch)
    np.multiply(beta * 0.5, t, out=t)
    d_logvar += t
    d_h = ws.mu_head.backward(d_mu, input_grad=True)
    d_h += ws.logvar_head.backward(d_logvar, input_grad=True)
    ws.encoder.backward(d_h)
    return breakdown, ws.gradients
