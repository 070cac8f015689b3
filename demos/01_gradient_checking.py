"""Hand-written backprop vs the finite-difference oracle.

Builds a small MLP regression loss and the full VAE training loss, then
compares every analytic gradient coordinate against central differences.
"""

import numpy as np

from latent_anon.models import VaeModel, loss_and_gradients
from latent_anon.nn import MLP, grad_check, squared_error

rng = np.random.default_rng(0)

# --- plain MLP with squared-error loss ---------------------------------------
mlp = MLP([5, 16, 8, 3], ["tanh", "tanh", "identity"], rng)
x = rng.standard_normal((10, 5))
target = rng.standard_normal((10, 3))

y, caches = mlp.forward(x)
_, grads = mlp.backward(y - target, caches)

result = grad_check(
    lambda: float(squared_error(mlp.forward(x)[0], target).sum()),
    mlp.parameters(),
    grads,
    eps=1e-5,
)
print(f"MLP squared-error loss: {result.n_checked} coordinates checked, "
      f"max relative error {result.max_rel_error:.3e}")

# --- full augmented VAE loss ---------------------------------------------------
model = VaeModel(input_dim=12, latent_dim=4, n_private=3, hidden=(16, 8), rng=rng)
xb = rng.standard_normal((6, 12))
yb = rng.integers(0, 3, size=6)
noise = rng.standard_normal((6, 4))
alpha, beta = 2.0, 1.5

breakdown, grads = loss_and_gradients(model, xb, yb, alpha, beta, noise)
print(f"\naugmented loss on a random batch: total {breakdown.total:.4f} "
      f"(recon {breakdown.reconstruction:.4f}, kl {breakdown.kl:.4f}, "
      f"classification {breakdown.classification:.4f})")

result = grad_check(
    lambda: loss_and_gradients(model, xb, yb, alpha, beta, noise)[0].total,
    model.parameters(),
    grads,
    eps=1e-5,
)
print(f"augmented loss gradients: {result.n_checked} coordinates checked, "
      f"max relative error {result.max_rel_error:.3e}")
