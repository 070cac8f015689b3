"""Hand-written backprop vs the finite-difference oracle.

Builds the classifier's cross-entropy loss and the full VAE training loss,
then compares every analytic gradient coordinate against central
differences.
"""

import numpy as np

from latent_anon.models import Classifier, VaeModel, loss_and_gradients
from latent_anon.nn import cross_entropy_from_labels, grad_check

rng = np.random.default_rng(0)

# --- relu classifier with softmax + cross entropy ----------------------------
clf = Classifier(input_dim=5, n_classes=3, hidden=(16, 8), rng=rng)
x = rng.standard_normal((10, 5))
y = rng.integers(0, 3, size=10)

_, grads = clf.loss_and_gradients(x, y)


def relu_preactivations():
    # a probe that flips the sign of one straddles a relu kink and is skipped
    h, margins = x, []
    for layer in clf.mlp.layers[:-1]:
        z = h @ layer.W.T + layer.b
        margins.append(z.ravel())
        h = np.maximum(z, 0.0)
    return np.concatenate(margins)


result = grad_check(
    lambda: float(cross_entropy_from_labels(clf.predict_proba(x), y).sum()),
    clf.parameters(),
    grads,
    eps=1e-5,
    kink_margins=relu_preactivations,
)
print(f"classifier cross-entropy loss: {result.n_checked} coordinates checked, "
      f"{result.n_skipped} skipped at relu kinks, max relative error {result.max_rel_error:.3e}")

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
