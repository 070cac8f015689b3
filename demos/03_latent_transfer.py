"""Class-mean tables and transfer vectors in latent space.

Demonstrates the arithmetic that moves a latent between private classes, its
exact reversibility, and the table file round trip.
"""

import tempfile
from pathlib import Path

import numpy as np

from latent_anon.transform import (
    ModifyPolicy,
    SecureCoin,
    apply_transfer,
    compute_mean_table,
    load_table,
    save_table,
    transfer_vector,
)

rng = np.random.default_rng(4)

# fake latents for 2 public x 3 private class cells
latents = []
for u in range(2):
    for i in range(3):
        center = rng.standard_normal(4) * 2
        for _ in range(50):
            latents.append((center + 0.1 * rng.standard_normal(4), u, i))

table = compute_mean_table(latents, n_public=2, n_private=3)
for (u, i), (mean, count) in sorted(table.cells().items()):
    print(f"cell (u={u}, i={i}): count {count:3d}, mean {np.round(mean, 2)}")

delta = transfer_vector(table, 0, 0, 1)
print(f"\ntransfer vector (u=0, 0 -> 1): {np.round(delta, 3)}")

z = np.asarray(latents[0][0])
moved = apply_transfer(z, table, 0, 0, 1)
back = apply_transfer(moved, table, 0, 1, 0)
print(f"round trip max error: {np.max(np.abs(back - z)):.2e}")

# cycling through all three private classes returns to the start
current, i = z, 0
for _ in range(3):
    nxt = (i + 1) % 3
    current = apply_transfer(current, table, 0, i, nxt)
    i = nxt
print(f"3-cycle telescoping error: {np.max(np.abs(current - z)):.2e}")

# the probabilistic Modify applies the move for about half the embeddings
policy = ModifyPolicy(mode="probabilistic", n_classes=3)
coin = SecureCoin()
applied = sum(policy.modify(0, coin)[1] for _ in range(10_000))
print(f"\nprobabilistic Modify applied fraction over 10k draws: {applied / 10_000:.3f}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "table.zbar"
    save_table(table, path)
    print(f"\ntable file: {path.stat().st_size} bytes, "
          f"round-trip equal: {load_table(path) == table}")
