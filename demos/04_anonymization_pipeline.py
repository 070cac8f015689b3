"""The full anonymization pipeline on the synthetic oracle dataset.

Trains classifiers and one VAE per public class, computes the mean table,
then measures utility (public attribute survives) and privacy (private
attribute flips) under deterministic and probabilistic modification.
"""

import numpy as np

from latent_anon.attack import evaluate_utility_privacy
from latent_anon.data import SynthConfig, subject_split, synth_generate, window_embeddings
from latent_anon.models import TrainConfig, train_classifier, train_vae
from latent_anon.pipeline import ModelRegistry, encode_mean_table, make_anonymizer, validate_registry
from latent_anon.transform import ModifyPolicy

cfg = SynthConfig(seed=7)  # 4 public x 2 private classes
series = synth_generate(cfg)
embeddings = [e for s in series for e in window_embeddings(s, 32, 16)]
split = subject_split(embeddings, 0.8, seed=1)
print(f"dataset: {len(split.train)} train / {len(split.test)} test embeddings, "
      f"U={cfg.n_public} public and M={cfg.n_private} private classes")

config = TrainConfig(epochs=150, seed=3)
public_clf, _ = train_classifier(split.train, "public", config, n_classes=cfg.n_public)
private_clf, _ = train_classifier(split.train, "private", config, n_classes=cfg.n_private)
vaes = {}
for u in range(cfg.n_public):
    subset = [e for e in split.train if e.true_public == u]
    vaes[u], history = train_vae(subset, config, n_private=cfg.n_private)
    print(f"VAE for public class {u}: loss {history[0]:8.2f} -> {history[-1]:6.2f}")

table = encode_mean_table(vaes, split.train, cfg.n_public, cfg.n_private)

for mode in ("deterministic", "probabilistic"):
    registry = ModelRegistry(
        vaes=vaes,
        public_classifier=public_clf,
        private_classifier=private_clf,
        mean_table=table,
        policy=ModifyPolicy(mode=mode, n_classes=cfg.n_private),
    )
    assert validate_registry(registry) == []
    report = evaluate_utility_privacy(
        make_anonymizer(registry, seed=11), split.test,
        public_clf, private_clf, cfg.n_public,
    )
    w = report.weighted
    print(f"\n{mode} modification:")
    print(f"  public accuracy  {w.public_before:.3f} -> {w.public_after:.3f}   (utility kept)")
    print(f"  private accuracy {w.private_before:.3f} -> {w.private_after:.3f}   (privacy gained)")
    for row in report.rows:
        print(f"    class u={row.public_class}: n={row.n_embeddings:3d} "
              f"public after {row.public_after:.3f}, private after {row.private_after:.3f}")
