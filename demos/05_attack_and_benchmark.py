"""Why the probabilistic mode matters, and what anonymization costs.

Runs the re-identification attack against both modification modes (the
attacker retrains on obfuscated data with true labels), then times every
pipeline stage against the real-time budget.
"""

import numpy as np

from latent_anon.attack import AttackConfig, run_reid_attack
from latent_anon.bench import benchmark_pipeline, check_realtime, time_budget_ms
from latent_anon.data import SynthConfig, subject_split, synth_generate, window_embeddings
from latent_anon.models import TrainConfig, train_classifier, train_vae
from latent_anon.pipeline import ModelRegistry, encode_mean_table, make_anonymizer
from latent_anon.transform import ModifyPolicy

cfg = SynthConfig(seed=7)
series = synth_generate(cfg)
embeddings = [e for s in series for e in window_embeddings(s, 32, 16)]
split = subject_split(embeddings, 0.8, seed=1)

config = TrainConfig(epochs=150, seed=3)
public_clf, _ = train_classifier(split.train, "public", config, n_classes=cfg.n_public)
private_clf, _ = train_classifier(split.train, "private", config, n_classes=cfg.n_private)
vaes = {u: train_vae([e for e in split.train if e.true_public == u], config,
                     n_private=cfg.n_private)[0]
        for u in range(cfg.n_public)}
table = encode_mean_table(vaes, split.train, cfg.n_public, cfg.n_private)


def registry(mode):
    return ModelRegistry(
        vaes=vaes, public_classifier=public_clf, private_classifier=private_clf,
        mean_table=table, policy=ModifyPolicy(mode=mode, n_classes=cfg.n_private),
    )


# --- re-identification attack --------------------------------------------------
attack_config = AttackConfig(sample_fraction=0.2, n_runs=10, seed=42,
                             attacker=TrainConfig(epochs=100))
print("re-identification attack (attacker trains on obfuscated data + true labels):")
for mode in ("deterministic", "probabilistic"):
    reg = registry(mode)
    report = run_reid_attack(
        lambda run_seed: make_anonymizer(reg, seed=run_seed),
        split.train, split.test, cfg.n_private, attack_config, mode=mode,
    )
    print(f"  {mode:<14} mean accuracy {report.mean:.3f} (std {report.std:.3f})")
print("the deterministic flip is trivially invertible; the secret coin is not")

# --- per-stage latency ----------------------------------------------------------
reg = registry("deterministic")
timing = benchmark_pipeline(reg, split.test[:128], warmup=64, repetitions=3, seed=5)
print("\n" + timing.to_table())
for rate in (50.0, 20.0):
    budget = time_budget_ms(rate, 10)
    verdict = check_realtime(timing, budget)
    print(f"at {rate:.0f} Hz with stride 10 (budget {budget:.0f} ms): {verdict.describe()}")
