"""Writes tests/data/training_golden.jsonl, the committed results of a
fixed-seed train_classifier and train_vae run, and of the mean table the
trained VAE encodes, that test_training_golden checks.

The data come from integer formulas (make_pipeline_golden.formula): ROWS rows
of DIM values, row k labelled k % N_PRIVATE and shifted by its label, all of
public class 0. Both trainers run CONFIG: EPOCHS epochs in batches of 8, the
last batch of each epoch partial. The first line of the file holds the
environment tag and the SHA-256 of both parameter vectors, both loss
histories and the table; the next two lines are each one model's loss
history and parameter vector, and the last the table's means and counts
(encode_mean_table over the same rows). Rerun only when training's results
change on purpose, and say why in CHANGES.md:

    PYTHONPATH=src python tests/make_training_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from latent_anon.data import Embedding
from latent_anon.models import TrainConfig, train_classifier, train_vae
from latent_anon.pipeline import encode_mean_table
from make_pipeline_golden import environment, formula

PATH = Path(__file__).parent / "data" / "training_golden.jsonl"
ROWS, DIM, N_PRIVATE = 45, 12, 3
CONFIG = TrainConfig(epochs=4, batch_size=8, learning_rate=1e-2, seed=2020, latent_dim=3, hidden=(8, 6))


def dataset():
    x = formula(ROWS * DIM, 41, 89, 30).reshape(ROWS, DIM)
    return [Embedding(x=x[k] + k % N_PRIVATE, true_public=0, true_private=k % N_PRIVATE) for k in range(ROWS)]


def run_models():
    """{name: (parameter vector, loss history)} of both trainers, and the
    mean table the trained VAE encodes."""
    embeddings = dataset()
    classifier, classifier_history = train_classifier(embeddings, "private", CONFIG, n_classes=N_PRIVATE)
    vae, vae_history = train_vae(embeddings, CONFIG, n_private=N_PRIVATE)
    models = {
        "classifier": (classifier.parameter_vector, classifier_history),
        "vae": (vae.parameter_vector, vae_history),
    }
    return models, encode_mean_table({0: vae}, embeddings, 1, N_PRIVATE)


def digest(models, table):
    """SHA-256 over each model's name, parameters as float64 little-endian
    and loss history, then the table's means and counts: equal only if every
    bit is."""
    h = hashlib.sha256()
    for name, (parameters, history) in models.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(parameters, dtype="<f8").tobytes())
        h.update(np.asarray(history, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(table.means, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(table.counts, dtype="<u8").tobytes())
    return h.hexdigest()


def main():
    models, table = run_models()
    lines = [json.dumps({"environment": environment(), "sha256": digest(models, table)})]
    for name, (parameters, history) in models.items():
        lines.append(json.dumps({"model": name, "history": history, "parameters": parameters.tolist()}))
    lines.append(json.dumps({"means": table.means.tolist(), "counts": table.counts.tolist()}))
    PATH.write_text("\n".join(lines) + "\n")
    print(f"wrote {PATH} ({len(models)} models)")


if __name__ == "__main__":
    main()
