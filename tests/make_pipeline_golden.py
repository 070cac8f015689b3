"""Writes tests/data/pipeline_golden.jsonl, the committed outputs of the row,
batch and stream paths that test_pipeline_golden checks.

The registry is built without training: every parameter, input, table mean
and coin flip comes from integer formulas, and the latent noise from
np.random.default_rng(NOISE_SEED). Each mode (deterministic, probabilistic,
identity) runs the three paths:

    row     anonymize_embedding on each of the ROWS rows, index k, one noise
            generator and one SequenceCoin shared by the calls;
    batch   anonymize_batch on the same rows, a fresh generator and coin;
    stream  anonymize_stream over SAMPLES rows of CHANNELS values, window
            WINDOW and stride STRIDE, a fresh generator and coin.

The first line of the file holds the environment tag and the SHA-256 of
every output's float64 bytes and every record; each further line is one
(path, mode) case. Rerun only when the pipeline's outputs change on purpose,
and say why in CHANGES.md:

    PYTHONPATH=src python tests/make_pipeline_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from latent_anon.models import Classifier, VaeModel
from latent_anon.pipeline import ModelRegistry, anonymize_batch, anonymize_embedding, anonymize_stream
from latent_anon.transform import MeanLatentTable, ModifyPolicy, SequenceCoin

PATH = Path(__file__).parent / "data" / "pipeline_golden.jsonl"
MODES = ("deterministic", "probabilistic", "identity")
CHANNELS, WINDOW, STRIDE = 3, 8, 4
DIM = CHANNELS * WINDOW
N_PUBLIC, N_PRIVATE, LATENT, HIDDEN = 3, 3, 4, (16, 8)
ROWS, SAMPLES = 16, 40
NOISE_SEED = 2020
RECORD_FIELDS = ("index", "predicted_public", "predicted_private", "target_private", "applied", "zhat_crc32")


def formula(n, step, period, scale):
    """n values ((k * k + step * k) mod period - period // 2) / scale,
    k = 0, 1, ...: a spread of signs and sizes from integer arithmetic and
    one correctly rounded division each."""
    k = np.arange(n)
    return ((k * k + step * k) % period - period // 2) / scale


def golden_registry(mode):
    """Models with formula parameters (the constructors' random
    initialisation is overwritten), a table holding every (u, i) cell."""
    rng = np.random.default_rng(0)
    public = Classifier(DIM, N_PUBLIC, "public", hidden=HIDDEN, rng=rng)
    private = Classifier(DIM, N_PRIVATE, "private", hidden=HIDDEN, rng=rng)
    vaes = {
        u: VaeModel(DIM, LATENT, N_PRIVATE, public_class=u, hidden=HIDDEN, rng=rng)
        for u in range(N_PUBLIC)
    }
    for step, model in enumerate([public, private, *vaes.values()]):
        vector = model.parameter_vector
        vector[:] = formula(vector.size, 37 + 6 * step, 101, 40)
    means = formula(N_PUBLIC * N_PRIVATE * LATENT, 7, 23, 8).reshape(N_PUBLIC, N_PRIVATE, LATENT)
    cells = {(u, i): (means[u, i], 1 + u + i) for u in range(N_PUBLIC) for i in range(N_PRIVATE)}
    return ModelRegistry(
        vaes=vaes,
        public_classifier=public,
        private_classifier=private,
        mean_table=MeanLatentTable(N_PUBLIC, N_PRIVATE, LATENT, cells),
        policy=ModifyPolicy(mode=mode, n_classes=N_PRIVATE),
    )


def flips(n):
    return [(k * 5) % 7 < 3 for k in range(n)]


def run_cases():
    """(name, outputs (n, DIM), records) of every path in every mode."""
    rows = formula(ROWS * DIM, 53, 97, 24).reshape(ROWS, DIM)
    samples = formula(SAMPLES * CHANNELS, 29, 89, 30).reshape(SAMPLES, CHANNELS)
    cases = []
    for mode in MODES:
        registry = golden_registry(mode)
        noise, coin = np.random.default_rng(NOISE_SEED), SequenceCoin(flips(ROWS))
        results = [
            anonymize_embedding(x, registry, index=k, noise_rng=noise, coin=coin)
            for k, x in enumerate(rows)
        ]
        cases.append((f"row/{mode}", np.stack([x_hat for x_hat, _ in results]), [r for _, r in results]))
        outputs, records = anonymize_batch(
            list(rows), registry, noise_rng=np.random.default_rng(NOISE_SEED), coin=SequenceCoin(flips(ROWS))
        )
        cases.append((f"batch/{mode}", outputs, records))
        windows = list(
            anonymize_stream(
                samples, WINDOW, STRIDE, registry,
                noise_rng=np.random.default_rng(NOISE_SEED), coin=SequenceCoin(flips(SAMPLES)),
            )
        )
        cases.append((f"stream/{mode}", np.stack([x_hat for x_hat, _ in windows]), [r for _, r in windows]))
    return cases


def record_columns(records):
    return {name: [int(getattr(r, name)) for r in records] for name in RECORD_FIELDS}


def digest(cases):
    """SHA-256 over each case's name, outputs as float64 little-endian and
    records: equal only if every bit is."""
    h = hashlib.sha256()
    for name, outputs, records in cases:
        h.update(name.encode())
        h.update(np.ascontiguousarray(outputs, dtype="<f8").tobytes())
        h.update(json.dumps(record_columns(records), sort_keys=True).encode())
    return h.hexdigest()


def environment():
    """numpy's version, BLAS build and core, and the SIMD targets found: the
    bitwise digest is expected to repeat only where all of them match."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 has no mode
        return f"numpy {np.__version__}"
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]["found"]
    return f"numpy {np.__version__}; {blas.get('openblas configuration', blas['name'])}; SIMD {' '.join(simd)}"


def main():
    cases = run_cases()
    lines = [json.dumps({"environment": environment(), "sha256": digest(cases)})]
    for name, outputs, records in cases:
        lines.append(json.dumps({"case": name, "outputs": outputs.tolist(), **record_columns(records)}))
    PATH.write_text("\n".join(lines) + "\n")
    print(f"wrote {PATH} ({len(cases)} cases)")


if __name__ == "__main__":
    main()
