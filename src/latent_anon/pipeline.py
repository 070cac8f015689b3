"""The anonymization pipeline, per embedding and over streams.

For each embedding the six steps run in order:

    1. predict the public class u and private class i with the pretrained
       classifiers (the true labels are never consulted),
    2. encode with the VAE of class u and sample a latent z,
    3. pick the target private class i' = Modify(i),
    4. look up the class means for (u, i) and (u, i'),
    5. shift the latent: z_hat = z - mean(u, i) + mean(u, i'),
    6. decode z_hat with the decoder of class u.

Every call returns the reconstructed embedding plus a provenance record of
what was predicted and applied.
"""

import zlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .models.vae import sample_latent
from .transform import SecureCoin, apply_transfer, compute_mean_table

STAGES = ("classify_public", "classify_private", "encode", "transform", "decode")

_DEFAULT_RNG = np.random.default_rng()
# stateless: every flip draws from the OS CSPRNG, so one instance serves all calls
_SECURE_COIN = SecureCoin()


class PipelineError(RuntimeError):
    pass


@dataclass
class ModelRegistry:
    """Everything the pipeline needs: one VAE per public class, the two
    attribute classifiers, the class-mean table and the Modify policy."""

    vaes: dict
    public_classifier: object
    private_classifier: object
    mean_table: object
    policy: object


def validate_registry(registry):
    """Returns a list of defects; empty means the registry is coherent."""
    defects = []
    u_count = registry.public_classifier.n_classes
    m_count = registry.private_classifier.n_classes
    table = registry.mean_table
    dims = {v.input_dim for v in registry.vaes.values()}
    latents = {v.latent_dim for v in registry.vaes.values()}
    if len(dims) > 1:
        defects.append(f"VAEs disagree on input dim: {sorted(dims)}")
    if len(latents) > 1:
        defects.append(f"VAEs disagree on latent dim: {sorted(latents)}")
    for u in range(u_count):
        if u not in registry.vaes:
            defects.append(f"no VAE for public class {u}")
    if dims and registry.public_classifier.input_dim not in dims:
        defects.append("public classifier input dim does not match the VAEs")
    if dims and registry.private_classifier.input_dim not in dims:
        defects.append("private classifier input dim does not match the VAEs")
    if table.n_public != u_count or table.n_private != m_count:
        defects.append(
            f"table covers ({table.n_public}, {table.n_private}) classes, "
            f"classifiers emit ({u_count}, {m_count})"
        )
    if latents and table.latent_dim not in latents:
        defects.append(
            f"table latent dim {table.latent_dim} does not match the VAEs {sorted(latents)}"
        )
    for u, i in np.argwhere(table.counts[:u_count, :m_count] == 0):
        defects.append(f"table is missing cell (u={u}, i={i})")
    policy = registry.policy
    if policy.n_classes != m_count:
        defects.append(
            f"policy covers {policy.n_classes} private classes, classifier emits {m_count}"
        )
    return defects


@dataclass
class AnonymizationRecord:
    index: int
    predicted_public: int
    predicted_private: int
    target_private: int
    applied: bool
    zhat_crc32: int


class StageTimings:
    """Per-stage wall-clock accumulator filled by anonymize_embedding."""

    def __init__(self):
        self.samples = {name: [] for name in STAGES}

    def add(self, stage, seconds):
        self.samples[stage].append(seconds)


def anonymize_embedding(
    x,
    registry,
    *,
    index=0,
    noise_rng=None,
    coin=None,
    latent_mode="sample",
    timings=None,
):
    """Run the six anonymization steps on one flattened embedding, a 1-D row
    of the models' input width; any other shape raises ValueError naming it.

    noise_rng provides the standard-normal draw for the latent sample.
    latent_mode "mean" skips sampling and uses the posterior mean, a
    deterministic variant kept for tests and debugging. The coin drives
    probabilistic Modify and defaults to the secure source.
    """
    x = np.asarray(x, dtype=float)
    dim = registry.public_classifier.input_dim
    if x.shape != (dim,):
        raise ValueError(f"expected a ({dim},) row, got shape {x.shape}")
    if latent_mode not in ("sample", "mean"):
        raise ValueError(f"unknown latent mode {latent_mode!r}")
    timed = timings is not None

    t0 = perf_counter() if timed else 0.0
    u = registry.public_classifier.predict(x)
    if timed:
        timings.add("classify_public", perf_counter() - t0)

    t0 = perf_counter() if timed else 0.0
    i = registry.private_classifier.predict(x)
    if timed:
        timings.add("classify_private", perf_counter() - t0)

    vae = registry.vaes.get(u)
    if vae is None:
        raise PipelineError(f"no VAE registered for predicted public class {u}")

    t0 = perf_counter() if timed else 0.0
    dist = vae.encode(x)
    if latent_mode == "mean":
        z = dist.mu
    else:
        rng = noise_rng if noise_rng is not None else _DEFAULT_RNG
        z = sample_latent(dist, rng.standard_normal(vae.latent_dim))
    if timed:
        timings.add("encode", perf_counter() - t0)

    t0 = perf_counter() if timed else 0.0
    if registry.policy.mode == "probabilistic" and coin is None:
        coin = _SECURE_COIN
    i_prime, applied = registry.policy.modify(i, coin)
    z_hat = apply_transfer(z, registry.mean_table, u, i, i_prime)
    crc = zlib.crc32(
        z_hat
        if z_hat.dtype == "<f8" and z_hat.flags.c_contiguous
        else np.ascontiguousarray(z_hat, dtype="<f8")
    )
    if timed:
        timings.add("transform", perf_counter() - t0)

    t0 = perf_counter() if timed else 0.0
    x_hat = vae.decode(z_hat)
    if timed:
        timings.add("decode", perf_counter() - t0)

    record = AnonymizationRecord(
        index=index,
        predicted_public=u,
        predicted_private=i,
        target_private=i_prime,
        applied=applied,
        zhat_crc32=crc,
    )
    return x_hat, record


def anonymize_batch(embeddings, registry, *, noise_rng=None, coin=None, latent_mode="sample"):
    """Elementwise anonymization, order preserved.

    Accepts Embedding objects or raw vectors. Returns (outputs (N, D), records).
    Per-item failures carry the offending index.
    """
    xs = [e.x if hasattr(e, "x") else np.asarray(e, dtype=float) for e in embeddings]
    outputs = []
    records = []
    for k, x in enumerate(xs):
        try:
            x_hat, record = anonymize_embedding(
                x,
                registry,
                index=k,
                noise_rng=noise_rng,
                coin=coin,
                latent_mode=latent_mode,
            )
        except (PipelineError, ValueError) as exc:
            raise PipelineError(f"embedding {k}: {exc}") from exc
        outputs.append(x_hat)
        records.append(record)
    if not outputs:
        dim = registry.public_classifier.input_dim
        return np.empty((0, dim)), records
    return np.stack(outputs), records


def anonymize_stream(samples, window, stride, registry, **kwargs):
    """Windowed anonymization over a stream of C-channel sample rows.

    Once `window` rows have arrived, emits one anonymized embedding every
    `stride` rows. Yields (x_hat, record) pairs in arrival order. Rows are
    appended to a contiguous buffer of window + max(window, stride) rows,
    so each window is a view into it; when the buffer is full its last
    window - 1 rows move to the front. The generator owns the buffer, so
    each stream has a single writer by construction.

    A first row whose width times `window` is not the models' input dim
    raises PipelineError at once; a failing window raises PipelineError
    naming its index. Either ends the generator.
    """
    if window < 1 or stride < 1:
        raise ValueError("window and stride must be >= 1")
    capacity = window + max(window, stride)
    buffer = None
    end = 0
    due = window  # rows until the next window is complete
    index = 0
    for row in samples:
        row = np.asarray(row, dtype=float)
        if row.ndim != 1:
            row = row.reshape(-1)
        if buffer is None:
            n_channels = row.size
            dim = registry.public_classifier.input_dim
            if window * n_channels != dim:
                raise PipelineError(
                    f"window {window} x {n_channels} channels = {window * n_channels} "
                    f"values, the models expect {dim}"
                )
            buffer = np.empty((capacity, n_channels))
        elif row.size != n_channels:
            raise PipelineError(
                f"channel count changed mid-stream: {row.size} after {n_channels}"
            )
        if end == capacity:
            buffer[: window - 1] = buffer[capacity - window + 1 :]
            end = window - 1
        buffer[end] = row
        end += 1
        due -= 1
        if not due:
            due = stride
            yield _anonymize_window(buffer[end - window : end].reshape(-1), registry, index, kwargs)
            index += 1


def _anonymize_window(x, registry, index, kwargs):
    """anonymize_embedding on one stream window; a failure names the window.
    A call of its own, so a paused generator holds no reference to the
    result it handed out."""
    try:
        return anonymize_embedding(x, registry, index=index, **kwargs)
    except (PipelineError, ValueError) as exc:
        raise PipelineError(f"window {index}: {exc}") from exc


def make_anonymizer(registry, seed=None):
    """Batch-anonymization closure with its own seeded noise stream.

    The probabilistic coin stays cryptographically secure regardless of the
    seed; the seed only pins the latent sampling noise.
    """
    noise_rng = np.random.default_rng(seed)

    def anonymize(embeddings):
        outputs, _ = anonymize_batch(embeddings, registry, noise_rng=noise_rng)
        return outputs

    return anonymize


def encode_mean_table(vaes, embeddings, n_public, n_private):
    """The class-mean table over labelled embeddings, normally the training
    split: each embedding is encoded to its posterior mean by the VAE of its
    true public class."""
    latents = []
    for e in embeddings:
        vae = vaes.get(e.true_public)
        if vae is None:
            raise PipelineError(f"no VAE for public class {e.true_public}")
        latents.append((vae.encode(e.x).mu, e.true_public, e.true_private))
    return compute_mean_table(latents, n_public, n_private)
