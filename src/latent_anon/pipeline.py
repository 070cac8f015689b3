"""The anonymization pipeline, over a row, a batch or a stream.

For each embedding the six steps run in order:

    1. predict the public class u and private class i with the pretrained
       classifiers (the true labels are never consulted),
    2. encode with the VAE of class u and sample a latent z,
    3. pick the target private class i' = Modify(i),
    4. look up the class means for (u, i) and (u, i'),
    5. shift the latent: z_hat = z - mean(u, i) + mean(u, i'),
    6. decode z_hat with the decoder of class u.

anonymize_embedding runs them on one (D,) row or on a (B, D) batch. A batch
takes each step once for all rows: both classifiers see the whole batch, the
rows are grouped by predicted u so each group makes one encode and one
decode call, the noise is one (B, J) draw, and Modify still flips one coin
per row in row order. The outputs equal the row-by-row path up to float
summation order. Batches, archives and the attack go through the batch
form; streams and the stage timings through the row form.

The latent is always sampled, z = mu + exp(logvar / 2) * noise, with the
noise drawn from the caller's noise source; a source of zeros gives the
posterior mean. A latent that is not finite raises ValueError before it is
decoded, so no non-finite row is released. Without a coin, probabilistic
Modify flips the secure source, the default that ModifyPolicy.modify holds.

Every call returns the reconstructed embedding plus a provenance record of
what was predicted and applied, one record per row.
"""

import math
import zlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .models.vae import sample_latent
from .transform import TableError, apply_transfer, compute_mean_table

STAGES = ("classify_public", "classify_private", "encode", "transform", "decode")

_DEFAULT_RNG = np.random.default_rng()


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
    timings=None,
):
    """Run the six anonymization steps on one flattened embedding, a (D,) row
    of the models' input width, or on each row of a nonempty (B, D) batch;
    any other shape raises ValueError naming it.

    A row gives (x_hat, record); a batch gives ((B, D) outputs, records
    numbered index, index + 1, ...), and a failure that one row causes
    names that row as "embedding index + k". noise_rng provides the
    standard-normal draw for the latent sample, row after row; a source
    whose standard_normal returns zeros gives the posterior mean. The coin
    drives probabilistic Modify, one flip per row in row order; None leaves
    the default, the secure source, to ModifyPolicy.modify. timings, a
    StageTimings, collects per-stage times of a row; a batch with timings
    raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    dim = registry.public_classifier.input_dim
    if x.shape != (dim,):
        if x.ndim != 2 or x.shape[1] != dim or not x.shape[0]:
            raise ValueError(f"expected a ({dim},) row or a (B, {dim}) batch, got shape {x.shape}")
        if timings is not None:
            raise ValueError("stage timings are per row; a batch cannot record them")
        return _anonymize_rows(x, registry, index, noise_rng, coin)
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
    rng = noise_rng if noise_rng is not None else _DEFAULT_RNG
    z = sample_latent(vae.encode(x), rng.standard_normal(vae.latent_dim))
    if timed:
        timings.add("encode", perf_counter() - t0)

    t0 = perf_counter() if timed else 0.0
    i_prime, applied = registry.policy.modify(i, coin)
    z_hat = apply_transfer(z, registry.mean_table, u, i, i_prime)
    # a log-variance above about 1,419 overflows exp(logvar / 2) to inf
    if not math.isfinite(np.add.reduce(z_hat, axis=None)) and not np.isfinite(z_hat).all():
        raise ValueError("non-finite value in the sampled latent")
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


def _anonymize_rows(x, registry, index, noise_rng, coin):
    """anonymize_embedding's six steps on a (B, D) batch, each step once for
    all rows; the rows are grouped by predicted public class for the VAE
    calls. A check that a row fails names the lowest such row."""
    n = x.shape[0]
    _check_finite(x, index, "the row")
    u = _predict(registry.public_classifier, x, index)
    i = _predict(registry.private_classifier, x, index)
    classes, first = np.unique(u, return_index=True)
    missing = [k for c, k in zip(classes.tolist(), first.tolist()) if c not in registry.vaes]
    if missing:
        k = min(missing)
        raise PipelineError(
            f"embedding {index + k}: no VAE registered for predicted public class {u[k]}"
        )

    policy = registry.policy
    modified = []
    try:
        for k, i_k in enumerate(i.tolist()):
            modified.append(policy.modify(i_k, coin))
    except ValueError as exc:
        raise ValueError(f"embedding {index + k}: {exc}") from exc
    targets, applied = zip(*modified)
    t = np.array(targets)
    table = registry.mean_table
    moved = t != i
    lacking = moved & ~(_has_cells(table, u, i) & _has_cells(table, u, t))
    if lacking.any():
        k = int(lacking.argmax())
        cell = i[k] if not table.has(u[k], i[k]) else t[k]
        raise TableError(
            f"embedding {index + k}: no mean latent recorded for cell (u={u[k]}, i={cell})"
        )

    latent_dim = table.latent_dim
    rng = noise_rng if noise_rng is not None else _DEFAULT_RNG
    noise = rng.standard_normal((n, latent_dim))
    z_hat = np.empty((n, latent_dim), dtype="<f8")
    groups = []
    for c in classes.tolist():
        rows = np.flatnonzero(u == c)
        vae = registry.vaes[c]
        if vae.latent_dim != latent_dim:
            raise ValueError(
                f"embedding {index + rows[0]}: latent has shape ({vae.latent_dim},), "
                f"table expects ({latent_dim},)"
            )
        z = sample_latent(vae.encode(x[rows]), noise[rows])
        # the transfer, row for row the arithmetic of apply_transfer
        shift = moved[rows]
        if shift.any():
            moving = rows[shift]
            z[shift] = z[shift] - table.means[c, i[moving]] + table.means[c, t[moving]]
        z_hat[rows] = z
        groups.append((rows, vae))
    _check_finite(z_hat, index, "the sampled latent")
    crcs = [zlib.crc32(z_row) for z_row in z_hat]
    outputs = np.empty((n, x.shape[1]))
    for rows, vae in groups:
        outputs[rows] = vae.decode(z_hat[rows])

    records = [
        AnonymizationRecord(index + k, *fields)
        for k, fields in enumerate(zip(u.tolist(), i.tolist(), targets, applied, crcs))
    ]
    return outputs, records


def _check_finite(rows, index, what):
    """Raise ValueError naming the first of the rows with a non-finite value.
    One reduction: the sum is finite only if every value is; a finite sum
    that overflows gets the exact check."""
    if not math.isfinite(np.add.reduce(rows, axis=None)):
        bad = ~np.isfinite(rows).all(axis=1)
        if bad.any():
            raise ValueError(f"embedding {index + int(bad.argmax())}: non-finite value in {what}")


def _predict(classifier, x, index):
    """classifier.predict over the batch. It fails for the batch as a whole
    (on a non-finite logit), so a failure is named by the first row that
    fails on its own."""
    try:
        return classifier.predict(x)
    except ValueError as exc:
        for k, row in enumerate(x):
            try:
                classifier.predict(row)
            except ValueError:
                raise ValueError(f"embedding {index + k}: {exc}") from exc
        raise


def _has_cells(table, u, i):
    """Per row, whether the table holds cell (u, i); classes outside its
    counts have none."""
    inside = (u < table.n_public) & (i < table.n_private)
    found = np.zeros(len(u), dtype=bool)
    found[inside] = table.counts[u[inside], i[inside]] > 0
    return found


def anonymize_batch(embeddings, registry, *, noise_rng=None, coin=None, latent_mode="sample"):
    """Anonymize a list of embeddings, order preserved, in one batch call of
    anonymize_embedding on the stacked rows.

    Accepts Embedding objects or raw vectors. Returns (outputs (N, D), records).
    A failure raises PipelineError naming the lowest offending index.
    """
    # latent_mode stays only for callers that pass "sample" by name
    if latent_mode != "sample":
        raise ValueError(f"unknown latent mode {latent_mode!r}")
    dim = registry.public_classifier.input_dim
    xs = [e.x if hasattr(e, "x") else e for e in embeddings]
    for k, x in enumerate(xs):
        if np.shape(x) != (dim,):
            raise PipelineError(f"embedding {k}: expected a ({dim},) row, got shape {np.shape(x)}")
    if not xs:
        return np.empty((0, dim)), []
    try:
        return anonymize_embedding(np.stack(xs, dtype=float), registry, noise_rng=noise_rng, coin=coin)
    except (PipelineError, ValueError) as exc:
        raise PipelineError(str(exc)) from exc


def anonymize_stream(samples, window, stride, registry, noise_rng=None, coin=None):
    """Windowed anonymization over a stream of C-channel sample rows.

    Once `window` rows have arrived, emits one anonymized embedding every
    `stride` rows. Yields (x_hat, record) pairs in arrival order; noise_rng
    and coin are anonymize_embedding's, shared by the windows. Rows are
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
            window_x = buffer[end - window : end].reshape(-1)
            yield _anonymize_window(window_x, registry, index, noise_rng, coin)
            index += 1


def _anonymize_window(x, registry, index, noise_rng, coin):
    """anonymize_embedding on one stream window; a failure names the window.
    A call of its own, so a paused generator holds no reference to the
    result it handed out."""
    try:
        return anonymize_embedding(x, registry, index=index, noise_rng=noise_rng, coin=coin)
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
