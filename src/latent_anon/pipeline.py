"""The anonymization pipeline, over a row, a batch or a stream.

For each embedding the six steps run in order:

    1. predict the public class u and private class i with the pretrained
       classifiers (the true labels are never consulted),
    2. encode with the VAE of class u and sample a latent z,
    3. pick the target private class i' = Modify(i),
    4. look up the class means for (u, i) and (u, i'),
    5. shift the latent: z_hat = z - mean(u, i) + mean(u, i'),
    6. decode z_hat with the decoder of class u.

anonymize_embedding is their one implementation, which rows, streams,
batches, archives, the attack and the stage timings all run. A (D,) row is
one group, every model call on the vector. A (B, D) batch takes each step
once for all rows: both classifiers see the whole batch, the rows are
grouped by predicted u so each group makes one encode and one decode call,
the noise is one (B, J) draw, and Modify still flips one coin per row in
row order. Its outputs equal those of its rows one by one up to float
summation order.

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
from .transform import TableError, compute_mean_table

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

    A row gives (x_hat, record) and makes every model call on the vector; a
    batch gives ((B, D) outputs, records numbered index, index + 1, ...)
    and calls each classifier once and each VAE once per predicted public
    class. A failure names the lowest row that causes it as
    "embedding index + k". noise_rng provides the standard-normal draw for
    the latent sample, row after row; a source whose standard_normal
    returns zeros gives the posterior mean. The coin drives probabilistic
    Modify, one flip per row in row order; None leaves the default, the
    secure source, to ModifyPolicy.modify. timings, a StageTimings,
    collects one sample per stage of the call.
    """
    x = np.asarray(x, dtype=float)
    dim = registry.public_classifier.input_dim
    if x.shape != (dim,) and (x.ndim != 2 or x.shape[1] != dim or not x.shape[0]):
        raise ValueError(f"expected a ({dim},) row or a (B, {dim}) batch, got shape {x.shape}")
    _check_finite(x, index, "the row")
    timed = timings is not None

    t0 = perf_counter() if timed else 0.0
    u = _predict(registry.public_classifier, x, index)
    if timed:
        timings.add("classify_public", perf_counter() - t0)

    t0 = perf_counter() if timed else 0.0
    i = _predict(registry.private_classifier, x, index)
    if timed:
        timings.add("classify_private", perf_counter() - t0)

    table = registry.mean_table
    groups = _groups(u, registry.vaes, table.latent_dim, index)

    t0 = perf_counter() if timed else 0.0
    rng = noise_rng if noise_rng is not None else _DEFAULT_RNG
    noise = rng.standard_normal(x.shape[:-1] + (table.latent_dim,))
    z_hat = None
    for _, rows, vae in groups:
        z_hat = _place(z_hat, rows, sample_latent(vae.encode(x[rows]), noise[rows]), len(x))
    if timed:
        timings.add("encode", perf_counter() - t0)

    t0 = perf_counter() if timed else 0.0
    modified = []
    try:
        for k, i_k in enumerate(i.tolist() if x.ndim == 2 else [i]):
            modified.append(registry.policy.modify(i_k, coin))
    except ValueError as exc:
        raise ValueError(f"embedding {index + k}: {exc}") from exc
    targets, applied = zip(*modified)
    _transfer(z_hat, table, u, i, targets, index)
    # a log-variance above about 1,419 overflows exp(logvar / 2) to inf
    _check_finite(z_hat, index, "the sampled latent")
    crcs = [zlib.crc32(z) for z in z_hat] if x.ndim == 2 else [zlib.crc32(z_hat)]
    if timed:
        timings.add("transform", perf_counter() - t0)

    t0 = perf_counter() if timed else 0.0
    outputs = None
    for _, rows, vae in groups:
        outputs = _place(outputs, rows, vae.decode(z_hat[rows]), len(x))
    if timed:
        timings.add("decode", perf_counter() - t0)

    if x.ndim == 1:
        return outputs, AnonymizationRecord(index, u, i, targets[0], applied[0], crcs[0])
    columns = zip(u.tolist(), i.tolist(), targets, applied, crcs)
    return outputs, [AnonymizationRecord(index + k, *fields) for k, fields in enumerate(columns)]


def _groups(u, vaes, latent_dim, index):
    """(public class, rows, VAE) per predicted class, ordered by the first
    row that predicts it. A row is one group whose rows, ..., take it whole;
    a batch group's rows are the numbers of the rows that predict it. A
    class with no VAE, or one of another latent width than the table's,
    fails naming that first row."""
    if isinstance(u, np.ndarray):
        classes, first = np.unique(u, return_index=True)
        found = sorted(zip(first.tolist(), classes.tolist()))
        groups = [(c, np.flatnonzero(u == c), vaes.get(c)) for _, c in found]
    else:
        groups = [(u, ..., vaes.get(u))]
    for c, rows, vae in groups:
        if vae is None or vae.latent_dim != latent_dim:
            where = f"embedding {index if rows is ... else index + rows[0]}"
            if vae is None:
                raise PipelineError(f"{where}: no VAE registered for predicted public class {c}")
            raise ValueError(
                f"{where}: latent has shape ({vae.latent_dim},), table expects ({latent_dim},)"
            )
    return groups


def _transfer(z_hat, table, u, i, targets, index):
    """z - mean(u, i) + mean(u, i') in place on each latent whose target i'
    is not its predicted i, the arithmetic of transform.apply_transfer: a
    row's own move, or a batch's one move per distinct (u, i, i'), in the
    order of their lowest rows. A move from or to a cell the table lacks
    fails naming its lowest row."""
    if isinstance(u, np.ndarray):
        t = np.array(targets)
        moved = t != i
        moves = []
        for c, a, b in set(zip(u[moved].tolist(), i[moved].tolist(), t[moved].tolist())):
            selected = (u == c) & (i == a) & (t == b)
            moves.append((int(selected.argmax()), selected, c, a, b))
        moves.sort(key=lambda move: move[0])
    else:
        moves = [(0, ..., u, i, targets[0])] if targets[0] != i else []
    for k, selected, c, a, b in moves:
        try:
            moved = z_hat[selected]
            moved -= table.mean(c, a)
            moved += table.mean(c, b)
        except TableError as exc:
            raise TableError(f"embedding {index + k}: {exc}") from exc
        z_hat[selected] = moved


def _place(joined, rows, part, n):
    """A row's part as the result (its rows are ...), or a batch group's
    part copied into its rows of joined, made (n, width) on first use."""
    if rows is ...:
        return part
    if joined is None:
        joined = np.empty((n, part.shape[1]))
    joined[rows] = part
    return joined


def _check_finite(rows, index, what):
    """Raise ValueError naming the first row with a non-finite value. One
    dot product: the sum of squares is finite only if every value is; one
    that overflows gets the exact check."""
    flat = rows.ravel()
    if not math.isfinite(flat.dot(flat)):
        bad = ~np.isfinite(rows).all(axis=-1)
        if bad.any():
            raise ValueError(f"embedding {index + int(bad.argmax())}: non-finite value in {what}")


def _predict(classifier, x, index):
    """classifier.predict over the row or batch. It fails for a batch as a
    whole (on a non-finite logit), so a failure is named by the first row
    that fails on its own."""
    try:
        return classifier.predict(x)
    except ValueError as exc:
        for k, row in enumerate(x.reshape(-1, x.shape[-1])):
            try:
                classifier.predict(row)
            except ValueError:
                raise ValueError(f"embedding {index + k}: {exc}") from exc
        raise


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
    """anonymize_embedding on one stream window; a failure names the window
    in place of the embedding. A call of its own, so a paused generator
    holds no reference to the result it handed out."""
    try:
        return anonymize_embedding(x, registry, index=index, noise_rng=noise_rng, coin=coin)
    except (PipelineError, ValueError) as exc:
        reason = str(exc).removeprefix(f"embedding {index}: ")
        raise PipelineError(f"window {index}: {reason}") from exc


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
