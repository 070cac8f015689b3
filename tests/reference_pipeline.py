"""The per-row anonymization path that the one six-step core replaced, kept
verbatim as the reference that the differential tests compare the core with.

reference_anonymize_embedding is the (D,) body of anonymize_embedding before
the row and the batch shared one implementation: every model call on the
vector, the transfer through transform.apply_transfer, one record. It takes
only a (D,) row.
"""

import math
import zlib
from time import perf_counter

import numpy as np

from latent_anon.models.vae import sample_latent
from latent_anon.pipeline import AnonymizationRecord, PipelineError
from latent_anon.transform import apply_transfer

_DEFAULT_RNG = np.random.default_rng()


def reference_anonymize_embedding(
    x,
    registry,
    *,
    index=0,
    noise_rng=None,
    coin=None,
    timings=None,
):
    """(x_hat, record) of one (D,) row, as the row path computed them."""
    x = np.asarray(x, dtype=float)
    dim = registry.public_classifier.input_dim
    if x.shape != (dim,):
        raise ValueError(f"the reference takes a ({dim},) row, got shape {x.shape}")
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
