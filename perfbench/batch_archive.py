"""batch_archive: a closed loop over a large EMBA1 archive.

Each pass does what ``latent-anon anonymize`` does with an archive: load it,
run ``anonymize_batch`` in deterministic mode with a seeded noise stream, and
save the anonymized archive plus the provenance records. The whole input is
there at once, so batching across embeddings and archive I/O show here.
"""

import csv
import os
from dataclasses import replace
from time import perf_counter

import numpy as np

import fixtures as fx
import measure
from latent_anon import data, pipeline, transform

# x_hat is recomputed from the same noise through encode, apply_transfer and
# decode; float64 sums in another order differ by ~1e-13 on unit-scale data.
X_HAT_ATOL = 1e-8
PUBLIC_AFTER_MIN = 0.90  # utility the anonymization must keep
PRIVATE_AFTER_MAX = 0.45  # deterministic mode must push the private attribute below chance


def write_records(path, records):
    """The records.csv layout the CLI writes."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["index", "predicted_public", "predicted_private", "target_private", "applied", "zhat_crc32"]
        )
        for r in records:
            writer.writerow(
                [r.index, r.predicted_public, r.predicted_private, r.target_private, int(r.applied), r.zhat_crc32]
            )


def one_pass(fixture, registry, noise_seed, out_path, records_path):
    embeddings, meta = data.load_embeddings(fixture.path)
    outputs, records = pipeline.anonymize_batch(
        embeddings, registry, noise_rng=np.random.default_rng(noise_seed), latent_mode="sample"
    )
    data.save_embeddings(out_path, [replace(e, x=outputs[k]) for k, e in enumerate(embeddings)], meta)
    write_records(records_path, records)
    return embeddings, outputs, records


def check_pass(embeddings, outputs, records, registry, noise_seed):
    """Per-embedding failures, plus (public acc after, private acc after)."""
    x = np.stack([e.x for e in embeddings])
    u_true = np.array([e.true_public for e in embeddings])
    i_true = np.array([e.true_private for e in embeddings])
    u = registry.public_classifier.predict(x)
    i = registry.private_classifier.predict(x)
    mapping = registry.policy.mapping
    table = registry.mean_table
    latent_dim = table.latent_dim
    noise = np.random.default_rng(noise_seed).standard_normal((len(embeddings), latent_dim))
    reference = np.empty_like(outputs)
    for cls in np.unique(u):
        rows = np.flatnonzero(u == cls)
        vae = registry.vaes[int(cls)]
        dist = vae.encode(x[rows])
        z = dist.mu + np.exp(0.5 * dist.logvar) * noise[rows]
        z_hat = np.stack(
            [transform.apply_transfer(z[j], table, int(cls), int(i[r]), mapping[i[r]]) for j, r in enumerate(rows)]
        )
        reference[rows] = vae.decode(z_hat)
    close = np.all(np.abs(outputs - reference) <= X_HAT_ATOL, axis=1)
    failed = 0
    for k, r in enumerate(records):
        ok = (
            r.index == k
            and r.predicted_public == u[k]
            and r.predicted_private == i[k]
            and r.target_private == mapping[i[k]]
            and r.applied
            and close[k]
        )
        failed += not ok
    public_after = float(np.mean(registry.public_classifier.predict(outputs) == u_true))
    private_after = float(np.mean(registry.private_classifier.predict(outputs) == i_true))
    return failed, public_after, private_after


def run(ctx):
    fixture = ctx.fixture
    registry = fixture.models.registry("deterministic")
    out_path = os.path.join(ctx.workdir, f"anonymized-{os.getpid()}.emba")
    records_path = os.path.join(ctx.workdir, f"records-{os.getpid()}.csv")
    rng = np.random.default_rng(fx.derive_seed(ctx.seed, 10))
    ctx.layer["data.archive_mb"] = os.path.getsize(fixture.path) / 2**20
    traced = ctx.tracer is not None
    phases = [(None, 0.5), (ctx.tracer, 0.5)] if traced else [(None, 1.0)]
    medians = []
    for tracer, share in phases:
        times = []
        deadline = perf_counter() + share * ctx.seconds
        while not times or perf_counter() < deadline:
            noise_seed = int(rng.integers(2**63))
            if tracer is not None:
                tracer.active = True
            t0 = perf_counter()
            try:
                embeddings, outputs, records = one_pass(fixture, registry, noise_seed, out_path, records_path)
            except Exception as exc:  # a pass that raises fails every embedding in it
                ctx.count(fixture.n_embeddings, fixture.n_embeddings)
                ctx.fail(f"pass raised {exc!r}")
                break
            finally:
                if tracer is not None:
                    tracer.active = False
            times.append(perf_counter() - t0)
            failed, public_after, private_after = check_pass(embeddings, outputs, records, registry, noise_seed)
            if public_after < PUBLIC_AFTER_MIN or private_after > PRIVATE_AFTER_MAX:
                ctx.fail(
                    f"public accuracy after {public_after:.3f} (min {PUBLIC_AFTER_MIN}) or "
                    f"private accuracy after {private_after:.3f} (max {PRIVATE_AFTER_MAX})"
                )
                failed = len(records)
            ctx.count(len(records), failed, round(public_after * len(records)), len(records))
            ctx.notes.setdefault("private_acc_after", []).append(private_after)
        if times:
            medians.append(measure.median(times))
            ctx.notes.setdefault("pass_s", []).append(times)
    # the saved archive must read back bit for bit
    if medians:
        saved, _ = data.load_embeddings(out_path)
        if not np.array_equal(np.stack([e.x for e in saved]), outputs):
            ctx.fail("saved archive does not round-trip")
        ctx.throughput = fixture.n_embeddings / measure.uncontended(ctx.notes["pass_s"][0])
        ctx.named["batch_eps"] = (ctx.throughput, "embeddings/s")
        ctx.named["batch_pass_p50_s"] = (medians[0], "s")
        if traced:
            ctx.overhead_frac = medians[1] / medians[0] - 1.0
    for path in (out_path, records_path):
        if os.path.exists(path):
            os.remove(path)


def layer_extras(table):
    return {
        "pipeline.batch_call_s": table.mean(table.select("pipeline.batch")),
        "data.archive_load_s": table.mean(table.select("data.archive_load")),
        "data.archive_save_s": table.mean(table.select("data.archive_save")),
    }
