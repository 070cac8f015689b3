"""What each workload reports, beyond the metrics BENCHMARK.json gates.

BENCHMARK.json holds the end-to-end metrics every workload produces, with
their regression bounds, and the per-layer metrics every traced run
produces. Change descriptions also refer to workload-specific names: ALIASES
gives the ones that are a gated metric under another name, NAMED the rest,
whose bounds the comparison command applies.
"""

# name: (unit, better, bound, workloads). Medians and tails of user-visible
# times: they carry the host's contention, so compare.py often reports them
# unresolved on a shared machine.
NAMED = {
    "batch_pass_p50_s": ("s", "lower", 0.25, ("batch_archive",)),
    "stream_p50_ms": ("ms", "lower", 0.25, ("stream_fleet",)),
    "stream_tail_ms": ("ms", "lower", 0.25, ("stream_fleet",)),
    "stream_max_streams": ("streams", "higher", 0.25, ("stream_fleet",)),
    "attack_run_s": ("s", "lower", 0.25, ("train_reid",)),
    "failed_frac": ("ratio", "lower", 0.0, ("batch_archive", "stream_fleet", "train_reid")),
}

# generic BENCHMARK.json metric -> the named metric it equals, per workload
ALIASES = {
    "batch_archive": {"throughput_per_s": "batch_eps"},
    "stream_fleet": {"throughput_per_s": "stream_service_rate"},
    "train_reid": {"throughput_per_s": "train_rows_per_s"},
}

# per-layer metric -> (end-to-end metric it should move, workload)
LAYER_TARGETS = {
    "pipeline.embedding_us": ("stream_p50_ms, stream_tail_ms", "stream_fleet"),
    "pipeline.self_us": ("stream_p50_ms, stream_tail_ms", "stream_fleet"),
    "pipeline.stream_row_us": ("stream_max_streams", "stream_fleet"),
    "pipeline.batch_call_s": ("batch_eps", "batch_archive"),
    "models.classify_public_us": ("batch_eps, then stream_*", "batch_archive, stream_fleet"),
    "models.classify_private_us": ("batch_eps, then stream_*", "batch_archive, stream_fleet"),
    "models.encode_us": ("batch_eps, then stream_*", "batch_archive, stream_fleet"),
    "models.decode_us": ("batch_eps, then stream_*", "batch_archive, stream_fleet"),
    "models.calls": ("batch_eps (batching shows as fewer calls)", "batch_archive"),
    "models.rows_per_call": ("batch_eps (batching shows as more rows per call)", "batch_archive"),
    "models.train_classifier_s": ("train_rows_per_s; setup_s elsewhere", "train_reid"),
    "models.train_vae_s": ("train_rows_per_s; setup_s elsewhere", "train_reid"),
    "models.loss_and_gradients_us": ("train_rows_per_s; setup_s elsewhere", "train_reid"),
    "nn.optim_step_us": ("train_rows_per_s", "train_reid"),
    "nn.steps": ("train_rows_per_s", "train_reid"),
    "transform.modify_us": ("stream_*", "stream_fleet"),
    "transform.coin_flips": ("stream_*", "stream_fleet"),
    "transform.applied_frac": ("stream_* (about 1/2 in probabilistic mode)", "stream_fleet"),
    "transform.mean_table_s": ("setup_s", "all"),
    "data.archive_load_s": ("batch_eps", "batch_archive"),
    "data.archive_save_s": ("batch_eps", "batch_archive"),
    "data.archive_mb": ("batch_eps", "batch_archive"),
    "data.synth_s": ("setup_s", "all"),
    "data.window_s": ("setup_s", "all"),
    "attack.sample_anonymize_s": ("attack_run_s", "train_reid"),
    "attack.attacker_train_s": ("attack_run_s", "train_reid"),
    "attack.test_anonymize_s": ("attack_run_s", "train_reid"),
    "attack.workers": ("attack_run_s", "train_reid"),
    "attack.busy_frac": ("attack_run_s (GIL contention)", "train_reid"),
    "stream.generator_lag_ms": ("stream_tail_ms", "stream_fleet"),
    "stream.backlog_max": ("stream_tail_ms, stream_max_streams", "stream_fleet"),
    "stream.busy_frac": ("stream_max_streams", "stream_fleet"),
    "trace.overhead_frac": ("traced / untraced operation time - 1", "all"),
}
